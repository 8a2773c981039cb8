//! One owner for the diversity-edge source and warm state of solves over
//! open subsets of one catalog — the iteration engine's, the `hta-crowd`
//! platform's and the `hta-server` state's. [`EdgeSource::choose`] is the
//! one place that knows the cap rule; [`OpenSetSession`] holds the state
//! the choice calls for, so a cache and a warm state bound to different
//! sources cannot be represented. Every source solves byte-identically to
//! [`Solver::solve`]; it only changes the cost.
//!
//! [`OpenSetSession::solve_round`] is the one body of an assignment round
//! (the paper's Fig. 4 "Solve HTA" box) once its members are chosen.

use std::sync::Arc;

use rand::Rng;

use crate::assignment::Assignment;
use crate::bitvec::KeywordVec;
use crate::edges::{self, DiversityEdgeCache};
use crate::error::HtaError;
use crate::instance::Instance;
use crate::metric::Distance;
use crate::solver::{
    solve_open_subset_sparse_warm, solve_open_subset_warm, SolveOutcome, Solver, SparseWarmState,
    WarmState,
};
use crate::sparse::SparseEdgeCache;
use crate::task::{Task, TaskId};
use crate::worker::Worker;

/// Which diversity-edge source serves solves over open subsets of a
/// catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// No cache: every solve enumerates its own edges.
    Off,
    /// The catalog-wide sorted edge list, with warm matching state iff
    /// `warm`.
    Dense {
        /// Carry the matching forward between solves.
        warm: bool,
    },
    /// Edges over the members of top-`k` candidate pools (generated by
    /// the caller for each solve), with warm matching state.
    Sparse,
}

impl EdgeSource {
    /// The edge source for an `n_tasks` catalog: dense when edge reuse is
    /// on and the catalog fits the cap (`edge_cache_cap`, `0` = auto, see
    /// [`edge_cache_cap`](crate::edges::edge_cache_cap)); sparse past the
    /// cap when edge reuse and warm start are on and candidates come from
    /// top-`k` pools (`top_k = Some(k)`); otherwise off.
    pub fn choose(
        n_tasks: usize,
        edge_cache_cap: usize,
        reuse_edges: bool,
        warm_start: bool,
        top_k: Option<usize>,
    ) -> Self {
        if !reuse_edges {
            return Self::Off;
        }
        if n_tasks <= edges::edge_cache_cap(edge_cache_cap) {
            return Self::Dense { warm: warm_start };
        }
        match top_k {
            Some(_) if warm_start => Self::Sparse,
            _ => Self::Off,
        }
    }
}

/// The edge cache and warm state behind solves over open subsets of one
/// catalog.
#[derive(Debug)]
pub enum OpenSetSession {
    /// Every solve enumerates its own edges.
    Off,
    /// Catalog-wide edges; `warm` is `Some` iff warm start is on.
    Dense {
        /// The catalog's sorted positive-diversity edge list, enumerated
        /// on first use.
        cache: DiversityEdgeCache,
        /// Matching state carried between solves, bound to `cache`.
        warm: Option<WarmState>,
    },
    /// Pool-scoped edges: every [round](Self::solve_round) refreshes
    /// `cache` to its members and scans their edges; `warm` is `Some` after
    /// the first refresh.
    Sparse {
        /// Edges over the current pool members.
        cache: SparseEdgeCache,
        /// The LSAP memo carried between solves, built on `cache`.
        warm: Option<SparseWarmState>,
    },
}

impl OpenSetSession {
    /// Build the state `source` calls for over a catalog with task
    /// `keywords` (catalog order). Only a dense source reads the vectors:
    /// it fingerprints and packs them, and enumerates the edge list under
    /// `distance` on `threads` threads (`0` = auto) on the first solve
    /// whose open set pays for it (eagerly for a distance without the
    /// popcount kernels); its warm matching likewise waits for the first
    /// warm solve. A sparse cache only takes the catalog size, and nothing
    /// hashes the catalog.
    pub fn new<'a>(
        source: EdgeSource,
        keywords: impl ExactSizeIterator<Item = &'a KeywordVec>,
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
    ) -> Self {
        match source {
            EdgeSource::Off => Self::Off,
            EdgeSource::Dense { warm } => {
                Self::dense(&keywords.collect::<Vec<_>>(), distance, threads, warm)
            }
            EdgeSource::Sparse => Self::Sparse {
                cache: SparseEdgeCache::new(keywords.len()),
                warm: None,
            },
        }
    }

    pub(crate) fn dense(
        keywords: &[&KeywordVec],
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
        warm: bool,
    ) -> Self {
        let threads = hta_par::solver_threads(threads);
        let cache = DiversityEdgeCache::build_over(keywords, distance, threads);
        let warm = warm.then(|| WarmState::new(&cache));
        Self::Dense { cache, warm }
    }

    /// The catalog-wide edge cache (`Dense` only).
    pub fn dense_cache(&self) -> Option<&DiversityEdgeCache> {
        match self {
            Self::Dense { cache, .. } => Some(cache),
            _ => None,
        }
    }

    /// The dense warm state (`Dense` with warm start only).
    pub fn warm(&self) -> Option<&WarmState> {
        match self {
            Self::Dense { warm, .. } => warm.as_ref(),
            _ => None,
        }
    }

    /// The pool-scoped edge cache (`Sparse` only).
    pub fn sparse_cache(&self) -> Option<&SparseEdgeCache> {
        match self {
            Self::Sparse { cache, .. } => Some(cache),
            _ => None,
        }
    }

    /// Bind fresh dense warm state (`on`) or drop it. Only `Dense` changes.
    pub fn set_warm(&mut self, on: bool) {
        if let Self::Dense { cache, warm } = self {
            *warm = on.then(|| WarmState::new(cache));
        }
    }

    /// Rebuild dense warm state from a checkpointed open set (see
    /// [`WarmState::restore`]; the caller validates `open`). Only `Dense`
    /// changes.
    pub fn restore_warm(&mut self, open: &[u32]) {
        if let Self::Dense { cache, warm } = self {
            *warm = Some(WarmState::restore(cache, open));
        }
    }

    /// Refresh the sparse cache to exactly `members` (strictly increasing
    /// catalog ids; `weight(i, j)` weighs members `i` and `j` by position,
    /// and is called only when the members changed) and make its warm
    /// state exist. Only `Sparse` changes.
    fn refresh_pool(&mut self, members: &[u32], weight: impl Fn(usize, usize) -> f64 + Sync) {
        if let Self::Sparse { cache, warm } = self {
            cache.refresh(members, weight);
            warm.get_or_insert_with(|| SparseWarmState::new(cache));
        }
    }

    /// Re-check a dense cache against the catalog's `fingerprint`
    /// ([`keywords_fingerprint`](crate::edges::keywords_fingerprint) of its
    /// task vectors): on a mismatch it is rebuilt in place, lazily, from
    /// `keywords()` (re-binding any warm state). `keywords` runs only on a
    /// mismatch. Merely bypassing a stale cache would re-enumerate edges on
    /// every later solve.
    pub fn revalidate<'a>(
        &mut self,
        fingerprint: u64,
        keywords: impl FnOnce() -> Vec<&'a KeywordVec>,
        distance: &(dyn Distance + Send + Sync),
        threads: usize,
    ) {
        match self {
            Self::Dense { cache, warm } if cache.fingerprint() != fingerprint => {
                *self = Self::dense(&keywords(), distance, threads, warm.is_some());
            }
            _ => {}
        }
    }

    /// Solve `inst`, whose tasks are the catalog subset `open` (one catalog
    /// index per local task id), through this session's edge source; the
    /// guards of [`solve_open_subset_warm`]/[`solve_open_subset_sparse_warm`]
    /// pick the warm, filtered-edge or cold path.
    fn solve(
        &mut self,
        solver: &dyn Solver,
        inst: &Instance,
        open: &[usize],
        rng: &mut dyn Rng,
    ) -> SolveOutcome {
        match self {
            Self::Off => solver.solve(inst, rng),
            Self::Dense { cache, warm } => {
                solve_open_subset_warm(solver, inst, open, Some(cache), warm.as_mut(), rng)
            }
            Self::Sparse { cache, warm } => {
                solve_open_subset_sparse_warm(solver, inst, open, Some(cache), warm.as_mut(), rng)
            }
        }
    }

    /// One assignment round over `members` (catalog ids): freeze them and
    /// `round`'s cohort into an [`Instance`], refresh a sparse cache to
    /// them, solve through this session's edge source, validate, and map the
    /// result back to catalog ids. Task vectors narrower than the workers'
    /// are widened to their universe.
    ///
    /// A sparse session needs `members` strictly increasing, as every
    /// top-k pool is. The dense guards fall back to a plain solve on any
    /// other order, with byte-identical output either way.
    pub fn solve_round(
        &mut self,
        members: Vec<u32>,
        round: Round<'_>,
        rng: &mut dyn Rng,
    ) -> Result<RoundOutcome, HtaError> {
        let Round {
            workers,
            task,
            xmax,
            distance,
            solver,
        } = round;
        let width = workers.first().map_or(0, |w| w.keywords.nbits());
        let tasks: Vec<Task> = members
            .iter()
            .enumerate()
            .map(|(local, &ci)| {
                let t = task(ci);
                let keywords = if t.keywords.nbits() < width {
                    t.keywords.widened(width)
                } else {
                    t.keywords.clone()
                };
                Task::new(TaskId(local as u32), t.group, keywords)
            })
            .collect();
        let instance = Instance::with_distance(tasks, workers, xmax, distance, false)?;
        // The instance's tasks are the members in order, so its diversity
        // weighs the pool exactly as a cold solve over it does.
        self.refresh_pool(&members, |i, j| instance.diversity(i, j));
        let open: Vec<usize> = members.iter().map(|&m| m as usize).collect();
        let assignment = self.solve(solver, &instance, &open, rng).assignment;
        assignment.validate(&instance)?;
        Ok(RoundOutcome {
            members,
            instance,
            assignment,
        })
    }
}

/// What an assignment round freezes besides its members.
pub struct Round<'a> {
    /// The cohort, labelled `0..n` in cohort order, with the weights to
    /// solve under.
    pub workers: Vec<Worker>,
    /// The catalog task with a given id.
    pub task: &'a dyn Fn(u32) -> &'a Task,
    /// Per-worker capacity `X_max`.
    pub xmax: usize,
    /// The distance behind relevance and diversity.
    pub distance: Arc<dyn Distance + Send + Sync>,
    /// The HTA solver.
    pub solver: &'a dyn Solver,
}

/// A solved round, in catalog ids.
pub struct RoundOutcome {
    members: Vec<u32>,
    instance: Instance,
    assignment: Assignment,
}

impl RoundOutcome {
    /// The members solved over, as catalog ids in local task order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The catalog ids assigned to the cohort's `worker`-th member.
    pub fn tasks_of(&self, worker: usize) -> impl Iterator<Item = u32> + '_ {
        let members = &self.members;
        self.assignment
            .tasks_of(worker)
            .iter()
            .map(move |&local| members[local])
    }

    /// The Eq. 3 objective of the solve.
    pub fn objective(&self) -> f64 {
        self.assignment.objective(&self.instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use hta_matching::WeightedEdge;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::metric::Jaccard;
    use crate::solver::HtaGre;
    use crate::task::GroupId;
    use crate::worker::{Weights, WorkerId};

    #[test]
    fn edge_source_policy_table() {
        use EdgeSource::{Dense, Off, Sparse};
        let cap = 600;
        // (n_tasks, reuse_edges, warm_start, top_k) -> source
        let table: &[(usize, bool, bool, Option<usize>, EdgeSource)] = &[
            // At and just under the cap: dense whenever edges are reused,
            // in Full and TopK mode alike; warm follows warm_start.
            (600, true, true, None, Dense { warm: true }),
            (600, true, true, Some(16), Dense { warm: true }),
            (600, true, false, None, Dense { warm: false }),
            (600, true, false, Some(16), Dense { warm: false }),
            (599, true, true, Some(16), Dense { warm: true }),
            (599, true, false, None, Dense { warm: false }),
            (600, false, true, Some(16), Off),
            (599, false, false, None, Off),
            // Just over the cap: sparse only for warm TopK with reuse.
            (601, true, true, Some(16), Sparse),
            (601, true, true, Some(8), Sparse),
            (601, true, true, None, Off),
            (601, true, false, Some(16), Off),
            (601, true, false, None, Off),
            (601, false, true, Some(16), Off),
            (601, false, false, None, Off),
        ];
        for &(n, reuse, warm, top_k, want) in table {
            assert_eq!(
                EdgeSource::choose(n, cap, reuse, warm, top_k),
                want,
                "n={n} reuse={reuse} warm={warm} top_k={top_k:?}"
            );
        }
        // `0` resolves to the auto cap, as `edges::edge_cache_cap(0)` does.
        let auto = edges::edge_cache_cap(0);
        assert_eq!(
            EdgeSource::choose(auto, 0, true, true, Some(16)),
            Dense { warm: true }
        );
        assert_eq!(
            EdgeSource::choose(auto + 1, 0, true, true, Some(16)),
            Sparse
        );
    }

    /// HTA-GRE that logs, for each solve, the entry point that ran and the
    /// `lsap_value` bits it returned.
    struct Logged {
        inner: HtaGre,
        log: RefCell<Vec<(&'static str, u64)>>,
    }

    impl Logged {
        fn new() -> Self {
            Self {
                inner: HtaGre::structured(),
                log: RefCell::new(Vec::new()),
            }
        }

        fn record(&self, entry: &'static str, out: SolveOutcome) -> SolveOutcome {
            self.log
                .borrow_mut()
                .push((entry, out.lsap_value.to_bits()));
            out
        }

        fn last(&self) -> (&'static str, u64) {
            *self.log.borrow().last().expect("a solve ran")
        }
    }

    impl Solver for Logged {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn solve(&self, inst: &Instance, rng: &mut dyn Rng) -> SolveOutcome {
            self.record("cold", self.inner.solve(inst, rng))
        }

        fn solve_with_diversity_edges(
            &self,
            inst: &Instance,
            sorted_edges: &[WeightedEdge],
            rng: &mut dyn Rng,
        ) -> SolveOutcome {
            let out = self
                .inner
                .solve_with_diversity_edges(inst, sorted_edges, rng);
            self.record("edges", out)
        }

        fn solve_warm(
            &self,
            inst: &Instance,
            cache: &DiversityEdgeCache,
            warm: &mut WarmState,
            open: &[u32],
            rng: &mut dyn Rng,
        ) -> SolveOutcome {
            let out = self.inner.solve_warm(inst, cache, warm, open, rng);
            self.record("warm", out)
        }

        fn solve_warm_sparse(
            &self,
            inst: &Instance,
            cache: &SparseEdgeCache,
            warm: &mut SparseWarmState,
            open: &[u32],
            rng: &mut dyn Rng,
        ) -> SolveOutcome {
            let out = self.inner.solve_warm_sparse(inst, cache, warm, open, rng);
            self.record("sparse", out)
        }
    }

    /// Deterministic splitmix64 for catalogs and pool sequences.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// `size` distinct ids below `n` outside `avoid`, ascending.
        fn pool(&mut self, n: usize, size: usize, avoid: &[u32]) -> Vec<u32> {
            let mut out: Vec<u32> = Vec::new();
            while out.len() < size.min(n - avoid.len()) {
                let t = self.below(n) as u32;
                if !avoid.contains(&t) && !out.contains(&t) {
                    out.push(t);
                }
            }
            out.sort_unstable();
            out
        }

        /// A pool of 4 to 13 ids below `N` outside `avoid`.
        fn fresh(&mut self, avoid: &[u32]) -> Vec<u32> {
            let size = 4 + self.below(10);
            self.pool(N, size, avoid)
        }
    }

    fn round_of<'a>(
        workers: &[Worker],
        task: &'a dyn Fn(u32) -> &'a Task,
        solver: &'a Logged,
    ) -> Round<'a> {
        Round {
            workers: workers.to_vec(),
            task,
            xmax: 3,
            distance: Arc::new(Jaccard),
            solver,
        }
    }

    /// The instance a round over `ids` builds, tasks relabelled `0..`.
    fn sub_instance(catalog: &[Task], workers: &[Worker], ids: &[u32]) -> Instance {
        let tasks = ids
            .iter()
            .enumerate()
            .map(|(local, &g)| {
                let t = &catalog[g as usize];
                Task::new(TaskId(local as u32), t.group, t.keywords.clone())
            })
            .collect();
        Instance::with_distance(tasks, workers.to_vec(), 3, Arc::new(Jaccard), false).unwrap()
    }

    /// Catalog size of the pool-sequence property.
    const N: usize = 40;
    /// Task keywords lie in `0..TASK_BITS`; a worker outside that range has
    /// relevance 0 to every task.
    const TASK_BITS: usize = 12;

    /// A dense warm session over a 1,000-task catalog serves TopK-sized
    /// rounds cold, without enumerating the edge list or building the
    /// matching; the first Full-sized window builds both and solves warm.
    /// Every round equals an Off session's, byte for byte.
    #[test]
    fn small_rounds_leave_the_dense_cache_unbuilt() {
        let n = 1_000;
        let mut mix = Mix(7);
        let catalog: Vec<Task> = (0..n)
            .map(|i| {
                let kws: Vec<usize> = (0..1 + mix.below(3)).map(|_| mix.below(16)).collect();
                Task::new(
                    TaskId(i as u32),
                    GroupId(0),
                    KeywordVec::from_indices(16, &kws),
                )
            })
            .collect();
        let workers: Vec<Worker> = (0..2)
            .map(|q| {
                Worker::new(WorkerId(q), KeywordVec::from_indices(16, &[q as usize]))
                    .with_weights(Weights::from_alpha(0.6))
            })
            .collect();
        let keywords = catalog.iter().map(|t| &t.keywords);
        let source = EdgeSource::Dense { warm: true };
        let mut dense = OpenSetSession::new(source, keywords, &Jaccard, 1);
        let mut off = OpenSetSession::Off;
        let (by_dense, by_off) = (Logged::new(), Logged::new());
        let task = |t: u32| &catalog[t as usize];
        let built = |s: &OpenSetSession| {
            let (cache, warm) = (s.dense_cache().unwrap(), s.warm().unwrap());
            (cache.is_built(), warm.has_matching())
        };

        // 45 members hold 990 pairs, ten short of paying for the list; 46
        // hold 1,035. The last round is a Full window over every task.
        let pools = [
            mix.pool(n, 16, &[]),
            mix.pool(n, 20, &[]),
            mix.pool(n, 45, &[]),
            (0..46).map(|i| 3 * i + 1).collect(),
            mix.pool(n, 20, &[]),
            (0..n as u32).collect(),
        ];
        for (step, pool) in pools.iter().enumerate() {
            let seed = step as u64;
            let out_dense = dense
                .solve_round(
                    pool.clone(),
                    round_of(&workers, &task, &by_dense),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            let out_off = off
                .solve_round(
                    pool.clone(),
                    round_of(&workers, &task, &by_off),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            for q in 0..workers.len() {
                assert_eq!(
                    out_dense.tasks_of(q).collect::<Vec<_>>(),
                    out_off.tasks_of(q).collect::<Vec<_>>(),
                    "step {step} worker {q}"
                );
            }
            let ((entry, dense_bits), (_, off_bits)) = (by_dense.last(), by_off.last());
            assert_eq!(dense_bits, off_bits, "step {step} lsap_value");
            let warm = pool.len() * (pool.len() - 1) / 2 >= n;
            assert_eq!(entry, if warm { "warm" } else { "cold" }, "step {step}");
            let expect_built = step >= 3;
            assert_eq!(built(&dense), (expect_built, expect_built), "step {step}");
        }
        assert_eq!(dense.warm().unwrap().open_list().len(), n);
    }

    proptest! {
        /// A Sparse session and an Off session driven through
        /// `solve_round` over the same random pool sequence — small deltas,
        /// total swaps, a repeated pool (an LSAP memo hit), an empty pool,
        /// and a same-size pool with other members — assign the same tasks
        /// with the same `lsap_value` bits, and so does a sparse solve of a
        /// strict subset of each pool against a cold one. When the workers' relevance is
        /// zero everywhere, two pools of one size differ to the LSAP only
        /// through `b_M`, so a memo that ignored it would replay a wrong
        /// solution.
        #[test]
        fn sparse_rounds_match_off_over_random_pool_sequences(
            seed in 0u64..u64::MAX,
            ops in proptest::collection::vec(0usize..5, 4..14),
            n_workers in 1usize..3,
            irrelevant in 0usize..2,
        ) {
            let mut mix = Mix(seed);
            let nbits = 16;
            let catalog: Vec<Task> = (0..N)
                .map(|i| {
                    let kws: Vec<usize> =
                        (0..1 + mix.below(3)).map(|_| mix.below(TASK_BITS)).collect();
                    Task::new(
                        TaskId(i as u32),
                        GroupId(0),
                        KeywordVec::from_indices(nbits, &kws),
                    )
                })
                .collect();
            let workers: Vec<Worker> = (0..n_workers)
                .map(|q| {
                    let kw = if irrelevant == 1 {
                        TASK_BITS + mix.below(nbits - TASK_BITS)
                    } else {
                        mix.below(TASK_BITS)
                    };
                    let alpha = [0.5, 0.8][q % 2];
                    Worker::new(WorkerId(q as u32), KeywordVec::from_indices(nbits, &[kw]))
                        .with_weights(Weights::from_alpha(alpha))
                })
                .collect();

            let keywords = catalog.iter().map(|t| &t.keywords);
            let mut sparse = OpenSetSession::new(EdgeSource::Sparse, keywords, &Jaccard, 1);
            let mut off = OpenSetSession::Off;
            let (by_sparse, by_off) = (Logged::new(), Logged::new());
            let (mut rng_sparse, mut rng_off) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let task = |t: u32| &catalog[t as usize];
            let round = |solver| round_of(&workers, &task, solver);

            let mut pool = mix.fresh(&[]);
            for (step, &op) in ops.iter().enumerate() {
                let out_sparse = sparse
                    .solve_round(pool.clone(), round(&by_sparse), &mut rng_sparse)
                    .unwrap();
                let out_off = off
                    .solve_round(pool.clone(), round(&by_off), &mut rng_off)
                    .unwrap();
                for q in 0..n_workers {
                    prop_assert_eq!(
                        out_sparse.tasks_of(q).collect::<Vec<_>>(),
                        out_off.tasks_of(q).collect::<Vec<_>>(),
                        "step {} worker {}", step, q
                    );
                }
                let ((entry, sparse_bits), (_, off_bits)) = (by_sparse.last(), by_off.last());
                prop_assert_eq!(entry, "sparse", "step {}", step);
                prop_assert_eq!(sparse_bits, off_bits, "step {} lsap_value", step);

                // A strict subset of the pool through a copy of the
                // session's cache and warm state: the filter path, which a
                // round (every member open) never takes.
                if let OpenSetSession::Sparse { cache, warm: Some(warm) } = &sparse {
                    if pool.len() >= 2 {
                        let mut sub = pool.clone();
                        sub.remove((seed as usize).wrapping_add(step) % sub.len());
                        let inst = sub_instance(&catalog, &workers, &sub);
                        let open: Vec<usize> = sub.iter().map(|&t| t as usize).collect();
                        let (cache, mut warm) = (cache.clone(), warm.clone());
                        let out = solve_open_subset_sparse_warm(
                            &by_sparse,
                            &inst,
                            &open,
                            Some(&cache),
                            Some(&mut warm),
                            &mut StdRng::seed_from_u64(step as u64),
                        );
                        let cold = by_off.solve(&inst, &mut StdRng::seed_from_u64(step as u64));
                        prop_assert_eq!(by_sparse.last().0, "sparse", "step {} subset", step);
                        prop_assert_eq!(out.assignment, cold.assignment, "step {} subset", step);
                        prop_assert_eq!(
                            out.lsap_value.to_bits(),
                            cold.lsap_value.to_bits(),
                            "step {} subset lsap_value", step
                        );
                    }
                }

                pool = match op {
                    // Small delta: one member leaves, one task joins.
                    0 => {
                        let mut next = pool.clone();
                        if !next.is_empty() {
                            next.remove(mix.below(next.len()));
                        }
                        next.extend(mix.pool(N, 1, &pool));
                        next.sort_unstable();
                        next
                    }
                    // Total swap: no member survives.
                    1 => mix.fresh(&pool),
                    // The same pool again.
                    2 => pool,
                    // An empty pool.
                    3 => Vec::new(),
                    // As many members, drawn afresh.
                    _ => mix.pool(N, pool.len().max(4), &[]),
                };
            }
        }
    }
}
