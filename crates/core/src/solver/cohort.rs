//! Cohort solves over an open subset of a fixed catalog.
//!
//! Serving layers (the `hta-server` platform, the `hta-crowd` simulator)
//! repeatedly solve instances whose tasks are an *open subset* of one
//! immutable catalog. Enumerating the `O(|T'|²)` positive-diversity edges
//! per solve dominates the pipeline on large subsets; a catalog-level
//! [`DiversityEdgeCache`] amortizes that work across every solve. Reuse is
//! only sound when the subset is given in strictly increasing catalog
//! order — then [`DiversityEdgeCache::filter_sorted`] reproduces a fresh
//! enumerate-and-sort bit-for-bit and the solver output is byte-identical
//! to the uncached path — and it only pays when the subset holds at least
//! as many pairs as the catalog has tasks: a filtered solve scans every
//! catalog edge and a warm repair scans a catalog-wide incidence row per
//! changed task, while a cold solve enumerates only the subset's own
//! pairs. This module centralizes both checks so each caller does not
//! reimplement them.

use rand::Rng;

use crate::edges::DiversityEdgeCache;
use crate::instance::Instance;
use crate::solver::{SolveOutcome, Solver, SparseWarmState, WarmState};
use crate::sparse::SparseEdgeCache;

/// Whether `cache` may serve a solve over the catalog subset `open`: the
/// subset is strictly increasing (so the filtered sublist of the global
/// sorted edge list equals enumerating and sorting the sub-instance), in
/// range for the cached catalog, and holds at least as many pairs as the
/// catalog has tasks, `m(m−1)/2 ≥ n` (below that a cold solve, which
/// enumerates only its own pairs, is cheaper than any catalog-wide scan).
fn cache_serves(cache: &DiversityEdgeCache, open: &[usize]) -> bool {
    let m = open.len();
    open.windows(2).all(|w| w[0] < w[1])
        && open.last().is_none_or(|&g| g < cache.n_tasks())
        && m * m.saturating_sub(1) / 2 >= cache.n_tasks()
}

/// Solve `inst`, whose tasks are the catalog subset `open` (catalog
/// indices, one per local task id, in local order), reusing `cache` when
/// that is provably equivalent to a fresh solve and cheaper than one.
///
/// The cached edge list is used only when a cache is supplied and it
/// serves `open` (strictly increasing, in range, and at least `n` pairs
/// over an `n`-task catalog); otherwise the call falls back to
/// [`Solver::solve`]. Either way the output is byte-identical.
///
/// Callers holding a cache of uncertain provenance should additionally
/// gate on [`DiversityEdgeCache::valid_for`] against their catalog before
/// passing it here.
pub fn solve_open_subset(
    solver: &dyn Solver,
    inst: &Instance,
    open: &[usize],
    cache: Option<&DiversityEdgeCache>,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    match cache {
        Some(cache) if cache_serves(cache, open) => {
            let open_u32: Vec<u32> = open.iter().map(|&i| i as u32).collect();
            let edges = cache.filter_sorted(&open_u32);
            solver.solve_with_diversity_edges(inst, &edges, rng)
        }
        _ => solver.solve(inst, rng),
    }
}

/// [`solve_open_subset`] carrying warm-start state between solves.
///
/// The warm path is taken only when the cache serves `open` (the same
/// rule as [`solve_open_subset`]) **and** the warm state is bound to the
/// supplied cache ([`WarmState::matches_cache`]) **and** the instance's
/// task count equals the open-subset length. Any violation degrades
/// gracefully — first to the plain edge-cache path, then to a cold solve —
/// leaving `warm` untouched, so a caller whose open set momentarily loses
/// sortedness (e.g. a downsampled candidate pool) or shrinks below the
/// rule pays only the cold cost for that call and resumes warm solving on
/// the next one the cache serves.
pub fn solve_open_subset_warm(
    solver: &dyn Solver,
    inst: &Instance,
    open: &[usize],
    cache: Option<&DiversityEdgeCache>,
    warm: Option<&mut WarmState>,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    match (cache, warm) {
        (Some(cache), Some(warm))
            if cache_serves(cache, open)
                && warm.matches_cache(cache)
                && inst.n_tasks() == open.len() =>
        {
            let open_u32: Vec<u32> = open.iter().map(|&i| i as u32).collect();
            solver.solve_warm(inst, cache, warm, &open_u32, rng)
        }
        _ => solve_open_subset(solver, inst, open, cache, rng),
    }
}

/// [`solve_open_subset_warm`] for catalogs past the dense edge-cache cap:
/// edges come from a pool-scoped [`SparseEdgeCache`] and the warm state is
/// a [`SparseWarmState`] carrying the LSAP memo.
///
/// The warm path is taken only when a cache and warm state are supplied,
/// `open` is a strictly increasing subset of the cache's pool members, the
/// warm state was built on the cache, and the instance's task count equals
/// the open-subset length. Degradation mirrors the dense helper: a usable
/// cache with an unusable warm state takes the filtered-edges path
/// (leaving `warm` untouched); anything less solves cold. The outcome is
/// byte-identical to [`Solver::solve`] in every case.
pub fn solve_open_subset_sparse_warm(
    solver: &dyn Solver,
    inst: &Instance,
    open: &[usize],
    cache: Option<&SparseEdgeCache>,
    warm: Option<&mut SparseWarmState>,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    let open_u32: Vec<u32> = open.iter().map(|&i| i as u32).collect();
    let covered = cache.is_some_and(|c| c.covers(&open_u32));
    match (cache, warm) {
        (Some(cache), Some(warm))
            if covered && warm.matches_cache(cache) && inst.n_tasks() == open.len() =>
        {
            solver.solve_warm_sparse(inst, cache, warm, &open_u32, rng)
        }
        (Some(cache), _) if covered => {
            solver.solve_with_diversity_edges(inst, &cache.filter_sorted(&open_u32), rng)
        }
        _ => solver.solve(inst, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::KeywordVec;
    use crate::metric::Jaccard;
    use crate::solver::HtaGre;
    use crate::task::{GroupId, Task, TaskId};
    use crate::worker::{Weights, Worker, WorkerId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog(n: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let mut kw = KeywordVec::new(16);
                kw.set(i % 16);
                kw.set((i * 3 + 1) % 16);
                Task::new(TaskId(i as u32), GroupId((i % 4) as u32), kw)
            })
            .collect()
    }

    fn sub_instance(tasks: &[Task], open: &[usize]) -> Instance {
        let local: Vec<Task> = open
            .iter()
            .enumerate()
            .map(|(li, &ci)| {
                Task::new(
                    TaskId(li as u32),
                    tasks[ci].group,
                    tasks[ci].keywords.clone(),
                )
            })
            .collect();
        let workers = vec![
            Worker::new(WorkerId(0), tasks[0].keywords.clone()).with_weights(Weights::balanced()),
            Worker::new(WorkerId(1), tasks[1].keywords.clone())
                .with_weights(Weights::from_alpha(0.7)),
        ];
        Instance::new(local, workers, 3).unwrap()
    }

    #[test]
    fn cached_and_fresh_solves_are_identical() {
        let tasks = catalog(20);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let solver = HtaGre::structured().without_flip();
        let open: Vec<usize> = vec![0, 2, 3, 5, 8, 11, 12, 15, 19];
        let inst = sub_instance(&tasks, &open);

        let mut rng1 = StdRng::seed_from_u64(9);
        let fresh = solver.solve(&inst, &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(9);
        let cached = solve_open_subset(&solver, &inst, &open, Some(&cache), &mut rng2);
        assert_eq!(fresh.assignment, cached.assignment);
        assert_eq!(fresh.lsap_value.to_bits(), cached.lsap_value.to_bits());
    }

    #[test]
    fn unsorted_subset_falls_back_to_a_plain_solve() {
        let tasks = catalog(12);
        let cache = DiversityEdgeCache::build(&tasks, &Jaccard, 1);
        let solver = HtaGre::structured().without_flip();
        // Same subset, shuffled: local task ids no longer ascend with the
        // catalog ids, so edge reuse would mis-map endpoints. The helper
        // must detect this and solve from scratch.
        let open = vec![5usize, 1, 9, 3];
        let inst = sub_instance(&tasks, &open);
        let mut rng1 = StdRng::seed_from_u64(4);
        let fresh = solver.solve(&inst, &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(4);
        let out = solve_open_subset(&solver, &inst, &open, Some(&cache), &mut rng2);
        assert_eq!(fresh.assignment, out.assignment);
    }

    #[test]
    fn out_of_range_subset_falls_back() {
        let tasks = catalog(6);
        let cache = DiversityEdgeCache::build(&tasks[..4], &Jaccard, 1);
        let solver = HtaGre::structured().without_flip();
        let open = vec![1usize, 3, 5]; // 5 is outside the 4-task cache
        let inst = sub_instance(&tasks, &open);
        let mut rng = StdRng::seed_from_u64(2);
        // Must not panic or read garbage; falls back to a fresh solve.
        let out = solve_open_subset(&solver, &inst, &open, Some(&cache), &mut rng);
        assert!(out.assignment.validate(&inst).is_ok());
    }

    fn pool_cache(tasks: &[Task], members: &[u32]) -> SparseEdgeCache {
        use crate::metric::Distance;
        let mut cache = SparseEdgeCache::new(tasks.len());
        let kw = |i: usize| &tasks[members[i] as usize].keywords;
        cache.refresh(members, |i, j| Jaccard.dist(kw(i), kw(j)));
        cache
    }

    #[test]
    fn sparse_warm_cold_and_filtered_solves_are_identical() {
        let tasks = catalog(30);
        let members: Vec<u32> = (0..30).filter(|m| m % 7 != 3).collect();
        let cache = pool_cache(&tasks, &members);
        let mut warm = crate::solver::SparseWarmState::new(&cache);
        let solver = HtaGre::structured().without_flip();

        // A churn sequence of open subsets of the pool members.
        let opens: Vec<Vec<usize>> = vec![
            members.iter().map(|&m| m as usize).collect(),
            members
                .iter()
                .filter(|&&m| m != 4 && m != 19)
                .map(|&m| m as usize)
                .collect(),
            members
                .iter()
                .filter(|&&m| m % 2 == 0)
                .map(|&m| m as usize)
                .collect(),
        ];
        for (step, open) in opens.iter().enumerate() {
            let inst = sub_instance(&tasks, open);
            let cold = solver.solve(&inst, &mut StdRng::seed_from_u64(31));
            let filtered = solve_open_subset_sparse_warm(
                &solver,
                &inst,
                open,
                Some(&cache),
                None,
                &mut StdRng::seed_from_u64(31),
            );
            let warmed = solve_open_subset_sparse_warm(
                &solver,
                &inst,
                open,
                Some(&cache),
                Some(&mut warm),
                &mut StdRng::seed_from_u64(31),
            );
            assert_eq!(cold.assignment, filtered.assignment, "step {step}");
            assert_eq!(cold.assignment, warmed.assignment, "step {step}");
            assert_eq!(
                cold.lsap_value.to_bits(),
                warmed.lsap_value.to_bits(),
                "step {step}"
            );
        }
    }

    #[test]
    fn sparse_open_set_outside_the_pool_falls_back_cold() {
        let tasks = catalog(20);
        let cache = pool_cache(&tasks, &(0..10).collect::<Vec<_>>());
        let mut warm = crate::solver::SparseWarmState::new(&cache);
        let solver = HtaGre::structured().without_flip();
        // 15 is not a pool member: the helper must not touch the cache.
        let open = vec![1usize, 3, 15];
        let inst = sub_instance(&tasks, &open);
        let cold = solver.solve(&inst, &mut StdRng::seed_from_u64(5));
        let out = solve_open_subset_sparse_warm(
            &solver,
            &inst,
            &open,
            Some(&cache),
            Some(&mut warm),
            &mut StdRng::seed_from_u64(5),
        );
        assert_eq!(cold.assignment, out.assignment);
    }
}
