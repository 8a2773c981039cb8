//! Candidate pools: from per-worker top-k retrieval to a pool-local
//! [`Instance`].
//!
//! The pool is the bridge between the retrieval layer and the HTA solvers.
//! It unions every worker's top-k most relevant open tasks, then — because a
//! pool smaller than `|W| · X_max` could make a full assignment infeasible —
//! tops the pool up to that floor with *diversity-seeded* tasks: open tasks
//! whose keywords are least represented in the pool so far, picked by a lazy
//! greedy coverage rule. The result maps into a pool-local [`Instance`] that
//! the solvers treat as any other instance, plus the index-back-to-catalog
//! table needed to commit assignments against the real task ids.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::str::FromStr;

use hta_core::state::{StateDecodeError, StateReader, StateSerialize};
use hta_core::{HtaError, Instance, Task, TaskId, Worker, WorkerId};

use crate::InvertedIndex;

/// How the assignment path selects the tasks handed to the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateMode {
    /// Dense: solve over every open task (the seed behaviour).
    Full,
    /// Sparse: per-worker top-k retrieval through the inverted index, pool
    /// topped up to the `|W| · X_max` feasibility floor.
    TopK(usize),
}

impl CandidateMode {
    /// The default per-worker retrieval depth for [`CandidateMode::TopK`].
    pub const DEFAULT_K: usize = 16;

    /// The per-worker retrieval depth: `Some(k)` iff [`CandidateMode::TopK`].
    pub fn top_k(self) -> Option<usize> {
        match self {
            CandidateMode::Full => None,
            CandidateMode::TopK(k) => Some(k),
        }
    }
}

impl Default for CandidateMode {
    fn default() -> Self {
        CandidateMode::TopK(Self::DEFAULT_K)
    }
}

impl FromStr for CandidateMode {
    type Err = String;

    /// Parse the CLI grammar `full` | `topk:<K>` (e.g. `topk:32`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(CandidateMode::Full),
            _ => match s.strip_prefix("topk:") {
                Some(k) => match k.parse::<usize>() {
                    Ok(k) if k > 0 => Ok(CandidateMode::TopK(k)),
                    _ => Err(format!(
                        "invalid top-k depth {k:?} (want a positive integer)"
                    )),
                },
                None => Err(format!(
                    "unknown candidate mode {s:?} (want \"full\" or \"topk:<K>\")"
                )),
            },
        }
    }
}

impl std::fmt::Display for CandidateMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CandidateMode::Full => write!(f, "full"),
            CandidateMode::TopK(k) => write!(f, "topk:{k}"),
        }
    }
}

impl StateSerialize for CandidateMode {
    fn write_state(&self, out: &mut Vec<u8>) {
        match self {
            CandidateMode::Full => 0u8.write_state(out),
            CandidateMode::TopK(k) => {
                1u8.write_state(out);
                k.write_state(out);
            }
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        match u8::read_state(r)? {
            0 => Ok(CandidateMode::Full),
            1 => {
                let k = usize::read_state(r)?;
                if k == 0 {
                    return Err(StateDecodeError::Invalid("top-k depth 0".into()));
                }
                Ok(CandidateMode::TopK(k))
            }
            tag => Err(StateDecodeError::Invalid(format!(
                "candidate mode tag {tag:#04x}"
            ))),
        }
    }
}

/// Tuning knobs for [`CandidatePool::generate`].
#[derive(Debug, Clone)]
pub struct PoolParams {
    /// Per-worker retrieval depth `k`.
    pub per_worker_k: usize,
}

impl PoolParams {
    /// Params with retrieval depth `k`.
    pub fn with_k(k: usize) -> Self {
        Self { per_worker_k: k }
    }
}

/// A pool-local instance plus the table mapping pool task indices back to
/// the caller's catalog ids.
pub struct PoolInstance {
    /// The solver-facing instance over the pool's tasks (ids re-labelled
    /// `0..pool len` in [`CandidatePool::members`] order).
    pub instance: Instance,
    /// `catalog_ids[pool_idx]` = the catalog id the pool task came from.
    pub catalog_ids: Vec<u32>,
}

/// The union of per-worker top-k sets plus the diversity-seeded remainder.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    /// Pool members as catalog task ids, ascending.
    members: Vec<u32>,
    /// How many members came from top-k retrieval (the rest were seeded).
    topk_hits: usize,
}

impl CandidatePool {
    /// Generate a pool from `index` for `workers` with capacity `xmax`.
    ///
    /// Every worker contributes its top `params.per_worker_k` open tasks by
    /// Jaccard relevance. If the union is smaller than the feasibility floor
    /// `min(|open|, |W| · X_max)`, the pool is topped up with open tasks
    /// chosen by a lazy-greedy coverage rule: a task scores
    /// `Σ_{kw ∈ t} 1 / (1 + pool_count(kw))`, so tasks carrying keywords the
    /// pool lacks are preferred, and counts update as tasks are admitted.
    /// (Coverage scores only decrease as the pool grows, so stale heap
    /// entries are upper bounds — the CELF-style lazy re-evaluation is
    /// exact.)
    pub fn generate(
        index: &InvertedIndex,
        workers: &[Worker],
        xmax: usize,
        params: &PoolParams,
    ) -> Self {
        let lists: Vec<Vec<(u32, f64)>> = workers
            .iter()
            .map(|w| index.top_k(&w.keywords, params.per_worker_k))
            .collect();
        Self::from_worker_topk(index, &lists, xmax)
    }

    /// Generate a pool from **pre-computed** per-worker top-k lists — the
    /// entry point for the [`crate::PoolMaintainer`], which keeps each list
    /// live under churn instead of querying the index per solve. `index`
    /// still drives diversity seeding and the feasibility floor.
    ///
    /// Pool membership depends only on the *set* of retrieved tasks (the
    /// union is first-seen but members are sorted before use, and seeding
    /// scores depend only on pool keyword counts), so feeding lists that
    /// are element-wise equal to the local `index.top_k` output yields a
    /// byte-identical pool.
    pub fn from_worker_topk(
        index: &InvertedIndex,
        topk_lists: &[Vec<(u32, f64)>],
        xmax: usize,
    ) -> Self {
        let floor = index.len().min(topk_lists.len() * xmax);
        let mut members: Vec<u32> = Vec::new();
        let mut in_pool: HashMap<u32, ()> = HashMap::new();
        for list in topk_lists {
            for &(task, _score) in list {
                if let Entry::Vacant(e) = in_pool.entry(task) {
                    e.insert(());
                    members.push(task);
                }
            }
        }
        let topk_hits = members.len();
        if members.len() < floor {
            Self::seed_diverse(index, &mut members, &mut in_pool, floor);
        }
        members.sort_unstable();
        Self { members, topk_hits }
    }

    /// Top the pool up to `floor` members with coverage-seeded open tasks.
    fn seed_diverse(
        index: &InvertedIndex,
        members: &mut Vec<u32>,
        in_pool: &mut HashMap<u32, ()>,
        floor: usize,
    ) {
        // Keyword representation inside the current pool.
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &m in members.iter() {
            for kw in index.keywords_of(m) {
                *counts.entry(kw).or_insert(0) += 1;
            }
        }
        let score = |counts: &HashMap<u32, u32>, task: u32| -> f64 {
            let mut s = 0.0;
            for kw in index.keywords_of(task) {
                s += 1.0 / (1.0 + counts.get(&kw).copied().unwrap_or(0) as f64);
            }
            s
        };
        // Max-heap keyed by (score bits, smallest id wins ties). Coverage
        // scores are non-negative, so IEEE bit order == numeric order.
        let mut heap: BinaryHeap<(u64, std::cmp::Reverse<u32>)> = index
            .open_tasks()
            .filter(|t| !in_pool.contains_key(t))
            .map(|t| (score(&counts, t).to_bits(), std::cmp::Reverse(t)))
            .collect();
        while members.len() < floor {
            let Some((stale, std::cmp::Reverse(task))) = heap.pop() else {
                break;
            };
            let fresh = score(&counts, task).to_bits();
            // Stale keys are upper bounds; accept only when the refreshed
            // score still beats every other candidate's upper bound.
            let next_best = heap.peek().map(|&(b, _)| b).unwrap_or(0);
            if fresh >= next_best || fresh == stale {
                members.push(task);
                in_pool.insert(task, ());
                for kw in index.keywords_of(task) {
                    *counts.entry(kw).or_insert(0) += 1;
                }
            } else {
                heap.push((fresh, std::cmp::Reverse(task)));
            }
        }
    }

    /// Pool members as catalog task ids, ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Number of pool members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// How many members came from top-k retrieval (the rest were
    /// diversity-seeded to reach the feasibility floor).
    pub fn topk_hits(&self) -> usize {
        self.topk_hits
    }

    /// Build the pool-local [`Instance`].
    ///
    /// `catalog` must be dense (task id == slice position), which holds for
    /// both the platform catalog and an iteration's frozen `T^i`. Pool tasks
    /// are re-labelled `0..len` and `catalog_ids` maps them back. Workers
    /// are re-labelled `0..|W|` in the given order. Mid-sized pools get the
    /// dense diversity cache automatically (sequentially) from
    /// [`Instance::with_distance`]; pools above that auto-cap are cached
    /// here with `threads` scoped threads so the solver never recomputes
    /// pairs.
    pub fn build_instance(
        &self,
        catalog: &[Task],
        workers: &[Worker],
        xmax: usize,
        threads: usize,
    ) -> Result<PoolInstance, HtaError> {
        let mut tasks = Vec::with_capacity(self.members.len());
        let mut catalog_ids = Vec::with_capacity(self.members.len());
        for (pool_idx, &cat) in self.members.iter().enumerate() {
            let mut t = catalog[cat as usize].clone();
            t.id = TaskId(pool_idx as u32);
            tasks.push(t);
            catalog_ids.push(cat);
        }
        let workers: Vec<Worker> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Worker::new(WorkerId(i as u32), w.keywords.clone()).with_weights(w.weights)
            })
            .collect();
        let mut instance = Instance::new(tasks, workers, xmax)?;
        if !instance.has_diversity_cache()
            && instance.n_tasks() > hta_core::instance::AUTO_CACHE_MAX_TASKS
        {
            instance.build_diversity_cache_parallel(threads);
        }
        Ok(PoolInstance {
            instance,
            catalog_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_core::{GroupId, KeywordVec, Weights};

    fn kw(nbits: usize, bits: &[usize]) -> KeywordVec {
        KeywordVec::from_indices(nbits, bits)
    }

    fn catalog(nbits: usize, specs: &[&[usize]]) -> (Vec<Task>, InvertedIndex) {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, bits)| Task::new(TaskId(i as u32), GroupId(0), kw(nbits, bits)))
            .collect();
        let mut index = InvertedIndex::new(nbits);
        for t in &tasks {
            index.insert(t.id.0, &t.keywords);
        }
        (tasks, index)
    }

    #[test]
    fn mode_parses_the_cli_grammar() {
        assert_eq!(
            "full".parse::<CandidateMode>().unwrap(),
            CandidateMode::Full
        );
        assert_eq!(
            "topk:8".parse::<CandidateMode>().unwrap(),
            CandidateMode::TopK(8)
        );
        assert!("topk:0".parse::<CandidateMode>().is_err());
        assert!("topk:x".parse::<CandidateMode>().is_err());
        assert!("nearest".parse::<CandidateMode>().is_err());
        assert_eq!(CandidateMode::TopK(4).to_string(), "topk:4");
        assert_eq!(CandidateMode::Full.to_string(), "full");
    }

    #[test]
    fn pool_meets_the_feasibility_floor() {
        let nbits = 32;
        let specs: Vec<Vec<usize>> = (0..40)
            .map(|i| vec![i % nbits, (i * 7 + 1) % nbits])
            .collect();
        let refs: Vec<&[usize]> = specs.iter().map(|s| s.as_slice()).collect();
        let (_tasks, index) = catalog(nbits, &refs);
        // Two workers matching almost nothing: top-k contributes few tasks,
        // the floor forces diversity seeding.
        let workers = vec![
            Worker::new(WorkerId(0), kw(nbits, &[0])),
            Worker::new(WorkerId(1), kw(nbits, &[1])),
        ];
        let pool = CandidatePool::generate(&index, &workers, 5, &PoolParams::with_k(2));
        assert!(pool.len() >= 10, "floor |W|·xmax = 10, got {}", pool.len());
        assert!(pool.topk_hits() <= 4);
        // Members are unique, sorted, and real open tasks.
        let m = pool.members();
        assert!(m.windows(2).all(|w| w[0] < w[1]));
        assert!(m.iter().all(|&t| index.contains(t)));
    }

    #[test]
    fn seeding_prefers_uncovered_keywords() {
        let nbits = 8;
        // Tasks 0-2 share keywords {0,1}; tasks 3 and 4 bring fresh ones.
        let (_tasks, index) = catalog(nbits, &[&[0, 1], &[0, 1], &[0, 1], &[2, 3], &[4, 5]]);
        let workers = vec![Worker::new(WorkerId(0), kw(nbits, &[0, 1]))];
        // Worker's top-1 covers {0,1}; the floor of 3 forces 2 seeds, which
        // should be the keyword-fresh tasks 3 and 4, not the duplicates.
        let pool = CandidatePool::generate(&index, &workers, 3, &PoolParams::with_k(1));
        assert_eq!(pool.len(), 3);
        assert!(pool.members().contains(&3), "{:?}", pool.members());
        assert!(pool.members().contains(&4), "{:?}", pool.members());
    }

    #[test]
    fn small_catalog_pools_everything() {
        let nbits = 8;
        let (_tasks, index) = catalog(nbits, &[&[0], &[1], &[2]]);
        let workers = vec![Worker::new(WorkerId(0), kw(nbits, &[0]))];
        let pool = CandidatePool::generate(&index, &workers, 5, &PoolParams::with_k(1));
        // Floor = min(3, 5) = 3: the whole catalog.
        assert_eq!(pool.members(), &[0, 1, 2]);
    }

    #[test]
    fn pool_instance_maps_back_to_catalog() {
        let nbits = 16;
        let specs: Vec<Vec<usize>> = (0..20)
            .map(|i| vec![i % nbits, (i * 3 + 2) % nbits])
            .collect();
        let refs: Vec<&[usize]> = specs.iter().map(|s| s.as_slice()).collect();
        let (tasks, index) = catalog(nbits, &refs);
        let workers = vec![
            Worker::new(WorkerId(0), kw(nbits, &[0, 3])).with_weights(Weights::balanced()),
            Worker::new(WorkerId(7), kw(nbits, &[5, 8])).with_weights(Weights::from_alpha(0.2)),
        ];
        let pool = CandidatePool::generate(&index, &workers, 3, &PoolParams::with_k(4));
        let built = pool.build_instance(&tasks, &workers, 3, 2).unwrap();
        assert_eq!(built.instance.n_tasks(), pool.len());
        assert_eq!(built.instance.n_workers(), 2);
        assert_eq!(built.catalog_ids.len(), pool.len());
        // Pool task i carries the catalog task's keywords, re-labelled.
        for (pool_idx, &cat) in built.catalog_ids.iter().enumerate() {
            let pt = &built.instance.tasks()[pool_idx];
            assert_eq!(pt.id, TaskId(pool_idx as u32));
            assert_eq!(pt.keywords, tasks[cat as usize].keywords);
        }
        // Worker weights survive the re-labelling.
        assert_eq!(built.instance.workers()[1].weights.alpha(), 0.2);
    }
}
