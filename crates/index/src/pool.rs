//! Candidate pools: per-worker top-k retrieval topped up to a feasible
//! pool.
//!
//! The pool is the bridge between the retrieval layer and the HTA solvers.
//! It unions every worker's top-k most relevant open tasks, then — because a
//! pool smaller than `|W| · X_max` could make a full assignment infeasible —
//! tops the pool up to that floor with *diversity-seeded* tasks: open tasks
//! whose keywords are least represented in the pool so far, picked by a lazy
//! greedy coverage rule. An assignment round
//! ([`assign_round`](crate::assign_round)) solves over the pool's members
//! and maps the result back to catalog ids.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::str::FromStr;

use hta_core::state::{StateDecodeError, StateReader, StateSerialize};
use hta_core::Worker;

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
        let floor = index.len().min(workers.len() * xmax);
        let mut members: Vec<u32> = Vec::new();
        let mut in_pool: HashMap<u32, ()> = HashMap::new();
        for w in workers {
            for (task, _score) in index.top_k(&w.keywords, params.per_worker_k) {
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

    /// Top the pool up to `floor` members with coverage-seeded open tasks:
    /// the CELF admission sequence of a lazy max-heap holding every open
    /// task keyed by (coverage score, smallest id first), replayed over
    /// keyword classes. See [`Seeding`].
    fn seed_diverse(
        index: &InvertedIndex,
        members: &mut Vec<u32>,
        in_pool: &mut HashMap<u32, ()>,
        floor: usize,
    ) {
        Seeding::new(index, members, in_pool).run(members, in_pool, floor);
    }

    /// Pool members as catalog task ids, ascending.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The members, ascending, without a copy.
    pub(crate) fn into_members(self) -> Vec<u32> {
        self.members
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
}

/// A run of one class's open tasks that share one heap key: positions
/// `start..end` of the class's ascending member list. Pool members inside
/// the span are skipped; the first and last positions are never pool
/// members.
#[derive(Debug, Clone, Copy)]
struct Run {
    class: u32,
    start: u32,
    end: u32,
}

/// Diversity seeding over keyword classes.
///
/// The reference rule is a lazy max-heap over every open task outside the
/// pool, keyed by its coverage score when last computed, smallest id first
/// among equal keys. Pop the top task and rescore it; admit it if the fresh
/// score is still at least the next key in the heap or equals its own key,
/// else push it back under the fresh score. A task's score depends only on
/// its keyword set, so all tasks of a class share one fresh score per
/// coverage state, and the tasks under one key form a few id-ascending runs
/// per class. Seeding replays that pop sequence a whole key (a *level*) at
/// a time:
///
/// * while some class at the level still scores the level, the lowest id
///   among such classes is the next admission, and every level task below
///   it is rejected to its class's fresh score (a level task remains, so
///   the next key is the level itself);
/// * once no class scores the level, every level task but the last is
///   rejected the same way, and the last is admitted iff its fresh score
///   is at least the best key left in the heap.
///
/// Scores are memoised per class until the next admission changes the
/// coverage counts, so the work tracks classes and runs, not open tasks.
struct Seeding<'a> {
    index: &'a InvertedIndex,
    /// Keyword representation inside the current pool.
    counts: HashMap<u32, u32>,
    /// Admissions so far: the coverage state the memo is valid for.
    admitted: u32,
    /// Per class slot: (coverage state, score bits) of its last scoring.
    memo: Vec<(u32, u64)>,
    runs: Vec<Run>,
    /// Runs keyed by score bits. Coverage scores are non-negative, so IEEE
    /// bit order is numeric order.
    heap: BinaryHeap<(u64, u32)>,
}

/// Runs of the level being replayed, lowest first id on top.
type LevelHeap = BinaryHeap<Reverse<(u32, u32)>>;

impl<'a> Seeding<'a> {
    fn new(index: &'a InvertedIndex, members: &[u32], in_pool: &HashMap<u32, ()>) -> Self {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for &m in members {
            for kw in index.keywords_of(m) {
                *counts.entry(kw).or_insert(0) += 1;
            }
        }
        let mut seeding = Self {
            index,
            counts,
            admitted: 0,
            memo: vec![(u32::MAX, 0); index.class_slots()],
            runs: Vec::new(),
            heap: BinaryHeap::new(),
        };
        for (class, _, tasks) in index.classes() {
            let run = Run {
                class,
                start: 0,
                end: tasks.len() as u32,
            };
            seeding.push_rejected(run, in_pool);
        }
        seeding
    }

    fn run(mut self, members: &mut Vec<u32>, in_pool: &mut HashMap<u32, ()>, floor: usize) {
        while members.len() < floor {
            let Some(&(level, _)) = self.heap.peek() else {
                break;
            };
            let mut candidates = LevelHeap::new();
            while let Some(&(key, run)) = self.heap.peek() {
                if key != level {
                    break;
                }
                self.heap.pop();
                candidates.push(Reverse((self.first(run), run)));
            }
            self.replay_level(level, candidates, members, in_pool, floor);
        }
    }

    /// Replay the pops of every task keyed `level` (or stop at `floor`).
    fn replay_level(
        &mut self,
        level: u64,
        mut candidates: LevelHeap,
        members: &mut Vec<u32>,
        in_pool: &mut HashMap<u32, ()>,
        floor: usize,
    ) {
        // Runs whose class scores below the level; scores only fall, so a
        // run never returns to `candidates`.
        let mut below = LevelHeap::new();
        loop {
            while let Some(&Reverse((first, run))) = candidates.peek() {
                if self.score(self.runs[run as usize].class) == level {
                    break;
                }
                candidates.pop();
                below.push(Reverse((first, run)));
            }
            let Some(Reverse((task, run))) = candidates.pop() else {
                self.finish_level(below, members, in_pool);
                return;
            };
            while let Some(&Reverse((first, low))) = below.peek() {
                if first > task {
                    break;
                }
                below.pop();
                let r = self.runs[low as usize];
                let tasks = self.tasks(r);
                let split = r.start + tasks.partition_point(|&t| t < task) as u32;
                self.push_rejected(Run { end: split, ..r }, in_pool);
                if let Some(rest) = self.trim(Run { start: split, ..r }, in_pool) {
                    self.runs[low as usize] = rest;
                    below.push(Reverse((self.first(low), low)));
                }
            }
            self.admit(task, members, in_pool);
            if members.len() >= floor {
                return;
            }
            let r = self.runs[run as usize];
            if let Some(rest) = self.trim(
                Run {
                    start: r.start + 1,
                    ..r
                },
                in_pool,
            ) {
                self.runs[run as usize] = rest;
                candidates.push(Reverse((self.first(run), run)));
            }
        }
    }

    /// No class at the level scores it any more: reject every level task
    /// but the last, then admit the last iff its fresh score is at least
    /// the best key left in the heap.
    fn finish_level(
        &mut self,
        below: LevelHeap,
        members: &mut Vec<u32>,
        in_pool: &mut HashMap<u32, ()>,
    ) {
        let mut runs: Vec<u32> = below.into_iter().map(|Reverse((_, run))| run).collect();
        let Some(at) = (0..runs.len()).max_by_key(|&i| self.last(runs[i])) else {
            return;
        };
        let last_run = runs.swap_remove(at);
        for run in runs {
            self.push_rejected(self.runs[run as usize], in_pool);
        }
        let r = self.runs[last_run as usize];
        let last = self.last(last_run);
        self.push_rejected(
            Run {
                end: r.end - 1,
                ..r
            },
            in_pool,
        );
        let fresh = self.score(r.class);
        let next_best = self.heap.peek().map_or(0, |&(key, _)| key);
        if fresh >= next_best {
            self.admit(last, members, in_pool);
        } else {
            self.push_rejected(
                Run {
                    start: r.end - 1,
                    ..r
                },
                in_pool,
            );
        }
    }

    /// Push the (trimmed, non-empty) run back keyed by its class's fresh
    /// score.
    fn push_rejected(&mut self, run: Run, in_pool: &HashMap<u32, ()>) {
        if let Some(run) = self.trim(run, in_pool) {
            let key = self.score(run.class);
            self.runs.push(run);
            self.heap.push((key, (self.runs.len() - 1) as u32));
        }
    }

    fn admit(&mut self, task: u32, members: &mut Vec<u32>, in_pool: &mut HashMap<u32, ()>) {
        members.push(task);
        in_pool.insert(task, ());
        for kw in self.index.keywords_of(task) {
            *self.counts.entry(kw).or_insert(0) += 1;
        }
        self.admitted += 1;
    }

    /// Coverage score bits of `class` under the current pool counts:
    /// `Σ_{kw} 1 / (1 + count(kw))` in ascending keyword order.
    fn score(&mut self, class: u32) -> u64 {
        let (state, bits) = self.memo[class as usize];
        if state == self.admitted {
            return bits;
        }
        let mut s = 0.0;
        for kw in self.index.class_keywords(class) {
            s += 1.0 / (1.0 + self.counts.get(kw).copied().unwrap_or(0) as f64);
        }
        self.memo[class as usize] = (self.admitted, s.to_bits());
        s.to_bits()
    }

    fn tasks(&self, run: Run) -> &'a [u32] {
        &self.index.class_members(run.class)[run.start as usize..run.end as usize]
    }

    fn first(&self, run: u32) -> u32 {
        self.tasks(self.runs[run as usize])[0]
    }

    fn last(&self, run: u32) -> u32 {
        *self
            .tasks(self.runs[run as usize])
            .last()
            .expect("runs are non-empty")
    }

    /// Shrink `run` past pool members at either end; `None` if none is left.
    fn trim(&self, mut run: Run, in_pool: &HashMap<u32, ()>) -> Option<Run> {
        let members = self.index.class_members(run.class);
        while run.start < run.end && in_pool.contains_key(&members[run.start as usize]) {
            run.start += 1;
        }
        while run.start < run.end && in_pool.contains_key(&members[run.end as usize - 1]) {
            run.end -= 1;
        }
        (run.start < run.end).then_some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_core::{GroupId, KeywordVec, Task, TaskId, Weights, WorkerId};

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

    /// The per-task CELF seeding the class replay must reproduce: a lazy
    /// max-heap over every open task outside the pool, keyed by (score
    /// bits, smallest id first).
    fn seed_diverse_per_task(
        index: &InvertedIndex,
        members: &mut Vec<u32>,
        in_pool: &mut HashMap<u32, ()>,
        floor: usize,
    ) {
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
        let mut heap: BinaryHeap<(u64, Reverse<u32>)> = index
            .open_tasks()
            .filter(|t| !in_pool.contains_key(t))
            .map(|t| (score(&counts, t).to_bits(), Reverse(t)))
            .collect();
        while members.len() < floor {
            let Some((stale, Reverse(task))) = heap.pop() else {
                break;
            };
            let fresh = score(&counts, task).to_bits();
            let next_best = heap.peek().map(|&(b, _)| b).unwrap_or(0);
            if fresh >= next_best || fresh == stale {
                members.push(task);
                in_pool.insert(task, ());
                for kw in index.keywords_of(task) {
                    *counts.entry(kw).or_insert(0) += 1;
                }
            } else {
                heap.push((fresh, Reverse(task)));
            }
        }
    }

    /// Splitmix64 stream for generated catalogs.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A churned index over `n` tasks drawn from `distinct` keyword sets
    /// (`None` = every task draws its own), on a narrow universe so that
    /// different classes often tie on coverage score.
    fn churned_index(seed: u64, n: usize, distinct: Option<usize>) -> InvertedIndex {
        let nbits = 8;
        let mut mix = Mix(seed);
        let draw = |mix: &mut Mix| {
            let picks: Vec<usize> = (0..mix.below(4))
                .map(|_| mix.below(nbits as u64) as usize)
                .collect();
            kw(nbits, &picks)
        };
        let kinds: Vec<KeywordVec> = (0..distinct.unwrap_or(0)).map(|_| draw(&mut mix)).collect();
        let vecs: Vec<KeywordVec> = (0..n)
            .map(|_| match distinct {
                Some(d) => kinds[mix.below(d as u64) as usize].clone(),
                None => draw(&mut mix),
            })
            .collect();
        let mut index = InvertedIndex::new(nbits);
        for (t, v) in vecs.iter().enumerate() {
            index.insert(t as u32, v);
        }
        for _ in 0..n / 3 {
            let t = mix.below(n as u64) as u32;
            if mix.below(3) == 0 {
                index.insert(t, &vecs[t as usize]);
            } else {
                index.remove(t);
            }
        }
        index
    }

    #[test]
    fn class_seeding_replays_the_per_task_admission_sequence() {
        let mut ties = 0;
        for seed in 0..400u64 {
            let n = 10 + (seed as usize * 7) % 120;
            let distinct = match seed % 3 {
                0 => None,
                d => Some(1 + d as usize * 2),
            };
            let index = churned_index(seed, n, distinct);
            let mut mix = Mix(!seed);
            let open: Vec<u32> = index.open_tasks().collect();
            let mut pool: Vec<u32> = Vec::new();
            for _ in 0..mix.below(6) {
                if let Some(&t) = open.get(mix.below(open.len().max(1) as u64) as usize) {
                    if !pool.contains(&t) {
                        pool.push(t);
                    }
                }
            }
            let floor = pool.len() + mix.below(open.len() as u64 + 2) as usize;
            let in_pool: HashMap<u32, ()> = pool.iter().map(|&t| (t, ())).collect();

            let (mut want, mut want_in) = (pool.clone(), in_pool.clone());
            seed_diverse_per_task(&index, &mut want, &mut want_in, floor);
            let (mut got, mut got_in) = (pool.clone(), in_pool.clone());
            CandidatePool::seed_diverse(&index, &mut got, &mut got_in, floor);
            assert_eq!(got, want, "seed {seed}: admission sequence");

            // Count catalogs where two classes start out tied on score.
            let seeding = Seeding::new(&index, &pool, &in_pool);
            let mut keys: Vec<u64> = seeding.heap.iter().map(|&(k, _)| k).collect();
            keys.sort_unstable();
            ties += usize::from(keys.windows(2).any(|w| w[0] == w[1]));
        }
        assert!(ties > 50, "only {ties} catalogs had tying classes");
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

    /// A round over a pool solves the pool-local instance (tasks relabelled
    /// `0..len` in member order, workers `0..|W|` with their weights) and
    /// maps its assignment back to catalog ids.
    #[test]
    fn pool_instance_maps_back_to_catalog() {
        use hta_core::{Instance, OpenSetSession, Round, Solver};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let nbits = 16;
        let specs: Vec<Vec<usize>> = (0..20)
            .map(|i| vec![i % nbits, (i * 3 + 2) % nbits])
            .collect();
        let refs: Vec<&[usize]> = specs.iter().map(|s| s.as_slice()).collect();
        let (tasks, index) = catalog(nbits, &refs);
        let workers = vec![
            Worker::new(WorkerId(0), kw(nbits, &[0, 3])).with_weights(Weights::balanced()),
            Worker::new(WorkerId(1), kw(nbits, &[5, 8])).with_weights(Weights::from_alpha(0.2)),
        ];
        let pool = CandidatePool::generate(&index, &workers, 3, &PoolParams::with_k(4));
        let solver = hta_core::solver::HtaGre::structured();
        let round = Round {
            workers: workers.clone(),
            task: &|t| &tasks[t as usize],
            xmax: 3,
            distance: std::sync::Arc::new(hta_core::Jaccard),
            solver: &solver,
        };
        let (out, hits) = crate::assign_round(
            &mut OpenSetSession::Off,
            CandidateMode::TopK(4),
            crate::FullWindow::All,
            &index,
            &[true; 20],
            round,
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap()
        .expect("tasks are open");
        assert_eq!(out.members(), pool.members());
        assert_eq!(hits, pool.topk_hits());

        // The same solve over a hand-built pool-local instance.
        let local: Vec<Task> = pool
            .members()
            .iter()
            .enumerate()
            .map(|(i, &cat)| {
                let t = &tasks[cat as usize];
                Task::new(TaskId(i as u32), t.group, t.keywords.clone())
            })
            .collect();
        let inst = Instance::new(local, workers, 3).unwrap();
        let cold = solver.solve(&inst, &mut StdRng::seed_from_u64(3));
        for q in 0..2 {
            let want: Vec<u32> = cold
                .assignment
                .tasks_of(q)
                .iter()
                .map(|&l| pool.members()[l])
                .collect();
            assert_eq!(out.tasks_of(q).collect::<Vec<_>>(), want, "worker {q}");
        }
        assert_eq!(
            out.objective().to_bits(),
            cold.assignment.objective(&inst).to_bits()
        );
    }
}
