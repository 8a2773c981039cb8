//! The [`hta_core::CandidateGenerator`] adapter.

use hta_core::{CandidateGenerator, Task, Worker};

use crate::inverted::InvertedIndex;
use crate::pool::{CandidatePool, PoolParams};

/// Plugs the inverted-index retrieval pipeline into
/// [`hta_core::IterationEngine`].
///
/// Each iteration freezes its own `T^i`, so this generator bulk-builds a
/// fresh [`InvertedIndex`] over the frozen tasks and pools per-worker top-k
/// candidates from it. A long-lived service that keeps one catalog alive
/// across requests should instead maintain a persistent index incrementally
/// and call [`CandidatePool::generate`] directly — see `hta-server`'s
/// assignment path.
pub struct SparseCandidateGenerator {
    params: PoolParams,
}

impl SparseCandidateGenerator {
    /// A generator with per-worker retrieval depth `k`.
    pub fn new(k: usize) -> Self {
        Self {
            params: PoolParams::with_k(k),
        }
    }

    /// A generator with explicit [`PoolParams`].
    pub fn with_params(params: PoolParams) -> Self {
        Self { params }
    }
}

impl CandidateGenerator for SparseCandidateGenerator {
    fn select(&mut self, tasks: &[Task], workers: &[Worker], xmax: usize) -> Option<Vec<usize>> {
        // A pool as large as T^i saves nothing — take the dense path.
        let floor = workers.len().saturating_mul(xmax);
        if tasks.len() <= floor {
            return None;
        }
        let nbits = tasks.first().map_or(0, |t| t.keywords.nbits());
        let pairs: Vec<(u32, &hta_core::KeywordVec)> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, &t.keywords))
            .collect();
        let index = InvertedIndex::build(nbits, &pairs);
        let pool = CandidatePool::generate(&index, workers, xmax, &self.params);
        if pool.len() >= tasks.len() {
            return None;
        }
        Some(pool.members().iter().map(|&t| t as usize).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(n_tasks: usize, n_workers: usize, xmax: usize) -> IterationEngine {
        let nbits = 48;
        let mut tasks = TaskPool::new();
        for i in 0..n_tasks {
            let kw = KeywordVec::from_indices(
                nbits,
                &[i % nbits, (i * 7 + 3) % nbits, (i * 11) % nbits],
            );
            tasks.push(GroupId((i / 8) as u32), kw);
        }
        let mut workers = WorkerPool::new();
        for i in 0..n_workers {
            let kw = KeywordVec::from_indices(nbits, &[i % nbits, (i * 5 + 1) % nbits]);
            workers.push(kw, Weights::balanced());
        }
        IterationEngine::new(tasks, workers, xmax).unwrap()
    }

    #[test]
    fn sparse_iterations_fill_every_worker() {
        let mut eng = engine(200, 3, 4);
        eng.set_candidate_generator(Box::new(SparseCandidateGenerator::new(8)));
        let mut rng = StdRng::seed_from_u64(11);
        let r = eng.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        let assigned: usize = r.assignments.iter().map(|(_, t)| t.len()).sum();
        // The pool respects the feasibility floor, so a full assignment of
        // |W| · xmax = 12 tasks stays possible.
        assert_eq!(assigned, 12);
        assert_eq!(r.remaining_tasks, 200 - 12);
        // Assigned ids are global catalog ids, all distinct.
        let mut ids: Vec<u32> = r
            .assignments
            .iter()
            .flat_map(|(_, ts)| ts.iter().map(|t| t.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn tiny_pools_take_the_dense_path() {
        let mut eng = engine(6, 2, 4);
        eng.set_candidate_generator(Box::new(SparseCandidateGenerator::new(2)));
        let mut rng = StdRng::seed_from_u64(12);
        // 6 tasks ≤ |W|·xmax = 8: the generator declines and the engine
        // solves densely, assigning everything.
        let r = eng.run_iteration(&HtaGre::new(), &mut rng).unwrap();
        let assigned: usize = r.assignments.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(assigned, 6);
    }
}
