//! One assignment round: choose the members by [`CandidateMode`], then
//! solve over them with [`OpenSetSession::solve_round`]. The crowd platform
//! and the server both run their rounds through [`assign_round`]; they
//! differ only in the [`FullWindow`] they pass.

use hta_core::{HtaError, OpenSetSession, Round, RoundOutcome, Worker};
use rand::{Rng, RngExt};

use crate::{CandidateMode, CandidatePool, InvertedIndex, PoolParams};

/// Which open tasks a [`CandidateMode::Full`] round solves over. With at
/// most `n` tasks open, every window is every open task, ascending, and
/// draws nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullWindow {
    /// Every open task, ascending.
    All,
    /// The `n` lowest open ids, ascending.
    First(usize),
    /// `n` open tasks drawn uniformly without replacement by a partial
    /// Fisher–Yates pass over the ascending open ids, in draw order (so
    /// unsorted): one `random_range` draw per slot.
    Sample(usize),
}

impl FullWindow {
    /// The window over the open tasks `available` marks (catalog order).
    pub fn members(self, available: &[bool], rng: &mut dyn Rng) -> Vec<u32> {
        let open = (0..available.len() as u32).filter(|&t| available[t as usize]);
        match self {
            Self::All => open.collect(),
            Self::First(n) => open.take(n).collect(),
            Self::Sample(n) => {
                let mut open: Vec<u32> = open.collect();
                if open.len() > n {
                    for i in 0..n {
                        let j = rng.random_range(i..open.len());
                        open.swap(i, j);
                    }
                    open.truncate(n);
                }
                open
            }
        }
    }
}

impl CandidateMode {
    /// A round's members for `workers` with capacity `xmax`, as catalog
    /// ids, and how many of them top-k retrieval returned (all of them in
    /// Full mode). `index` and `available` must describe the same open
    /// tasks. `TopK(k)` pools with [`CandidatePool::generate`]; `Full`
    /// takes `window`, which alone may draw from `rng`.
    pub fn select(
        self,
        window: FullWindow,
        index: &InvertedIndex,
        available: &[bool],
        workers: &[Worker],
        xmax: usize,
        rng: &mut dyn Rng,
    ) -> (Vec<u32>, usize) {
        match self {
            Self::Full => {
                let members = window.members(available, rng);
                let hits = members.len();
                (members, hits)
            }
            Self::TopK(k) => {
                let pool = CandidatePool::generate(index, workers, xmax, &PoolParams::with_k(k));
                let hits = pool.topk_hits();
                (pool.into_members(), hits)
            }
        }
    }
}

/// One assignment round (the paper's Fig. 4 "Solve HTA" box): select the
/// members for `round`'s cohort by `mode` (see [`CandidateMode::select`]),
/// then solve over them through `session`. `Ok(None)` when nothing is open:
/// then neither the session nor `rng` was touched.
pub fn assign_round(
    session: &mut OpenSetSession,
    mode: CandidateMode,
    window: FullWindow,
    index: &InvertedIndex,
    available: &[bool],
    round: Round<'_>,
    rng: &mut dyn Rng,
) -> Result<Option<RoundOutcome>, HtaError> {
    let (members, _) = mode.select(window, index, available, &round.workers, round.xmax, rng);
    if members.is_empty() {
        return Ok(None);
    }
    session.solve_round(members, round, rng).map(Some)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use hta_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every third task closed.
    fn availability(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 3 != 1).collect()
    }

    #[test]
    fn first_window_takes_the_lowest_open_ids() {
        let available = availability(30);
        let mut rng = StdRng::seed_from_u64(1);
        let got = FullWindow::First(5).members(&available, &mut rng);
        assert_eq!(got, vec![0, 2, 3, 5, 6]);
        // No draw was made.
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(1).next_u64());
    }

    #[test]
    fn sample_window_replays_the_fisher_yates_loop() {
        let available = availability(300);
        let n = 40;
        let mut rng = StdRng::seed_from_u64(7);
        let got = FullWindow::Sample(n).members(&available, &mut rng);

        // The reference loop: partial Fisher–Yates over the ascending open
        // ids, one `random_range(i..len)` draw per slot.
        let mut twin = StdRng::seed_from_u64(7);
        let mut open: Vec<usize> = (0..available.len()).filter(|&i| available[i]).collect();
        for i in 0..n {
            let j = twin.random_range(i..open.len());
            open.swap(i, j);
        }
        open.truncate(n);
        let want: Vec<u32> = open.iter().map(|&t| t as u32).collect();
        assert_eq!(got, want);
        assert!(got.windows(2).any(|w| w[0] > w[1]), "a sample is unsorted");
        // Same draws: both streams stand at the same point.
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    #[test]
    fn all_window_takes_every_open_task() {
        let available = availability(3000);
        let mut rng = StdRng::seed_from_u64(2);
        let got = FullWindow::All.members(&available, &mut rng);
        let want: Vec<u32> = (0..3000).filter(|&i| i % 3 != 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_window_no_smaller_than_the_open_set_changes_nothing() {
        let available = availability(30);
        let open = available.iter().filter(|&&a| a).count();
        let all = FullWindow::All.members(&available, &mut StdRng::seed_from_u64(0));
        for n in [open, open + 1, 1000] {
            for window in [FullWindow::First(n), FullWindow::Sample(n)] {
                let mut rng = StdRng::seed_from_u64(3);
                assert_eq!(window.members(&available, &mut rng), all, "{window:?}");
                assert_eq!(
                    rng.next_u64(),
                    StdRng::seed_from_u64(3).next_u64(),
                    "{window:?} drew from the stream"
                );
            }
        }
    }

    fn catalog(n_tasks: usize) -> TaskPool {
        let nbits = 48;
        let mut tasks = TaskPool::new();
        for i in 0..n_tasks {
            let kw = KeywordVec::from_indices(
                nbits,
                &[i % nbits, (i * 7 + 3) % nbits, (i * 11) % nbits],
            );
            tasks.push(GroupId((i / 8) as u32), kw);
        }
        tasks
    }

    fn cohort(n_workers: usize) -> Vec<Worker> {
        (0..n_workers)
            .map(|i| {
                let kw = KeywordVec::from_indices(48, &[i % 48, (i * 5 + 1) % 48]);
                Worker::new(WorkerId(i as u32), kw).with_weights(Weights::balanced())
            })
            .collect()
    }

    #[test]
    fn sparse_iterations_fill_every_worker() {
        let tasks = catalog(200);
        let pairs: Vec<(u32, &KeywordVec)> = tasks
            .tasks()
            .iter()
            .map(|t| (t.id.0, &t.keywords))
            .collect();
        let index = InvertedIndex::build(48, &pairs);
        let available = vec![true; 200];
        let round = Round {
            workers: cohort(3),
            task: &|t| tasks.get(TaskId(t)),
            xmax: 4,
            distance: Arc::new(Jaccard),
            solver: &HtaGre::new(),
        };
        let mut rng = StdRng::seed_from_u64(11);
        let out = assign_round(
            &mut OpenSetSession::Off,
            CandidateMode::TopK(8),
            FullWindow::All,
            &index,
            &available,
            round,
            &mut rng,
        )
        .unwrap()
        .expect("tasks are open");
        // The pool respects the feasibility floor, so a full assignment of
        // |W| · xmax = 12 tasks stays possible; assigned ids are catalog
        // ids, all distinct.
        let mut ids: Vec<u32> = (0..3).flat_map(|w| out.tasks_of(w)).collect();
        assert_eq!(ids.len(), 12);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
        assert!(ids.iter().all(|&t| t < 200));
    }

    #[test]
    fn nothing_open_is_no_round() {
        let tasks = catalog(10);
        let index = InvertedIndex::new(48);
        let available = vec![false; 10];
        for mode in [CandidateMode::Full, CandidateMode::TopK(4)] {
            let round = Round {
                workers: cohort(2),
                task: &|t| tasks.get(TaskId(t)),
                xmax: 3,
                distance: Arc::new(Jaccard),
                solver: &HtaGre::new(),
            };
            let mut rng = StdRng::seed_from_u64(5);
            let out = assign_round(
                &mut OpenSetSession::Off,
                mode,
                FullWindow::Sample(1),
                &index,
                &available,
                round,
                &mut rng,
            )
            .unwrap();
            assert!(out.is_none(), "{mode}");
            assert_eq!(rng.next_u64(), StdRng::seed_from_u64(5).next_u64());
        }
    }
}
