//! # hta-index — sparse candidate generation for HTA
//!
//! Dense HTA solves touch `Θ(|T|²)` diversity pairs and `Θ(|T|·|W|)`
//! relevance values per iteration, which caps the platform far below
//! web-service catalog sizes. This crate adds the retrieval layer that
//! online-assignment systems put in front of their solvers:
//!
//! * [`InvertedIndex`] — keyword → posting list of the *keyword classes*
//!   (distinct keyword sets) holding open tasks, each class with its
//!   ascending open task ids, maintained incrementally per task
//!   arrival/completion;
//! * [`InvertedIndex::top_k`] — exact per-worker top-k relevance retrieval
//!   that scores each touched class once and merges equal-score classes
//!   by ascending task id;
//! * [`CandidatePool`] — unions per-worker top-k sets, fills up to the
//!   feasibility floor `|W| · X_max` with coverage-seeded diverse tasks
//!   (scored once per class per coverage state), and builds a pool-local
//!   [`hta_core::Instance`] with a back-to-catalog map. Every solve takes
//!   a fresh pool from [`CandidatePool::generate`]: a pool is a pure
//!   function of the live index and the cohort;
//! * [`assign_round`] — one assignment round: members by
//!   [`CandidateMode`] (top-k pool, or a [`FullWindow`] of the open tasks),
//!   then [`hta_core::OpenSetSession::solve_round`] over them. The crowd
//!   platform and the server both assign through it.
//!
//! The solvers then run on `O(|W| · k)` tasks instead of `|T|`, making each
//! assignment request sub-quadratic in the catalog size.

#![warn(missing_docs)]

pub mod inverted;
pub mod pool;
pub mod round;

pub use inverted::InvertedIndex;
pub use pool::{CandidateMode, CandidatePool, PoolParams};
pub use round::{assign_round, FullWindow};

/// Always 1: the index is one flat structure. Kept only because the
/// end-to-end benchmark's `machine` line reports it, and that harness
/// changes only together with its metrics.
pub fn default_shards() -> usize {
    1
}
