//! # hta-index — sparse candidate generation for HTA
//!
//! Dense HTA solves touch `Θ(|T|²)` diversity pairs and `Θ(|T|·|W|)`
//! relevance values per iteration, which caps the platform far below
//! web-service catalog sizes. This crate adds the retrieval layer that
//! online-assignment systems put in front of their solvers:
//!
//! * [`InvertedIndex`] — keyword → posting list of *open* tasks, maintained
//!   incrementally in `O(|kw(t)|)` per task arrival/completion;
//! * [`InvertedIndex::top_k`] — exact per-worker top-k relevance retrieval,
//!   by posting accumulation or, for queries whose candidates reach the
//!   task-id space, a batched popcount rescore of a packed keyword mirror;
//! * [`CandidatePool`] — unions per-worker top-k sets, fills up to the
//!   feasibility floor `|W| · X_max` with coverage-seeded diverse tasks, and
//!   builds a pool-local [`hta_core::Instance`] with a back-to-catalog map;
//! * [`SparseCandidateGenerator`] — plugs the whole pipeline into
//!   [`hta_core::IterationEngine`] via the
//!   [`hta_core::CandidateGenerator`] hook.
//!
//! The solvers then run on `O(|W| · k)` tasks instead of `|T|`, making each
//! assignment request sub-quadratic in the catalog size.

#![warn(missing_docs)]

pub mod inverted;
pub mod maintainer;
pub mod pool;

mod engine;

pub use engine::SparseCandidateGenerator;
pub use inverted::InvertedIndex;
pub use maintainer::{PoolDelta, PoolMaintainer};
pub use pool::{CandidateMode, CandidatePool, PoolParams};

/// Always 1: the index is one flat structure. Kept only because the
/// end-to-end benchmark's `machine` line reports it, and that harness
/// changes only together with its metrics.
pub fn default_shards() -> usize {
    1
}
