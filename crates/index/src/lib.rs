//! # hta-index — sparse candidate generation for HTA
//!
//! Dense HTA solves touch `Θ(|T|²)` diversity pairs and `Θ(|T|·|W|)`
//! relevance values per iteration, which caps the platform far below
//! web-service catalog sizes. This crate adds the retrieval layer that
//! online-assignment systems put in front of their solvers:
//!
//! * [`InvertedIndex`] — keyword → posting list of *open* tasks, maintained
//!   incrementally in `O(|kw(t)|)` per task arrival/completion;
//! * [`InvertedIndex::top_k`] — per-worker top-k relevance retrieval by
//!   term-at-a-time accumulation with an early-termination upper bound;
//! * [`ShardedIndex`] — the same contract partitioned into contiguous
//!   keyword-range shards: bulk builds run one scoped thread per shard with
//!   no merge phase, incremental updates route per shard, and top-k fans
//!   the worker's terms out per shard before an exact Jaccard merge —
//!   output is byte-identical to the unsharded index (property-tested);
//! * [`TaskIndex`] — the retrieval abstraction both indices implement, so
//!   pools and generators are generic over the sharding decision;
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
pub mod sharded;
pub mod traits;

mod engine;

pub use engine::SparseCandidateGenerator;
pub use inverted::InvertedIndex;
pub use maintainer::{PoolDelta, PoolMaintainer};
pub use pool::{CandidateMode, CandidatePool, PoolParams};
pub use sharded::{default_shards, ShardedIndex};
pub use traits::TaskIndex;
