//! # hta-cluster — primary/replica replication
//!
//! A std-only serving layer that composes two existing guarantees into a
//! multi-process story:
//!
//! * `hta-snapshot` serializes the full platform state **deterministically**
//!   (same state → same bytes), and [`hta_snapshot::SnapshotDelta`] diffs
//!   two snapshots at section granularity;
//! * the platform state restores from those bytes and re-serializes to the
//!   **same** bytes (round-trip identity, proptested in `hta-server`).
//!
//! So replication is just: the **primary** publishes its serialized state
//! to a [`ReplicationHub`] after every mutating operation; the hub diffs
//! consecutive snapshots into epoch-tagged deltas and streams them (as
//! CRC'd [`frame`]s over plain TCP) to **followers**, which splice them
//! into their held bytes and rebuild their in-memory state. A follower's
//! answers to read traffic (`/stats`, top-k, candidate generation) are then
//! byte-identical to the primary's at the same epoch — not approximately
//! consistent, *identical*, because both sides hold the same bytes.
//!
//! Catch-up falls out of the same mechanism: the hub retains a window of
//! deltas, a rejoining follower presents the epoch it last persisted
//! ([`ReplicaState::with_journal`]), and the hub ships either the covering
//! delta chain or one full snapshot. Kill a replica, relaunch it, and it
//! converges to byte-identical state.
//!
//! Followers serve reads only. Candidate retrieval and the one joint solve
//! stay on the primary, which owns the decision, as in the centralized
//! online-assignment model.

#![warn(missing_docs)]

pub mod follower;
pub mod frame;
pub mod hub;

pub use follower::{Follower, ReplicaState, Update, JOURNAL_KIND};
pub use frame::{Frame, FRAME_DELTA, FRAME_FULL, FRAME_HELLO, MAX_FRAME_PAYLOAD};
pub use hub::{ReplicationHub, DEFAULT_RETAIN};
