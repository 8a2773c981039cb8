//! Cluster roles for the serving layer: primary/replica replication
//! (DESIGN.md §14).
//!
//! Two roles share one binary:
//!
//! * **primary** — owns the authoritative [`PlatformState`], retrieves
//!   candidates from its local index and runs the solver. After every
//!   successful mutating operation it publishes its serialized state to a
//!   [`ReplicationHub`], which diffs consecutive snapshots into
//!   epoch-tagged deltas and streams them to attached peers.
//! * **replica** — follows the primary's replication stream, swaps each
//!   update into its local `PlatformState`
//!   ([`PlatformState::replace_from_snapshot_bytes`]), and answers read
//!   traffic (`/stats`, `/topk`, `/candidates`) locally — byte-identically
//!   to the primary at the same epoch, because both hold the same bytes.
//!   Write endpoints bounce to the primary with `307` + `Location`.

use std::io;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hta_cluster::{Follower, ReplicaState, ReplicationHub};

use crate::state::PlatformState;

/// Which cluster role this process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Authoritative state + solver; publishes replication epochs.
    Primary,
    /// Read replica following the primary's snapshot-delta stream.
    Replica,
}

impl FromStr for Role {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "primary" => Ok(Role::Primary),
            "replica" => Ok(Role::Replica),
            _ => Err(format!("unknown role {s:?} (want primary or replica)")),
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
        })
    }
}

/// The epoch a follower has fully applied to its serving state, reported
/// on `GET /cluster`. `set` (Release) pairs with `get` (Acquire): a reader
/// that sees epoch `E` also sees the state swap that preceded it.
#[derive(Default)]
pub struct AppliedEpoch(AtomicU64);

impl AppliedEpoch {
    /// Epoch 0: nothing applied yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `epoch` is now fully applied (monotone; stale sets are
    /// ignored).
    pub fn set(&self, epoch: u64) {
        self.0.fetch_max(epoch, Ordering::Release);
    }

    /// The currently applied epoch.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// Per-node cluster configuration handed to the HTTP layer.
pub struct ClusterCtx {
    /// This node's role.
    pub role: Role,
    /// Primary only: the replication hub peers attach to.
    pub hub: Option<Arc<ReplicationHub>>,
    /// Replica: the primary's HTTP address (`host:port`) write endpoints
    /// redirect to.
    pub primary_http: Option<String>,
    /// Replica: the epoch applied to the local serving state.
    pub applied: Arc<AppliedEpoch>,
}

impl ClusterCtx {
    /// Context for a primary publishing through `hub`.
    pub fn primary(hub: Arc<ReplicationHub>) -> Self {
        Self {
            role: Role::Primary,
            hub: Some(hub),
            primary_http: None,
            applied: Arc::new(AppliedEpoch::new()),
        }
    }

    /// Context for a read replica redirecting writes to `primary_http`.
    pub fn replica(primary_http: String, applied: Arc<AppliedEpoch>) -> Self {
        Self {
            role: Role::Replica,
            hub: None,
            primary_http: Some(primary_http),
            applied,
        }
    }

    /// The epoch this node reports on `GET /cluster`: the hub's head on a
    /// primary, the applied epoch on a follower.
    pub fn epoch(&self) -> u64 {
        match &self.hub {
            Some(hub) => hub.epoch(),
            None => self.applied.get(),
        }
    }
}

/// Block until this node holds a full platform state: restored from the
/// journal when it carries one, otherwise fetched from the primary's
/// replication listener at `join` (retrying until `deadline` — the primary
/// may not be up yet).
pub fn acquire_initial_state(
    join: &str,
    rstate: &mut ReplicaState,
    deadline: Duration,
) -> Result<PlatformState, String> {
    if rstate.epoch > 0 {
        if let Ok(state) = PlatformState::from_snapshot_bytes(&rstate.bytes) {
            return Ok(state);
        }
    }
    let start = Instant::now();
    loop {
        if let Ok(mut follower) = Follower::connect(join, rstate.epoch) {
            follower.set_read_timeout(Some(Duration::from_secs(5))).ok();
            while let Ok(update) = follower.next_update() {
                let _ = rstate.apply(update);
                if rstate.epoch > 0 {
                    if let Ok(state) = PlatformState::from_snapshot_bytes(&rstate.bytes) {
                        return Ok(state);
                    }
                }
            }
        }
        if start.elapsed() > deadline {
            return Err(format!("no initial state from {join} within {deadline:?}"));
        }
        thread::sleep(Duration::from_millis(200));
    }
}

/// Keep a follower converged forever: apply every update off the wire,
/// swap it into `state`, bump `applied`. Reconnects with backoff on any
/// connection or apply error, re-handshaking from the epoch it holds —
/// the hub ships the covering delta chain or one full snapshot, so a
/// restarted or lagging follower always converges to byte-identical state.
pub fn spawn_follower(
    join: String,
    mut rstate: ReplicaState,
    state: Arc<PlatformState>,
    applied: Arc<AppliedEpoch>,
) -> JoinHandle<()> {
    applied.set(rstate.epoch);
    thread::spawn(move || loop {
        let Ok(mut follower) = Follower::connect(&join, rstate.epoch) else {
            thread::sleep(Duration::from_millis(200));
            continue;
        };
        follower
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok();
        loop {
            match follower.next_update() {
                Ok(update) => {
                    // Any refusal (epoch gap, bad delta) or swap failure
                    // breaks to a re-handshake from the held epoch.
                    if rstate.apply(update).is_err()
                        || state.replace_from_snapshot_bytes(&rstate.bytes).is_err()
                    {
                        break;
                    }
                    applied.set(rstate.epoch);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => break,
            }
        }
        thread::sleep(Duration::from_millis(100));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_parses_and_prints() {
        assert_eq!("primary".parse::<Role>().unwrap(), Role::Primary);
        assert_eq!("replica".parse::<Role>().unwrap(), Role::Replica);
        assert!("leader".parse::<Role>().is_err());
        assert!("shard-worker".parse::<Role>().is_err());
        assert_eq!(Role::Replica.to_string(), "replica");
    }

    #[test]
    fn applied_epoch_stays_monotone() {
        let applied = AppliedEpoch::new();
        assert_eq!(applied.get(), 0);
        applied.set(4);
        applied.set(2); // stale: ignored
        assert_eq!(applied.get(), 4);
        applied.set(7);
        assert_eq!(applied.get(), 7);
    }
}
