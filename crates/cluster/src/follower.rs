//! Replica-side replication: connect, catch up, apply, persist.
//!
//! A follower holds `(epoch, snapshot bytes)` and keeps it converged with
//! the primary by applying the frames the hub streams at it. The epoch tag
//! is the safety rail: a delta whose `base_epoch` is not the follower's
//! current epoch is refused locally and the follower re-handshakes, which
//! makes the hub ship either the covering delta chain or a full snapshot —
//! a killed-and-relaunched replica converges to byte-identical state from
//! whatever it last persisted.

use crate::frame::{Frame, FRAME_DELTA, FRAME_FULL};
use hta_snapshot::{DeltaError, Snapshot, SnapshotBuilder, SnapshotDelta, SnapshotError};
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Container kind for the persisted `(epoch, state)` journal.
pub const JOURNAL_KIND: &str = "hta-replica-journal";

/// One state update decoded off the wire.
#[derive(Debug)]
pub enum Update {
    /// Replace local state wholesale.
    Full {
        /// The epoch of the shipped snapshot.
        epoch: u64,
        /// The full snapshot bytes.
        bytes: Vec<u8>,
    },
    /// Apply a section diff to the current state.
    Delta(SnapshotDelta),
}

/// A live replication connection (replica side).
pub struct Follower {
    reader: BufReader<TcpStream>,
}

impl Follower {
    /// Connect to a primary's replication listener and introduce ourselves
    /// as holding `last_epoch` (0 = nothing, forces a full snapshot).
    pub fn connect(addr: &str, last_epoch: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Frame::hello(last_epoch).write_to(&mut &stream)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Bound how long [`Self::next_update`] blocks waiting for a frame.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Block for the next update. `UnexpectedEof` means the primary went
    /// away; `WouldBlock`/`TimedOut` mean the read timeout elapsed with the
    /// stream idle (no update published) — both are normal lifecycle, not
    /// corruption.
    pub fn next_update(&mut self) -> io::Result<Update> {
        loop {
            let frame = Frame::read_from(&mut self.reader)?;
            match frame.kind {
                FRAME_FULL => {
                    let (epoch, bytes) = frame.parse_full()?;
                    return Ok(Update::Full {
                        epoch,
                        bytes: bytes.to_vec(),
                    });
                }
                FRAME_DELTA => {
                    let delta = SnapshotDelta::from_bytes(&frame.payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    return Ok(Update::Delta(delta));
                }
                // Unknown frame kinds are skipped so the protocol can grow.
                _ => continue,
            }
        }
    }
}

/// The replica's local `(epoch, bytes)` pair, optionally persisted to disk
/// after every accepted update so a SIGKILL'd replica rejoins from where it
/// died instead of from scratch.
pub struct ReplicaState {
    /// Epoch of `bytes` (0 = nothing held yet).
    pub epoch: u64,
    /// The current full snapshot bytes (empty at epoch 0).
    pub bytes: Vec<u8>,
    journal: Option<PathBuf>,
}

impl ReplicaState {
    /// An empty state (epoch 0) with no persistence.
    pub fn empty() -> Self {
        Self {
            epoch: 0,
            bytes: Vec::new(),
            journal: None,
        }
    }

    /// Load from a journal file if it exists and verifies; otherwise start
    /// empty. Either way, subsequent updates persist to `path` atomically.
    pub fn with_journal(path: &Path) -> Self {
        let mut state = Self::empty();
        state.journal = Some(path.to_path_buf());
        if let Ok(snap) = Snapshot::load(path) {
            if snap.kind() == JOURNAL_KIND {
                if let (Ok(epoch_bytes), Ok(state_bytes)) =
                    (snap.section("epoch"), snap.section("state"))
                {
                    if epoch_bytes.len() == 8 && Snapshot::from_bytes(state_bytes).is_ok() {
                        state.epoch = u64::from_le_bytes(epoch_bytes.try_into().unwrap());
                        state.bytes = state_bytes.to_vec();
                    }
                }
            }
        }
        state
    }

    /// Apply one update. `Ok(true)` means the state changed (re-derive any
    /// in-memory view); a [`DeltaError::BaseMismatch`] or epoch gap means
    /// the caller must re-handshake from its current epoch.
    pub fn apply(&mut self, update: Update) -> Result<bool, DeltaError> {
        match update {
            Update::Full { epoch, bytes } => {
                // Validate before adopting: a replica never holds bytes it
                // could not re-serve.
                Snapshot::from_bytes(&bytes)?;
                self.epoch = epoch;
                self.bytes = bytes;
            }
            Update::Delta(delta) => {
                if delta.base_epoch != self.epoch {
                    return Err(DeltaError::Snapshot(SnapshotError::Corrupt(format!(
                        "delta base epoch {} does not match held epoch {}",
                        delta.base_epoch, self.epoch
                    ))));
                }
                self.bytes = delta.apply(&self.bytes)?;
                self.epoch = delta.new_epoch;
            }
        }
        self.persist();
        Ok(true)
    }

    fn persist(&self) {
        if let Some(path) = &self.journal {
            let _ = SnapshotBuilder::new(JOURNAL_KIND)
                .section("epoch", self.epoch.to_le_bytes().to_vec())
                .section("state", self.bytes.clone())
                .write_atomic(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::ReplicationHub;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;

    fn snap(v: u8) -> Vec<u8> {
        SnapshotBuilder::new("t")
            .section("a", vec![v; 8])
            .section("b", (0..v).collect())
            .to_bytes()
    }

    /// End-to-end over a real socket: publish on the hub, watch the
    /// follower converge; kill the connection, mutate, reconnect with the
    /// held epoch, converge again via the retained deltas.
    #[test]
    fn follower_converges_and_rejoins() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hub = Arc::new(ReplicationHub::new(16));
        {
            let hub = Arc::clone(&hub);
            thread::spawn(move || hub.serve(listener));
        }
        hub.publish(snap(1));
        hub.publish(snap(2));

        let dir = std::env::temp_dir().join(format!("hta-follower-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("replica.journal");

        let mut state = ReplicaState::with_journal(&journal);
        let mut follower = Follower::connect(&addr, state.epoch).unwrap();
        state.apply(follower.next_update().unwrap()).unwrap();
        assert_eq!(state.epoch, 2);
        assert_eq!(state.bytes, snap(2));

        // Live update flows as a delta.
        hub.publish(snap(3));
        state.apply(follower.next_update().unwrap()).unwrap();
        assert_eq!((state.epoch, &state.bytes), (3, &snap(3)));

        // "SIGKILL": drop the connection and the in-memory state, mutate
        // twice, then relaunch from the journal.
        drop(follower);
        drop(state);
        hub.publish(snap(4));
        hub.publish(snap(5));
        let mut state = ReplicaState::with_journal(&journal);
        assert_eq!(state.epoch, 3, "journal survived the kill");
        let mut follower = Follower::connect(&addr, state.epoch).unwrap();
        // Catch-up arrives as the two retained deltas.
        state.apply(follower.next_update().unwrap()).unwrap();
        state.apply(follower.next_update().unwrap()).unwrap();
        assert_eq!((state.epoch, &state.bytes), (5, &snap(5)));

        hub.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_gap_is_refused_locally() {
        let base = snap(1);
        let target = snap(2);
        let delta = SnapshotDelta::compute(&base, &target, 5, 6).unwrap();
        let mut state = ReplicaState::empty();
        state
            .apply(Update::Full {
                epoch: 3,
                bytes: base,
            })
            .unwrap();
        assert!(state.apply(Update::Delta(delta)).is_err());
        assert_eq!(state.epoch, 3, "state unchanged after the refusal");
    }

    #[test]
    fn corrupt_journal_starts_empty() {
        let dir = std::env::temp_dir().join(format!("hta-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.journal");
        std::fs::write(&path, b"not a container").unwrap();
        let state = ReplicaState::with_journal(&path);
        assert_eq!(state.epoch, 0);
        assert!(state.bytes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
