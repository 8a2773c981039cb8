//! Checkpoint/restore for the serving state.
//!
//! A server snapshot captures the whole [`PlatformState`] — the keyword
//! space (names included, so interned ids survive), the task catalog, every
//! registered worker with their adaptive estimator and assignment ledger,
//! the task-availability vector, the keyword index (posting order
//! preserved — it encodes swap-remove history), the solver RNG's stream
//! position, and the platform parameters. A restored server is
//! *behaviorally identical* to the one that saved the snapshot: the next
//! `/assign` on either produces the same tasks, and `/stats` reports the
//! same counters.
//!
//! The bytes live in an [`hta_snapshot`] container (magic, version,
//! checksummed sections, atomic writes); this module defines the section
//! payloads via [`StateSerialize`] and validates cross-section invariants
//! on load — a snapshot either restores completely or not at all.

use std::fmt;
use std::io;
use std::path::Path;

use hta_core::state::{decode, encode, StateDecodeError, StateReader, StateSerialize};
use hta_index::CandidateMode;
use hta_snapshot::{Snapshot, SnapshotBuilder, SnapshotError};

use crate::state::{Inner, PlatformState, WorkerState};

/// `kind` string of server-state snapshots (distinct from the experiment
/// runner's `"hta-crowd-run"`, so the two cannot be confused on load).
pub const SNAPSHOT_KIND: &str = "hta-server-state";

const SECTION_SPACE: &str = "space";
const SECTION_TASKS: &str = "tasks";
const SECTION_WORKERS: &str = "workers";
const SECTION_PLATFORM: &str = "platform";
const SECTION_INDEX: &str = "index";
const SECTION_RNG: &str = "rng";

/// Why a server snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum ServerSnapshotError {
    /// The container layer rejected the file (bad magic, version,
    /// checksum, truncation, missing section…).
    Container(SnapshotError),
    /// The file is a valid container but not a server-state snapshot.
    WrongKind {
        /// The `kind` the file declares.
        found: String,
    },
    /// A section's payload failed to decode.
    Decode {
        /// Which section.
        section: &'static str,
        /// The decoder's error.
        source: StateDecodeError,
    },
    /// Sections decoded but are mutually inconsistent.
    Invalid(String),
    /// Filesystem failure while writing.
    Io(io::Error),
}

impl fmt::Display for ServerSnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Container(e) => write!(f, "{e}"),
            Self::WrongKind { found } => write!(
                f,
                "not a server-state snapshot: kind is {found:?}, expected {SNAPSHOT_KIND:?}"
            ),
            Self::Decode { section, source } => {
                write!(f, "section {section:?} failed to decode: {source}")
            }
            Self::Invalid(msg) => write!(f, "inconsistent snapshot: {msg}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServerSnapshotError {}

impl From<SnapshotError> for ServerSnapshotError {
    fn from(e: SnapshotError) -> Self {
        Self::Container(e)
    }
}

impl From<io::Error> for ServerSnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl StateSerialize for WorkerState {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.keywords.write_state(out);
        self.estimator.write_state(out);
        self.assigned.write_state(out);
        self.completed.write_state(out);
        self.reputation.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        Ok(Self {
            keywords: StateSerialize::read_state(r)?,
            estimator: StateSerialize::read_state(r)?,
            assigned: Vec::<usize>::read_state(r)?,
            completed: Vec::<usize>::read_state(r)?,
            reputation: StateSerialize::read_state(r)?,
        })
    }
}

/// The scalar platform parameters plus the availability vector — everything
/// in [`Inner`] that is not a section of its own.
struct PlatformSection {
    available: Vec<bool>,
    xmax: usize,
    max_instance_tasks: usize,
    mode: CandidateMode,
    solver_threads: usize,
}

impl StateSerialize for PlatformSection {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.available.write_state(out);
        self.xmax.write_state(out);
        self.max_instance_tasks.write_state(out);
        self.mode.write_state(out);
        self.solver_threads.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let s = Self {
            available: Vec::<bool>::read_state(r)?,
            xmax: usize::read_state(r)?,
            max_instance_tasks: usize::read_state(r)?,
            mode: CandidateMode::read_state(r)?,
            solver_threads: usize::read_state(r)?,
        };
        if s.xmax == 0 {
            return Err(StateDecodeError::Invalid("xmax must be ≥ 1".into()));
        }
        if s.max_instance_tasks == 0 {
            return Err(StateDecodeError::Invalid(
                "max_instance_tasks must be ≥ 1".into(),
            ));
        }
        Ok(s)
    }
}

/// Build the snapshot container for locked inner state.
fn builder_from_inner(inner: &Inner) -> SnapshotBuilder {
    let platform = PlatformSection {
        available: inner.available.clone(),
        xmax: inner.xmax,
        max_instance_tasks: inner.max_instance_tasks,
        mode: inner.mode,
        solver_threads: inner.solver_threads,
    };
    SnapshotBuilder::new(SNAPSHOT_KIND)
        .section(SECTION_SPACE, encode(&inner.space))
        .section(SECTION_TASKS, encode(&inner.tasks))
        .section(SECTION_WORKERS, encode(&inner.workers))
        .section(SECTION_PLATFORM, encode(&platform))
        .section(SECTION_INDEX, encode(&inner.index))
        .section(SECTION_RNG, encode(&inner.rng))
}

impl PlatformState {
    fn snapshot_builder(&self) -> SnapshotBuilder {
        self.with_inner(builder_from_inner)
    }

    /// The snapshot's on-disk byte representation.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_builder().to_bytes()
    }

    /// Replace this server's entire state with the one encoded in `bytes`
    /// — the replica apply path. The `Arc<PlatformState>` the HTTP layer
    /// holds stays valid: requests racing the swap see either the old or
    /// the new state in full, never a mix, and invalid bytes leave the
    /// state untouched.
    pub fn replace_from_snapshot_bytes(&self, bytes: &[u8]) -> Result<(), ServerSnapshotError> {
        let fresh = Self::from_snapshot_bytes(bytes)?;
        self.replace_with(fresh);
        Ok(())
    }

    /// Atomically save a snapshot of the full serving state to `path`
    /// (write-to-temp, `fsync`, rename). Returns the file size in bytes.
    pub fn save_snapshot(&self, path: &Path) -> Result<usize, ServerSnapshotError> {
        let builder = self.snapshot_builder();
        let len = builder.to_bytes().len();
        builder.write_atomic(path)?;
        Ok(len)
    }

    /// Restore a server from a snapshot file. The result is behaviorally
    /// identical to the state that saved it; corrupt, truncated, or
    /// inconsistent files are rejected whole.
    pub fn restore(path: &Path) -> Result<Self, ServerSnapshotError> {
        Self::from_snapshot_bytes_inner(&Snapshot::load(path)?)
    }

    /// Restore from in-memory snapshot bytes (see [`Self::restore`]).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, ServerSnapshotError> {
        Self::from_snapshot_bytes_inner(&Snapshot::from_bytes(bytes)?)
    }

    fn from_snapshot_bytes_inner(snap: &Snapshot) -> Result<Self, ServerSnapshotError> {
        if snap.kind() != SNAPSHOT_KIND {
            return Err(ServerSnapshotError::WrongKind {
                found: snap.kind().to_owned(),
            });
        }
        fn section<T: StateSerialize>(
            snap: &Snapshot,
            name: &'static str,
        ) -> Result<T, ServerSnapshotError> {
            decode(snap.section(name)?).map_err(|source| ServerSnapshotError::Decode {
                section: name,
                source,
            })
        }
        let space: hta_core::KeywordSpace = section(snap, SECTION_SPACE)?;
        let tasks: hta_core::TaskPool = section(snap, SECTION_TASKS)?;
        let workers: Vec<WorkerState> = section(snap, SECTION_WORKERS)?;
        let platform: PlatformSection = section(snap, SECTION_PLATFORM)?;
        let index: hta_index::InvertedIndex = section(snap, SECTION_INDEX)?;
        let rng: rand::rngs::StdRng = section(snap, SECTION_RNG)?;

        let invalid = |msg: String| Err(ServerSnapshotError::Invalid(msg));
        if rng.state() == [0u64; 4] {
            return invalid("all-zero RNG state".into());
        }
        if platform.available.len() != tasks.len() {
            return invalid(format!(
                "availability vector covers {} tasks, catalog has {}",
                platform.available.len(),
                tasks.len()
            ));
        }
        // Registration widens the index with the space in lock-step.
        if index.nbits() != space.len() {
            return invalid(format!(
                "index is over {} keywords, space has {}",
                index.nbits(),
                space.len()
            ));
        }
        for t in tasks.tasks() {
            if t.keywords.nbits() > space.len() {
                return invalid(format!(
                    "task {} has keywords over a universe of {} (> space {})",
                    t.id.0,
                    t.keywords.nbits(),
                    space.len()
                ));
            }
        }
        let open = platform.available.iter().filter(|&&a| a).count();
        if index.len() != open {
            return invalid(format!(
                "index holds {} tasks, {open} are open",
                index.len()
            ));
        }
        for t in index.open_tasks() {
            let ok = platform.available.get(t as usize).copied().unwrap_or(false);
            if !ok {
                return invalid(format!("index holds task {t}, which is not open"));
            }
        }
        // The assignment ledger must account for every closed task exactly
        // once: a task is open, on one worker's display, or completed by
        // one worker.
        let mut owned = vec![false; tasks.len()];
        for (w, worker) in workers.iter().enumerate() {
            if worker.keywords.nbits() > space.len() {
                return invalid(format!(
                    "worker {w} has keywords over a universe of {} (> space {})",
                    worker.keywords.nbits(),
                    space.len()
                ));
            }
            for &t in worker.assigned.iter().chain(&worker.completed) {
                if t >= tasks.len() {
                    return invalid(format!("worker {w} holds unknown task {t}"));
                }
                if platform.available[t] {
                    return invalid(format!("worker {w} holds task {t}, which is still open"));
                }
                if owned[t] {
                    return invalid(format!("task {t} appears in two ledger entries"));
                }
                owned[t] = true;
            }
        }
        let closed = tasks.len() - open;
        let accounted = owned.iter().filter(|&&o| o).count();
        if accounted != closed {
            return invalid(format!(
                "{closed} tasks are closed but only {accounted} appear in worker ledgers"
            ));
        }

        Ok(PlatformState::from_inner(Inner {
            space,
            tasks,
            available: platform.available,
            workers,
            rng,
            xmax: platform.xmax,
            max_instance_tasks: platform.max_instance_tasks,
            index,
            mode: platform.mode,
            solver_threads: platform.solver_threads,
            warm_start: true,
            edge_cache_cap: 0,
            // The session is derived over the immutable catalog; it is not
            // serialized and rebuilds on the first solve, with
            // byte-identical output either way.
            session: None,
            pool_maint: None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_datagen::amt::{generate, AmtConfig};

    fn busy_state() -> PlatformState {
        let w = generate(&AmtConfig {
            n_groups: 12,
            tasks_per_group: 8,
            vocab_size: 60,
            ..Default::default()
        });
        let s = PlatformState::with_options(w.space, w.tasks, 5, 42, CandidateMode::default(), 1);
        let w0 = s.register_worker(&["english", "survey"]).unwrap();
        let w1 = s.register_worker(&["audio", "fresh-keyword"]).unwrap();
        let a0 = s.assign(w0).unwrap();
        let a1 = s.assign(w1).unwrap();
        s.complete(w0, a0.tasks[0]).unwrap();
        s.complete(w0, a0.tasks[1]).unwrap();
        s.complete_with_outcome(w1, a1.tasks[0], false).unwrap();
        s
    }

    #[test]
    fn replica_swap_keeps_node_configuration() {
        let s = busy_state();
        s.set_edge_cache_cap(123);
        s.set_warm_start(false);
        let other = busy_state();
        s.replace_from_snapshot_bytes(&other.snapshot_bytes())
            .unwrap();
        assert_eq!(s.edge_cache_cap(), 123);
        assert!(!s.warm_start());
        assert_eq!(s.snapshot_bytes(), other.snapshot_bytes());
    }

    #[test]
    fn restored_state_is_behaviorally_identical() {
        let s = busy_state();
        let bytes = s.snapshot_bytes();
        let r = PlatformState::from_snapshot_bytes(&bytes).expect("restore");

        assert_eq!(r.stats(), s.stats(), "stats survive");
        assert_eq!(r.candidate_mode(), s.candidate_mode());
        assert_eq!(r.task_keywords(0), s.task_keywords(0));
        for w in 0..2 {
            assert_eq!(
                r.reputation(w).unwrap(),
                s.reputation(w).unwrap(),
                "worker {w} reputation diverged across restore"
            );
        }

        // The next assignment draws on the restored index, estimators, and
        // RNG stream — it must match the original server exactly.
        let a = s.assign(0).unwrap();
        let b = r.assign(0).unwrap();
        assert_eq!(a, b, "post-restore assignment diverged");
        assert_eq!(r.stats(), s.stats(), "stats stay in lock-step");
    }

    #[test]
    fn snapshot_file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("hta-server-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.htasnap");

        let s = busy_state();
        let len = s.save_snapshot(&path).expect("save");
        assert_eq!(len, std::fs::metadata(&path).unwrap().len() as usize);
        let r = PlatformState::restore(&path).expect("restore");
        assert_eq!(r.stats(), s.stats());

        // No temp files linger after the rename.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bytes_are_rejected_never_half_restored() {
        let bytes = busy_state().snapshot_bytes();
        for cut in [0, 7, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                PlatformState::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for pos in (0..bytes.len()).step_by(61) {
            let mut t = bytes.clone();
            t[pos] ^= 0x01;
            assert!(
                PlatformState::from_snapshot_bytes(&t).is_err(),
                "bit flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = SnapshotBuilder::new("hta-crowd-run").to_bytes();
        match PlatformState::from_snapshot_bytes(&bytes) {
            Err(ServerSnapshotError::WrongKind { found }) => {
                assert_eq!(found, "hta-crowd-run");
            }
            Err(e) => panic!("expected WrongKind, got {e:?}"),
            Ok(_) => panic!("wrong-kind snapshot accepted"),
        }
    }

    #[test]
    fn inconsistent_sections_are_rejected() {
        // Re-assemble a valid snapshot with a tampered availability vector:
        // task 0 is marked open again while a worker still holds it.
        let s = busy_state();
        let (mut platform, sections) = s.with_inner(|inner| {
            let platform = PlatformSection {
                available: inner.available.clone(),
                xmax: inner.xmax,
                max_instance_tasks: inner.max_instance_tasks,
                mode: inner.mode,
                solver_threads: inner.solver_threads,
            };
            let sections = (
                encode(&inner.space),
                encode(&inner.tasks),
                encode(&inner.workers),
                encode(&inner.index),
                encode(&inner.rng),
            );
            (platform, sections)
        });
        let closed = platform.available.iter().position(|&a| !a).unwrap();
        platform.available[closed] = true;
        let bytes = SnapshotBuilder::new(SNAPSHOT_KIND)
            .section(SECTION_SPACE, sections.0)
            .section(SECTION_TASKS, sections.1)
            .section(SECTION_WORKERS, sections.2)
            .section(SECTION_PLATFORM, encode(&platform))
            .section(SECTION_INDEX, sections.3)
            .section(SECTION_RNG, sections.4)
            .to_bytes();
        match PlatformState::from_snapshot_bytes(&bytes) {
            Err(ServerSnapshotError::Invalid(msg)) => {
                assert!(msg.contains("open") || msg.contains("index"), "{msg}");
            }
            Err(e) => panic!("expected Invalid, got {e:?}"),
            Ok(_) => panic!("inconsistent snapshot accepted"),
        }
    }
}
