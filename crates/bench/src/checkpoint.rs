//! Resumable figure sweeps: completed data points are checkpointed to an
//! [`hta_snapshot`] container after every sweep iteration, so an
//! interrupted `HTA_SCALE=paper` run (hours per figure) restarts
//! mid-figure instead of from scratch.
//!
//! A checkpoint is scoped by a *fingerprint* — the scale plus the sweep's
//! instance shape — so changing `HTA_SCALE` (or the sweep parameters)
//! silently discards a stale file rather than splicing rows from a
//! different experiment. Completed figures delete their checkpoint; the
//! file only survives a crash or an interrupt.

use std::path::{Path, PathBuf};

use hta_core::state::{decode, encode, StateDecodeError, StateReader, StateSerialize};
use hta_snapshot::{Snapshot, SnapshotBuilder};

use crate::harness::{csv_path, Row, Table};

/// `kind` string of figure-sweep checkpoints (distinct from the server's
/// `"hta-server-state"` and the runner's `"hta-crowd-run"`).
pub const SNAPSHOT_KIND: &str = "hta-figure-sweep";

const SECTION_FINGERPRINT: &str = "fingerprint";
const SECTION_ROWS: &str = "rows";

impl StateSerialize for Row {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.label.write_state(out);
        self.cells.len().write_state(out);
        for (k, v) in &self.cells {
            k.write_state(out);
            v.write_state(out);
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let label = String::read_state(r)?;
        let n = usize::read_state(r)?;
        let mut cells = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let k = String::read_state(r)?;
            let v = f64::read_state(r)?;
            cells.push((k, v));
        }
        Ok(Self { label, cells })
    }
}

/// A figure sweep's restart state: the rows completed so far, persisted
/// atomically after each data point.
///
/// ```no_run
/// # use hta_bench::{Row, SweepCheckpoint, Table};
/// let mut table = Table::new("Fig X", "|T|");
/// let mut ckpt = SweepCheckpoint::open("figX", "laptop:whatever");
/// ckpt.replay(&mut table);
/// for n in [1000usize, 2000, 4000] {
///     if ckpt.is_done(&n.to_string()) {
///         continue; // restored from a previous interrupted run
///     }
///     let row = Row::new(n.to_string(), vec![("total", 0.0)]);
///     table.push(row.clone());
///     ckpt.record(row);
/// }
/// ckpt.finish();
/// ```
pub struct SweepCheckpoint {
    path: PathBuf,
    fingerprint: String,
    rows: Vec<Row>,
    restored: usize,
}

impl SweepCheckpoint {
    /// Open the checkpoint for figure `name`, scoped by `fingerprint`.
    /// An existing file with the same kind and fingerprint restores its
    /// completed rows; anything else (absent, corrupt, truncated, or from
    /// a different scale/sweep) starts fresh.
    pub fn open(name: &str, fingerprint: &str) -> Self {
        let mut path = csv_path(name);
        path.set_extension("sweep.htasnap");
        let rows = Self::try_restore(&path, fingerprint).unwrap_or_default();
        let restored = rows.len();
        Self {
            path,
            fingerprint: fingerprint.to_owned(),
            rows,
            restored,
        }
    }

    fn try_restore(path: &Path, fingerprint: &str) -> Option<Vec<Row>> {
        let snap = Snapshot::load(path).ok()?;
        if snap.kind() != SNAPSHOT_KIND {
            return None;
        }
        let stored: String = decode(snap.section(SECTION_FINGERPRINT).ok()?).ok()?;
        if stored != fingerprint {
            return None;
        }
        decode(snap.section(SECTION_ROWS).ok()?).ok()
    }

    /// Number of rows restored from a previous interrupted run.
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// Whether the data point labeled `label` is already complete.
    pub fn is_done(&self, label: &str) -> bool {
        self.rows.iter().any(|r| r.label == label)
    }

    /// Push every restored row into `table` (call once, before the sweep
    /// loop, so the final table contains restored and fresh rows in sweep
    /// order — provided the sweep order itself is unchanged, which the
    /// fingerprint guarantees).
    pub fn replay(&self, table: &mut Table) {
        for r in &self.rows {
            table.push(r.clone());
        }
    }

    /// Record a freshly completed data point and persist the checkpoint
    /// atomically (write-to-temp, fsync, rename). A failed write is
    /// reported but non-fatal: the sweep keeps going, it just cannot
    /// resume past this point.
    pub fn record(&mut self, row: Row) {
        self.rows.push(row);
        let builder = SnapshotBuilder::new(SNAPSHOT_KIND)
            .section(SECTION_FINGERPRINT, encode(&self.fingerprint))
            .section(SECTION_ROWS, encode(&self.rows));
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = builder.write_atomic(&self.path) {
            eprintln!(
                "warning: sweep checkpoint write failed ({e}); run cannot resume from {}",
                self.path.display()
            );
        }
    }

    /// The sweep completed: delete the checkpoint so the next run starts
    /// from the beginning.
    pub fn finish(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_name(tag: &str) -> String {
        format!("ckpt-test-{tag}-{}", std::process::id())
    }

    #[test]
    fn row_round_trips() {
        let row = Row::new("4000", vec![("app-total", 1.25), ("gre-total", 0.5)]);
        let back: Row = decode(&encode(&row)).unwrap();
        assert_eq!(back.label, row.label);
        assert_eq!(back.cells, row.cells);
    }

    #[test]
    fn interrupted_sweep_resumes_only_matching_fingerprint() {
        let name = unique_name("resume");
        let mut ckpt = SweepCheckpoint::open(&name, "laptop:v1");
        assert_eq!(ckpt.restored(), 0);
        ckpt.record(Row::new("1000", vec![("total", 1.0)]));
        ckpt.record(Row::new("2000", vec![("total", 2.0)]));

        // Same fingerprint: both points restore, in order.
        let again = SweepCheckpoint::open(&name, "laptop:v1");
        assert_eq!(again.restored(), 2);
        assert!(again.is_done("1000") && again.is_done("2000"));
        assert!(!again.is_done("4000"));
        let mut table = Table::new("t", "|T|");
        again.replay(&mut table);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].label, "1000");

        // Different fingerprint (scale or sweep changed): discarded.
        let other = SweepCheckpoint::open(&name, "paper:v1");
        assert_eq!(other.restored(), 0);

        again.finish();
        let gone = SweepCheckpoint::open(&name, "laptop:v1");
        assert_eq!(gone.restored(), 0, "finish() removes the checkpoint");
    }

    #[test]
    fn corrupt_checkpoint_starts_fresh() {
        let name = unique_name("corrupt");
        let mut ckpt = SweepCheckpoint::open(&name, "fp");
        ckpt.record(Row::new("10", vec![("x", 0.5)]));
        let path = ckpt.path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let back = SweepCheckpoint::open(&name, "fp");
        assert_eq!(back.restored(), 0);
        back.finish();
    }

    #[test]
    fn older_format_version_starts_fresh() {
        let name = unique_name("v1");
        let mut ckpt = SweepCheckpoint::open(&name, "fp");
        ckpt.record(Row::new("10", vec![("x", 0.5)]));
        let path = ckpt.path.clone();
        // Rewrite the container's version field (bytes 8..12, after the
        // magic) to 1: the loader refuses it and the sweep starts over.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let back = SweepCheckpoint::open(&name, "fp");
        assert_eq!(back.restored(), 0);
        back.finish();
    }
}
