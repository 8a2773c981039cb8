//! # hta-snapshot — versioned, checksummed, atomic snapshot container
//!
//! A std-only binary container for checkpoint/restore of long-running HTA
//! experiments and the serving state. The container is deliberately dumb:
//! it stores named, opaque byte **sections** and guarantees integrity and
//! atomicity; what the bytes mean is the business of `hta_core::state`'s
//! [`StateSerialize`](https://docs.rs) encoding in the producing crate.
//!
//! ## On-disk format (version 2)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"HTASNAP\0"
//! 8       4     format version (u32 LE)
//! 12      2+k   kind   (u16 LE length + UTF-8)  e.g. "hta-crowd-run"
//! ..      4     section count (u32 LE)
//! ..      —     section table, per section:
//!                 name (u16 LE length + UTF-8)
//!                 payload length (u64 LE)
//!                 payload CRC-32/IEEE (u32 LE)
//! ..      4     header CRC-32 over every byte above
//! ..      —     payloads, concatenated in table order
//! ```
//!
//! Every byte of the file is covered by exactly one checksum (the header
//! CRC or a section CRC), so any single corrupted byte is detected. Loading
//! validates everything before returning: a [`Snapshot`] in hand is fully
//! verified, and a corrupt, truncated, or version-mismatched file yields a
//! precise [`SnapshotError`] — never a partially-restored value.
//!
//! Writing goes through [`SnapshotBuilder::write_atomic`]: the bytes are
//! written to a hidden temp file in the destination directory, `fsync`ed,
//! then `rename(2)`d over the target, so a crash mid-write never leaves a
//! torn file at the target path.

#![warn(missing_docs)]

pub mod crc32;
pub mod delta;

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

pub use crc32::crc32;
pub use delta::{DeltaError, SnapshotDelta, DELTA_KIND};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HTASNAP\0";

/// The container format version this crate reads and writes.
///
/// The version also pins the payload layouts the producing crates write,
/// which carry no self-description: version 2 keeps version 1's container
/// bytes but drops the keyword index's shard header and the crowd platform
/// config's shard count, so a version-1 file is refused outright rather
/// than decoded into shifted fields.
pub const FORMAT_VERSION: u32 = 2;

/// Upper bound on the section count; a parsed count beyond this is corrupt.
const MAX_SECTIONS: usize = 4096;

/// Upper bound on kind/section-name lengths (bytes).
const MAX_NAME_LEN: usize = 4096;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file is a snapshot, but from an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this crate supports.
        supported: u32,
    },
    /// The file ends before a field it promised.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes the field required.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A checksum did not match — the covered bytes are corrupt.
    ChecksumMismatch {
        /// `"header"` or the section name.
        region: String,
    },
    /// A requested section is not present in the file.
    MissingSection(String),
    /// The file is structurally malformed (bad UTF-8, duplicate names,
    /// absurd counts, trailing bytes, …).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            Self::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {supported})"
            ),
            Self::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "snapshot truncated while reading {context}: needed {needed} bytes, {available} available"
            ),
            Self::ChecksumMismatch { region } => {
                write!(f, "snapshot checksum mismatch in {region} — file is corrupt")
            }
            Self::MissingSection(name) => write!(f, "snapshot is missing section {name:?}"),
            Self::Corrupt(msg) => write!(f, "snapshot is corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Assembles a snapshot: a kind tag plus named byte sections.
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    kind: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// A builder for a snapshot of the given `kind` (an application-level
    /// tag, e.g. `"hta-crowd-run"`, checked by consumers on load).
    ///
    /// # Panics
    /// Panics if `kind` exceeds 4,096 bytes.
    pub fn new(kind: &str) -> Self {
        assert!(kind.len() <= MAX_NAME_LEN, "snapshot kind too long");
        Self {
            kind: kind.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Append a named section.
    ///
    /// # Panics
    /// Panics on a duplicate section name or an over-long name — both are
    /// programming errors in the producer.
    pub fn section(mut self, name: &str, payload: Vec<u8>) -> Self {
        assert!(name.len() <= MAX_NAME_LEN, "section name too long");
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section {name:?}"
        );
        assert!(self.sections.len() < MAX_SECTIONS, "too many sections");
        self.sections.push((name.to_owned(), payload));
        self
    }

    /// Serialize to the on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.kind.len() as u16).to_le_bytes());
        out.extend_from_slice(self.kind.as_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
        }
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Atomically write the snapshot to `path`: the bytes go to a hidden
    /// temp file in the same directory, are `fsync`ed, and the temp file is
    /// renamed over `path`. A crash at any point leaves either the old file
    /// or the new one at `path`, never a torn mix.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let bytes = self.to_bytes();
        let file_name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let tmp = dir.join(format!(
            ".{}.tmp.{}",
            file_name.to_string_lossy(),
            std::process::id()
        ));
        let result = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, path)?;
            // Make the rename itself durable. Failures here are ignored:
            // the data is safe, only the directory entry may be replayed.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

/// A fully-verified, loaded snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    kind: String,
    sections: Vec<(String, Vec<u8>)>,
}

/// Bounds-checked little-endian cursor used by the parser.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let available = self.buf.len() - self.pos;
        if n > available {
            return Err(SnapshotError::Truncated {
                context,
                needed: n as u64,
                available: available as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().unwrap(),
        ))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn name(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let len = self.u16(context)? as usize;
        if len > MAX_NAME_LEN {
            return Err(SnapshotError::Corrupt(format!("{context} length {len}")));
        }
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("{context} is not UTF-8")))
    }
}

impl Snapshot {
    /// Parse and fully verify a snapshot from raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut c = Cursor { buf: bytes, pos: 0 };
        let magic = c.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = c.u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = c.name("kind")?;
        let n_sections = c.u32("section count")? as usize;
        if n_sections > MAX_SECTIONS {
            return Err(SnapshotError::Corrupt(format!(
                "section count {n_sections} exceeds the limit {MAX_SECTIONS}"
            )));
        }
        let mut table: Vec<(String, u64, u32)> = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = c.name("section name")?;
            if table.iter().any(|(n, _, _)| *n == name) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate section {name:?}"
                )));
            }
            let len = c.u64("section length")?;
            let crc = c.u32("section checksum")?;
            table.push((name, len, crc));
        }
        let header_end = c.pos;
        let stored_header_crc = c.u32("header checksum")?;
        if crc32(&bytes[..header_end]) != stored_header_crc {
            return Err(SnapshotError::ChecksumMismatch {
                region: "header".to_owned(),
            });
        }
        let mut sections = Vec::with_capacity(table.len());
        for (name, len, crc) in table {
            let len = usize::try_from(len)
                .map_err(|_| SnapshotError::Corrupt(format!("section {name:?} length {len}")))?;
            let payload = {
                let available = bytes.len() - c.pos;
                if len > available {
                    return Err(SnapshotError::Truncated {
                        context: "section payload",
                        needed: len as u64,
                        available: available as u64,
                    });
                }
                c.take(len, "section payload")?
            };
            if crc32(payload) != crc {
                return Err(SnapshotError::ChecksumMismatch { region: name });
            }
            sections.push((name, payload.to_vec()));
        }
        if c.pos != bytes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the last section",
                bytes.len() - c.pos
            )));
        }
        Ok(Self { kind, sections })
    }

    /// Load and fully verify a snapshot file.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// The application-level kind tag.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Section names, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// A section's payload, or [`SnapshotError::MissingSection`].
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| SnapshotError::MissingSection(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotBuilder {
        SnapshotBuilder::new("hta-test")
            .section("alpha", vec![1, 2, 3, 4, 5])
            .section("beta", (0..=255u8).collect())
            .section("empty", Vec::new())
    }

    #[test]
    fn round_trip() {
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.kind(), "hta-test");
        assert_eq!(
            snap.section_names().collect::<Vec<_>>(),
            ["alpha", "beta", "empty"]
        );
        assert_eq!(snap.section("alpha").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(snap.section("beta").unwrap().len(), 256);
        assert_eq!(snap.section("empty").unwrap(), &[] as &[u8]);
        assert_eq!(
            snap.section("gamma").unwrap_err(),
            SnapshotError::MissingSection("gamma".into())
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of length {cut} parsed");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = sample().to_bytes();
        let mut copy = bytes.clone();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&copy).is_err(),
                    "flip at byte {i} bit {bit} parsed"
                );
                copy[i] ^= 1 << bit;
            }
        }
        assert_eq!(copy, bytes);
    }

    #[test]
    fn precise_errors() {
        let bytes = sample().to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(&bad_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            Snapshot::from_bytes(&bad_version).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );

        // A version-1 file (sharded index layout) is refused before any
        // section is handed out.
        let mut v1 = bytes.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION
            }
        );

        // Flip a payload byte: the owning section is named in the error.
        let mut bad_payload = bytes.clone();
        let last = bad_payload.len() - 1; // inside "beta" (its final byte)
        bad_payload[last] ^= 0x80;
        assert_eq!(
            Snapshot::from_bytes(&bad_payload).unwrap_err(),
            SnapshotError::ChecksumMismatch {
                region: "beta".into()
            }
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&trailing).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let bytes = SnapshotBuilder::new("empty").to_bytes();
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.kind(), "empty");
        assert_eq!(snap.section_names().count(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_section_panics() {
        let _ = SnapshotBuilder::new("k")
            .section("a", vec![])
            .section("a", vec![]);
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("hta-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.htasnap");

        sample().write_atomic(&path).unwrap();
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.kind(), "hta-test");

        // Overwrite with different content; the file is replaced whole.
        SnapshotBuilder::new("second")
            .section("s", vec![9])
            .write_atomic(&path)
            .unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().kind(), "second");

        // No temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_leaves_no_target() {
        let dir = std::env::temp_dir().join(format!("hta-snap-missing-{}", std::process::id()));
        // Parent directory does not exist: the write must fail and must not
        // create the target.
        let path = dir.join("nested").join("run.htasnap");
        assert!(sample().write_atomic(&path).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Snapshot::load(Path::new("/nonexistent/run.htasnap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }
}
