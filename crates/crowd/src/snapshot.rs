//! Checkpoint/resume for the online experiment.
//!
//! A run snapshot captures everything [`crate::experiment::run_with`] needs
//! to continue an interrupted experiment and land on the *byte-identical*
//! result an uninterrupted run would have produced:
//!
//! * the full [`OnlineConfig`] — snapshots are self-describing; the task
//!   catalog and worker population are regenerated from their seeds rather
//!   than stored,
//! * the records of every finished arm (plus each arm's final RNG state),
//! * the current arm's finished sessions and cohort cursor,
//! * the platform's cross-cohort state: the task-availability vector and
//!   the keyword index (posting-list order included — it encodes
//!   swap-remove history and affects future retrievals),
//! * the arm RNG's xoshiro256** stream position.
//!
//! Checkpoints are taken at **cohort boundaries**, the experiment's natural
//! quiescent points: the discrete-event heap is drained, every in-flight
//! estimator has been folded into its [`SessionRecord`], and the only state
//! the next cohort inherits from the platform is `available` + the index.
//! This keeps the format small and makes the resume-identity argument
//! local: replaying from a boundary re-enters the exact loop iteration the
//! original run would have executed next, with the same inputs.
//!
//! The bytes live in an [`hta_snapshot`] container (magic, version,
//! checksummed sections, atomic writes); this module defines the section
//! payloads via [`StateSerialize`] and validates cross-section invariants
//! on load.

use std::fmt;
use std::io;
use std::path::Path;

use hta_core::state::{decode, encode, StateDecodeError, StateReader, StateSerialize};
use hta_index::InvertedIndex;
use hta_snapshot::{Snapshot, SnapshotBuilder, SnapshotError};

use crate::behavior::BehaviorConfig;
use crate::experiment::OnlineConfig;
use crate::platform::{CompletionRecord, EndReason, LifeState, PlatformConfig, SessionRecord};
use crate::population::PopulationConfig;
use crate::strategies::Strategy;

/// `kind` string of experiment-run snapshots.
pub const SNAPSHOT_KIND: &str = "hta-crowd-run";

/// File extension used for checkpoint files.
pub const SNAPSHOT_EXT: &str = "htasnap";

const SECTION_CONFIG: &str = "config";
const SECTION_PROGRESS: &str = "progress";
const SECTION_PLATFORM: &str = "platform";
const SECTION_INDEX: &str = "index";
const SECTION_LIFE: &str = "life";
const SECTION_WARM: &str = "warm";
const SECTION_RNG: &str = "rng";

/// Serialized essence of the platform's warm-start state: the edge-cache
/// fingerprint it was bound to plus the open list of the last solve. The
/// incremental matching itself is *not* stored — it is a pure function of
/// the open set over the (deterministically rebuilt) edge cache, so
/// [`crate::platform::Platform::restore_warm`] reconstructs it exactly and
/// a resumed run keeps the warm-repair property without risking divergence
/// from a continuous run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmEssence {
    /// [`hta_core::DiversityEdgeCache::fingerprint`] of the bound cache.
    pub fingerprint: u64,
    /// The strictly-increasing open list installed by the last warm solve.
    pub open: Vec<u32>,
}

impl StateSerialize for WarmEssence {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.fingerprint.write_state(out);
        self.open.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let essence = Self {
            fingerprint: u64::read_state(r)?,
            open: Vec::read_state(r)?,
        };
        if !essence.open.windows(2).all(|w| w[0] < w[1]) {
            return Err(StateDecodeError::Invalid(
                "warm-start open list is not strictly increasing".into(),
            ));
        }
        Ok(essence)
    }
}

/// One finished strategy arm as stored in a snapshot: its session records
/// plus the arm RNG's final stream position (so resumed results report the
/// same [`crate::experiment::StrategyResults::rng_state`] as an
/// uninterrupted run).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedArm {
    /// The arm's session records, in completion order.
    pub records: Vec<SessionRecord>,
    /// The arm RNG's state after its last cohort.
    pub rng_state: [u64; 4],
}

/// Resumable position within a run. See the [module docs](self) for what is
/// stored versus regenerated.
#[derive(Debug, Clone)]
pub struct RunProgress {
    /// Index of the arm in progress (into [`Strategy::ALL`]).
    pub arm: usize,
    /// Arms `0..arm`, already finished.
    pub completed_arms: Vec<CompletedArm>,
    /// Finished sessions of the in-progress arm.
    pub current_records: Vec<SessionRecord>,
    /// Population cursor: index of the next worker to enter a cohort.
    pub next_worker: usize,
    /// The platform's task-availability vector (catalog order).
    pub available: Vec<bool>,
    /// The platform's keyword index, posting-list order preserved.
    pub index: InvertedIndex,
    /// The platform's lifecycle + reputation state (`Some` iff the config
    /// enables [`PlatformConfig::lifecycle`]).
    pub life: Option<LifeState>,
    /// The platform's warm-start essence (`Some` only when the config
    /// enables [`PlatformConfig::warm_start`] and the platform held warm
    /// state at the boundary).
    pub warm: Option<WarmEssence>,
    /// The in-progress arm's RNG stream position.
    pub rng_state: [u64; 4],
}

/// A loaded run snapshot: the configuration it was taken under plus the
/// position to resume from.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// The experiment configuration of the interrupted run.
    pub config: OnlineConfig,
    /// Where to pick the run back up.
    pub progress: RunProgress,
}

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum RunSnapshotError {
    /// The container layer rejected the file (bad magic, version,
    /// checksum, truncation, missing section…).
    Container(SnapshotError),
    /// The file is a valid container but not an experiment-run snapshot.
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

impl fmt::Display for RunSnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Container(e) => write!(f, "{e}"),
            Self::WrongKind { found } => write!(
                f,
                "not an experiment-run snapshot: kind is {found:?}, expected {SNAPSHOT_KIND:?}"
            ),
            Self::Decode { section, source } => {
                write!(f, "section {section:?} failed to decode: {source}")
            }
            Self::Invalid(msg) => write!(f, "inconsistent snapshot: {msg}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RunSnapshotError {}

impl From<SnapshotError> for RunSnapshotError {
    fn from(e: SnapshotError) -> Self {
        Self::Container(e)
    }
}

impl From<io::Error> for RunSnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

// --- StateSerialize impls for the experiment's types ----------------------

impl StateSerialize for Strategy {
    fn write_state(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Strategy::HtaGre => 0,
            Strategy::HtaGreRel => 1,
            Strategy::HtaGreDiv => 2,
            Strategy::Random => 3,
        };
        tag.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        match u8::read_state(r)? {
            0 => Ok(Strategy::HtaGre),
            1 => Ok(Strategy::HtaGreRel),
            2 => Ok(Strategy::HtaGreDiv),
            3 => Ok(Strategy::Random),
            t => Err(StateDecodeError::Invalid(format!(
                "unknown strategy tag {t}"
            ))),
        }
    }
}

impl StateSerialize for EndReason {
    fn write_state(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            EndReason::TimeLimit => 0,
            EndReason::Quit => 1,
            EndReason::PoolExhausted => 2,
        };
        tag.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        match u8::read_state(r)? {
            0 => Ok(EndReason::TimeLimit),
            1 => Ok(EndReason::Quit),
            2 => Ok(EndReason::PoolExhausted),
            t => Err(StateDecodeError::Invalid(format!(
                "unknown end-reason tag {t}"
            ))),
        }
    }
}

impl StateSerialize for CompletionRecord {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.minute.write_state(out);
        self.questions.write_state(out);
        self.correct.write_state(out);
        self.kind.write_state(out);
        self.task_index.write_state(out);
        self.boredom.write_state(out);
        self.pref_match.write_state(out);
        self.display_diversity.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let rec = Self {
            minute: f64::read_state(r)?,
            questions: u32::read_state(r)?,
            correct: u32::read_state(r)?,
            kind: usize::read_state(r)?,
            task_index: usize::read_state(r)?,
            boredom: f64::read_state(r)?,
            pref_match: f64::read_state(r)?,
            display_diversity: f64::read_state(r)?,
        };
        if rec.correct > rec.questions {
            return Err(StateDecodeError::Invalid(format!(
                "completion has correct {} > questions {}",
                rec.correct, rec.questions
            )));
        }
        Ok(rec)
    }
}

impl StateSerialize for SessionRecord {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.strategy.write_state(out);
        self.worker_index.write_state(out);
        self.duration_minutes.write_state(out);
        self.completions.write_state(out);
        self.iterations.write_state(out);
        self.end_reason.write_state(out);
        self.earnings_cents.write_state(out);
        self.arrival_minute.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        Ok(Self {
            strategy: Strategy::read_state(r)?,
            worker_index: usize::read_state(r)?,
            duration_minutes: f64::read_state(r)?,
            completions: Vec::read_state(r)?,
            iterations: usize::read_state(r)?,
            end_reason: EndReason::read_state(r)?,
            earnings_cents: u32::read_state(r)?,
            arrival_minute: f64::read_state(r)?,
        })
    }
}

impl StateSerialize for BehaviorConfig {
    fn write_state(&self, out: &mut Vec<u8>) {
        for v in [
            self.skill_gain,
            self.freshness_gain,
            self.boredom_penalty,
            self.boredom_onset,
            self.min_accuracy,
            self.max_accuracy,
            self.boredom_up_rate,
            self.boredom_down_rate,
            self.base_task_minutes,
            self.switch_cost,
            self.choice_overhead_minutes,
            self.familiarity_speedup,
            self.boredom_slowdown,
            self.time_noise,
            self.base_quit_hazard,
            self.boredom_quit_weight,
            self.overload_quit_weight,
            self.overload_threshold,
            self.disengagement_quit_weight,
            self.engagement_full_match,
        ] {
            v.write_state(out);
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        Ok(Self {
            skill_gain: f64::read_state(r)?,
            freshness_gain: f64::read_state(r)?,
            boredom_penalty: f64::read_state(r)?,
            boredom_onset: f64::read_state(r)?,
            min_accuracy: f64::read_state(r)?,
            max_accuracy: f64::read_state(r)?,
            boredom_up_rate: f64::read_state(r)?,
            boredom_down_rate: f64::read_state(r)?,
            base_task_minutes: f64::read_state(r)?,
            switch_cost: f64::read_state(r)?,
            choice_overhead_minutes: f64::read_state(r)?,
            familiarity_speedup: f64::read_state(r)?,
            boredom_slowdown: f64::read_state(r)?,
            time_noise: f64::read_state(r)?,
            base_quit_hazard: f64::read_state(r)?,
            boredom_quit_weight: f64::read_state(r)?,
            overload_quit_weight: f64::read_state(r)?,
            overload_threshold: f64::read_state(r)?,
            disengagement_quit_weight: f64::read_state(r)?,
            engagement_full_match: f64::read_state(r)?,
        })
    }
}

impl StateSerialize for PlatformConfig {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.xmax.write_state(out);
        self.display_extra_random.write_state(out);
        self.session_minutes.write_state(out);
        self.refill_below.write_state(out);
        self.max_instance_tasks.write_state(out);
        self.candidates.write_state(out);
        self.choice_noise.write_state(out);
        self.diversity_memory.write_state(out);
        self.solver_threads.write_state(out);
        self.reuse_edges.write_state(out);
        self.adaptive_sharpening.write_state(out);
        self.behavior.write_state(out);
        self.lifecycle.write_state(out);
        self.deadline_minutes.write_state(out);
        self.priority_mix.write_state(out);
        self.max_retries.write_state(out);
        self.pass_threshold.write_state(out);
        self.reputation.write_state(out);
        self.edge_cache_cap.write_state(out);
        self.warm_start.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let cfg = Self {
            xmax: usize::read_state(r)?,
            display_extra_random: usize::read_state(r)?,
            session_minutes: f64::read_state(r)?,
            refill_below: usize::read_state(r)?,
            max_instance_tasks: usize::read_state(r)?,
            candidates: hta_index::CandidateMode::read_state(r)?,
            choice_noise: f64::read_state(r)?,
            diversity_memory: usize::read_state(r)?,
            solver_threads: usize::read_state(r)?,
            reuse_edges: bool::read_state(r)?,
            adaptive_sharpening: f64::read_state(r)?,
            behavior: BehaviorConfig::read_state(r)?,
            lifecycle: bool::read_state(r)?,
            deadline_minutes: f64::read_state(r)?,
            priority_mix: hta_life::PriorityMix::read_state(r)?,
            max_retries: u32::read_state(r)?,
            pass_threshold: f64::read_state(r)?,
            reputation: bool::read_state(r)?,
            // Not part of this struct's fixed layout: `price_weight` rides
            // at the tail of the owning section (see `OnlineConfig`) so
            // snapshots written before it existed — and runs with the knob
            // at its neutral 0.0 — decode and byte-compare unchanged.
            price_weight: 0.0,
            edge_cache_cap: usize::read_state(r)?,
            warm_start: bool::read_state(r)?,
        };
        if cfg.xmax == 0 {
            return Err(StateDecodeError::Invalid("xmax must be >= 1".into()));
        }
        if !cfg.session_minutes.is_finite() || cfg.session_minutes <= 0.0 {
            return Err(StateDecodeError::Invalid(format!(
                "session_minutes {} is not a positive finite duration",
                cfg.session_minutes
            )));
        }
        if !cfg.deadline_minutes.is_finite() || cfg.deadline_minutes < 0.0 {
            return Err(StateDecodeError::Invalid(format!(
                "deadline_minutes {} is not a non-negative finite duration",
                cfg.deadline_minutes
            )));
        }
        if !cfg.pass_threshold.is_finite() || cfg.pass_threshold < 0.0 {
            return Err(StateDecodeError::Invalid(format!(
                "pass_threshold {} is not a non-negative finite fraction",
                cfg.pass_threshold
            )));
        }
        Ok(cfg)
    }
}

impl StateSerialize for PopulationConfig {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.n_workers.write_state(out);
        self.keywords_per_worker.0.write_state(out);
        self.keywords_per_worker.1.write_state(out);
        self.seed.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let cfg = Self {
            n_workers: usize::read_state(r)?,
            keywords_per_worker: (usize::read_state(r)?, usize::read_state(r)?),
            seed: u64::read_state(r)?,
        };
        let (lo, hi) = cfg.keywords_per_worker;
        if lo < 1 || lo > hi {
            return Err(StateDecodeError::Invalid(format!(
                "keywords_per_worker range ({lo}, {hi}) is inverted or empty"
            )));
        }
        Ok(cfg)
    }
}

impl StateSerialize for OnlineConfig {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.sessions_per_strategy.write_state(out);
        self.cohort_size.write_state(out);
        self.catalog.write_state(out);
        self.population.write_state(out);
        self.platform.write_state(out);
        self.retention_probe_minutes.write_state(out);
        self.arrival_spread_minutes.write_state(out);
        self.seed.write_state(out);
        // Trailing optional field: written only when the price term is
        // armed, so the section bytes with the knob off are exactly the
        // pre-price format (and old snapshots decode as price_weight 0).
        if self.platform.price_weight != 0.0 {
            self.platform.price_weight.write_state(out);
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let mut cfg = Self {
            sessions_per_strategy: usize::read_state(r)?,
            cohort_size: usize::read_state(r)?,
            catalog: hta_datagen::crowdflower::CrowdflowerConfig::read_state(r)?,
            population: PopulationConfig::read_state(r)?,
            platform: PlatformConfig::read_state(r)?,
            retention_probe_minutes: f64::read_state(r)?,
            arrival_spread_minutes: f64::read_state(r)?,
            seed: u64::read_state(r)?,
        };
        if cfg.sessions_per_strategy == 0 || cfg.cohort_size == 0 {
            return Err(StateDecodeError::Invalid(
                "sessions_per_strategy and cohort_size must be >= 1".into(),
            ));
        }
        // Optional trailing field (absent in pre-price snapshots and when
        // the knob sits at its neutral 0.0).
        if r.remaining() > 0 {
            let price_weight = f64::read_state(r)?;
            if !price_weight.is_finite() {
                return Err(StateDecodeError::Invalid(format!(
                    "price_weight {price_weight} is not finite"
                )));
            }
            cfg.platform.price_weight = price_weight;
        }
        Ok(cfg)
    }
}

impl StateSerialize for LifeState {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.book.write_state(out);
        self.reputations.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        Ok(Self {
            book: hta_life::LifecycleBook::read_state(r)?,
            reputations: Vec::read_state(r)?,
        })
    }
}

impl StateSerialize for CompletedArm {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.records.write_state(out);
        for w in self.rng_state {
            w.write_state(out);
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let records = Vec::read_state(r)?;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = u64::read_state(r)?;
        }
        Ok(Self { records, rng_state })
    }
}

/// The "progress" section: everything except the config, the platform
/// availability vector, the index, and the RNG (those get their own
/// sections so corruption reports name the damaged region).
struct ProgressSection {
    arm: usize,
    completed_arms: Vec<CompletedArm>,
    current_records: Vec<SessionRecord>,
    next_worker: usize,
}

impl StateSerialize for ProgressSection {
    fn write_state(&self, out: &mut Vec<u8>) {
        self.arm.write_state(out);
        self.completed_arms.write_state(out);
        self.current_records.write_state(out);
        self.next_worker.write_state(out);
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let s = Self {
            arm: usize::read_state(r)?,
            completed_arms: Vec::read_state(r)?,
            current_records: Vec::read_state(r)?,
            next_worker: usize::read_state(r)?,
        };
        if s.arm >= Strategy::ALL.len() {
            return Err(StateDecodeError::Invalid(format!(
                "arm index {} out of range (have {} strategies)",
                s.arm,
                Strategy::ALL.len()
            )));
        }
        if s.completed_arms.len() != s.arm {
            return Err(StateDecodeError::Invalid(format!(
                "arm index {} disagrees with {} completed arms",
                s.arm,
                s.completed_arms.len()
            )));
        }
        Ok(s)
    }
}

struct RngSection([u64; 4]);

impl StateSerialize for RngSection {
    fn write_state(&self, out: &mut Vec<u8>) {
        for w in self.0 {
            w.write_state(out);
        }
    }

    fn read_state(r: &mut StateReader<'_>) -> Result<Self, StateDecodeError> {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = u64::read_state(r)?;
        }
        if s == [0; 4] {
            return Err(StateDecodeError::Invalid(
                "all-zero rng state is not a valid xoshiro256** position".into(),
            ));
        }
        Ok(Self(s))
    }
}

/// Serialize a run snapshot into container bytes (exposed for tests; use
/// [`save_run`] to write a file).
pub fn run_snapshot_bytes(config: &OnlineConfig, progress: &RunProgress) -> Vec<u8> {
    let progress_section = ProgressSection {
        arm: progress.arm,
        completed_arms: progress.completed_arms.clone(),
        current_records: progress.current_records.clone(),
        next_worker: progress.next_worker,
    };
    SnapshotBuilder::new(SNAPSHOT_KIND)
        .section(SECTION_CONFIG, encode(config))
        .section(SECTION_PROGRESS, encode(&progress_section))
        .section(SECTION_PLATFORM, encode(&progress.available))
        .section(SECTION_INDEX, encode(&progress.index))
        .section(SECTION_LIFE, encode(&progress.life))
        .section(SECTION_WARM, encode(&progress.warm))
        .section(SECTION_RNG, encode(&RngSection(progress.rng_state)))
        .to_bytes()
}

/// Atomically write a run snapshot to `path` (temp file + rename; see
/// [`SnapshotBuilder::write_atomic`]).
pub fn save_run(
    path: &Path,
    config: &OnlineConfig,
    progress: &RunProgress,
) -> Result<(), RunSnapshotError> {
    let progress_section = ProgressSection {
        arm: progress.arm,
        completed_arms: progress.completed_arms.clone(),
        current_records: progress.current_records.clone(),
        next_worker: progress.next_worker,
    };
    SnapshotBuilder::new(SNAPSHOT_KIND)
        .section(SECTION_CONFIG, encode(config))
        .section(SECTION_PROGRESS, encode(&progress_section))
        .section(SECTION_PLATFORM, encode(&progress.available))
        .section(SECTION_INDEX, encode(&progress.index))
        .section(SECTION_LIFE, encode(&progress.life))
        .section(SECTION_WARM, encode(&progress.warm))
        .section(SECTION_RNG, encode(&RngSection(progress.rng_state)))
        .write_atomic(path)?;
    Ok(())
}

fn decode_section<T: StateSerialize>(
    snap: &Snapshot,
    section: &'static str,
) -> Result<T, RunSnapshotError> {
    let bytes = snap.section(section)?;
    decode(bytes).map_err(|source| RunSnapshotError::Decode { section, source })
}

/// Parse and validate run-snapshot container bytes.
pub fn run_snapshot_from_bytes(bytes: &[u8]) -> Result<RunSnapshot, RunSnapshotError> {
    let snap = Snapshot::from_bytes(bytes)?;
    run_snapshot_from_container(&snap)
}

/// Load and validate a run snapshot from `path`.
pub fn load_run(path: &Path) -> Result<RunSnapshot, RunSnapshotError> {
    let snap = Snapshot::load(path)?;
    run_snapshot_from_container(&snap)
}

fn run_snapshot_from_container(snap: &Snapshot) -> Result<RunSnapshot, RunSnapshotError> {
    if snap.kind() != SNAPSHOT_KIND {
        return Err(RunSnapshotError::WrongKind {
            found: snap.kind().to_string(),
        });
    }
    let config: OnlineConfig = decode_section(snap, SECTION_CONFIG)?;
    let progress: ProgressSection = decode_section(snap, SECTION_PROGRESS)?;
    let available: Vec<bool> = decode_section(snap, SECTION_PLATFORM)?;
    let index: InvertedIndex = decode_section(snap, SECTION_INDEX)?;
    let life: Option<LifeState> = decode_section(snap, SECTION_LIFE)?;
    let warm: Option<WarmEssence> = decode_section(snap, SECTION_WARM)?;
    let rng: RngSection = decode_section(snap, SECTION_RNG)?;

    // Cross-section invariants. Every failure leaves no partially-restored
    // state behind — the caller only ever sees a fully-validated snapshot
    // or an error.
    if available.len() != config.catalog.n_tasks {
        return Err(RunSnapshotError::Invalid(format!(
            "availability vector covers {} tasks but the config's catalog has {}",
            available.len(),
            config.catalog.n_tasks
        )));
    }
    let open = available.iter().filter(|&&a| a).count();
    if index.len() != open {
        return Err(RunSnapshotError::Invalid(format!(
            "index holds {} open tasks but the availability vector has {}",
            index.len(),
            open
        )));
    }
    for t in index.open_tasks() {
        if (t as usize) >= available.len() || !available[t as usize] {
            return Err(RunSnapshotError::Invalid(format!(
                "index lists task {t} as open but the availability vector does not"
            )));
        }
    }
    for (i, arm) in progress.completed_arms.iter().enumerate() {
        if arm.records.len() != config.sessions_per_strategy {
            return Err(RunSnapshotError::Invalid(format!(
                "completed arm {i} has {} records, config expects {}",
                arm.records.len(),
                config.sessions_per_strategy
            )));
        }
    }
    if progress.current_records.len() > config.sessions_per_strategy {
        return Err(RunSnapshotError::Invalid(format!(
            "in-progress arm has {} records, more than the configured {}",
            progress.current_records.len(),
            config.sessions_per_strategy
        )));
    }
    if life.is_some() != config.platform.lifecycle {
        return Err(RunSnapshotError::Invalid(format!(
            "lifecycle state is {} but the config has lifecycle {}",
            if life.is_some() { "present" } else { "absent" },
            if config.platform.lifecycle {
                "on"
            } else {
                "off"
            },
        )));
    }
    if let Some(w) = &warm {
        if !config.platform.warm_start {
            return Err(RunSnapshotError::Invalid(
                "snapshot carries warm-start state but the config disables it".into(),
            ));
        }
        if w.open
            .last()
            .is_some_and(|&g| g as usize >= available.len())
        {
            return Err(RunSnapshotError::Invalid(format!(
                "warm-start open list references task {} outside the {}-task catalog",
                w.open.last().unwrap(),
                available.len()
            )));
        }
    }
    if let Some(l) = &life {
        if l.book.len() != available.len() {
            return Err(RunSnapshotError::Invalid(format!(
                "lifecycle book covers {} tasks, availability vector has {}",
                l.book.len(),
                available.len()
            )));
        }
        // Snapshots are taken at cohort boundaries, where the open pool
        // and the Pending set coincide exactly.
        for (i, &open) in available.iter().enumerate() {
            let pending = l.book.get(i).state() == hta_life::TaskState::Pending;
            if open != pending {
                return Err(RunSnapshotError::Invalid(format!(
                    "task {i} is {} but its lifecycle state is {}",
                    if open { "open" } else { "closed" },
                    l.book.get(i).state()
                )));
            }
        }
    }

    Ok(RunSnapshot {
        config,
        progress: RunProgress {
            arm: progress.arm,
            completed_arms: progress.completed_arms,
            current_records: progress.current_records,
            next_worker: progress.next_worker,
            available,
            index,
            life,
            warm,
            rng_state: rng.0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hta_core::KeywordVec;

    fn sample_progress() -> (OnlineConfig, RunProgress) {
        let config = OnlineConfig {
            sessions_per_strategy: 2,
            cohort_size: 1,
            catalog: hta_datagen::crowdflower::CrowdflowerConfig {
                n_tasks: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let nbits = 12;
        let vecs: Vec<KeywordVec> = (0..8)
            .map(|i| KeywordVec::from_indices(nbits, &[i % nbits, (i * 5 + 1) % nbits]))
            .collect();
        let mut index = InvertedIndex::new(nbits);
        let mut available = vec![true; 8];
        for (i, v) in vecs.iter().enumerate() {
            index.insert(i as u32, v);
        }
        index.remove(3);
        available[3] = false;
        let record = SessionRecord {
            strategy: Strategy::HtaGreRel,
            worker_index: 1,
            duration_minutes: 17.25,
            completions: vec![CompletionRecord {
                minute: 2.5,
                questions: 3,
                correct: 2,
                kind: 4,
                task_index: 3,
                boredom: 0.25,
                pref_match: 0.75,
                display_diversity: 0.5,
            }],
            iterations: 2,
            end_reason: EndReason::Quit,
            earnings_cents: 23,
            arrival_minute: 0.0,
        };
        let progress = RunProgress {
            arm: 1,
            completed_arms: vec![CompletedArm {
                records: vec![record.clone(), record.clone()],
                rng_state: [5, 6, 7, 8],
            }],
            current_records: vec![record],
            next_worker: 3,
            available,
            index,
            life: None,
            warm: None,
            rng_state: [1, 2, 3, 4],
        };
        (config, progress)
    }

    fn assert_records_eq(a: &[SessionRecord], b: &[SessionRecord]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(x.worker_index, y.worker_index);
            assert_eq!(x.duration_minutes.to_bits(), y.duration_minutes.to_bits());
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.end_reason, y.end_reason);
            assert_eq!(x.earnings_cents, y.earnings_cents);
            assert_eq!(x.completions.len(), y.completions.len());
            for (ca, cb) in x.completions.iter().zip(&y.completions) {
                assert_eq!(ca.minute.to_bits(), cb.minute.to_bits());
                assert_eq!(ca.task_index, cb.task_index);
                assert_eq!(ca.questions, cb.questions);
                assert_eq!(ca.correct, cb.correct);
            }
        }
    }

    #[test]
    fn run_snapshot_round_trips() {
        let (config, progress) = sample_progress();
        let bytes = run_snapshot_bytes(&config, &progress);
        let back = run_snapshot_from_bytes(&bytes).expect("round trip");
        assert_eq!(back.config.seed, config.seed);
        assert_eq!(back.config.catalog.n_tasks, config.catalog.n_tasks);
        assert_eq!(back.progress.arm, progress.arm);
        assert_eq!(back.progress.next_worker, progress.next_worker);
        assert_eq!(back.progress.available, progress.available);
        assert_eq!(back.progress.rng_state, progress.rng_state);
        assert_eq!(back.progress.completed_arms.len(), 1);
        assert_eq!(back.progress.completed_arms[0].rng_state, [5, 6, 7, 8]);
        assert_records_eq(&back.progress.current_records, &progress.current_records);
        assert_eq!(back.progress.index.len(), progress.index.len());
        let open: Vec<u32> = back.progress.index.open_tasks().collect();
        let expect: Vec<u32> = progress.index.open_tasks().collect();
        assert_eq!(open, expect);
    }

    #[test]
    fn price_weight_rides_the_config_tail_only_when_armed() {
        let (config, _) = sample_progress();
        let neutral = encode(&config);
        let mut priced_cfg = config.clone();
        priced_cfg.platform.price_weight = 0.35;
        let priced = encode(&priced_cfg);
        assert_eq!(priced.len(), neutral.len() + 8, "one trailing f64");
        assert!(priced.starts_with(&neutral), "shared prefix unchanged");
        let back: OnlineConfig = decode(&priced).expect("decode priced");
        assert_eq!(back.platform.price_weight.to_bits(), 0.35f64.to_bits());
        // Neutral bytes are the pre-price format and decode with the knob
        // off — and re-encode to the same bytes (resume identity).
        let back: OnlineConfig = decode(&neutral).expect("decode neutral");
        assert_eq!(back.platform.price_weight, 0.0);
        assert_eq!(encode(&back), neutral);
        // A non-finite tail is rejected, not smuggled into the config.
        let mut bad = neutral.clone();
        f64::NAN.write_state(&mut bad);
        assert!(decode::<OnlineConfig>(&bad).is_err());
    }

    #[test]
    fn lifecycle_state_round_trips_and_is_cross_checked() {
        use hta_life::{LifecycleBook, PriorityMix, Reputation};
        let (mut config, mut progress) = sample_progress();
        config.platform.lifecycle = true;
        config.platform.reputation = true;
        let mut book = LifecycleBook::new(8, &PriorityMix::default(), 2);
        // Close task 3 in the book too: drive it to a terminal state so the
        // open ⟺ Pending invariant holds.
        book.assign(3, 0.0, None).unwrap();
        book.start(3).unwrap();
        book.submit(3).unwrap();
        book.verify(3, true).unwrap();
        let mut rep = Reputation::new();
        rep.observe(true);
        progress.life = Some(LifeState {
            book,
            reputations: vec![rep],
        });

        let bytes = run_snapshot_bytes(&config, &progress);
        let back = run_snapshot_from_bytes(&bytes).expect("round trip");
        assert_eq!(back.progress.life, progress.life);
        // Re-encoding lands on the same bytes (resume identity).
        assert_eq!(run_snapshot_bytes(&back.config, &back.progress), bytes);

        // Lifecycle state without the config flag is rejected…
        config.platform.lifecycle = false;
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
        config.platform.lifecycle = true;

        // …as is a book that disagrees with the availability vector (task 0
        // is open but the book holds it in-flight).
        progress
            .life
            .as_mut()
            .unwrap()
            .book
            .assign(0, 0.0, None)
            .unwrap();
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
    }

    #[test]
    fn warm_state_round_trips_and_is_cross_checked() {
        let (mut config, mut progress) = sample_progress();
        config.platform.warm_start = true;
        progress.warm = Some(WarmEssence {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            open: vec![0, 2, 4, 6],
        });
        let bytes = run_snapshot_bytes(&config, &progress);
        let back = run_snapshot_from_bytes(&bytes).expect("round trip");
        assert_eq!(back.progress.warm, progress.warm);
        assert!(back.config.platform.warm_start);
        // Re-encoding lands on the same bytes (resume identity).
        assert_eq!(run_snapshot_bytes(&back.config, &back.progress), bytes);

        // Warm state without the config flag is rejected…
        config.platform.warm_start = false;
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
        config.platform.warm_start = true;

        // …as are out-of-range and unsorted open lists.
        progress.warm.as_mut().unwrap().open = vec![0, 2, 999];
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
        progress.warm.as_mut().unwrap().open = vec![4, 2, 0];
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Decode { .. }), "{err}");
    }

    #[test]
    fn save_and_load_via_file() {
        let (config, progress) = sample_progress();
        let dir = std::env::temp_dir().join(format!("hta-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.htasnap");
        save_run(&path, &config, &progress).expect("save");
        let back = load_run(&path).expect("load");
        assert_eq!(back.progress.arm, progress.arm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_sections_are_rejected() {
        let (config, mut progress) = sample_progress();

        // Availability vector longer than the catalog.
        progress.available.push(true);
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
        progress.available.pop();

        // Index/availability open-count mismatch.
        progress.available[5] = false;
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
        progress.available[5] = true;

        // Completed arm with the wrong record count.
        progress.completed_arms[0].records.pop();
        let err = run_snapshot_from_bytes(&run_snapshot_bytes(&config, &progress)).unwrap_err();
        assert!(matches!(err, RunSnapshotError::Invalid(_)), "{err}");
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = hta_snapshot::SnapshotBuilder::new("something-else")
            .section("config", vec![1, 2, 3])
            .to_bytes();
        let err = run_snapshot_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, RunSnapshotError::WrongKind { .. }), "{err}");
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let (config, progress) = sample_progress();
        let bytes = run_snapshot_bytes(&config, &progress);
        // Truncations at every prefix fail.
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(run_snapshot_from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Any single bit flip fails (payload CRCs + header CRC cover every
        // byte of the container).
        for pos in (0..bytes.len()).step_by(97) {
            let mut t = bytes.clone();
            t[pos] ^= 0x10;
            assert!(run_snapshot_from_bytes(&t).is_err(), "flip at {pos}");
        }
    }
}
