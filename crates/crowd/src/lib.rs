//! # hta-crowd — crowdsourcing platform simulator
//!
//! This crate substitutes the paper's live deployment (Section V-C): a
//! home-grown crowdsourcing platform hiring AMT workers, shown in the
//! paper's Figure 4. The substitution (documented in DESIGN.md §4) replaces
//! live workers with a stochastic behaviour model whose three mechanisms —
//! boredom under repetitive tasks, choice overhead under very diverse
//! displays, and motivation-dependent retention — are exactly the
//! explanations the paper gives for its observed results.
//!
//! * [`population`] — live-worker profiles (≥ 6 chosen keywords, latent
//!   per-kind skills, latent diversity preference).
//! * [`behavior`] — the calibrated behaviour model.
//! * [`platform`] — the assignment service + discrete-event session loop.
//! * [`strategies`] — the four arms: adaptive HTA-GRE, HTA-GRE-REL,
//!   HTA-GRE-DIV, and random.
//! * [`metrics`] — Figure 5's KPIs: quality, throughput, retention.
//! * [`experiment`] — the full 20-sessions-per-arm experiment.
//! * [`snapshot`] — versioned, checksummed checkpoint/resume of a run.
//! * [`stats`] — the two-proportion Z-test and Mann–Whitney U test used to
//!   report significance.

#![warn(missing_docs)]

pub mod behavior;
pub mod experiment;
pub mod metrics;
mod open_rank;
pub mod platform;
pub mod population;
pub mod report;
pub mod snapshot;
pub mod stats;
pub mod strategies;

pub use behavior::BehaviorConfig;
pub use experiment::{
    list_checkpoints, run, run_with, CheckpointPolicy, OnlineConfig, OnlineResults, RunControl,
    RunError, RunOutcome, StrategyResults,
};
pub use metrics::{StrategySummary, TimeSeries};
pub use platform::{
    CompletionRecord, EndReason, LifeState, Platform, PlatformConfig, SessionRecord,
};
pub use population::{LiveWorker, PopulationConfig};
pub use report::markdown as report_markdown;
pub use snapshot::{
    load_run, save_run, CompletedArm, RunProgress, RunSnapshot, RunSnapshotError, WarmEssence,
};
pub use strategies::Strategy;
