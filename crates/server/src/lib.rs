//! # hta-server — the crowdsourcing platform as an HTTP service
//!
//! The paper deployed a home-grown crowdsourcing platform whose assignment
//! service implements the Figure 4 workflow: workers register with their
//! keywords, receive solver-assigned task sets, and report completions that
//! feed the adaptive `(α, β)` estimation. This crate exposes exactly that
//! workflow over HTTP, so the library can be driven by real clients (a web
//! front-end, a load generator, `curl`).
//!
//! Std-only by design: the offline dependency policy (DESIGN.md §5) rules
//! out web frameworks. The serving core is `hta-net`'s epoll reactor —
//! keep-alive HTTP/1.1 connections multiplexed on a few event-loop
//! threads, CPU-heavy solves on a bounded worker pool with `503`
//! backpressure ([`server`]).
//!
//! ```no_run
//! use std::sync::Arc;
//! use hta_datagen::amt::{generate, AmtConfig};
//! use hta_server::{PlatformState, Server};
//!
//! let workload = generate(&AmtConfig::default());
//! let state = Arc::new(PlatformState::new(workload.space, workload.tasks, 15, 42));
//! let server = Server::spawn("127.0.0.1:8080", state).unwrap();
//! println!("serving on {}", server.addr());
//! // … later:
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod http;
pub mod metrics;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod state;

pub use cluster::{AppliedEpoch, ClusterCtx, Role};
pub use metrics::ServingMetrics;
pub use server::{ServeOptions, Server};
pub use snapshot::ServerSnapshotError;
pub use state::{AssignResult, CompleteResult, PlatformState, Stats};
