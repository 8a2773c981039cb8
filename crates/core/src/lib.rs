//! # hta-core — Holistic motivation-aware task assignment
//!
//! A Rust implementation of *"Task Relevance and Diversity as Worker
//! Motivation in Crowdsourcing"* (Pilourdault, Amer-Yahia, Basu Roy, Lee —
//! ICDE 2018).
//!
//! Worker **motivation** for a set of tasks `T'` is modelled as a balance of
//! task *diversity* and task *relevance* (Eq. 3):
//!
//! ```text
//! motiv(T', w) = 2·α_w·TD(T') + β_w·(|T'|−1)·TR(T', w),   α_w + β_w = 1
//! ```
//!
//! The **Holistic Task Assignment** problem (HTA) assigns disjoint sets of
//! at most `X_max` tasks to each worker, maximizing total motivation. HTA is
//! NP-hard and Max-SNP-hard; this crate provides the paper's two
//! approximation algorithms ([`solver::HtaApp`], ¼-approximation, `O(n³)`;
//! [`solver::HtaGre`], ⅛-approximation, `O(n² log n)`), an exact
//! branch-and-bound reference for small instances, baselines, the adaptive
//! weight estimator, and the iteration engine that re-assigns tasks as
//! workers complete them.
//!
//! ## Quickstart
//!
//! ```
//! use hta_core::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A shared keyword universe: intern everything first.
//! let mut space = KeywordSpace::new();
//! for kw in [
//!     "audio", "english", "news", "sports", "image", "tagging",
//!     "street-view", "animals", "sentiment", "tweets", "reviews",
//! ] {
//!     space.intern(kw);
//! }
//!
//! let mut tasks = TaskPool::new();
//! for (group, kws) in [
//!     (0u32, &["audio", "english", "news"][..]),
//!     (0, &["audio", "english", "sports"]),
//!     (1, &["image", "tagging", "street-view"]),
//!     (1, &["image", "tagging", "animals"]),
//!     (2, &["sentiment", "english", "tweets"]),
//!     (2, &["sentiment", "english", "reviews"]),
//! ] {
//!     tasks.push(GroupId(group), space.vector_of_known(kws));
//! }
//!
//! let mut workers = WorkerPool::new();
//! workers.push(space.vector_of_known(&["audio", "english"]), Weights::from_alpha(0.3));
//! workers.push(space.vector_of_known(&["image", "tagging"]), Weights::from_alpha(0.7));
//!
//! // One adaptive iteration with HTA-GRE.
//! let mut engine = IterationEngine::new(tasks, workers, 2).unwrap();
//! let mut rng = StdRng::seed_from_u64(42);
//! let result = engine.run_iteration(&HtaGre::new(), &mut rng).unwrap();
//! assert_eq!(result.assignments.len(), 2);
//! assert!(result.objective > 0.0);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod analysis;
pub mod assignment;
pub mod bitvec;
pub mod edges;
pub mod error;
pub mod instance;
pub mod iteration;
pub mod kernels;
pub mod keywords;
pub mod metric;
pub mod motivation;
pub mod qap;
pub mod session;
pub mod solver;
pub mod sparse;
pub mod state;
pub mod task;
pub mod team;
pub mod worker;

pub use adaptive::WeightEstimator;
pub use assignment::Assignment;
pub use bitvec::KeywordVec;
pub use edges::{keywords_fingerprint, DiversityEdgeCache};
pub use error::HtaError;
pub use hta_matching::WeightedEdge;
pub use instance::Instance;
pub use iteration::{IterationEngine, IterationResult};
pub use kernels::{PackedCatalog, SimdMode};
pub use keywords::{KeywordId, KeywordSpace};
pub use metric::{Distance, Jaccard};
pub use session::{EdgeSource, OpenSetSession, Round, RoundOutcome};
pub use solver::{SolveOutcome, Solver};
pub use sparse::{SparseDelta, SparseEdgeCache, SparseRefreshStats};
pub use state::{StateDecodeError, StateReader, StateSerialize};
pub use task::{GroupId, Task, TaskId, TaskPool};
pub use worker::{Weights, Worker, WorkerId, WorkerPool};

/// Convenient glob import of the commonly used types.
pub mod prelude {
    pub use crate::adaptive::WeightEstimator;
    pub use crate::assignment::Assignment;
    pub use crate::bitvec::KeywordVec;
    pub use crate::error::HtaError;
    pub use crate::instance::Instance;
    pub use crate::iteration::{IterationEngine, IterationResult};
    pub use crate::keywords::{KeywordId, KeywordSpace};
    pub use crate::metric::{Dice, Distance, Hamming, Jaccard, WeightedJaccard};
    pub use crate::motivation::{motivation, task_diversity, task_relevance};
    pub use crate::solver::{
        ExactSolver, GreedyMotivation, GreedyRelevance, HtaApp, HtaGre, LocalSearch, RandomAssign,
        SolveOutcome, Solver,
    };
    pub use crate::task::{GroupId, Task, TaskId, TaskPool};
    pub use crate::worker::{Weights, Worker, WorkerId, WorkerPool};
}
