//! Matching and linear-assignment solvers.
//!
//! This crate is the combinatorial substrate underneath the HTA
//! approximation algorithms of Pilourdault et al. (ICDE 2018):
//!
//! * [`greedy::greedy_matching`] — the classic ½-approximate greedy algorithm
//!   for maximum-weight matching on a general graph. HTA-APP and HTA-GRE both
//!   use it to compute the diversity matching `M_B` (Algorithm 1, line 2).
//! * [`lsap`] — solvers for the **Linear Sum Assignment Problem**
//!   (maximize `Σ_k f_{k, σ(k)}` over permutations `σ`):
//!   * [`lsap::jv::solve`] — exact Jonker–Volgenant, `O(n³)` worst case with
//!     the strong early-termination behaviour on degenerate cost matrices
//!     that the paper analyses (Figures 2c and 3). Used by HTA-APP.
//!   * [`lsap::greedy::solve`] — the ½-approximate greedy matching on the
//!     complete bipartite profit graph, `O(n² log n)`. Used by HTA-GRE.
//!   * [`lsap::auction::solve`] — Bertsekas' auction algorithm with
//!     ε-scaling, an alternative exact solver (extension / ablation).
//!   * [`lsap::structured::solve`] — an exact solver that exploits the
//!     *column-class* structure of the HTA profit matrix (all columns that
//!     belong to the same worker are identical), reducing the problem to a
//!     small transportation instance (extension / ablation).
//!
//! All solvers speak through the [`CostMatrix`] abstraction so that profit
//! matrices can be stored densely ([`DenseMatrix`]) or in the compact
//! column-class form ([`ClassedCosts`]).
//!
//! # Quick example
//!
//! ```
//! use hta_matching::{DenseMatrix, lsap};
//!
//! // Profit matrix: worker k assigned to slot l earns m[(k, l)].
//! let m = DenseMatrix::from_rows(&[
//!     [3.0, 1.0, 0.0],
//!     [0.0, 2.0, 1.0],
//!     [1.0, 0.0, 4.0],
//! ]);
//! let exact = lsap::jv::solve(&m);
//! assert_eq!(exact.assignment, vec![0, 1, 2]);
//! assert!((exact.value - 9.0).abs() < 1e-12);
//!
//! let greedy = lsap::greedy::solve(&m);
//! assert!(greedy.value >= 0.5 * exact.value); // provable guarantee
//! ```

#![warn(missing_docs)]

pub mod costs;
pub mod dynamic;
pub mod greedy;
pub mod incremental;
pub mod lsap;

pub use costs::{ClassedCosts, CostMatrix, DenseMatrix};
pub use dynamic::DynamicMatching;
pub use greedy::{edge_order, greedy_matching, greedy_matching_presorted, Matching, WeightedEdge};
pub use incremental::{IncrementalMatching, UpdateStats};
pub use lsap::LsapSolution;
