//! The shared QAP pipeline behind HTA-APP and HTA-GRE (Algorithms 1 and 2).
//!
//! Both algorithms are identical except for how the auxiliary LSAP is
//! solved (Algorithm 1 line 11 vs Algorithm 2 line 11):
//!
//! 1. map the instance to MaxQAP matrices A, B, C (implicitly — only the
//!    clique structure, `b_M`, and `degA` are needed);
//! 2. compute a greedy maximum-weight matching `M_B` on the diversity graph;
//! 3. build the LSAP profits `f_{k,l} = b_M(t_k)·degA_l + c_{k,l}`;
//! 4. solve the LSAP (exactly, greedily, or with an alternative solver);
//! 5. randomly flip the images of each matched pair with probability ½
//!    (lines 12–16 — required by the expectation argument in Theorem 4);
//! 6. read the assignment off the permutation (Eq. 7).
//!
//! Instances with fewer than `|W|·X_max` tasks are padded with *virtual*
//! tasks (zero diversity, zero relevance) so the clique mapping stays
//! well-formed; virtual rows are dropped when building the assignment.
//!
//! # Parallelism and determinism
//!
//! Three stages may run on several threads, each sized by `hta_par`'s grain
//! rule: the thread count (resolved through [`hta_par::solver_threads`];
//! `0` = auto) is an upper bound, and a stage whose work does not pay for a
//! spawn runs inline on the caller's thread. The stages are the
//! diversity-edge placement (two row-chunked passes: count the edges of
//! each distinct weight, then write each edge into its weight's bucket —
//! the linear-time equivalent of enumerating and sorting by `edge_order`),
//! dense profit-matrix materialization (row chunks), and the greedy LSAP
//! (row-chunked entries, then a tie-free parallel sort). Every
//! parallel stage is engineered to produce **byte-identical** output at any
//! thread count — same assignment, same `lsap_value` bits — so the thread
//! knob is purely a performance setting.

use std::time::Instant;

use rand::{Rng, RngExt};

use hta_matching::lsap::{auction, greedy as lsap_greedy, hungarian, jv, structured};
use hta_matching::{
    greedy_matching_presorted, ClassedCosts, CostMatrix, DenseMatrix, Matching, WeightedEdge,
};

use crate::edges::{sorted_positive_edges, ByClosure, DiversityEdgeCache};
use crate::instance::Instance;
use crate::qap::{assignment_from_permutation, worker_of_vertex};
use crate::solver::sparse_warm::SparseWarmState;
use crate::solver::warm::{LsapMemo, WarmState};
use crate::solver::{PhaseTimings, SolveOutcome};
use crate::sparse::SparseEdgeCache;

/// Which LSAP solver to run in step 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsapStrategy {
    /// Exact Jonker–Volgenant (the Hungarian-family solver of HTA-APP).
    ExactJv,
    /// Exact classic Hungarian (Kuhn–Munkres) without JV's reduction
    /// phases — closest to the Carpaneto-era code the paper timed.
    ExactClassicHungarian,
    /// ½-approximate greedy matching (HTA-GRE).
    Greedy,
    /// Bertsekas auction with ε-scaling (ablation). Runs the synchronous
    /// Jacobi variant (bids against a frozen price snapshot per round).
    Auction,
    /// Exact transportation solver over column classes (ablation).
    StructuredExact,
}

/// How the LSAP profit matrix is materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostRepresentation {
    /// Dense `n × n` (`O(n²)` memory) — faithful to the paper's setup.
    Dense,
    /// Column-class form (`O(n·|W|)` memory) — our structured extension.
    Classed,
}

/// Tuning knobs shared by HTA-APP and HTA-GRE.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    pub lsap: LsapStrategy,
    pub representation: CostRepresentation,
    /// Apply the random ½-flip of matched pairs (disable only for the
    /// ablation study; the approximation proof needs it).
    pub random_flip: bool,
    /// Solver threads: `0` = auto (`HTA_SOLVER_THREADS`, then the hardware
    /// default). Results are byte-identical at any value.
    pub threads: usize,
}

pub(crate) fn solve_via_qap(
    inst: &Instance,
    opts: PipelineOptions,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    solve_via_qap_impl(inst, opts, None, rng)
}

/// [`solve_via_qap`] reusing a precomputed, `edge_order`-sorted
/// positive-diversity edge list (local task indices) — skips edge
/// enumeration and the matching sort entirely.
pub(crate) fn solve_via_qap_with_edges(
    inst: &Instance,
    opts: PipelineOptions,
    sorted_edges: &[WeightedEdge],
    rng: &mut dyn Rng,
) -> SolveOutcome {
    solve_via_qap_impl(inst, opts, Some(sorted_edges), rng)
}

fn solve_via_qap_impl(
    inst: &Instance,
    opts: PipelineOptions,
    presorted: Option<&[WeightedEdge]>,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    let t_start = Instant::now();
    let threads = hta_par::solver_threads(opts.threads);
    let n_real = inst.n_tasks();
    let n = padded_len(inst);

    // ---- Step 2: greedy max-weight matching M_B on diversity -------------
    let (mb, edge_enum_time, matching_time) = match presorted {
        Some(edges) => {
            let t_matching = Instant::now();
            let mb = greedy_matching_presorted(n, edges);
            (mb, std::time::Duration::ZERO, t_matching.elapsed())
        }
        None => {
            // Enumeration and the edge_order sort are one linear-time
            // placement, so its time is reported as `edge_enum`.
            let t_enum = Instant::now();
            let weight = |u: usize, v: usize| inst.diversity(u, v);
            let edges = sorted_positive_edges(&ByClosure { n: n_real, weight }, threads);
            let edge_enum_time = t_enum.elapsed();
            let t_matching = Instant::now();
            let mb = greedy_matching_presorted(n, &edges);
            (mb, edge_enum_time, t_matching.elapsed())
        }
    };

    let bm = bm_vector(n, &mb);

    let t_lsap = Instant::now();
    let lsap_solution = compute_lsap(inst, opts, threads, &bm);
    let lsap_time = t_lsap.elapsed();

    finish(
        inst,
        opts,
        mb,
        lsap_solution,
        PhaseTimings {
            edge_enum: edge_enum_time,
            matching: matching_time,
            lsap: lsap_time,
            total: std::time::Duration::ZERO, // patched below
        },
        t_start,
        rng,
    )
}

/// [`solve_via_qap`] carrying the matching forward from the previous solve:
/// the open set is diffed against `warm`'s cached one, only the touched
/// pairs are invalidated, and the matching is repaired locally — `O(churn ×
/// degree)` instead of the full `O(|E|)` scan. The auxiliary LSAP is served
/// from `warm`'s input-keyed memo when the profit matrix is bit-identical
/// to the previous solve.
///
/// Every invariant violation (unsorted or out-of-range open set, a warm
/// state bound to a different catalog, an instance/open length mismatch)
/// falls back to the cold path, mirroring the edge-cache fingerprint guard,
/// so the output is byte-identical to [`solve_via_qap`] unconditionally.
pub(crate) fn solve_via_qap_warm(
    inst: &Instance,
    opts: PipelineOptions,
    cache: &DiversityEdgeCache,
    warm: &mut WarmState,
    open: &[u32],
    rng: &mut dyn Rng,
) -> SolveOutcome {
    let n_real = inst.n_tasks();
    let sorted_in_range = open.windows(2).all(|w| w[0] < w[1])
        && open.last().is_none_or(|&g| (g as usize) < cache.n_tasks());
    if !sorted_in_range {
        // The open list cannot even index the cache; nothing reusable.
        return solve_via_qap(inst, opts, rng);
    }
    if !(warm.matches_cache(cache) && open.len() == n_real) {
        // The edge cache is usable but the warm state is not (stale catalog
        // binding); leave it untouched and take the filter path.
        return solve_via_qap_with_edges(inst, opts, &cache.filter_sorted(open), rng);
    }

    // ---- Step 2, incremental: diff + local repair + extraction -----------
    let t_start = Instant::now();
    let n = padded_len(inst);
    warm.update_open(cache, open);
    let mb = warm.extract_matching(cache, n);
    finish_warm(inst, opts, &mut warm.memo, mb, t_start, rng)
}

/// [`solve_via_qap_warm`] over a pool-scoped [`SparseEdgeCache`] — the
/// large-catalog path where no dense catalog-global edge list exists. The
/// open set must be a subset of the cache's pool members; the warm state is
/// epoch-synced to the cache (rebinding after pool drift costs integer work
/// only) and then the matching is diffed and repaired exactly like the
/// dense warm path.
///
/// The fallback ladder mirrors [`solve_via_qap_warm`]: an unsorted open set
/// or one not covered by the pool members solves cold; a warm state bound
/// to a foreign catalog (or an instance/open length mismatch) takes the
/// filtered-edges path and leaves `warm` untouched. Output is byte-
/// identical to [`solve_via_qap`] unconditionally.
pub(crate) fn solve_via_qap_sparse_warm(
    inst: &Instance,
    opts: PipelineOptions,
    cache: &SparseEdgeCache,
    warm: &mut SparseWarmState,
    open: &[u32],
    rng: &mut dyn Rng,
) -> SolveOutcome {
    let n_real = inst.n_tasks();
    if !open.windows(2).all(|w| w[0] < w[1]) {
        return solve_via_qap(inst, opts, rng);
    }
    if cache.member_positions(open).is_none() {
        // The pool cache does not cover this open set; nothing reusable.
        return solve_via_qap(inst, opts, rng);
    }
    if !(warm.matches_cache(cache) && open.len() == n_real) {
        // The edge list is usable but the warm state is not (foreign
        // catalog binding); leave it untouched and take the filter path.
        return solve_via_qap_with_edges(inst, opts, &cache.filter_sorted(open), rng);
    }

    // ---- Step 2, incremental: epoch sync + diff + local repair -----------
    let t_start = Instant::now();
    let n = padded_len(inst);
    warm.sync(cache);
    warm.update_open(cache, open);
    let mb = warm.extract_matching(n);
    finish_warm(inst, opts, &mut warm.memo, mb, t_start, rng)
}

/// Vertex count after padding every clique to `X_max` vertices.
fn padded_len(inst: &Instance) -> usize {
    inst.n_tasks().max(inst.n_workers() * inst.xmax())
}

/// The shared tail of both warm paths, given the repaired matching `mb`
/// (started at `t_start`): steps 3-4 served from the input-keyed `memo`
/// when the profit matrix is bit-identical to the previous solve's, then
/// steps 5-6.
fn finish_warm(
    inst: &Instance,
    opts: PipelineOptions,
    memo: &mut LsapMemo,
    mb: Matching,
    t_start: Instant,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    let matching_time = t_start.elapsed();
    let threads = hta_par::solver_threads(opts.threads);
    let n = padded_len(inst);
    let bm = bm_vector(n, &mb);

    // ---- Steps 3-4 with the input-keyed memo ------------------------------
    let t_lsap = Instant::now();
    let key = lsap_memo_key(inst, opts, n, &bm);
    let lsap_solution = match memo {
        Some((k, sol)) if *k == key => sol.clone(),
        _ => {
            let sol = compute_lsap(inst, opts, threads, &bm);
            *memo = Some((key, sol.clone()));
            sol
        }
    };
    let lsap_time = t_lsap.elapsed();

    finish(
        inst,
        opts,
        mb,
        lsap_solution,
        PhaseTimings {
            edge_enum: std::time::Duration::ZERO,
            matching: matching_time,
            lsap: lsap_time,
            total: std::time::Duration::ZERO, // patched below
        },
        t_start,
        rng,
    )
}

/// `b_M(t_k)`: weight of the matched edge incident to task `k` (0
/// otherwise, and 0 for virtual rows).
fn bm_vector(n: usize, mb: &Matching) -> Vec<f64> {
    let mut bm = vec![0.0f64; n];
    for e in mb.edges() {
        bm[e.u as usize] = e.weight;
        bm[e.v as usize] = e.weight;
    }
    bm
}

/// Steps 3-4: build the profit matrix in the requested representation and
/// run the configured LSAP strategy. A pure function of `(opts.lsap,
/// opts.representation, bm, instance weights/relevances, shape)` — the
/// thread count provably never changes the result — which is what makes the
/// warm path's input-keyed memo sound.
fn compute_lsap(
    inst: &Instance,
    opts: PipelineOptions,
    threads: usize,
    bm: &[f64],
) -> hta_matching::LsapSolution {
    let n = bm.len();
    let n_real = inst.n_tasks();
    let nw = inst.n_workers();
    let xmax = inst.xmax();
    // Column classes: class q < |W| is worker q's X_max-wide block; class
    // |W| collects the isolated (zero-profit) columns.
    // f(k, class q) = b_M(t_k)·(X_max−1)·α_q + β_q·rel(q, t_k)·(X_max−1).
    let xm1 = xmax as f64 - 1.0;
    let profit = |k: usize, class: usize| -> f64 {
        if class >= nw || k >= n_real {
            return 0.0;
        }
        bm[k] * xm1 * inst.alpha(class) + inst.beta(class) * inst.rel(class, k) * xm1
    };
    match opts.representation {
        CostRepresentation::Dense => {
            let dense = DenseMatrix::from_fn_parallel(n, threads, |k, l| {
                profit(k, worker_of_vertex(l, xmax, nw).unwrap_or(nw))
            });
            run_lsap(&dense, opts.lsap, threads)
        }
        CostRepresentation::Classed => {
            let classes: Vec<u32> = (0..n)
                .map(|l| worker_of_vertex(l, xmax, nw).unwrap_or(nw) as u32)
                .collect();
            let classed = ClassedCosts::new(n, nw + 1, classes, profit);
            run_lsap(&classed, opts.lsap, threads)
        }
    }
}

/// Fingerprint of every input [`compute_lsap`] depends on: strategy and
/// representation, shape, `b_M`, per-worker weights, and the relevance
/// matrix. Two solves with equal keys have bit-identical profit matrices,
/// so replaying a memoized solution is byte-identical to re-solving.
/// Deliberately excludes the thread count (the result never depends on it).
fn lsap_memo_key(inst: &Instance, opts: PipelineOptions, n: usize, bm: &[f64]) -> u64 {
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let n_real = inst.n_tasks();
    let nw = inst.n_workers();
    let mut h = mix(0x5EED_0CAB_005E_ED00, opts.lsap as u64);
    h = mix(h, opts.representation as u64);
    h = mix(h, n as u64);
    h = mix(h, nw as u64);
    h = mix(h, inst.xmax() as u64);
    h = mix(h, n_real as u64);
    // bm is zero beyond n_real (cache edges connect real tasks only).
    for &b in &bm[..n_real] {
        h = mix(h, b.to_bits());
    }
    for q in 0..nw {
        h = mix(h, inst.alpha(q).to_bits());
        h = mix(h, inst.beta(q).to_bits());
        for k in 0..n_real {
            h = mix(h, inst.rel(q, k).to_bits());
        }
    }
    h
}

#[allow(clippy::too_many_arguments)]
fn finish(
    inst: &Instance,
    opts: PipelineOptions,
    mb: Matching,
    lsap_solution: hta_matching::LsapSolution,
    mut timings: PhaseTimings,
    t_start: Instant,
    rng: &mut dyn Rng,
) -> SolveOutcome {
    let n_real = inst.n_tasks();
    let nw = inst.n_workers();
    let xmax = inst.xmax();

    // ---- Step 5: random flip of matched pairs (Alg. 1 lines 12-16) -------
    let mut pi = lsap_solution.assignment;
    if opts.random_flip {
        for e in mb.edges() {
            if rng.random_bool(0.5) {
                pi.swap(e.u as usize, e.v as usize);
            }
        }
    }

    // ---- Step 6: Eq. 7 ----------------------------------------------------
    let assignment = assignment_from_permutation(&pi, n_real, xmax, nw);
    debug_assert!(assignment.validate(inst).is_ok());

    timings.total = t_start.elapsed();
    SolveOutcome {
        assignment,
        timings,
        lsap_value: lsap_solution.value,
    }
}

fn run_lsap(
    costs: &(impl CostMatrix + Sync),
    strategy: LsapStrategy,
    threads: usize,
) -> hta_matching::LsapSolution {
    match strategy {
        LsapStrategy::ExactJv => jv::solve(costs),
        LsapStrategy::ExactClassicHungarian => hungarian::solve(costs),
        LsapStrategy::Greedy => lsap_greedy::solve_with_threads(costs, threads),
        LsapStrategy::Auction => auction::solve_jacobi(costs),
        LsapStrategy::StructuredExact => structured::solve(costs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qap::paper_example;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts(lsap: LsapStrategy, representation: CostRepresentation) -> PipelineOptions {
        PipelineOptions {
            lsap,
            representation,
            random_flip: true,
            threads: 1,
        }
    }

    fn run(opts: PipelineOptions, seed: u64) -> SolveOutcome {
        let inst = paper_example();
        let mut rng = StdRng::seed_from_u64(seed);
        solve_via_qap(&inst, opts, &mut rng)
    }

    #[test]
    fn all_strategies_produce_feasible_assignments() {
        let inst = paper_example();
        for lsap in [
            LsapStrategy::ExactJv,
            LsapStrategy::Greedy,
            LsapStrategy::Auction,
            LsapStrategy::StructuredExact,
        ] {
            for repr in [CostRepresentation::Dense, CostRepresentation::Classed] {
                let out = run(opts(lsap, repr), 7);
                out.assignment.validate(&inst).unwrap();
                // 2 workers × X_max 3 = 6 of the 8 tasks assigned.
                assert_eq!(out.assignment.assigned_count(), 6);
                assert!(out.assignment.objective(&inst) > 0.0);
            }
        }
    }

    #[test]
    fn exact_lsap_value_independent_of_representation() {
        let a = run(
            opts(LsapStrategy::ExactJv, CostRepresentation::Dense).no_flip(),
            1,
        );
        let b = run(
            opts(LsapStrategy::ExactJv, CostRepresentation::Classed).no_flip(),
            1,
        );
        assert!((a.lsap_value - b.lsap_value).abs() < 1e-9);
        let c = run(
            opts(LsapStrategy::StructuredExact, CostRepresentation::Classed).no_flip(),
            1,
        );
        assert!((a.lsap_value - c.lsap_value).abs() < 1e-9);
    }

    impl PipelineOptions {
        fn no_flip(mut self) -> Self {
            self.random_flip = false;
            self
        }

        fn with_threads(mut self, threads: usize) -> Self {
            self.threads = threads;
            self
        }
    }

    #[test]
    fn greedy_lsap_within_half_of_exact() {
        let exact = run(
            opts(LsapStrategy::ExactJv, CostRepresentation::Dense).no_flip(),
            1,
        );
        let greedy = run(
            opts(LsapStrategy::Greedy, CostRepresentation::Dense).no_flip(),
            1,
        );
        assert!(greedy.lsap_value >= 0.5 * exact.lsap_value - 1e-9);
        assert!(greedy.lsap_value <= exact.lsap_value + 1e-9);
    }

    #[test]
    fn parallel_pipeline_is_byte_identical_to_sequential() {
        let inst = paper_example();
        for lsap in [
            LsapStrategy::ExactJv,
            LsapStrategy::Greedy,
            LsapStrategy::Auction,
        ] {
            for repr in [CostRepresentation::Dense, CostRepresentation::Classed] {
                let seq = {
                    let mut rng = StdRng::seed_from_u64(13);
                    solve_via_qap(&inst, opts(lsap, repr), &mut rng)
                };
                for threads in [2usize, 7] {
                    let mut rng = StdRng::seed_from_u64(13);
                    let par =
                        solve_via_qap(&inst, opts(lsap, repr).with_threads(threads), &mut rng);
                    assert_eq!(
                        par.assignment.sets(),
                        seq.assignment.sets(),
                        "{lsap:?}/{repr:?} threads={threads}"
                    );
                    assert_eq!(par.lsap_value.to_bits(), seq.lsap_value.to_bits());
                }
            }
        }
    }

    #[test]
    fn presorted_edges_match_fresh_enumeration() {
        use hta_matching::edge_order;
        let inst = paper_example();
        let weight = |u: usize, v: usize| inst.diversity(u, v);
        let mut edges = crate::edges::enumerate_positive_edges(
            &ByClosure {
                n: inst.n_tasks(),
                weight,
            },
            1,
        );
        edges.sort_unstable_by(edge_order);
        let o = opts(LsapStrategy::Greedy, CostRepresentation::Classed);
        let fresh = solve_via_qap(&inst, o, &mut StdRng::seed_from_u64(21));
        let reused = solve_via_qap_with_edges(&inst, o, &edges, &mut StdRng::seed_from_u64(21));
        assert_eq!(reused.assignment.sets(), fresh.assignment.sets());
        assert_eq!(reused.lsap_value.to_bits(), fresh.lsap_value.to_bits());
        assert_eq!(reused.timings.edge_enum, std::time::Duration::ZERO);
    }

    #[test]
    fn scarce_instance_is_padded() {
        // 4 tasks, 2 workers, X_max = 3: only 4 assignments possible.
        use crate::instance::Instance;
        use crate::worker::Weights;
        let rel = vec![0.5; 8];
        let mut div = vec![0.7; 16];
        for k in 0..4 {
            div[k * 4 + k] = 0.0;
        }
        let inst = Instance::from_matrices(4, &[Weights::balanced(); 2], rel, div, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = solve_via_qap(
            &inst,
            opts(LsapStrategy::ExactJv, CostRepresentation::Dense),
            &mut rng,
        );
        out.assignment.validate(&inst).unwrap();
        assert!(out.assignment.assigned_count() <= 4);
        // With positive profits everywhere, all 4 real tasks get assigned.
        assert_eq!(out.assignment.assigned_count(), 4);
    }

    #[test]
    fn flip_changes_nothing_when_disabled() {
        let a = run(
            opts(LsapStrategy::ExactJv, CostRepresentation::Dense).no_flip(),
            11,
        );
        let b = run(
            opts(LsapStrategy::ExactJv, CostRepresentation::Dense).no_flip(),
            99,
        );
        assert_eq!(a.assignment.sets(), b.assignment.sets());
    }
}
