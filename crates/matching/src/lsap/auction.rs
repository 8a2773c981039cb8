//! Bertsekas' auction algorithm for the LSAP, with ε-scaling.
//!
//! An alternative (near-)exact solver used in the ablation benches. Rows bid
//! for their most profitable column; each bid raises the column's price by
//! the bidder's profit margin over its second choice plus `ε`. With
//! ε-scaling the algorithm terminates with a solution whose value is within
//! `n · ε_final` of the optimum (exactly optimal when profits are integers
//! and `n · ε_final < 1`).

use super::LsapSolution;
use crate::costs::CostMatrix;

const FREE: usize = usize::MAX;

/// Options controlling the ε-scaling schedule.
#[derive(Debug, Clone, Copy)]
pub struct AuctionOptions {
    /// Starting ε as a fraction of the largest absolute profit.
    pub eps_start_fraction: f64,
    /// ε divisor applied between scaling phases.
    pub scaling_factor: f64,
    /// Final ε, as a fraction of the largest absolute profit. The returned
    /// value is within `n · ε_final` of the optimum.
    pub eps_final_fraction: f64,
}

impl Default for AuctionOptions {
    fn default() -> Self {
        Self {
            eps_start_fraction: 0.25,
            scaling_factor: 4.0,
            eps_final_fraction: 1e-9,
        }
    }
}

/// Maximize `Σ f[row][σ(row)]` with default ε-scaling options.
pub fn solve(profits: &impl CostMatrix) -> LsapSolution {
    solve_with_options(profits, AuctionOptions::default())
}

/// Synchronous **Jacobi** auction: bidding rounds instead of the
/// Gauss-Seidel sweep of [`solve`].
///
/// Each round, every unassigned row computes its bid against a frozen price
/// snapshot, then bids are resolved in a fixed order: each contested column
/// goes to the highest bid, ties to the lowest bidder id. This is the
/// variant the QAP pipeline's auction ablation runs. The bids are pure
/// reads and could be computed on several threads with the same result,
/// but measured on a 2-vCPU VM a threaded bidding round lost to the
/// sequential one at the sizes the ablation passes (2,000 × 2,000:
/// 6.6–7.3 s on one thread, 9.5–10.9 s on two), so it runs on the caller's
/// thread. The round structure differs from Gauss-Seidel, so values may
/// differ from [`solve`] within the usual `n · ε_final` optimality band.
pub fn solve_jacobi(profits: &impl CostMatrix) -> LsapSolution {
    solve_jacobi_with_options(profits, AuctionOptions::default())
}

/// [`solve_jacobi`] with explicit ε-scaling options.
pub fn solve_jacobi_with_options(profits: &impl CostMatrix, opts: AuctionOptions) -> LsapSolution {
    let n = profits.n();
    if n == 0 {
        return LsapSolution {
            assignment: Vec::new(),
            value: 0.0,
        };
    }
    let mut max_abs = 0.0f64;
    for r in 0..n {
        for c in 0..n {
            max_abs = max_abs.max(profits.cost(r, c).abs());
        }
    }
    let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
    let eps_final = (scale * opts.eps_final_fraction).max(f64::MIN_POSITIVE);
    let mut eps = (scale * opts.eps_start_fraction).max(eps_final);

    let mut prices = vec![0.0f64; n];
    let mut row_to_col = vec![FREE; n];
    let mut col_to_row = vec![FREE; n];

    loop {
        row_to_col.iter_mut().for_each(|x| *x = FREE);
        col_to_row.iter_mut().for_each(|x| *x = FREE);
        // Ascending row order keeps the lowest-bidder-id tie-break stable
        // from round to round.
        let mut unassigned: Vec<usize> = (0..n).collect();

        while !unassigned.is_empty() {
            // Jacobi bidding: every unassigned row bids against the same
            // price snapshot.
            let bids: Vec<(usize, f64)> = unassigned
                .iter()
                .map(|&i| {
                    let mut best_j = 0usize;
                    let mut best = f64::NEG_INFINITY;
                    let mut second = f64::NEG_INFINITY;
                    for (j, &pj) in prices.iter().enumerate() {
                        let m = profits.cost(i, j) - pj;
                        if m > best {
                            second = best;
                            best = m;
                            best_j = j;
                        } else if m > second {
                            second = m;
                        }
                    }
                    let increment = if second.is_finite() {
                        best - second
                    } else {
                        0.0
                    } + eps;
                    (best_j, prices[best_j] + increment)
                })
                .collect();

            // Resolution: per column, the highest bid wins; ties go to the
            // lowest bidder id (bidders iterate in ascending row order, and
            // a strict `>` keeps the first — lowest — of equal bids).
            let mut winner: Vec<usize> = vec![FREE; n];
            let mut winning_bid = vec![f64::NEG_INFINITY; n];
            for (&i, &(j, bid)) in unassigned.iter().zip(&bids) {
                if bid > winning_bid[j] {
                    winning_bid[j] = bid;
                    winner[j] = i;
                }
            }
            let mut next_unassigned = Vec::new();
            for (&i, &(j, _)) in unassigned.iter().zip(&bids) {
                if winner[j] != i {
                    next_unassigned.push(i); // lost this round, bid again
                }
            }
            for (j, &i) in winner.iter().enumerate() {
                if i == FREE {
                    continue;
                }
                prices[j] = winning_bid[j];
                let evicted = col_to_row[j];
                col_to_row[j] = i;
                row_to_col[i] = j;
                if evicted != FREE {
                    row_to_col[evicted] = FREE;
                    next_unassigned.push(evicted);
                }
            }
            next_unassigned.sort_unstable();
            unassigned = next_unassigned;
        }

        if eps <= eps_final {
            break;
        }
        eps = (eps / opts.scaling_factor).max(eps_final);
    }

    debug_assert!(LsapSolution::is_permutation(&row_to_col));
    let value = LsapSolution::evaluate(&row_to_col, profits);
    LsapSolution {
        assignment: row_to_col,
        value,
    }
}

/// Maximize with explicit options.
pub fn solve_with_options(profits: &impl CostMatrix, opts: AuctionOptions) -> LsapSolution {
    let n = profits.n();
    if n == 0 {
        return LsapSolution {
            assignment: Vec::new(),
            value: 0.0,
        };
    }
    let mut max_abs = 0.0f64;
    for r in 0..n {
        for c in 0..n {
            max_abs = max_abs.max(profits.cost(r, c).abs());
        }
    }
    let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
    let eps_final = (scale * opts.eps_final_fraction).max(f64::MIN_POSITIVE);
    let mut eps = (scale * opts.eps_start_fraction).max(eps_final);

    let mut prices = vec![0.0f64; n];
    let mut row_to_col = vec![FREE; n];
    let mut col_to_row = vec![FREE; n];

    loop {
        // Reset the assignment each phase; prices carry over (the standard
        // warm start that makes scaling effective).
        row_to_col.iter_mut().for_each(|x| *x = FREE);
        col_to_row.iter_mut().for_each(|x| *x = FREE);
        let mut unassigned: Vec<usize> = (0..n).collect();

        while let Some(i) = unassigned.pop() {
            // Find the best and second-best margins for row i.
            let mut best_j = 0usize;
            let mut best = f64::NEG_INFINITY;
            let mut second = f64::NEG_INFINITY;
            for (j, &pj) in prices.iter().enumerate() {
                let m = profits.cost(i, j) - pj;
                if m > best {
                    second = best;
                    best = m;
                    best_j = j;
                } else if m > second {
                    second = m;
                }
            }
            // n == 1: no second choice, bid eps over own margin.
            let bid_increment = if second.is_finite() {
                best - second
            } else {
                0.0
            } + eps;
            prices[best_j] += bid_increment;

            let evicted = col_to_row[best_j];
            col_to_row[best_j] = i;
            row_to_col[i] = best_j;
            if evicted != FREE {
                row_to_col[evicted] = FREE;
                unassigned.push(evicted);
            }
        }

        if eps <= eps_final {
            break;
        }
        eps = (eps / opts.scaling_factor).max(eps_final);
    }

    debug_assert!(LsapSolution::is_permutation(&row_to_col));
    let value = LsapSolution::evaluate(&row_to_col, profits);
    LsapSolution {
        assignment: row_to_col,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::DenseMatrix;
    use crate::lsap::jv;

    fn assert_near_optimal(m: &DenseMatrix) {
        let a = solve(m);
        let opt = jv::solve(m);
        assert!(LsapSolution::is_permutation(&a.assignment));
        let tol = 1e-6 * (1.0 + opt.value.abs());
        assert!(
            a.value >= opt.value - tol,
            "auction={} jv={}",
            a.value,
            opt.value
        );
    }

    #[test]
    fn single_row() {
        let m = DenseMatrix::from_rows(&[[2.0]]);
        let s = solve(&m);
        assert_eq!(s.assignment, vec![0]);
        assert_eq!(s.value, 2.0);
    }

    #[test]
    fn matches_jv_on_small_instances() {
        assert_near_optimal(&DenseMatrix::from_rows(&[
            [3.0, 1.0, 0.0],
            [0.0, 2.0, 1.0],
            [1.0, 0.0, 4.0],
        ]));
        assert_near_optimal(&DenseMatrix::from_rows(&[
            [0.0, 0.0, 5.0, 2.0],
            [0.0, 5.0, 0.0, 1.0],
            [5.0, 0.0, 0.0, 3.0],
            [1.0, 2.0, 3.0, 4.0],
        ]));
    }

    #[test]
    fn jacobi_is_near_optimal_and_deterministic() {
        let m = DenseMatrix::from_fn(23, |r, c| ((r * 13 + c * 7) % 11) as f64 / 2.0);
        let opt = jv::solve(&m);
        let seq = solve_jacobi(&m);
        assert!(LsapSolution::is_permutation(&seq.assignment));
        let tol = 1e-6 * (1.0 + opt.value.abs());
        assert!(
            seq.value >= opt.value - tol,
            "jacobi={} jv={}",
            seq.value,
            opt.value
        );
        let again = solve_jacobi(&m);
        assert_eq!(again.assignment, seq.assignment);
        assert_eq!(again.value.to_bits(), seq.value.to_bits());
    }

    #[test]
    fn jacobi_handles_degenerate_shapes() {
        let s = solve_jacobi(&DenseMatrix::zeros(0));
        assert!(s.assignment.is_empty());
        let s = solve_jacobi(&DenseMatrix::from_rows(&[[2.0]]));
        assert_eq!(s.assignment, vec![0]);
        let s = solve_jacobi(&DenseMatrix::zeros(5));
        assert!(LsapSolution::is_permutation(&s.assignment));
        assert_eq!(s.value, 0.0);
    }

    #[test]
    fn handles_all_zero_profits() {
        let m = DenseMatrix::zeros(4);
        let s = solve(&m);
        assert!(LsapSolution::is_permutation(&s.assignment));
        assert_eq!(s.value, 0.0);
    }

    #[test]
    fn handles_negative_profits() {
        let m = DenseMatrix::from_rows(&[[-1.0, -2.0], [-3.0, -1.5]]);
        let s = solve(&m);
        assert!((s.value - (-2.5)).abs() < 1e-6);
    }
}
