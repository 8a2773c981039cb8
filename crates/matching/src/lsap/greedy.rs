//! ½-approximate LSAP via greedy matching on the complete bipartite profit
//! graph — the solver that makes HTA-GRE run in `O(n² log n)`.
//!
//! The paper (Section IV-C, Lemma 4) models the LSAP as a maximum-weight
//! perfect matching on the complete bipartite graph `G_LSAP` and applies
//! `GreedyMatching`: repeatedly take the heaviest remaining `(row, col)`
//! pair with both endpoints free. Because the graph is complete, the result
//! is a perfect matching (a permutation), and the greedy rule guarantees at
//! least half the optimal weight.

use super::LsapSolution;
use crate::costs::CostMatrix;

const FREE: usize = usize::MAX;

/// Greedy LSAP. Automatically uses the column-class representation when the
/// matrix reports fewer classes than columns (sorting `n·classes` candidate
/// pairs instead of `n²`).
pub fn solve(profits: &(impl CostMatrix + Sync)) -> LsapSolution {
    solve_with_threads(profits, 1)
}

/// [`solve`] with entry enumeration and the big sort split over up to
/// `threads` threads (`hta_par`'s grain rule: a matrix whose entries do not
/// pay for a spawn runs inline). Entries are enumerated row-chunked and
/// concatenated in chunk order, and the sort tie-breaks on the unique
/// `(row, col)` key, so the result is byte-identical to the sequential
/// path at any thread count.
pub fn solve_with_threads(profits: &(impl CostMatrix + Sync), threads: usize) -> LsapSolution {
    if profits.n_classes() < profits.n() {
        let entries = enumerate(profits.n(), profits.n_classes(), threads, |r, cl| {
            profits.class_cost(r, cl)
        });
        solve_classed_entries(profits, entries, threads)
    } else {
        let entries = enumerate(profits.n(), profits.n(), threads, |r, c| profits.cost(r, c));
        solve_dense_entries(profits, entries, threads)
    }
}

/// The `(value(r, c), r, c)` entries of an `n_rows × width` table in
/// row-major order, rows split over up to `threads` threads.
fn enumerate(
    n_rows: usize,
    width: usize,
    threads: usize,
    value: impl Fn(usize, usize) -> f64 + Sync,
) -> Vec<(f64, u32, u32)> {
    let rows: Vec<usize> = (0..n_rows).collect();
    let mut chunks = hta_par::map_chunks(&rows, threads, width, |rows| {
        let mut entries = Vec::with_capacity(rows.len() * width);
        for &r in rows {
            for c in 0..width {
                entries.push((value(r, c), r as u32, c as u32));
            }
        }
        entries
    });
    if chunks.len() <= 1 {
        return chunks.pop().unwrap_or_default();
    }
    chunks.concat()
}

/// Greedy LSAP over all `n²` entries.
pub fn solve_dense(profits: &(impl CostMatrix + Sync)) -> LsapSolution {
    let entries = enumerate(profits.n(), profits.n(), 1, |r, c| profits.cost(r, c));
    solve_dense_entries(profits, entries, 1)
}

fn solve_dense_entries(
    profits: &impl CostMatrix,
    mut entries: Vec<(f64, u32, u32)>,
    threads: usize,
) -> LsapSolution {
    let n = profits.n();
    sort_entries(&mut entries, threads);

    let mut row_to_col = vec![FREE; n];
    let mut col_taken = vec![false; n];
    let mut assigned = 0usize;
    for &(_, r, c) in &entries {
        let (r, c) = (r as usize, c as usize);
        if row_to_col[r] == FREE && !col_taken[c] {
            row_to_col[r] = c;
            col_taken[c] = true;
            assigned += 1;
            if assigned == n {
                break;
            }
        }
    }
    finish(profits, row_to_col)
}

/// Greedy LSAP exploiting column classes: sort the `n × n_classes` candidate
/// pairs; a pair `(row, class)` is usable while the class has spare columns.
/// Produces the same profit as [`solve_dense`] whenever the dense tie-break
/// ordering groups classes consistently, and is never worse than the ½
/// guarantee.
pub fn solve_classed(profits: &(impl CostMatrix + Sync)) -> LsapSolution {
    let entries = enumerate(profits.n(), profits.n_classes(), 1, |r, cl| {
        profits.class_cost(r, cl)
    });
    solve_classed_entries(profits, entries, 1)
}

fn solve_classed_entries(
    profits: &impl CostMatrix,
    mut entries: Vec<(f64, u32, u32)>,
    threads: usize,
) -> LsapSolution {
    let n = profits.n();
    let nc = profits.n_classes();
    sort_entries(&mut entries, threads);

    // Remaining capacity per class.
    let mut cap = vec![0u32; nc];
    for col in 0..n {
        cap[profits.class_of(col)] += 1;
    }

    let mut row_to_class = vec![FREE; n];
    let mut assigned = 0usize;
    for &(_, r, cl) in &entries {
        let (r, cl) = (r as usize, cl as usize);
        if row_to_class[r] == FREE && cap[cl] > 0 {
            row_to_class[r] = cl;
            cap[cl] -= 1;
            assigned += 1;
            if assigned == n {
                break;
            }
        }
    }

    // Materialize concrete columns: hand the columns of each class out in
    // increasing order.
    let mut next_col_of_class: Vec<Vec<usize>> = vec![Vec::new(); nc];
    for col in (0..n).rev() {
        next_col_of_class[profits.class_of(col)].push(col);
    }
    let row_to_col = row_to_class
        .iter()
        .map(|&cl| {
            next_col_of_class[cl]
                .pop()
                .expect("class capacity accounting guarantees a free column")
        })
        .collect();
    finish(profits, row_to_col)
}

/// Sort candidate pairs by decreasing profit, tie-broken by `(row, col)` for
/// determinism. The tie-break key is unique per entry, so the parallel
/// chunk-sort + merge (above the grain) is byte-identical to the
/// sequential sort.
fn sort_entries(entries: &mut [(f64, u32, u32)], threads: usize) {
    hta_par::sort_unstable_by_parallel(entries, threads, |a, b| {
        b.0.partial_cmp(&a.0)
            .expect("profits must not be NaN")
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
}

fn finish(profits: &impl CostMatrix, assignment: Vec<usize>) -> LsapSolution {
    debug_assert!(LsapSolution::is_permutation(&assignment));
    let value = LsapSolution::evaluate(&assignment, profits);
    LsapSolution { assignment, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{ClassedCosts, DenseMatrix};
    use crate::lsap::jv;

    #[test]
    fn produces_permutation_and_half_guarantee() {
        let m = DenseMatrix::from_rows(&[
            [3.0, 1.0, 0.0, 2.0],
            [0.0, 2.0, 1.0, 4.0],
            [1.0, 0.0, 4.0, 1.0],
            [2.0, 2.0, 2.0, 2.0],
        ]);
        let g = solve(&m);
        let opt = jv::solve(&m);
        assert!(LsapSolution::is_permutation(&g.assignment));
        assert!(g.value >= 0.5 * opt.value);
        assert!(g.value <= opt.value + 1e-12);
    }

    #[test]
    fn greedy_is_optimal_on_diagonal_dominant() {
        let m = DenseMatrix::from_rows(&[[9.0, 0.0], [0.0, 9.0]]);
        let g = solve(&m);
        assert_eq!(g.assignment, vec![0, 1]);
        assert_eq!(g.value, 18.0);
    }

    #[test]
    fn classic_half_gap_instance() {
        // Greedy takes (0,0)=2 first, forcing (1,1)=0; optimal crosses for
        // 1.9 + 1.9 = 3.8.
        let m = DenseMatrix::from_rows(&[[2.0, 1.9], [1.9, 0.0]]);
        let g = solve(&m);
        assert_eq!(g.value, 2.0);
        let opt = jv::solve(&m);
        assert_eq!(opt.value, 3.8);
        assert!(g.value >= 0.5 * opt.value);
    }

    #[test]
    fn classed_solver_matches_dense_on_expanded_matrix() {
        // 6 columns in 3 classes of 2.
        let classes = vec![0u32, 0, 1, 1, 2, 2];
        let cc = ClassedCosts::new(6, 3, classes, |r, c| ((r * 7 + c * 3) % 5) as f64);
        let dense = DenseMatrix::from_fn(6, |r, col| cc.cost(r, col));
        let g_classed = solve(&cc);
        let g_dense = solve_dense(&dense);
        assert!(LsapSolution::is_permutation(&g_classed.assignment));
        assert_eq!(g_classed.value, g_dense.value);
    }

    #[test]
    fn threaded_solve_is_byte_identical() {
        // Quantized profits produce plenty of cross-chunk ties.
        let dense = DenseMatrix::from_fn(41, |r, c| ((r * 5 + c * 11) % 7) as f64);
        let classes: Vec<u32> = (0..41).map(|i| (i % 5) as u32).collect();
        let classed = ClassedCosts::new(41, 5, classes, |r, cl| ((r * 3 + cl) % 4) as f64);
        let seq_dense = solve(&dense);
        let seq_classed = solve(&classed);
        for threads in [1usize, 2, 3, 7] {
            let pd = solve_with_threads(&dense, threads);
            assert_eq!(
                pd.assignment, seq_dense.assignment,
                "dense threads={threads}"
            );
            assert_eq!(pd.value.to_bits(), seq_dense.value.to_bits());
            let pc = solve_with_threads(&classed, threads);
            assert_eq!(
                pc.assignment, seq_classed.assignment,
                "classed threads={threads}"
            );
            assert_eq!(pc.value.to_bits(), seq_classed.value.to_bits());
        }
    }

    /// Above the grain the dense entries really split over threads; the
    /// result stays byte-identical at 1, 2 and 7 threads.
    #[test]
    fn above_grain_threaded_solve_is_byte_identical() {
        let n = 800;
        assert!(hta_par::threads_for(n * n, 7) >= 2);
        let dense = DenseMatrix::from_fn(n, |r, c| ((r * 5 + c * 11) % 13) as f64);
        let seq = solve(&dense);
        for threads in [1usize, 2, 7] {
            let pd = solve_with_threads(&dense, threads);
            assert_eq!(pd.assignment, seq.assignment, "threads={threads}");
            assert_eq!(pd.value.to_bits(), seq.value.to_bits());
        }
    }

    #[test]
    fn empty_matrix() {
        let m = DenseMatrix::zeros(0);
        let g = solve(&m);
        assert!(g.assignment.is_empty());
        assert_eq!(g.value, 0.0);
    }

    #[test]
    fn deterministic_on_ties() {
        let m = DenseMatrix::from_fn(5, |_, _| 1.0);
        let a = solve(&m);
        let b = solve(&m);
        assert_eq!(a.assignment, b.assignment);
        // Tie-break (row, col): identity permutation.
        assert_eq!(a.assignment, vec![0, 1, 2, 3, 4]);
    }
}
