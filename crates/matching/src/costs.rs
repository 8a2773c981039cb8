//! Cost/profit matrix representations for assignment problems.

/// A square profit matrix for an assignment problem.
///
/// Implementations must be square (`n × n`); `cost(row, col)` returns the
/// profit of assigning `row` to `col`. All LSAP solvers in this crate
/// maximize total profit.
pub trait CostMatrix {
    /// Number of rows (= number of columns).
    fn n(&self) -> usize;

    /// Profit of assigning `row` to `col`. Both indices are `< self.n()`.
    fn cost(&self, row: usize, col: usize) -> f64;

    /// Number of distinct *column classes*: columns within one class have
    /// identical profit vectors. Dense matrices report `n()` (every column
    /// its own class); structured matrices can report far fewer, which
    /// class-aware solvers exploit.
    fn n_classes(&self) -> usize {
        self.n()
    }

    /// The class of column `col`.
    fn class_of(&self, col: usize) -> usize {
        col
    }

    /// Profit of assigning `row` to any column of `class`.
    fn class_cost(&self, row: usize, class: usize) -> f64 {
        // Default for dense matrices where class == column.
        self.cost(row, class)
    }
}

/// Row-major dense `n × n` matrix of `f64` profits.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create an `n × n` matrix filled with zeros.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from row slices. All rows must have length `rows.len()`.
    ///
    /// # Panics
    /// Panics if any row's length differs from the number of rows.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), n, "DenseMatrix::from_rows requires square input");
            data.extend_from_slice(row);
        }
        Self { n, data }
    }

    /// Build an `n × n` matrix by evaluating `f(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                data.push(f(r, c));
            }
        }
        Self { n, data }
    }

    /// [`Self::from_fn`] with rows materialized on up to `threads` threads
    /// over contiguous row chunks ([`hta_par::fill_rows`]; a matrix under
    /// the grain fills inline). Each cell is still `f(row, col)` evaluated
    /// exactly once, so the result is identical at any thread count.
    pub fn from_fn_parallel(
        n: usize,
        threads: usize,
        f: impl Fn(usize, usize) -> f64 + Sync,
    ) -> Self {
        let mut data = vec![0.0f64; n * n];
        hta_par::fill_rows(
            &mut data,
            n,
            threads,
            |_| n,
            |r, row| {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = f(r, c);
                }
            },
        );
        Self { n, data }
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        debug_assert!(row < self.n && col < self.n);
        self.data[row * self.n + col] = v;
    }

    /// A view of row `row` as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.n..(row + 1) * self.n]
    }

    /// Sum of row `row`.
    pub fn row_sum(&self, row: usize) -> f64 {
        self.row(row).iter().sum()
    }

    /// True if the matrix equals its transpose (within `eps`).
    pub fn is_symmetric(&self, eps: f64) -> bool {
        for r in 0..self.n {
            for c in (r + 1)..self.n {
                if (self.get(r, c) - self.get(c, r)).abs() > eps {
                    return false;
                }
            }
        }
        true
    }
}

impl CostMatrix for DenseMatrix {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn cost(&self, row: usize, col: usize) -> f64 {
        self.get(row, col)
    }
}

/// A profit matrix in *column-class* form: column `l` belongs to class
/// `classes[l]`, and the profit of `(row, l)` depends only on
/// `(row, classes[l])`.
///
/// The HTA auxiliary LSAP has exactly this shape: every column mapped to the
/// same worker carries the same profit vector (the worker's `degA` and `C`
/// columns are constant within the worker's `X_max`-wide block), and every
/// column beyond `|W|·X_max` is all-zero. Storing `|T| × (|W|+1)` profits
/// instead of `|T| × |T|` changes the memory cost from quadratic to linear in
/// the number of tasks.
#[derive(Debug, Clone)]
pub struct ClassedCosts {
    n: usize,
    n_classes: usize,
    /// `class_profit[row * n_classes + class]`
    class_profit: Vec<f64>,
    /// `classes[col]` = class of column `col`.
    classes: Vec<u32>,
    /// Number of columns in each class.
    class_sizes: Vec<u32>,
}

impl ClassedCosts {
    /// Build from an explicit column→class map and a per-(row, class) profit
    /// function.
    ///
    /// # Panics
    /// Panics if `classes.len() != n` or any class id is `>= n_classes`.
    pub fn new(
        n: usize,
        n_classes: usize,
        classes: Vec<u32>,
        mut profit: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        assert_eq!(classes.len(), n);
        let mut class_sizes = vec![0u32; n_classes];
        for &c in &classes {
            assert!((c as usize) < n_classes, "class id out of range");
            class_sizes[c as usize] += 1;
        }
        let mut class_profit = Vec::with_capacity(n * n_classes);
        for r in 0..n {
            for c in 0..n_classes {
                class_profit.push(profit(r, c));
            }
        }
        Self {
            n,
            n_classes,
            class_profit,
            classes,
            class_sizes,
        }
    }

    /// Number of columns in `class`.
    #[inline]
    pub fn class_size(&self, class: usize) -> usize {
        self.class_sizes[class] as usize
    }

    /// Columns of `class`, in increasing order.
    pub fn columns_of_class(&self, class: usize) -> impl Iterator<Item = usize> + '_ {
        self.classes
            .iter()
            .enumerate()
            .filter(move |&(_, &c)| c as usize == class)
            .map(|(i, _)| i)
    }

    /// The per-(row, class) profit row for `row`.
    #[inline]
    pub fn class_row(&self, row: usize) -> &[f64] {
        &self.class_profit[row * self.n_classes..(row + 1) * self.n_classes]
    }
}

impl CostMatrix for ClassedCosts {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn cost(&self, row: usize, col: usize) -> f64 {
        self.class_cost(row, self.classes[col] as usize)
    }

    #[inline]
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    #[inline]
    fn class_of(&self, col: usize) -> usize {
        self.classes[col] as usize
    }

    #[inline]
    fn class_cost(&self, row: usize, class: usize) -> f64 {
        self.class_profit[row * self.n_classes + class]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_from_rows_roundtrip() {
        let m = DenseMatrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(m.n(), 2);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.row_sum(0), 3.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn dense_from_rows_rejects_ragged() {
        let _ = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn dense_from_fn_matches_closure() {
        let m = DenseMatrix::from_fn(3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.cost(0, 2), 2.0);
    }

    #[test]
    fn parallel_constructors_match_sequential() {
        let f = |r: usize, c: usize| (r * 31 + c * 7) as f64 / 3.0;
        let seq = DenseMatrix::from_fn(37, f);
        for threads in [1usize, 2, 5, 16] {
            assert_eq!(DenseMatrix::from_fn_parallel(37, threads, f), seq);
        }
    }

    /// Above the grain the row fill really splits over threads; it stays
    /// identical at 1, 2 and 7 threads.
    #[test]
    fn above_grain_parallel_constructor_is_thread_invariant() {
        let f = |r: usize, c: usize| (r * 31 + c * 7) as f64 / 3.0;
        let n = 800;
        assert!(hta_par::threads_for(n * n, 7) >= 2);
        let seq = DenseMatrix::from_fn(n, f);
        for threads in [1usize, 2, 7] {
            assert_eq!(
                DenseMatrix::from_fn_parallel(n, threads, f),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn dense_symmetry_check() {
        let sym = DenseMatrix::from_rows(&[[0.0, 1.0], [1.0, 0.0]]);
        assert!(sym.is_symmetric(1e-12));
        let asym = DenseMatrix::from_rows(&[[0.0, 1.0], [2.0, 0.0]]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn dense_default_classes_are_columns() {
        let m = DenseMatrix::zeros(4);
        assert_eq!(m.n_classes(), 4);
        assert_eq!(m.class_of(3), 3);
    }

    #[test]
    fn classed_costs_agree_with_dense_expansion() {
        // 4 columns in 2 classes: [0, 0, 1, 1].
        let cc = ClassedCosts::new(4, 2, vec![0, 0, 1, 1], |r, c| (r * 2 + c) as f64);
        assert_eq!(cc.n(), 4);
        assert_eq!(cc.n_classes(), 2);
        assert_eq!(cc.class_size(0), 2);
        assert_eq!(cc.cost(1, 0), cc.cost(1, 1));
        assert_eq!(cc.cost(1, 2), cc.cost(1, 3));
        assert_eq!(cc.cost(1, 0), 2.0);
        assert_eq!(cc.cost(1, 3), 3.0);
        let cols: Vec<usize> = cc.columns_of_class(1).collect();
        assert_eq!(cols, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "class id out of range")]
    fn classed_costs_rejects_bad_class() {
        let _ = ClassedCosts::new(2, 1, vec![0, 1], |_, _| 0.0);
    }
}
