//! Structure-of-arrays keyword catalog for the batched kernels.

use crate::bitvec::KeywordVec;

/// Blocks per SIMD lane group: 4 × u64 = 256 bits, the AVX2 register width
/// (NEON processes two 128-bit halves of the same group). Row strides are
/// padded to a multiple of this so the vector loops never need a tail.
pub(super) const LANE_BLOCKS: usize = 4;

/// A task catalog's keyword vectors laid out contiguously, row-major, as
/// 64-bit blocks with a padded stride.
///
/// The one-vs-many and pairwise kernels stream this single allocation
/// front-to-back instead of chasing `Vec<KeywordVec>` heap pointers; the
/// padding blocks are always zero, so they contribute nothing to
/// intersection or union popcounts and the counts stay exactly equal to the
/// unpadded scalar loop's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedCatalog {
    nbits: usize,
    /// Logical blocks per row: `nbits.div_ceil(64)`.
    blocks: usize,
    /// Physical row stride: `blocks` rounded up to [`LANE_BLOCKS`].
    stride: usize,
    n: usize,
    data: Vec<u64>,
    /// Cached popcount of every row, maintained by all mutators. Lets the
    /// one-vs-many kernels compute only intersections and derive unions as
    /// `|q| + |row| − |q ∩ row|` — an exact integer identity, so results
    /// stay bit-identical while the vector work halves.
    pops: Vec<u32>,
}

/// Exact popcount of a block slice (u32: a row tops out at `nbits` bits).
fn blocks_pop(blocks: &[u64]) -> u32 {
    blocks.iter().map(|b| b.count_ones()).sum()
}

impl PackedCatalog {
    /// An empty catalog over a universe of `nbits` keywords.
    pub fn new(nbits: usize) -> Self {
        let blocks = nbits.div_ceil(64);
        Self {
            nbits,
            blocks,
            stride: blocks.next_multiple_of(LANE_BLOCKS),
            n: 0,
            data: Vec::new(),
            pops: Vec::new(),
        }
    }

    /// Pack an iterator of keyword vectors (all over `nbits` keywords).
    ///
    /// # Panics
    /// Panics if any vector's universe differs from `nbits`.
    pub fn from_vecs<'a, I>(nbits: usize, vecs: I) -> Self
    where
        I: IntoIterator<Item = &'a KeywordVec>,
    {
        let mut cat = Self::new(nbits);
        for v in vecs {
            cat.push(v);
        }
        cat
    }

    /// Append one vector as the last row.
    ///
    /// # Panics
    /// Panics if `v`'s universe differs from the catalog's.
    pub fn push(&mut self, v: &KeywordVec) {
        assert_eq!(
            v.nbits(),
            self.nbits,
            "vector universe {} != catalog universe {}",
            v.nbits(),
            self.nbits
        );
        self.data.extend_from_slice(v.blocks());
        self.data
            .resize(self.data.len() + (self.stride - self.blocks), 0);
        self.pops.push(blocks_pop(v.blocks()));
        self.n += 1;
    }

    /// Remove row `i`, shifting later rows up (order-preserving, so an
    /// incrementally maintained catalog stays row-for-row identical to a
    /// fresh pack of the same vectors).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.n, "row {i} out of range {}", self.n);
        self.data.drain(i * self.stride..(i + 1) * self.stride);
        self.pops.remove(i);
        self.n -= 1;
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the catalog has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The keyword universe size.
    #[inline]
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Physical row stride in 64-bit blocks (padded).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i` as its padded block slice.
    #[inline]
    pub(super) fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// The contiguous block data of rows `start .. start + n_rows`.
    #[inline]
    pub(super) fn rows_from(&self, start: usize, n_rows: usize) -> &[u64] {
        &self.data[start * self.stride..(start + n_rows) * self.stride]
    }

    /// Cached popcounts of rows `start .. start + n_rows`.
    #[inline]
    pub(super) fn pops_from(&self, start: usize, n_rows: usize) -> &[u32] {
        &self.pops[start..start + n_rows]
    }

    /// Cached popcount of row `i`.
    #[inline]
    pub(super) fn row_pop(&self, i: usize) -> u32 {
        self.pops[i]
    }

    /// Copy `query`'s blocks into a stride-length buffer (zero padding) so
    /// the lane loops can treat it like a catalog row. A narrower query is
    /// zero-extended.
    pub(super) fn pad_query(&self, query: &KeywordVec) -> Vec<u64> {
        let mut padded = vec![0u64; self.stride];
        let q = query.blocks();
        padded[..q.len()].copy_from_slice(q);
        padded
    }

    /// Reconstruct row `i` as a [`KeywordVec`] (exactly the vector that was
    /// packed).
    ///
    /// # Panics
    /// Panics if `i >= len()` or the stored blocks have stray bits above
    /// `nbits` (impossible unless the catalog was corrupted).
    pub fn unpack(&self, i: usize) -> KeywordVec {
        assert!(i < self.n, "row {i} out of range {}", self.n);
        let row = &self.data[i * self.stride..i * self.stride + self.blocks];
        KeywordVec::from_blocks(self.nbits, row.to_vec())
            .expect("packed row has stray bits beyond nbits")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let nbits = 130;
        let vecs: Vec<KeywordVec> = (0..7)
            .map(|i| KeywordVec::from_indices(nbits, &[i, i * 13 % nbits, 129]))
            .collect();
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        assert_eq!(cat.len(), 7);
        assert_eq!(cat.nbits(), nbits);
        assert_eq!(cat.stride() % LANE_BLOCKS, 0);
        for (i, v) in vecs.iter().enumerate() {
            assert_eq!(&cat.unpack(i), v);
        }
    }

    #[test]
    fn incremental_insert_remove_matches_fresh_pack() {
        let nbits = 67;
        let mk = |seed: usize| KeywordVec::from_indices(nbits, &[seed % nbits, (seed * 7) % nbits]);
        let mut cat = PackedCatalog::new(nbits);
        let mut mirror: Vec<KeywordVec> = Vec::new();
        for i in 0..10 {
            cat.push(&mk(i));
            mirror.push(mk(i));
        }
        cat.remove(3);
        mirror.remove(3);
        cat.remove(0);
        mirror.remove(0);
        cat.push(&mk(99));
        mirror.push(mk(99));
        let fresh = PackedCatalog::from_vecs(nbits, mirror.iter());
        assert_eq!(cat, fresh);
    }

    #[test]
    fn zero_width_universe() {
        let cat = PackedCatalog::from_vecs(0, [KeywordVec::new(0)].iter());
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.stride(), 0);
        assert_eq!(cat.unpack(0), KeywordVec::new(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_out_of_range_panics() {
        let mut cat = PackedCatalog::new(8);
        cat.remove(0);
    }
}
