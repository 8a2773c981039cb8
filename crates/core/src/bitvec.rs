//! Compact boolean keyword vectors.
//!
//! Tasks and workers are boolean vectors over the keyword universe `S`
//! (Section II of the paper). [`KeywordVec`] packs them into 64-bit blocks
//! so Jaccard-style set operations reduce to a handful of popcounts.

/// A fixed-width boolean vector over a keyword universe of `nbits` keywords.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeywordVec {
    nbits: usize,
    blocks: Vec<u64>,
}

impl KeywordVec {
    /// An all-zero vector over `nbits` keywords.
    pub fn new(nbits: usize) -> Self {
        Self {
            nbits,
            blocks: vec![0; nbits.div_ceil(64)],
        }
    }

    /// Build from a list of set keyword indices.
    ///
    /// # Panics
    /// Panics if any index is `>= nbits`.
    pub fn from_indices(nbits: usize, indices: &[usize]) -> Self {
        let mut v = Self::new(nbits);
        for &i in indices {
            v.set(i);
        }
        v
    }

    /// The size of the keyword universe.
    #[inline]
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Set keyword `i`.
    ///
    /// # Panics
    /// Panics if `i >= nbits`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i < self.nbits,
            "keyword index {i} out of range {}",
            self.nbits
        );
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear keyword `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i < self.nbits,
            "keyword index {i} out of range {}",
            self.nbits
        );
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether keyword `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.nbits,
            "keyword index {i} out of range {}",
            self.nbits
        );
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set keywords.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `|self ∩ other|`.
    ///
    /// # Panics
    /// Panics if the universes differ.
    #[inline]
    pub fn intersection_count(&self, other: &Self) -> usize {
        self.check_compat(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self ∪ other|`.
    #[inline]
    pub fn union_count(&self, other: &Self) -> usize {
        self.check_compat(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// `|self Δ other|` (symmetric difference).
    #[inline]
    pub fn symmetric_difference_count(&self, other: &Self) -> usize {
        self.check_compat(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterator over the indices of set keywords, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let tz = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(bi * 64 + tz)
                }
            })
        })
    }

    /// The same keywords over a universe of `nbits ≥ self.nbits()`: keyword
    /// ids are stable, so widening only appends zero bits.
    ///
    /// # Panics
    /// Panics if `nbits` is smaller than the vector's width.
    pub fn widened(&self, nbits: usize) -> Self {
        assert!(
            nbits >= self.nbits,
            "vector wider than the keyword universe"
        );
        let mut blocks = self.blocks.clone();
        blocks.resize(nbits.div_ceil(64), 0);
        Self { nbits, blocks }
    }

    /// The raw 64-bit blocks (little-endian bit order within a block); every
    /// bit at or above `nbits` is zero.
    #[inline]
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuild from raw blocks, e.g. when decoding a snapshot. Returns
    /// `None` unless the block count matches `nbits` exactly and every bit
    /// above `nbits` is zero (so restored vectors compare equal to freshly
    /// built ones).
    pub(crate) fn from_blocks(nbits: usize, blocks: Vec<u64>) -> Option<Self> {
        if blocks.len() != nbits.div_ceil(64) {
            return None;
        }
        if !nbits.is_multiple_of(64) {
            if let Some(&last) = blocks.last() {
                if last >> (nbits % 64) != 0 {
                    return None;
                }
            }
        }
        Some(Self { nbits, blocks })
    }

    #[inline]
    fn check_compat(&self, other: &Self) {
        assert_eq!(
            self.nbits, other.nbits,
            "keyword vectors from different universes"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut v = KeywordVec::new(130);
        assert!(!v.get(0));
        v.set(0);
        v.set(64);
        v.set(129);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert_eq!(v.count_ones(), 3);
        v.clear(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut v = KeywordVec::new(10);
        v.set(10);
    }

    #[test]
    fn from_indices() {
        let v = KeywordVec::from_indices(8, &[1, 3, 5]);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![1, 3, 5]);
    }

    #[test]
    fn widened_equals_a_rebuild_over_the_wider_universe() {
        let v = KeywordVec::from_indices(60, &[0, 7, 59]);
        for nbits in [60, 64, 65, 130] {
            let want = KeywordVec::from_indices(nbits, &[0, 7, 59]);
            assert_eq!(v.widened(nbits), want);
        }
    }

    #[test]
    fn set_operations() {
        let a = KeywordVec::from_indices(100, &[1, 2, 3, 70]);
        let b = KeywordVec::from_indices(100, &[2, 3, 4, 99]);
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.union_count(&b), 6);
        assert_eq!(a.symmetric_difference_count(&b), 4);
    }

    #[test]
    fn empty_vectors() {
        let a = KeywordVec::new(50);
        let b = KeywordVec::new(50);
        assert_eq!(a.intersection_count(&b), 0);
        assert_eq!(a.union_count(&b), 0);
        assert_eq!(a.count_ones(), 0);
        assert_eq!(a.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mismatched_universes_panic() {
        let a = KeywordVec::new(10);
        let b = KeywordVec::new(11);
        let _ = a.intersection_count(&b);
    }

    #[test]
    fn iter_ones_across_blocks() {
        let idx = [0usize, 63, 64, 127, 128];
        let v = KeywordVec::from_indices(200, &idx);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, idx);
    }

    #[test]
    fn zero_width_universe() {
        let v = KeywordVec::new(0);
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.nbits(), 0);
    }
}
