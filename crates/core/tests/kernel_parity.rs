//! Property-based parity suite for the SIMD kernel layer: every backend
//! available on this machine must be **bit-identical** to scalar on
//! arbitrary vectors — ragged universes (not multiples of 64), empty and
//! dense rows included — and the packed catalog must round-trip exactly,
//! fresh or incrementally maintained.

use hta_core::kernels::{
    intersection_union_with_mode, jaccard_one_vs_many_with_mode, mode_available,
    pairwise_distance_block_with_mode, PackedCatalog, SimdMode,
};
use hta_core::KeywordVec;
use proptest::prelude::*;

/// Every mode that can actually run here (scalar plus the native backend).
fn available_modes() -> Vec<SimdMode> {
    [SimdMode::Scalar, SimdMode::Avx2, SimdMode::Neon]
        .into_iter()
        .filter(|&m| mode_available(m))
        .collect()
}

/// Ragged universe sizes: empty, around the 64-bit block boundary, around
/// the 256-bit lane boundary, and beyond one lane group.
const RAGGED_NBITS: [usize; 14] = [0, 1, 63, 64, 65, 70, 127, 128, 130, 200, 256, 260, 300, 520];

fn nbits_strategy() -> impl Strategy<Value = usize> {
    (0usize..RAGGED_NBITS.len()).prop_map(|i| RAGGED_NBITS[i])
}

/// A vector over `nbits` keywords with a drawn density in 0–100% (empty
/// and all-ones both reachable).
fn vec_over(nbits: usize) -> impl Strategy<Value = KeywordVec> {
    (0u32..=100, proptest::collection::vec(0u32..100, nbits)).prop_map(move |(density, vals)| {
        let mut v = KeywordVec::new(nbits);
        for (i, val) in vals.iter().enumerate() {
            if *val < density {
                v.set(i);
            }
        }
        v
    })
}

/// A universe plus a catalog of vectors and a query over it.
fn catalog_strategy() -> impl Strategy<Value = (usize, Vec<KeywordVec>, KeywordVec)> {
    nbits_strategy().prop_flat_map(|nbits| {
        (
            Just(nbits),
            proptest::collection::vec(vec_over(nbits), 0..12),
            vec_over(nbits),
        )
    })
}

proptest! {
    // ---- PackedCatalog round-trip ------------------------------------

    #[test]
    fn pack_unpack_is_the_identity((nbits, vecs, _q) in catalog_strategy()) {
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        prop_assert_eq!(cat.len(), vecs.len());
        for (i, v) in vecs.iter().enumerate() {
            prop_assert_eq!(&cat.unpack(i), v, "row {} changed across pack/unpack", i);
        }
    }

    #[test]
    fn incremental_maintenance_matches_fresh_pack(
        (nbits, vecs, extra) in catalog_strategy(),
        removals in proptest::collection::vec(0usize..1024, 0..4),
    ) {
        let mut cat = PackedCatalog::new(nbits);
        let mut mirror: Vec<KeywordVec> = Vec::new();
        for v in &vecs {
            cat.push(v);
            mirror.push(v.clone());
        }
        for r in &removals {
            if mirror.is_empty() {
                break;
            }
            let i = r % mirror.len();
            cat.remove(i);
            mirror.remove(i);
        }
        cat.push(&extra);
        mirror.push(extra);
        let fresh = PackedCatalog::from_vecs(nbits, mirror.iter());
        prop_assert_eq!(cat, fresh);
    }

    // ---- backend parity ----------------------------------------------

    #[test]
    fn pair_counts_are_mode_invariant((_nbits, vecs, q) in catalog_strategy()) {
        for v in &vecs {
            let reference = (
                q.intersection_count(v) as u64,
                q.union_count(v) as u64,
            );
            for &mode in &available_modes() {
                prop_assert_eq!(
                    intersection_union_with_mode(mode, &q, v),
                    reference,
                    "mode {:?} diverged on a pair",
                    mode
                );
            }
        }
    }

    #[test]
    fn one_vs_many_is_bit_identical_across_modes((nbits, vecs, q) in catalog_strategy()) {
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        let n = cat.len();
        let mut scalar_d = vec![0.0f64; n];
        jaccard_one_vs_many_with_mode(SimdMode::Scalar, &q, &cat, 0, &mut scalar_d);
        for &mode in &available_modes() {
            let mut d = vec![0.0f64; n];
            jaccard_one_vs_many_with_mode(mode, &q, &cat, 0, &mut d);
            for i in 0..n {
                prop_assert_eq!(
                    d[i].to_bits(),
                    scalar_d[i].to_bits(),
                    "mode {:?} distance diverged at row {}",
                    mode,
                    i
                );
            }
        }
    }

    #[test]
    fn pairwise_blocks_are_bit_identical_across_modes((nbits, vecs, _q) in catalog_strategy()) {
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        let n = cat.len();
        for u in 0..n {
            let mut scalar_row = vec![0.0f64; n - u - 1];
            pairwise_distance_block_with_mode(SimdMode::Scalar, &cat, u, &mut scalar_row);
            for &mode in &available_modes() {
                let mut row = vec![0.0f64; n - u - 1];
                pairwise_distance_block_with_mode(mode, &cat, u, &mut row);
                for (i, (a, b)) in row.iter().zip(&scalar_row).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "mode {:?} diverged at row {}, offset {}",
                        mode,
                        u,
                        i
                    );
                }
            }
        }
    }

    // ---- zero-extension semantics ------------------------------------

    #[test]
    fn narrow_queries_are_zero_extended((nbits, vecs, _q) in catalog_strategy()) {
        // A query from a narrower universe behaves exactly like the same
        // bits re-expressed over the catalog universe.
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        let narrow_bits = nbits.min(40);
        let narrow = KeywordVec::from_indices(narrow_bits, &(0..narrow_bits).step_by(3).collect::<Vec<_>>());
        let wide = KeywordVec::from_indices(nbits, &narrow.iter_ones().collect::<Vec<_>>());
        let n = cat.len();
        for &mode in &available_modes() {
            let (mut a, mut b) = (vec![0.0f64; n], vec![0.0f64; n]);
            jaccard_one_vs_many_with_mode(mode, &narrow, &cat, 0, &mut a);
            jaccard_one_vs_many_with_mode(mode, &wide, &cat, 0, &mut b);
            for i in 0..n {
                prop_assert_eq!(a[i].to_bits(), b[i].to_bits(), "row {}", i);
            }
        }
    }
}
