//! Vectorized similarity kernels.
//!
//! Every hot path in the pipeline — diversity edge enumeration (Eq. 2),
//! relevance scoring (Eq. 1), the QAP profit fill, the index rescore loops,
//! and the crowd platform's boredom/diversity scoring — bottoms out in
//! Jaccard popcounts over [`KeywordVec`] blocks. This module batches those
//! popcounts over a structure-of-arrays [`PackedCatalog`] and runs them
//! through one of three backends:
//!
//! | mode     | arch      | popcount strategy                              |
//! |----------|-----------|------------------------------------------------|
//! | `avx2`   | `x86_64`  | shuffle-LUT nibble counts + `_mm256_sad_epu8`  |
//! | `neon`   | `aarch64` | `vcntq_u8` byte counts + pairwise widening add |
//! | `scalar` | any       | the original `u64::count_ones` zip loop        |
//!
//! The backend is selected **once** per process by runtime feature
//! detection, overridable with `HTA_SIMD=auto|avx2|neon|scalar` (an
//! unavailable request falls back to `scalar`). The effective mode is
//! surfaced in the simulate repro header and the server's `/stats`.
//!
//! ## Identity argument
//!
//! Every kernel returns **exact integer counts** (intersection/union
//! popcounts are sums of per-block popcounts — associative, order-free
//! integer additions that cannot overflow for any realistic universe), and
//! the single f64 division happens in one shared place,
//! [`jaccard_from_counts`], with the same operation order as the scalar
//! [`crate::metric::Jaccard`]. SIMD output is therefore bit-identical to
//! scalar — pinned by the parity proptests in `tests/kernel_parity.rs` and
//! the solver byte-identity suites run under each dispatch mode in CI.

use std::sync::OnceLock;

use crate::bitvec::KeywordVec;

mod packed;
mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

pub use packed::PackedCatalog;

/// The resolved SIMD dispatch mode (what the kernels actually run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Portable `u64::count_ones` loops — always available.
    Scalar,
    /// 256-bit AVX2 shuffle-LUT popcount (`x86_64` with AVX2).
    Avx2,
    /// 128-bit NEON `vcntq_u8` popcount (`aarch64`).
    Neon,
}

impl SimdMode {
    /// Stable lowercase name, as accepted by `HTA_SIMD` and printed in the
    /// repro header and `/stats`.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Avx2 => "avx2",
            SimdMode::Neon => "neon",
        }
    }
}

fn detect_auto() -> SimdMode {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdMode::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the AArch64 base ISA.
        return SimdMode::Neon;
    }
    #[allow(unreachable_code)]
    SimdMode::Scalar
}

fn resolve_mode() -> SimdMode {
    let requested = std::env::var("HTA_SIMD").unwrap_or_default();
    match requested.trim().to_ascii_lowercase().as_str() {
        "scalar" => SimdMode::Scalar,
        "avx2" => {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdMode::Avx2;
            }
            SimdMode::Scalar
        }
        "neon" => {
            #[cfg(target_arch = "aarch64")]
            return SimdMode::Neon;
            #[allow(unreachable_code)]
            SimdMode::Scalar
        }
        // "auto", unset, or anything unrecognized: detect.
        _ => detect_auto(),
    }
}

/// The active dispatch mode, resolved once per process from runtime feature
/// detection and the `HTA_SIMD` environment override.
pub fn active_mode() -> SimdMode {
    static MODE: OnceLock<SimdMode> = OnceLock::new();
    *MODE.get_or_init(resolve_mode)
}

/// `active_mode().name()` — convenience for headers and stats payloads.
pub fn mode_name() -> &'static str {
    active_mode().name()
}

/// Whether `mode` can actually run on this machine — `Scalar` always,
/// `Avx2`/`Neon` only with the matching architecture (and CPU feature).
/// Parity harnesses use this to skip modes that would silently fall back.
pub fn mode_available(mode: SimdMode) -> bool {
    match mode {
        SimdMode::Scalar => true,
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            false
        }
        SimdMode::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// The shared count→distance step: Jaccard distance
/// `1 − inter/union`, with two empty sets at distance 0. This is the **only**
/// place integer counts become an f64, so scalar and SIMD backends cannot
/// diverge in the float domain.
#[inline]
pub fn jaccard_from_counts(inter: u64, union: u64) -> f64 {
    if union == 0 {
        return 0.0;
    }
    1.0 - inter as f64 / union as f64
}

/// `(|a ∩ b|, |a ∪ b|)` for two equal-length block slices, through the
/// backend for `mode` (an unavailable backend falls back to scalar).
#[inline]
fn inter_union_blocks(mode: SimdMode, a: &[u64], b: &[u64]) -> (u64, u64) {
    debug_assert_eq!(a.len(), b.len());
    match mode {
        #[cfg(target_arch = "x86_64")]
        SimdMode::Avx2 => unsafe { avx2::inter_union_pair(a, b) },
        #[cfg(target_arch = "aarch64")]
        SimdMode::Neon => unsafe { neon::inter_union_pair(a, b) },
        _ => scalar::inter_union_pair(a, b),
    }
}

/// `(|a ∩ b|, |a ∪ b|)` of two keyword vectors through the active backend.
///
/// # Panics
/// Panics if the universes differ.
pub fn intersection_union(a: &KeywordVec, b: &KeywordVec) -> (u64, u64) {
    intersection_union_with_mode(active_mode(), a, b)
}

/// [`intersection_union`] through an explicit backend — for parity and
/// bench harnesses that compare modes within one process; production
/// callers use the `active_mode()` entry points.
///
/// # Panics
/// Panics if the universes differ.
pub fn intersection_union_with_mode(mode: SimdMode, a: &KeywordVec, b: &KeywordVec) -> (u64, u64) {
    assert_eq!(
        a.nbits(),
        b.nbits(),
        "keyword vectors from different universes"
    );
    inter_union_blocks(mode, a.blocks(), b.blocks())
}

/// Jaccard distance between two keyword vectors — the shared entry point
/// for every one-pair Jaccard in the workspace ([`crate::metric::Jaccard`],
/// the crowd platform's scoring, the server's completion bookkeeping), so
/// callers cannot drift from the canonical formula.
///
/// # Panics
/// Panics if the universes differ.
#[inline]
pub fn jaccard_distance(a: &KeywordVec, b: &KeywordVec) -> f64 {
    let (inter, union) = intersection_union(a, b);
    jaccard_from_counts(inter, union)
}

/// Fill `out[i]` with the Jaccard distance between `query` and catalog row
/// `start + i`. The batched core of the relevance row fill (Eq. 1 feeding
/// the QAP profit matrix) and of one-vs-many rescoring. A narrower query
/// is zero-extended to the catalog universe.
///
/// # Panics
/// Panics if the query universe is wider than the catalog's, or
/// `start + out.len()` exceeds the catalog.
pub fn jaccard_one_vs_many(query: &KeywordVec, cat: &PackedCatalog, start: usize, out: &mut [f64]) {
    jaccard_one_vs_many_with_mode(active_mode(), query, cat, start, out);
}

/// [`jaccard_one_vs_many`] through an explicit backend (see
/// [`intersection_union_with_mode`] for when to use the `_with_mode`
/// variants).
pub fn jaccard_one_vs_many_with_mode(
    mode: SimdMode,
    query: &KeywordVec,
    cat: &PackedCatalog,
    start: usize,
    out: &mut [f64],
) {
    assert!(
        query.nbits() <= cat.nbits(),
        "query universe wider than the catalog's"
    );
    assert!(start + out.len() <= cat.len(), "row range out of bounds");
    if out.is_empty() {
        return;
    }
    let padded = cat.pad_query(query);
    let qpop = padded.iter().map(|b| b.count_ones()).sum();
    jaccard_many(mode, &padded, qpop, cat, start, out);
}

/// Fill `out[i]` with the Jaccard distance between catalog rows `u` and
/// `u + 1 + i` — one row of the upper-triangle pairwise enumeration
/// (`edges.rs` row-chunked edge enumeration, the dense diversity cache).
///
/// # Panics
/// Panics if `u + 1 + out.len()` exceeds the catalog.
pub fn pairwise_distance_block(cat: &PackedCatalog, u: usize, out: &mut [f64]) {
    pairwise_distance_block_with_mode(active_mode(), cat, u, out);
}

/// [`pairwise_distance_block`] through an explicit backend (see
/// [`intersection_union_with_mode`] for when to use the `_with_mode`
/// variants).
pub fn pairwise_distance_block_with_mode(
    mode: SimdMode,
    cat: &PackedCatalog,
    u: usize,
    out: &mut [f64],
) {
    assert!(u + 1 + out.len() <= cat.len(), "row range out of bounds");
    if out.is_empty() {
        return;
    }
    // Row `u` is already padded to the catalog stride — no copy needed, and
    // its popcount is already cached.
    jaccard_many(mode, cat.row(u), cat.row_pop(u), cat, u + 1, out);
}

/// Fill `out` with Jaccard distances between `query` (already padded to the
/// catalog stride, popcount `qpop`) and catalog rows `start ..`.
///
/// Only **intersections** run through the vector backend; unions come from
/// the catalog's cached per-row popcounts via the inclusion–exclusion
/// identity `|q ∪ r| = |q| + |r| − |q ∩ r|`. All three quantities are exact
/// integers, so the derived union equals the popcount of the OR bit for
/// bit — and the kernel streams half the vector work per row. The AVX2
/// backend also vectorizes the count→distance finalize; IEEE division and
/// subtraction are correctly rounded in both scalar and vector forms, so
/// the distances stay bit-identical (see `avx2::jaccard_finalize`).
fn jaccard_many(
    mode: SimdMode,
    query: &[u64],
    qpop: u32,
    cat: &PackedCatalog,
    start: usize,
    out: &mut [f64],
) {
    let stride = cat.stride();
    let n_rows = out.len();
    let data = cat.rows_from(start, n_rows);
    let pops = cat.pops_from(start, n_rows);
    // Process in bounded chunks so the counts scratch stays cache-resident
    // regardless of catalog size.
    const CHUNK_ROWS: usize = 1024;
    let mut counts = vec![0u32; n_rows.min(CHUNK_ROWS)];
    let mut row = 0usize;
    while row < n_rows {
        let take = (n_rows - row).min(CHUNK_ROWS);
        let chunk = &data[row * stride..(row + take) * stride];
        let counts = &mut counts[..take];
        let pops = &pops[row..row + take];
        let out = &mut out[row..row + take];
        match mode {
            #[cfg(target_arch = "x86_64")]
            SimdMode::Avx2 => unsafe {
                avx2::inter_many(query, chunk, stride, counts);
                avx2::jaccard_finalize(qpop, pops, counts, out);
            },
            #[cfg(target_arch = "aarch64")]
            SimdMode::Neon => unsafe {
                neon::inter_many(query, chunk, stride, counts);
                jaccard_finalize_scalar(qpop, pops, counts, out);
            },
            _ => {
                scalar::inter_many(query, chunk, stride, counts);
                jaccard_finalize_scalar(qpop, pops, counts, out);
            }
        }
        row += take;
    }
}

/// Scalar count→distance finalize shared by the scalar and NEON paths.
fn jaccard_finalize_scalar(qpop: u32, pops: &[u32], inters: &[u32], out: &mut [f64]) {
    for i in 0..out.len() {
        let inter = inters[i] as u64;
        let union = qpop as u64 + pops[i] as u64 - inter;
        out[i] = jaccard_from_counts(inter, union);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Distance, Jaccard};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random_vec(rng: &mut StdRng, nbits: usize, density_pct: u32) -> KeywordVec {
        let mut v = KeywordVec::new(nbits);
        for i in 0..nbits {
            if rng.random_range(0u32..100) < density_pct {
                v.set(i);
            }
        }
        v
    }

    /// Every backend available on this machine must agree with scalar on
    /// exact counts, across ragged tails, empty, and dense vectors.
    #[test]
    fn backends_agree_on_counts() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for nbits in [0usize, 1, 63, 64, 65, 127, 128, 130, 200, 256, 1000] {
            for density in [0u32, 5, 50, 100] {
                let a = random_vec(&mut rng, nbits, density);
                let b = random_vec(&mut rng, nbits, density);
                let expected = scalar::inter_union_pair(a.blocks(), b.blocks());
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let got = unsafe { avx2::inter_union_pair(a.blocks(), b.blocks()) };
                    assert_eq!(got, expected, "avx2 nbits={nbits} density={density}");
                }
                #[cfg(target_arch = "aarch64")]
                {
                    let got = unsafe { neon::inter_union_pair(a.blocks(), b.blocks()) };
                    assert_eq!(got, expected, "neon nbits={nbits} density={density}");
                }
                assert_eq!(
                    (a.intersection_count(&b) as u64, a.union_count(&b) as u64),
                    expected
                );
            }
        }
    }

    #[test]
    fn one_vs_many_matches_pairwise_scalar() {
        let mut rng = StdRng::seed_from_u64(7);
        let nbits = 130;
        let vecs: Vec<KeywordVec> = (0..33).map(|_| random_vec(&mut rng, nbits, 20)).collect();
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        let query = random_vec(&mut rng, nbits, 20);
        let mut out = vec![0.0f64; vecs.len()];
        jaccard_one_vs_many(&query, &cat, 0, &mut out);
        for (i, v) in vecs.iter().enumerate() {
            assert_eq!(out[i].to_bits(), Jaccard.dist(&query, v).to_bits(), "{i}");
        }
    }

    #[test]
    fn pairwise_block_matches_direct() {
        let mut rng = StdRng::seed_from_u64(9);
        let nbits = 70;
        let vecs: Vec<KeywordVec> = (0..17).map(|_| random_vec(&mut rng, nbits, 30)).collect();
        let cat = PackedCatalog::from_vecs(nbits, vecs.iter());
        for u in 0..vecs.len() {
            let mut out = vec![0.0f64; vecs.len() - u - 1];
            pairwise_distance_block(&cat, u, &mut out);
            for (off, d) in out.iter().enumerate() {
                let v = u + 1 + off;
                assert_eq!(d.to_bits(), Jaccard.dist(&vecs[u], &vecs[v]).to_bits());
            }
        }
    }

    #[test]
    fn mode_name_is_stable() {
        let m = active_mode();
        assert!(["scalar", "avx2", "neon"].contains(&m.name()));
        assert_eq!(mode_name(), m.name());
    }

    #[test]
    fn jaccard_from_counts_empty_union_is_zero() {
        assert_eq!(jaccard_from_counts(0, 0), 0.0);
        assert_eq!(jaccard_from_counts(2, 4), 0.5);
    }
}
