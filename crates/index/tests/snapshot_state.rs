//! Round-trip tests for the index `StateSerialize` impls.
//!
//! The resume-identity guarantee needs a restored index to be not merely
//! *equivalent* but *operationally identical* to the live one: posting-list
//! order encodes swap-remove history, and future removes/queries must
//! behave byte-identically. These tests drive random insert/remove
//! histories, snapshot mid-flight, and check both structural equality and
//! continued-operation equality.

use hta_core::state::{decode, encode, StateDecodeError};
use hta_core::KeywordVec;
use hta_index::InvertedIndex;
use proptest::prelude::*;

fn kw(nbits: usize, bits: &[usize]) -> KeywordVec {
    KeywordVec::from_indices(nbits, bits)
}

/// Exact structural view: posting lists *in order* (not sorted — order is
/// part of the state), the open set, and every open task's keywords.
fn exact_view(index: &InvertedIndex) -> (Vec<Vec<u32>>, Vec<u32>, Vec<Vec<u32>>) {
    (
        (0..index.nbits() as u32)
            .map(|b| index.postings(b).to_vec())
            .collect(),
        index.open_tasks().collect(),
        index
            .open_tasks()
            .map(|t| index.keywords_of(t).collect())
            .collect(),
    )
}

#[test]
fn built_round_trip_preserves_exact_state() {
    let nbits = 40;
    let vecs: Vec<KeywordVec> = (0..80)
        .map(|i| {
            kw(
                nbits,
                &[i % nbits, (i * 7 + 3) % nbits, (i * 13 + 1) % nbits],
            )
        })
        .collect();
    let pairs: Vec<(u32, &KeywordVec)> = vecs
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u32, v))
        .collect();
    let mut idx = InvertedIndex::build(nbits, &pairs);
    // Give it a swap-remove history so list order is non-trivial.
    for t in [3u32, 40, 12, 77, 5] {
        assert!(idx.remove(t));
    }
    idx.insert(12, &vecs[12]);

    let back: InvertedIndex = decode(&encode(&idx)).expect("round trip");
    assert_eq!(exact_view(&back), exact_view(&idx));

    // Operational identity: the same future mutations and queries give
    // the same results on both copies.
    let mut live = idx.clone();
    let mut restored = back;
    for t in [40u32, 0, 61, 12] {
        assert_eq!(live.remove(t), restored.remove(t), "remove {t}");
    }
    live.insert(3, &vecs[3]);
    restored.insert(3, &vecs[3]);
    assert_eq!(exact_view(&live), exact_view(&restored));
    let worker = kw(nbits, &[0, 5, 11, 22, 39]);
    assert_eq!(live.top_k(&worker, 16), restored.top_k(&worker, 16));
}

#[test]
fn decoded_index_answers_dense_queries_bit_identically() {
    // 9,000 tasks all carrying keyword 0: each worker below holds keyword
    // 0 plus others, so its candidate postings reach both the task-id
    // space and the dense-rescore cutoff (8,192), and `top_k` takes the
    // packed-mirror body. The mirror is not serialized; a decode that
    // failed to rebuild it would score nothing here.
    let nbits = 70;
    let vecs: Vec<KeywordVec> = (0..9_000)
        .map(|i| kw(nbits, &[0, 1 + i % (nbits - 1), 1 + (i * 7) % (nbits - 1)]))
        .collect();
    let pairs: Vec<(u32, &KeywordVec)> = vecs
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u32, v))
        .collect();
    let mut idx = InvertedIndex::build(nbits, &pairs);
    for t in (0..9_000u32).step_by(97) {
        assert!(idx.remove(t));
    }
    idx.widen(nbits + 3);
    let back: InvertedIndex = decode(&encode(&idx)).expect("round trip");
    for bits in [&[0usize, 40][..], &[0, 5, 33], &[0, 1, 2, 3, 4, 69, 72]] {
        let candidates: usize = bits.iter().map(|&b| idx.df(b as u32)).sum();
        assert!(candidates >= 9_000, "{bits:?} must take the dense body");
        let worker = kw(nbits + 3, bits);
        let want = idx.top_k(&worker, 50);
        assert_eq!(want.len(), 50, "the live index scores the query");
        let got = back.top_k(&worker, 50);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }
}

#[test]
fn flat_round_trip_preserves_exact_state() {
    let nbits = 24;
    let vecs: Vec<KeywordVec> = (0..50)
        .map(|i| kw(nbits, &[i % nbits, (i * 5 + 2) % nbits]))
        .collect();
    let mut idx = InvertedIndex::new(nbits);
    for (i, v) in vecs.iter().enumerate() {
        idx.insert(i as u32, v);
    }
    for t in [9u32, 30, 2] {
        idx.remove(t);
    }
    let mut back: InvertedIndex = decode(&encode(&idx)).expect("round trip");
    assert_eq!(back.len(), idx.len());
    for b in 0..nbits as u32 {
        assert_eq!(back.postings(b), idx.postings(b), "keyword {b}");
    }
    // Restored back-references still support removal.
    let mut live = idx.clone();
    for t in [30u32, 44, 0] {
        assert_eq!(live.remove(t), back.remove(t));
    }
    for b in 0..nbits as u32 {
        assert_eq!(back.postings(b), live.postings(b), "keyword {b}");
    }
}

#[test]
fn corrupt_blobs_are_rejected() {
    let nbits = 16;
    let vecs: Vec<KeywordVec> = (0..10).map(|i| kw(nbits, &[i % nbits])).collect();
    let pairs: Vec<(u32, &KeywordVec)> = vecs
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u32, v))
        .collect();
    let idx = InvertedIndex::build(nbits, &pairs);
    let bytes = encode(&idx);

    // Truncations fail cleanly.
    for cut in [0usize, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(decode::<InvertedIndex>(&bytes[..cut]).is_err(), "cut={cut}");
    }

    // A doc_len inconsistent with the postings is caught by validation.
    let mut tampered = bytes.clone();
    // Layout starts: nbits u64, docs u64, doc_len (len u64 + 10 × u32).
    // Bump doc_len[0] from 1 to 2.
    let doc0 = 8 + 8 + 8;
    tampered[doc0] = 2;
    let err = decode::<InvertedIndex>(&tampered).unwrap_err();
    assert!(matches!(err, StateDecodeError::Invalid(_)), "{err}");
}

proptest! {
    /// Random insert/remove interleavings: the decoded index equals the
    /// live one exactly and keeps matching it under continued mutation.
    #[test]
    fn state_round_trips_under_random_histories(
        kw_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..20, 0..4),
            1..30,
        ),
        removals in proptest::collection::vec(0u8..2, 30),
        reinserts in proptest::collection::vec(0u8..2, 30),
    ) {
        let nbits = 20;
        let vecs: Vec<KeywordVec> = kw_picks
            .iter()
            .map(|picks| {
                let mut v = KeywordVec::new(nbits);
                for &b in picks {
                    v.set(b);
                }
                v
            })
            .collect();
        let mut idx = InvertedIndex::new(nbits);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u32, v);
        }
        for (i, &r) in removals.iter().enumerate().take(vecs.len()) {
            if r == 1 {
                idx.remove(i as u32);
            }
        }
        let mut back: InvertedIndex = decode(&encode(&idx)).expect("round trip");
        prop_assert_eq!(exact_view(&back), exact_view(&idx));

        // Continued mutation keeps both copies identical, queries included.
        for (i, v) in vecs.iter().enumerate() {
            if reinserts[i] == 1 {
                prop_assert_eq!(idx.insert(i as u32, v), back.insert(i as u32, v));
            } else {
                prop_assert_eq!(idx.remove(i as u32), back.remove(i as u32));
            }
        }
        prop_assert_eq!(exact_view(&back), exact_view(&idx));
        let worker = KeywordVec::from_indices(nbits, &[0, 3, 7, 19]);
        prop_assert_eq!(back.top_k(&worker, 8), idx.top_k(&worker, 8));
    }
}
