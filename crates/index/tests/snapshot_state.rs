//! Round-trip tests for the index `StateSerialize` impls.
//!
//! The resume-identity guarantee needs a restored index to be not merely
//! *equivalent* but *operationally identical* to the live one: future
//! removes and queries must behave byte-identically. These tests drive
//! random insert/remove histories, snapshot mid-flight, and check both
//! content equality and continued-operation equality. The written posting
//! lists are ascending; a reader accepts any order, which keeps states
//! written with swap-remove-ordered lists loadable.

use hta_core::state::{decode, encode, StateDecodeError, StateSerialize};
use hta_core::KeywordVec;
use hta_index::InvertedIndex;
use proptest::prelude::*;

fn kw(nbits: usize, bits: &[usize]) -> KeywordVec {
    KeywordVec::from_indices(nbits, bits)
}

/// Exact view: the open set, every open task's keywords, and the state
/// bytes the index writes.
fn exact_view(index: &InvertedIndex) -> (Vec<u32>, Vec<Vec<u32>>, Vec<u8>) {
    (
        index.open_tasks().collect(),
        index
            .open_tasks()
            .map(|t| index.keywords_of(t).collect())
            .collect(),
        encode(index),
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
    // Give it a remove/re-insert history.
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
    // 0 plus others, so its query touches every open task. The classes
    // are not serialized; a decode that failed to rebuild them would
    // score nothing here.
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
        let worker = kw(nbits + 3, bits);
        let reached = idx.top_k(&worker, usize::MAX).len();
        assert_eq!(reached, idx.len(), "{bits:?} must reach every open task");
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
    assert_eq!(exact_view(&back), exact_view(&idx));
    // Restored classes still support removal.
    let mut live = idx.clone();
    for t in [30u32, 44, 0] {
        assert_eq!(live.remove(t), back.remove(t));
    }
    assert_eq!(exact_view(&back), exact_view(&live));
    let worker = kw(nbits, &[2, 7, 12]);
    assert_eq!(back.top_k(&worker, 50), live.top_k(&worker, 50));
}

/// Encode the state layout field by field, posting lists as given.
fn raw_state(nbits: usize, doc_len: &[u32], postings: &[Vec<u32>]) -> Vec<u8> {
    let mut out = Vec::new();
    nbits.write_state(&mut out);
    doc_len
        .iter()
        .filter(|&&l| l != u32::MAX)
        .count()
        .write_state(&mut out);
    doc_len.to_vec().write_state(&mut out);
    postings.to_vec().write_state(&mut out);
    out
}

#[test]
fn unordered_posting_lists_decode_to_the_same_index() {
    // Lists in swap-remove order, as an index that kept per-task postings
    // wrote them: the decode must not depend on list order.
    let nbits = 6;
    let doc_len = [2, u32::MAX, 1, 2, 2];
    let postings = vec![vec![4, 0, 3], vec![0], vec![], vec![3, 2], vec![4], vec![]];
    let back: InvertedIndex =
        decode(&raw_state(nbits, &doc_len, &postings)).expect("unordered lists decode");
    let mut want = InvertedIndex::new(nbits);
    want.insert(0, &kw(nbits, &[0, 1]));
    want.insert(2, &kw(nbits, &[3]));
    want.insert(3, &kw(nbits, &[0, 3]));
    want.insert(4, &kw(nbits, &[0, 4]));
    assert_eq!(exact_view(&back), exact_view(&want));
    // The re-written lists are ascending: the state is canonical.
    let mut sorted = postings.clone();
    sorted.iter_mut().for_each(|l| l.sort_unstable());
    assert_eq!(encode(&back), raw_state(nbits, &doc_len, &sorted));
}

#[test]
fn a_task_listed_twice_under_one_keyword_is_rejected() {
    // Task 0 claims two memberships, as doc_len says, but both under
    // keyword 1: its keyword set would not be a set.
    let bytes = raw_state(3, &[2], &[vec![], vec![0, 0], vec![]]);
    let err = decode::<InvertedIndex>(&bytes).unwrap_err();
    assert!(matches!(err, StateDecodeError::Invalid(_)), "{err}");
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
