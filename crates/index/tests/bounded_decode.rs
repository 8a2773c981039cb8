//! Decoding an index state allocates in proportion to the payload.
//!
//! A counting global allocator records the peak number of live heap bytes
//! while a crafted payload decodes. Every table the decoder builds must be
//! sized by what the payload holds, never by a decoded count, so a payload
//! of about a megabyte can never ask for a gigabyte. The two tests share
//! the process-wide counter, so they take turns through one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hta_core::state::{decode, StateDecodeError, StateSerialize};
use hta_index::InvertedIndex;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// own pointer and layout, so `System` upholds the `GlobalAlloc` contract;
// the counters are plain atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` has non-zero size, as `alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static TURN: Mutex<()> = Mutex::new(());

const LIMIT: usize = 64 << 20;

const ABSENT: u32 = u32::MAX;

/// Decode `bytes` and return the result with the peak heap growth during
/// the decode, in bytes.
fn decode_measured(bytes: &[u8]) -> (Result<InvertedIndex, StateDecodeError>, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let result = decode::<InvertedIndex>(bytes);
    (result, PEAK.load(Ordering::SeqCst) - base)
}

/// Encode the state layout field by field.
fn raw_state(nbits: usize, docs: usize, doc_len: &[u32], postings: &[Vec<u32>]) -> Vec<u8> {
    let mut out = Vec::new();
    nbits.write_state(&mut out);
    docs.write_state(&mut out);
    doc_len.to_vec().write_state(&mut out);
    postings.to_vec().write_state(&mut out);
    out
}

#[test]
fn empty_postings_over_absent_slots_decode_within_bounds() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // 65,536 empty posting lists and 131,072 absent task slots: about a
    // megabyte of payload describing an empty index.
    let bytes = raw_state(65_536, 0, &vec![ABSENT; 131_072], &vec![Vec::new(); 65_536]);
    assert!(bytes.len() < 2 << 20, "payload is {} bytes", bytes.len());
    let (result, peak) = decode_measured(&bytes);
    assert!(peak < LIMIT, "decode peaked at {peak} bytes");
    let index = result.expect("an empty index is a valid state");
    assert!(index.is_empty());
    assert_eq!(index.nbits(), 65_536);
    // The same payload with a lying `docs` count fails as a typed error.
    let bytes = raw_state(65_536, 7, &vec![ABSENT; 131_072], &vec![Vec::new(); 65_536]);
    let (result, peak) = decode_measured(&bytes);
    assert!(peak < LIMIT, "decode peaked at {peak} bytes");
    assert!(matches!(result, Err(StateDecodeError::Invalid(_))));
}

#[test]
fn many_one_task_classes_on_a_wide_universe_decode_within_bounds() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // 100,000 tasks, each alone in its class with one keyword of its own,
    // over a universe of 200,000 keywords.
    let tasks = 100_000u32;
    let nbits = 200_000;
    let mut postings = vec![Vec::new(); nbits];
    for t in 0..tasks {
        postings[2 * t as usize].push(t);
    }
    let bytes = raw_state(nbits, tasks as usize, &vec![1; tasks as usize], &postings);
    drop(postings);
    let (result, peak) = decode_measured(&bytes);
    assert!(peak < LIMIT, "decode peaked at {peak} bytes");
    let index = result.expect("a valid state");
    assert_eq!(index.len(), tasks as usize);
    assert_eq!(index.keywords_of(4_321).collect::<Vec<_>>(), vec![8_642]);
    // Claim a keyword count no posting backs: a typed error, no panic.
    let mut doc_len = vec![1; tasks as usize];
    doc_len[99_999] = u32::MAX - 1;
    let mut postings = vec![Vec::new(); nbits];
    for t in 0..tasks {
        postings[2 * t as usize].push(t);
    }
    let bytes = raw_state(nbits, tasks as usize, &doc_len, &postings);
    drop(postings);
    let (result, peak) = decode_measured(&bytes);
    assert!(peak < LIMIT, "decode peaked at {peak} bytes");
    assert!(matches!(result, Err(StateDecodeError::Invalid(_))));
}
