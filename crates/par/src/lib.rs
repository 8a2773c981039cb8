//! # hta-par — std-only deterministic chunked parallelism
//!
//! The dependency policy keeps the workspace free of thread-pool crates, so
//! every parallel stage (bulk index construction, diversity-edge
//! enumeration, profit-matrix materialization, the big sorts) leans on
//! `std::thread::scope` with contiguous chunking. Results are collected
//! **in chunk order**, so every helper is deterministic regardless of how
//! the OS interleaves the threads: running with 1, 2, or 64 threads
//! produces byte-identical output.
//!
//! These helpers started life inside `hta-index` (the sharded-index bulk
//! build); they were hoisted into this base crate once `hta-core` and
//! `hta-matching` needed the same pattern for the solver pipeline.

#![warn(missing_docs)]

use std::cmp::Ordering;

/// Split `items` into at most `threads` contiguous chunks, apply `f` to each
/// chunk on its own scoped thread, and return the results in chunk order.
///
/// With `threads <= 1` or fewer items than threads this degrades to a plain
/// sequential map over one chunk per item bucket — no threads are spawned
/// for a single chunk.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let chunk_size = items.len().div_ceil(threads);
    if threads == 1 || chunk_size == 0 {
        return if items.is_empty() {
            Vec::new()
        } else {
            vec![f(items)]
        };
    }
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len().div_ceil(chunk_size), || None);
    std::thread::scope(|scope| {
        for (slot, chunk) in out.iter_mut().zip(items.chunks(chunk_size)) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(chunk));
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("chunk completed"))
        .collect()
}

/// Apply `f(index, item) -> R` to every item using at most `threads` scoped
/// threads, returning results in item order. `index` is the item's position
/// in `items`, so callers can key side tables without sharing state.
pub fn map_items<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let base: Vec<usize> = {
        let mut offsets = Vec::new();
        let threads = threads.clamp(1, items.len().max(1));
        let chunk_size = items.len().div_ceil(threads);
        let mut start = 0;
        while start < items.len() {
            offsets.push(start);
            start += chunk_size.max(1);
        }
        offsets
    };
    let chunked = map_chunks(items, threads, |chunk| {
        // Recover the chunk's base offset from pointer arithmetic: chunks
        // are contiguous slices of `items`.
        let offset = (chunk.as_ptr() as usize - items.as_ptr() as usize) / std::mem::size_of::<T>();
        chunk
            .iter()
            .enumerate()
            .map(|(i, item)| f(offset + i, item))
            .collect::<Vec<R>>()
    });
    debug_assert_eq!(chunked.len(), base.len());
    chunked.into_iter().flatten().collect()
}

/// Sort `items` with `cmp` using per-chunk parallel sorts followed by a
/// chunk-order-stable k-way merge (the merge prefers the lowest-index chunk
/// on `Ordering::Equal`).
///
/// **Determinism contract:** when `cmp` is a total order under which no two
/// items compare equal (every caller in this workspace tie-breaks on a
/// unique key such as `(u, v)` or `(row, col)`), the sorted sequence is
/// unique, so the result is byte-identical to sequential `sort_unstable_by`
/// at any thread count — which is what the solver pipeline's determinism
/// relies on. With genuinely equal items the result is still deterministic
/// for a fixed thread count, but equal items may order differently across
/// thread counts (the per-chunk sorts are unstable).
pub fn sort_unstable_by_parallel<T, F>(items: &mut [T], threads: usize, cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() < 2 {
        items.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }
    let chunk_size = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for chunk in items.chunks_mut(chunk_size) {
            let cmp = &cmp;
            scope.spawn(move || chunk.sort_unstable_by(|a, b| cmp(a, b)));
        }
    });
    let merged = {
        let runs: Vec<&[T]> = items.chunks(chunk_size).collect();
        let mut pos = vec![0usize; runs.len()];
        let mut out = Vec::with_capacity(items.len());
        loop {
            let mut best: Option<usize> = None;
            for (ri, run) in runs.iter().enumerate() {
                if pos[ri] >= run.len() {
                    continue;
                }
                best = match best {
                    None => Some(ri),
                    Some(b) if cmp(&run[pos[ri]], &runs[b][pos[b]]) == Ordering::Less => Some(ri),
                    keep => keep,
                };
            }
            let Some(b) = best else { break };
            out.push(runs[b][pos[b]]);
            pos[b] += 1;
        }
        out
    };
    items.copy_from_slice(&merged);
}

/// A reasonable default thread count for this process: `available_parallelism`
/// capped at 8 (the chunked helpers stop scaling well beyond that for the
/// sizes this workspace handles).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Resolve the solver-pipeline thread count: a positive `requested` wins
/// unconditionally, otherwise the `HTA_SOLVER_THREADS` environment variable
/// (when set to a positive integer), otherwise [`default_threads`]. This is
/// the single knob behind `--solver-threads` on the CLI and the
/// platform/server configuration (`0` = auto everywhere).
///
/// Both auto paths are clamped to `available_parallelism()`: an inherited
/// `HTA_SOLVER_THREADS=16` on a 1-vCPU box would otherwise oversubscribe
/// the solver pool sixteenfold for zero throughput. An explicit CLI/config
/// request is taken at face value — oversubscription on purpose is a valid
/// benchmark scenario, and solver output is byte-identical at any thread
/// count anyway.
pub fn solver_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    std::env::var("HTA_SOLVER_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(hw))
        .unwrap_or_else(default_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1usize, 2, 3, 7, 16] {
            let sums = map_chunks(&items, threads, |chunk| chunk.iter().sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 499_500, "threads={threads}");
            // Chunk order == slice order: first chunk holds the smallest ids.
            if sums.len() > 1 {
                assert!(sums[0] < *sums.last().unwrap(), "threads={threads}");
            }
        }
    }

    #[test]
    fn map_chunks_handles_edges() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_chunks(&empty, 4, |c| c.len()).is_empty());
        assert_eq!(map_chunks(&[5u32], 4, |c| c.len()), vec![1]);
    }

    #[test]
    fn map_items_passes_global_indices() {
        let items: Vec<u32> = (0..97).map(|i| i * 2).collect();
        for threads in [1usize, 4, 32] {
            let got = map_items(&items, threads, |i, &v| (i, v));
            assert_eq!(got.len(), items.len(), "threads={threads}");
            for (i, &(gi, gv)) in got.iter().enumerate() {
                assert_eq!(gi, i);
                assert_eq!(gv, items[i]);
            }
        }
    }

    #[test]
    fn parallel_sort_matches_sequential_on_unique_keys() {
        // Pseudo-random distinct keys (xorshift) sorted descending.
        let mut x = 0x9E3779B97F4A7C15u64;
        let items: Vec<u64> = (0..2000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x ^ i // distinct by construction of the low bits
            })
            .collect();
        let mut expect = items.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        for threads in [1usize, 2, 3, 7, 16] {
            let mut got = items.clone();
            sort_unstable_by_parallel(&mut got, threads, |a, b| b.cmp(a));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_with_tie_broken_keys_is_thread_invariant() {
        // Heavy ties on the primary key, broken by the unique payload —
        // the shape every solver-pipeline sort has.
        let items: Vec<(u32, u32)> = (0..500).map(|i| ((i * 7) % 4, i)).collect();
        let mut expect = items.clone();
        expect.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        for threads in [2usize, 5, 9, 16] {
            let mut got = items.clone();
            sort_unstable_by_parallel(&mut got, threads, |a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_on_pure_ties_is_sorted_and_a_permutation() {
        let items: Vec<(u32, u32)> = (0..100).map(|i| (i % 4, i)).collect();
        for threads in [2usize, 5, 9] {
            let mut got = items.clone();
            sort_unstable_by_parallel(&mut got, threads, |a, b| a.0.cmp(&b.0));
            assert!(
                got.windows(2).all(|w| w[0].0 <= w[1].0),
                "threads={threads}"
            );
            let mut payloads: Vec<u32> = got.iter().map(|x| x.1).collect();
            payloads.sort_unstable();
            assert_eq!(payloads, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_sort_handles_edges() {
        let mut empty: Vec<u32> = Vec::new();
        sort_unstable_by_parallel(&mut empty, 4, |a, b| a.cmp(b));
        assert!(empty.is_empty());
        let mut one = vec![3u32];
        sort_unstable_by_parallel(&mut one, 4, |a, b| a.cmp(b));
        assert_eq!(one, vec![3]);
    }

    #[test]
    fn solver_threads_resolution_order() {
        // Positive request wins unconditionally — even past the hardware
        // parallelism (deliberate oversubscription stays possible).
        assert_eq!(solver_threads(3), 3);
        assert_eq!(solver_threads(1024), 1024);
        // 0 = auto: env or the hardware default, clamped to the machine.
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let auto = solver_threads(0);
        assert!((1..=hw.max(8)).contains(&auto));
        if std::env::var("HTA_SOLVER_THREADS").is_err() {
            assert!(auto <= hw.min(8), "auto default exceeds the machine");
        }
    }
}
