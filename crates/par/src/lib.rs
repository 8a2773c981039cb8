//! # hta-par — std-only deterministic chunked parallelism, sized to the work
//!
//! The dependency policy keeps the workspace free of thread-pool crates, so
//! every parallel stage (the diversity-edge scans, the dense profit-matrix
//! and diversity-cache row fills, the greedy LSAP's entries and sort)
//! leans on `std::thread::scope` with contiguous chunking. Results are
//! collected **in chunk order**, so every helper is deterministic regardless
//! of how the OS interleaves the threads: running with 1, 2, or 64 threads
//! produces byte-identical output.
//!
//! # The grain rule
//!
//! Every helper takes the section's work (in [`GRAIN`] units) alongside the
//! requested thread count, and runs on [`threads_for`]`(work, threads)`
//! threads: the request is an upper bound, and a thread is only added when
//! it gets at least [`GRAIN`] units. A section below the grain therefore
//! runs inline on the caller's thread and spawns nothing; above it, the
//! first part still runs on the caller's thread and only the rest are
//! spawned.

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::OnceLock;

/// Work units one thread must be handed before spawning it pays.
///
/// A unit is one cheap inner-loop step: one profit cell, one pair distance,
/// one LSAP entry, one element of a sort. A scoped spawn + join of one
/// thread measured 51–97 µs on a 2-vCPU x86-64 VM (`spawn_join_us` in
/// `BENCH_solvers.json`'s `machine` block) and a unit 5–15 ns in the bodies
/// that use the grain (its `bodies` rows), so a thread's share of at least
/// 2^18 units (about 1.3 ms or more) is over ten times the spawn it pays
/// for. Every section of a platform or server solve (about 20 tasks) stays
/// far below it and runs inline.
pub const GRAIN: usize = 1 << 18;

/// The number of threads a section of `work` units runs on when at most
/// `threads` are requested: `threads`, cut down so every thread gets at
/// least [`GRAIN`] units, and never below 1.
pub fn threads_for(work: usize, threads: usize) -> usize {
    threads.clamp(1, (work / GRAIN).max(1))
}

/// Contiguous row ranges covering `0..n_rows`, one per thread worth
/// running (see [`threads_for`]), balanced by `row_work(row)`: a range is
/// cut once its running work reaches the per-thread share. Empty when
/// `n_rows == 0`.
pub fn row_ranges(
    n_rows: usize,
    threads: usize,
    row_work: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let total: usize = (0..n_rows).map(&row_work).sum();
    let parts = threads_for(total, threads).min(n_rows.max(1));
    if parts <= 1 {
        return if n_rows == 0 {
            Vec::new()
        } else {
            std::iter::once(0..n_rows).collect()
        };
    }
    let target = total.div_ceil(parts);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for row in 0..n_rows {
        acc += row_work(row);
        if acc >= target {
            ranges.push(start..row + 1);
            start = row + 1;
            acc = 0;
        }
    }
    if start < n_rows {
        ranges.push(start..n_rows);
    }
    ranges
}

/// Apply `f` to every part and return the results in part order. The first
/// part runs on the caller's thread and every other part on its own scoped
/// thread, so one part spawns nothing. A panic in any part propagates.
pub fn run_parts<P, R, F>(parts: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![f(first)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts.map(|p| scope.spawn(move || f(p))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

/// Split `items` into contiguous chunks, one per thread worth running for
/// `items.len() · item_work` units (at most `threads`), apply `f` to each
/// chunk and return the results in chunk order. Empty input gives an empty
/// result.
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, item_work: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    run_parts(row_ranges(items.len(), threads, |_| item_work), |r| {
        f(&items[r])
    })
}

/// Fill `data`, read as rows of `stride` elements, by calling `f(row,
/// &mut data[row])` for every row. Rows are split into contiguous ranges
/// balanced by `row_work(row)` ([`row_ranges`]); each row is written by
/// exactly one call, so the result is identical at any thread count.
pub fn fill_rows<T, F>(
    data: &mut [T],
    stride: usize,
    threads: usize,
    row_work: impl Fn(usize) -> usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if stride == 0 {
        return;
    }
    let ranges = row_ranges(data.len() / stride, threads, row_work);
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len() * stride);
        parts.push((r.start, head));
        rest = tail;
    }
    run_parts(parts, |(row0, chunk)| {
        for (i, row) in chunk.chunks_mut(stride).enumerate() {
            f(row0 + i, row);
        }
    });
}

/// Sort `items` with `cmp` using per-chunk sorts on up to `threads` threads
/// (one element is one unit of work, see [`threads_for`]) followed by a
/// chunk-order-stable k-way merge (the merge prefers the lowest-index chunk
/// on `Ordering::Equal`). With one chunk this is `sort_unstable_by`.
///
/// **Determinism contract:** when `cmp` is a total order under which no two
/// items compare equal (every caller in this workspace tie-breaks on a
/// unique key such as `(u, v)` or `(row, col)`), the sorted sequence is
/// unique, so the result is byte-identical to sequential `sort_unstable_by`
/// at any thread count. With genuinely equal items the result is still
/// deterministic for a fixed chunking, but equal items may order
/// differently across thread counts (the per-chunk sorts are unstable).
pub fn sort_unstable_by_parallel<T, F>(items: &mut [T], threads: usize, cmp: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let threads = threads_for(items.len(), threads);
    if threads <= 1 {
        items.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }
    let chunk_size = items.len().div_ceil(threads);
    run_parts(
        items.chunks_mut(chunk_size).collect(),
        |chunk: &mut [T]| chunk.sort_unstable_by(|a, b| cmp(a, b)),
    );
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

/// Resolve the solver pipeline's thread cap: a positive `requested` wins,
/// otherwise the `HTA_SOLVER_THREADS` environment variable (when set to a
/// positive integer), otherwise [`default_threads`]. This is the single
/// knob behind `--solver-threads` on the CLI and the platform/server
/// configuration (`0` = auto everywhere).
///
/// The result is an upper bound, not a thread count: each parallel section
/// runs on [`threads_for`]`(work, cap)` threads, so a section too small to
/// pay for a spawn runs inline whatever the request. Both auto paths are
/// also clamped to `available_parallelism()`: an inherited
/// `HTA_SOLVER_THREADS=16` on a 1-vCPU box would otherwise oversubscribe
/// the big sections sixteenfold for zero throughput. An explicit CLI/config
/// request is taken at face value as the cap — oversubscription on purpose
/// is a valid benchmark scenario, and solver output is byte-identical at
/// any thread count anyway.
///
/// The auto value is resolved once per process: on Linux
/// `available_parallelism()` reads cgroup files, which every solve would
/// otherwise pay for (twice on the default path).
pub fn solver_threads(requested: usize) -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    if requested > 0 {
        return requested;
    }
    *AUTO.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        std::env::var("HTA_SOLVER_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map(|n| n.min(hw))
            .unwrap_or(hw.min(8))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1usize, 2, 3, 7, 16] {
            let sums = map_chunks(&items, threads, 1, |chunk| chunk.iter().sum::<u64>());
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
        assert!(map_chunks(&empty, 4, 1, |c| c.len()).is_empty());
        assert_eq!(map_chunks(&[5u32], 4, 1, |c| c.len()), vec![1]);
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
    fn threads_for_caps_by_request_and_by_work() {
        assert_eq!(threads_for(0, 8), 1);
        assert_eq!(threads_for(GRAIN - 1, 8), 1);
        assert_eq!(threads_for(2 * GRAIN, 8), 2);
        assert_eq!(threads_for(3 * GRAIN + 7, 8), 3);
        assert_eq!(threads_for(100 * GRAIN, 2), 2);
        assert_eq!(threads_for(100 * GRAIN, 0), 1);
        // Ranges follow the same rule and cover every row once.
        assert_eq!(
            row_ranges(10, 8, |_| 1),
            std::iter::once(0..10).collect::<Vec<_>>()
        );
        assert!(row_ranges(0, 8, |_| GRAIN).is_empty());
        let ranges = row_ranges(16, 8, |_| GRAIN);
        assert_eq!(ranges.len(), 8);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 16);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn below_grain_sections_run_on_the_callers_thread() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..1000).collect();
        for threads in [1usize, 2, 7] {
            let ids = map_chunks(&items, threads, 16, |_| thread::current().id());
            assert_eq!(ids, vec![caller], "threads={threads}");
            let mut rows = vec![None::<ThreadId>; 1000];
            fill_rows(
                &mut rows,
                10,
                threads,
                |_| 10,
                |_, row| row.fill(Some(thread::current().id())),
            );
            assert!(
                rows.iter().all(|&id| id == Some(caller)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn above_grain_sections_spread_over_threads_in_chunk_order() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let ids = map_chunks(&items, 1, GRAIN, |_| thread::current().id());
        assert_eq!(ids, vec![caller]);
        // 64 items of GRAIN units: the request is the binding cap.
        for threads in [2usize, 7] {
            let ids = map_chunks(&items, threads, GRAIN, |_| thread::current().id());
            assert_eq!(ids.len(), threads);
            assert_eq!(ids[0], caller, "the first chunk runs inline");
            assert!(ids[1..].iter().all(|&id| id != caller));
        }
    }

    /// Above the grain every helper is byte-identical at 1, 2 and 7 threads.
    #[test]
    fn above_grain_helpers_are_thread_invariant() {
        let n = 3 * GRAIN;
        assert!(threads_for(n, 7) >= 3);
        let mut x = 0x9E3779B97F4A7C15u64;
        let items: Vec<u64> = (0..n as u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x << 20) | i
            })
            .collect();
        let mut sorted = items.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let sums = map_chunks(&items, 1, 1, |c| c.iter().fold(0u64, |a, &b| a ^ b));
        let mut filled = vec![0u64; n];
        fill_rows(
            &mut filled,
            64,
            1,
            |_| 64,
            |row, out| {
                for (c, slot) in out.iter_mut().enumerate() {
                    *slot = items[row * 64 + c] ^ row as u64;
                }
            },
        );
        for threads in [1usize, 2, 7] {
            let mut got = items.clone();
            sort_unstable_by_parallel(&mut got, threads, |a, b| b.cmp(a));
            assert_eq!(got, sorted, "sort threads={threads}");
            let folded = map_chunks(&items, threads, 1, |c| c.iter().fold(0u64, |a, &b| a ^ b))
                .into_iter()
                .fold(0u64, |a, b| a ^ b);
            assert_eq!(folded, sums[0], "map_chunks threads={threads}");
            let mut got = vec![0u64; n];
            fill_rows(
                &mut got,
                64,
                threads,
                |_| 64,
                |row, out| {
                    for (c, slot) in out.iter_mut().enumerate() {
                        *slot = items[row * 64 + c] ^ row as u64;
                    }
                },
            );
            assert_eq!(got, filled, "fill_rows threads={threads}");
        }
    }

    #[test]
    fn solver_threads_resolution_order() {
        // A positive request is the cap, taken at face value — even past
        // the hardware parallelism (deliberate oversubscription of the big
        // sections stays possible; the grain still sizes each section).
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
