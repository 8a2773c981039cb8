//! Index-subsystem micro-benchmarks: inverted-index construction, top-k
//! retrieval, candidate-pool generation at catalog scale, the keyword-class
//! workloads (each answer checked against a brute-force scan), and the
//! headline dense-vs-sparse assignment comparison (build + solve wall-clock
//! and objective ratio).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hta_core::prelude::*;
use hta_core::solver::LocalSearch;
use hta_core::{OpenSetSession, Round, RoundOutcome};
use hta_datagen::amt::{generate_exact, AmtConfig};
use hta_datagen::crowdflower::{CrowdflowerCatalog, CrowdflowerConfig};
use hta_datagen::workers::{synthetic_workers, SyntheticWorkerConfig};
use hta_index::{
    assign_round, CandidateMode, CandidatePool, FullWindow, InvertedIndex, PoolParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Corpus {
    tasks: Vec<Task>,
    workers: Vec<Worker>,
    nbits: usize,
}

fn corpus(n_tasks: usize, n_workers: usize, seed: u64) -> Corpus {
    amt_corpus(n_tasks, (n_tasks / 10).max(1), n_workers, seed)
}

/// An AMT catalog of `n_tasks` in `groups` keyword groups.
fn amt_corpus(n_tasks: usize, groups: usize, n_workers: usize, seed: u64) -> Corpus {
    let amt = generate_exact(
        &AmtConfig {
            seed,
            ..AmtConfig::with_totals(n_tasks, groups)
        },
        n_tasks,
    );
    let nbits = amt.space.len();
    let pool = synthetic_workers(
        nbits,
        &SyntheticWorkerConfig {
            n_workers,
            seed: seed ^ 0x77,
            ..Default::default()
        },
    );
    Corpus {
        tasks: amt.tasks.tasks().to_vec(),
        workers: pool.workers().to_vec(),
        nbits,
    }
}

fn task_pairs(c: &Corpus) -> Vec<(u32, &KeywordVec)> {
    c.tasks.iter().map(|t| (t.id.0, &t.keywords)).collect()
}

fn build_index(c: &Corpus) -> InvertedIndex {
    InvertedIndex::build(c.nbits, &task_pairs(c))
}

/// Index build, top-k query, and pool generation at 1k / 10k / 100k tasks.
fn bench_index_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/scaling");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        let corpus = corpus(n, 20, 0xA1);
        group.bench_with_input(BenchmarkId::new("build", n), &corpus, |b, c| {
            b.iter(|| black_box(build_index(c).len()))
        });
        let index = build_index(&corpus);
        group.bench_with_input(BenchmarkId::new("top-k16", n), &corpus, |b, c| {
            b.iter(|| {
                let mut hits = 0usize;
                for w in &c.workers {
                    hits += index.top_k(&w.keywords, 16).len();
                }
                black_box(hits)
            })
        });
        group.bench_with_input(BenchmarkId::new("pool", n), &corpus, |b, c| {
            b.iter(|| {
                let pool = CandidatePool::generate(&index, &c.workers, 10, &PoolParams::with_k(16));
                black_box(pool.len())
            })
        });
    }
    group.finish();
}

/// Exact top-k by scoring every task: Jaccard on the keyword vectors, ties
/// by ascending id.
fn brute_force_top_k(tasks: &[Task], worker: &KeywordVec, k: usize) -> Vec<(u32, f64)> {
    let wlen = worker.count_ones() as f64;
    let mut scored: Vec<(u32, f64)> = tasks
        .iter()
        .filter_map(|t| {
            let overlap = t.keywords.intersection_count(worker) as f64;
            (overlap > 0.0).then(|| {
                let union = t.keywords.count_ones() as f64 + wlen - overlap;
                (t.id.0, overlap / union)
            })
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// The candidate pool by brute force: the union of every worker's scanned
/// top-k, topped up to `|W| · xmax` by per-task lazy-greedy coverage
/// seeding over a heap of every remaining task (score bits, lowest id
/// first).
fn brute_force_pool(tasks: &[Task], workers: &[Worker], xmax: usize, k: usize) -> Vec<u32> {
    let mut members: Vec<u32> = Vec::new();
    let mut in_pool: HashSet<u32> = HashSet::new();
    for w in workers {
        for (t, _) in brute_force_top_k(tasks, &w.keywords, k) {
            if in_pool.insert(t) {
                members.push(t);
            }
        }
    }
    let floor = tasks.len().min(workers.len() * xmax);
    let nbits = tasks.first().map_or(0, |t| t.keywords.nbits());
    let mut counts = vec![0u32; nbits];
    for &m in &members {
        tasks[m as usize]
            .keywords
            .iter_ones()
            .for_each(|kw| counts[kw] += 1);
    }
    let score = |counts: &[u32], t: u32| -> u64 {
        let mut s = 0.0;
        for kw in tasks[t as usize].keywords.iter_ones() {
            s += 1.0 / (1.0 + counts[kw] as f64);
        }
        f64::to_bits(s)
    };
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = tasks
        .iter()
        .map(|t| t.id.0)
        .filter(|t| !in_pool.contains(t))
        .map(|t| (score(&counts, t), Reverse(t)))
        .collect();
    while members.len() < floor {
        let Some((stale, Reverse(t))) = heap.pop() else {
            break;
        };
        let fresh = score(&counts, t);
        if fresh >= heap.peek().map_or(0, |&(b, _)| b) || fresh == stale {
            members.push(t);
            tasks[t as usize]
                .keywords
                .iter_ones()
                .for_each(|kw| counts[kw] += 1);
        } else {
            heap.push((fresh, Reverse(t)));
        }
    }
    members.sort_unstable();
    members
}

/// The 100k-task CrowdFlower catalog (22 keyword classes) as dense tasks.
fn crowdflower_corpus(n_tasks: usize, n_workers: usize, seed: u64) -> Corpus {
    let catalog = CrowdflowerCatalog::generate(&CrowdflowerConfig {
        n_tasks,
        seed,
        ..CrowdflowerConfig::default()
    });
    let nbits = catalog.space.len();
    let workers = synthetic_workers(
        nbits,
        &SyntheticWorkerConfig {
            n_workers,
            seed: seed ^ 0x77,
            ..Default::default()
        },
    );
    Corpus {
        tasks: catalog.tasks.iter().map(|t| t.task.clone()).collect(),
        workers: workers.workers().to_vec(),
        nbits,
    }
}

/// Build, top-k and pool generation on the grouped catalogs the
/// keyword-class index is built for: the 100k-task CrowdFlower catalog and
/// the 200k-task AMT catalog (10,000 groups of 20). Before timing, the
/// build is checked against a sequential `insert` pass (structural
/// equality) and each answer against a brute-force scan; any divergence
/// panics, so the bench smoke run fails on a wrong build or answer.
fn bench_index_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/classes");
    group.sample_size(10);
    let xmax = 10;
    let catalogs = [
        ("crowdflower-100k", crowdflower_corpus(100_000, 20, 0xC1)),
        ("amt-200k", amt_corpus(200_000, 10_000, 20, 0xC3)),
    ];
    for (name, corpus) in &catalogs {
        let pairs = task_pairs(corpus);
        let index = InvertedIndex::build(corpus.nbits, &pairs);
        let mut sequential = InvertedIndex::new(corpus.nbits);
        for &(id, kw) in &pairs {
            sequential.insert(id, kw);
        }
        assert!(
            index == sequential,
            "{name}: InvertedIndex::build differs from a sequential insert pass"
        );
        group.bench_function(BenchmarkId::new("build", name), |b| {
            b.iter(|| black_box(InvertedIndex::build(corpus.nbits, &pairs)))
        });
        let top_k = || -> Vec<Vec<(u32, f64)>> {
            corpus
                .workers
                .iter()
                .map(|w| index.top_k(&w.keywords, 16))
                .collect()
        };
        let pool = || {
            CandidatePool::generate(&index, &corpus.workers, xmax, &PoolParams::with_k(16))
                .members()
                .to_vec()
        };
        for (w, got) in corpus.workers.iter().zip(top_k()) {
            let want = brute_force_top_k(&corpus.tasks, &w.keywords, 16);
            let same = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
            assert!(same, "{name}: top_k diverges from a brute-force scan");
        }
        assert_eq!(
            pool(),
            brute_force_pool(&corpus.tasks, &corpus.workers, xmax, 16),
            "{name}: candidate pool diverges from a brute-force scan"
        );
        group.bench_function(BenchmarkId::new("top-k16", name), |b| {
            b.iter(|| black_box(top_k()))
        });
        group.bench_function(BenchmarkId::new("pool", name), |b| {
            b.iter(|| black_box(pool()))
        });
    }
    group.finish();
}

/// One `TopK(16)` round over every corpus task, as the platform runs it:
/// pool generation, the pool-local instance, the solve under `solver`.
fn sparse_round(
    c: &Corpus,
    index: &InvertedIndex,
    xmax: usize,
    solver: &dyn Solver,
) -> RoundOutcome {
    let round = Round {
        workers: c.workers.clone(),
        task: &|t| &c.tasks[t as usize],
        xmax,
        distance: Arc::new(Jaccard),
        solver,
    };
    assign_round(
        &mut OpenSetSession::Off,
        CandidateMode::TopK(16),
        FullWindow::All,
        index,
        &vec![true; c.tasks.len()],
        round,
        &mut StdRng::seed_from_u64(3),
    )
    .unwrap()
    .expect("tasks are open")
    .0
}

/// The headline comparison: dense instance build + HTA-GRE solve over the
/// whole catalog vs sparse pool build + solve over the candidates. Dense is
/// Θ(|T|²) so it only runs at 1k; the printed objective ratio shows what
/// the sparse path trades for that asymptotic cut.
fn bench_dense_vs_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/dense-vs-sparse");
    group.sample_size(10);
    let n = 1_000usize;
    let xmax = 10usize;
    let corpus = corpus(n, 20, 0xB2);
    let solver = HtaGre::structured().without_flip();

    group.bench_with_input(BenchmarkId::new("dense", n), &corpus, |b, c| {
        b.iter(|| {
            let inst = Instance::new(c.tasks.clone(), c.workers.clone(), xmax).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            black_box(solver.solve(&inst, &mut rng).assignment.assigned_count())
        })
    });
    group.bench_with_input(BenchmarkId::new("sparse-topk16", n), &corpus, |b, c| {
        b.iter(|| {
            let index = build_index(c);
            black_box(sparse_round(c, &index, xmax, &solver).tasks_of(0).count())
        })
    });
    group.finish();

    // One-shot objective comparison (Eq. 3 is evaluated on the assigned
    // tasks only, so the two objectives are directly comparable).
    let inst = Instance::new(corpus.tasks.clone(), corpus.workers.clone(), xmax).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let dense_out = solver.solve(&inst, &mut rng);
    let dense_obj = dense_out.assignment.objective(&inst);
    let index = build_index(&corpus);
    let sparse_out = sparse_round(&corpus, &index, xmax, &solver);
    let sparse_obj = sparse_out.objective();
    println!(
        "index/dense-vs-sparse objective: dense {dense_obj:.4}, sparse {sparse_obj:.4} \
         (ratio {:.3}, pool {} of {n} tasks)",
        sparse_obj / dense_obj,
        sparse_out.members().len()
    );

    // Corrected baseline: the raw ratio above is NOT a retrieval win — both
    // sides run the same greedy, which optimizes a linear proxy and leaves
    // more on the table the more near-duplicate tasks it can see (the dense
    // instance), while the pool pre-concentrates high-value tasks. Polishing
    // both to a local optimum of Eq. 3 removes the proxy artifact and is the
    // comparison EXPERIMENTS.md reports alongside the raw one.
    let polished = LocalSearch::new(HtaGre::structured().without_flip(), 4);
    let mut rng = StdRng::seed_from_u64(3);
    let dense_ls = polished.solve(&inst, &mut rng).assignment.objective(&inst);
    let sparse_ls = sparse_round(&corpus, &index, xmax, &polished).objective();
    println!(
        "index/dense-vs-sparse objective (local-search polished): dense {dense_ls:.4}, \
         sparse {sparse_ls:.4} (ratio {:.3})",
        sparse_ls / dense_ls
    );
}

criterion_group!(
    benches,
    bench_index_scaling,
    bench_index_classes,
    bench_dense_vs_sparse
);
criterion_main!(benches);
