//! Index-subsystem micro-benchmarks: inverted-index construction, top-k
//! retrieval, candidate-pool generation at catalog scale, and the headline
//! dense-vs-sparse assignment comparison (build + solve wall-clock and
//! objective ratio).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hta_core::prelude::*;
use hta_core::solver::LocalSearch;
use hta_datagen::amt::{generate_exact, AmtConfig};
use hta_datagen::workers::{synthetic_workers, SyntheticWorkerConfig};
use hta_index::{CandidatePool, InvertedIndex, PoolParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Corpus {
    tasks: Vec<Task>,
    workers: Vec<Worker>,
    nbits: usize,
}

fn corpus(n_tasks: usize, n_workers: usize, seed: u64) -> Corpus {
    let amt = generate_exact(
        &AmtConfig {
            seed,
            ..AmtConfig::with_totals(n_tasks, (n_tasks / 10).max(1))
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

fn build_index(c: &Corpus) -> InvertedIndex {
    let pairs: Vec<(u32, &KeywordVec)> = c.tasks.iter().map(|t| (t.id.0, &t.keywords)).collect();
    InvertedIndex::build(c.nbits, &pairs)
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
            let pool = CandidatePool::generate(&index, &c.workers, xmax, &PoolParams::with_k(16));
            let built = pool
                .build_instance(&c.tasks, &c.workers, xmax, hta_par::default_threads())
                .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            black_box(
                solver
                    .solve(&built.instance, &mut rng)
                    .assignment
                    .assigned_count(),
            )
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
    let pool = CandidatePool::generate(&index, &corpus.workers, xmax, &PoolParams::with_k(16));
    let built = pool
        .build_instance(&corpus.tasks, &corpus.workers, xmax, 1)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let sparse_out = solver.solve(&built.instance, &mut rng);
    let sparse_obj = sparse_out.assignment.objective(&built.instance);
    println!(
        "index/dense-vs-sparse objective: dense {dense_obj:.4}, sparse {sparse_obj:.4} \
         (ratio {:.3}, pool {} of {n} tasks)",
        sparse_obj / dense_obj,
        pool.len()
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
    let mut rng = StdRng::seed_from_u64(3);
    let sparse_ls = polished
        .solve(&built.instance, &mut rng)
        .assignment
        .objective(&built.instance);
    println!(
        "index/dense-vs-sparse objective (local-search polished): dense {dense_ls:.4}, \
         sparse {sparse_ls:.4} (ratio {:.3})",
        sparse_ls / dense_ls
    );
}

criterion_group!(benches, bench_index_scaling, bench_dense_vs_sparse);
criterion_main!(benches);
