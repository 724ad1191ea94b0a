//! Runtime shard scaling: multi-query throughput (tuples/sec) versus
//! shard count, versus the status-quo loop of independent per-query
//! evaluators, plus key-partitioned scaling of one hot query, plus the
//! batch-size sweep showing the vectorized fire-stage win.
//!
//! Emits `BENCH_JSON` lines (see the criterion shim) with
//! `elems_per_sec` as the tuples/sec figure. The CI bench-regression
//! gate (`cer-bench`'s `bench_gate` binary) compares these against the
//! committed `BENCH_runtime_scaling.json` baseline at the repo root.

use cer_bench::{multi_query_workload, near_duplicate_workload};
use cer_core::runtime::{Partition, QuerySpec, Runtime};
use cer_core::window::WindowPolicy;
use cer_core::{Evaluator, StreamingEvaluator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const QUERIES: usize = 8;
const EVENTS: usize = 20_000;
const WINDOW: u64 = 64;

fn bench_multi_query_shards(c: &mut Criterion) {
    let wl = multi_query_workload(QUERIES, EVENTS, 4, 4, 42);
    let mut group = c.benchmark_group("runtime_scaling_multi_query");
    group.throughput(Throughput::Elements(EVENTS as u64));
    for shards in [1usize, 2, 4, 8] {
        // The runtime persists across iterations (steady state); each
        // iteration pushes the whole stream as one batch.
        let mut rt = Runtime::new(shards);
        for (j, pcea) in wl.pceas.iter().enumerate() {
            rt.register(QuerySpec::new(
                format!("q{j}"),
                pcea.clone(),
                WindowPolicy::Count(WINDOW),
            ))
            .expect("register");
        }
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| rt.push_batch(&wl.stream).len());
        });
    }
    // Status quo: a single-threaded loop over independent evaluators,
    // every query scanning every tuple.
    let mut evals: Vec<StreamingEvaluator> = wl
        .pceas
        .iter()
        .map(|p| StreamingEvaluator::new(p.clone(), WINDOW))
        .collect();
    group.bench_function("per_query_evaluators", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for t in &wl.stream {
                for e in &mut evals {
                    n += e.push_count(t);
                }
            }
            n
        });
    });
    group.finish();
}

fn bench_keyed_hot_query(c: &mut Criterion) {
    // One hot query, key-partitioned across shards: scaling within a
    // single query rather than across queries.
    let wl = multi_query_workload(1, EVENTS, 256, 4, 7);
    let pcea = &wl.pceas[0];
    assert!(pcea.supports_key_partition(0));
    let mut group = c.benchmark_group("runtime_scaling_keyed_hot_query");
    group.throughput(Throughput::Elements(EVENTS as u64));
    for shards in [1usize, 2, 4, 8] {
        let mut rt = Runtime::new(shards);
        rt.register(
            QuerySpec::new("hot", pcea.clone(), WindowPolicy::Count(WINDOW))
                .with_partition(Partition::ByKey { pos: 0 }),
        )
        .expect("register");
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| rt.push_batch(&wl.stream).len());
        });
    }
    group.finish();
}

fn bench_batch_size_sweep(c: &mut Criterion) {
    // How many tuples per slice before the batch path pays off? Two
    // views of the same standard workload:
    //
    // * `push_batch/N` — the full runtime path (sequencer + shard
    //   queues + fence) fed in chunks of N: at N=1 every tuple pays the
    //   whole pipeline round-trip, larger N amortizes it and lets the
    //   workers evaluate coalesced slices through the vectorized fire
    //   stage;
    // * `evaluator_slice/N` — a single `StreamingEvaluator` driven
    //   through `push_slice_count` in chunks of N: the pure
    //   vectorization trajectory (prefilter bitmask, hoisted N_p
    //   bookkeeping, amortized GC) with no pipeline overhead at all.
    let wl = multi_query_workload(QUERIES, EVENTS, 4, 4, 42);
    let mut group = c.benchmark_group("runtime_scaling_batch_size");
    group.throughput(Throughput::Elements(EVENTS as u64));
    for batch in [1usize, 16, 256, 4096] {
        let mut rt = Runtime::new(4);
        for (j, pcea) in wl.pceas.iter().enumerate() {
            rt.register(QuerySpec::new(
                format!("q{j}"),
                pcea.clone(),
                WindowPolicy::Count(WINDOW),
            ))
            .expect("register");
        }
        group.bench_with_input(BenchmarkId::new("push_batch", batch), &batch, |b, _| {
            b.iter(|| {
                let mut n = 0usize;
                for chunk in wl.stream.chunks(batch) {
                    n += rt.push_batch(chunk).len();
                }
                n
            });
        });
    }
    let single = multi_query_workload(1, EVENTS, 4, 4, 42);
    for batch in [1usize, 16, 256, 4096] {
        let mut eval = StreamingEvaluator::new(single.pceas[0].clone(), WINDOW);
        group.bench_with_input(
            BenchmarkId::new("evaluator_slice", batch),
            &batch,
            |b, _| {
                b.iter(|| {
                    let mut n = 0usize;
                    for chunk in single.stream.chunks(batch) {
                        n += eval.push_slice_count(chunk);
                    }
                    n
                });
            },
        );
    }
    group.finish();
}

fn bench_query_count_scaling(c: &mut Criterion) {
    // Sublinear scaling in the *query count*: 4 skeleton families of
    // near-duplicate queries (S-branch thresholds cycling through a
    // tiny domain, so most variants are exact duplicates). The shared
    // predicate cache evaluates each distinct unary predicate once per
    // tuple per batch and the skeleton groups select once per family,
    // so per-query marginal cost collapses to residual firing work.
    // One shard isolates the effect from thread-level parallelism.
    //
    // The CI gate (`SUBLINEAR_FAMILIES` in bench_gate) requires the
    // largest member to beat the linear extrapolation of the 1-query
    // member by at least 3x *within this same run*.
    const SCALE_EVENTS: usize = 8_000;
    const SKELETONS: usize = 4;
    let mut group = c.benchmark_group("runtime_scaling_query_count");
    group.throughput(Throughput::Elements(SCALE_EVENTS as u64));
    for queries in [1usize, 16, 128, 1024] {
        let skeletons = SKELETONS.min(queries);
        let variants = queries / skeletons;
        let wl = near_duplicate_workload(skeletons, variants, SCALE_EVENTS, 4, 4, 42);
        let mut rt = Runtime::new(1);
        for (j, pcea) in wl.pceas.iter().enumerate() {
            rt.register(QuerySpec::new(
                format!("q{j}"),
                pcea.clone(),
                WindowPolicy::Count(WINDOW),
            ))
            .expect("register");
        }
        group.bench_with_input(BenchmarkId::new("queries", queries), &queries, |b, _| {
            b.iter(|| rt.push_batch(&wl.stream).len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_multi_query_shards,
    bench_keyed_hot_query,
    bench_batch_size_sweep,
    bench_query_count_scaling
);
criterion_main!(benches);
