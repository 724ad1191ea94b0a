//! E5/E7 — the streaming engine vs the baselines.
//!
//! E5: on the Q0 workload, the engine's factorized maintenance beats
//! per-tuple re-evaluation (and explicit-run maintenance) increasingly as
//! match density grows. E7: on pure chain queries, the general PCEA
//! engine tracks the chain-specialized CCEA engine within a constant
//! factor.

use cer_baselines::{CceaStreamEvaluator, NaiveRunsEvaluator, RecomputeEvaluator};
use cer_bench::{chain_workload, sigma0_workload};
use cer_core::{Evaluator, StreamingEvaluator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_e5(c: &mut Criterion) {
    let events = 3_000usize;
    let w = 128u64;
    for dom in [16i64, 4] {
        let wl = sigma0_workload(events, dom, dom, 21);
        let mut group = c.benchmark_group(format!("e5_selectivity_dom{dom}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(events as u64));
        group.bench_function("engine", |b| {
            b.iter(|| {
                let mut e = StreamingEvaluator::new(wl.pcea.clone(), w);
                wl.stream.iter().map(|t| e.push_count(t)).sum::<usize>()
            });
        });
        group.bench_function("recompute", |b| {
            b.iter(|| {
                let mut e = RecomputeEvaluator::new(wl.query.clone(), w);
                wl.stream.iter().map(|t| e.push_count(t)).sum::<usize>()
            });
        });
        group.bench_function("naive_runs", |b| {
            b.iter(|| {
                let mut e = NaiveRunsEvaluator::new(wl.pcea.clone(), w);
                wl.stream.iter().map(|t| e.push_count(t)).sum::<usize>()
            });
        });
        group.finish();
    }
}

fn bench_e7(c: &mut Criterion) {
    let events = 20_000usize;
    let w = 64u64;
    for k in [3usize, 5] {
        let wl = chain_workload(k, events, 8, 55);
        let mut group = c.benchmark_group(format!("e7_chain_k{k}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::new("pcea_engine", k), &wl, |b, wl| {
            b.iter(|| {
                let mut e = StreamingEvaluator::new(wl.pcea.clone(), w);
                wl.stream.iter().map(|t| e.push_count(t)).sum::<usize>()
            });
        });
        group.bench_with_input(BenchmarkId::new("ccea_specialist", k), &wl, |b, wl| {
            b.iter(|| {
                let mut e = CceaStreamEvaluator::new(wl.ccea.clone(), w);
                wl.stream.iter().map(|t| e.push_count(t)).sum::<usize>()
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_e5, bench_e7);
criterion_main!(benches);
