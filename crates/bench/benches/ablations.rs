//! A1/A2 — ablations of the engine's design choices.
//!
//! * **A1 — GC cadence**: the copying collector trades churn for peak
//!   memory; outputs never change (asserted in tests). Sweeping the
//!   interval shows the steady-state cost of compaction.
//! * **A2 — enumeration materialization**: counting outputs via the
//!   zero-allocation visitor vs cloning every valuation; the delta is
//!   the price of materialization, not of the enumeration walk.

use cer_bench::sigma0_workload;
use cer_core::{Evaluator, StreamingEvaluator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_gc_cadence(c: &mut Criterion) {
    let events = 20_000usize;
    let w = 256u64;
    let wl = sigma0_workload(events, 4, 4, 77);
    let mut group = c.benchmark_group("a1_gc_cadence");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events as u64));
    for (name, every) in [
        ("every_w_over_4", w / 4),
        ("every_w", w),
        ("every_4w", 4 * w),
        ("never", u64::MAX),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &every, |b, &every| {
            b.iter(|| {
                let mut e = StreamingEvaluator::new(wl.pcea.clone(), w);
                e.set_gc_every(every);
                for t in &wl.stream {
                    e.push(t);
                }
                e.stats().arena_nodes
            });
        });
    }
    group.finish();
}

fn bench_enumeration_materialization(c: &mut Criterion) {
    let events = 10_000usize;
    let w = 128u64;
    let wl = sigma0_workload(events, 3, 3, 88);
    let mut group = c.benchmark_group("a2_enumeration_materialization");
    group.sample_size(10);
    group.throughput(Throughput::Elements(events as u64));
    group.bench_function("count_only", |b| {
        b.iter(|| {
            let mut e = StreamingEvaluator::new(wl.pcea.clone(), w);
            wl.stream.iter().map(|t| e.push_count(t)).sum::<usize>()
        });
    });
    group.bench_function("collect_clones", |b| {
        b.iter(|| {
            let mut e = StreamingEvaluator::new(wl.pcea.clone(), w);
            wl.stream
                .iter()
                .map(|t| e.push_collect(t).len())
                .sum::<usize>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gc_cadence, bench_enumeration_materialization);
criterion_main!(benches);
