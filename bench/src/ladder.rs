//! The traced run: the same generated stream replayed through a
//! cumulative ladder of the public entry points,
//!
//! ```text
//! L0 core.evaluator → L1 core.runtime → L2 core.ingest → L3 core.durability → L4 serve
//! ```
//!
//! so that the cost of a layer is a subtraction (`self_ns_per_tuple` =
//! this rung − the previous one; negative values are printed as
//! measured). Every rung is driven by one thread, from this file only,
//! in 256-tuple slices, through calls into public functions and reads
//! of public stats, each call under a span.
//!
//! The program under test always runs on the server's CPUs (see
//! [`crate::pin`]). L0 and L1 are synchronous calls, so their driver
//! runs there too: caller and shard worker take turns. L2–L4 are
//! pipelines: their driver runs on the load generator's CPU, pushes on
//! while at most [`LAG`] tuples (L4: the capacity phase's bound) await
//! their matches, and polls for matches instead of sleeping, so the
//! program never pays for waking its consumer. A pipelined rung costs
//! what its busiest CPU spends per tuple, which on two CPUs is the sum
//! of everything the program does — the same quantity
//! `1e9 / throughput_tps` measures end to end.
//!
//! A rung warms up for [`WARM_SLICES`] slices, counts allocations over
//! the fixed slices [`ALLOC_SLICES`] (so the count repeats for a seed)
//! and is timed until its share of `--seconds` is used up. Every rung's
//! output count is checked against the oracle.

use crate::alloc::{self, AllocCount};
use crate::e2e::{self, ScratchDir, Session};
use crate::gen::{Workload, PASS_TUPLES};
use crate::oracle::{self, Oracle};
use crate::pin::{self, Role};
use crate::report::{Metric, Report};
use crate::stats;
use crate::trace::Tracer;
use cer_common::Tuple;
use cer_core::evaluator::StreamingEvaluator;
use cer_core::runtime::{MatchEvent, QuerySpec, Runtime};
use cer_core::window::WindowPolicy;
use cer_core::{HistogramSnapshot, MetricValue, MetricsSnapshot, SubscriptionFilter};
use cer_serve::protocol::{decode_message, encode_message, read_frame, write_frame};
use cer_serve::{Frontend, Request, Response, DEFAULT_MAX_FRAME};
use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

const SLICE: usize = 256;
const WARM_SLICES: u64 = 32;
const ALLOC_SLICES: Range<u64> = 32..64;
const MIN_SLICES: u64 = 64;
const EVENT_WAIT: Duration = Duration::from_secs(5);
/// How many tuples may await their matches while L2 and L3 push on:
/// enough that the shard worker always has a few slices queued, so a
/// rung costs what its busiest stage costs per tuple, as in the capacity
/// phase — not a round trip per slice.
const LAG: u64 = 1024;

/// What one rung measured over its timed slices.
#[derive(Default)]
struct Drive {
    tuples: u64,
    ns: u64,
    outputs: u64,
    /// Over [`ALLOC_SLICES`] only.
    allocs: AllocCount,
    /// Stream index after the last slice, and outputs over all slices.
    end_n: u64,
    outputs_total: u64,
}

impl Drive {
    fn ns_per_tuple(&self) -> f64 {
        self.ns as f64 / self.tuples as f64
    }

    fn allocs_per_tuple(&self) -> f64 {
        self.allocs.allocs as f64 / (ALLOC_SLICES.end - ALLOC_SLICES.start) as f64 / SLICE as f64
    }
}

/// Replay the stream from tuple 0 through `call`, one slice at a time,
/// each call under a span named `name`. `call` gets the tracer (for
/// child spans), the stream index of the slice and the slice, and
/// returns how many outputs it saw.
fn drive(
    wl: &Workload,
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    mut call: impl FnMut(&mut Tracer, u64, Vec<Tuple>) -> Result<u64, String>,
) -> Result<Drive, String> {
    let mut d = Drive::default();
    alloc::reset();
    let start = Instant::now();
    for k in 0u64.. {
        if k >= MIN_SLICES && start.elapsed() >= budget {
            break;
        }
        let n = k * SLICE as u64;
        let slice = wl.tuples(n, SLICE);
        alloc::counting(ALLOC_SLICES.contains(&k));
        let (out, ns) = tracer.span(name, (n / PASS_TUPLES as u64) as u32, |t| call(t, n, slice));
        alloc::counting(false);
        let out = out?;
        d.outputs_total += out;
        d.end_n = n + SLICE as u64;
        if k >= WARM_SLICES {
            d.tuples += SLICE as u64;
            d.ns += ns;
            d.outputs += out;
        }
    }
    d.allocs = alloc::read();
    Ok(d)
}

/// Operations attempted and failed by the rungs' oracle cross-checks.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ops {
    fn check_outputs(&mut self, rung: &str, oracle: &Oracle, d: &Drive) {
        let expected = oracle.count_upto(d.end_n);
        self.attempted += d.end_n / SLICE as u64 + expected;
        if d.outputs_total != expected {
            self.failed += d.outputs_total.abs_diff(expected);
            self.notes.push(format!(
                "{rung}: {} outputs over {} tuples, the oracle has {expected}",
                d.outputs_total, d.end_n
            ));
        }
    }
}

/// What every rung works on and reports into.
struct Ladder<'a> {
    wl: &'a Workload,
    oracle: &'a Oracle,
    specs: Vec<QuerySpec>,
    tracer: Tracer,
    ops: Ops,
    report: &'a mut Report,
}

/// All label variants of one histogram, merged.
fn histogram(snapshot: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for m in snapshot.metrics.iter().filter(|m| m.name == name) {
        if let MetricValue::Histogram(h) = &m.value {
            merged.merge(h);
        }
    }
    merged
}

/// Mean of a log-bucketed histogram, each bucket taken at the geometric
/// middle of its bounds (the buckets are ×1.35 wide, so this is good to
/// a sixth at worst). 0 when empty.
fn histogram_mean_ns(h: &HistogramSnapshot) -> f64 {
    let bounds = cer_obs::bucket_bounds();
    let (mut sum, mut count) = (0f64, 0u64);
    for (i, &c) in h.counts.iter().enumerate() {
        let upper = bounds[i.min(bounds.len() - 1)] as f64;
        let lower = if i == 0 {
            1.0
        } else {
            bounds[(i - 1).min(bounds.len() - 1)] as f64
        };
        sum += c as f64 * (lower * upper).sqrt();
        count += c;
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// What the asynchronous rungs (L2, L3) measured.
struct AsyncRung {
    rt: Runtime,
    d: Drive,
    /// Time inside `IngestHandle::push_batch`.
    producer_ns: u64,
    /// Mean push-to-receive latency per match, as the driver saw it.
    e2e_mean_ns: f64,
    /// Stream index after everything pushed so far.
    n: u64,
}

impl Ladder<'_> {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.report
            .per_layer
            .push(Metric::single(name, unit, value));
    }

    /// `cq` and `lang`: parse + compile per query, through each front-end.
    fn front_ends(&mut self, budget: Duration) {
        let wl = self.wl;
        for (metric, span, frontend) in [
            (
                "cq.compile_us_per_query",
                "cq.parse_query+compile_hcq",
                Frontend::Hcq,
            ),
            (
                "lang.compile_us_per_query",
                "lang.parse_pattern+compile_pattern",
                Frontend::Pattern,
            ),
        ] {
            let start = Instant::now();
            let (mut ns, mut queries) = (0u64, 0u64);
            while queries == 0 || start.elapsed() < budget / 2 {
                let mut schema = wl.schema();
                let (_, took) = self.tracer.span(span, 0, |_| {
                    for q in &wl.queries {
                        let text = if frontend == Frontend::Hcq {
                            &q.hcq
                        } else {
                            &q.pattern
                        };
                        black_box(oracle::compile(
                            &mut schema,
                            &q.name,
                            frontend,
                            text,
                            q.window.clone(),
                        ));
                    }
                });
                ns += took;
                queries += wl.queries.len() as u64;
            }
            self.put(metric, "us", ns as f64 / queries as f64 / 1e3);
        }
    }

    /// `serve.protocol`: the pure codec on the workload's real messages.
    fn codec(&mut self, events: &[MatchEvent], budget: Duration) -> Result<(), String> {
        let wl = self.wl;
        let wire = |e| format!("codec: {e}");
        let io = |e| format!("codec: {e}");
        let requests: Vec<Request> = (0..16)
            .map(|k| Request::IngestBatch {
                tuples: wl.tuples(k * SLICE as u64, SLICE),
            })
            .collect();
        let responses: Vec<Response> = events.iter().cloned().map(Response::Event).collect();
        let (mut enc_ns, mut dec_ns, mut bytes, mut tuples) = (0u64, 0u64, 0u64, 0u64);
        let (mut ev_enc_ns, mut ev_dec_ns, mut ev_bytes, mut matches) = (0u64, 0u64, 0u64, 0u64);
        let start = Instant::now();
        while tuples == 0 || start.elapsed() < budget {
            let mut framed = Vec::new();
            let (r, took) = self
                .tracer
                .span("serve.protocol.encode+write_frame", 0, |_| {
                    for request in &requests {
                        let payload = encode_message(request).map_err(wire)?;
                        write_frame(&mut framed, &payload).map_err(io)?;
                    }
                    Ok::<(), String>(())
                });
            r?;
            enc_ns += took;
            bytes += framed.len() as u64;
            tuples += (requests.len() * SLICE) as u64;
            let (r, took) = self
                .tracer
                .span("serve.protocol.read_frame+decode", 0, |_| {
                    let mut cursor = &framed[..];
                    while let Some(payload) =
                        read_frame(&mut cursor, DEFAULT_MAX_FRAME).map_err(io)?
                    {
                        black_box(decode_message::<Request>(&payload).map_err(wire)?);
                    }
                    Ok::<(), String>(())
                });
            r?;
            dec_ns += took;

            let mut framed = Vec::new();
            let (r, took) = self
                .tracer
                .span("serve.protocol.event.encode+write_frame", 0, |_| {
                    for response in &responses {
                        let payload = encode_message(response).map_err(wire)?;
                        write_frame(&mut framed, &payload).map_err(io)?;
                    }
                    Ok::<(), String>(())
                });
            r?;
            ev_enc_ns += took;
            ev_bytes += framed.len() as u64;
            matches += responses.len() as u64;
            let (r, took) = self
                .tracer
                .span("serve.protocol.event.read_frame+decode", 0, |_| {
                    let mut cursor = &framed[..];
                    while let Some(payload) =
                        read_frame(&mut cursor, DEFAULT_MAX_FRAME).map_err(io)?
                    {
                        black_box(decode_message::<Response>(&payload).map_err(wire)?);
                    }
                    Ok::<(), String>(())
                });
            r?;
            ev_dec_ns += took;
        }
        let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
        self.put(
            "serve.protocol.encode_ns_per_tuple",
            "ns",
            per(enc_ns, tuples),
        );
        self.put(
            "serve.protocol.decode_ns_per_tuple",
            "ns",
            per(dec_ns, tuples),
        );
        self.put("serve.protocol.bytes_per_tuple", "B", per(bytes, tuples));
        self.put(
            "serve.protocol.event_encode_ns_per_match",
            "ns",
            per(ev_enc_ns, matches),
        );
        self.put(
            "serve.protocol.event_decode_ns_per_match",
            "ns",
            per(ev_dec_ns, matches),
        );
        self.put(
            "serve.protocol.event_bytes_per_match",
            "B",
            per(ev_bytes, matches),
        );
        Ok(())
    }

    /// L0: one `StreamingEvaluator` per query, fed every slice.
    fn l0_evaluator(&mut self, budget: Duration) -> Result<f64, String> {
        let (wl, oracle) = (self.wl, self.oracle);
        // The evaluator runs on the calling thread: give it the CPUs the
        // program under test gets in every other rung.
        pin::to(Role::Server);
        let (mut evals, _) = self.tracer.span("core.evaluator.with_window", 0, |_| {
            self.specs
                .iter()
                .map(|s| StreamingEvaluator::with_window(s.pcea.clone(), s.window.clone()))
                .collect::<Vec<_>>()
        });
        let d = drive(
            wl,
            &mut self.tracer,
            "core.evaluator.push_slice_for_each",
            budget,
            |_, _, slice| {
                let mut outputs = 0u64;
                for eval in &mut evals {
                    eval.push_slice_for_each(&slice, |_, v| {
                        black_box(v);
                        outputs += 1;
                    });
                }
                Ok(outputs)
            },
        )?;
        self.ops.check_outputs("core.evaluator", oracle, &d);
        let (mut extends, mut unions, mut arena, mut index) = (0u64, 0u64, 0usize, 0usize);
        for eval in &evals {
            let s = eval.stats();
            extends += s.extends;
            unions += s.unions;
            arena += s.arena_nodes;
            index += s.index_entries;
        }
        self.put("core.evaluator.ns_per_tuple", "ns", d.ns_per_tuple());
        self.put(
            "core.evaluator.ns_per_output",
            "ns",
            d.ns as f64 / d.outputs.max(1) as f64,
        );
        self.put(
            "core.evaluator.outputs_per_tuple",
            "count",
            d.outputs as f64 / d.tuples as f64,
        );
        self.put(
            "core.evaluator.allocs_per_tuple",
            "count",
            d.allocs_per_tuple(),
        );
        self.put(
            "core.evaluator.extends_per_tuple",
            "count",
            extends as f64 / d.end_n as f64,
        );
        self.put(
            "core.evaluator.unions_per_tuple",
            "count",
            unions as f64 / d.end_n as f64,
        );
        self.put("core.evaluator.arena_nodes", "count", arena as f64);
        self.put("core.evaluator.index_entries", "count", index as f64);
        Ok(d.ns_per_tuple())
    }

    /// Update time per tuple (no enumeration: `StreamingEvaluator::push`)
    /// at 16 × the window over update time at the window itself. Theorem
    /// 5.1 bounds it by the ratio of the logarithms, not by 16.
    fn window_ratio(&mut self) {
        let wl = self.wl;
        let mut ns_per_tuple = [0f64; 2];
        for (slot, factor) in [(0, 1u64), (1, 16)] {
            let mut evals: Vec<StreamingEvaluator> = self
                .specs
                .iter()
                .map(|s| {
                    let window = match s.window.clone() {
                        WindowPolicy::Count(w) => WindowPolicy::Count(w * factor),
                        other => other,
                    };
                    StreamingEvaluator::with_window(s.pcea.clone(), window)
                })
                .collect();
            // Two passes fill even the widest window; the third is timed.
            for pass in 0..3u64 {
                let tuples = wl.tuples(pass * PASS_TUPLES as u64, PASS_TUPLES);
                let (_, ns) = self.tracer.span("core.evaluator.push", pass as u32, |_| {
                    for t in &tuples {
                        for eval in &mut evals {
                            black_box(eval.push(t));
                        }
                    }
                });
                ns_per_tuple[slot] = ns as f64 / PASS_TUPLES as f64;
            }
        }
        self.put(
            "core.evaluator.window_ratio",
            "ratio",
            ns_per_tuple[1] / ns_per_tuple[0],
        );
    }

    fn new_runtime(&mut self, dir: Option<&std::path::Path>) -> Result<(Runtime, f64), String> {
        let wl = self.wl;
        let config = e2e::serve_config(wl, None).runtime;
        // Worker threads inherit the server's CPUs; the driver then moves
        // to the load generator's, as in the end-to-end run.
        pin::to(Role::Server);
        let (rt, _) = self.tracer.span("core.runtime.new", 0, |_| match dir {
            Some(dir) => {
                Runtime::open_durable(dir, config).map_err(|e| format!("open_durable: {e}"))
            }
            None => Ok(Runtime::new(config)),
        });
        let mut rt = rt?;
        let mut ns = 0;
        for spec in &self.specs {
            let (r, took) = self
                .tracer
                .span("core.runtime.register", 0, |_| rt.register(spec.clone()));
            r.map_err(|e| format!("register {}: {e}", spec.name))?;
            ns += took;
        }
        pin::to(Role::Load);
        Ok((rt, ns as f64 / self.specs.len() as f64 / 1e3))
    }

    /// L1: the synchronous `Runtime::push_batch`, in slices and tuple by
    /// tuple. Returns ns/tuple and some real events for the codec rung.
    fn l1_runtime(&mut self, budget: Duration, l0: f64) -> Result<(f64, Vec<MatchEvent>), String> {
        let (wl, oracle) = (self.wl, self.oracle);
        let (mut rt, register_us) = self.new_runtime(None)?;
        // `push_batch` returns when the shard worker is done: caller and
        // worker take turns, so the caller stays on the worker's CPU and
        // a call costs a context switch, not a wake-up across CPUs.
        pin::to(Role::Server);
        let mut sample: Vec<MatchEvent> = Vec::new();
        let d = drive(
            wl,
            &mut self.tracer,
            "core.runtime.push_batch",
            budget.mul_f64(0.65),
            |_, _, slice| {
                let events = rt.push_batch(&slice);
                if sample.len() < 2048 {
                    sample.extend(events.iter().take(2048 - sample.len()).cloned());
                }
                Ok(events.len() as u64)
            },
        )?;
        self.ops.check_outputs("core.runtime", oracle, &d);
        // Tuple at a time, going on where the slices stopped.
        let start = Instant::now();
        let (mut ns, mut tuples, mut n) = (0u64, 0u64, d.end_n);
        while tuples == 0 || start.elapsed() < budget.mul_f64(0.35) {
            let slice = wl.tuples(n, SLICE);
            let (_, took) = self.tracer.span(
                "core.runtime.push_batch.x1",
                (n / PASS_TUPLES as u64) as u32,
                |_| {
                    for t in &slice {
                        black_box(rt.push_batch(std::slice::from_ref(t)));
                    }
                },
            );
            ns += took;
            tuples += SLICE as u64;
            n += SLICE as u64;
        }
        let shared = rt.stats().shared;
        rt.shutdown();
        pin::to(Role::Load);
        let evals = shared.prefilter_evals_saved + shared.prefilter_evals_done;
        self.put("core.runtime.ns_per_tuple", "ns", d.ns_per_tuple());
        self.put(
            "core.runtime.self_ns_per_tuple",
            "ns",
            d.ns_per_tuple() - l0,
        );
        self.put(
            "core.runtime.allocs_per_tuple",
            "count",
            d.allocs_per_tuple(),
        );
        self.put(
            "core.runtime.batch1_ns_per_tuple",
            "ns",
            ns as f64 / tuples as f64,
        );
        self.put("core.runtime.register_us_per_query", "us", register_us);
        self.put(
            "core.shared.evals_saved_share",
            "share",
            shared.prefilter_evals_saved as f64 / evals.max(1) as f64,
        );
        self.put("core.shared.groups", "count", shared.groups as f64);
        self.put(
            "core.shared.distinct_predicates",
            "count",
            shared.distinct_predicates as f64,
        );
        Ok((d.ns_per_tuple(), sample))
    }

    /// Push slices through an `IngestHandle` and take the matches from a
    /// `Subscription`, on one thread, with the pipeline kept full: after
    /// each push the driver takes the matches that are already there, and
    /// polls on only until at most [`LAG`] tuples still await theirs.
    fn ingest_rung(
        &mut self,
        rt: Runtime,
        names: [&'static str; 3],
        budget: Duration,
    ) -> Result<AsyncRung, String> {
        let (wl, oracle) = (self.wl, self.oracle);
        let handle = rt.ingest_handle();
        let sub = rt.subscribe(SubscriptionFilter::All);
        let pos0 = rt.next_position();
        let (mut producer_ns, mut lat_sum, mut received) = (0u64, 0f64, 0u64);
        // When each slice was pushed, to time a match from its slice's push.
        let mut pushed_at: Vec<Instant> = Vec::new();
        let mut d = drive(wl, &mut self.tracer, names[0], budget, |t, n, slice| {
            let pass = (n / PASS_TUPLES as u64) as u32;
            pushed_at.push(Instant::now());
            let (receipt, took) = t.span(names[1], pass, |_| handle.push_batch(&slice));
            let receipt = receipt.map_err(|e| format!("{}: {e}", names[1]))?;
            if receipt.dropped > 0 {
                return Err(format!("{}: {} tuples dropped", names[1], receipt.dropped));
            }
            if n >= WARM_SLICES * SLICE as u64 {
                producer_ns += took;
            }
            let need = oracle.count_upto((n + slice.len() as u64).saturating_sub(LAG));
            let before = received;
            // Polled, not slept on: a shard worker that has to wake its
            // consumer pays for it (see `wire`).
            let deadline = Instant::now() + EVENT_WAIT;
            t.span(names[2], pass, |_| loop {
                let Some(event) = sub.try_recv() else {
                    if received >= need || Instant::now() > deadline {
                        break;
                    }
                    std::hint::spin_loop();
                    continue;
                };
                let slice_index = (event.position.saturating_sub(pos0) / SLICE as u64) as usize;
                if let Some(at) = pushed_at.get(slice_index) {
                    lat_sum += at.elapsed().as_nanos() as f64;
                }
                received += 1;
            });
            Ok(received - before)
        })?;
        let e2e_mean_ns = lat_sum / d.outputs_total.max(1) as f64;
        rt.drain();
        // The last LAG tuples' matches, and anything beyond the expected
        // count (an extra match).
        d.outputs_total += sub.drain().len() as u64;
        self.ops.check_outputs(names[0], oracle, &d);
        let n = d.end_n;
        Ok(AsyncRung {
            rt,
            d,
            producer_ns,
            e2e_mean_ns,
            n,
        })
    }

    /// L2 plus the `obs` readings taken on its runtime.
    fn l2_ingest(&mut self, budget: Duration, l1: f64) -> Result<f64, String> {
        let (rt, _) = self.new_runtime(None)?;
        let names = [
            "core.ingest.batch",
            "core.ingest.push_batch",
            "core.ingest.try_recv",
        ];
        let r = self.ingest_rung(rt, names, budget)?;
        let queues = r.rt.ingest_handle().queue_stats();
        let (snapshot, _) = self.tracer.span("core.runtime.metrics_snapshot", 0, |_| {
            r.rt.metrics_snapshot()
        });
        let mut text_ms = Vec::new();
        let mut text_bytes = 0;
        for _ in 0..5 {
            let (text, ns) = self
                .tracer
                .span("core.runtime.metrics_text", 0, |_| r.rt.metrics_text());
            text_ms.push(ns as f64 / 1e6);
            text_bytes = text.len();
        }
        r.rt.shutdown();

        let mean = |name: &str| histogram_mean_ns(&histogram(&snapshot, name));
        let stages: f64 = [
            "cer_seq_reserve_nanos",
            "cer_reorder_hold_nanos",
            "cer_queue_wait_nanos",
            "cer_shard_eval_nanos",
            "cer_delivery_nanos",
        ]
        .iter()
        .map(|name| mean(name))
        .sum();
        let park = histogram(&snapshot, "cer_producer_park_nanos");
        let drained_batches: u64 = queues.iter().map(|q| q.drained_batches).sum();
        let drained_tuples: u64 = queues.iter().map(|q| q.drained_tuples).sum();
        let ns = r.d.ns_per_tuple();
        self.put("core.ingest.ns_per_tuple", "ns", ns);
        self.put("core.ingest.self_ns_per_tuple", "ns", ns - l1);
        self.put(
            "core.ingest.producer_ns_per_tuple",
            "ns",
            r.producer_ns as f64 / r.d.tuples as f64,
        );
        self.put(
            "core.ingest.allocs_per_tuple",
            "count",
            r.d.allocs_per_tuple(),
        );
        self.put(
            "core.ingest.queue_high_water",
            "count",
            queues.iter().map(|q| q.high_water).max().unwrap_or(0) as f64,
        );
        self.put(
            "core.ingest.reorder_high_water",
            "count",
            queues
                .iter()
                .map(|q| q.reorder_high_water)
                .max()
                .unwrap_or(0) as f64,
        );
        self.put(
            "core.ingest.mean_drain_batch",
            "count",
            drained_tuples as f64 / drained_batches.max(1) as f64,
        );
        self.put(
            "core.ingest.dropped",
            "count",
            queues.iter().map(|q| q.dropped).sum::<u64>() as f64,
        );
        self.put(
            "core.ingest.queue_wait_ns_per_batch",
            "ns",
            mean("cer_queue_wait_nanos"),
        );
        self.put(
            "core.ingest.producer_park_ns_total",
            "ns",
            histogram_mean_ns(&park) * park.count() as f64,
        );
        self.put(
            "core.stage.residual_share",
            "share",
            1.0 - stages / r.e2e_mean_ns,
        );
        self.put("obs.metrics_text_ms", "ms", stats::median(&text_ms));
        self.put("obs.metrics_text_bytes", "B", text_bytes as f64);
        self.put(
            "obs.e2e_hist_mean_ratio",
            "ratio",
            mean("cer_e2e_nanos") / r.e2e_mean_ns,
        );
        Ok(ns)
    }

    /// L3: L2 on a durable runtime, then checkpoint, snapshot, restore and
    /// recovery of what was logged after the checkpoint.
    fn l3_durability(&mut self, budget: Duration, l2: f64) -> Result<f64, String> {
        let wl = self.wl;
        let dir = ScratchDir::new(&format!("{}-ladder", wl.name))?;
        let (rt, _) = self.new_runtime(Some(&dir.0))?;
        let names = [
            "core.durability.batch",
            "core.durability.push_batch",
            "core.durability.try_recv",
        ];
        let mut r = self.ingest_rung(rt, names, budget)?;
        let ns = r.d.ns_per_tuple();
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

        let (ckpt, ckpt_ns) = self
            .tracer
            .span("core.runtime.checkpoint", 0, |_| r.rt.checkpoint());
        let ckpt = ckpt.map_err(|e| err("checkpoint", &e))?;
        // What recovery will have to replay: a fixed 64 slices.
        let handle = r.rt.ingest_handle();
        let replayed = 64 * SLICE as u64;
        for _ in 0..64 {
            handle
                .push_batch(&wl.tuples(r.n, SLICE))
                .map_err(|e| err("push_batch", &e))?;
            r.n += SLICE as u64;
        }
        r.rt.drain();
        let status =
            r.rt.durability_status()
                .ok_or("a runtime opened durably reports no durability status")?;
        let (snap, snap_ns) = self
            .tracer
            .span("core.runtime.snapshot", 0, |_| r.rt.snapshot());
        let snap = snap.map_err(|e| err("snapshot", &e))?;
        let snap_bytes = snap
            .to_bytes()
            .map_err(|e| err("snapshot bytes", &e))?
            .len();
        pin::to(Role::Server);
        let (restored, restore_ns) = self.tracer.span("core.runtime.restore", 0, |_| {
            Runtime::restore(&snap, wl.shards)
        });
        restored.map_err(|e| err("restore", &e))?.shutdown();
        let position = r.rt.next_position();
        r.rt.shutdown();
        let config = e2e::serve_config(wl, None).runtime;
        let (recovered, recover_ns) = self.tracer.span("core.runtime.recover", 0, |_| {
            Runtime::recover(&dir.0, config)
        });
        let recovered = recovered.map_err(|e| err("recover", &e))?;
        self.ops.attempted += 1;
        if recovered.next_position() != position {
            self.ops.failed += 1;
            self.ops.notes.push(format!(
                "recovery resumed at {}, the runtime stood at {position}",
                recovered.next_position()
            ));
        }
        recovered.shutdown();

        pin::to(Role::Load);

        self.put("core.durability.self_ns_per_tuple", "ns", ns - l2);
        self.put(
            "core.durability.wal_bytes_per_tuple",
            "B",
            status.wal_bytes as f64 / r.n as f64,
        );
        self.put("core.durability.checkpoint_ms", "ms", ckpt_ns as f64 / 1e6);
        self.put("core.durability.checkpoint_bytes", "B", ckpt.bytes as f64);
        self.put(
            "core.durability.recover_ms_per_ktuple",
            "ms",
            recover_ns as f64 / 1e6 / (replayed as f64 / 1e3),
        );
        self.put("core.checkpoint.snapshot_ms", "ms", snap_ns as f64 / 1e6);
        self.put("core.checkpoint.restore_ms", "ms", restore_ns as f64 / 1e6);
        self.put("core.checkpoint.snapshot_bytes", "B", snap_bytes as f64);
        Ok(ns)
    }

    /// L4: the workload's own server over loopback, driven as in the
    /// capacity phase (one ingest in flight, matches read at most
    /// `MAX_UNCOVERED` tuples behind, settle at each pass boundary), with a
    /// span around each step.
    fn l4_serve(&mut self, budget: Duration, below: f64) -> Result<(), String> {
        let (wl, oracle) = (self.wl, self.oracle);
        let dir = if wl.durable {
            Some(ScratchDir::new(&format!("{}-serve", wl.name))?)
        } else {
            None
        };
        let (r, _) = self.tracer.span("serve.setup", 0, |_| {
            e2e::setup(wl, dir.as_ref().map(|d| d.0.as_path()))
        });
        let (server, conn, _) = r?;
        let mut session = Session::new(wl, oracle, server, conn)?;

        let mut rtt_us = Vec::new();
        let mut cpu0 = 0.0;
        let d = drive(
            wl,
            &mut self.tracer,
            "serve.batch",
            budget,
            |t, n, slice| {
                if n == WARM_SLICES * SLICE as u64 {
                    cpu0 = e2e::server_cpu_seconds();
                }
                let pass = (n / PASS_TUPLES as u64) as u32;
                let before = session.conn.sink.lock().events;
                t.span("serve.send", pass, |_| session.send_batch(slice))
                    .0?;
                let (r, took) = t.span("serve.await_ack", pass, |_| session.await_ack(SLICE));
                r?;
                if n >= WARM_SLICES * SLICE as u64 {
                    rtt_us.push(took as f64 / 1e3);
                }
                t.span("serve.await_matches", pass, |_| session.await_matches())
                    .0?;
                Ok(session.conn.sink.lock().events - before)
            },
        )?;
        let cpu = e2e::server_cpu_seconds() - cpu0;
        // The session checks every ack as it comes and the matches at
        // every settle.
        session.settle()?;
        self.ops.attempted += session.attempted;
        self.ops.failed += session.failed();
        self.ops.notes.append(&mut session.notes);
        session.stop_server();

        let ns = d.ns_per_tuple();
        self.put("serve.ns_per_tuple", "ns", ns);
        self.put("serve.self_ns_per_tuple", "ns", ns - below);
        self.put("serve.ingest_rtt_p50_us", "us", stats::median(&rtt_us));
        self.put("serve.cpu_ns_per_tuple", "ns", cpu * 1e9 / d.tuples as f64);
        self.put("serve.allocs_per_tuple", "count", d.allocs_per_tuple());
        // Three spans a slice. Their cost is calibrated, not taken as the
        // difference of two traced and untraced halves of this rung: slice
        // times swing by tens of percent with the pipeline's own rhythm,
        // and a span costs tens of nanoseconds in a millisecond.
        let spans_ns = 3.0 * crate::trace::recording_cost_ns();
        self.put(
            "bench.trace_overhead_share",
            "share",
            spans_ns / (ns * SLICE as f64),
        );

        Ok(())
    }

    /// A short open-loop stint over the wire at the workload's frozen rate,
    /// for the generator's own lateness.
    fn open_loop(&mut self, budget: Duration) -> Result<(), String> {
        let (wl, oracle) = (self.wl, self.oracle);
        let dir = if wl.durable {
            Some(ScratchDir::new(&format!("{}-open", wl.name))?)
        } else {
            None
        };
        let (server, conn, _) = e2e::setup(wl, dir.as_ref().map(|d| d.0.as_path()))?;
        let mut session = Session::new(wl, oracle, server, conn)?;
        let (outcome, _) = self.tracer.span("bench.open_loop", 0, |_| {
            session.latency_phase(budget.mul_f64(0.2), budget.mul_f64(0.8))
        });
        let outcome = outcome?;
        self.ops.attempted += session.attempted;
        self.ops.failed += session.failed();
        self.ops.notes.append(&mut session.notes);
        session.stop_server();
        let mut late = outcome.gen_late_ms;
        late.sort_by(f64::total_cmp);
        self.put(
            "bench.gen_late_p99_ms",
            "ms",
            stats::percentile(&late, 0.99),
        );
        Ok(())
    }
}

/// The whole traced run of one workload. Returns the tracer for the
/// caller to write out.
pub fn trace(
    wl: &Workload,
    oracle: &Oracle,
    seconds: f64,
    report: &mut Report,
) -> Result<Tracer, String> {
    let share = |x: f64| Duration::from_secs_f64(seconds * x);
    let mut ladder = Ladder {
        wl,
        oracle,
        specs: oracle::specs(wl),
        tracer: Tracer::default(),
        ops: Ops::default(),
        report,
    };
    ladder.front_ends(share(0.03));
    let l0 = ladder.l0_evaluator(share(0.12))?;
    ladder.window_ratio();
    let (l1, events) = ladder.l1_runtime(share(0.16), l0)?;
    ladder.codec(&events, share(0.03))?;
    let l2 = ladder.l2_ingest(share(0.14), l1)?;
    let l3 = ladder.l3_durability(share(0.14), l2)?;
    ladder.l4_serve(share(0.2), if wl.durable { l3 } else { l2 })?;
    ladder.open_loop(share(0.1))?;

    let Ladder {
        tracer,
        mut ops,
        report,
        ..
    } = ladder;
    report.attempted = ops.attempted;
    report.failed = ops.failed;
    report.notes.append(&mut ops.notes);
    for (name, self_ns, count) in tracer.self_time_by_name() {
        report.diagnostics.push(Metric::single(
            &format!("span_self_ms.{name}"),
            "ms",
            self_ns as f64 / 1e6,
        ));
        report.diagnostics.push(Metric::single(
            &format!("span_count.{name}"),
            "count",
            count as f64,
        ));
    }
    Ok(tracer)
}
