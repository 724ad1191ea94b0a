//! The allocation budgets of a match and of the update step, pinned by
//! counting.
//!
//! A [`Valuation`] is one heap buffer, so keeping a match as an owned
//! value costs exactly one allocation: a clone of the enumerator's
//! scratch, or a client's decode of an `Event` frame. A served match is
//! never owned: the shard worker copies its words into a
//! [`MatchChunk`] and the pusher encodes its frame from there, so it
//! costs no allocation of its own at all. The update step of Algorithm 1 allocates nothing per tuple:
//! `DS_w` product lists and `H` keys live in vectors the evaluator
//! owns, a probe reads the join key where it lies in the tuple, and only
//! a key `H` has not seen is copied (one block per `Str` it contains).
//! The benchmark's `*.allocs_per_tuple` rungs show the same things as
//! ratios; these tests show them as exact counts, in debug and (in CI)
//! release builds alike.
//!
//! A test binary of its own, and both the switch and the counter are
//! per-thread: nothing the harness or the other test does is counted.
//! The one input driven through a [`Runtime`] counts, while it runs,
//! what the runtime's shard worker threads allocate instead (they are
//! told apart by name, and no other test starts a runtime).

use pcea::automata::pcea::paper_p0;
use pcea::common::tuple::tup;
use pcea::prelude::*;
use pcea::serve::protocol::{decode_message, encode_event_frame, encode_message, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

thread_local! {
    // `const` initializers and no destructors: touching these from
    // inside the allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// While set, allocations on shard worker threads count too.
static WORKERS: AtomicBool = AtomicBool::new(false);
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    } else if WORKERS.load(Relaxed) {
        // Every thread here was started by `std`, so its handle exists
        // and asking for it allocates nothing.
        let current = std::thread::current();
        if current.name().is_some_and(|n| n.starts_with("cer-shard-")) {
            WORKER_ALLOCS.fetch_add(1, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` allocates (and reallocates) on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.set(0);
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    (r, ALLOCS.get())
}

/// What the shard workers allocate while `f` runs.
fn worker_allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    WORKER_ALLOCS.store(0, Relaxed);
    WORKERS.store(true, Relaxed);
    let r = f();
    WORKERS.store(false, Relaxed);
    (r, WORKER_ALLOCS.load(Relaxed))
}

const WINDOW: u64 = 256;

/// The benchmark's `fanout_enum` shape in small: a star of four atoms
/// over 29 keys under a 256-tuple window, so a key has about 2.2 live
/// tuples per relation and a tuple completes about 2.2³ ≈ 10 matches.
fn star3(len: usize) -> (Pcea, Vec<Tuple>) {
    let mut schema = Schema::new();
    let text = "Q(x, y1, y2, y3) <- A0(x), A1(x, y1), A2(x, y2), A3(x, y3)";
    let query = parse_query(&mut schema, text).expect("well-formed query");
    let pcea = compile_hcq(&schema, &query)
        .expect("a star is hierarchical")
        .pcea;
    let rels = ["A0", "A1", "A2", "A3"].map(|r| schema.relation(r).expect("declared by the query"));
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let stream = (0..len)
        .map(|_| {
            let rel = next(4) as usize;
            let x = Value::Int(next(29) as i64);
            if rel == 0 {
                Tuple::new(rels[0], vec![x])
            } else {
                Tuple::new(rels[rel], vec![x, Value::Int(next(1000) as i64)])
            }
        })
        .collect();
    (pcea, stream)
}

#[test]
fn a_match_is_one_allocation() {
    // No labels, no buffer.
    let (none, n) = allocs_in(Valuation::default);
    assert_eq!(n, 0, "Valuation::default() allocates");
    assert_eq!(none.num_labels(), 0);

    // A clone is the buffer, whatever it holds.
    let mut v = Valuation::empty(4);
    for (l, p) in [(0, 11), (1, 5), (1, 8), (2, 3), (3, 9)] {
        v.insert(LabelSet::singleton(Label(l)), p);
    }
    let (copy, n) = allocs_in(|| v.clone());
    assert_eq!(n, 1, "cloning {v:?}");
    assert_eq!(copy, v);

    // The engine: the same stream twice from scratch, counting the
    // outputs and keeping them. Everything else the two runs allocate
    // (arena nodes, index entries, scratch) is the same deterministic
    // sequence, so the difference is what keeping costs.
    let (pcea, stream) = star3(4096);
    let mut counter = StreamingEvaluator::new(pcea.clone(), WINDOW);
    let mut outputs = 0usize;
    let ((), counting) = allocs_in(|| counter.push_slice_for_each(&stream, |_, _| outputs += 1));
    let per_tuple = outputs as f64 / stream.len() as f64;
    assert!(
        (6.0..16.0).contains(&per_tuple),
        "{per_tuple} outputs per tuple: not the fan-out shape"
    );

    let mut keeper = StreamingEvaluator::new(pcea, WINDOW);
    let mut kept: Vec<Valuation> = Vec::with_capacity(outputs);
    let ((), keeping) =
        allocs_in(|| keeper.push_slice_for_each(&stream, |_, v| kept.push(v.clone())));
    assert_eq!(kept.len(), outputs);
    assert_eq!(
        keeping - counting,
        outputs as u64,
        "keeping {outputs} outputs took {} allocations",
        keeping - counting
    );

    // The client's side of the socket: one Event payload, one buffer.
    let event = MatchEvent {
        position: 4095,
        query: QueryId(0),
        valuation: kept.pop().expect("the stream completes matches"),
    };
    let payload = encode_message(&Response::Event(event.clone())).expect("events encode");
    let (decoded, n) = allocs_in(|| decode_message::<Response>(&payload));
    assert_eq!(decoded, Ok(Response::Event(event)));
    assert_eq!(n, 1, "decoding an Event payload");
}

/// The served path of the first `n` outputs of the star-3 stream: the
/// shard worker's copy of each output's words into one chunk, then the
/// pusher's `Event` frame of every match, encoded into one buffer. What
/// it allocates beyond the same evaluation without keeping anything.
fn served_allocs(n: usize) -> u64 {
    let (pcea, stream) = star3(4096);
    let mut counter = StreamingEvaluator::new(pcea.clone(), WINDOW);
    let mut outputs = 0usize;
    let ((), counting) = allocs_in(|| {
        counter.push_slice_for_each(&stream, |_, _| outputs += 1);
    });
    assert!(outputs >= n, "{outputs} outputs, {n} wanted");

    let mut keeper = StreamingEvaluator::new(pcea, WINDOW);
    let mut chunk = MatchChunk::default();
    let mut frames = Vec::new();
    let ((), serving) = allocs_in(|| {
        keeper.push_slice_for_each(&stream, |position, v| {
            if chunk.len() < n {
                chunk.push(position, v.view(), [QueryId(0)]);
            }
        });
        for (position, query, valuation) in chunk.iter() {
            encode_event_frame(&mut frames, position, query, valuation).expect("events encode");
        }
    });
    assert_eq!(chunk.len(), n);
    let last = chunk.event(n - 1);
    let tail = decode_message::<Response>(&frames[frames.len() - event_len(&last) + 4..]);
    assert_eq!(tail, Ok(Response::Event(last)));
    serving - counting
}

fn event_len(event: &MatchEvent) -> usize {
    4 + encode_message(&Response::Event(event.clone()))
        .expect("events encode")
        .len()
}

#[test]
fn a_served_match_allocates_nothing_of_its_own() {
    // Three vectors grow — the chunk's headers and words and the frame
    // buffer — so sixteen times the matches may cost each of them
    // log2(16) = 4 more doublings (one more for rounding), and nothing
    // else. Measured: 25 and 37. A block per match would cost 3840 more.
    let (small, large) = (served_allocs(256), served_allocs(4096));
    assert!(small <= 3 * 16, "{small} allocations serving 256 matches");
    assert!(
        large <= small + 3 * 5,
        "{large} allocations serving 4096 matches, {small} serving 256"
    );
}

/// The paper's `Q0` over σ0, and a stream of `triples` T, S, R triples
/// with a join key of their own each (the benchmark's `sparse_serve` and
/// `many_queries` shape): every index update meets a key `H` has never
/// held, every triple completes one match.
fn unique_key_triples(triples: usize) -> (Pcea, Vec<Tuple>) {
    let (_, r, s, t) = Schema::sigma0();
    let stream = (0..triples as i64)
        .flat_map(|k| [tup(t, [k]), tup(s, [k, k + 7]), tup(r, [k, k + 7])])
        .collect();
    (paper_p0(r, s, t), stream)
}

/// The benchmark's `many_queries` family in small: eight σ0 patterns
/// `T(x) && S(x, y) [1 >= c] ; R(x, y)`, `c` in `0..8`, and a stream of
/// `triples` T, S, R triples with a join key of their own each and `y`
/// cycling through `0..8`, so each variant keeps a different share of
/// the S runs and completes a different share of the matches.
fn family_of_eight(triples: usize) -> (Vec<Pcea>, Vec<Tuple>) {
    let (mut schema, r, s, t) = Schema::sigma0();
    let pceas = (0..8)
        .map(|c| {
            let text = format!("T(x) && S(x, y) [1 >= {c}] ; R(x, y)");
            pattern_to_pcea(&mut schema, &text)
                .expect("a σ0 pattern")
                .pcea
        })
        .collect();
    let stream = (0..triples as i64)
        .flat_map(|k| [tup(t, [k]), tup(s, [k, k % 8]), tup(r, [k, k % 8])])
        .collect();
    (pceas, stream)
}

/// Blocks a phase may allocate whatever its length, pushed as one slice
/// or one tuple at a time: the collection that ends it takes five (the
/// two arena vectors, the forwarding table, the root list, the walk's
/// stack), and the arena, sized by that collection for the slice
/// before, doubles a few times under a longer one. Measured: 6 over `M`
/// tuples, 10 over `4M`, on both streams and by every drive; 7 and 11
/// for the family of eight, one of them its fence's reply.
const PHASE_BUDGET: u64 = 12;

/// How a phase's tuples reach the evaluator: one slice, or one tuple
/// at a time — each a slice of one, which must reuse the mask and
/// gather scratch — with and without counting the outputs (`None`).
type Drive = fn(&mut StreamingEvaluator, &[Tuple]) -> Option<usize>;

const DRIVES: [(&str, Drive); 3] = [
    ("push_slice_count", |eval, phase| {
        Some(eval.push_slice_count(phase))
    }),
    ("push", |eval, phase| {
        for t in phase {
            eval.push(t);
        }
        None
    }),
    ("push_count", |eval, phase| {
        Some(phase.iter().map(|t| eval.push_count(t)).sum())
    }),
];

#[test]
fn the_update_step_allocates_nothing_per_tuple() {
    const M: usize = 1536;
    let warm_up = 2 * WINDOW as usize + 4 * M;
    let (star, star_stream) = star3(warm_up + 5 * M);
    let (q0, q0_stream) = unique_key_triples((warm_up + 5 * M) / 3);
    for (name, pcea, stream) in [("star-3", star, star_stream), ("σ0", q0, q0_stream)] {
        for (how, drive) in DRIVES {
            let name = format!("{name} by {how}");
            let mut eval = StreamingEvaluator::new(pcea.clone(), WINDOW);
            // Each phase ends in the one collection it is budgeted for,
            // whether the cadence is checked per slice or per tuple.
            let phase = |eval: &mut StreamingEvaluator, tuples: &[Tuple]| {
                eval.set_gc_every(tuples.len() as u64);
                drive(eval, tuples)
            };
            // Warm: every vector at its high-water mark, one collection.
            let (warm, rest) = stream.split_at(warm_up);
            phase(&mut eval, warm);
            assert_eq!(eval.stats().collections, 1, "{name}: warm-up collects");
            let (short, long) = rest.split_at(M);
            for (slice, collections) in [(short, 2), (long, 3)] {
                let (outputs, n) = allocs_in(|| phase(&mut eval, slice));
                if let Some(outputs) = outputs {
                    assert!(outputs > slice.len() / 4, "{name}: {outputs} matches");
                }
                assert_eq!(eval.stats().collections, collections, "{name}");
                assert!(
                    n <= PHASE_BUDGET,
                    "{name}: {n} allocations over {} tuples",
                    slice.len()
                );
            }
        }
    }

    // The family: registered before any tuple on a one-shard runtime,
    // the eight queries are one evaluator with eight variants, and each
    // phase is one pushed batch — one slice, ending in one collection.
    // Counted on the shard worker, where the update step runs (the
    // fence that waits for the batch sends one reply from there); what
    // the caller's thread allocates to stage the batch is the ingest
    // path's, not the update step's.
    let (family, family_stream) = family_of_eight((warm_up + 5 * M) / 3);
    let mut rt = Runtime::new(1);
    for (c, pcea) in family.into_iter().enumerate() {
        let spec = QuerySpec::new(format!("c{c}"), pcea, WindowPolicy::Count(WINDOW));
        rt.register(spec.with_gc_every(M as u64))
            .expect("registers");
    }
    assert_eq!(rt.stats().shared.evaluators, 1, "one family");
    let handle = rt.ingest_handle();
    let phase = |tuples: &[Tuple]| {
        handle.push_batch(tuples).expect("ingests");
        rt.drain();
    };
    let collections = || rt.stats().per_query[0].1.collections;
    let (warm, rest) = family_stream.split_at(warm_up);
    phase(warm);
    assert_eq!(collections(), 1, "family: warm-up collects");
    let (short, long) = rest.split_at(M);
    for (slice, want) in [(short, 2), (long, 3)] {
        let ((), n) = worker_allocs_in(|| phase(slice));
        assert_eq!(collections(), want, "family");
        assert!(
            n <= PHASE_BUDGET,
            "family: {n} allocations over {} tuples",
            slice.len()
        );
    }

    // `Str` join keys: a key `H` has not seen costs the copy of its
    // string, and nothing else does — not the probes of the R tuples,
    // not the second T and S tuple under a key (a union written back
    // into the entry found).
    let (_, r, s, t) = Schema::sigma0();
    let burst = |tag: &str, keys: usize| -> Vec<Tuple> {
        (0..keys as i64)
            .flat_map(|k| {
                let x = || Value::Str(format!("{tag}-{k}").into());
                let ty = |rel, y: i64| Tuple::new(rel, vec![x(), Value::Int(y)]);
                [
                    Tuple::new(t, vec![x()]),
                    Tuple::new(t, vec![x()]),
                    ty(s, k),
                    ty(s, k),
                    ty(r, k),
                ]
            })
            .collect()
    };
    let mut eval = StreamingEvaluator::new(paper_p0(r, s, t), WINDOW);
    eval.push_slice_count(&burst("warm", 400));
    assert_eq!(eval.stats().collections, 1);
    let fresh = 100;
    let slice = burst("fresh", fresh);
    let (outputs, n) = allocs_in(|| eval.push_slice_count(&slice));
    assert_eq!(outputs, 4 * fresh, "two T runs times two S runs per key");
    assert_eq!(eval.stats().collections, 1, "shorter than the cadence");
    // Per key: the T entry's `[x]` and the S entry's `[x, y]`.
    assert_eq!(n, 2 * fresh as u64, "one block per interned Str");
}
