//! The streaming evaluation algorithm (Section 5, Algorithm 1 /
//! Theorem 5.1).
//!
//! Evaluates an unambiguous PCEA with equality predicates over a stream
//! under a sliding window of size `w`, with
//! `O(|P|·|t| + |P|·log|P| + |P|·log w)` update time and output-linear
//! delay enumeration. The algorithm is composed from explicit stages,
//! each owned by its own module:
//!
//! * **ingest/window** ([`crate::window`]) — [`WindowClock`] maps each
//!   arriving tuple to the expiry bound `lo` of its position;
//! * **FireTransitions** and **UpdateIndices** (`crate::fire`) — for
//!   every transition `(P, U, B, L, q)`, if the current tuple satisfies
//!   `U` and every source slot `p ∈ P` has a stored run whose join key
//!   `⃗B_p` matches the tuple's `⃖B_p`, the gathered runs are `extend`ed
//!   into a fresh `DS_w` node at `q`; every node created this position
//!   is indexed in the look-up table `H` under
//!   `(transition, slot, ⃗B_p(t))`, melding with previous entries via
//!   the persistent `union`;
//! * **Enumerate** ([`crate::enumerate`]) — nodes that reached a final
//!   state this position hold exactly the *new* outputs `⟦P⟧^w_i(S)`,
//!   enumerated with output-linear delay (Theorem 5.2).
//!
//! Windowing never scans old state: expired subtrees are dropped lazily
//! during `union` and enumeration (heap condition (‡)), and a periodic
//! copying collector ([`StreamingEvaluator::set_gc_every`]) keeps memory
//! proportional to the live window on unbounded streams.
//!
//! # One core, and its exactness argument
//!
//! Algorithm 1 is stated tuple-at-a-time. Every push here runs one
//! private per-position core over a *slice* of stamped tuples instead:
//! [`StreamingEvaluator::push_slice_for_each`] and
//! [`push_slice_count`](StreamingEvaluator::push_slice_count) over the
//! caller's slice, the runtime's shard workers over the tuples routed to
//! one query, and [`StreamingEvaluator::push`] and the [`Evaluator`]
//! methods over a slice of one. The core restructures the *work*
//! without changing the *outputs*:
//!
//! 1. **Unary pre-filter.** Every transition's unary predicate is
//!    evaluated across the whole slice up front, transition-major, into
//!    a compact bitmask (`crate::fire`); the per-position loop then
//!    only visits transitions whose predicate accepted. The same
//!    predicate evaluations happen on the same tuples — only their
//!    order changes, and unary predicates are pure, so every firing
//!    decision is identical. Only the mask's source differs between
//!    entry points: evaluated privately, or gathered from a shard's
//!    shared predicate cache, which holds the same `matches()` outcomes.
//! 2. **Hoisted per-position bookkeeping.** The `N_p` clear walks only
//!    the states touched at the previous position (not all of `Q`), the
//!    gather scratch and the bitmask are reused across calls, and the
//!    window-policy dispatch is lifted out of the inner loop (count
//!    windows compute `lo = i − w` inline; time windows still advance
//!    the [`WindowClock`] ring per tuple, because the bound depends on
//!    each tuple's timestamp). The bound `lo` fed to firing and
//!    enumeration is computed *exactly* per position — it must be,
//!    since enumeration still happens at each position.
//! 3. **Amortized GC.** The garbage-collection cadence check runs once
//!    per slice (at the slice boundary) instead of once per tuple.
//!    Collection is fully transparent to outputs (it only drops expired
//!    or unreachable nodes), so deferring it within a slice cannot
//!    change any enumeration; it only lets the arena grow by at most
//!    one slice's worth of nodes past the configured cadence. A slice
//!    of one checks after every tuple, as the paper's loop does.
//!
//! Hence the outputs of a push are **bit-identical** — same valuations,
//! same positions, same per-position grouping — however the stream is
//! cut into slices: enumeration still runs at every position, over the
//! same `N_p` lists, with the same bound. `tests/batch_vectorized.rs`
//! checks this differentially across engines, baselines, slice sizes
//! (1, coprime with the GC cadence, whole stream) and window policies.
//!
//! For hosting *many* queries over one stream — with relation-based
//! routing and key-partitioned sharding across worker threads — see
//! [`crate::runtime`].

use crate::api::Evaluator;
use crate::ds::EnumStructure;
use crate::enumerate;
use crate::fire::{FireStage, VariantCounts, MAX_VARIANTS};
use crate::metrics::MetricRead::{Counter, Gauge};
use crate::metrics::MetricRow;
use crate::window::WindowClock;
pub use crate::window::WindowPolicy;
use cer_automata::pcea::Pcea;
use cer_automata::valuation::Valuation;
use cer_common::Tuple;

/// Counters exposed for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Positions processed so far.
    pub positions: u64,
    /// Nodes currently allocated in the arena (for a query sharing a
    /// family's evaluator: in its private evaluator's arena).
    pub arena_nodes: usize,
    /// Entries in the look-up table `H` (for a query sharing a family's
    /// evaluator: its own roots).
    pub index_entries: usize,
    /// `extend` calls performed.
    pub extends: u64,
    /// `union` calls performed.
    pub unions: u64,
    /// Garbage collections run.
    pub collections: u64,
    /// Out-of-order timestamps the time-window clock clamped (always 0
    /// for count windows). Non-zero means the stream violated the
    /// non-decreasing-timestamp contract — under key-partitioned
    /// sharding its outputs may then depend on the shard count; see the
    /// hazard note in [`crate::window`].
    pub ts_regressions: u64,
}

impl EngineStats {
    /// Exported per registered query, summed across shards (labels
    /// `query`, `name`).
    pub(crate) const ROWS: &'static [MetricRow<Self>] = &[
        (
            "cer_query_positions_total",
            "Stream positions evaluated per query",
            Counter(|st| st.positions),
        ),
        (
            "cer_query_arena_nodes",
            "Live enumeration-arena nodes per query",
            Gauge(|st| st.arena_nodes as u64),
        ),
        (
            "cer_query_index_entries",
            "Entries in the look-up table H per query",
            Gauge(|st| st.index_entries as u64),
        ),
        (
            "cer_query_extends_total",
            "Extend operations per query",
            Counter(|st| st.extends),
        ),
        (
            "cer_query_unions_total",
            "Union operations per query",
            Counter(|st| st.unions),
        ),
        (
            "cer_query_ts_regressions_total",
            "Out-of-order timestamps clamped by time-window clocks",
            Counter(|st| st.ts_regressions),
        ),
    ];
}

/// The streaming evaluator of Theorem 5.1.
///
/// ```
/// use cer_automata::pcea::paper_p0;
/// use cer_common::gen::sigma0_prefix;
/// use cer_common::Schema;
/// use cer_core::evaluator::StreamingEvaluator;
/// use cer_core::Evaluator;
///
/// let (_, r, s, t) = Schema::sigma0();
/// let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 100);
/// let mut total = 0;
/// for tuple in sigma0_prefix(r, s, t) {
///     total += engine.push_count(&tuple);
/// }
/// assert_eq!(total, 2); // ντ0 and ντ1 of Example 3.3
/// ```
///
/// Inside the runtime one evaluator may serve a *family* of up to 64
/// automata, its *variants*, that differ only in unary predicates
/// (`runtime::worker`'s module docs); every public constructor builds a
/// family of one.
#[derive(Clone, Debug)]
pub struct StreamingEvaluator {
    /// One automaton per variant, all with variant 0's skeleton and join
    /// predicates.
    pceas: Vec<Pcea>,
    /// Per-variant counters, aligned with `pceas`.
    counts: Vec<VariantCounts>,
    clock: WindowClock,
    ds: EnumStructure,
    stage: FireStage,
    /// Next position to read (the paper's `i + 1`).
    next_pos: u64,
    /// Expiry bound computed for the current position.
    current_lo: u64,
    gc_every: u64,
    /// Positions processed since the last collection.
    since_gc: u64,
    /// Positions processed so far (every variant's).
    positions: u64,
    /// Garbage collections run (every variant's).
    collections: u64,
}

impl StreamingEvaluator {
    /// Create an evaluator for `pcea` under window size `w`.
    ///
    /// The algorithm's guarantees (no duplicate outputs, output-linear
    /// delay) require `pcea` to be unambiguous with equality predicates,
    /// as in Theorem 5.1; this is not checked here (see
    /// `ReferenceEval::check_unambiguous`).
    pub fn new(pcea: Pcea, w: u64) -> Self {
        Self::with_window(pcea, WindowPolicy::Count(w))
    }

    /// Create an evaluator with a time window: positions whose timestamp
    /// (the integer at `ts_pos` of every tuple) is older than
    /// `now − duration` expire. Timestamps must be non-decreasing;
    /// out-of-order timestamps are clamped up to the latest seen.
    pub fn new_timed(pcea: Pcea, duration: i64, ts_pos: usize) -> Self {
        assert!(duration >= 0, "window duration must be non-negative");
        Self::with_window(pcea, WindowPolicy::Time { duration, ts_pos })
    }

    /// Create an evaluator with an explicit window policy.
    pub fn with_window(pcea: Pcea, window: WindowPolicy) -> Self {
        let n_states = pcea.num_states();
        StreamingEvaluator {
            pceas: vec![pcea],
            counts: vec![VariantCounts::default()],
            clock: WindowClock::new(window),
            ds: EnumStructure::new(),
            stage: FireStage::new(n_states),
            next_pos: 0,
            current_lo: 0,
            gc_every: 0,
            since_gc: 0,
            positions: 0,
            collections: 0,
        }
    }

    /// Run the copying collector every `every` positions (0 = automatic:
    /// every `max(w, 1024)` positions).
    pub fn set_gc_every(&mut self, every: u64) -> &mut Self {
        self.gc_every = every;
        self
    }

    /// The automaton being evaluated (a family's first variant's).
    pub fn pcea(&self) -> &Pcea {
        &self.pceas[0]
    }

    /// The window policy.
    pub fn window(&self) -> &WindowPolicy {
        self.clock.policy()
    }

    /// The position the *next* tuple will occupy (when pushed without an
    /// explicit position).
    pub fn next_position(&self) -> u64 {
        self.next_pos
    }

    /// Engine counters (a family's first variant's).
    pub fn stats(&self) -> EngineStats {
        self.variant_stat(0)
    }

    /// Variant `v`'s counters: exactly what its private evaluator would
    /// count.
    pub(crate) fn variant_stat(&self, v: usize) -> EngineStats {
        let c = &self.counts[v];
        EngineStats {
            positions: self.positions,
            arena_nodes: c.arena(),
            index_entries: self.stage.index_entries(v),
            extends: c.extends,
            unions: c.unions,
            collections: self.collections,
            ts_regressions: self.clock.ts_regressions(),
        }
    }

    /// Out-of-order timestamps the window clock clamped (every
    /// variant's).
    pub(crate) fn ts_regressions(&self) -> u64 {
        self.clock.ts_regressions()
    }

    /// The variants this evaluator serves.
    pub(crate) fn variants(&self) -> usize {
        self.pceas.len()
    }

    /// Whether `other`, a family of one, may join this family as a new
    /// variant (or, when its unary predicates equal an existing one's,
    /// as another member of that variant), given that the two automata share a
    /// skeleton (the runtime's shard host checks that): equal join
    /// predicates, window policy and GC cadence, and both still in their
    /// initial state — no position seen, the same next position, the
    /// same counters.
    pub(crate) fn accepts(&self, other: &Self) -> bool {
        let (mine, theirs) = (self.pcea().transitions(), other.pcea().transitions());
        let joins = mine.len() == theirs.len()
            && mine.iter().zip(theirs).all(|(a, b)| a.binary == b.binary);
        joins
            && other.variants() == 1
            && self.window() == other.window()
            && self.gc_every == other.gc_every
            && self.positions == 0
            && self.next_pos == other.next_pos
            && self.stats() == other.stats()
    }

    /// Add `other` (which [`accepts`](Self::accepts)) as a new variant;
    /// returns its index. Panics past [`MAX_VARIANTS`].
    pub(crate) fn add_variant(&mut self, other: Self) -> usize {
        debug_assert!(self.accepts(&other));
        assert!(self.variants() < MAX_VARIANTS, "a family is full");
        self.stage.add_variant();
        self.pceas.extend(other.pceas);
        self.counts.extend(other.counts);
        self.variants() - 1
    }

    /// Drop variant `v` of a family of more than one; the variants above
    /// it move down one index. Its nodes become garbage.
    pub(crate) fn remove_variant(&mut self, v: usize) {
        assert!(self.variants() > 1, "a family keeps one variant");
        self.pceas.remove(v);
        self.counts.remove(v);
        self.stage.remove_variant(v);
    }

    /// Variant `v` as a private evaluator: its automaton and counters,
    /// the shared clock and cursors, its `H` column and an arena copied
    /// from its roots. It evaluates every stream exactly as the variant
    /// would. A family of one is simply cloned.
    pub(crate) fn variant(&self, v: usize) -> Self {
        if self.variants() == 1 {
            return self.clone();
        }
        let mut stage = self.stage.variant(v);
        // `lo = 0` keeps every root non-`⊥`, as `H` entries must be;
        // the next collection prunes what has expired.
        let ds = self.ds.copied(&mut stage.roots_mut(), 0, (0, 0));
        StreamingEvaluator {
            pceas: vec![self.pceas[v].clone()],
            counts: vec![self.counts[v]],
            clock: self.clock.clone(),
            ds,
            stage,
            ..*self
        }
    }

    /// The keys of the look-up table `H`.
    #[cfg(test)]
    pub(crate) fn index_keys(&self) -> Vec<(u32, u32, cer_automata::predicate::Key)> {
        self.stage.index_keys()
    }

    /// Update phase of Algorithm 1 for one tuple: a slice of one with no
    /// enumeration. Returns the position it occupied. Call
    /// [`for_each_output`](Self::for_each_output) afterwards, or use the
    /// combined [`Evaluator`] methods.
    pub fn push(&mut self, t: &Tuple) -> u64 {
        let i = self.next_pos;
        self.push_private(std::slice::from_ref(t), None, |_, _| {});
        i
    }

    /// The GC cadence check: run the copying collector once
    /// `since_gc` reaches the configured cadence (0 = the window's
    /// default).
    fn maybe_collect(&mut self) {
        let gc_every = if self.gc_every == 0 {
            self.clock.default_gc_every()
        } else {
            self.gc_every
        };
        if self.since_gc >= gc_every {
            self.collect();
        }
    }

    /// Run the copying collector now.
    fn collect(&mut self) {
        self.since_gc = 0;
        self.collections += 1;
        self.stage
            .collect_garbage(&mut self.ds, self.current_lo, &mut self.counts);
    }

    /// The one per-position core every push runs (see the module docs
    /// for its exactness argument): evaluate `len` stamped tuples,
    /// provided by `get` in strictly increasing position order, after
    /// `prefilter` has filled the unary mask over them and returned its
    /// stride. Per position: fire, index and, when `labels` is
    /// `Some(n)`, enumerate the new outputs of the variants in `listen`
    /// with `n` labels into `f(position, variants, valuation)`, where
    /// `variants` is the mask of variants the valuation is an output of
    /// (`n = 0` yields placeholder valuations, enough to count); `None`
    /// skips enumeration. Then one GC cadence check at the slice
    /// boundary.
    ///
    /// Positions may have gaps: a shard evaluator inside the multi-query
    /// [`Runtime`](crate::runtime::Runtime) only sees the tuples routed
    /// to it, yet valuations carry global stream positions, and count
    /// windows keep their global meaning (`lo = i − w`). Panics if a
    /// position is behind one already pushed.
    fn push_positions<'t, G, F>(
        &mut self,
        len: usize,
        get: G,
        prefilter: impl FnOnce(&mut FireStage, &Pcea) -> usize,
        labels: Option<usize>,
        listen: u64,
        mut f: F,
    ) where
        G: Fn(usize) -> (u64, &'t Tuple),
        F: FnMut(u64, u64, &Valuation),
    {
        if len == 0 {
            return;
        }
        let pcea = &self.pceas[0];
        let stride = prefilter(&mut self.stage, pcea);
        // Hoist the window-policy dispatch: count windows are a pure
        // function of the position; time windows must consult each
        // tuple's timestamp, so they keep the per-tuple clock update.
        let count_w = self.clock.count_window();
        // One enumeration scratch for the whole slice.
        let mut scratch = labels.map(Valuation::empty);
        for j in 0..len {
            let (i, t) = get(j);
            assert!(
                i >= self.next_pos,
                "positions must increase: got {i}, expected at least {}",
                self.next_pos
            );
            self.next_pos = i + 1;
            self.positions += 1;
            let lo = match count_w {
                Some(w) => i.saturating_sub(w),
                None => self.clock.observe(i, t),
            };
            self.current_lo = lo;
            self.stage.begin_position();
            self.stage
                .fire_transitions(pcea, &mut self.ds, t, i, lo, &mut self.counts, j, stride);
            self.stage
                .update_indices(pcea, &mut self.ds, t, lo, &mut self.counts);
            self.since_gc += 1;
            if let Some(scratch) = &mut scratch {
                enumerate_position(pcea, &self.stage, &self.ds, lo, listen, scratch, |m, v| {
                    f(i, m, v)
                });
            }
        }
        // Amortized GC: the cadence check runs once per slice. Collection
        // is transparent to outputs, so deferring it within the slice
        // only lets the arena overshoot by at most one slice.
        self.maybe_collect();
    }

    /// [`push_positions`](Self::push_positions) over `batch` at
    /// consecutive positions from [`next_position`](Self::next_position),
    /// with the unary mask evaluated privately.
    fn push_private<F>(&mut self, batch: &[Tuple], labels: Option<usize>, mut f: F)
    where
        F: FnMut(u64, &Valuation),
    {
        let start = self.next_pos;
        self.push_positions(
            batch.len(),
            |j| (start + j as u64, &batch[j]),
            |stage, pcea| stage.prefilter_slice(pcea, batch.iter(), batch.len()),
            labels,
            1,
            |i, _, v| f(i, v),
        );
    }

    /// Batch update: push a whole slice at consecutive positions,
    /// calling `f(position, valuation)` for each new output.
    ///
    /// Outputs are bit-identical to pushing the tuples one at a time —
    /// enumeration still happens at every position — but the fire stage
    /// is vectorized across the slice: unary predicates are pre-filtered
    /// into a bitmask, per-position bookkeeping is hoisted into reusable
    /// scratch, and the GC cadence check is amortized to the batch
    /// boundary. See the module docs for the exactness argument.
    pub fn push_slice_for_each<F: FnMut(u64, &Valuation)>(&mut self, batch: &[Tuple], f: F) {
        let labels = Some(self.pcea().num_labels());
        self.push_private(batch, labels, f);
    }

    /// Push a whole slice and count the new outputs without
    /// materializing them.
    pub fn push_slice_count(&mut self, batch: &[Tuple]) -> usize {
        let mut n = 0usize;
        self.push_private(batch, Some(0), |_, _| n += 1);
        n
    }

    /// The runtime shard workers' push: evaluate the stamped tuples
    /// selected by `sel` (indices into `tuples`, in increasing position
    /// order), with the unary mask gathered from the shard's shared
    /// [`PredicateCache`](crate::shared::PredicateCache) instead of
    /// evaluated privately: `slots` maps each transition of each
    /// variant's automaton to its interned predicate slot, variant-major
    /// ([`FireStage::prefilter_shared`](crate::fire)). Outputs of the
    /// variants in `listen` are enumerated into `f(position, variants,
    /// valuation)` — a shard skips the rest, and all of it when no
    /// subscriber listens. Everything after the mask runs the same core
    /// as every other push, and the mask bits are the same `matches()`
    /// outcomes, so outputs are bit-identical.
    ///
    /// `timers`, when given, splits the call's wall time into the
    /// shared-prefilter phase and the fire/index/enumerate rest — the
    /// shard worker passes its stage histograms; timing is three
    /// `Instant` reads per *batch*, not per tuple.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_slice_selected_shared<F: FnMut(u64, u64, &Valuation)>(
        &mut self,
        tuples: &[(u64, Tuple)],
        sel: &[u32],
        slots: &[u32],
        cache: &mut crate::shared::PredicateCache,
        listen: u64,
        timers: Option<(&cer_obs::Histogram, &cer_obs::Histogram)>,
        f: F,
    ) {
        let started = timers.map(|_| std::time::Instant::now());
        let mut prefiltered = None;
        let labels = (listen != 0).then(|| self.pcea().num_labels());
        self.push_positions(
            sel.len(),
            |k| {
                let (i, t) = &tuples[sel[k] as usize];
                (*i, t)
            },
            |stage, pcea| {
                let stride = stage.prefilter_shared(pcea, cache, slots, sel, tuples);
                prefiltered = started.map(|_| std::time::Instant::now());
                stride
            },
            labels,
            listen,
            f,
        );
        if let (Some((prefilter, tail)), Some(at), Some(mid)) = (timers, started, prefiltered) {
            prefilter.record_duration(mid.saturating_duration_since(at));
            tail.record_duration(mid.elapsed());
        }
    }

    /// Checkpoint encoding of every cross-position piece of this
    /// evaluator (a family of one): the window clock, position cursors,
    /// engine counters, the `DS_w` arena and the look-up table `H`. The
    /// per-position `N_p` lists and all scratch are excluded — they are
    /// only meaningful *within* a position, and a snapshot is always
    /// taken at a position boundary (see [`crate::checkpoint`]).
    ///
    /// Runs the copying collector first so the snapshot carries only
    /// state reachable from live `H` entries.
    pub(crate) fn snapshot_bytes(&mut self) -> Result<Vec<u8>, cer_common::wire::WireError> {
        debug_assert_eq!(self.variants(), 1, "a snapshot holds one query");
        self.collect();
        let mut w = cer_common::wire::WireWriter::new();
        self.clock.encode(&mut w)?;
        w.put_u64(self.next_pos);
        w.put_u64(self.current_lo);
        w.put_u64(self.gc_every);
        w.put_u64(self.since_gc);
        w.put_u64(self.positions);
        w.put_u64(self.counts[0].extends);
        w.put_u64(self.counts[0].unions);
        w.put_u64(self.collections);
        self.ds.encode(&mut w)?;
        self.stage.encode(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Rebuild an evaluator from [`snapshot_bytes`](Self::snapshot_bytes)
    /// output and the (separately serialized) automaton.
    pub(crate) fn from_snapshot_bytes(
        pcea: Pcea,
        bytes: &[u8],
    ) -> Result<Self, cer_common::wire::WireError> {
        let mut r = cer_common::wire::WireReader::new(bytes);
        let clock = WindowClock::decode(&mut r)?;
        let next_pos = r.get_u64()?;
        let current_lo = r.get_u64()?;
        let gc_every = r.get_u64()?;
        let since_gc = r.get_u64()?;
        let positions = r.get_u64()?;
        let extends = r.get_u64()?;
        let unions = r.get_u64()?;
        let collections = r.get_u64()?;
        let ds = crate::ds::EnumStructure::decode(&mut r, pcea.num_labels(), next_pos)?;
        let stage = FireStage::decode(&mut r, &pcea, ds.len())?;
        if !r.is_exhausted() {
            return Err(cer_common::wire::WireError::Corrupt(
                "trailing bytes after evaluator state",
            ));
        }
        let mut counts = VariantCounts::default();
        (counts.extends, counts.unions) = (extends, unions);
        counts.collected(ds.len());
        Ok(StreamingEvaluator {
            pceas: vec![pcea],
            counts: vec![counts],
            clock,
            ds,
            stage,
            next_pos,
            current_lo,
            gc_every,
            since_gc,
            positions,
            collections,
        })
    }

    /// Merge another shard replica of the *same* query into this
    /// evaluator (restore-time shard-count change,
    /// [`crate::checkpoint`]): arenas concatenate with remapped ids,
    /// `H` tables union (replica key sets are disjoint under sound key
    /// partitioning), window clocks interleave, and counters sum.
    pub(crate) fn absorb_replica(&mut self, other: StreamingEvaluator) {
        debug_assert!(self.variants() == 1 && other.variants() == 1);
        let offset = self.ds.absorb(other.ds);
        let mine = &mut self.counts[0];
        self.stage.absorb(other.stage, offset, &mut self.ds, mine);
        self.clock.absorb(other.clock);
        self.next_pos = self.next_pos.max(other.next_pos);
        self.current_lo = self.current_lo.max(other.current_lo);
        self.since_gc = self.since_gc.max(other.since_gc);
        self.positions += other.positions;
        self.collections += other.collections;
        mine.extends += other.counts[0].extends;
        mine.unions += other.counts[0].unions;
        mine.collected(self.ds.len());
    }

    /// Restrict this evaluator to the key slice shard `shard` owns
    /// under a `(pos, n_shards)` key partition, dropping every run
    /// whose join key hashes elsewhere.
    ///
    /// Called on each home's copy when merged `ByKey` state is
    /// redistributed (restore into a different shard count,
    /// `Runtime::rescale`). The dropped state is exactly the slice the
    /// tuple router never sends this shard, so outputs are unchanged —
    /// but the pruning is what keeps replicas *disjoint*, which
    /// [`absorb_replica`](Self::absorb_replica) relies on: merging
    /// un-pruned full copies would duplicate every in-window run on the
    /// next rescale or snapshot.
    pub(crate) fn retain_key_shard(&mut self, pos: usize, shard: usize, n_shards: usize) {
        debug_assert_eq!(self.variants(), 1);
        let hasher = cer_common::hash::FxBuildHasher::default();
        self.stage
            .retain_key_shard(&self.pceas[0], pos, shard, n_shards, &hasher);
        // Compact with `lo = 0`: after a merge, `current_lo` is the max
        // across replicas, which may overshoot a slice that saw older
        // in-window tuples — expiry is re-applied lazily from the
        // merged clock at the next position, exactly as after
        // [`absorb_replica`](Self::absorb_replica).
        self.collections += 1;
        self.since_gc = 0;
        self.stage
            .collect_garbage(&mut self.ds, 0, &mut self.counts);
    }

    /// Zero the counters of a restore-time replica clone so per-query
    /// stats (summed across shards) are not multiplied by the shard
    /// count when merged state is replicated. The gauges — `H` entries
    /// and arena nodes — stay: they describe what the clone holds.
    pub(crate) fn clear_replica_stats(&mut self) {
        self.positions = 0;
        self.collections = 0;
        for c in &mut self.counts {
            let live = c.arena();
            *c = VariantCounts::default();
            c.collected(live);
        }
        self.clock.reset_regressions();
    }

    /// Set the position the next pushed tuple must occupy (restore-time
    /// alignment with the runtime's resumed sequencer position).
    pub(crate) fn set_resume_position(&mut self, pos: u64) {
        assert!(pos >= self.next_pos, "cannot resume behind captured state");
        self.next_pos = pos;
    }

    /// Hand this evaluator's accumulated state (a family of one) to a
    /// recompiled query (`Runtime::replace` hot-swap). The caller must
    /// have verified [`Pcea::skeleton_compatible`]; the window handoff
    /// goes through [`WindowClock::migrate`], which returns `None` —
    /// surfaced here — when the window *kind* changes (count vs. time,
    /// or a moved timestamp attribute). Within a kind, any resize is
    /// accepted: widening cannot resurrect runs already pruned under the
    /// old bound (it converges within one old window), narrowing
    /// re-prunes lazily at the next position.
    pub(crate) fn replace_automaton(
        self,
        pcea: Pcea,
        window: WindowPolicy,
        gc_every: u64,
    ) -> Option<Self> {
        debug_assert_eq!(self.variants(), 1);
        debug_assert!(self.pcea().skeleton_compatible(&pcea));
        let clock = self.clock.migrate(window)?;
        Some(StreamingEvaluator {
            pceas: vec![pcea],
            clock,
            gc_every,
            ..self
        })
    }

    /// Enumerate this position's new outputs (`⟦P⟧^w_i(S)`), calling `f`
    /// once per valuation. Must follow [`push`](Self::push) for the same
    /// position.
    pub fn for_each_output<F: FnMut(&Valuation)>(&self, mut f: F) {
        let mut scratch = Valuation::empty(self.pcea().num_labels());
        let (pcea, lo) = (self.pcea(), self.current_lo);
        enumerate_position(pcea, &self.stage, &self.ds, lo, 1, &mut scratch, |_, v| {
            f(v)
        });
    }
}

/// The enumeration phase at the position just updated: every node that
/// reached a final state holds exactly this position's new outputs with
/// `min(ν) ≥ lo` of the variants in its mask. Each node built for some
/// variant in `listen` is enumerated once into `f(mask, valuation)`.
/// `scratch` is the (empty) running valuation shared by every root; one
/// over no labels yields placeholder valuations — enough to count
/// without materializing.
fn enumerate_position<F: FnMut(u64, &Valuation)>(
    pcea: &Pcea,
    stage: &FireStage,
    ds: &EnumStructure,
    lo: u64,
    listen: u64,
    scratch: &mut Valuation,
    mut f: F,
) {
    for q in pcea.finals() {
        for &(n, mask) in stage.nodes_at(q.index()) {
            if mask & listen != 0 {
                enumerate::for_each_valuation_into(ds, n, lo, scratch, &mut |v: &Valuation| {
                    f(mask, v)
                });
            }
        }
    }
}

impl Evaluator for StreamingEvaluator {
    fn push_collect(&mut self, t: &Tuple) -> Vec<Valuation> {
        let mut out = Vec::new();
        self.push_for_each(t, &mut |v| out.push(v.clone()));
        out
    }

    fn push_count(&mut self, t: &Tuple) -> usize {
        self.push_slice_count(std::slice::from_ref(t))
    }

    fn push_for_each(&mut self, t: &Tuple, f: &mut dyn FnMut(&Valuation)) {
        self.push_slice_for_each(std::slice::from_ref(t), |_, v| f(v));
    }

    fn push_slice(&mut self, batch: &[Tuple], f: &mut dyn FnMut(usize, &Valuation)) {
        let start = self.next_pos;
        self.push_slice_for_each(batch, |i, v| f((i - start) as usize, v));
    }
}

/// Convenience driver: evaluate a PCEA over a finite stream, returning
/// `(position, outputs)` for every position with at least one output.
pub fn run_to_end(pcea: Pcea, w: u64, stream: &[Tuple]) -> Vec<(u64, Vec<Valuation>)> {
    let mut engine = StreamingEvaluator::new(pcea, w);
    let mut out = Vec::new();
    for t in stream {
        let vs = engine.push_collect(t);
        if !vs.is_empty() {
            out.push((engine.next_position() - 1, vs));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_automata::ccea::paper_c0;
    use cer_automata::pcea::paper_p0;
    use cer_automata::reference::ReferenceEval;
    use cer_common::gen::sigma0_prefix;
    use cer_common::Schema;

    /// Drive the core with one tuple at the explicit position `i`, as a
    /// shard worker does with the tuples routed to it.
    fn push_at(engine: &mut StreamingEvaluator, t: &Tuple, i: u64) {
        engine.push_positions(
            1,
            |_| (i, t),
            |stage, pcea| stage.prefilter_slice(pcea, std::iter::once(t), 1),
            None,
            1,
            |_, _, _| {},
        );
    }

    /// Differential harness: engine output == reference oracle at every
    /// position and for several window sizes.
    fn check_against_reference(pcea: &Pcea, stream: &[Tuple], windows: &[u64]) {
        let reference = ReferenceEval::new(pcea, stream);
        for &w in windows {
            let mut engine = StreamingEvaluator::new(pcea.clone(), w);
            for (n, t) in stream.iter().enumerate() {
                let mut got = engine.push_collect(t);
                got.sort();
                got.dedup();
                let want = reference.windowed_outputs_at(n, w);
                assert_eq!(got, want, "w={w}, position {n}");
            }
        }
    }

    #[test]
    fn example_3_3_on_the_engine() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        check_against_reference(&paper_p0(r, s, t), &stream, &[0, 2, 4, 5, 100]);
    }

    #[test]
    fn ccea_embedding_on_the_engine() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        check_against_reference(&paper_c0(r, s, t).to_pcea(), &stream, &[1, 3, 100]);
    }

    #[test]
    fn outputs_fire_exactly_at_completion() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 100);
        let counts: Vec<usize> = stream.iter().map(|t| engine.push_count(t)).collect();
        assert_eq!(counts, vec![0, 0, 0, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn window_cuts_long_spans() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        // Span of ντ0 is 4, of ντ1 is 5.
        for (w, expect) in [(5u64, 2usize), (4, 1), (3, 0)] {
            let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), w);
            let total: usize = stream.iter().map(|t| engine.push_count(t)).sum();
            assert_eq!(total, expect, "w={w}");
        }
    }

    #[test]
    fn long_stream_with_gc_matches_no_gc() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 42).with_domains(4, 4);
        let stream: Vec<Tuple> = (0..400).map(|_| gen.next_tuple().unwrap()).collect();
        let pcea = paper_p0(r, s, t);
        let w = 16;

        let mut eager = StreamingEvaluator::new(pcea.clone(), w);
        eager.set_gc_every(7);
        let mut lazy = StreamingEvaluator::new(pcea, w);
        lazy.set_gc_every(1_000_000);
        for tu in &stream {
            let mut a = eager.push_collect(tu);
            let mut b = lazy.push_collect(tu);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        assert!(eager.stats().collections > 0);
        assert!(eager.stats().arena_nodes < lazy.stats().arena_nodes);
    }

    #[test]
    fn memory_stays_bounded_under_gc() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 7).with_domains(8, 8);
        let pcea = paper_p0(r, s, t);
        let w = 32;
        let mut engine = StreamingEvaluator::new(pcea, w);
        engine.set_gc_every(w);
        let mut peak = 0usize;
        for _ in 0..2000 {
            let tu = gen.next_tuple().unwrap();
            engine.push(&tu);
            peak = peak.max(engine.stats().arena_nodes);
        }
        // Live state is O(|∆| · w); allow a generous constant.
        assert!(peak < 64 * (w as usize) * 3, "arena peaked at {peak} nodes");
    }

    #[test]
    fn stats_track_work() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 100);
        for tu in &stream {
            engine.push(tu);
        }
        let st = engine.stats();
        assert_eq!(st.positions, 8);
        // 6 initial fires (the S and T tuples) + 1 join fire (R(2,11)).
        assert_eq!(st.extends, 7);
        assert!(st.index_entries > 0);
    }

    #[test]
    fn run_to_end_reports_positions() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let results = run_to_end(paper_p0(r, s, t), 100, &stream);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 5);
        assert_eq!(results[0].1.len(), 2);
    }

    #[test]
    fn push_at_skips_positions_but_keeps_global_windows() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        // Feed the same tuples at their global positions, with gaps, and
        // compare to the contiguous run.
        let mut dense = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        let dense_out: Vec<_> = stream.iter().map(|tu| dense.push_collect(tu)).collect();
        let mut gapped = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        for (n, tu) in stream.iter().enumerate() {
            push_at(&mut gapped, tu, n as u64);
            let mut got = Vec::new();
            gapped.for_each_output(|v| got.push(v.clone()));
            assert_eq!(got, dense_out[n], "position {n}");
        }
        // A sparse subsequence at global positions: window w=5 measured
        // in *global* positions, so the span 0..5 of ντ1 still fits.
        let mut sparse = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        let picks = [0usize, 1, 3, 5];
        let mut total = 0usize;
        for &n in &picks {
            push_at(&mut sparse, &stream[n], n as u64);
            sparse.for_each_output(|_| total += 1);
        }
        assert_eq!(total, 2, "both matches complete at global position 5");
    }

    #[test]
    fn push_slice_matches_per_tuple_across_chunkings() {
        use cer_common::gen::Sigma0Gen;
        use cer_common::Stream;
        let (_, r, s, t) = Schema::sigma0();
        let mut gen = Sigma0Gen::new(r, s, t, 11).with_domains(3, 3);
        let stream: Vec<Tuple> = (0..300).map(|_| gen.next_tuple().unwrap()).collect();
        let pcea = paper_p0(r, s, t);
        let w = 12;

        let mut scalar = StreamingEvaluator::new(pcea.clone(), w);
        scalar.set_gc_every(5);
        let mut want = Vec::new();
        for (n, tu) in stream.iter().enumerate() {
            for v in scalar.push_collect(tu) {
                want.push((n as u64, v));
            }
        }

        // Chunk size 1 exercises the batch path's degenerate case; 7 is
        // deliberately coprime with the GC cadence; 300 is one slice.
        for chunk in [1usize, 7, 64, 300] {
            let mut batched = StreamingEvaluator::new(pcea.clone(), w);
            batched.set_gc_every(5);
            let mut got = Vec::new();
            for slice in stream.chunks(chunk) {
                batched.push_slice_for_each(slice, |i, v| got.push((i, v.clone())));
            }
            assert_eq!(got, want, "chunk={chunk}");
            assert_eq!(batched.next_position(), stream.len() as u64);
            // Amortized GC still runs (at batch boundaries).
            assert!(batched.stats().collections > 0, "chunk={chunk}");
        }

        // Counting without materializing agrees too.
        let mut counter = StreamingEvaluator::new(pcea, w);
        counter.set_gc_every(5);
        let total: usize = stream.chunks(13).map(|c| counter.push_slice_count(c)).sum();
        assert_eq!(total, want.len());
    }

    #[test]
    fn push_slice_handles_empty_and_time_windows() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        // Timestamp = attribute 0 is not monotone in σ0; use a wide
        // duration so clamping stays irrelevant, and compare paths.
        let mut scalar = StreamingEvaluator::new_timed(paper_p0(r, s, t), 1_000, 0);
        let mut batched = StreamingEvaluator::new_timed(paper_p0(r, s, t), 1_000, 0);
        batched.push_slice_for_each(&[], |_, _| panic!("no outputs from an empty slice"));
        let mut want = Vec::new();
        for tu in &stream {
            want.extend(scalar.push_collect(tu));
        }
        let mut got = Vec::new();
        batched.push_slice_for_each(&stream, |i, v| got.push((i, v.clone())));
        assert_eq!(got.len(), want.len());
        assert_eq!(got.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>(), want);
    }

    #[test]
    #[should_panic(expected = "positions must increase")]
    fn push_at_rejects_rewinds() {
        let (_, r, s, t) = Schema::sigma0();
        let stream = sigma0_prefix(r, s, t);
        let mut engine = StreamingEvaluator::new(paper_p0(r, s, t), 5);
        push_at(&mut engine, &stream[0], 3);
        push_at(&mut engine, &stream[1], 3);
    }
}
