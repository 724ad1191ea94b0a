//! The reference the timed runs are checked against.
//!
//! One [`StreamingEvaluator`] per distinct query text is fed pass 0 in
//! full (irrelevant tuples simply fire nothing), independently of the
//! runtime, the ingest pipeline and the serving layer. Its matches are
//! kept as `(offset in pass, query, fingerprint)` triples, where the
//! fingerprint is a 64-bit hash of the valuation with positions taken
//! relative to the pass start, so the same table checks every later
//! pass. The verify pass compares the full multiset; the timed phases
//! compare the running event count and the running (order-free) sum of
//! fingerprints, which costs the reader thread a few nanoseconds per
//! event.

use crate::gen::{Workload, PASS_TUPLES};
use cer_common::Schema;
use cer_core::evaluator::StreamingEvaluator;
use cer_core::runtime::{MatchEvent, QuerySpec};
use cer_core::window::WindowPolicy;
use cer_serve::Frontend;
use std::collections::HashMap;

/// One expected or observed match, position-independent.
pub type MatchKey = (u32, u32, u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(offset, query, valuation − pass_base)`. `entries` are the
/// valuation's `(label, position)` pairs in its own (sorted) order.
pub fn fingerprint(
    offset: u32,
    query: u32,
    pass_base: u64,
    entries: impl Iterator<Item = (u32, u64)>,
) -> u64 {
    let mut h = mix(u64::from(offset) << 32 | u64::from(query));
    for (label, pos) in entries {
        h = mix(h ^ mix(u64::from(label) << 48 ^ pos.wrapping_sub(pass_base)));
    }
    h
}

/// The key of a delivered event, given the first position of the
/// stream (`pos0`). Also returns the stream index `n` of the completing
/// tuple.
pub fn event_key(ev: &MatchEvent, pos0: u64) -> (u64, MatchKey) {
    let n = ev.position.wrapping_sub(pos0);
    let pass_base = pos0 + n / PASS_TUPLES as u64 * PASS_TUPLES as u64;
    let offset = (n % PASS_TUPLES as u64) as u32;
    let fp = fingerprint(
        offset,
        ev.query.0,
        pass_base,
        ev.valuation.entries().map(|(l, p)| (l.0, p)),
    );
    (n, (offset, ev.query.0, fp))
}

/// Compile a query text through the named front-end into a registrable
/// spec — the same two calls per front-end the server makes.
pub fn compile(
    schema: &mut Schema,
    name: &str,
    frontend: Frontend,
    text: &str,
    window: WindowPolicy,
) -> QuerySpec {
    let pcea = match frontend {
        Frontend::Hcq => {
            let q = cer_cq::parser::parse_query(schema, text).expect("workload HCQ text parses");
            cer_cq::compile::compile_hcq(schema, &q)
                .expect("workload HCQ text is hierarchical")
                .pcea
        }
        Frontend::Pattern => {
            let p = cer_lang::parse_pattern(schema, text).expect("workload pattern text parses");
            cer_lang::compile_pattern(schema, &p)
                .expect("workload pattern text compiles")
                .pcea
        }
    };
    QuerySpec::new(name, pcea, window)
}

/// The workload's queries as registrable specs (submitted text, window
/// and partition), in query-id order.
pub fn specs(wl: &Workload) -> Vec<QuerySpec> {
    let mut schema = wl.schema();
    wl.queries
        .iter()
        .map(|q| {
            let spec = compile(&mut schema, &q.name, q.frontend, q.text(), q.window.clone());
            match q.partition {
                Some(p) => spec.with_partition(p),
                None => spec,
            }
        })
        .collect()
}

/// Expected matches of one pass, and prefix sums over the pass for the
/// running checks.
pub struct Oracle {
    /// Sorted.
    pub expected: Vec<MatchKey>,
    /// `cum_count[i]` = matches completed by tuples `0..i` of a pass.
    cum_count: Vec<u64>,
    /// `cum_sum[i]` = wrapping sum of their fingerprints.
    cum_sum: Vec<u64>,
}

impl Oracle {
    pub fn build(wl: &Workload) -> Oracle {
        let specs = specs(wl);
        // Exact duplicates share one reference evaluator.
        let mut by_text: HashMap<&str, Vec<u32>> = HashMap::new();
        for (i, q) in wl.queries.iter().enumerate() {
            by_text.entry(q.text()).or_default().push(i as u32);
        }
        let mut expected: Vec<MatchKey> = Vec::new();
        for ids in by_text.values() {
            let spec = &specs[ids[0] as usize];
            let mut eval = StreamingEvaluator::with_window(spec.pcea.clone(), spec.window.clone());
            for slice in wl.pass.chunks(256) {
                eval.push_slice_for_each(slice, |pos, v| {
                    for &id in ids {
                        let fp = fingerprint(pos as u32, id, 0, v.entries().map(|(l, p)| (l.0, p)));
                        expected.push((pos as u32, id, fp));
                    }
                });
            }
        }
        expected.sort_unstable();
        let mut cum_count = vec![0u64; PASS_TUPLES + 1];
        let mut cum_sum = vec![0u64; PASS_TUPLES + 1];
        for &(offset, _, fp) in &expected {
            cum_count[offset as usize + 1] += 1;
            cum_sum[offset as usize + 1] = cum_sum[offset as usize + 1].wrapping_add(fp);
        }
        for i in 0..PASS_TUPLES {
            cum_count[i + 1] += cum_count[i];
            cum_sum[i + 1] = cum_sum[i + 1].wrapping_add(cum_sum[i]);
        }
        Oracle {
            expected,
            cum_count,
            cum_sum,
        }
    }

    /// Matches per full pass.
    pub fn per_pass(&self) -> u64 {
        self.cum_count[PASS_TUPLES]
    }

    /// Matches completed by stream tuples `0..n`.
    pub fn count_upto(&self, n: u64) -> u64 {
        let (passes, rest) = (n / PASS_TUPLES as u64, (n % PASS_TUPLES as u64) as usize);
        passes * self.per_pass() + self.cum_count[rest]
    }

    /// Wrapping sum of the fingerprints of those matches.
    pub fn sum_upto(&self, n: u64) -> u64 {
        let (passes, rest) = (n / PASS_TUPLES as u64, (n % PASS_TUPLES as u64) as usize);
        passes
            .wrapping_mul(self.cum_sum[PASS_TUPLES])
            .wrapping_add(self.cum_sum[rest])
    }

    /// The longest stream prefix whose matches number at most `events`:
    /// how many tuples' worth of output has arrived.
    pub fn tuples_covered(&self, events: u64) -> u64 {
        if self.per_pass() == 0 {
            return u64::MAX;
        }
        let (passes, rest) = (events / self.per_pass(), events % self.per_pass());
        let within = self.cum_count.partition_point(|&c| c <= rest) - 1;
        passes * PASS_TUPLES as u64 + within as u64
    }

    /// Matches completed by tuples `from..to` (stream indices).
    pub fn count_between(&self, from: u64, to: u64) -> u64 {
        self.count_upto(to) - self.count_upto(from)
    }
}

/// Compare an observed multiset of matches with the expected one (both
/// get sorted here). Returns `(missing, extra)` and up to three
/// examples of each for the error message.
pub fn multiset_diff(expected: &[MatchKey], got: &mut [MatchKey]) -> (u64, u64, Vec<String>) {
    got.sort_unstable();
    let (mut i, mut j) = (0, 0);
    let (mut missing, mut extra) = (0u64, 0u64);
    let mut examples = Vec::new();
    let mut note = |kind: &str, k: &MatchKey, n: u64| {
        if n <= 3 {
            examples.push(format!(
                "{kind} match at offset {} of query {} (fingerprint {:016x})",
                k.0, k.1, k.2
            ));
        }
    };
    while i < expected.len() || j < got.len() {
        match (expected.get(i), got.get(j)) {
            (Some(e), Some(g)) if e == g => {
                i += 1;
                j += 1;
            }
            (Some(e), Some(g)) if e < g => {
                missing += 1;
                note("missing", e, missing);
                i += 1;
            }
            (Some(e), None) => {
                missing += 1;
                note("missing", e, missing);
                i += 1;
            }
            (_, Some(g)) => {
                extra += 1;
                note("extra", g, extra);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (missing, extra, examples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{FANOUT_WINDOW, WORKLOADS};

    #[test]
    fn prefix_sums_agree_with_the_table() {
        let wl = Workload::build("sparse_serve", 1).unwrap();
        let o = Oracle::build(&wl);
        assert_eq!(o.per_pass() as usize, o.expected.len());
        assert_eq!(o.per_pass(), (PASS_TUPLES / 3) as u64);
        assert_eq!(o.count_upto(0), 0);
        assert_eq!(o.count_upto(3), 1);
        assert_eq!(o.count_upto(PASS_TUPLES as u64 + 3), o.per_pass() + 1);
        assert_eq!(o.tuples_covered(0), 2);
        assert_eq!(o.tuples_covered(1), 5);
        assert_eq!(o.tuples_covered(o.per_pass() + 1), PASS_TUPLES as u64 + 5);
        assert_eq!(o.count_between(3, PASS_TUPLES as u64 + 3), o.per_pass());
    }

    /// Pass isomorphism: a second pass with offset keys, pushed into
    /// the *same* evaluators right after the first, yields the same
    /// matches shifted by one pass length.
    #[test]
    fn an_offset_pass_yields_the_same_matches() {
        for name in WORKLOADS {
            let wl = Workload::build(name, 11).unwrap();
            let o = Oracle::build(&wl);
            let specs = specs(&wl);
            let stream = wl.tuples(0, 2 * PASS_TUPLES);
            let mut got = [Vec::new(), Vec::new()];
            for (id, spec) in specs.iter().enumerate() {
                let mut eval =
                    StreamingEvaluator::with_window(spec.pcea.clone(), spec.window.clone());
                eval.push_slice_for_each(&stream, |pos, v| {
                    let ev = MatchEvent {
                        position: pos,
                        query: cer_core::runtime::QueryId(id as u32),
                        valuation: v.clone(),
                    };
                    let (n, key) = event_key(&ev, 0);
                    got[(n / PASS_TUPLES as u64) as usize].push(key);
                });
            }
            for (p, pass) in got.iter_mut().enumerate() {
                let (missing, extra, ex) = multiset_diff(&o.expected, pass);
                assert_eq!((missing, extra), (0, 0), "{name} pass {p}: {ex:?}");
            }
        }
    }

    #[test]
    fn fanout_outputs_per_tuple_is_between_8_and_32() {
        for seed in [1, 2, 3, 99] {
            let wl = Workload::build("fanout_enum", seed).unwrap();
            assert_eq!(wl.queries[0].window, WindowPolicy::Count(FANOUT_WINDOW));
            let per_tuple = Oracle::build(&wl).per_pass() as f64 / PASS_TUPLES as f64;
            assert!(
                (8.0..=32.0).contains(&per_tuple),
                "seed {seed}: {per_tuple}"
            );
        }
    }

    #[test]
    fn a_flipped_expectation_is_caught() {
        let wl = Workload::build("sparse_serve", 5).unwrap();
        let o = Oracle::build(&wl);
        let mut got = o.expected.clone();
        assert_eq!(multiset_diff(&o.expected, &mut got).0, 0);
        got[17].2 ^= 1;
        let (missing, extra, examples) = multiset_diff(&o.expected, &mut got);
        assert_eq!((missing, extra), (1, 1));
        assert_eq!(examples.len(), 2);
    }
}
