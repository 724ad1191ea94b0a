//! The benchmark's own workload generator.
//!
//! Everything the program under test sees — relation declarations,
//! query texts and tuples — is built here from `--seed` alone
//! (splitmix64), so the same seed gives byte-identical inputs and the
//! program never sees the seed itself.
//!
//! A workload's stream is one endless sequence of tuples, indexed by
//! `n`. It is made of *passes* of [`PASS_TUPLES`] tuples: pass 0 is
//! generated from the seed, and pass `p` is pass 0 with the join key
//! (attribute 0 of every tuple) offset by `p × 2^32`. Keys of different
//! passes never meet, and every window is shorter than a pass, so every
//! pass is isomorphic to pass 0 and yields exactly the oracle's
//! matches, shifted by the pass's first position.

use cer_common::tuple::tup;
use cer_common::{RelationId, Schema, Tuple, Value};
use cer_core::runtime::Partition;
use cer_core::window::WindowPolicy;
use cer_serve::Frontend;

/// Tuples per pass.
pub const PASS_TUPLES: usize = 32_768;

/// Join-key offset between consecutive passes. Pass-0 keys stay below
/// it, so keys of different passes are disjoint.
pub const KEY_STRIDE: i64 = 1 << 32;

/// The four workload names, in the order `all` and `check` run them.
pub const WORKLOADS: [&str; 4] = [
    "sparse_serve",
    "fanout_enum",
    "many_queries",
    "durable_keyed",
];

/// Sebastiano Vigna's splitmix64: the only source of randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything the
    /// workloads can observe).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A source of keys that are unique within a pass and below
/// [`KEY_STRIDE`]: an affine bijection of `0..2^31` picked by the seed.
struct UniqueKeys {
    mul: u64,
    add: u64,
    i: u64,
}

impl UniqueKeys {
    fn new(rng: &mut SplitMix64) -> Self {
        UniqueKeys {
            mul: rng.next_u64() | 1,
            add: rng.next_u64(),
            i: 0,
        }
    }

    fn next(&mut self) -> i64 {
        let k = self.i.wrapping_mul(self.mul).wrapping_add(self.add) & ((1 << 31) - 1);
        self.i += 1;
        k as i64
    }
}

/// One standing query, in both front-end languages. `frontend` says
/// which text is submitted; the other one only feeds the front-end
/// compile-cost metric.
pub struct QueryDef {
    pub name: String,
    pub frontend: Frontend,
    pub hcq: String,
    pub pattern: String,
    pub window: WindowPolicy,
    pub partition: Option<Partition>,
}

impl QueryDef {
    /// The text that is submitted to the server.
    pub fn text(&self) -> &str {
        match self.frontend {
            Frontend::Hcq => &self.hcq,
            Frontend::Pattern => &self.pattern,
        }
    }
}

/// A generated workload: what to declare, what to submit, what to send.
pub struct Workload {
    pub name: &'static str,
    /// `(name, arity)`, declared in this order, so relation `i` gets
    /// `RelationId(i)` on the server and in the local schema alike.
    pub relations: Vec<(String, usize)>,
    pub queries: Vec<QueryDef>,
    pub shards: usize,
    /// Serve out of a data directory (WAL + checkpoints).
    pub durable: bool,
    /// The fixed open-loop rate of the latency phase: the round number
    /// nearest 40 % of the seed commit's `throughput_tps` on the
    /// machine class the benchmark was defined on. Never re-derived.
    pub rate_tps: u64,
    /// Pass 0.
    pub pass: Vec<Tuple>,
}

impl Workload {
    /// Build the named workload from a seed; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        // Mix the workload's position into the seed so two workloads
        // run with the same `--seed` do not share a key sequence.
        let idx = WORKLOADS.iter().position(|w| *w == name)?;
        let mut rng = SplitMix64::new(seed ^ (idx as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        Some(match idx {
            0 => sparse_serve(&mut rng),
            1 => fanout_enum(&mut rng),
            2 => many_queries(&mut rng),
            _ => durable_keyed(&mut rng),
        })
    }

    /// A schema with the workload's relations declared in order.
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for (name, arity) in &self.relations {
            schema
                .add_relation(name, *arity)
                .expect("workload relation names are distinct");
        }
        schema
    }

    /// Tuples `n .. n + len` of the endless stream.
    pub fn tuples(&self, n: u64, len: usize) -> Vec<Tuple> {
        (n..n + len as u64)
            .map(|i| {
                let pass = (i / PASS_TUPLES as u64) as i64;
                shift_key(&self.pass[(i % PASS_TUPLES as u64) as usize], pass)
            })
            .collect()
    }
}

/// `t` with its join key (attribute 0) moved into pass `pass`.
fn shift_key(t: &Tuple, pass: i64) -> Tuple {
    if pass == 0 {
        return t.clone();
    }
    let mut values = t.values().to_vec();
    let key = values[0]
        .as_int()
        .expect("attribute 0 of every generated tuple is an integer key");
    values[0] = Value::Int(key + pass * KEY_STRIDE);
    Tuple::new(t.relation(), values)
}

/// σ0 relations `T<f>/1, S<f>/2, R<f>/2` for each family, family-major.
fn sigma0_relations(families: usize) -> Vec<(String, usize)> {
    (0..families)
        .flat_map(|f| {
            [
                (format!("T{f}"), 1),
                (format!("S{f}"), 2),
                (format!("R{f}"), 2),
            ]
        })
        .collect()
}

fn sigma0_hcq(f: usize) -> String {
    format!("Q{f}(x, y) <- T{f}(x), S{f}(x, y), R{f}(x, y)")
}

/// Round-robin the families; each family emits `T(x), S(x,y), R(x,y')`
/// triples with a key unique to the triple. `y' = y` (the triple
/// completes a match) with probability `complete_in_8 / 8`.
fn sigma0_pass(
    rng: &mut SplitMix64,
    families: usize,
    y_domain: u64,
    complete_in_8: u64,
) -> Vec<Tuple> {
    let mut keys = UniqueKeys::new(rng);
    // Per family: which member of the triple comes next, and its (x, y).
    let mut state = vec![(0u8, 0i64, 0i64); families];
    (0..PASS_TUPLES)
        .map(|i| {
            let f = i % families;
            let rel = |k: u32| RelationId(3 * f as u32 + k);
            let (step, x, y) = &mut state[f];
            let t = match *step {
                0 => {
                    *x = keys.next();
                    *y = rng.below(y_domain) as i64;
                    tup(rel(0), [*x])
                }
                1 => tup(rel(1), [*x, *y]),
                _ => {
                    let complete = rng.below(8) < complete_in_8;
                    tup(
                        rel(2),
                        [*x, if complete { *y } else { *y + y_domain as i64 }],
                    )
                }
            };
            *step = (*step + 1) % 3;
            t
        })
        .collect()
}

/// One HCQ, one match per three tuples, one shard: the evaluator does
/// almost nothing per tuple, so the serving hop is nearly all of it.
fn sparse_serve(rng: &mut SplitMix64) -> Workload {
    Workload {
        name: "sparse_serve",
        relations: vec![("T".into(), 1), ("S".into(), 2), ("R".into(), 2)],
        queries: vec![QueryDef {
            name: "q0".into(),
            frontend: Frontend::Hcq,
            hcq: "Q0(x, y) <- T(x), S(x, y), R(x, y)".into(),
            pattern: "T(x) && S(x, y) ; R(x, y)".into(),
            window: WindowPolicy::Count(4096),
            partition: None,
        }],
        shards: 1,
        durable: false,
        rate_tps: SPARSE_RATE_TPS,
        pass: sigma0_pass(rng, 1, 1000, 8),
    }
}

/// Fan-out knobs: four relations drawn uniformly, keys uniform in
/// `FANOUT_KEYS`, so a key has `w / (4 × keys) ≈ 2.2` live tuples per
/// relation and a tuple completes about `2.2³ ≈ 10` matches.
pub const FANOUT_WINDOW: u64 = 2048;
const FANOUT_KEYS: u64 = 233;

/// One star HCQ whose every tuple completes 8–32 matches: enumeration,
/// delivery and Event frames dominate.
fn fanout_enum(rng: &mut SplitMix64) -> Workload {
    let pass = (0..PASS_TUPLES)
        .map(|_| {
            let rel = rng.below(4) as u32;
            let x = rng.below(FANOUT_KEYS) as i64;
            if rel == 0 {
                tup(RelationId(0), [x])
            } else {
                tup(RelationId(rel), [x, rng.below(1000) as i64])
            }
        })
        .collect();
    Workload {
        name: "fanout_enum",
        relations: vec![
            ("A0".into(), 1),
            ("A1".into(), 2),
            ("A2".into(), 2),
            ("A3".into(), 2),
        ],
        queries: vec![QueryDef {
            name: "star3".into(),
            frontend: Frontend::Hcq,
            hcq: "Q(x, y1, y2, y3) <- A0(x), A1(x, y1), A2(x, y2), A3(x, y3)".into(),
            pattern: "A0(x) && A1(x, y1) && A2(x, y2) && A3(x, y3)".into(),
            window: WindowPolicy::Count(FANOUT_WINDOW),
            partition: None,
        }],
        shards: 1,
        durable: false,
        rate_tps: FANOUT_RATE_TPS,
        pass,
    }
}

/// 16 σ0 families × 16 near-duplicate pattern queries (thresholds cycle
/// 0..7, so half are exact duplicates): the shared prefilter, skeleton
/// groups and per-member `H` tables dominate, and set-up is 256 ×
/// parse + compile + register.
fn many_queries(rng: &mut SplitMix64) -> Workload {
    const FAMILIES: usize = 16;
    const VARIANTS: usize = 16;
    let queries = (0..FAMILIES)
        .flat_map(|f| {
            (0..VARIANTS).map(move |v| QueryDef {
                name: format!("q{f}_{v}"),
                frontend: Frontend::Pattern,
                hcq: sigma0_hcq(f),
                pattern: format!("T{f}(x) && S{f}(x, y) [1 >= {}] ; R{f}(x, y)", v % 8),
                window: WindowPolicy::Count(1024),
                partition: None,
            })
        })
        .collect();
    Workload {
        name: "many_queries",
        relations: sigma0_relations(FAMILIES),
        queries,
        shards: 1,
        durable: false,
        rate_tps: MANY_RATE_TPS,
        // y in 0..8 against thresholds 0..7; a quarter of the triples
        // complete, so matches stay below one per tuple and the output
        // side does not drown the multi-query evaluation this workload
        // is for.
        pass: sigma0_pass(rng, FAMILIES, 8, 2),
    }
}

/// Four σ0 HCQs key-partitioned over two shards, served out of a data
/// directory: the ingest path of `sparse_serve` with the WAL, routing
/// and the reorder stage beside it.
fn durable_keyed(rng: &mut SplitMix64) -> Workload {
    const FAMILIES: usize = 4;
    let queries = (0..FAMILIES)
        .map(|f| QueryDef {
            name: format!("q{f}"),
            frontend: Frontend::Hcq,
            hcq: sigma0_hcq(f),
            pattern: format!("T{f}(x) && S{f}(x, y) ; R{f}(x, y)"),
            window: WindowPolicy::Count(4096),
            partition: Some(Partition::ByKey { pos: 0 }),
        })
        .collect();
    Workload {
        name: "durable_keyed",
        relations: sigma0_relations(FAMILIES),
        queries,
        shards: 2,
        durable: true,
        rate_tps: DURABLE_RATE_TPS,
        pass: sigma0_pass(rng, FAMILIES, 1000, 8),
    }
}

// The frozen open-loop rates (tuples/s); see `Workload::rate_tps`.
const SPARSE_RATE_TPS: u64 = 100_000;
const FANOUT_RATE_TPS: u64 = 5_000;
const MANY_RATE_TPS: u64 = 35_000;
const DURABLE_RATE_TPS: u64 = 100_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pass_different_seed_different_pass() {
        for name in WORKLOADS {
            let a = Workload::build(name, 7).unwrap();
            let b = Workload::build(name, 7).unwrap();
            let c = Workload::build(name, 8).unwrap();
            assert_eq!(a.pass.len(), PASS_TUPLES);
            assert_eq!(a.pass, b.pass, "{name}: same seed must give the same pass");
            assert_ne!(
                a.pass, c.pass,
                "{name}: another seed must give another pass"
            );
            let encode = |w: &Workload| {
                cer_serve::protocol::encode_message(&cer_serve::Request::IngestBatch {
                    tuples: w.pass.clone(),
                })
                .unwrap()
            };
            assert_eq!(encode(&a), encode(&b), "{name}: byte-identical on the wire");
        }
    }

    #[test]
    fn later_passes_shift_only_the_key() {
        let w = Workload::build("durable_keyed", 3).unwrap();
        let n = 2 * PASS_TUPLES as u64 + 5;
        let shifted = w.tuples(n, 4);
        for (j, t) in shifted.iter().enumerate() {
            let base = &w.pass[5 + j];
            assert_eq!(t.relation(), base.relation());
            assert_eq!(t.values()[1..], base.values()[1..]);
            assert_eq!(
                t.get(0).as_int().unwrap(),
                base.get(0).as_int().unwrap() + 2 * KEY_STRIDE
            );
        }
        assert!(w
            .pass
            .iter()
            .all(|t| (0..KEY_STRIDE).contains(&t.get(0).as_int().unwrap())));
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(Workload::build("nope", 1).is_none());
    }
}
