//! Sensor-fusion fire detection — and a query *beyond* conjunctive
//! queries.
//!
//! Part 1 runs the fire-detection HCQ
//! `Fire(n,c,p) ← ALARM(n), TEMP(n,c), SMOKE(n,p)` through the compiler.
//!
//! Part 2 hand-builds a PCEA the compiler cannot produce from any CQ: it
//! adds *sequencing* (the ALARM must arrive after both readings — order
//! matters, which no CQ can state) and *value filters* from `Ulin`
//! (TEMP > 60, SMOKE > 350). This is the extra expressive power PCEA
//! brings on top of HCQ (Section 4's closing remark).
//!
//! Run with: `cargo run --release --example sensor_network [events]`

use pcea::common::gen::SensorGen;
use pcea::prelude::*;

fn main() {
    let events: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let mut schema = Schema::new();
    let mut net = SensorGen::build(&mut schema, 32, 7).expect("fresh schema");
    let window = 128u64;

    // ---- Part 1: the compiled HCQ (any order of events).
    let query = parse_query(
        &mut schema,
        "Fire(n, c, p) <- ALARM(n), TEMP(n, c), SMOKE(n, p)",
    )
    .expect("well-formed");
    let compiled = compile_hcq(&schema, &query).expect("hierarchical");
    let mut any_order = StreamingEvaluator::new(compiled.pcea, window);

    // ---- Part 2: sequenced + filtered PCEA, built by hand.
    let temp = net.temp;
    let smoke = net.smoke;
    let alarm = net.alarm;
    let (l_temp, l_smoke, l_alarm) = (Label(0), Label(1), Label(2));
    let mut b = PceaBuilder::new(3);
    let q_temp = b.add_state();
    let q_smoke = b.add_state();
    let q_fire = b.add_state();
    // Hot reading: TEMP(n, c) with c > 60.
    b.add_initial_transition(
        UnaryPredicate::Relation(temp).and(UnaryPredicate::Cmp {
            pos: 1,
            op: CmpOp::Gt,
            value: Value::Int(60),
        }),
        LabelSet::singleton(l_temp),
        q_temp,
    );
    // Dense smoke: SMOKE(n, p) with p > 350.
    b.add_initial_transition(
        UnaryPredicate::Relation(smoke).and(UnaryPredicate::Cmp {
            pos: 1,
            op: CmpOp::Gt,
            value: Value::Int(350),
        }),
        LabelSet::singleton(l_smoke),
        q_smoke,
    );
    // The ALARM arrives *after* both readings, on the same node — a
    // parallelized (two-source) transition with equality joins.
    b.add_transition(
        vec![
            (
                q_temp,
                EqPredicate::on_positions(temp, [0usize], alarm, [0usize]),
            ),
            (
                q_smoke,
                EqPredicate::on_positions(smoke, [0usize], alarm, [0usize]),
            ),
        ],
        UnaryPredicate::Relation(alarm),
        LabelSet::singleton(l_alarm),
        q_fire,
    );
    b.mark_final(q_fire);
    let mut sequenced = StreamingEvaluator::new(b.build(), window);

    // ---- Drive both engines off the same feed.
    let mut fires_any_order = 0usize;
    let mut fires_sequenced = 0usize;
    let mut example: Option<Valuation> = None;
    for _ in 0..events {
        let t = net.next_tuple().expect("infinite feed");
        fires_any_order += any_order.push_count(&t);
        sequenced.push_for_each(&t, &mut |v| {
            fires_sequenced += 1;
            if example.is_none() {
                example = Some(v.clone());
            }
        });
    }

    println!("events              : {events} (window {window})");
    println!("HCQ matches         : {fires_any_order} (any order, no thresholds)");
    println!("sequenced + filtered: {fires_sequenced} (hot TEMP & dense SMOKE before ALARM)");
    assert!(
        fires_sequenced <= fires_any_order,
        "the sequenced/filtered pattern is strictly more selective"
    );
    if let Some(v) = example {
        println!(
            "example incident    : TEMP@{:?} SMOKE@{:?} ALARM@{:?}",
            v.get(l_temp),
            v.get(l_smoke),
            v.get(l_alarm)
        );
    }
}
