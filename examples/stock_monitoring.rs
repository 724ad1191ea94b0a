//! Stock-correlation monitoring: the introduction's motivating CER
//! scenario. An HCQ joins alert, buy and sell events per ticker inside a
//! sliding window; the engine keeps up with a high-velocity synthetic
//! feed while reporting only fresh matches.
//!
//! Run with: `cargo run --release --example stock_monitoring [events]`

use pcea::common::gen::StockGen;
use pcea::prelude::*;
use std::time::Instant;

fn main() {
    let events: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    // Schema + workload: BUY(ticker, price), SELL(ticker, price),
    // ALERT(ticker) over 8 tickers with random-walk prices.
    let mut schema = Schema::new();
    let mut feed = StockGen::build(&mut schema, 2024).expect("fresh schema");

    // The HCQ: an alerted ticker with a buy and a sell in the window.
    let query = parse_query(
        &mut schema,
        "Spike(x, p, q) <- ALERT(x), BUY(x, p), SELL(x, q)",
    )
    .expect("well-formed");
    let compiled = compile_hcq(&schema, &query).expect("Spike is hierarchical");
    println!("query    : {}", query.display(&schema));
    println!(
        "automaton: {} states / {} transitions",
        compiled.pcea.num_states(),
        compiled.pcea.transitions().len()
    );

    let window = 64u64;
    let mut engine = StreamingEvaluator::new(compiled.pcea, window);

    let mut matches = 0usize;
    let mut sample: Option<(u64, Valuation)> = None;
    let start = Instant::now();
    for _ in 0..events {
        let tuple = feed.next_tuple().expect("infinite feed");
        let pos = engine.next_position();
        engine.push_for_each(&tuple, &mut |v| {
            matches += 1;
            if sample.is_none() {
                sample = Some((pos, v.clone()));
            }
        });
    }
    let elapsed = start.elapsed();

    println!("events   : {events}");
    println!("window   : {window}");
    println!("matches  : {matches}");
    println!(
        "throughput: {:.2} M events/s ({:.0} ns/event)",
        events as f64 / elapsed.as_secs_f64() / 1e6,
        elapsed.as_nanos() as f64 / events as f64
    );
    if let Some((pos, v)) = sample {
        println!(
            "first match at position {pos}: ALERT@{:?} BUY@{:?} SELL@{:?}",
            v.get(Label(0)),
            v.get(Label(1)),
            v.get(Label(2))
        );
    }
    let stats = engine.stats();
    println!(
        "engine   : {} arena nodes, {} index entries, {} collections",
        stats.arena_nodes, stats.index_entries, stats.collections
    );
}
