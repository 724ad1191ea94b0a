//! Print the experiment tables E1–E7.
//!
//! Usage: `cargo run --release -p cer-bench --bin tables -- [e1|…|e7|all]`
//!
//! Each experiment prints a markdown table; the claim being checked is
//! stated above the experiment's function below. Absolute numbers are
//! machine-dependent; the *shapes* (growth rates, who wins, crossovers)
//! are what reproduce the paper's theorems.

use cer_baselines::{CceaStreamEvaluator, NaiveRunsEvaluator, RecomputeEvaluator};
use cer_bench::{
    chain_workload, parallel_branch_pfa, self_join_query_text, sigma0_workload, star_query_text,
    star_workload,
};
use cer_common::{Schema, Tuple};
use cer_core::{Evaluator, StreamingEvaluator};
use cer_cq::compile::compile_hcq;
use cer_cq::parser::parse_query;
use std::time::Instant;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    if all || which == "e1" {
        e1_update_time_vs_window();
    }
    if all || which == "e2" {
        e2_enumeration_delay();
    }
    if all || which == "e3" {
        e3_compiled_size();
    }
    if all || which == "e4" {
        e4_determinization();
    }
    if all || which == "e5" {
        e5_engine_vs_baselines();
    }
    if all || which == "e6" {
        e6_update_vs_outputs();
    }
    if all || which == "e7" {
        e7_pcea_vs_ccea_specialist();
    }
}

fn ns_per(iters: usize, elapsed: std::time::Duration) -> f64 {
    elapsed.as_nanos() as f64 / iters.max(1) as f64
}

/// E1 (Theorem 5.1): update time grows at most logarithmically in `w`.
fn e1_update_time_vs_window() {
    println!("\n## E1 — update time vs window size (Theorem 5.1)\n");
    println!("star HCQ k=3, 200k events, x/y domains 4×4, update phase only\n");
    println!("| w | ns/update | ratio vs w=256 |");
    println!("|---|-----------|----------------|");
    let w0 = {
        let wl = star_workload(3, 200_000, 4, 4, 11);
        time_updates(wl.pcea, &wl.stream, 256)
    };
    for exp in [8u32, 12, 16, 20] {
        let w = 1u64 << exp;
        let wl = star_workload(3, 200_000, 4, 4, 11);
        let ns = time_updates(wl.pcea, &wl.stream, w);
        println!("| 2^{exp} = {w} | {ns:.0} | {:.2}x |", ns / w0);
    }
}

fn time_updates(pcea: cer_automata::pcea::Pcea, stream: &[Tuple], w: u64) -> f64 {
    let mut engine = StreamingEvaluator::new(pcea, w);
    let start = Instant::now();
    for t in stream {
        engine.push(t);
    }
    ns_per(stream.len(), start.elapsed())
}

/// E2 (Theorem 5.2): enumeration delay is output-linear — time per
/// output stays flat as the number of outputs at a position grows.
fn e2_enumeration_delay() {
    println!("\n## E2 — enumeration delay vs result count (Theorem 5.2)\n");
    println!("Q0 over a crafted prefix with m matches completing at one position\n");
    println!("| matches m | total enum us | ns/output |");
    println!("|-----------|---------------|-----------|");
    for m in [1usize, 16, 256, 4096] {
        let mut schema = Schema::new();
        let q = parse_query(&mut schema, "Q0(x, y) <- T(x), S(x, y), R(x, y)").unwrap();
        let pcea = compile_hcq(&schema, &q).unwrap().pcea;
        let r = schema.relation("R").unwrap();
        let s = schema.relation("S").unwrap();
        let t = schema.relation("T").unwrap();
        let mut engine = StreamingEvaluator::new(pcea, 1 << 20);
        // m identical S(0,7) tuples: each is a distinct identifier, so the
        // final R(0,7) completes m distinct t-homomorphisms at once.
        for _ in 0..m {
            engine.push(&cer_common::tuple::tup(s, [0i64, 7]));
        }
        engine.push(&cer_common::tuple::tup(t, [0i64]));
        engine.push(&cer_common::tuple::tup(r, [0i64, 7]));
        let mut count = 0usize;
        let start = Instant::now();
        engine.for_each_output(|_| count += 1);
        let el = start.elapsed();
        assert_eq!(count, m);
        println!(
            "| {m} | {:.1} | {:.0} |",
            el.as_nanos() as f64 / 1000.0,
            ns_per(count, el)
        );
    }
}

/// E3 (Theorem 4.1): compiled size — quadratic without self-joins,
/// exponential with them.
fn e3_compiled_size() {
    println!("\n## E3 — compiled automaton size (Theorem 4.1)\n");
    println!("| star k | atoms | states | transitions | size | size/atoms^2 |");
    println!("|--------|-------|--------|-------------|------|--------------|");
    for k in [1usize, 2, 4, 8, 16, 32] {
        let mut schema = Schema::new();
        let q = parse_query(&mut schema, &star_query_text(k)).unwrap();
        let c = compile_hcq(&schema, &q).unwrap();
        let m = q.num_atoms();
        println!(
            "| {k} | {m} | {} | {} | {} | {:.2} |",
            c.pcea.num_states(),
            c.pcea.transitions().len(),
            c.pcea.size(),
            c.pcea.size() as f64 / (m * m) as f64
        );
    }
    println!("\n| self-join m copies of T(x) | states | transitions | size |");
    println!("|----------------------------|--------|-------------|------|");
    for m in 1..=7usize {
        let mut schema = Schema::new();
        let q = parse_query(&mut schema, &self_join_query_text(m)).unwrap();
        let c = compile_hcq(&schema, &q).unwrap();
        println!(
            "| {m} | {} | {} | {} |",
            c.pcea.num_states(),
            c.pcea.transitions().len(),
            c.pcea.size()
        );
    }
}

/// E4 (Proposition 3.2): PFA determinization is bounded by `2^n`, and
/// the parallel-branch family realizes exponential growth.
fn e4_determinization() {
    println!("\n## E4 — PFA determinization (Proposition 3.2)\n");
    println!("| branches n | PFA states | DFA states | minimized | time ms |");
    println!("|------------|------------|------------|-----------|---------|");
    for n in [2usize, 4, 6, 8, 10, 12] {
        let p = parallel_branch_pfa(n);
        let start = Instant::now();
        let d = p.to_dfa();
        let el = start.elapsed();
        let minimized = if n <= 10 {
            d.minimize().num_states().to_string()
        } else {
            "-".to_string()
        };
        println!(
            "| {n} | {} | {} | {} | {:.2} |",
            p.num_states(),
            d.num_states(),
            minimized,
            el.as_secs_f64() * 1000.0
        );
        assert!(d.num_states() <= 1usize << p.num_states());
        assert!(d.num_states() >= 1usize << n, "family is exponential");
    }
}

/// E5 (positioning): streaming engine vs per-tuple re-evaluation vs
/// explicit runs, across match density.
fn e5_engine_vs_baselines() {
    println!("\n## E5 — engine vs baselines across selectivity\n");
    println!("Q0, 5k events, w=128; domains control match density\n");
    println!("| x,y domain | outputs | engine us/ev | recompute us/ev | naive-runs us/ev |");
    println!("|------------|---------|--------------|-----------------|------------------|");
    for dom in [32i64, 16, 8, 4, 2] {
        let n = 5_000usize;
        let w = 128u64;
        let wl = sigma0_workload(n, dom, dom, 21);

        let mut engine = StreamingEvaluator::new(wl.pcea.clone(), w);
        let start = Instant::now();
        let mut outputs = 0usize;
        for t in &wl.stream {
            outputs += engine.push_count(t);
        }
        let engine_ns = ns_per(n, start.elapsed());

        let mut rec = RecomputeEvaluator::new(wl.query.clone(), w);
        let start = Instant::now();
        let mut rec_outputs = 0usize;
        for t in &wl.stream {
            rec_outputs += rec.push_count(t);
        }
        let rec_ns = ns_per(n, start.elapsed());

        let mut naive = NaiveRunsEvaluator::new(wl.pcea.clone(), w);
        let start = Instant::now();
        let mut naive_outputs = 0usize;
        for t in &wl.stream {
            naive_outputs += naive.push_count(t);
        }
        let naive_ns = ns_per(n, start.elapsed());

        assert_eq!(outputs, rec_outputs, "engines must agree");
        assert_eq!(outputs, naive_outputs, "engines must agree");
        println!(
            "| {dom} | {outputs} | {:.2} | {:.2} | {:.2} |",
            engine_ns / 1000.0,
            rec_ns / 1000.0,
            naive_ns / 1000.0
        );
    }
}

/// E6 (Theorem 5.1): update time does not depend on the number of
/// outputs seen so far.
fn e6_update_vs_outputs() {
    println!("\n## E6 — update time vs accumulated outputs (Theorem 5.1)\n");
    println!("Q0, dense domains 2x2, w=512, update phase only, per-decile means\n");
    println!("| decile | cumulative outputs | ns/update |");
    println!("|--------|--------------------|-----------|");
    let n = 100_000usize;
    let wl = sigma0_workload(n, 2, 2, 33);
    let mut engine = StreamingEvaluator::new(wl.pcea.clone(), 512);
    let mut counter = StreamingEvaluator::new(wl.pcea, 512);
    let chunk = n / 10;
    let mut cumulative = 0usize;
    for d in 0..10 {
        let slice = &wl.stream[d * chunk..(d + 1) * chunk];
        let start = Instant::now();
        for t in slice {
            engine.push(t);
        }
        let ns = ns_per(chunk, start.elapsed());
        // Count outputs on a shadow engine, outside the timed section.
        for t in slice {
            cumulative += counter.push_count(t);
        }
        println!("| {} | {cumulative} | {ns:.0} |", d + 1);
    }
}

/// E7 (\[16\] comparison): the general PCEA engine vs the chain-specialized
/// CCEA engine on chain queries — same outputs, constant-factor gap.
fn e7_pcea_vs_ccea_specialist() {
    println!("\n## E7 — PCEA engine vs CCEA specialist on chains\n");
    println!("chain query k steps, 50k events, domain 8, w=64\n");
    println!("| k | outputs | PCEA engine us/ev | CCEA specialist us/ev | ratio |");
    println!("|---|---------|-------------------|-----------------------|-------|");
    for k in [2usize, 3, 4, 5] {
        let n = 50_000usize;
        let w = 64u64;
        let wl = chain_workload(k, n, 8, 55);

        let mut general = StreamingEvaluator::new(wl.pcea.clone(), w);
        let start = Instant::now();
        let mut outputs = 0usize;
        for t in &wl.stream {
            outputs += general.push_count(t);
        }
        let gen_ns = ns_per(n, start.elapsed());

        let mut specialist = CceaStreamEvaluator::new(wl.ccea.clone(), w);
        let start = Instant::now();
        let mut spec_outputs = 0usize;
        for t in &wl.stream {
            spec_outputs += specialist.push_count(t);
        }
        let spec_ns = ns_per(n, start.elapsed());

        assert_eq!(outputs, spec_outputs, "engines must agree");
        println!(
            "| {k} | {outputs} | {:.2} | {:.2} | {:.2}x |",
            gen_ns / 1000.0,
            spec_ns / 1000.0,
            gen_ns / spec_ns
        );
    }
}
