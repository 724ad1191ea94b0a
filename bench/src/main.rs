//! Command line of the benchmark. See `README.md` for the glossary.
//!
//! ```text
//! cer-wire-bench run   <workload> [--seed N] [--seconds S]   end to end, tracing off
//! cer-wire-bench trace <workload> [--seed N] [--seconds S]   the layer ladder, tracing on
//! cer-wire-bench all   [--seed N] [--seconds S]              both, every workload, one child process each
//! cer-wire-bench check [--seed N]                            verify pass only, every workload
//! cer-wire-bench compare A.json B.json
//! cer-wire-bench --workload W --seed N --seconds S --trace 0|1   (what BENCHMARK.json's command gets)
//! ```
//!
//! `run` and `trace` end with one JSON line on standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the
//! table for people goes to standard error and the full record to
//! `out/<workload>.run.json` / `out/<workload>.layers.json` (spans to
//! `out/<workload>.trace.json`).

use cer_wire_bench::alloc::CountingAlloc;
use cer_wire_bench::e2e::{self, Phases};
use cer_wire_bench::gen::{Workload, WORKLOADS};
use cer_wire_bench::oracle::Oracle;
use cer_wire_bench::report::{environment, Json, Report};
use cer_wire_bench::{compare, ladder};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    command: String,
    positional: Vec<String>,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        positional: Vec::new(),
        seed: 1,
        seconds: 32.0,
    };
    let mut workload = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--workload" => workload = Some(value("--workload")?),
            "--trace" => traced = value("--trace")? == "1",
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_empty() => args.command = arg,
            _ => args.positional.push(arg),
        }
    }
    if let Some(w) = workload {
        if !args.command.is_empty() {
            return Err("--workload takes the place of a command".into());
        }
        args.command = if traced { "trace" } else { "run" }.into();
        args.positional = vec![w];
    }
    Ok(args)
}

fn write_out(name: &str, contents: &str) -> Result<(), String> {
    let dir = e2e::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `run` or `trace` of one workload; prints the final line.
fn one(args: &Args, traced: bool) -> Result<bool, String> {
    let name = args.positional.first().ok_or("which workload?")?;
    let wl = Workload::build(name, args.seed)
        .ok_or(format!("unknown workload {name}; there are {WORKLOADS:?}"))?;
    let phases = Phases::from_seconds(args.seconds);
    let env = environment(&[
        ("warm_up", phases.warm.as_secs_f64()),
        ("capacity", phases.capacity.as_secs_f64()),
        ("latency_warm_up", phases.lat_warm.as_secs_f64()),
        ("latency", phases.lat.as_secs_f64()),
        ("ladder", args.seconds),
    ]);
    let oracle = Oracle::build(&wl);
    let mut report = Report::new(wl.name, traced, args.seed, args.seconds);
    if traced {
        let tracer = ladder::trace(&wl, &oracle, args.seconds, &mut report)?;
        write_out(&format!("{}.trace.json", wl.name), &tracer.to_json())?;
    } else {
        e2e::run(&wl, &oracle, phases, &mut report)?;
    }
    report.print_table();
    let kind = if traced { "layers" } else { "run" };
    write_out(
        &format!("{}.{kind}.json", wl.name),
        &report.to_json(&env).pretty(),
    )?;
    println!("{}", report.final_line());
    Ok(report.correct())
}

/// Every workload, untraced then traced, each in a process of its own
/// (so `peak_rss_mb` is not cumulative); merges the records.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for (command, kind) in [("run", "run"), ("trace", "layers")] {
            let status = std::process::Command::new(&exe)
                .args([
                    command,
                    workload,
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn {command} {workload}: {e}"))?;
            ok &= status.success();
            let path = e2e::out_dir().join(format!("{workload}.{kind}.json"));
            if status.success() {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                results.push(Json::parse(&text)?);
            }
        }
    }
    // The ladder against the end-to-end run, where both exist.
    for workload in WORKLOADS {
        let find = |traced: bool, metric: &str| {
            results
                .iter()
                .find(|r| {
                    r.get("workload").and_then(Json::as_str) == Some(workload)
                        && r.get("traced") == Some(&Json::Bool(traced))
                })
                .and_then(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        };
        if let (Some(tps), Some(ladder_ns)) = (
            find(false, "throughput_tps"),
            find(true, "serve.ns_per_tuple"),
        ) {
            let e2e_ns = 1e9 / tps;
            eprintln!(
                "{workload}: ladder sum {ladder_ns:.0} ns/tuple, end to end {e2e_ns:.0} ns/tuple (1e9 / throughput_tps), residual {:+.1} %",
                (ladder_ns - e2e_ns) / e2e_ns * 100.0
            );
        }
    }
    let merged = Json::Obj(vec![("results".into(), Json::Arr(results))]);
    write_out("all.json", &merged.pretty())?;
    eprintln!(
        "merged record: {}",
        e2e::out_dir().join("all.json").display()
    );
    Ok(ok)
}

fn check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for name in WORKLOADS {
        let wl = Workload::build(name, args.seed).expect("known workload");
        let oracle = Oracle::build(&wl);
        match e2e::check_workload(&wl, &oracle) {
            Ok((attempted, failed)) => {
                println!("{name}: verify pass exact ({attempted} ops attempted, {failed} failed)")
            }
            Err(e) => {
                println!("{name}: FAILED: {e}");
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.positional[..] else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::compare(&load(a)?, &load(b)?)? == 0)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.command.as_str() {
        "run" => one(&args, false),
        "trace" => one(&args, true),
        "all" => all(&args),
        "check" => check(&args),
        "compare" => compare_files(&args),
        other => Err(format!(
            "unknown command {other:?}; see the head of src/main.rs"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cer-wire-bench: {e}");
            ExitCode::from(2)
        }
    }
}
