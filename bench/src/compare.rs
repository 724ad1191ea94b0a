//! `compare A.json B.json`: is result set B worse than baseline A by
//! more than the benchmark's own bounds?
//!
//! One row per end-to-end metric × workload. `regressed` when B's value
//! is worse than A's by more than the bound; `unresolved` when it is
//! not, but the metric's own spread (interquartile range of its
//! segments, windows or repetitions, as a share of their median, the
//! wider of the two sides) exceeds the bound, so "no worse" cannot be
//! told from noise; `ok` otherwise.

use crate::report::{Json, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One metric of one side: its value and its spread (0 when it was
/// measured once).
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(a: Side, b: Side, better: &str, bound: f64) -> Verdict {
    let worse = worsening(a.value, b.value, better);
    let spread = a.spread.max(b.spread);
    if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The untraced reports of a result file: a single report, or the
/// `results` list `all` writes.
fn runs(file: &Json) -> Vec<&Json> {
    let list: Vec<&Json> = match file.get("results") {
        Some(Json::Arr(items)) => items.iter().collect(),
        _ => vec![file],
    };
    list.into_iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .collect()
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    let num = |k: &str| m.get(k).and_then(Json::as_f64);
    let spread = match (num("n"), num("q1"), num("median"), num("q3")) {
        (Some(n), Some(q1), Some(med), Some(q3)) if n > 1.0 && med != 0.0 => (q3 - q1) / med,
        _ => 0.0,
    };
    Some(Side {
        value: num("value")?,
        spread,
    })
}

fn describe(run: &Json) -> String {
    let env = |k: &str| run.get("env").and_then(|e| e.get(k));
    format!(
        "seed {} · {} s · commit {} · {} · {} cores · load {}",
        run.get("seed").and_then(Json::as_str).unwrap_or("?"),
        run.get("seconds")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        env("git_commit")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .chars()
            .take(12)
            .collect::<String>(),
        env("cpu_model").and_then(Json::as_str).unwrap_or("?"),
        env("nproc").and_then(Json::as_f64).unwrap_or(f64::NAN),
        env("load_1m_at_start")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
    )
}

/// Print the comparison; returns how many rows regressed.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut regressed = 0;
    let mut rows = 0;
    for run_a in &runs_a {
        let workload = run_a
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a result without a workload name")?;
        let Some(run_b) = runs_b
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            println!("{workload}: only in the baseline");
            continue;
        };
        println!("{workload}");
        println!("  baseline:  {}", describe(run_a));
        println!("  candidate: {}", describe(run_b));
        for (metric, unit, better, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (side(run_a, metric), side(run_b, metric)) else {
                println!("  {metric:<18} missing on one side");
                continue;
            };
            let verdict = judge(sa, sb, better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            rows += 1;
            println!(
                "  {metric:<18} {:>14.4} → {:>14.4} {unit:<9} worse by {:>+7.2} % (bound {:.0} %, spread {:.1} %)  {}",
                sa.value,
                sb.value,
                worsening(sa.value, sb.value, better) * 100.0,
                bound * 100.0,
                sa.spread.max(sb.spread) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced workload result".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 80.0, "higher") - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, "lower") + 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            judge(side(100.0, 0.01), side(95.0, 0.02), "higher", 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(side(100.0, 0.01), side(85.0, 0.02), "higher", 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(side(100.0, 0.01), side(85.0, 0.02), "lower", 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(side(100.0, 0.3), side(95.0, 0.02), "higher", 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(side(100.0, 0.3), side(50.0, 0.02), "higher", 0.1),
            Verdict::Regressed
        );
    }
}
