//! Result records: named metrics with unit, sample count and
//! quartiles; the facts two result sets need to be judged comparable;
//! and the small JSON writer/reader they are stored with (the image has
//! no serde).

use crate::stats;
use std::fmt::Write as _;

/// `(name, unit, better, bound)` of every end-to-end metric, exactly as
/// `BENCHMARK.json` lists them (a unit test keeps the two in step).
/// `bound` is the share of the baseline's median by which the metric
/// may get worse before it counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_tps", "tuples/s", "higher", 0.25),
    ("cpu_s_per_mtuple", "s/Mtuple", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
];

/// One named measurement. `value` is what the metric is defined as;
/// `n`, `q1`, `median`, `q3` describe the samples it was taken from.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            q1: value,
            median: value,
            q3: value,
        }
    }

    /// A metric defined as the median of its samples.
    pub fn from_samples(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, median, q3) = stats::quartiles(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: stats::median(samples),
            n: samples.len(),
            q1,
            median,
            q3,
        }
    }

    /// A latency metric: `value` as defined by the caller, quartiles
    /// over the per-window values, `n` the number of latency samples.
    pub fn of_windows(
        name: &str,
        unit: &'static str,
        value: f64,
        per_window: &[f64],
        n: usize,
    ) -> Metric {
        let (q1, median, q3) = stats::quartiles(per_window);
        Metric {
            name: name.to_string(),
            unit,
            value,
            n,
            q1,
            median,
            q3,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("value".into(), Json::Num(self.value)),
            ("unit".into(), Json::Str(self.unit.into())),
            ("n".into(), Json::Num(self.n as f64)),
            ("q1".into(), Json::Num(self.q1)),
            ("median".into(), Json::Num(self.median)),
            ("q3".into(), Json::Num(self.q3)),
        ])
    }
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    /// The contract's metrics: every end-to-end one of an untraced run,
    /// every per-layer one of a traced run.
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Printed and stored, but not part of the contract.
    pub diagnostics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub latency_valid: bool,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, traced: bool, seed: u64, seconds: f64) -> Report {
        Report {
            workload: workload.to_string(),
            traced,
            seed,
            seconds,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            diagnostics: Vec::new(),
            attempted: 0,
            failed: 0,
            latency_valid: true,
            notes: Vec::new(),
        }
    }

    /// The metrics the contract asks this kind of run for.
    pub fn contract_metrics(&self) -> &[Metric] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Correct means: no failed operation, and every contract metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.contract_metrics().iter().all(|m| m.value.is_finite())
    }

    /// The last line of standard output, as the driver reads it.
    pub fn final_line(&self) -> String {
        let metrics = self
            .contract_metrics()
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The full record, for `out/<workload>.{run,layers}.json`.
    pub fn to_json(&self, env: &Json) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(list.iter().map(|m| (m.name.clone(), m.to_json())).collect())
        };
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("traced".into(), Json::Bool(self.traced)),
            ("seed".into(), Json::Str(self.seed.to_string())),
            ("seconds".into(), Json::Num(self.seconds)),
            ("env".into(), env.clone()),
            ("ops_attempted".into(), Json::Num(self.attempted as f64)),
            ("ops_failed".into(), Json::Num(self.failed as f64)),
            ("correct".into(), Json::Bool(self.correct())),
            ("latency_valid".into(), Json::Bool(self.latency_valid)),
            ("metrics".into(), metrics(self.contract_metrics())),
            ("diagnostics".into(), metrics(&self.diagnostics)),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// A table for people, on standard error.
    pub fn print_table(&self) {
        eprintln!(
            "== {} ({}) seed {} — ops attempted {}, failed {}{}",
            self.workload,
            if self.traced { "traced" } else { "end to end" },
            self.seed,
            self.attempted,
            self.failed,
            if self.latency_valid {
                ""
            } else {
                " — latency phase INVALID"
            }
        );
        for (title, list) in [
            ("metrics", self.contract_metrics()),
            ("diagnostics", &self.diagnostics[..]),
        ] {
            if list.is_empty() {
                continue;
            }
            eprintln!("  {title}:");
            for m in list {
                if m.n > 1 {
                    eprintln!(
                        "    {:<44} {:>14.4} {:<9} n={} q1={:.4} med={:.4} q3={:.4}",
                        m.name, m.value, m.unit, m.n, m.q1, m.median, m.q3
                    );
                } else {
                    eprintln!("    {:<44} {:>14.4} {}", m.name, m.value, m.unit);
                }
            }
        }
        for note in &self.notes {
            eprintln!("  note: {note}");
        }
    }
}

/// What two result sets must share to be comparable: the machine, the
/// toolchain, the commit and how busy the box was when the run began.
pub fn environment(phases: &[(&str, f64)]) -> Json {
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|f| f.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        (
            "git_commit".into(),
            Json::Str(output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(output("rustc", &["--version"]))),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        ("cpu_placement".into(), Json::Str(crate::pin::describe())),
        ("load_1m_at_start".into(), Json::Num(load_1m)),
        (
            "phase_seconds".into(),
            Json::Obj(
                phases
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// A JSON value. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open_sep, sep, close_sep) = match indent {
            Some(level) => (
                format!("\n{}", "  ".repeat(level + 1)),
                format!(",\n{}", "  ".repeat(level + 1)),
                format!("\n{}", "  ".repeat(level)),
            ),
            None => (String::new(), ", ".to_string(), String::new()),
        };
        let inner = indent.map(|level| level + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // All the digits of the measurement; JSON has no NaN.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { &open_sep } else { &sep });
                    item.write(out, inner);
                }
                out.push_str(&close_sep);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { &open_sep } else { &sep });
                    Json::Str(k.clone()).write(out, None);
                    out.push_str(": ");
                    v.write(out, inner);
                }
                out.push_str(&close_sep);
                out.push('}');
            }
        }
    }

    /// Indented, for files.
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(0));
        s.push('\n');
        s
    }
}

/// On one line.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None);
        f.write_str(&s)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.at..].starts_with(token.as_bytes()) {
            self.at += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.at));
                    }
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at byte {}", self.at));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at byte {}", self.at));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.at + 1).copied();
                    self.at += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok());
                            let c = hex
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.2034567891234)),
            (
                "b".into(),
                Json::Arr(vec![
                    Json::Bool(true),
                    Json::Null,
                    Json::Str("x \"y\"\n\\".into()),
                ]),
            ),
            ("c".into(), Json::Obj(vec![])),
            ("d".into(), Json::Num(-3e-7)),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert!(!v.to_string().contains('\n'));
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.2034567891234));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("sparse_serve", false, 1, 10.0);
        r.end_to_end.push(Metric::single("setup_s", "s", 0.8127));
        r.attempted = 1000;
        let line = Json::parse(&r.final_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        r.failed = 1;
        assert!(r.final_line().contains("\"correct\": false"));
    }

    #[test]
    fn a_metric_that_is_not_a_number_is_not_correct() {
        let mut r = Report::new("sparse_serve", false, 1, 10.0);
        r.attempted = 1;
        r.end_to_end
            .push(Metric::single("latency_p50_ms", "ms", f64::NAN));
        assert!(!r.correct());
    }
}
