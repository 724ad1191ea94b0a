//! Metrics export surface: a self-describing [`MetricsSnapshot`] that
//! renders to Prometheus text exposition format and round-trips
//! through `cer_common::wire`, plus a hand-rolled
//! [`validate_prometheus_text`] checker used by CI to keep the
//! exporter honest.

use crate::hist::{bucket_bounds, HistogramSnapshot, BUCKETS};
use cer_common::wire::{Wire, WireError, WireReader, WireWriter};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

cer_common::wire_enum! {
    /// The value of one exported metric.
    // Unboxed histogram variant: snapshots are built on demand (cold
    // path), and most metrics in a snapshot are histograms anyway — the
    // size skew buys zero-allocation construction.
    #[allow(clippy::large_enum_variant)]
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum MetricValue {
        /// Monotone count.
        0 => Counter(u64),
        /// Last-observed level.
        1 => Gauge(u64),
        /// Latency distribution (bucket counts; nanosecond bounds).
        2 => Histogram(HistogramSnapshot),
    }
}

cer_common::wire_struct! {
    /// One exported metric: a name, help text, optional labels and a value.
    /// Several metrics may share a name with different label sets (e.g. a
    /// per-shard breakdown); the renderer groups them under one
    /// `# HELP`/`# TYPE` header.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Metric {
        /// Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
        pub name: String,
        /// One-line help text.
        pub help: String,
        /// Label pairs attached to every sample of this metric.
        pub labels: Vec<(String, String)>,
        /// The value.
        pub value: MetricValue,
    }
}

cer_common::wire_struct! {
    /// A point-in-time bundle of every exported metric. Built by the
    /// runtime on demand; renders to Prometheus text and encodes to the
    /// checkpoint wire format for network shipping.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        /// The metrics, in export order. Same-name metrics should be
        /// adjacent (the Prometheus format requires one uninterrupted group
        /// per name).
        pub metrics: Vec<Metric>,
    }
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a counter metric.
    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, String)], v: u64) {
        self.push(name, help, labels, MetricValue::Counter(v));
    }

    /// Append a gauge metric.
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, String)], v: u64) {
        self.push(name, help, labels, MetricValue::Gauge(v));
    }

    /// Append a histogram metric.
    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, String)],
        v: HistogramSnapshot,
    ) {
        self.push(name, help, labels, MetricValue::Histogram(v));
    }

    fn push(&mut self, name: &str, help: &str, labels: &[(&str, String)], value: MetricValue) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            value,
        });
    }

    /// Find a metric by name and exact label set (mostly for tests).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Render the snapshot in Prometheus text exposition format.
    ///
    /// Counters and gauges render as single samples. Histograms render
    /// as cumulative `_bucket{le="…"}` series (nanosecond bounds) ending
    /// at `le="+Inf"`, plus `_count` and an *approximate* `_sum` (each
    /// sample contributes its bucket's upper bound — the write path
    /// keeps no exact sum, see the crate cost model).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut seen_header: HashSet<&str> = HashSet::new();
        for m in &self.metrics {
            if seen_header.insert(m.name.as_str()) {
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            }
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, render_labels(&m.labels, None), v);
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    let mut approx_sum = 0u128;
                    let bounds = bucket_bounds();
                    for (i, &c) in h.counts.iter().enumerate() {
                        cum += c;
                        let le = if i < bounds.len() {
                            approx_sum += c as u128 * bounds[i] as u128;
                            bounds[i].to_string()
                        } else {
                            approx_sum += c as u128 * bounds[bounds.len() - 1] as u128;
                            "+Inf".to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            m.name,
                            render_labels(&m.labels, Some(&le)),
                            cum
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        render_labels(&m.labels, None),
                        approx_sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        render_labels(&m.labels, None),
                        cum
                    );
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

// ---------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------

// Not a `wire_struct!` row: a fixed-size array, filled in place with no
// length prefix — the bucket count is part of the format.
impl Wire for HistogramSnapshot {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        for &c in &self.counts {
            w.put_u64(c);
        }
        Ok(())
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut counts = [0u64; BUCKETS];
        for c in counts.iter_mut() {
            *c = r.get_u64()?;
        }
        Ok(HistogramSnapshot { counts })
    }
}

// ---------------------------------------------------------------------
// Format checker
// ---------------------------------------------------------------------

/// Validate a Prometheus text exposition payload. Returns `Err` with a
/// line-numbered message on the first violation.
///
/// Checks, per the exposition format spec (the subset our exporter and
/// any scraper cares about):
/// * every line is a `# HELP`/`# TYPE` comment, a sample, or blank;
/// * metric and label names are well-formed, label values are quoted;
/// * sample values parse as numbers (`+Inf`/`-Inf`/`NaN` allowed);
/// * at most one `TYPE` per metric name, appearing before its samples;
/// * all samples of one name form a single uninterrupted group;
/// * for `histogram` types: only `_bucket`/`_sum`/`_count` suffixed
///   samples, `_bucket` carries an `le` label, each label set ends with
///   an `le="+Inf"` bucket whose cumulative value is non-decreasing in
///   bucket order and equals that label set's `_count`.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    // name -> finished flag (a name group ends when a different name's
    // sample appears; reopening it is a violation).
    let mut open: Option<String> = None;
    let mut finished: HashSet<String> = HashSet::new();
    // (histogram base name, non-le labels) -> (last cumulative, last le, saw +Inf)
    #[derive(Default)]
    struct BucketState {
        last_cum: u64,
        last_le: f64,
        saw_inf: bool,
        inf_value: u64,
    }
    let mut buckets: HashMap<(String, String), BucketState> = HashMap::new();
    let mut counts: HashMap<(String, String), u64> = HashMap::new();

    for (idx, line) in text.lines().enumerate() {
        let ln = idx + 1;
        let err = |msg: String| Err(format!("line {ln}: {msg}"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let payload = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return err(format!("HELP for invalid metric name {name:?}"));
                    }
                }
                "TYPE" => {
                    if !valid_metric_name(name) {
                        return err(format!("TYPE for invalid metric name {name:?}"));
                    }
                    if !matches!(
                        payload,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return err(format!("unknown TYPE {payload:?}"));
                    }
                    if types
                        .insert(name.to_string(), payload.to_string())
                        .is_some()
                    {
                        return err(format!("duplicate TYPE for {name}"));
                    }
                    if finished.contains(name) {
                        return err(format!("TYPE for {name} after its samples"));
                    }
                }
                _ => return err(format!("unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: comment must start with '# '"));
        }

        let (name, labels, value) = parse_sample(line).map_err(|e| format!("line {ln}: {e}"))?;
        // Resolve the base name for typed families.
        let base = histogram_base(&name, &types);
        let group_name = base.clone().unwrap_or_else(|| name.clone());
        match &open {
            Some(cur) if *cur == group_name => {}
            _ => {
                if let Some(prev) = open.take() {
                    finished.insert(prev);
                }
                if finished.contains(&group_name) {
                    return err(format!("samples for {group_name} are not contiguous"));
                }
                open = Some(group_name.clone());
            }
        }
        if let Some(t) = types.get(&group_name) {
            if t == "histogram" {
                let Some(base) = base else {
                    return err(format!(
                        "histogram {group_name} sample {name} lacks _bucket/_sum/_count suffix"
                    ));
                };
                let non_le: Vec<&(String, String)> =
                    labels.iter().filter(|(k, _)| k != "le").collect();
                let key = (
                    base.clone(),
                    non_le
                        .iter()
                        .map(|(k, v)| format!("{k}={v},"))
                        .collect::<String>(),
                );
                if name.ends_with("_bucket") {
                    let Some((_, le)) = labels.iter().find(|(k, _)| k == "le") else {
                        return err(format!("{name} missing le label"));
                    };
                    let le_val = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse::<f64>()
                            .map_err(|_| format!("line {ln}: bad le value {le:?}"))?
                    };
                    let cum = value as u64;
                    let st = buckets.entry(key).or_default();
                    if st.saw_inf {
                        return err(format!("{base}: bucket after le=\"+Inf\""));
                    }
                    if st.last_cum > 0 || st.last_le != 0.0 {
                        if le_val <= st.last_le {
                            return err(format!("{base}: le not increasing"));
                        }
                        if cum < st.last_cum {
                            return err(format!("{base}: bucket counts not cumulative"));
                        }
                    }
                    st.last_cum = cum;
                    st.last_le = le_val;
                    if le_val.is_infinite() {
                        st.saw_inf = true;
                        st.inf_value = cum;
                    }
                } else if name.ends_with("_count") {
                    if !labels.iter().all(|(k, _)| k != "le") {
                        return err(format!("{name} must not carry le"));
                    }
                    counts.insert(key, value as u64);
                }
                continue;
            }
        }
        let _ = value;
    }

    // Every histogram label set must close with +Inf and agree with _count.
    for ((base, labels), st) in &buckets {
        if !st.saw_inf {
            return Err(format!(
                "histogram {base}{{{labels}}}: no le=\"+Inf\" bucket"
            ));
        }
        match counts.get(&(base.clone(), labels.clone())) {
            None => {
                return Err(format!(
                    "histogram {base}{{{labels}}}: missing _count sample"
                ));
            }
            Some(&c) if c != st.inf_value => {
                return Err(format!(
                    "histogram {base}{{{labels}}}: _count {} != +Inf bucket {}",
                    c, st.inf_value
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// If `name` is a suffixed sample of a declared histogram, return the
/// base name.
fn histogram_base(name: &str, types: &HashMap<String, String>) -> Option<String> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base.to_string());
            }
        }
    }
    None
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

type ParsedSample = (String, Vec<(String, String)>, f64);

/// Parse one sample line into (name, labels, value).
fn parse_sample(line: &str) -> Result<ParsedSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label brace".to_string())?;
            if close < brace {
                return Err("mismatched braces".into());
            }
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => (line.split_whitespace().next().unwrap_or(""), None),
    };
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    let (labels, value_part) = match rest {
        Some((label_str, tail)) => (parse_labels(label_str)?, tail.trim()),
        None => (Vec::new(), line[name_part.len()..].trim()),
    };
    if value_part.is_empty() {
        return Err("missing sample value".into());
    }
    let mut fields = value_part.split_whitespace();
    let value_str = fields.next().unwrap();
    // An optional timestamp may follow; anything after that is junk.
    let _timestamp = fields.next();
    if fields.next().is_some() {
        return Err("trailing garbage after value/timestamp".into());
    }
    let value = match value_str {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {s:?}"))?,
    };
    Ok((name_part.to_string(), labels, value))
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        // Skip separators / whitespace.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            name.push(c);
            chars.next();
        }
        if !valid_label_name(name.trim()) {
            return Err(format!("invalid label name {:?}", name.trim()));
        }
        if chars.next() != Some('=') {
            return Err("label missing '='".into());
        }
        if chars.next() != Some('"') {
            return Err("label value not quoted".into());
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated label value".into()),
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
            }
        }
        out.push((name.trim().to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_snapshot() -> MetricsSnapshot {
        let h = Histogram::new();
        for v in [10, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        let mut s = MetricsSnapshot::new();
        s.push_counter("cer_tuples_total", "Tuples ingested", &[], 12345);
        s.push_gauge(
            "cer_queue_depth",
            "Current queue depth",
            &[("shard", "0".to_string())],
            7,
        );
        s.push_gauge(
            "cer_queue_depth",
            "Current queue depth",
            &[("shard", "1".to_string())],
            9,
        );
        s.push_histogram(
            "cer_e2e_latency_nanos",
            "Ingest to delivery",
            &[],
            h.snapshot(),
        );
        s
    }

    #[test]
    fn rendered_text_passes_the_checker() {
        let text = sample_snapshot().to_prometheus_text();
        validate_prometheus_text(&text).unwrap();
        assert!(text.contains("# TYPE cer_e2e_latency_nanos histogram"));
        assert!(text.contains("le=\"+Inf\"} 5"));
        assert!(text.contains("cer_e2e_latency_nanos_count 5"));
        // One header per name even with two labelled samples.
        assert_eq!(text.matches("# TYPE cer_queue_depth gauge").count(), 1);
    }

    #[test]
    fn checker_rejects_malformed_payloads() {
        for bad in [
            "cer_x{le=\"10\" 5\n",                              // unclosed brace
            "# TYPE cer_x histogram\ncer_x_bucket 5\n",          // bucket without le
            "# TYPE cer_x wat\n",                                // unknown type
            "9cer_x 5\n",                                        // bad name
            "cer_x five\n",                                      // bad value
            "# TYPE cer_x histogram\ncer_x_bucket{le=\"+Inf\"} 5\ncer_x_count 4\n", // count mismatch
            "# TYPE cer_x histogram\ncer_x_bucket{le=\"10\"} 5\ncer_x_bucket{le=\"20\"} 3\ncer_x_bucket{le=\"+Inf\"} 5\ncer_x_count 5\n", // not cumulative
            "cer_a 1\ncer_b 2\ncer_a 3\n",                       // non-contiguous group
        ] {
            assert!(
                validate_prometheus_text(bad).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn wire_roundtrip_preserves_snapshot() {
        let s = sample_snapshot();
        let mut w = WireWriter::new();
        s.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = MetricsSnapshot::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, s);
    }
}
