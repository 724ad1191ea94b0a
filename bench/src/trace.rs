//! Spans recorded by the traced run, from the benchmark's own code,
//! around each call into a layer's public entry points.
//!
//! Spans are kept in memory and written out once, at exit. A span's
//! self time is its duration minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub pass: u32,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// When off, [`Tracer::span`] still times its call but records
    /// nothing — the untraced half of [`recording_cost_ns`].
    pub recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            recording: true,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time `f` under a span; returns its result and its duration in
    /// nanoseconds. `f` gets the tracer back to open child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        pass: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let id = self.recording.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                pass,
            });
            self.open.push(id);
            id
        });
        let r = f(self);
        let end_ns = self.now_ns();
        // A span opened while recording is closed even if `f` switched
        // recording off meanwhile.
        if let Some(id) = id {
            self.spans[id as usize].end_ns = end_ns;
            self.open.pop();
        }
        (r, end_ns - start_ns)
    }

    /// Total self time per span name, in nanoseconds, names in first-
    /// seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (name, self_ns) in self_times(&self.spans) {
            match out.iter_mut().find(|(n, _, _)| *n == name) {
                Some(row) => {
                    row.1 += self_ns;
                    row.2 += 1;
                }
                None => out.push((name, self_ns, 1)),
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.pass
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]\n");
        s
    }
}

/// What recording one span costs, in nanoseconds: a batch of empty
/// spans recorded, minus the same batch merely timed.
pub fn recording_cost_ns() -> f64 {
    const SPANS: u32 = 200_000;
    fn batch(tracer: &mut Tracer, recording: bool) -> f64 {
        tracer.recording = recording;
        tracer.spans.clear();
        let start = Instant::now();
        for i in 0..SPANS {
            tracer.span("calibration", i, |_| ());
        }
        start.elapsed().as_nanos() as f64 / f64::from(SPANS)
    }
    let mut tracer = Tracer::default();
    batch(&mut tracer, true); // grow the vector once, outside the comparison
    let off = batch(&mut tracer, false);
    let on = batch(&mut tracer, true);
    (on - off).max(0.0)
}

/// `(name, self time)` per span: duration minus the time its direct
/// children cover (children are clipped to the parent; they never
/// overlap each other because the driver is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let parent = &spans[p as usize];
            let start = sp.start_ns.max(parent.start_ns);
            let end = sp.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(sp, c)| (sp.name, (sp.end_ns - sp.start_ns).saturating_sub(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("rung", 0, 100, None),
            span("call", 10, 40, Some(0)),
            span("call", 50, 90, Some(0)),
            span("inner", 55, 60, Some(2)),
            // A child that sticks out of its parent is clipped to it.
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![
                ("rung", 25),
                ("call", 30),
                ("call", 35),
                ("inner", 5),
                ("late", 25)
            ]
        );
    }

    #[test]
    fn tracer_nests_and_can_stop_recording() {
        let mut t = Tracer::default();
        let ((), outer_ns) = t.span("outer", 3, |t| {
            t.span("inner", 3, |_| ());
        });
        t.recording = false;
        let (x, _) = t.span("unrecorded", 0, |_| 7);
        assert_eq!(x, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].pass, 3);
        assert!(t.spans[0].end_ns - t.spans[0].start_ns <= outer_ns);
        assert!(
            t.spans[0].start_ns <= t.spans[1].start_ns && t.spans[1].end_ns <= t.spans[0].end_ns
        );
        let by_name = t.self_time_by_name();
        assert_eq!(
            by_name.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["outer", "inner"]
        );
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
