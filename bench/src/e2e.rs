//! The end-to-end run: generator thread → `cer_serve` frames over
//! loopback TCP → sequencer → shard worker → evaluator → subscription →
//! Event frames → reader thread, with tracing off.
//!
//! Phases: set-up (several times, timed) → verify pass (exact multiset
//! against the oracle) → warm-up → capacity phase (closed loop, batch
//! 256, one batch in flight, `Drain` at each pass boundary) → latency
//! phase (open loop at the workload's frozen rate, batch 32, batches
//! sent at their due times without waiting for acks) → restart
//! (several times, timed) → on the durable workload, a fresh pass on
//! the recovered server.

use crate::gen::{Workload, PASS_TUPLES};
use crate::oracle::{multiset_diff, Oracle};
use crate::pin::{self, Role};
use crate::report::{Metric, Report};
use crate::stats;
use crate::wire::{Conn, LatencyPlan, Timeline};
use cer_common::Tuple;
use cer_core::ingest::BackpressurePolicy;
use cer_core::{DurabilityConfig, FsyncPolicy, RuntimeConfig};
use cer_serve::{Request, Response, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const CAPACITY_BATCH: usize = 256;
/// The closed loop sends its next batch once the previous one is acked
/// and at most this many tuples still wait for their matches. An ack
/// only says "queued"; without the second condition the loop fills the
/// server's 65 536-entry queues, the shard worker evaluates 4096-tuple
/// chunks, and completion advances in lumps of most of a second. With
/// it, the server always has a few batches queued (it never waits for
/// the client) and its queues stay short.
const MAX_UNCOVERED: u64 = 4096;
pub const LATENCY_BATCH: usize = 32;
const CAPACITY_SEGMENTS: usize = 12;
const LATENCY_WINDOWS: usize = 15;
/// How long after the closing `Drain` a match may still arrive.
const SETTLE_GRACE: Duration = Duration::from_secs(5);
/// Set-up and restart are timed this many times and the median is
/// reported: one bind-to-ping is a millisecond of thread spawning, far
/// too little to repeat on its own. Recovering a data directory takes
/// half a second, so the durable workload restarts fewer times.
const SETUP_REPS: usize = 15;
const RESTART_REPS: usize = 15;
const DURABLE_RESTART_REPS: usize = 5;

/// Phase lengths, in the issue's 3 : 12 : 2 : 15 proportions.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warm: Duration,
    pub capacity: Duration,
    pub lat_warm: Duration,
    pub lat: Duration,
}

impl Phases {
    /// `seconds` is the total timed length (32 gives 3 + 12 + 2 + 15).
    pub fn from_seconds(seconds: f64) -> Phases {
        let part = |x: f64| Duration::from_secs_f64(seconds * x / 32.0);
        Phases {
            warm: part(3.0),
            capacity: part(12.0),
            lat_warm: part(2.0),
            lat: part(15.0),
        }
    }
}

/// The directory results, traces and data directories go to:
/// `<package>/out`, inside the checkout whatever the working directory.
pub fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    Path::new(&manifest).join("out")
}

/// A scratch data directory under `out/`, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir = out_dir()
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn serve_config(wl: &Workload, data_dir: Option<&Path>) -> ServeConfig {
    let runtime = RuntimeConfig::new(wl.shards).with_durability(DurabilityConfig {
        fsync: FsyncPolicy::EveryN(256),
        ..DurabilityConfig::default()
    });
    let config = ServeConfig::from(runtime);
    match data_dir {
        Some(dir) => config.with_data_dir(dir),
        None => config,
    }
}

/// Connect and declare the relations, checking that the server numbers
/// them as the generator did.
fn attach(server: &Server, wl: &Workload) -> Result<Conn, String> {
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, (name, arity)) in wl.relations.iter().enumerate() {
        let request = Request::DeclareRelation {
            name: name.clone(),
            arity: *arity,
        };
        match conn.call(&request)? {
            Response::RelationDeclared { id } if id.index() == i => {}
            other => return Err(format!("declaring {name}: unexpected {other:?}")),
        }
    }
    Ok(conn)
}

fn subscribe_and_ping(conn: &mut Conn) -> Result<(), String> {
    let subscribe = Request::Subscribe {
        query: None,
        capacity: 0,
        policy: BackpressurePolicy::Block,
    };
    match conn.call(&subscribe)? {
        Response::Subscribed => {}
        other => return Err(format!("subscribe: unexpected {other:?}")),
    }
    match conn.call(&Request::Ping)? {
        Response::Pong => Ok(()),
        other => Err(format!("ping: unexpected {other:?}")),
    }
}

/// Set-up as a user sees it: `Server::bind` → relations declared, all
/// queries accepted, subscription live, `Ping` answered. Returns the
/// time that took, in seconds (the closing `Stats` is not part of it).
pub fn setup(wl: &Workload, data_dir: Option<&Path>) -> Result<(Server, Conn, f64), String> {
    // The server's threads inherit the CPUs of the thread that binds
    // it, the reader those of the thread that connects (see `pin`).
    pin::to(Role::Server);
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", serve_config(wl, data_dir))
        .map_err(|e| format!("bind: {e}"))?;
    pin::to(Role::Load);
    let mut conn = attach(&server, wl)?;
    for (i, q) in wl.queries.iter().enumerate() {
        let request = Request::SubmitQuery {
            name: q.name.clone(),
            frontend: q.frontend,
            text: q.text().to_string(),
            window: q.window.clone(),
            partition: q.partition,
            gc_every: 0,
        };
        match conn.call(&request)? {
            Response::QueryAccepted { id } if id.0 as usize == i => {}
            other => return Err(format!("submitting {}: unexpected {other:?}", q.name)),
        }
    }
    subscribe_and_ping(&mut conn)?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((server, conn, secs))
}

/// What the latency phase measured.
pub struct LatencyOutcome {
    /// Per window of due time, latencies in milliseconds.
    pub windows: Vec<Vec<f64>>,
    pub gen_late_ms: Vec<f64>,
    /// Sent − acked batches, sampled at every send of the measured part.
    pub backlog: Vec<f64>,
}

pub struct Session<'a> {
    wl: &'a Workload,
    oracle: &'a Oracle,
    pub server: Option<Server>,
    pub conn: Conn,
    /// Stream tuples sent, acked, and covered by the last settle.
    pub n: u64,
    acked: u64,
    settled: u64,
    /// `events seen − events expected` as of the last settle, so one
    /// lost match is counted once, not at every later settle.
    bias: i64,
    sum_off: bool,
    pub attempted: u64,
    /// Failed operations: ingest batches and matches, kept apart so the
    /// verify pass can replace the running match check by its own.
    failed_batches: u64,
    failed_matches: u64,
    pub notes: Vec<String>,
}

impl<'a> Session<'a> {
    pub fn new(
        wl: &'a Workload,
        oracle: &'a Oracle,
        server: Server,
        mut conn: Conn,
    ) -> Result<Self, String> {
        let pos0 = match conn.call(&Request::Stats)? {
            Response::Stats(s) => s.next_position,
            other => return Err(format!("stats: unexpected {other:?}")),
        };
        conn.sink.lock().pos0 = pos0;
        Ok(Session {
            wl,
            oracle,
            server: Some(server),
            conn,
            n: 0,
            acked: 0,
            settled: 0,
            bias: 0,
            sum_off: false,
            attempted: 0,
            failed_batches: 0,
            failed_matches: 0,
            notes: Vec::new(),
        })
    }

    fn pos0(&self) -> u64 {
        self.conn.sink.lock().pos0
    }

    pub fn failed(&self) -> u64 {
        self.failed_batches + self.failed_matches
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }

    /// Sleep until the matches of stream tuples `0..n` have arrived
    /// (less what earlier settles already wrote off), at most
    /// [`SETTLE_GRACE`]. Lost matches are counted by the next settle.
    fn wait_matches_upto(&self, n: u64) {
        let want = (self.oracle.count_upto(n) as i64 + self.bias).max(0) as u64;
        self.conn.wait_events(want, Instant::now() + SETTLE_GRACE);
    }

    fn on_ack(&mut self, response: &Response, len: u64) {
        let want = self.pos0() + self.acked;
        match response {
            Response::Ingested {
                start,
                end,
                dropped,
            } if *start == want && end - start == len && *dropped == 0 => {}
            other => {
                self.failed_batches += 1;
                self.note(format!(
                    "batch at stream tuple {}: expected an ack from position {want}, got {other:?}",
                    self.acked
                ));
            }
        }
        self.acked += len;
    }

    /// Wait for the next non-event response.
    fn wait_reply(&mut self) -> Result<Response, String> {
        match self.conn.recv(Duration::from_secs(60))? {
            Some((_, response)) => Ok(response),
            None => Err("no reply within 60 s".into()),
        }
    }

    /// Send the next `tuples` of the stream; does not wait for the ack.
    pub fn send_batch(&mut self, tuples: Vec<Tuple>) -> Result<(), String> {
        self.n += tuples.len() as u64;
        self.attempted += 1;
        self.conn.send(&Request::IngestBatch { tuples })
    }

    /// Wait for the ack of a batch of `len` tuples and check it.
    pub fn await_ack(&mut self, len: usize) -> Result<(), String> {
        let response = self.wait_reply()?;
        self.on_ack(&response, len as u64);
        Ok(())
    }

    /// Wait until at most [`MAX_UNCOVERED`] tuples still await their
    /// matches; `Drain` and settle at a pass boundary.
    pub fn await_matches(&mut self) -> Result<(), String> {
        if self.n.is_multiple_of(PASS_TUPLES as u64) {
            return self.settle();
        }
        self.wait_matches_upto(self.n.saturating_sub(MAX_UNCOVERED));
        Ok(())
    }

    /// One step of the closed loop.
    fn closed_batch(&mut self, len: usize) -> Result<(), String> {
        self.send_batch(self.wl.tuples(self.n, len))?;
        self.await_ack(len)?;
        self.await_matches()
    }

    /// `Drain`, then wait (at most [`SETTLE_GRACE`]) until every match
    /// of the tuples sent so far has arrived, and check the running
    /// count and fingerprint sum against the oracle.
    pub fn settle(&mut self) -> Result<(), String> {
        assert_eq!(self.acked, self.n, "settle with acks outstanding");
        self.conn.send(&Request::Drain)?;
        match self.wait_reply()? {
            Response::Drained => {}
            other => return Err(format!("drain: unexpected {other:?}")),
        }
        let expected = self.oracle.count_upto(self.n);
        self.wait_matches_upto(self.n);
        let (seen, sum) = {
            let sink = self.conn.sink.lock();
            (sink.events, sink.sum)
        };
        self.attempted += self.oracle.count_between(self.settled, self.n);
        let bias = seen as i64 - expected as i64;
        if bias != self.bias {
            let delta = (bias - self.bias).unsigned_abs();
            let kind = if bias < self.bias { "missing" } else { "extra" };
            self.failed_matches += delta;
            self.note(format!(
                "{delta} {kind} matches among stream tuples {}..{}",
                self.settled, self.n
            ));
            self.bias = bias;
        } else if !self.sum_off && bias == 0 && sum != self.oracle.sum_upto(self.n) {
            self.sum_off = true;
            self.failed_matches += 1;
            self.note(format!(
                "right number of matches but wrong valuations among stream tuples {}..{}",
                self.settled, self.n
            ));
        }
        self.settled = self.n;
        Ok(())
    }

    /// Closed loop until `n` reaches `until_n` or `until` passes.
    fn closed_loop(
        &mut self,
        until_n: u64,
        until: Option<Instant>,
        checkpoint_at: Option<u64>,
    ) -> Result<(), String> {
        while self.n < until_n && until.is_none_or(|t| Instant::now() < t) {
            self.closed_batch(CAPACITY_BATCH)?;
            if checkpoint_at == Some(self.n) {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        self.conn.send(&Request::Checkpoint)?;
        match self.wait_reply()? {
            Response::CheckpointDone { .. } => Ok(()),
            other => Err(format!("checkpoint: unexpected {other:?}")),
        }
    }

    /// One full pass from a pass boundary, every match compared with
    /// the oracle's table. `Err` unless the multiset is exact.
    pub fn verify_pass(&mut self) -> Result<(), String> {
        assert_eq!(
            self.n % PASS_TUPLES as u64,
            0,
            "verify passes start at a pass boundary"
        );
        self.conn.sink.lock().collect = Some(Vec::new());
        let (matches_before, batches_before) = (self.failed_matches, self.failed_batches);
        self.closed_loop(self.n + PASS_TUPLES as u64, None, None)?;
        let mut got = self.conn.sink.lock().collect.take().expect("set above");
        let (missing, extra, examples) = multiset_diff(&self.oracle.expected, &mut got);
        // The multiset comparison supersedes the settle's running check.
        self.failed_matches = matches_before + missing + extra;
        let batch_failures = self.failed_batches - batches_before;
        if missing + extra + batch_failures > 0 {
            return Err(format!(
                "verify pass of {} is not exact: {missing} missing, {extra} extra, {batch_failures} failed batches; {}",
                self.wl.name,
                examples.join("; ")
            ));
        }
        Ok(())
    }

    /// Stream tuples acked whose matches, and those of every tuple before
    /// them, have arrived.
    fn completed(&self) -> u64 {
        let events = self.conn.sink.lock().events;
        let covered = self
            .oracle
            .tuples_covered((events as i64 - self.bias).max(0) as u64);
        self.acked.min(covered)
    }

    /// Closed loop for `len`; returns, per segment, the rate (tuples/s)
    /// and the CPU seconds the server's threads used per million tuples.
    fn capacity_phase(&mut self, len: Duration) -> Result<(Vec<f64>, Vec<f64>), String> {
        // A fixed tuple index, two passes in (or at once if the phase
        // turns out shorter: the closing settle would then miss it).
        let checkpoint_at = self.wl.durable.then_some(self.n + 2 * PASS_TUPLES as u64);
        let n0 = self.n;
        let mut cpu_marks = vec![(server_cpu_seconds(), self.completed())];
        let t0 = Instant::now();
        {
            let mut sink = self.conn.sink.lock();
            let start = (0, sink.acked_end, sink.events);
            sink.timeline = Some(Timeline {
                t0,
                samples: vec![start],
            });
        }
        let segment = len / CAPACITY_SEGMENTS as u32;
        for k in 1..=CAPACITY_SEGMENTS as u32 {
            self.closed_loop(u64::MAX, Some(t0 + segment * k), checkpoint_at)?;
            cpu_marks.push((server_cpu_seconds(), self.completed()));
        }
        // Through the settle: the matches of every tuple sent are then
        // delivered, and the timeline reaches past the end of the last
        // segment.
        self.settle()?;
        let (pos0, mut timeline) = {
            let mut sink = self.conn.sink.lock();
            let end = (t0.elapsed().as_nanos() as u64, sink.acked_end, sink.events);
            let mut timeline = sink.timeline.take().expect("set above").samples;
            timeline.push(end);
            (sink.pos0, timeline)
        };
        // A tuple is complete once it is acked *and* the matches of
        // everything up to it have arrived.
        let completed: Vec<(u64, u64)> = timeline
            .drain(..)
            .map(|(t, acked_end, events)| {
                let covered = self
                    .oracle
                    .tuples_covered((events as i64 - self.bias).max(0) as u64);
                (t, (acked_end - pos0).min(covered).saturating_sub(n0))
            })
            .collect();
        let rates = segment_rates(&completed, segment.as_nanos() as u64, CAPACITY_SEGMENTS);
        // The kernel counts CPU time in ticks of 10 ms, a percent of a
        // segment; up to `MAX_UNCOVERED` tuples are under way at either
        // end of one.
        let cpu_s_per_mtuple = cpu_marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) / ((w[1].1 - w[0].1).max(1) as f64 / 1e6))
            .collect();
        Ok((rates, cpu_s_per_mtuple))
    }

    /// Open loop at the workload's frozen rate: `warm` unsampled, then
    /// `measure` split into [`LATENCY_WINDOWS`] windows.
    pub fn latency_phase(
        &mut self,
        warm: Duration,
        measure: Duration,
    ) -> Result<LatencyOutcome, String> {
        let interval_ns = LATENCY_BATCH as u64 * 1_000_000_000 / self.wl.rate_tps;
        let warm_ns = warm.as_nanos() as u64;
        let window_ns = (measure.as_nanos() as u64 / LATENCY_WINDOWS as u64).max(1);
        let total_ns = warm_ns + window_ns * LATENCY_WINDOWS as u64;
        let batches = total_ns / interval_ns;
        // Half-way through the measured part, at a fixed tuple index.
        let checkpoint_at = self
            .wl
            .durable
            .then_some((warm_ns + (total_ns - warm_ns) / 2) / interval_ns);
        let n0 = self.n;
        let t0 = Instant::now();
        self.conn.sink.lock().latency = Some(LatencyPlan {
            t0,
            n0,
            batch: LATENCY_BATCH as u64,
            interval_ns,
            warm_ns,
            window_ns,
            windows: vec![Vec::new(); LATENCY_WINDOWS],
        });
        let mut gen_late_ms = Vec::new();
        let mut backlog = Vec::new();
        for k in 0..batches {
            let due = t0 + Duration::from_nanos(k * interval_ns);
            // Built before the due time, so only the send is late.
            let request = Request::IngestBatch {
                tuples: self.wl.tuples(self.n, LATENCY_BATCH),
            };
            while let Some((_, response)) = self.conn.try_recv() {
                match response {
                    Response::CheckpointDone { .. } => {}
                    other => self.on_ack(&other, LATENCY_BATCH as u64),
                }
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late = Instant::now().saturating_duration_since(due);
            self.conn.send(&request)?;
            self.n += LATENCY_BATCH as u64;
            self.attempted += 1;
            if k * interval_ns >= warm_ns {
                gen_late_ms.push(late.as_secs_f64() * 1e3);
                backlog.push((self.n - self.acked) as f64 / LATENCY_BATCH as f64);
            }
            if checkpoint_at == Some(k) {
                self.conn.send(&Request::Checkpoint)?;
            }
        }
        // The checkpoint's reply may still be among the acks.
        while self.acked < self.n {
            match self.wait_reply()? {
                Response::CheckpointDone { .. } => {}
                other => self.on_ack(&other, LATENCY_BATCH as u64),
            }
        }
        self.settle()?;
        let plan = self.conn.sink.lock().latency.take().expect("set above");
        let windows = plan
            .windows
            .into_iter()
            .map(|w| w.into_iter().map(|ns| f64::from(ns) / 1e6).collect())
            .collect();
        Ok(LatencyOutcome {
            windows,
            gen_late_ms,
            backlog,
        })
    }

    /// Stop the server (the connection first, so its handler thread
    /// sees EOF instead of waiting out a poll interval).
    pub fn stop_server(&mut self) {
        self.conn.close();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// Rate of each of `count` segments of `seg_ns`, from `(t_ns, tuples
/// completed)` samples in time order. Completion is read as a line
/// between the moments it advanced, not as a step: a shard worker
/// evaluates up to 4096 tuples before any of their matches shows, and
/// a step function would credit that whole chunk to whichever segment
/// its matches happen to land in.
pub fn segment_rates(samples: &[(u64, u64)], seg_ns: u64, count: usize) -> Vec<f64> {
    let mut advances: Vec<(u64, u64)> = Vec::new();
    for &(t, done) in samples {
        if advances.last().is_none_or(|last| done > last.1) {
            advances.push((t, done));
        }
    }
    let done_at = |t: u64| -> f64 {
        let i = advances.partition_point(|a| a.0 <= t);
        match (i.checked_sub(1).map(|j| advances[j]), advances.get(i)) {
            (Some(a), Some(b)) => {
                a.1 as f64 + (b.1 - a.1) as f64 * (t - a.0) as f64 / (b.0 - a.0) as f64
            }
            (Some(a), None) => a.1 as f64,
            (None, _) => 0.0,
        }
    };
    (0..count as u64)
        .map(|k| (done_at((k + 1) * seg_ns) - done_at(k * seg_ns)) / (seg_ns as f64 / 1e9))
        .collect()
}

/// `utime + stime`, in seconds, of the program under test: every live
/// thread of this process except the load generator's two (the main
/// thread and `bench-reader`), from `/proc/self/task/*/stat`. The
/// kernel reports clock ticks of 1/100 s on every Linux this runs on.
pub fn server_cpu_seconds() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let main_tid = std::process::id().to_string();
    let mut ticks = 0.0;
    for task in tasks.flatten() {
        if task.file_name().to_string_lossy() == main_tid {
            continue;
        }
        let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
        // `tid (comm) state …`: the name may hold spaces, so fields are
        // counted from the closing parenthesis.
        let Some((head, rest)) = stat.rsplit_once(')') else {
            continue;
        };
        if head.ends_with("(bench-reader") {
            continue;
        }
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        ticks += field(11) + field(12);
    }
    ticks / 100.0
}

/// `VmHWM` of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Is the backlog still growing over the last third of the phase?
/// Compares the mean of the last sixth with the sixth before it.
fn backlog_growing(backlog: &[f64]) -> bool {
    let sixth = backlog.len() / 6;
    if sixth == 0 {
        return false;
    }
    let last = stats::mean(&backlog[backlog.len() - sixth..]);
    let before = stats::mean(&backlog[backlog.len() - 2 * sixth..backlog.len() - sixth]);
    last > before * 1.5 + 2.0
}

/// Time from `bind` to `Ping` answered on a server that has to come
/// back with the workload's standing queries: a durable server
/// recovers them from its data directory, an in-memory one is sent
/// them again. (`recover_s` adds the `stop()` before it.)
fn restart(wl: &Workload, data_dir: Option<&Path>) -> Result<(Server, Conn, f64), String> {
    if !wl.durable {
        return setup(wl, None);
    }
    pin::to(Role::Server);
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", serve_config(wl, data_dir))
        .map_err(|e| format!("re-bind: {e}"))?;
    pin::to(Role::Load);
    let mut conn = Conn::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    match conn.call(&Request::Ping)? {
        Response::Pong => {}
        other => return Err(format!("ping: unexpected {other:?}")),
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(conn);
    // The schema and the subscription are per process: declare and
    // subscribe again before any tuple is sent.
    let mut conn = attach(&server, wl)?;
    subscribe_and_ping(&mut conn)?;
    Ok((server, conn, secs))
}

/// Set up, verify one pass, stop: the cheap correctness gate.
pub fn check_workload(wl: &Workload, oracle: &Oracle) -> Result<(u64, u64), String> {
    let dir = if wl.durable {
        Some(ScratchDir::new(wl.name)?)
    } else {
        None
    };
    let (server, conn, _) = setup(wl, dir.as_ref().map(|d| d.0.as_path()))?;
    let mut session = Session::new(wl, oracle, server, conn)?;
    let outcome = session.verify_pass();
    let counts = (session.attempted, session.failed());
    session.stop_server();
    outcome.map(|()| counts)
}

/// The whole untraced run of one workload.
pub fn run(
    wl: &Workload,
    oracle: &Oracle,
    phases: Phases,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up, several times over; the last one is kept.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Server, Conn, Option<ScratchDir>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, mut conn, _dir)) = kept.take() {
            conn.close();
            server.stop();
        }
        let dir = if wl.durable {
            Some(ScratchDir::new(&format!("{}-{rep}", wl.name))?)
        } else {
            None
        };
        let (server, conn, secs) = setup(wl, dir.as_ref().map(|d| d.0.as_path()))?;
        setup_s.push(secs);
        kept = Some((server, conn, dir));
    }
    let (server, conn, data_dir) = kept.expect("SETUP_REPS > 0");
    let mut session = Session::new(wl, oracle, server, conn)?;

    session.verify_pass()?;
    session.closed_loop(u64::MAX, Some(Instant::now() + phases.warm), None)?;
    session.settle()?;
    let (rates, cpu_s_per_mtuple) = session.capacity_phase(phases.capacity)?;
    let latency = session.latency_phase(phases.lat_warm, phases.lat)?;
    let pre_stop_position = session.pos0() + session.n;

    // Restart, several times over.
    let mut recover_s = Vec::new();
    for _ in 0..if wl.durable {
        DURABLE_RESTART_REPS
    } else {
        RESTART_REPS
    } {
        let stop_at = Instant::now();
        session.stop_server();
        let stop_s = stop_at.elapsed().as_secs_f64();
        let (server, conn, secs) = restart(wl, data_dir.as_ref().map(|d| d.0.as_path()))?;
        recover_s.push(stop_s + secs);
        session.server = Some(server);
        session.conn = conn;
    }
    if wl.durable {
        // The recovered server must stand exactly where the stopped one
        // stood, and go on matching across the stop: the stream simply
        // continues (the first ack's `start` is checked like any other).
        let recovered = match session.conn.call(&Request::Stats)? {
            Response::Stats(s) => s.next_position,
            other => return Err(format!("stats: unexpected {other:?}")),
        };
        if recovered != pre_stop_position {
            return Err(format!("recovery resumed at position {recovered}, the stopped server stood at {pre_stop_position}"));
        }
        {
            let mut sink = session.conn.sink.lock();
            sink.pos0 = pre_stop_position - session.n;
            // The new connection's reader starts counting from zero.
            sink.events = session.oracle.count_upto(session.n);
            sink.sum = session.oracle.sum_upto(session.n);
        }
        session.bias = 0;
        let failed_before = session.failed();
        session.closed_loop(session.n + PASS_TUPLES as u64, None, None)?;
        session.settle()?;
        if session.failed() > failed_before {
            return Err(format!(
                "the pass after recovery is not exact: {}",
                session.notes.join("; ")
            ));
        }
    }
    session.stop_server();

    // Everything is measured; turn it into named metrics.
    let all_lat: Vec<f64> = {
        let mut v: Vec<f64> = latency.windows.iter().flatten().copied().collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let p50_windows = stats::windowed_percentile(&latency.windows, 0.5, 20);
    let p75_windows = stats::windowed_percentile(&latency.windows, 0.75, 40);
    let p90_windows = stats::windowed_percentile(&latency.windows, 0.9, 100);
    let p99_windows = stats::windowed_percentile(&latency.windows, 0.99, 1000);
    let gen_late_p99 = {
        let mut v = latency.gen_late_ms.clone();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 0.99)
    };
    let growing = backlog_growing(&latency.backlog);
    report.latency_valid = gen_late_p99 <= 1.0 && !growing;
    if !report.latency_valid {
        report.notes.push(format!(
            "latency phase INVALID: generator lateness p99 {gen_late_p99:.3} ms (limit 1 ms), backlog {}",
            if growing { "still growing" } else { "steady" }
        ));
    }
    if p99_windows.len() < LATENCY_WINDOWS {
        report.notes.push(format!(
            "only {} of {LATENCY_WINDOWS} latency windows hold the 1000 samples a p99 needs",
            p99_windows.len()
        ));
    }

    report.notes.push(format!(
        "segment rates: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    report
        .end_to_end
        .push(Metric::from_samples("setup_s", "s", &setup_s));
    report
        .end_to_end
        .push(Metric::from_samples("throughput_tps", "tuples/s", &rates));
    report.end_to_end.push(Metric::from_samples(
        "cpu_s_per_mtuple",
        "s/Mtuple",
        &cpu_s_per_mtuple,
    ));
    report.end_to_end.push(Metric::of_windows(
        "latency_p50_ms",
        "ms",
        stats::percentile(&all_lat, 0.5),
        &p50_windows,
        all_lat.len(),
    ));
    report.diagnostics.push(Metric::of_windows(
        "latency_p75_ms",
        "ms",
        stats::median(&p75_windows),
        &p75_windows,
        all_lat.len(),
    ));
    report.diagnostics.push(Metric::of_windows(
        "latency_p90_ms",
        "ms",
        stats::median(&p90_windows),
        &p90_windows,
        all_lat.len(),
    ));
    report
        .end_to_end
        .push(Metric::single("peak_rss_mb", "MiB", peak_rss_mib()));
    report
        .end_to_end
        .push(Metric::from_samples("recover_s", "s", &recover_s));
    report.diagnostics.push(Metric::of_windows(
        "latency_p99_ms",
        "ms",
        stats::median(&p99_windows),
        &p99_windows,
        all_lat.len(),
    ));
    let top = stats::highest_supported_percentile(all_lat.len());
    report.diagnostics.push(Metric::single(
        "latency_top_ms",
        "ms",
        stats::percentile(&all_lat, top),
    ));
    report
        .diagnostics
        .push(Metric::single("latency_top_percentile", "share", top));
    report
        .diagnostics
        .push(Metric::single("bench.gen_late_p99_ms", "ms", gen_late_p99));
    report.diagnostics.push(Metric::from_samples(
        "bench.backlog_batches",
        "count",
        &latency.backlog,
    ));
    report.diagnostics.push(Metric::single(
        "matches_per_pass",
        "count",
        oracle.per_pass() as f64,
    ));
    report
        .diagnostics
        .push(Metric::single("tuples_sent", "count", session.n as f64));
    report.attempted = session.attempted;
    report.failed = session.failed();
    report.notes.append(&mut session.notes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_rates_interpolate_between_advances() {
        // 100 tuples done at 0.5 s, 300 at 1.5 s, nothing more by 2.5 s:
        // 200 tuples/s from 0.5 s to 1.5 s, whichever segment that is in.
        let samples = [
            (0, 0),
            (500_000_000, 100),
            (900_000_000, 100),
            (1_500_000_000, 300),
            (2_500_000_000, 300),
        ];
        assert_eq!(
            segment_rates(&samples, 1_000_000_000, 3),
            vec![200.0, 100.0, 0.0]
        );
        // Fine-grained progress is read as it is.
        let fine: Vec<(u64, u64)> = (0..=3000).map(|i| (i * 1_000_000, i * 5)).collect();
        assert_eq!(segment_rates(&fine, 1_000_000_000, 3), vec![5000.0; 3]);
    }

    #[test]
    fn phases_keep_the_issue_proportions() {
        let p = Phases::from_seconds(32.0);
        assert_eq!(
            (p.warm, p.capacity, p.lat_warm, p.lat),
            (
                Duration::from_secs(3),
                Duration::from_secs(12),
                Duration::from_secs(2),
                Duration::from_secs(15)
            )
        );
    }

    #[test]
    fn backlog_growth_is_a_trend_not_a_level() {
        assert!(!backlog_growing(&vec![40.0; 600]));
        let ramp: Vec<f64> = (0..600).map(f64::from).collect();
        assert!(!backlog_growing(&ramp[..5]));
        let blow_up: Vec<f64> = (0..600)
            .map(|i| {
                if i < 500 {
                    1.0
                } else {
                    f64::from(i - 499) * 3.0
                }
            })
            .collect();
        assert!(backlog_growing(&blow_up));
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mib() > 0.0);
        assert!(server_cpu_seconds() >= 0.0);
    }
}
