//! The load side of the end-to-end runs: exactly one connection, one
//! writer (the calling thread) and one reader thread, speaking
//! `cer_serve::protocol` frames directly so that every frame is
//! time-stamped when it arrives, not when a blocking client call
//! returns.
//!
//! The reader reduces each pushed `Event` on the spot — running count,
//! running fingerprint sum, and (in the latency phase) its latency from
//! the due time of the batch that held the completing tuple — and
//! forwards every other response, with its arrival time, to the writer.
//!
//! The reader **polls** its socket instead of sleeping on it. Over
//! loopback the sender of a frame pays for waking the receiver: a
//! server whose client sleeps between events spends a varying part of
//! every `write` on a cross-CPU wake-up (on a virtual machine, on
//! waking a halted vCPU), which made the server's CPU time per tuple
//! swing by a fifth from run to run. A client on another machine costs
//! its server nothing of the kind, and a polling reader stamps arrivals
//! without a wake-up latency of its own.

use crate::oracle::{event_key, MatchKey};
use cer_serve::protocol::{decode_message, encode_message, read_frame, write_frame};
use cer_serve::{Request, Response, DEFAULT_MAX_FRAME};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The open-loop schedule the reader needs to turn an event's position
/// into a latency: batch `k` (of `batch` tuples, the first one being
/// stream tuple `n0`) was due `k × interval_ns` after `t0`.
pub struct LatencyPlan {
    pub t0: Instant,
    pub n0: u64,
    pub batch: u64,
    pub interval_ns: u64,
    /// Batches due before this offset are warm-up and are not sampled.
    pub warm_ns: u64,
    pub window_ns: u64,
    /// Latency samples in nanoseconds (saturating at ~4.29 s), one
    /// vector per window of due time.
    pub windows: Vec<Vec<u32>>,
}

/// Progress as the reader saw it: `(ns since t0, position acked up to,
/// events seen)`, at most one sample per [`TIMELINE_STEP_NS`].
pub struct Timeline {
    pub t0: Instant,
    pub samples: Vec<(u64, u64, u64)>,
}

/// A millisecond: three orders of magnitude below the segments the
/// capacity phase reads the timeline in.
const TIMELINE_STEP_NS: u64 = 1_000_000;

/// What the reader thread keeps about the frames it has seen.
pub struct SinkState {
    /// Global position of stream tuple 0.
    pub pos0: u64,
    /// Events seen since connect.
    pub events: u64,
    /// Wrapping sum of their fingerprints.
    pub sum: u64,
    /// `end` of the last `Ingested` seen.
    pub acked_end: u64,
    /// The verify pass keeps every key.
    pub collect: Option<Vec<MatchKey>>,
    pub latency: Option<LatencyPlan>,
    pub timeline: Option<Timeline>,
    /// The writer sleeps until `events` reaches this.
    wake_at: u64,
}

impl SinkState {
    fn on_event(&mut self, arrival: Instant, ev: &cer_core::runtime::MatchEvent) {
        let (n, key) = event_key(ev, self.pos0);
        self.events += 1;
        self.sum = self.sum.wrapping_add(key.2);
        if let Some(keys) = &mut self.collect {
            keys.push(key);
        }
        if let Some(plan) = &mut self.latency {
            if n >= plan.n0 {
                let due_ns = (n - plan.n0) / plan.batch * plan.interval_ns;
                if due_ns >= plan.warm_ns {
                    let w = ((due_ns - plan.warm_ns) / plan.window_ns) as usize;
                    if let Some(window) = plan.windows.get_mut(w) {
                        let arrival_ns =
                            arrival.saturating_duration_since(plan.t0).as_nanos() as u64;
                        let lat = arrival_ns.saturating_sub(due_ns);
                        window.push(u32::try_from(lat).unwrap_or(u32::MAX));
                    }
                }
            }
        }
    }

    fn sample_timeline(&mut self, arrival: Instant) {
        if let Some(timeline) = &mut self.timeline {
            let t = arrival.saturating_duration_since(timeline.t0).as_nanos() as u64;
            if timeline
                .samples
                .last()
                .is_none_or(|last| t >= last.0 + TIMELINE_STEP_NS)
            {
                timeline.samples.push((t, self.acked_end, self.events));
            }
        }
    }
}

/// The reader's state and the writer's way to sleep on it.
pub struct Sink {
    state: Mutex<SinkState>,
    reached: Condvar,
}

impl Sink {
    pub fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state
            .lock()
            .expect("sink poisoned: the other side panicked")
    }
}

/// The write half of the non-blocking socket: waits out a full send
/// buffer (a minute at most) instead of failing on it.
struct Patient<'a>(&'a TcpStream);

impl Write for Patient<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut stream = self.0;
        let mut deadline = None;
        loop {
            match stream.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now > *deadline.get_or_insert(now + Duration::from_secs(60)) {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    std::thread::yield_now();
                }
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

pub struct Conn {
    stream: TcpStream,
    replies: Receiver<(Instant, Response)>,
    pub sink: Arc<Sink>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // For both halves: the flag belongs to the socket, not to the
        // handle. The writer goes through `Patient`.
        stream.set_nonblocking(true)?;
        let mut read_half = BufReader::with_capacity(64 << 10, stream.try_clone()?);
        let sink = Arc::new(Sink {
            state: Mutex::new(SinkState {
                pos0: 0,
                events: 0,
                sum: 0,
                acked_end: 0,
                collect: None,
                latency: None,
                timeline: None,
                wake_at: u64::MAX,
            }),
            reached: Condvar::new(),
        });
        let reader_sink = sink.clone();
        let (tx, replies) = channel();
        let reader = std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn(move || loop {
                // Ends on EOF, on a socket error, or when the writer is
                // gone; the writer notices through its closed channel.
                // `read_frame` reports an empty socket only between
                // frames; inside one it waits for the rest.
                let frame = match read_frame(&mut read_half, DEFAULT_MAX_FRAME) {
                    Ok(Some(frame)) => frame,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        // Lets the writer run, which shares this CPU.
                        std::thread::yield_now();
                        continue;
                    }
                    Ok(None) | Err(_) => break,
                };
                let arrival = Instant::now();
                match decode_message::<Response>(&frame) {
                    Ok(Response::Event(ev)) => {
                        let mut sink = reader_sink.lock();
                        sink.on_event(arrival, &ev);
                        sink.sample_timeline(arrival);
                        if sink.events >= sink.wake_at {
                            sink.wake_at = u64::MAX;
                            reader_sink.reached.notify_one();
                        }
                    }
                    Ok(other) => {
                        if let Response::Ingested { end, .. } = other {
                            let mut sink = reader_sink.lock();
                            sink.acked_end = end;
                            sink.sample_timeline(arrival);
                        }
                        if tx.send((arrival, other)).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            })?;
        Ok(Conn {
            stream,
            replies,
            sink,
            reader: Some(reader),
        })
    }

    /// Encode and write one request frame; does not wait for the reply.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        let payload = encode_message(request).map_err(|e| format!("encode: {e}"))?;
        write_frame(&mut Patient(&self.stream), &payload).map_err(|e| format!("socket write: {e}"))
    }

    /// The next non-event response and its arrival time, `None` after
    /// `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<(Instant, Response)>, String> {
        match self.replies.recv_timeout(timeout) {
            Ok(r) => Ok(Some(r)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err("the server closed the connection".into()),
        }
    }

    /// A response that is already there, without waiting.
    pub fn try_recv(&mut self) -> Option<(Instant, Response)> {
        self.replies.try_recv().ok()
    }

    /// One control-plane round trip; an `Error` response is an `Err`.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        match self.recv(Duration::from_secs(30))? {
            Some((_, Response::Error { code, message })) => {
                Err(format!("server error {code} for {request:?}: {message}"))
            }
            Some((_, response)) => Ok(response),
            None => Err(format!("no reply to {request:?} within 30 s")),
        }
    }

    /// Sleep until the reader has seen `events` events; `false` if it
    /// has not by `deadline`.
    pub fn wait_events(&self, events: u64, deadline: Instant) -> bool {
        let mut sink = self.sink.lock();
        while sink.events < events {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                sink.wake_at = u64::MAX;
                return false;
            };
            sink.wake_at = events;
            sink = self
                .sink
                .reached
                .wait_timeout(sink, left)
                .expect("sink poisoned: the reader panicked")
                .0;
        }
        true
    }

    /// Shut the socket and join the reader. The server's handler
    /// thread sees EOF at once, so a following `Server::stop` does not
    /// wait out a poll interval for it.
    pub fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.close();
    }
}
