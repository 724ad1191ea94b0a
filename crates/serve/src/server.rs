//! The thread-per-connection TCP server in front of a
//! [`Runtime`].
//!
//! Architecture (std-only, no async runtime):
//!
//! * one **accept thread** blocks on [`TcpListener::accept`] and spawns
//!   a handler thread per connection;
//! * each **connection thread** loops `read_frame → decode → handle →
//!   reply`, blocked in its read while the peer is quiet; a reply is
//!   one frame in one write;
//! * a connection that subscribes gets a **pusher thread** that sleeps
//!   on its [`Subscription`] until events arrive, takes everything it
//!   holds, encodes the [`Response::Event`] frames back to back into
//!   one reused buffer and writes it — so a backlog leaves as a few
//!   large writes, while an idle connection still sends every event the
//!   moment it arrives (the buffer is flushed whenever the taken events
//!   run out; there is no timer). Pusher and handler share the socket
//!   through a mutex taken per *buffer* of whole frames (at most
//!   64 KiB), so frames never interleave, and a waiting reply goes
//!   ahead of the pusher's next buffer, so an ack is never stuck behind
//!   more than one. The bytes on the wire are the same as one write per
//!   frame would produce;
//! * the **control plane** (submit/deregister/stats/snapshot/drain)
//!   goes through one `Mutex<Runtime>`; the **hot path** (ingest) uses
//!   a cloned lock-free [`IngestHandle`], so concurrent producers never
//!   serialize on the control-plane lock.
//!
//! Nothing polls. Graceful shutdown ([`Request::Shutdown`], once its
//! reply is written, or [`Server::stop`]) raises a flag and signals it
//! on a condvar, which wakes the autoscaler and
//! [`Server::run_until_shutdown`]; a self-connection wakes the accept
//! loop, which keeps a clone of every live connection's socket and
//! shuts them all down. That ends a handler's blocking read and a
//! pusher's blocked write, even to a peer that stopped reading; each
//! handler then closes its subscription, which wakes its pusher. So
//! stop shuts their sockets, joins every connection, and finally shuts
//! the runtime down — a durable one writes its shutdown checkpoint —
//! returning its final [`RuntimeStats`].
//!
//! Every failure a request can hit — schema conflicts, parse/compile
//! rejections, unknown queries, wire corruption — maps through
//! [`cer_core::Error::code`] onto the stable
//! [`ErrorCode`](cer_core::error::ErrorCode) table that
//! [`Response::Error`] carries; the connection survives all of them.

use crate::protocol::{
    decode_message, encode_event_frame, encode_frame_into, read_frame, AutoscaleSummary,
    DurabilitySummary, Frontend, Request, Response, StatsSummary, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
use cer_common::Schema;
use cer_core::ingest::{IngestHandle, Subscription, SubscriptionFilter};
use cer_core::runtime::{QuerySpec, Runtime, RuntimeStats};
use cer_core::{AutoscalePolicy, Controller, Error, RuntimeConfig};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Construction-time knobs of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The runtime underneath the listener — one config value carries
    /// the whole engine setup ([`RuntimeConfig`]).
    pub runtime: RuntimeConfig,
    /// Per-frame payload cap, both directions.
    pub max_frame: usize,
    /// Subscription channel capacity used when a
    /// [`Request::Subscribe`] asks for capacity 0 ("server default").
    pub default_sub_capacity: usize,
    /// Hysteresis policy for the autoscale controller (the loop itself
    /// starts paused; [`Request::SetAutoscale`] turns it on).
    pub autoscale: AutoscalePolicy,
    /// How often the (enabled) autoscale controller samples load
    /// signals. Streak thresholds in [`ServeConfig::autoscale`] are
    /// counted in these ticks.
    pub autoscale_interval: Duration,
    /// Data directory for durability. `Some(dir)` opens the runtime
    /// with [`Runtime::open_durable`]: recover whatever `dir` holds
    /// (checkpoints + WAL) or initialize it fresh, then log every
    /// replayable operation and accept [`Request::Checkpoint`]. `None`
    /// (the default) serves purely in memory.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            runtime: RuntimeConfig::default(),
            max_frame: DEFAULT_MAX_FRAME,
            default_sub_capacity: 1 << 16,
            autoscale: AutoscalePolicy::default(),
            autoscale_interval: Duration::from_millis(100),
            data_dir: None,
        }
    }
}

impl ServeConfig {
    /// Serve durably out of `dir` (see [`ServeConfig::data_dir`]).
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }
}

impl From<RuntimeConfig> for ServeConfig {
    fn from(runtime: RuntimeConfig) -> Self {
        ServeConfig {
            runtime,
            ..Self::default()
        }
    }
}

struct Shared {
    /// `None` only after the server took the runtime out for shutdown.
    runtime: Mutex<Option<Runtime>>,
    schema: Mutex<Schema>,
    /// Cloned once at bind: ingest never touches the `runtime` mutex.
    ingest: IngestHandle,
    /// Up once a stop was asked for, locally or by a client; `stop`
    /// is signalled when it goes up.
    stopping: Mutex<bool>,
    stop: Condvar,
    /// Whether the autoscale control loop is running. The controller
    /// thread exists for the server's whole life and idles while this
    /// is false.
    autoscale_on: AtomicBool,
    /// The hysteresis controller's streak state, shared between the
    /// control loop and status requests. Lock order: `controller`
    /// before `runtime`, always.
    controller: Mutex<Controller>,
    config: ServeConfig,
    addr: SocketAddr,
}

impl Shared {
    /// Run `f` on the runtime under the control-plane lock; fails with
    /// `RuntimeClosed` once the server took the runtime out to stop it.
    fn with_runtime<T>(
        &self,
        f: impl FnOnce(&mut Runtime) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut guard = self.runtime.lock().expect("runtime mutex poisoned");
        f(guard.as_mut().ok_or(Error::RuntimeClosed)?)
    }

    /// Take the runtime out for shutdown (`None` the second time).
    fn take_runtime(&self) -> Option<Runtime> {
        self.runtime.lock().expect("runtime mutex poisoned").take()
    }

    /// The stop flag's lock. A lone `bool` is valid whatever a panicking
    /// holder did, so a poisoned lock is taken as it is: `Server::drop`
    /// raises the flag too, and must not panic.
    fn stopping(&self) -> MutexGuard<'_, bool> {
        self.stopping.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_stopping(&self) -> bool {
        *self.stopping()
    }

    /// Raise the stop flag, wake every thread waiting on it, and wake
    /// the blocking accept with a throwaway connection.
    fn request_stop(&self) {
        *self.stopping() = true;
        self.stop.notify_all();
        let _ = TcpStream::connect(self.addr);
    }

    /// Wait for a stop, at most `timeout` (`None`: however long it
    /// takes); whether one was asked for.
    fn wait_stop(&self, timeout: Option<Duration>) -> bool {
        let stopping = self.stopping();
        let stopping = match timeout {
            Some(timeout) => {
                let waited = self.stop.wait_timeout_while(stopping, timeout, |up| !*up);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
            None => self
                .stop
                .wait_while(stopping, |up| !*up)
                .unwrap_or_else(PoisonError::into_inner),
        };
        *stopping
    }
}

/// A listening server. Bind with [`Server::bind`], stop with
/// [`Server::stop`] (or remotely via [`Request::Shutdown`] +
/// [`Server::run_until_shutdown`]).
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    autoscaler: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind a listener (use port 0 for an ephemeral port) over a fresh
    /// runtime built from `config.runtime`.
    pub fn bind(addr: impl ToSocketAddrs, config: impl Into<ServeConfig>) -> io::Result<Server> {
        let config = config.into();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let runtime = match &config.data_dir {
            Some(dir) => Runtime::open_durable(dir.clone(), config.runtime)
                .map_err(|e| io::Error::other(e.to_string()))?,
            None => Runtime::new(config.runtime),
        };
        let ingest = runtime.ingest_handle();
        let shared = Arc::new(Shared {
            runtime: Mutex::new(Some(runtime)),
            schema: Mutex::new(Schema::new()),
            ingest,
            stopping: Mutex::new(false),
            stop: Condvar::new(),
            autoscale_on: AtomicBool::new(false),
            controller: Mutex::new(Controller::new(config.autoscale)),
            config,
            addr,
        });
        let accept_shared = shared.clone();
        let accept = thread::Builder::new()
            .name("cer-serve-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        let scale_shared = shared.clone();
        let autoscaler = thread::Builder::new()
            .name("cer-serve-autoscale".into())
            .spawn(move || autoscale_loop(scale_shared))?;
        Ok(Server {
            shared,
            accept: Some(accept),
            autoscaler: Some(autoscaler),
        })
    }

    /// The bound address (resolves the actual port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a shutdown has been requested (locally or by a client).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_stopping()
    }

    /// Park until some client's [`Request::Shutdown`] has been answered,
    /// then stop and return the runtime's final stats.
    pub fn run_until_shutdown(self) -> RuntimeStats {
        self.shared.wait_stop(None);
        self.stop()
    }

    /// Graceful shutdown: close the listener and shut every
    /// connection's socket, join their threads, then drain and stop the
    /// runtime — a durable one writes its shutdown checkpoint — and
    /// return its final stats.
    pub fn stop(mut self) -> RuntimeStats {
        let conns = self.begin_stop();
        for c in conns {
            let _ = c.join();
        }
        let runtime = self.shared.take_runtime();
        runtime.expect("server stopped twice").shutdown()
    }

    /// Raise the flag, join the autoscaler and the accept loop (which
    /// shuts every connection's socket on its way out), returning the
    /// live connection handles.
    fn begin_stop(&mut self) -> Vec<JoinHandle<()>> {
        self.shared.request_stop();
        if let Some(h) = self.autoscaler.take() {
            let _ = h.join();
        }
        match self.accept.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => Vec::new(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `stop` disarms by taking `accept`; an un-stopped server still
        // joins its threads so tests cannot leak listeners.
        if self.accept.is_some() {
            for c in self.begin_stop() {
                let _ = c.join();
            }
            if let Some(rt) = self.shared.take_runtime() {
                rt.shutdown();
            }
        }
    }
}

/// Accept connections until a stop, each on its own handler thread.
/// The loop keeps a clone of every live connection's socket; on the way
/// out it shuts them all down, so no handler or pusher outlives the
/// stop blocked on a quiet or stalled peer.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    for stream in listener.incoming() {
        if shared.is_stopping() {
            break;
        }
        let Ok((stream, socket)) = stream.and_then(|s| Ok((s.try_clone()?, s))) else {
            continue;
        };
        let conn_shared = shared.clone();
        if let Ok(handle) = thread::Builder::new()
            .name("cer-serve-conn".into())
            .spawn(move || handle_connection(conn_shared, stream))
        {
            conns.push((handle, socket));
        }
        // Opportunistically reap finished connections so a long-lived
        // server does not accumulate dead handles and sockets.
        conns.retain(|(h, _)| !h.is_finished());
    }
    for (_, socket) in &conns {
        let _ = socket.shutdown(Shutdown::Both);
    }
    conns.into_iter().map(|(h, _)| h).collect()
}

/// The autoscale control loop: one tick per `autoscale_interval`, in a
/// wait a stop cuts short. Each tick (while enabled) feeds current load
/// signals through the shared [`Controller`] and rescales on a
/// confirmed streak; a failed rescale leaves the flag up and retries
/// next tick.
fn autoscale_loop(shared: Arc<Shared>) {
    while !shared.wait_stop(Some(shared.config.autoscale_interval)) {
        if !shared.autoscale_on.load(Ordering::SeqCst) {
            continue;
        }
        let mut controller = shared.controller.lock().expect("controller mutex poisoned");
        let _ = shared.with_runtime(|runtime| runtime.autoscale_tick(&mut controller));
    }
}

/// Build the [`Response::AutoscaleStatus`] reply under the shared lock
/// order (controller, then runtime).
fn autoscale_status(shared: &Shared) -> Result<Response, Error> {
    let controller = shared.controller.lock().expect("controller mutex poisoned");
    let (hot, cold, cooldown) = controller.streaks();
    shared.with_runtime(|runtime| {
        Ok(Response::AutoscaleStatus(AutoscaleSummary {
            enabled: shared.autoscale_on.load(Ordering::SeqCst),
            shards: runtime.num_shards() as u64,
            rescales: runtime.rescale_counters().rescales,
            hot_streak: u64::from(hot),
            cold_streak: u64::from(cold),
            cooldown: u64::from(cooldown),
        }))
    })
}

/// Most bytes of [`Response::Event`] frames the pusher writes per hold
/// of the connection's writer lock. A reply that becomes ready while
/// the pusher works through a backlog waits for at most one such write;
/// the value also caps the pusher's reused encode buffer.
const PUSH_BUF_BYTES: usize = 64 << 10;

/// The write half of a connection, shared by its handler thread (one
/// reply per request) and its pusher thread (Event frames). Every write
/// under the lock is a run of whole frames, so frames never interleave.
struct ConnWriter<W> {
    stream: Mutex<W>,
    /// Up while the handler waits for `stream` with a reply in hand. A
    /// std mutex is not fair: without this the pusher could re-take the
    /// lock buffer after buffer while the reply starves behind a whole
    /// backlog of events.
    reply_waiting: AtomicBool,
}

impl<W: Write> ConnWriter<W> {
    fn new(stream: W) -> Self {
        ConnWriter {
            stream: Mutex::new(stream),
            reply_waiting: AtomicBool::new(false),
        }
    }

    /// Write a request's reply, ahead of any Event buffer not yet begun.
    fn reply(&self, frame: &[u8]) -> io::Result<()> {
        self.reply_waiting.store(true, Ordering::SeqCst);
        let mut stream = self.stream.lock().expect("connection writer poisoned");
        self.reply_waiting.store(false, Ordering::SeqCst);
        stream.write_all(frame)
    }

    /// Write one buffer of Event frames, after any waiting reply.
    fn push(&self, frames: &[u8]) -> io::Result<()> {
        while self.reply_waiting.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        self.stream
            .lock()
            .expect("connection writer poisoned")
            .write_all(frames)
    }
}

/// The pusher thread's loop: sleep on the subscription, with no
/// deadline, until it holds events, take *all* of them — whole
/// [`MatchChunk`](cer_core::MatchChunk)s, no match is ever built — encode them back to back as
/// [`Response::Event`] frames straight from the chunks' words into one
/// reused buffer, and write that buffer whenever it reaches
/// [`PUSH_BUF_BYTES`] and when the taken events run out. An idle
/// connection therefore sends each event the moment it arrives, one
/// frame per write, and frames coalesce only while the socket is the
/// slower side — there is no timer and nothing to tune. The byte stream
/// is the same either way: the events' frames in channel order.
///
/// Returns once the subscription is closed — at the next buffer
/// boundary, or at once when it is idle — or when a write fails. It
/// closes the subscription on every way out, a panic included:
/// otherwise a `Block` channel nobody reads any more would keep the
/// shard worker parked, and every producer's ingest behind it — this
/// connection's handler's too, so nothing would ever close it.
fn push_events<W: Write>(sub: &Subscription, writer: &ConnWriter<W>) {
    let _close = OnDrop(|| sub.close());
    let mut chunks = Vec::new();
    let mut frames = Vec::new();
    loop {
        let mut left = sub.recv_chunks(Duration::MAX, &mut chunks);
        if left == 0 {
            return; // closed and empty
        }
        for (position, query, valuation) in chunks.iter().flat_map(|chunk| chunk.iter()) {
            left -= 1;
            if encode_event_frame(&mut frames, position, query, valuation).is_err() {
                return;
            }
            if frames.len() >= PUSH_BUF_BYTES || left == 0 {
                if writer.push(&frames).is_err() || sub.is_closed() {
                    return;
                }
                frames.clear();
            }
        }
        chunks.clear();
    }
}

/// Runs its closure when dropped: on return and on unwind alike.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

/// The per-connection subscription, shared with its pusher thread, and
/// the pusher's handle.
struct ActiveSubscription {
    sub: Arc<Subscription>,
    pusher: JoinHandle<()>,
}

impl ActiveSubscription {
    /// Close the subscription, which wakes the pusher, and join it.
    fn stop(self) {
        self.sub.close();
        let _ = self.pusher.join();
    }
}

fn handle_connection(shared: Arc<Shared>, stream: TcpStream) {
    // The accept loop still holds a clone of this socket: shut it on
    // every way out, a panic included, so the peer sees the close now.
    let _shut = OnDrop(|| {
        let _ = stream.shutdown(Shutdown::Both);
    });
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(ConnWriter::new(write_half));
    let mut read_half = &stream;
    let mut subscription: Option<ActiveSubscription> = None;

    loop {
        let payload = match read_frame(&mut read_half, shared.config.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // peer closed, or the server shut the socket
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // corrupt framing or dead socket
        };
        let response = match decode_message::<Request>(&payload) {
            Err(wire) => error_response(&Error::Wire(wire)),
            Ok(request) => handle_request(&shared, &writer, &mut subscription, request)
                .unwrap_or_else(|e| error_response(&e)),
        };
        let sent = send(&writer, &response);
        // The stop goes out only once the answer is written (or cannot
        // be): a client never sees its connection shut first.
        if matches!(response, Response::ShuttingDown) {
            shared.request_stop();
            break;
        }
        if sent.is_err() {
            break;
        }
    }
    if let Some(sub) = subscription.take() {
        sub.stop();
    }
}

fn error_response(e: &Error) -> Response {
    Response::Error {
        code: e.code().as_u16(),
        message: e.to_string(),
    }
}

/// Send one reply: the whole frame in one write.
fn send(writer: &ConnWriter<TcpStream>, response: &Response) -> io::Result<()> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
    writer.reply(&frame)
}

fn handle_request(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter<TcpStream>>,
    subscription: &mut Option<ActiveSubscription>,
    request: Request,
) -> Result<Response, Error> {
    match request {
        Request::Hello { version: _ } => Ok(Response::Hello {
            version: PROTOCOL_VERSION,
        }),
        Request::DeclareRelation { name, arity } => {
            let mut schema = shared.schema.lock().expect("schema mutex poisoned");
            let id = schema.add_relation(&name, arity)?;
            Ok(Response::RelationDeclared { id })
        }
        Request::SubmitQuery {
            name,
            frontend,
            text,
            window,
            partition,
            gc_every,
        } => {
            let pcea = {
                let mut schema = shared.schema.lock().expect("schema mutex poisoned");
                compile_query_text(&mut schema, frontend, &text)?
            };
            let partition = partition.unwrap_or(shared.config.runtime.default_partition);
            let spec = QuerySpec::new(name, pcea, window)
                .with_partition(partition)
                .with_gc_every(gc_every);
            let id = shared.with_runtime(|runtime| runtime.register(spec))?;
            Ok(Response::QueryAccepted { id })
        }
        Request::IngestBatch { tuples } => {
            // Validate against the schema before stamping: a remote
            // client's malformed tuple must not reach the evaluators.
            {
                let schema = shared.schema.lock().expect("schema mutex poisoned");
                for t in &tuples {
                    validate_tuple(&schema, t)?;
                }
            }
            let receipt = shared.ingest.push_batch(&tuples)?;
            Ok(Response::Ingested {
                start: receipt.positions.start,
                end: receipt.positions.end,
                dropped: receipt.dropped,
            })
        }
        Request::Subscribe {
            query,
            capacity,
            policy,
        } => {
            if subscription.is_some() {
                return Err(Error::Protocol(
                    "connection already has a subscription".into(),
                ));
            }
            let capacity = if capacity == 0 {
                shared.config.default_sub_capacity
            } else {
                capacity
            };
            let sub = shared.with_runtime(|runtime| {
                let filter = match query {
                    Some(id) if runtime.query_name(id).is_none() => {
                        return Err(Error::UnknownQuery { id });
                    }
                    Some(id) => SubscriptionFilter::Query(id),
                    None => SubscriptionFilter::All,
                };
                Ok(runtime.subscribe_with(filter, capacity, policy))
            })?;
            let sub = Arc::new(sub);
            let (pusher_sub, pusher_writer) = (sub.clone(), writer.clone());
            let pusher = thread::Builder::new()
                .name("cer-serve-push".into())
                .spawn(move || push_events(&pusher_sub, &pusher_writer))
                .map_err(|e| Error::Protocol(format!("cannot spawn pusher thread: {e}")))?;
            *subscription = Some(ActiveSubscription { sub, pusher });
            Ok(Response::Subscribed)
        }
        Request::Unsubscribe => match subscription.take() {
            Some(sub) => {
                sub.stop();
                Ok(Response::Unsubscribed)
            }
            None => Err(Error::Protocol("no subscription on this connection".into())),
        },
        Request::Deregister { id } => shared.with_runtime(|runtime| {
            runtime.deregister(id)?;
            Ok(Response::Deregistered)
        }),
        Request::Stats => shared.with_runtime(|runtime| {
            Ok(Response::Stats(StatsSummary {
                shards: runtime.num_shards() as u64,
                queries: runtime.num_queries() as u64,
                next_position: runtime.next_position(),
                dropped: shared.ingest.total_dropped(),
                events_overwritten: runtime.events_overwritten(),
            }))
        }),
        Request::MetricsText => shared.with_runtime(|runtime| {
            let text = runtime.metrics_text();
            Ok(Response::MetricsText { text })
        }),
        Request::Snapshot => shared.with_runtime(|runtime| {
            let bytes = runtime.snapshot()?.to_bytes()?;
            Ok(Response::Snapshot { bytes })
        }),
        Request::Drain => shared.with_runtime(|runtime| {
            runtime.drain();
            Ok(Response::Drained)
        }),
        Request::Ping => Ok(Response::Pong),
        // The connection loop raises the stop after this reply is sent.
        Request::Shutdown => Ok(Response::ShuttingDown),
        Request::Rescale { shards } => shared.with_runtime(|runtime| {
            let from = runtime.num_shards() as u64;
            runtime.rescale(shards)?;
            Ok(Response::Rescaled {
                from,
                to: shards as u64,
                nanos: runtime.rescale_counters().last_rescale_nanos,
            })
        }),
        Request::SetAutoscale { enabled } => {
            // Re-enabling starts from a clean controller so stale
            // streaks from a past epoch cannot trigger a move.
            if enabled && !shared.autoscale_on.swap(true, Ordering::SeqCst) {
                let mut controller = shared.controller.lock().expect("controller mutex poisoned");
                *controller = Controller::new(shared.config.autoscale);
            }
            if !enabled {
                shared.autoscale_on.store(false, Ordering::SeqCst);
            }
            autoscale_status(shared)
        }
        Request::AutoscaleStatus => autoscale_status(shared),
        Request::Checkpoint => shared.with_runtime(|runtime| {
            let stats = runtime.checkpoint()?;
            Ok(Response::CheckpointDone {
                position: stats.position,
                epoch: stats.epoch,
                bytes: stats.bytes,
                full: stats.full,
            })
        }),
        Request::DurabilityStatus => shared.with_runtime(|runtime| {
            let status = runtime.durability_status().ok_or(Error::NotDurable)?;
            Ok(Response::Durability(DurabilitySummary {
                healthy: status.healthy,
                wal_segments: status.wal_segments,
                wal_bytes: status.wal_bytes,
                wal_records: status.wal_records,
                last_checkpoint_epoch: status.last_checkpoint_epoch,
                last_checkpoint_position: status.last_checkpoint_position,
                chain_len: status.chain_len,
            }))
        }),
    }
}

/// Parse and compile a submitted query through the requested front-end,
/// mapping both failure layers onto the unified error.
fn compile_query_text(
    schema: &mut Schema,
    frontend: Frontend,
    text: &str,
) -> Result<cer_automata::pcea::Pcea, Error> {
    match frontend {
        Frontend::Hcq => {
            let query = cer_cq::parser::parse_query(schema, text)
                .map_err(|e| Error::Parse(e.to_string()))?;
            let compiled = cer_cq::compile::compile_hcq(schema, &query)
                .map_err(|e| Error::Compile(e.to_string()))?;
            Ok(compiled.pcea)
        }
        Frontend::Pattern => {
            let expr =
                cer_lang::parse_pattern(schema, text).map_err(|e| Error::Parse(e.to_string()))?;
            let compiled = cer_lang::compile_pattern(schema, &expr)
                .map_err(|e| Error::Compile(e.to_string()))?;
            Ok(compiled.pcea)
        }
    }
}

/// A remote tuple must name a declared relation with the right arity.
fn validate_tuple(schema: &Schema, t: &cer_common::Tuple) -> Result<(), Error> {
    let rel = t.relation();
    if rel.index() >= schema.len() {
        return Err(Error::Data(cer_common::CommonError::UnknownRelation {
            name: format!("#{}", rel.0),
        }));
    }
    let expected = schema.arity(rel);
    if t.arity() != expected {
        return Err(Error::Data(cer_common::CommonError::ArityMismatch {
            relation: schema.name(rel).to_string(),
            expected,
            got: t.arity(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_message, write_frame, RecordingWrite};
    use cer_common::tuple::tup;
    use cer_core::runtime::MatchEvent;
    use cer_core::window::WindowPolicy;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A runtime whose one subscription holds `side * side` delivered
    /// events (a star query: `side` tuples on each arm, then the hub),
    /// plus those same events in channel order.
    fn queued_events(side: usize) -> (Runtime, Subscription, Vec<MatchEvent>) {
        let mut schema = Schema::new();
        let pcea = compile_query_text(
            &mut schema,
            Frontend::Hcq,
            "Q(x, y, z) <- A(x), B(x, y), C(x, z)",
        )
        .unwrap();
        let mut rt = Runtime::new(RuntimeConfig::new(1));
        rt.register(QuerySpec::new("star", pcea, WindowPolicy::Count(1 << 20)))
            .unwrap();
        let reference = rt.subscribe_with(
            SubscriptionFilter::All,
            usize::MAX,
            cer_core::BackpressurePolicy::Block,
        );
        let sub = rt.subscribe_with(
            SubscriptionFilter::All,
            usize::MAX,
            cer_core::BackpressurePolicy::Block,
        );
        let [a, b, c] = ["A", "B", "C"].map(|name| schema.relation(name).unwrap());
        let arm = |rel| (0..side as i64).map(move |i| tup(rel, [0, i]));
        let stream: Vec<_> = arm(b).chain(arm(c)).chain([tup(a, [0i64])]).collect();
        rt.ingest_handle().push_batch(&stream).unwrap();
        rt.drain();
        let events = reference.drain();
        assert_eq!(events.len(), side * side);
        (rt, sub, events)
    }

    fn event_frame(event: &MatchEvent) -> Vec<u8> {
        let mut frame = Vec::new();
        write_frame(
            &mut frame,
            &encode_message(&Response::Event(event.clone())).unwrap(),
        )
        .unwrap();
        frame
    }

    /// However the pusher cuts its writes, the bytes a client reads are
    /// one `write_frame(encode_message(Event))` per event, in channel
    /// order, and no write exceeds the cap by more than a frame.
    #[test]
    fn pushed_bytes_are_the_per_event_frames_in_order() {
        // 1 and 25 events fit one buffer, 900 cross the byte cap once,
        // 3600 several times.
        for side in [1, 5, 30, 60] {
            let (_rt, sub, events) = queued_events(side);
            let expected: Vec<u8> = events.iter().flat_map(event_frame).collect();
            let longest = events.iter().map(|e| event_frame(e).len()).max().unwrap();
            let writer = ConnWriter::new(RecordingWrite::default());
            let written = || -> usize {
                let stream = writer.stream.lock().unwrap();
                stream.writes.iter().map(Vec::len).sum()
            };
            // Everything written, the pusher sleeps until the close.
            thread::scope(|s| {
                let pusher = s.spawn(|| push_events(&sub, &writer));
                while written() < expected.len() {
                    thread::yield_now();
                }
                sub.close();
                pusher.join().unwrap();
            });
            let writes = &writer.stream.lock().unwrap().writes;
            assert_eq!(writes.concat(), expected, "side {side}");
            let (last, full) = writes.split_last().unwrap();
            assert!(full
                .iter()
                .chain([last])
                .all(|w| w.len() < PUSH_BUF_BYTES + longest));
            assert!(full.iter().all(|w| w.len() >= PUSH_BUF_BYTES));
        }
    }

    /// A socket that, inside its `gate`-th `write_all` (the writer lock
    /// held), reports on `entered` and waits for `resume`; it logs the
    /// length of every `write_all`.
    struct GatedStream {
        stream: TcpStream,
        lens: Vec<usize>,
        gate: usize,
        entered: Sender<()>,
        resume: Receiver<()>,
    }

    impl Write for GatedStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.stream.write(buf)
        }
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.lens.push(buf.len());
            if self.lens.len() == self.gate {
                self.entered.send(()).unwrap();
                self.resume.recv().unwrap();
            }
            self.stream.write_all(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Over loopback: a reply issued while the pusher is deep in a
    /// 10⁵-event backlog reaches the peer right after the buffer that
    /// was being written — not behind the backlog.
    #[test]
    fn a_reply_waits_for_at_most_one_event_buffer() {
        let (_rt, sub, events) = queued_events(317);
        assert!(events.len() > 100_000);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (entered, has_entered) = channel();
        let (resume, resumed) = channel();
        let writer = ConnWriter::new(GatedStream {
            stream: listener.accept().unwrap().0,
            lens: Vec::new(),
            gate: 2,
            entered,
            resume: resumed,
        });
        let mut pong = Vec::new();
        encode_frame_into(&mut pong, &Response::Pong).unwrap();
        let event_bytes_before_pong = thread::scope(|s| {
            // The peer reads to the end of the stream, so the pusher
            // never stalls on a full socket.
            let reader = s.spawn(|| {
                let (mut before, mut seen_pong) = (0, false);
                while let Some(payload) = read_frame(&mut peer, DEFAULT_MAX_FRAME).unwrap() {
                    match decode_message::<Response>(&payload).unwrap() {
                        Response::Pong => seen_pong = true,
                        Response::Event(_) if !seen_pong => before += 4 + payload.len(),
                        Response::Event(_) => {}
                        other => panic!("unexpected frame {other:?}"),
                    }
                }
                assert!(seen_pong);
                before
            });
            let pusher = s.spawn(|| push_events(&sub, &writer));
            // The pusher is inside its second write, holding the lock.
            has_entered.recv().unwrap();
            let replier = s.spawn(|| writer.reply(&pong).unwrap());
            while !writer.reply_waiting.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            resume.send(()).unwrap();
            replier.join().unwrap();
            sub.close();
            pusher.join().unwrap();
            let gated = writer.stream.lock().unwrap();
            gated.stream.shutdown(std::net::Shutdown::Write).unwrap();
            reader.join().unwrap()
        });
        // Issued during the second buffer, the reply went out third.
        let lens = &writer.stream.lock().unwrap().lens;
        assert_eq!(lens[2], pong.len());
        assert_eq!(event_bytes_before_pong, lens[0] + lens[1]);
        assert!(lens[..2].iter().all(|len| *len < PUSH_BUF_BYTES + 256));
    }
}
