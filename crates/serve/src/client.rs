//! A blocking client for the serving protocol.
//!
//! One [`Client`] owns one TCP connection. Requests are answered in
//! order, but after [`Client::subscribe`] the server interleaves
//! unsolicited [`Response::Event`] frames onto the same socket; the
//! client buffers those aside while waiting for a request's reply, and
//! [`Client::next_event`] drains them (buffer first, then the socket).
//!
//! A server-side failure arrives as [`ClientError::Remote`] carrying
//! the stable [`ErrorCode`] the server serialized — the connection
//! stays usable after it.

use crate::protocol::{
    decode_message, encode_message, read_frame, write_frame, AutoscaleSummary, DurabilitySummary,
    Frontend, Request, Response, StatsSummary, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use cer_common::wire::WireError;
use cer_common::{RelationId, Tuple};
use cer_core::runtime::{MatchEvent, Partition, QueryId};
use cer_core::window::WindowPolicy;
use cer_core::{BackpressurePolicy, ErrorCode};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (or closed mid-conversation).
    Io(io::Error),
    /// A frame decoded to garbage.
    Wire(WireError),
    /// The server reported an error for the request.
    Remote {
        /// The decoded code, `None` if this client build does not know
        /// it (newer server).
        code: Option<ErrorCode>,
        /// The raw wire discriminant.
        raw_code: u16,
        /// The server's message.
        message: String,
    },
    /// The server answered with a response type the request cannot
    /// produce — a protocol bug on one side.
    Unexpected(Response),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote {
                code,
                raw_code,
                message,
            } => match code {
                Some(c) => write!(f, "server error [{c}]: {message}"),
                None => write!(f, "server error [unknown code {raw_code}]: {message}"),
            },
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// The one reply row a request can produce: `$response` must match
/// `$row`, yielding `$out` from its fields; any other row is a protocol
/// bug on one side ([`ClientError::Unexpected`]).
macro_rules! expect {
    ($response:expr, $row:pat => $out:expr) => {
        match $response {
            $row => Ok($out),
            other => Err(ClientError::Unexpected(other)),
        }
    };
}

/// A blocking connection to a [`Server`](crate::server::Server).
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    /// Events that arrived while waiting for a request's reply.
    pending_events: VecDeque<MatchEvent>,
}

impl Client {
    /// Connect and exchange [`Request::Hello`]. Fails fast on a
    /// protocol-version skew.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            max_frame: DEFAULT_MAX_FRAME,
            pending_events: VecDeque::new(),
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match expect!(client.call(&hello)?, Response::Hello { version } => version)? {
            PROTOCOL_VERSION => Ok(client),
            version => Err(ClientError::Remote {
                code: None,
                raw_code: 0,
                message: format!("server protocol version {version}, client {PROTOCOL_VERSION}"),
            }),
        }
    }

    /// Override the frame cap (must match the server's to make use of
    /// larger batches).
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = max_frame;
    }

    /// Declare (or look up) a relation.
    pub fn declare_relation(
        &mut self,
        name: &str,
        arity: usize,
    ) -> Result<RelationId, ClientError> {
        let name = name.to_string();
        let request = Request::DeclareRelation { name, arity };
        expect!(self.call(&request)?, Response::RelationDeclared { id } => id)
    }

    /// Submit a standing query in the given front-end language.
    pub fn submit_query(
        &mut self,
        name: &str,
        frontend: Frontend,
        text: &str,
        window: WindowPolicy,
        partition: Option<Partition>,
    ) -> Result<QueryId, ClientError> {
        let request = Request::SubmitQuery {
            name: name.to_string(),
            frontend,
            text: text.to_string(),
            window,
            partition,
            gc_every: 0,
        };
        expect!(self.call(&request)?, Response::QueryAccepted { id } => id)
    }

    /// Ingest a batch; returns `(first_position, one_past_last, dropped)`.
    pub fn ingest(&mut self, tuples: Vec<Tuple>) -> Result<(u64, u64, u64), ClientError> {
        let request = Request::IngestBatch { tuples };
        expect!(
            self.call(&request)?,
            Response::Ingested { start, end, dropped } => (start, end, dropped)
        )
    }

    /// Start the event stream (one subscription per connection).
    /// `capacity` 0 uses the server default.
    pub fn subscribe(
        &mut self,
        query: Option<QueryId>,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Result<(), ClientError> {
        let request = Request::Subscribe {
            query,
            capacity,
            policy,
        };
        expect!(self.call(&request)?, Response::Subscribed => ())
    }

    /// Stop the event stream. Events already in flight stay readable
    /// via [`next_event`](Self::next_event)'s buffer.
    pub fn unsubscribe(&mut self) -> Result<(), ClientError> {
        expect!(self.call(&Request::Unsubscribe)?, Response::Unsubscribed => ())
    }

    /// Remove a standing query.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), ClientError> {
        expect!(self.call(&Request::Deregister { id })?, Response::Deregistered => ())
    }

    /// The server's compact stats summary.
    pub fn stats(&mut self) -> Result<StatsSummary, ClientError> {
        expect!(self.call(&Request::Stats)?, Response::Stats(s) => s)
    }

    /// The server's Prometheus text exposition.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        expect!(self.call(&Request::MetricsText)?, Response::MetricsText { text } => text)
    }

    /// An epoch-consistent snapshot of the server's runtime
    /// (`Snapshot::from_bytes` recovers it).
    pub fn snapshot(&mut self) -> Result<Vec<u8>, ClientError> {
        expect!(self.call(&Request::Snapshot)?, Response::Snapshot { bytes } => bytes)
    }

    /// Fence the pipeline: returns once everything ingested before the
    /// call was evaluated and delivered (including to this
    /// connection's subscription channel, though events may still be in
    /// flight on the socket).
    pub fn drain(&mut self) -> Result<(), ClientError> {
        expect!(self.call(&Request::Drain)?, Response::Drained => ())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        expect!(self.call(&Request::Ping)?, Response::Pong => ())
    }

    /// Live-reshard the server's runtime to `shards` workers; returns
    /// `(from, to, fence_to_resume_nanos)`. Ingest, queries and this
    /// connection's subscription all survive the move.
    pub fn rescale(&mut self, shards: usize) -> Result<(u64, u64, u64), ClientError> {
        let request = Request::Rescale { shards };
        expect!(self.call(&request)?, Response::Rescaled { from, to, nanos } => (from, to, nanos))
    }

    /// Start or pause the server's autoscale control loop; returns the
    /// status after the change.
    pub fn set_autoscale(&mut self, enabled: bool) -> Result<AutoscaleSummary, ClientError> {
        let request = Request::SetAutoscale { enabled };
        expect!(self.call(&request)?, Response::AutoscaleStatus(s) => s)
    }

    /// The autoscale controller's current status.
    pub fn autoscale_status(&mut self) -> Result<AutoscaleSummary, ClientError> {
        expect!(self.call(&Request::AutoscaleStatus)?, Response::AutoscaleStatus(s) => s)
    }

    /// Ask a durable server to cut a checkpoint now; returns
    /// `(position, epoch, bytes, full)` of the checkpoint written.
    /// Fails with [`ErrorCode::NotDurable`] on an in-memory server.
    pub fn checkpoint(&mut self) -> Result<(u64, u64, u64, bool), ClientError> {
        expect!(
            self.call(&Request::Checkpoint)?,
            Response::CheckpointDone { position, epoch, bytes, full } =>
                (position, epoch, bytes, full)
        )
    }

    /// Health and volume counters of a durable server's WAL and
    /// checkpoint chain. Fails with [`ErrorCode::NotDurable`] on an
    /// in-memory server.
    pub fn durability_status(&mut self) -> Result<DurabilitySummary, ClientError> {
        expect!(self.call(&Request::DurabilityStatus)?, Response::Durability(s) => s)
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        expect!(self.call(&Request::Shutdown)?, Response::ShuttingDown => ())
    }

    /// The next pushed match event: from the local buffer if one is
    /// queued, else waiting up to `timeout` on the socket. `Ok(None)`
    /// on timeout or a cleanly closed connection.
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<MatchEvent>, ClientError> {
        if let Some(ev) = self.pending_events.pop_front() {
            return Ok(Some(ev));
        }
        // A zero timeout would mean "block forever" to the socket API.
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let outcome = match read_frame(&mut self.stream, self.max_frame) {
            Ok(Some(payload)) => {
                expect!(decode_message::<Response>(&payload)?, Response::Event(ev) => Some(ev))
            }
            Ok(None) => Ok(None),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        };
        self.stream.set_read_timeout(None)?;
        outcome
    }

    /// One request/response round-trip, buffering any [`Response::Event`]
    /// frames that arrive first and unwrapping [`Response::Error`] into
    /// [`ClientError::Remote`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = encode_message(request)?;
        write_frame(&mut self.stream, &payload)?;
        loop {
            let frame = read_frame(&mut self.stream, self.max_frame)?.ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-call",
                ))
            })?;
            match decode_message::<Response>(&frame)? {
                Response::Event(ev) => self.pending_events.push_back(ev),
                Response::Error { code, message } => {
                    return Err(ClientError::Remote {
                        code: ErrorCode::from_u16(code),
                        raw_code: code,
                        message,
                    })
                }
                other => return Ok(other),
            }
        }
    }
}
