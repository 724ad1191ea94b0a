//! The serving layer, end to end.
//!
//! * Fuzzes the frame codec: arbitrary bytes, truncations and oversized
//!   length prefixes must come back as wire errors, never a panic.
//! * Round-trips every stable [`ErrorCode`] through the wire encoding
//!   of [`Response::Error`].
//! * The differential guarantee: the matches a client receives over a
//!   socket are exactly the matches an in-process run of the same
//!   stamped stream produces — with two concurrent connections, one
//!   query from each front-end.
//! * Live resharding over the wire: a client moves the server through
//!   several shard layouts mid-ingest without losing or duplicating a
//!   match, and drives the autoscale controller on and off.
//! * Every protocol error path maps to the right [`ErrorCode`] and
//!   leaves the connection usable; framing violations close it.
//! * `Server::stop` returns with a peer that never reads its pushed
//!   events and with one that is connected but silent: stop shuts their
//!   sockets instead of waiting on them.

use pcea::prelude::*;
use pcea::serve::protocol::{
    check_frame_len, decode_message, encode_message, parse_frame, read_frame, write_frame, Request,
    Response, DEFAULT_MAX_FRAME,
};
use pcea::serve::{Client, ClientError, Frontend, ServeConfig, Server};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Collect everything a subscribed client has been pushed, stopping
/// after `quiet` of silence.
fn drain_events(client: &mut Client, quiet: Duration) -> Vec<MatchEvent> {
    let mut out = Vec::new();
    while let Some(ev) = client.next_event(quiet).expect("event stream healthy") {
        out.push(ev);
    }
    out
}

fn event_key(ev: &MatchEvent) -> (u64, String) {
    (ev.position, format!("{:?}", ev.valuation))
}

// ---------------------------------------------------------------------
// Fuzz: the codec survives hostile bytes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Arbitrary bytes through every decode entry point: any outcome
    /// but a panic is acceptable, and `parse_frame` must agree with
    /// `check_frame_len` about the advertised length.
    #[test]
    fn fuzz_codec_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_message::<Request>(&bytes);
        let _ = decode_message::<Response>(&bytes);
        match parse_frame(&bytes, 32) {
            Ok(Some((payload, rest))) => {
                prop_assert!(check_frame_len(payload.len(), 32).is_ok());
                prop_assert_eq!(payload.len() + rest.len() + 4, bytes.len());
            }
            Ok(None) => {} // incomplete prefix — need more bytes
            Err(_) => {}   // empty or oversized length — rejected
        }
    }

    /// Every strict prefix of a valid message encoding fails to decode
    /// (the codec never mistakes a truncation for a message).
    #[test]
    fn fuzz_truncations_are_rejected(cut in 0usize..1000) {
        let msg = Request::SubmitQuery {
            name: "watchdog".into(),
            frontend: Frontend::Pattern,
            text: "T(x) && S(x, y) ; R(x, y)".into(),
            window: WindowPolicy::Time { duration: 60, ts_pos: 0 },
            partition: Some(Partition::ByKey { pos: 1 }),
            gc_every: 512,
        };
        let full = encode_message(&msg).unwrap();
        let cut = cut % full.len();
        prop_assert!(decode_message::<Request>(&full[..cut]).is_err());
    }

    /// A length prefix over the receiver's cap is rejected before any
    /// allocation, whatever the advertised size.
    #[test]
    fn fuzz_oversized_frames_are_rejected(over in 1u64..u32::MAX as u64) {
        let cap = 1024usize;
        let len = (cap as u64 + over).min(u32::MAX as u64) as u32;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        prop_assert!(parse_frame(&buf, cap).is_err());
    }
}

// ---------------------------------------------------------------------
// Error codes round-trip the wire
// ---------------------------------------------------------------------

#[test]
fn every_error_code_round_trips_the_wire() {
    for &code in ErrorCode::ALL {
        let msg = Response::Error {
            code: code.as_u16(),
            message: format!("synthetic {code}"),
        };
        let bytes = encode_message(&msg).unwrap();
        match decode_message::<Response>(&bytes).unwrap() {
            Response::Error { code: got, message } => {
                assert_eq!(ErrorCode::from_u16(got), Some(code));
                assert!(message.contains(code.name()));
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Differential: socket matches ≡ in-process matches
// ---------------------------------------------------------------------

const HCQ_TEXT: &str = "Q0(x, y) <- T(x), S(x, y), R(x, y)";
const PAT_TEXT: &str = "T(x) ; R(x, _)";

#[test]
fn socket_matches_equal_in_process_matches() {
    // In-process reference: same query texts, same stamped stream.
    let mut schema = Schema::new();
    let q0 = parse_query(&mut schema, HCQ_TEXT).unwrap();
    let hcq = compile_hcq(&schema, &q0).unwrap();
    let pat = pattern_to_pcea(&mut schema, PAT_TEXT).unwrap();
    let mut reference = Runtime::new(RuntimeConfig::new(2));
    let ref_hcq = reference
        .register(QuerySpec::new("q-hcq", hcq.pcea, WindowPolicy::Count(100)))
        .unwrap();
    let ref_pat = reference
        .register(QuerySpec::new("q-pat", pat.pcea, WindowPolicy::Count(100)))
        .unwrap();
    let r = schema.relation("R").unwrap();
    let s = schema.relation("S").unwrap();
    let t = schema.relation("T").unwrap();
    let stream = sigma0_prefix(r, s, t);
    let expected = reference.push_batch(&stream);
    let expected_hcq: BTreeSet<_> = expected
        .iter()
        .filter(|e| e.query == ref_hcq)
        .map(event_key)
        .collect();
    let expected_pat: BTreeSet<_> = expected
        .iter()
        .filter(|e| e.query == ref_pat)
        .map(event_key)
        .collect();
    assert!(!expected_hcq.is_empty() && !expected_pat.is_empty());
    reference.shutdown();

    // Served: two concurrent connections, one query from each
    // front-end, the same batch stamped by the server's sequencer.
    let server = Server::bind("127.0.0.1:0", ServeConfig::from(RuntimeConfig::new(2))).unwrap();
    let mut conn_hcq = Client::connect(server.local_addr()).unwrap();
    let mut conn_pat = Client::connect(server.local_addr()).unwrap();

    // The HCQ submission declares T, S, R in text order, mirroring the
    // in-process schema, so relation ids agree across both runs.
    let hcq_id = conn_hcq
        .submit_query(
            "q-hcq",
            Frontend::Hcq,
            HCQ_TEXT,
            WindowPolicy::Count(100),
            None,
        )
        .unwrap();
    let pat_id = conn_pat
        .submit_query(
            "q-pat",
            Frontend::Pattern,
            PAT_TEXT,
            WindowPolicy::Count(100),
            None,
        )
        .unwrap();
    assert_eq!(conn_hcq.declare_relation("T", 1).unwrap(), t);
    assert_eq!(conn_hcq.declare_relation("S", 2).unwrap(), s);
    assert_eq!(conn_hcq.declare_relation("R", 2).unwrap(), r);

    conn_hcq
        .subscribe(Some(hcq_id), 1 << 12, BackpressurePolicy::Block)
        .unwrap();
    conn_pat
        .subscribe(Some(pat_id), 1 << 12, BackpressurePolicy::Block)
        .unwrap();

    let (start, end, dropped) = conn_hcq.ingest(stream.clone()).unwrap();
    assert_eq!((start, end, dropped), (0, stream.len() as u64, 0));
    conn_hcq.drain().unwrap();

    // Drain both subscriptions concurrently (the point of two
    // connections: neither blocks the other).
    let collector = std::thread::spawn(move || {
        let got = drain_events(&mut conn_pat, Duration::from_millis(500));
        (conn_pat, got)
    });
    let got_hcq = drain_events(&mut conn_hcq, Duration::from_millis(500));
    let (mut conn_pat, got_pat) = collector.join().unwrap();

    assert!(got_hcq.iter().all(|e| e.query == hcq_id));
    assert!(got_pat.iter().all(|e| e.query == pat_id));
    let got_hcq: BTreeSet<_> = got_hcq.iter().map(event_key).collect();
    let got_pat: BTreeSet<_> = got_pat.iter().map(event_key).collect();
    assert_eq!(got_hcq, expected_hcq);
    assert_eq!(got_pat, expected_pat);

    // Stats reflect the served pipeline.
    let stats = conn_hcq.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.next_position, stream.len() as u64);

    // Metrics are checker-valid Prometheus text.
    let text = conn_hcq.metrics_text().unwrap();
    validate_prometheus_text(&text).expect("exposition parses");
    assert!(text.contains("cer_"));

    // A snapshot taken over the wire restores to a runtime that still
    // knows both queries.
    let bytes = conn_pat.snapshot().unwrap();
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    let restored = Runtime::restore_with(&snap, RuntimeConfig::new(1)).unwrap();
    assert_eq!(restored.query_name(hcq_id), Some("q-hcq"));
    assert_eq!(restored.query_name(pat_id), Some("q-pat"));

    conn_hcq.unsubscribe().unwrap();
    conn_pat.unsubscribe().unwrap();
    // One client asks for shutdown; the server's stop path joins every
    // connection and worker.
    conn_hcq.shutdown_server().unwrap();
    server.run_until_shutdown();
}

// ---------------------------------------------------------------------
// Elastic resharding over the wire
// ---------------------------------------------------------------------

/// A client live-reshards the server through several layouts while
/// ingesting a key-partitioned workload; every triple still produces
/// exactly one match, and the autoscale controller can be handed the
/// shard count and taken back off it on the same connection.
#[test]
fn rescale_and_autoscale_over_the_wire() {
    use pcea::common::tuple::tup;

    let server = Server::bind("127.0.0.1:0", ServeConfig::from(RuntimeConfig::new(2))).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let t = client.declare_relation("T", 1).unwrap();
    let s = client.declare_relation("S", 2).unwrap();
    let r = client.declare_relation("R", 2).unwrap();
    // Key-partitioned: rescales must actually move per-key state.
    let q = client
        .submit_query(
            "elastic",
            Frontend::Hcq,
            "Q(x, y) <- T(x), S(x, y), R(x, y)",
            WindowPolicy::Count(1 << 16),
            Some(Partition::ByKey { pos: 0 }),
        )
        .unwrap();
    client
        .subscribe(Some(q), 1 << 14, BackpressurePolicy::Block)
        .unwrap();

    // Four rounds of ingest, each followed by a move to a new layout
    // (grow, shrink to one, grow again, settle). Triples are split so
    // every round leaves open runs for the *next* layout to complete.
    let mut expected = 0u64;
    for (round, shards) in [(0i64, 4usize), (1, 1), (2, 3), (3, 2)] {
        let batch: Vec<Tuple> = (0..120)
            .map(|i| {
                let x = round * 1_000 + i / 3;
                match i % 3 {
                    0 => tup(t, [x]),
                    1 => tup(s, [x, x + 1]),
                    _ => tup(r, [x, x + 1]),
                }
            })
            .collect();
        expected += 40;
        client.ingest(batch).unwrap();
        let (_, to, _) = client.rescale(shards).unwrap();
        assert_eq!(to, shards as u64);
        assert_eq!(client.stats().unwrap().shards, shards as u64);
    }
    client.drain().unwrap();
    let got = drain_events(&mut client, Duration::from_millis(500));
    assert!(got.iter().all(|e| e.query == q));
    assert_eq!(got.len() as u64, expected, "no match lost or duplicated");
    let unique: BTreeSet<_> = got.iter().map(event_key).collect();
    assert_eq!(unique.len() as u64, expected);

    // The moves are visible in the served metrics; the state moved in
    // memory, so the snapshot serializer never ran.
    let text = client.metrics_text().unwrap();
    validate_prometheus_text(&text).expect("exposition parses");
    assert!(text.contains("cer_rescales_total 4"), "{text}");

    // Autoscale control round-trips on the same connection.
    let st = client.autoscale_status().unwrap();
    assert!(!st.enabled, "autoscale starts paused");
    assert_eq!(st.shards, 2);
    assert_eq!(st.rescales, 4);
    let st = client.set_autoscale(true).unwrap();
    assert!(st.enabled);
    let st = client.set_autoscale(false).unwrap();
    assert!(!st.enabled);

    // An invalid shard count is an error, not a dead connection.
    match client.rescale(0) {
        Err(e) => assert_eq!(remote_code(e), Some(ErrorCode::InvalidShardCount)),
        Ok(_) => panic!("rescale(0) must be rejected"),
    }
    client.ping().unwrap();

    client.unsubscribe().unwrap();
    client.shutdown_server().unwrap();
    server.run_until_shutdown();
}

// ---------------------------------------------------------------------
// Error paths: wrong input → the right code, connection survives
// ---------------------------------------------------------------------

fn remote_code(err: ClientError) -> Option<ErrorCode> {
    match err {
        ClientError::Remote { code, .. } => code,
        other => panic!("expected a remote error, got {other}"),
    }
}

#[test]
fn protocol_errors_carry_stable_codes_and_spare_the_connection() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let t = client.declare_relation("T", 1).unwrap();

    // Redeclaring with a different arity is a data error.
    let err = client.declare_relation("T", 3).unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::DuplicateRelation));

    // Ingesting a tuple of the wrong arity never reaches the pipeline.
    let err = client
        .ingest(vec![Tuple::new(t, vec![Value::Int(1), Value::Int(2)])])
        .unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::ArityMismatch));

    // An out-of-schema relation id is caught at the door.
    let bogus = pcea::common::RelationId(404);
    let err = client
        .ingest(vec![Tuple::new(bogus, vec![Value::Int(1)])])
        .unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::UnknownRelation));

    // Unparsable and non-hierarchical queries map to parse/compile.
    let err = client
        .submit_query(
            "bad",
            Frontend::Hcq,
            "not a query",
            WindowPolicy::Count(8),
            None,
        )
        .unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::Parse));
    let err = client
        .submit_query(
            "triangle",
            Frontend::Hcq,
            "Q(x, y, z) <- A(x, y), B(y, z), C(z, x)",
            WindowPolicy::Count(8),
            None,
        )
        .unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::Compile));

    // Subscribing to a query that does not exist.
    let err = client
        .subscribe(Some(QueryId(99)), 16, BackpressurePolicy::Block)
        .unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::UnknownQuery));

    // Unsubscribing without a subscription, then double-subscribing.
    let err = client.unsubscribe().unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::Protocol));
    let q = client
        .submit_query("ok", Frontend::Hcq, HCQ_TEXT, WindowPolicy::Count(8), None)
        .unwrap();
    client
        .subscribe(Some(q), 16, BackpressurePolicy::DropNewest)
        .unwrap();
    let err = client
        .subscribe(Some(q), 16, BackpressurePolicy::DropNewest)
        .unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::Protocol));

    // Deregistering twice: the second is an unknown query.
    client.deregister(q).unwrap();
    let err = client.deregister(q).unwrap_err();
    assert_eq!(remote_code(err), Some(ErrorCode::UnknownQuery));

    // After all of that the connection still answers.
    client.ping().unwrap();
    server.stop();
}

#[test]
fn garbage_frames_get_wire_errors_and_framing_violations_close() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();

    // An unknown request tag inside a well-formed frame: the server
    // answers with a wire error and keeps the connection open.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut raw, &[0xFF, 1, 2, 3]).unwrap();
    let reply = read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().unwrap();
    match decode_message::<Response>(&reply).unwrap() {
        Response::Error { code, .. } => {
            let code = ErrorCode::from_u16(code).unwrap();
            assert!(matches!(
                code,
                ErrorCode::WireUnsupported | ErrorCode::WireTruncated | ErrorCode::WireCorrupt
            ));
        }
        other => panic!("expected a wire error, got {other:?}"),
    }
    write_frame(&mut raw, &encode_message(&Request::Ping).unwrap()).unwrap();
    let reply = read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert!(matches!(
        decode_message::<Response>(&reply).unwrap(),
        Response::Pong
    ));

    // A length prefix over the server's cap is a framing violation:
    // the server hangs up rather than allocating.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let mut sink = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(
        raw.read_to_end(&mut sink).unwrap_or(0),
        0,
        "server should hang up"
    );

    server.stop();
}

// ---------------------------------------------------------------------
// A malformed timestamp cannot take a shard worker down
// ---------------------------------------------------------------------

/// A tuple of the right relation and arity whose timestamp attribute
/// holds a string passes the schema check at the door and reaches a
/// time-window query's clock. The clock treats it as an out-of-order
/// timestamp — clamped and counted — so the shard worker lives: `Ping`
/// is answered, later matches still arrive, and the operator sees the
/// violation in `cer_query_ts_regressions_total`.
#[test]
fn a_tuple_without_a_timestamp_is_clamped_and_the_server_keeps_serving() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = client.declare_relation("A", 2).unwrap();
    let b = client.declare_relation("B", 2).unwrap();
    let window = WindowPolicy::Time {
        duration: 10,
        ts_pos: 0,
    };
    let text = "Q(ta, tb, x) <- A(ta, x), B(tb, x)";
    let q = client
        .submit_query("timed", Frontend::Hcq, text, window, None)
        .unwrap();
    client
        .subscribe(Some(q), 0, BackpressurePolicy::Block)
        .unwrap();
    let int = |rel, ts: i64| Tuple::new(rel, vec![Value::Int(ts), Value::Int(7)]);
    let late = Tuple::new(b, vec![Value::Str("late".into()), Value::Int(7)]);
    client.ingest(vec![int(a, 100), late]).unwrap();
    client.drain().unwrap();
    client.ping().unwrap();
    client.ingest(vec![int(b, 105), int(b, 111)]).unwrap();
    client.drain().unwrap();

    // The stringly tuple is read as "now" (100) and joins the A; so does
    // the B at 105; at 111 the A has left the window.
    let events = drain_events(&mut client, Duration::from_millis(200));
    let positions: Vec<u64> = events.iter().map(|ev| ev.position).collect();
    assert_eq!(positions, [1, 2]);
    let metrics = client.metrics_text().unwrap();
    let counter = metrics
        .lines()
        .find(|line| line.starts_with("cer_query_ts_regressions_total{"))
        .expect("the counter is exported per query");
    let clamped: u64 = counter.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(clamped >= 1, "{counter}");
    server.stop();
}

// ---------------------------------------------------------------------
// Stop wakes every connection thread; it waits on none
// ---------------------------------------------------------------------

/// Run `server.stop()` on a helper thread and wait at most five
/// seconds for it: a stop that hangs fails the test instead of hanging
/// the suite.
fn stop_within_five_seconds(server: Server) {
    let (done, stopped) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        let _ = done.send(());
    });
    stopped
        .recv_timeout(Duration::from_secs(5))
        .expect("Server::stop returned within 5 s");
    stopper.join().expect("the stopping thread");
}

/// Declare `A/1`, `B/2`, `C/2` and submit the star query
/// `Q(x, y, z) <- A(x), B(x, y), C(x, z)` under `Count(1_000_000)`;
/// then, from a raw socket that never reads, subscribe with `Block`
/// and send one `IngestBatch` of 200 `B(1, i)`, 200 `C(1, i)` and 10
/// `A(1)` — 400 000 matches — followed by `more` batches of 200
/// `B(2, i)`, which match nothing. Returns once the bytes queued at the
/// silent peer stop growing: the socket buffers are full, the pusher is
/// stuck in a write, and the shard worker parks on the full channel
/// behind it. With the runtime's `queue_capacity` below `200 * more`,
/// the silent connection's handler is then parked in ingest too.
fn stall_a_silent_subscriber(server: &Server, more: usize) -> (TcpStream, Client) {
    let mut control = Client::connect(server.local_addr()).unwrap();
    let a = control.declare_relation("A", 1).unwrap();
    let b = control.declare_relation("B", 2).unwrap();
    let c = control.declare_relation("C", 2).unwrap();
    let text = "Q(x, y, z) <- A(x), B(x, y), C(x, z)";
    control
        .submit_query(
            "star",
            Frontend::Hcq,
            text,
            WindowPolicy::Count(1_000_000),
            None,
        )
        .unwrap();

    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    let subscribe = Request::Subscribe {
        query: None,
        capacity: 0,
        policy: BackpressurePolicy::Block,
    };
    write_frame(&mut silent, &encode_message(&subscribe).unwrap()).unwrap();
    let arm =
        |rel, x| (0..200i64).map(move |i| Tuple::new(rel, vec![Value::Int(x), Value::Int(i)]));
    let hubs = (0..10).map(|_| Tuple::new(a, vec![Value::Int(1)]));
    let tuples: Vec<Tuple> = arm(b, 1).chain(arm(c, 1)).chain(hubs).collect();
    let ingest = Request::IngestBatch { tuples };
    write_frame(&mut silent, &encode_message(&ingest).unwrap()).unwrap();
    for _ in 0..more {
        let ingest = Request::IngestBatch {
            tuples: arm(b, 2).collect(),
        };
        write_frame(&mut silent, &encode_message(&ingest).unwrap()).unwrap();
    }

    // Wait until the bytes queued at the silent peer stop growing.
    let mut window = vec![0u8; 32 << 20];
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut queued, mut still) = (0, 0);
    while still < 4 {
        assert!(Instant::now() < deadline, "the pusher never stalled");
        std::thread::sleep(Duration::from_millis(50));
        let now = silent.peek(&mut window).unwrap();
        still = if now > 0 && now == queued {
            still + 1
        } else {
            0
        };
        queued = now;
    }
    assert!(
        queued < window.len(),
        "the peer's buffer bounds what is queued"
    );
    (silent, control)
}

/// A server whose shard queue holds at most 256 tuples, so that
/// [`stall_a_silent_subscriber`]'s extra batches park the silent
/// connection's handler in ingest.
fn small_queue_server() -> Server {
    let ingest = IngestConfig {
        queue_capacity: 256,
        ..IngestConfig::default()
    };
    let config = ServeConfig::from(RuntimeConfig::new(1).with_ingest(ingest));
    Server::bind("127.0.0.1:0", config).unwrap()
}

/// A subscriber that never reads: 400 000 matches are pushed at a
/// socket whose peer reads nothing, so the pusher blocks in a write
/// and the shard worker parks on the full `Block` channel behind it.
/// `stop` shuts the socket, which fails that write, and completes.
#[test]
fn stop_returns_with_a_subscriber_that_never_reads() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let (silent, control) = stall_a_silent_subscriber(&server, 0);
    stop_within_five_seconds(server);
    drop((silent, control));
}

/// As above, but the silent connection also pipelined more tuples than
/// the shard queue holds, so its handler is parked in ingest behind the
/// stalled worker. `stop` fails the pusher's write; the pusher's exit
/// closes the subscription, which frees the worker, then the handler.
#[test]
fn stop_returns_with_a_silent_subscriber_parked_in_ingest() {
    let server = small_queue_server();
    let (silent, control) = stall_a_silent_subscriber(&server, 4);
    stop_within_five_seconds(server);
    drop((silent, control));
}

/// The silent subscriber's peer goes away while its handler is parked
/// in ingest (the unread bytes make the close a reset): the pusher's
/// write fails, its exit closes the subscription, and the runtime
/// serves on — another client's ingest completes.
#[test]
fn a_dead_silent_subscriber_does_not_stall_other_clients() {
    let server = small_queue_server();
    let (silent, control) = stall_a_silent_subscriber(&server, 4);
    drop(silent);
    let addr = server.local_addr();
    let (done, acked) = mpsc::channel();
    let other = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        // Declaring a known relation again returns its id.
        let b = client.declare_relation("B", 2).unwrap();
        let tuples = (0..400i64)
            .map(|i| Tuple::new(b, vec![Value::Int(3), Value::Int(i)]))
            .collect();
        let _ = done.send(client.ingest(tuples));
    });
    let Ok(acked) = acked.recv_timeout(Duration::from_secs(5)) else {
        // A stalled runtime would hang the server's `Drop` too: leak
        // the server, so the test fails instead of hanging.
        std::mem::forget(server);
        panic!("another client's ingest did not complete within 5 s");
    };
    let (start, end, dropped) = acked.expect("ingest acked");
    assert_eq!((end - start, dropped), (400, 0));
    other.join().expect("the other client");
    drop(control);
    stop_within_five_seconds(server);
}

/// A client that connects and then neither sends nor closes: its
/// handler sits in a blocking read, which the stop's socket shutdown
/// ends.
#[test]
fn stop_returns_with_an_idle_live_client() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    // A round trip on another connection: by its answer the accept
    // loop has long handed the idle one to its handler.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    stop_within_five_seconds(server);
    // The server closed its end.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(idle.read(&mut [0u8; 16]).unwrap_or(0), 0);
}
