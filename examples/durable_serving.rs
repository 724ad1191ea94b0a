//! Kill-and-recover smoke over a real TCP socket — the CI gate for the
//! durability subsystem.
//!
//! The parent re-spawns itself as a durable server child (`--data-dir`
//! semantics via `ServeConfig::with_data_dir`), ingests a prefix of the
//! paper's stream Σ0, cuts a checkpoint mid-prefix so recovery needs
//! checkpoint *and* WAL replay, then SIGKILLs the server. A second
//! child on the same data directory must come back at the exact
//! acknowledged position, and the suffix must complete the joins whose
//! partial matches were opened before the crash: all three known Σ0
//! matches trigger at position 5, *after* the restart, off state that
//! only survived through the disk.
//!
//! Then a clean leg: the recovered server ingests a little more and is
//! stopped with `Request::Shutdown`, which writes a shutdown
//! checkpoint. A third child on the same directory must stand on that
//! checkpoint — its `last_checkpoint_position` is the stopped server's
//! position — and acknowledge the next batch right there.
//!
//! ```sh
//! cargo run --release --example durable_serving
//! ```

use pcea::engine::{DurabilityConfig, FsyncPolicy, QueryId};
use pcea::prelude::*;
use pcea::serve::{Client, Frontend, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const CHILD_ENV: &str = "PCEA_DURABLE_SERVING_DATA_DIR";

fn main() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        return serve_child(&dir);
    }

    let dir = std::env::temp_dir().join(format!("pcea-durable-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── Generation 1: fresh dir, prefix, checkpoint, SIGKILL ────────
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(&addr).expect("connect");
    let t = client.declare_relation("T", 1).expect("declare T");
    let s = client.declare_relation("S", 2).expect("declare S");
    let r = client.declare_relation("R", 2).expect("declare R");
    let q0 = client
        .submit_query(
            "q0",
            Frontend::Hcq,
            "Q0(x, y) <- T(x), S(x, y), R(x, y)",
            WindowPolicy::Count(100),
            None,
        )
        .expect("hierarchical query compiles server-side");
    let pat = client
        .submit_query(
            "t_then_r",
            Frontend::Pattern,
            "T(x) ; R(x, _)",
            WindowPolicy::Count(100),
            None,
        )
        .expect("pattern compiles server-side");
    let stream = sigma0_prefix(r, s, t);

    // Positions 0..3 land in a checkpoint, 3..5 only in the WAL — the
    // recovery below must stitch both together.
    let (start, end, dropped) = client.ingest(stream[..3].to_vec()).expect("ingest prefix");
    assert_eq!((start, end, dropped), (0, 3, 0));
    client.drain().expect("drain");
    let (position, epoch, bytes, full) = client.checkpoint().expect("checkpoint");
    assert_eq!(position, 3, "checkpoint fences at the acknowledged cut");
    assert!(full, "a chain's first checkpoint is full");
    println!("checkpoint: position={position} epoch={epoch} bytes={bytes}");
    let (_, end, _) = client.ingest(stream[3..5].to_vec()).expect("ingest tail");
    assert_eq!(end, 5);
    client.drain().expect("drain");
    let status = client.durability_status().expect("durability status");
    assert!(status.healthy, "WAL healthy before the crash");
    assert_eq!(status.last_checkpoint_position, Some(3));
    assert!(status.wal_records > 0, "the tail lives in the WAL");
    println!(
        "pre-crash: {} WAL records in {} segment(s), then kill -9",
        status.wal_records, status.wal_segments
    );
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();
    drop(client);

    // ── Generation 2: same dir, recover, finish the joins ───────────
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(&addr).expect("reconnect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.next_position, 5,
        "every acknowledged position survived the kill"
    );
    assert_eq!(stats.queries, 2, "standing queries recovered from the log");
    let status = client.durability_status().expect("durability status");
    assert!(status.healthy);
    println!(
        "recovered: position={} queries={} (checkpoint@{:?} + WAL replay)",
        stats.next_position, stats.queries, status.last_checkpoint_position
    );
    // The serving schema is connection state, not engine state:
    // re-declaring in the same order yields the same relation ids the
    // recovered queries were compiled against.
    assert_eq!(client.declare_relation("T", 1).expect("redeclare T"), t);
    assert_eq!(client.declare_relation("S", 2).expect("redeclare S"), s);
    assert_eq!(client.declare_relation("R", 2).expect("redeclare R"), r);

    client
        .subscribe(None, 1 << 10, BackpressurePolicy::Block)
        .expect("subscribe");
    let (start, end, dropped) = client.ingest(stream[5..].to_vec()).expect("ingest suffix");
    assert_eq!((start, end, dropped), (5, stream.len() as u64, 0));
    client.drain().expect("drain");
    let mut q0_matches = 0usize;
    let mut pat_matches = 0usize;
    while let Some(ev) = client
        .next_event(Duration::from_millis(500))
        .expect("events")
    {
        assert!(ev.position >= 5, "all Σ0 matches trigger in the suffix");
        match ev.query {
            q if q == q0 => q0_matches += 1,
            q if q == pat => pat_matches += 1,
            other => panic!("event for unknown query {other:?}"),
        }
    }
    // Σ0's known counts — identical to the uninterrupted tcp_serving
    // run, but here every partial match crossed the crash on disk.
    assert_eq!(q0_matches, 2, "Q0 completes its two cross-crash joins");
    assert_eq!(pat_matches, 1, "T;R completes its cross-crash sequence");
    assert_eq!(QueryId(0), q0, "recovered ids stay dense");
    println!("cross-crash matches: q0={q0_matches}, t_then_r={pat_matches}");

    // A post-recovery checkpoint truncates the replayed log.
    let (position, ..) = client.checkpoint().expect("post-recovery checkpoint");
    assert_eq!(position, stream.len() as u64);

    // ── Clean stop: the shutdown checkpoint covers the last batch ────
    let (_, stopped_at, _) = client.ingest(stream[..3].to_vec()).expect("ingest past it");
    assert_eq!(stopped_at, stream.len() as u64 + 3);
    client.shutdown_server().expect("shutdown handshake");
    let code = child.wait().expect("server exit");
    assert!(code.success(), "graceful shutdown after recovery");
    drop(client);

    // ── Generation 3: same dir, restored from the shutdown checkpoint
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(&addr).expect("reconnect");
    let status = client.durability_status().expect("durability status");
    assert_eq!(
        status.last_checkpoint_position,
        Some(stopped_at),
        "the clean stop checkpointed where it stood"
    );
    assert!(status.healthy);
    assert_eq!(client.declare_relation("T", 1).expect("redeclare T"), t);
    assert_eq!(client.declare_relation("S", 2).expect("redeclare S"), s);
    assert_eq!(client.declare_relation("R", 2).expect("redeclare R"), r);
    let (start, ..) = client
        .ingest(stream[..1].to_vec())
        .expect("ingest after restart");
    assert_eq!(start, stopped_at, "the next batch is acknowledged there");
    println!("clean restart: checkpoint@{stopped_at}, next batch acked at {start}");
    client.shutdown_server().expect("shutdown handshake");
    let code = child.wait().expect("server exit");
    assert!(code.success(), "graceful shutdown after the clean restart");
    let _ = std::fs::remove_dir_all(&dir);
    println!("durable server killed, recovered, stopped and restarted cleanly");
}

/// Child mode: bind an ephemeral port durably over the given data
/// directory, announce it on stdout, serve until `Shutdown`.
fn serve_child(dir: &str) {
    let config = ServeConfig::from(RuntimeConfig::new(2).with_durability(DurabilityConfig {
        // Sync every record: an acknowledged request must survive
        // SIGKILL, which never flushes anything.
        fsync: FsyncPolicy::Always,
        ..DurabilityConfig::default()
    }))
    .with_data_dir(dir);
    let server = Server::bind("127.0.0.1:0", config).expect("bind durable server");
    println!("ADDR {}", server.local_addr());
    std::io::stdout().flush().expect("flush addr line");
    server.run_until_shutdown();
}

/// Re-spawn this example as a server child and wait for its address.
fn spawn_server(dir: &std::path::Path) -> (Child, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .env(CHILD_ENV, dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.expect("read child stdout");
        if let Some(addr) = line.strip_prefix("ADDR ") {
            // Keep draining stdout in the background so the child never
            // blocks on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            return (child, addr.to_string());
        }
    }
    let _ = child.wait();
    panic!("server child exited before announcing its address");
}
