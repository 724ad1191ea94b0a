//! # cer-wire-bench — the repo's benchmark
//!
//! Four named workloads, each driven end to end over real loopback TCP
//! and checked against an independent per-query oracle ([`e2e`]), and a
//! separate traced run that replays the same stream through a
//! cumulative ladder of the public entry points so that per-layer cost
//! is a subtraction ([`ladder`]). `README.md` has the glossary, the
//! layer → end-to-end map and the public surface the benchmark pins.

pub mod alloc;
pub mod compare;
pub mod e2e;
pub mod gen;
pub mod ladder;
pub mod oracle;
pub mod pin;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;
