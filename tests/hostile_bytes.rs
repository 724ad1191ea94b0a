//! Hostile bytes at the protocol decoders (ROADMAP 1(e)).
//!
//! Every golden [`Request`] and [`Response`] payload of
//! `golden/wire_frames.txt` (see `wire_golden.rs`) goes through
//! [`hostile_mutations`]: each 4-byte window overwritten with 7 and with
//! `u32::MAX`. A decoder must answer every copy with an error or with a
//! message that encodes and decodes back to itself — never a panic,
//! never an allocation sized by a forged count. A [`Snapshot`] built
//! here goes through the same helper and through `Runtime::restore`. The
//! WAL record, MANIFEST and checkpoint-blob decoders are crate-private
//! and run the same helper in `cer_core::durability`'s unit tests;
//! `FireStage::decode`, `EnumStructure::decode` and
//! `WindowClock::decode` do in `cer_core::{fire, ds, window}`'s.
//!
//! The three accept/reject quirks the op table has to keep are explicit
//! cases: a count is bounded by the payload it arrived in, a flag is 0
//! or 1, an error code fits a `u16`.

use pcea::common::wire::{hostile_mutations, Wire, WireError};
use pcea::prelude::{sigma0_prefix, Runtime, Schema, Snapshot};
use pcea::prelude::{QuerySpec, WindowPolicy};
use pcea::serve::protocol::{decode_message, encode_message, Request, Response};
use std::fmt::Debug;

#[path = "golden/frames.rs"]
mod frames;
use frames::golden;

/// Feed every mutation of every golden payload to `T`'s decoder;
/// returns how many copies decoded.
fn attack<T: Wire + PartialEq + Debug>(kind: &str) -> usize {
    let samples = golden(kind);
    assert!(samples.len() >= 18, "the fixture holds the {kind} samples");
    let mut accepted = 0;
    for (name, payload) in samples {
        for mutated in hostile_mutations(&payload) {
            let Ok(message) = decode_message::<T>(&mutated) else {
                continue;
            };
            let bytes = encode_message(&message)
                .unwrap_or_else(|e| panic!("{kind}.{name}: {message:?} does not re-encode: {e}"));
            assert_eq!(
                decode_message::<T>(&bytes).as_ref(),
                Ok(&message),
                "{kind}.{name}: {message:?} does not survive its own encoding"
            );
            accepted += 1;
        }
    }
    accepted
}

#[test]
fn mutated_requests_are_rejected_or_reencode() {
    // Some copies are other honest messages (a different version, name
    // or position); most are not.
    assert!(attack::<Request>("request") > 0);
}

#[test]
fn mutated_responses_are_rejected_or_reencode() {
    assert!(attack::<Response>("response") > 0);
}

/// One payload of the fixture.
fn sample(kind: &str, name: &str) -> Vec<u8> {
    let found = golden(kind).into_iter().find(|s| s.0 == name);
    found.unwrap_or_else(|| panic!("no sample {kind}.{name}")).1
}

/// `kind.name` cut after `keep` bytes, with `tail` in place of the rest.
fn with_tail(kind: &str, name: &str, keep: usize, tail: &[u8]) -> Vec<u8> {
    let mut bytes = sample(kind, name);
    bytes.truncate(keep);
    bytes.extend_from_slice(tail);
    bytes
}

#[test]
fn a_count_no_honest_peer_could_mean_is_corrupt() {
    let huge = u64::MAX.to_le_bytes();
    let implausible = Err(WireError::Corrupt("implausible length"));
    // `arity` closes DeclareRelation, `shards` closes Rescale; in
    // Subscribe `capacity` sits between the query and the policy byte.
    let declare = with_tail("request", "declare_relation", 13, &huge);
    assert_eq!(decode_message::<Request>(&declare), implausible);
    let rescale = with_tail("request", "rescale", 1, &huge);
    assert_eq!(decode_message::<Request>(&rescale), implausible);
    let mut subscribe = with_tail("request", "subscribe_none", 2, &huge);
    subscribe.push(0);
    assert_eq!(decode_message::<Request>(&subscribe), implausible);
    // The bound is the payload's own size, not a constant: what fits a
    // 64-bit word but not the frame is refused, a large honest count is
    // not.
    let plenty = with_tail("request", "rescale", 1, &(1u64 << 20).to_le_bytes());
    assert_eq!(
        decode_message::<Request>(&plenty),
        Ok(Request::Rescale { shards: 1 << 20 })
    );
}

#[test]
fn a_flag_byte_of_two_is_corrupt() {
    // SetAutoscale's `enabled` is the byte after the tag, and so is the
    // `Option` tag of Subscribe's `query`.
    for name in ["set_autoscale_on", "subscribe_none"] {
        let mut payload = sample("request", name);
        assert!(payload[1] <= 1, "request.{name}: byte 1 is the flag");
        payload[1] = 2;
        let got = decode_message::<Request>(&payload);
        assert!(matches!(got, Err(WireError::Corrupt(_))), "request.{name}");
    }
    // AutoscaleStatus's `enabled` and Durability's `healthy` likewise;
    // CheckpointDone's `full` is its last byte.
    for (name, at) in [
        ("autoscale_status", 1),
        ("checkpoint_done_full", 25),
        ("durability", 1),
    ] {
        let mut payload = sample("response", name);
        assert!(payload[at] <= 1, "response.{name}: byte {at} is the flag");
        payload[at] = 2;
        let got = decode_message::<Response>(&payload);
        assert!(matches!(got, Err(WireError::Corrupt(_))), "response.{name}");
    }
}

#[test]
fn an_error_code_above_u16_is_corrupt() {
    let mut payload = sample("response", "error");
    // The code travels as a u32 after the tag; its high half is zero.
    assert_eq!(payload[3..5], [0, 0]);
    payload[3] = 1;
    assert!(matches!(
        decode_message::<Response>(&payload),
        Err(WireError::Corrupt(_))
    ));
    payload[3] = 0;
    payload[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(matches!(
        decode_message::<Response>(&payload),
        Ok(Response::Error { code: u16::MAX, .. })
    ));
}

/// `Snapshot::from_bytes` over a snapshot of a few hundred bytes (one
/// small query with live state): every mutation is rejected or decodes
/// to a snapshot that re-encodes to itself, and restoring it either
/// fails or yields a runtime that keeps serving.
#[test]
fn mutated_snapshots_are_rejected_or_reencode() {
    let (_, r, s, t) = Schema::sigma0();
    let p0 = pcea::automata::pcea::paper_p0(r, s, t);
    let stream = sigma0_prefix(r, s, t);
    let mut rt = Runtime::new(1);
    rt.register(QuerySpec::new("p0", p0, WindowPolicy::Count(8)))
        .unwrap();
    rt.push_batch(&stream[..4]);
    let bytes = rt.snapshot().unwrap().to_bytes().unwrap();
    assert!(bytes.len() < 1024, "{} bytes", bytes.len());
    let (mut decoded, mut restored) = (0, 0);
    for mutated in hostile_mutations(&bytes) {
        let Ok(snap) = Snapshot::from_bytes(&mutated) else {
            continue;
        };
        let again = snap.to_bytes().expect("a decoded snapshot re-encodes");
        let back = Snapshot::from_bytes(&again).and_then(|s| s.to_bytes());
        assert_eq!(back.as_ref(), Ok(&again));
        decoded += 1;
        if let Ok(mut rt) = Runtime::restore(&snap, 1) {
            rt.push_batch(&stream[4..]);
            restored += 1;
        }
    }
    assert!(decoded > restored && restored > 0, "{decoded} / {restored}");
}
