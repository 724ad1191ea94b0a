//! Ingest/window stage: turning an arriving tuple into an expiry bound.
//!
//! Algorithm 1 is window-agnostic — the `DS_w` machinery only needs a
//! monotone lower bound `lo` such that positions `< lo` are expired at
//! the current position. This module isolates that computation behind
//! [`WindowClock`] so every evaluator (the PCEA engine, the baselines,
//! and the multi-query [`Runtime`](crate::runtime::Runtime) shards)
//! shares one implementation of the paper's count window and the
//! timestamp extension.
//!
//! Under the asynchronous pipeline ([`crate::ingest`]), the position
//! fed to [`WindowClock::observe`] is the one stamped by the ingest
//! *sequencer*, not a per-shard counter: expiry advances on the global
//! stream position (count windows) or on the tuple's own timestamp
//! attribute (time windows), never on arrival time or queue depth. A
//! shard that observes a gappy subsequence therefore computes the same
//! bound the dense evaluator would — this is invariant 2 of the
//! position-sequencing soundness argument in the
//! [`ingest`](crate::ingest) module docs. The striped sequencer adds a
//! reordering clause to that argument: concurrent producers stage
//! position blocks out of order and a per-shard reorder stage releases
//! them in position order, so a tuple may sit buffered for a while —
//! but since the bound is a function of the *stamped* position (or the
//! tuple's own timestamp), evaluating it later computes exactly the
//! bound it would have computed at staging time. Buffering delay is
//! invisible to window semantics.
//!
//! # Hazard: out-of-order timestamps under `ByKey` sharding
//!
//! Time windows assume each stream's timestamp attribute is a
//! non-decreasing integer. [`WindowClock::observe`] *clamps* a violating
//! timestamp (out of order, missing, or not an integer — a remote peer
//! can send any of them, and none may panic a shard worker) up to the
//! latest one seen **by that clock** — and under
//! [`Partition::ByKey`](crate::runtime::Partition) sharding each shard
//! replica owns its own clock and sees only its key slice. The same
//! contract-violating stream can therefore clamp *differently* on
//! different shard counts (a regression hidden from shard 0's clock may
//! be visible to the single dense clock, and vice versa), silently
//! producing **shard-count-dependent outputs**. The clamp counts every
//! such regression ([`WindowClock::ts_regressions`], surfaced as
//! `EngineStats::ts_regressions` and aggregated across shards in
//! [`RuntimeStats`](crate::runtime::RuntimeStats::ts_regressions)):
//! a non-zero counter means the input violated the contract and
//! divergence is possible — alert on it rather than trusting the
//! multiset-equivalence guarantee for that stream.

use std::collections::VecDeque;

use cer_common::Tuple;

cer_common::wire_enum! {
    /// How the sliding window expires old positions.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WindowPolicy {
        /// The paper's count window: positions older than `i − w` expire.
        0 => Count(u64),
        /// A time window: the tuple attribute at `ts_pos` is a
        /// non-decreasing integer timestamp, and positions whose timestamp
        /// falls below `now − duration` expire. The `DS_w` machinery is
        /// window-agnostic (it only needs a monotone expiry bound), so
        /// Theorem 5.1's guarantees carry over with `w` read as the maximum
        /// number of in-window positions.
        1 => Time {
            /// Window length in timestamp units.
            duration: i64,
            /// Tuple position holding the integer timestamp.
            ts_pos: usize,
        },
    }
}

/// The stateful ingest stage for one evaluator: feeds positions in
/// increasing order, returns the expiry bound for each.
///
/// Positions may have gaps (a sharded evaluator only sees the tuples
/// routed to it); the bound stays correct because it is only ever used
/// to filter nodes built from positions this evaluator *did* see.
#[derive(Clone, Debug)]
pub struct WindowClock {
    policy: WindowPolicy,
    /// Time windows: in-window `(position, timestamp)` ring.
    ring: VecDeque<(u64, i64)>,
    last_ts: i64,
    /// Out-of-order timestamps this clock clamped (see the module-level
    /// hazard note).
    ts_regressions: u64,
}

impl WindowClock {
    /// A clock for the given policy.
    pub fn new(policy: WindowPolicy) -> Self {
        WindowClock {
            policy,
            ring: VecDeque::new(),
            last_ts: i64::MIN,
            ts_regressions: 0,
        }
    }

    /// How many out-of-order (or missing, or non-integer) timestamps this
    /// clock has clamped up to its own `last_ts`. Always 0 for count windows and for streams
    /// honouring the non-decreasing-timestamp contract; non-zero flags
    /// the shard-count-dependence hazard described in the module docs.
    pub fn ts_regressions(&self) -> u64 {
        self.ts_regressions
    }

    /// The policy driving this clock.
    pub fn policy(&self) -> &WindowPolicy {
        &self.policy
    }

    /// For count windows, the window size `w` — the expiry bound is the
    /// pure function `lo = i − w` of the position, which lets batch
    /// evaluation hoist the policy dispatch out of its inner loop. Time
    /// windows return `None`: their bound depends on each tuple's
    /// timestamp, so they must go through [`observe`](Self::observe)
    /// tuple by tuple.
    pub fn count_window(&self) -> Option<u64> {
        match self.policy {
            WindowPolicy::Count(w) => Some(w),
            WindowPolicy::Time { .. } => None,
        }
    }

    /// Observe the tuple occupying position `i`; returns the expiry
    /// bound `lo`: every stored position `< lo` is out of the window at
    /// `i`.
    ///
    /// A time-window timestamp that breaks the contract — out of order,
    /// missing, or not an integer — is clamped up to the latest seen by
    /// *this* clock (tuples reach a shard worker from remote peers, so a
    /// malformed one must not be able to take the worker down), and
    /// every clamp is counted in
    /// [`ts_regressions`](Self::ts_regressions) — under key-partitioned
    /// sharding the clamp makes outputs shard-count-dependent, so the
    /// count is the operator's detection signal (module docs).
    pub fn observe(&mut self, i: u64, t: &Tuple) -> u64 {
        match &self.policy {
            WindowPolicy::Count(w) => i.saturating_sub(*w),
            WindowPolicy::Time { duration, ts_pos } => {
                let raw = t.values().get(*ts_pos).and_then(cer_common::Value::as_int);
                if raw.is_none_or(|ts| ts < self.last_ts) {
                    self.ts_regressions += 1;
                }
                let ts = raw.map_or(self.last_ts, |ts| ts.max(self.last_ts));
                self.last_ts = ts;
                self.ring.push_back((i, ts));
                while self
                    .ring
                    .front()
                    .is_some_and(|&(_, old)| old < ts.saturating_sub(*duration))
                {
                    self.ring.pop_front();
                }
                self.ring.front().map_or(i, |&(p, _)| p)
            }
        }
    }

    /// A reasonable default garbage-collection cadence for the policy.
    pub fn default_gc_every(&self) -> u64 {
        match self.policy {
            WindowPolicy::Count(w) => w.max(1024),
            WindowPolicy::Time { .. } => 1024,
        }
    }

    /// Checkpoint encoding: the policy plus the clock's mutable state
    /// (the in-window ring, the clamp floor and the regression counter).
    pub(crate) fn encode(
        &self,
        w: &mut cer_common::wire::WireWriter,
    ) -> Result<(), cer_common::wire::WireError> {
        use cer_common::wire::Wire;
        self.policy.encode(w)?;
        w.put_len(self.ring.len());
        for &(pos, ts) in &self.ring {
            w.put_u64(pos);
            w.put_i64(ts);
        }
        w.put_i64(self.last_ts);
        w.put_u64(self.ts_regressions);
        Ok(())
    }

    /// Decode a clock encoded by [`encode`](Self::encode).
    pub(crate) fn decode(
        r: &mut cer_common::wire::WireReader<'_>,
    ) -> Result<Self, cer_common::wire::WireError> {
        let policy = <WindowPolicy as cer_common::wire::Wire>::decode(r)?;
        let n = r.get_len()?;
        let mut ring = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let pos = r.get_u64()?;
            let ts = r.get_i64()?;
            if let Some(&(p, t)) = ring.back() {
                if pos <= p || ts < t {
                    return Err(cer_common::wire::WireError::Corrupt(
                        "window ring not monotone",
                    ));
                }
            }
            ring.push_back((pos, ts));
        }
        let last_ts = r.get_i64()?;
        let ts_regressions = r.get_u64()?;
        Ok(WindowClock {
            policy,
            ring,
            last_ts,
            ts_regressions,
        })
    }

    /// Merge another replica's clock into this one (restore-time shard
    /// merge, [`crate::checkpoint`]): the rings interleave by position,
    /// the clamp floor is the max of the floors, and regressions sum.
    /// For streams honouring the non-decreasing-timestamp contract the
    /// result is exactly the clock a dense evaluator would hold; for
    /// violating streams replica clocks may have clamped differently,
    /// which is the same shard-count-dependence hazard the module docs
    /// describe (and `ts_regressions` flags).
    pub(crate) fn absorb(&mut self, other: WindowClock) {
        let mut merged = VecDeque::with_capacity(self.ring.len() + other.ring.len());
        let (mut a, mut b) = (
            std::mem::take(&mut self.ring).into_iter().peekable(),
            other.ring.into_iter().peekable(),
        );
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (pos, mut ts) = if take_a {
                a.next().unwrap()
            } else {
                b.next().unwrap()
            };
            // Equal positions cannot happen across replicas (positions
            // are globally unique); keep both defensively. Re-apply the
            // monotone clamp across the merged order: replica clocks
            // clamped independently, so on a contract-violating stream
            // the interleaved ring could regress (shard A holding
            // (0, 100), shard B (1, 5)) — exactly what a dense clock
            // would have clamped, and what `decode` rejects.
            if let Some(&(_, prev_ts)) = merged.back() {
                ts = ts.max(prev_ts);
            }
            merged.push_back((pos, ts));
        }
        self.ring = merged;
        self.last_ts = self.last_ts.max(other.last_ts);
        self.ts_regressions += other.ts_regressions;
        if let WindowPolicy::Time { duration, .. } = self.policy {
            let horizon = self.last_ts.saturating_sub(duration);
            while self.ring.front().is_some_and(|&(_, old)| old < horizon) {
                self.ring.pop_front();
            }
        }
    }

    /// Reset the regression counter (restore-time replica clones must
    /// not multiply-report the merged count across shards).
    pub(crate) fn reset_regressions(&mut self) {
        self.ts_regressions = 0;
    }

    /// Carry this clock's state over to a replacement policy of the
    /// same kind (`Runtime::replace` hot-swap). Count-window clocks are
    /// stateless, so any count size migrates exactly; time-window
    /// clocks keep their ring and clamp floor, so a *widened* duration
    /// converges to the dense bound within one old window (entries
    /// already pruned under the old duration cannot be resurrected) and
    /// a narrowed one re-prunes at the next observation. Returns `None`
    /// when the kinds differ (or the timestamp attribute moved), which
    /// `replace` surfaces as an incompatibility.
    pub(crate) fn migrate(self, new_policy: WindowPolicy) -> Option<Self> {
        match (&self.policy, &new_policy) {
            (WindowPolicy::Count(_), WindowPolicy::Count(_)) => Some(WindowClock {
                policy: new_policy,
                ..self
            }),
            (
                WindowPolicy::Time { ts_pos: old_ts, .. },
                WindowPolicy::Time { ts_pos: new_ts, .. },
            ) if old_ts == new_ts => Some(WindowClock {
                policy: new_policy,
                ..self
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cer_common::tuple::tup;
    use cer_common::Schema;

    #[test]
    fn count_window_bound() {
        let (_, r, _, _) = Schema::sigma0();
        let mut clock = WindowClock::new(WindowPolicy::Count(3));
        let t = tup(r, [1i64, 2]);
        assert_eq!(clock.observe(0, &t), 0);
        assert_eq!(clock.observe(2, &t), 0);
        assert_eq!(clock.observe(5, &t), 2);
    }

    #[test]
    fn count_window_expiry_follows_sequencer_positions() {
        // A sharded clock sees only the subsequence routed to it, at the
        // sequencer's global positions; the bound must match what a
        // dense clock reports at the same positions, whatever the gaps.
        let (_, r, _, _) = Schema::sigma0();
        let t = tup(r, [1i64, 2]);
        let picks = [0u64, 1, 4, 9, 10, 63];
        let mut dense = WindowClock::new(WindowPolicy::Count(7));
        let mut dense_bounds = vec![0u64; 64];
        for i in 0..64 {
            dense_bounds[i as usize] = dense.observe(i, &t);
        }
        let mut gappy = WindowClock::new(WindowPolicy::Count(7));
        for &i in &picks {
            assert_eq!(gappy.observe(i, &t), dense_bounds[i as usize], "pos {i}");
        }
    }

    #[test]
    fn time_window_bound_with_gaps() {
        let (_, r, _, _) = Schema::sigma0();
        let mut clock = WindowClock::new(WindowPolicy::Time {
            duration: 10,
            ts_pos: 0,
        });
        // Sharded evaluators observe non-contiguous positions.
        assert_eq!(clock.observe(0, &tup(r, [0i64, 0])), 0);
        assert_eq!(clock.observe(4, &tup(r, [8i64, 0])), 0);
        assert_eq!(clock.observe(9, &tup(r, [16i64, 0])), 4);
        // A stale clock is clamped monotone.
        assert_eq!(clock.observe(12, &tup(r, [2i64, 0])), 4);
    }

    #[test]
    fn absorb_reclamps_interleaved_regressions_and_stays_encodable() {
        // Two ByKey replica clocks that clamped independently on a
        // contract-violating stream: interleaving their rings by
        // position regresses in ts, which the merged clock must clamp
        // (like the dense clock would) so its own snapshot encoding
        // stays decodable.
        let (_, r, _, _) = Schema::sigma0();
        let policy = WindowPolicy::Time {
            duration: 1000,
            ts_pos: 0,
        };
        let mut a = WindowClock::new(policy.clone());
        a.observe(0, &tup(r, [100i64, 0]));
        let mut b = WindowClock::new(policy);
        b.observe(1, &tup(r, [5i64, 0]));
        a.absorb(b);
        assert_eq!(a.last_ts, 100);
        assert!(
            a.ring
                .iter()
                .zip(a.ring.iter().skip(1))
                .all(|(&(p1, t1), &(p2, t2))| p1 < p2 && t1 <= t2),
            "merged ring monotone: {:?}",
            a.ring
        );
        let mut w = cer_common::wire::WireWriter::new();
        a.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut rdr = cer_common::wire::WireReader::new(&bytes);
        let back = WindowClock::decode(&mut rdr).unwrap();
        assert_eq!(back.ring, a.ring);
        assert_eq!(back.last_ts, 100);
    }

    /// Hostile bytes (ROADMAP 1(e)): every mutation of an encoded time
    /// clock decodes to a clock that re-encodes to itself, or fails.
    #[test]
    fn mutated_clock_bytes_are_rejected_or_reencode() {
        use cer_common::wire::{hostile_mutations, WireReader, WireWriter};
        let (_, r, _, _) = Schema::sigma0();
        let mut clock = WindowClock::new(WindowPolicy::Time {
            duration: 10,
            ts_pos: 0,
        });
        for (i, ts) in [(0u64, 3i64), (2, 5), (3, 4), (7, 9)] {
            clock.observe(i, &tup(r, [ts, 0]));
        }
        let encode = |clock: &WindowClock| {
            let mut w = WireWriter::new();
            clock.encode(&mut w).unwrap();
            w.into_bytes()
        };
        let mut decoded = 0;
        for mutated in hostile_mutations(&encode(&clock)) {
            let Ok(back) = WindowClock::decode(&mut WireReader::new(&mutated)) else {
                continue;
            };
            let bytes = encode(&back);
            let again = WindowClock::decode(&mut WireReader::new(&bytes)).map(|c| encode(&c));
            assert_eq!(again, Ok(bytes));
            decoded += 1;
        }
        assert!(decoded > 0, "a clock with another duration is honest");
    }

    #[test]
    fn out_of_order_timestamps_are_counted() {
        let (_, r, _, _) = Schema::sigma0();
        let mut clock = WindowClock::new(WindowPolicy::Time {
            duration: 10,
            ts_pos: 0,
        });
        clock.observe(0, &tup(r, [5i64, 0]));
        assert_eq!(clock.ts_regressions(), 0);
        clock.observe(1, &tup(r, [3i64, 0])); // regression: clamped to 5
        clock.observe(2, &tup(r, [5i64, 0])); // equal is NOT a regression
        clock.observe(3, &tup(r, [4i64, 0])); // regression again
        clock.observe(4, &tup(r, [9i64, 0]));
        assert_eq!(clock.ts_regressions(), 2);
        // Count windows never regress: there is no timestamp to clamp.
        let mut count = WindowClock::new(WindowPolicy::Count(3));
        count.observe(0, &tup(r, [9i64, 0]));
        count.observe(5, &tup(r, [1i64, 0]));
        assert_eq!(count.ts_regressions(), 0);
    }
}
