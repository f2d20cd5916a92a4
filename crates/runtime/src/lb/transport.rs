//! Stacked delivery layers between the [`super::engine::GossipEngine`]
//! and a driver.
//!
//! A [`Transport`] turns protocol messages ([`LbMsg`]) into wire frames
//! ([`LbWire`]) on the way out and wire frames back into deliverable
//! protocol messages on the way in. Implementations are sans-I/O like the
//! engine itself: they emit [`TxAction`]s (frames to put on the network,
//! timers to arm) and [`RxEvent`]s (deliver, duplicate, retransmitted,
//! gave-up) and never touch a socket, channel, or clock. Drivers
//! interpret the actions; the engine never sees the difference.
//!
//! The stack composes by decoration:
//!
//! ```text
//! Raw                      best-effort frames, zero overhead
//! Reliable(RetryConfig)    at-least-once: seq numbers, acks, retransmit
//!                          with exponential backoff, receiver dedup
//! ```
//!
//! Faults are not a transport: every driver injects them network-side,
//! *below* the reliability layer that must mask them, through the one
//! [`crate::emulator::LinkEmulator`].

use super::messages::{payload_bytes, LbMsg, LbWire, SEQ_OVERHEAD_BYTES};
use crate::reliable::{ReliableChannel, ReliableStats, RetryAction, RetryConfig, SeqSetView};
use tempered_core::ids::RankId;

/// An outgoing effect requested by a transport.
#[derive(Clone, Debug)]
pub enum TxAction {
    /// Put `wire` on the network to `to`, modeled at `bytes`.
    Wire {
        /// Destination rank.
        to: RankId,
        /// The frame.
        wire: LbWire,
        /// Modeled size (framing + task payloads).
        bytes: usize,
    },
    /// Deliver `wire` back to *this* rank after `delay` seconds.
    Timer {
        /// Relative delay in seconds.
        delay: f64,
        /// The self-message (a retry or stage timer).
        wire: LbWire,
    },
}

/// What an incoming wire frame amounted to.
#[derive(Clone, Debug)]
pub enum RxEvent {
    /// A fresh protocol message for the engine.
    Deliver(LbMsg),
    /// A retransmission the dedup layer suppressed.
    Duplicate {
        /// Original sender.
        from: RankId,
        /// Suppressed sequence number.
        seq: u64,
    },
    /// A retry timer fired and the frame was retransmitted.
    Retransmitted {
        /// Destination of the resend.
        to: RankId,
        /// Its sequence number.
        seq: u64,
    },
    /// The retry budget for `to` is exhausted. The rank decides what the
    /// exhaustion *means*: peer death (degrade or declare dead) or — when
    /// membership still vouches for the peer — a bad link, in which case
    /// it hands `(to, seq, msg)` back to [`Transport::reinstate`].
    GaveUp {
        /// Unreachable destination.
        to: RankId,
        /// Sequence number of the abandoned message.
        seq: u64,
        /// The abandoned payload.
        msg: LbMsg,
    },
    /// An incoming frame failed its integrity check (in-flight bit
    /// corruption, [`crate::fault::LinkFaultKind::Corrupt`]) and was
    /// dropped undelivered. No ack is sent, so a reliable sender
    /// retransmits — corruption is masked exactly like loss.
    Corrupt {
        /// The rank whose frame arrived damaged.
        from: RankId,
    },
    /// Internal bookkeeping only (e.g. an ack); nothing to deliver.
    Nothing,
}

/// A delivery layer: protocol messages down to wire frames and back.
pub trait Transport: std::fmt::Debug + Send {
    /// Frame `msg` for transmission to `to`.
    fn send(&mut self, to: RankId, msg: LbMsg, out: &mut Vec<TxAction>);

    /// Interpret an incoming frame (network or self-timer).
    fn receive(&mut self, from: RankId, wire: LbWire, out: &mut Vec<TxAction>) -> RxEvent;

    /// Delivery-layer statistics (all zero for best-effort transports).
    fn stats(&self) -> ReliableStats;

    /// Fence a rank declared dead: drop any pending retransmissions to
    /// it, so orphaned retry timers settle silently instead of burning
    /// the budget (and eventually degrading *this* rank) on a corpse.
    /// No-op for best-effort transports.
    fn fence(&mut self, _dead: RankId) {}

    /// Revive a message previously reported via [`RxEvent::GaveUp`]:
    /// re-arm it with a fresh retry budget and retransmit. Used when the
    /// rank attributes the give-up to a degraded link rather than a dead
    /// peer (the membership view still vouches for the destination).
    /// No-op for best-effort transports, which never give up.
    fn reinstate(&mut self, _to: RankId, _seq: u64, _msg: LbMsg, _out: &mut Vec<TxAction>) {}

    /// End-of-run snapshot of the delivery ledgers for the audit layer:
    /// which sequence numbers each peer acknowledged to this rank, and
    /// which this rank has seen from each peer. `None` for best-effort
    /// transports, which keep no ledger.
    fn delivery_audit(&self) -> Option<DeliveryAudit> {
        None
    }
}

/// Per-rank delivery ledgers snapshotted at the end of a run, used by
/// `crate::audit` to check that nothing a peer acknowledged was lost:
/// for every pair `(a, b)`, `acked` on `a` for peer `b` must be a
/// subset of `seen` on `b` for peer `a`.
#[derive(Clone, Debug, Default)]
pub struct DeliveryAudit {
    /// For each peer (rank-sorted): seqs that peer acknowledged to us.
    pub acked: Vec<(RankId, SeqSetView)>,
    /// For each peer (rank-sorted): seqs we have accepted from them.
    pub seen: Vec<(RankId, SeqSetView)>,
}

/// Best-effort transport: frames pass through untouched.
#[derive(Debug)]
pub struct Raw {
    bytes_per_task: usize,
}

impl Raw {
    /// Create with the modeled task-data payload size.
    pub fn new(bytes_per_task: usize) -> Self {
        Raw { bytes_per_task }
    }
}

impl Transport for Raw {
    fn send(&mut self, to: RankId, msg: LbMsg, out: &mut Vec<TxAction>) {
        let bytes = payload_bytes(&msg, self.bytes_per_task);
        out.push(TxAction::Wire {
            to,
            wire: LbWire::Raw(msg),
            bytes,
        });
    }

    fn receive(&mut self, from: RankId, wire: LbWire, _out: &mut Vec<TxAction>) -> RxEvent {
        match wire {
            LbWire::Raw(msg) | LbWire::Data { msg, .. } => RxEvent::Deliver(msg),
            dam @ LbWire::Damaged { .. } => {
                debug_assert!(!dam.verify(), "damaged frames carry a mismatched crc");
                RxEvent::Corrupt { from }
            }
            LbWire::Ack { .. }
            | LbWire::RetryTimer { .. }
            | LbWire::StageTimer { .. }
            | LbWire::Heartbeat
            | LbWire::HeartbeatTimer
            | LbWire::ParkTimer { .. } => RxEvent::Nothing,
        }
    }

    fn stats(&self) -> ReliableStats {
        ReliableStats::default()
    }
}

/// At-least-once delivery with exactly-once processing, stacked over the
/// raw network: per-link sequence numbers, acks, retransmission with
/// exponential backoff, and receiver-side dedup.
#[derive(Debug)]
pub struct Reliable {
    channel: ReliableChannel<LbMsg>,
    bytes_per_task: usize,
}

impl Reliable {
    /// Create with a retry policy and the modeled task-data payload size.
    pub fn new(retry: RetryConfig, bytes_per_task: usize) -> Self {
        Reliable {
            channel: ReliableChannel::new(retry),
            bytes_per_task,
        }
    }

    /// Like [`Reliable::new`], but with retransmission backoff jittered
    /// from the given seeded stream (see
    /// [`ReliableChannel::with_jitter`]); the schedule is deterministic
    /// per `(seed, rank)`, but no longer aligned across ranks.
    pub fn jittered(retry: RetryConfig, bytes_per_task: usize, rng: rand::rngs::SmallRng) -> Self {
        Reliable {
            channel: ReliableChannel::with_jitter(retry, rng),
            bytes_per_task,
        }
    }
}

impl Transport for Reliable {
    fn send(&mut self, to: RankId, msg: LbMsg, out: &mut Vec<TxAction>) {
        let bytes = payload_bytes(&msg, self.bytes_per_task) + SEQ_OVERHEAD_BYTES;
        let (seq, delay) = self.channel.send(to, msg.clone());
        out.push(TxAction::Wire {
            to,
            wire: LbWire::Data { seq, msg },
            bytes,
        });
        out.push(TxAction::Timer {
            delay,
            wire: LbWire::RetryTimer { to, seq },
        });
    }

    fn receive(&mut self, from: RankId, wire: LbWire, out: &mut Vec<TxAction>) -> RxEvent {
        match wire {
            // Tolerated for mixed stacks; a raw frame has no seq to dedup.
            LbWire::Raw(msg) => RxEvent::Deliver(msg),
            LbWire::Data { seq, msg } => {
                // Always ack, even duplicates: the ack for the original
                // may have been lost.
                out.push(TxAction::Wire {
                    to: from,
                    wire: LbWire::Ack { seq },
                    bytes: SEQ_OVERHEAD_BYTES,
                });
                if self.channel.accept(from, seq) {
                    RxEvent::Deliver(msg)
                } else {
                    RxEvent::Duplicate { from, seq }
                }
            }
            LbWire::Ack { seq } => {
                self.channel.on_ack(from, seq);
                RxEvent::Nothing
            }
            LbWire::RetryTimer { to, seq } => match self.channel.on_retry_timer(to, seq) {
                RetryAction::Resend {
                    to,
                    seq,
                    msg,
                    next_delay,
                } => {
                    let bytes = payload_bytes(&msg, self.bytes_per_task) + SEQ_OVERHEAD_BYTES;
                    out.push(TxAction::Wire {
                        to,
                        wire: LbWire::Data { seq, msg },
                        bytes,
                    });
                    out.push(TxAction::Timer {
                        delay: next_delay,
                        wire: LbWire::RetryTimer { to, seq },
                    });
                    RxEvent::Retransmitted { to, seq }
                }
                RetryAction::GaveUp { to, msg } => RxEvent::GaveUp { to, seq, msg },
                RetryAction::Settled => RxEvent::Nothing,
            },
            // A corrupted data frame is dropped without an ack: the
            // sender's retry timer re-delivers the intact original.
            dam @ LbWire::Damaged { .. } => {
                debug_assert!(!dam.verify(), "damaged frames carry a mismatched crc");
                RxEvent::Corrupt { from }
            }
            LbWire::StageTimer { .. }
            | LbWire::Heartbeat
            | LbWire::HeartbeatTimer
            | LbWire::ParkTimer { .. } => RxEvent::Nothing,
        }
    }

    fn stats(&self) -> ReliableStats {
        self.channel.stats
    }

    fn fence(&mut self, dead: RankId) {
        self.channel.forget_peer(dead);
    }

    fn reinstate(&mut self, to: RankId, seq: u64, msg: LbMsg, out: &mut Vec<TxAction>) {
        let delay = self.channel.reinstate(to, seq, msg.clone());
        let bytes = payload_bytes(&msg, self.bytes_per_task) + SEQ_OVERHEAD_BYTES;
        out.push(TxAction::Wire {
            to,
            wire: LbWire::Data { seq, msg },
            bytes,
        });
        out.push(TxAction::Timer {
            delay,
            wire: LbWire::RetryTimer { to, seq },
        });
    }

    fn delivery_audit(&self) -> Option<DeliveryAudit> {
        Some(DeliveryAudit {
            acked: self.channel.acked_view(),
            seen: self.channel.seen_view(),
        })
    }
}

/// Build the transport stack an [`super::LbProtocolConfig`] denotes:
/// [`Raw`] by default, [`Reliable`] when hardened. A hardened stack with
/// a nonzero [`RetryConfig::jitter`] draws its backoff jitter from the
/// dedicated `(b"retry", rank)` stream of `factory`, so retry timing is
/// decorrelated across ranks yet fully seed-deterministic.
pub fn transport_for(
    cfg: &super::LbProtocolConfig,
    me: RankId,
    factory: &tempered_core::rng::RngFactory,
) -> Box<dyn Transport> {
    match cfg.reliability {
        Some(retry) if retry.jitter > 0.0 => {
            let rng = factory.rank_stream(b"retry", me.as_u32() as u64, 0);
            Box::new(Reliable::jittered(retry, cfg.bytes_per_task, rng))
        }
        Some(retry) => Box::new(Reliable::new(retry, cfg.bytes_per_task)),
        None => Box::new(Raw::new(cfg.bytes_per_task)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gossip(epoch: u64) -> LbMsg {
        LbMsg::Gossip {
            epoch,
            round: 1,
            pairs: vec![].into(),
        }
    }

    #[test]
    fn raw_round_trips_without_overhead() {
        let mut t = Raw::new(1000);
        let mut out = Vec::new();
        t.send(RankId::new(1), gossip(1), &mut out);
        assert_eq!(out.len(), 1);
        let TxAction::Wire { to, wire, bytes } = out.pop().unwrap() else {
            panic!("raw send must produce a wire frame");
        };
        assert_eq!(to, RankId::new(1));
        assert_eq!(bytes, gossip(1).wire_bytes());
        let mut t2 = Raw::new(1000);
        assert!(matches!(
            t2.receive(RankId::new(0), wire, &mut Vec::new()),
            RxEvent::Deliver(LbMsg::Gossip { epoch: 1, .. })
        ));
    }

    #[test]
    fn raw_charges_task_payloads() {
        let mut t = Raw::new(1000);
        let msg = LbMsg::TaskData {
            epoch: 9,
            tasks: vec![tempered_core::ids::TaskId::new(1); 3],
        };
        let mut out = Vec::new();
        t.send(RankId::new(1), msg.clone(), &mut out);
        let TxAction::Wire { bytes, .. } = &out[0] else {
            panic!("expected wire frame");
        };
        assert_eq!(*bytes, msg.wire_bytes() + 3 * 1000);
    }

    #[test]
    fn reliable_frames_ack_and_dedup() {
        let mut sender = Reliable::new(RetryConfig::default(), 0);
        let mut receiver = Reliable::new(RetryConfig::default(), 0);
        let mut out = Vec::new();
        sender.send(RankId::new(1), gossip(1), &mut out);
        assert_eq!(out.len(), 2, "frame + retry timer");
        let TxAction::Wire { wire, bytes, .. } = out.remove(0) else {
            panic!("first action must be the data frame");
        };
        assert_eq!(bytes, gossip(1).wire_bytes() + SEQ_OVERHEAD_BYTES);
        assert!(matches!(out[0], TxAction::Timer { .. }));

        // First delivery: acked and delivered.
        let mut rx_out = Vec::new();
        let ev = receiver.receive(RankId::new(0), wire.clone(), &mut rx_out);
        assert!(matches!(ev, RxEvent::Deliver(_)));
        assert!(
            matches!(
                &rx_out[0],
                TxAction::Wire {
                    wire: LbWire::Ack { .. },
                    ..
                }
            ),
            "data frames are always acked"
        );

        // Redelivery: still acked, but suppressed.
        let mut rx_out2 = Vec::new();
        let ev2 = receiver.receive(RankId::new(0), wire, &mut rx_out2);
        assert!(matches!(ev2, RxEvent::Duplicate { .. }));
        assert!(!rx_out2.is_empty(), "duplicates re-ack");
        assert_eq!(receiver.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn reliable_retry_then_settle() {
        let mut sender = Reliable::new(RetryConfig::default(), 0);
        let mut out = Vec::new();
        sender.send(RankId::new(1), gossip(1), &mut out);
        let TxAction::Timer { wire: timer, .. } = out.pop().unwrap() else {
            panic!("second action must be the retry timer");
        };

        // Unacked: the timer retransmits and re-arms.
        let mut rt_out = Vec::new();
        let ev = sender.receive(RankId::new(0), timer.clone(), &mut rt_out);
        assert!(matches!(ev, RxEvent::Retransmitted { .. }));
        assert_eq!(rt_out.len(), 2);

        // Acked: the next timer settles silently.
        let mut ack_out = Vec::new();
        sender.receive(RankId::new(1), LbWire::Ack { seq: 1 }, &mut ack_out);
        let ev = sender.receive(RankId::new(0), timer, &mut Vec::new());
        assert!(matches!(ev, RxEvent::Nothing));
        assert_eq!(sender.stats().retransmitted, 1);
        assert_eq!(sender.stats().acked, 1);
    }

    #[test]
    fn reliable_gives_up_after_budget() {
        let retry = RetryConfig {
            max_retries: 2,
            ..RetryConfig::default()
        };
        let mut sender = Reliable::new(retry, 0);
        let mut out = Vec::new();
        sender.send(RankId::new(1), gossip(1), &mut out);
        let TxAction::Timer { wire: timer, .. } = out.pop().unwrap() else {
            panic!("expected retry timer");
        };
        let mut gave_up = false;
        for _ in 0..4 {
            match sender.receive(RankId::new(0), timer.clone(), &mut Vec::new()) {
                RxEvent::GaveUp { to, seq, msg } => {
                    assert_eq!(to, RankId::new(1));
                    assert_eq!(seq, 1);
                    assert!(matches!(msg, LbMsg::Gossip { epoch: 1, .. }));
                    gave_up = true;
                    break;
                }
                RxEvent::Retransmitted { .. } => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(gave_up, "retry budget must eventually run out");
    }

    #[test]
    fn reinstate_retransmits_with_a_fresh_budget() {
        let retry = RetryConfig {
            max_retries: 1,
            jitter: 0.0,
            ..RetryConfig::default()
        };
        let mut sender = Reliable::new(retry, 0);
        let mut out = Vec::new();
        sender.send(RankId::new(1), gossip(1), &mut out);
        let TxAction::Timer { wire: timer, .. } = out.pop().unwrap() else {
            panic!("expected retry timer");
        };
        // Exhaust the budget.
        let mut gave = None;
        for _ in 0..3 {
            if let RxEvent::GaveUp { to, seq, msg } =
                sender.receive(RankId::new(0), timer.clone(), &mut Vec::new())
            {
                gave = Some((to, seq, msg));
                break;
            }
        }
        let (to, seq, msg) = gave.expect("budget must run out");
        // Link-suspect verdict: revive. The transport retransmits the
        // same (to, seq) frame and re-arms the timer.
        let mut out = Vec::new();
        sender.reinstate(to, seq, msg, &mut out);
        assert_eq!(out.len(), 2, "frame + retry timer");
        assert!(matches!(
            &out[0],
            TxAction::Wire {
                wire: LbWire::Data { seq: 1, .. },
                ..
            }
        ));
        assert_eq!(sender.stats().revived, 1);
        // An ack now settles it like any first-class send.
        sender.receive(RankId::new(1), LbWire::Ack { seq }, &mut Vec::new());
        assert!(matches!(
            sender.receive(RankId::new(0), timer, &mut Vec::new()),
            RxEvent::Nothing
        ));
    }

    #[test]
    fn corrupted_frames_are_dropped_then_masked_by_retransmission() {
        let mut sender = Reliable::new(RetryConfig::default(), 0);
        let mut receiver = Reliable::new(RetryConfig::default(), 0);
        let mut out = Vec::new();
        sender.send(RankId::new(1), gossip(1), &mut out);
        let TxAction::Wire { wire, .. } = out.remove(0) else {
            panic!("expected data frame");
        };
        let TxAction::Timer { wire: timer, .. } = out.pop().unwrap() else {
            panic!("expected retry timer");
        };

        // The frame arrives bit-flipped: dropped, and crucially NOT acked.
        let mut rx_out = Vec::new();
        let ev = receiver.receive(RankId::new(0), wire.damaged(), &mut rx_out);
        assert!(matches!(ev, RxEvent::Corrupt { from } if from == RankId::new(0)));
        assert!(rx_out.is_empty(), "corrupt frames must not be acked");

        // The sender's retry timer re-delivers the intact original.
        let ev = sender.receive(RankId::new(0), timer, &mut Vec::new());
        assert!(matches!(ev, RxEvent::Retransmitted { .. }));
        let ev = receiver.receive(RankId::new(0), wire, &mut Vec::new());
        assert!(matches!(ev, RxEvent::Deliver(LbMsg::Gossip { .. })));
    }
}
