//! Stacked delivery layers between the [`super::engine::GossipEngine`]
//! and a driver.
//!
//! A [`Transport`] turns protocol messages ([`LbMsg`]) into wire frames
//! ([`LbWire`]) on the way out and wire frames back into deliverable
//! protocol messages on the way in. Implementations are sans-I/O like the
//! engine itself: frames to put on the network and timers to arm are
//! written to the driver's [`Ctx`] ([`Ctx::send`], [`Ctx::schedule`]),
//! what an incoming frame amounted to comes back as an [`RxEvent`]
//! (deliver, duplicate, retransmitted, gave-up), and no socket, channel,
//! or clock is ever touched. The engine never sees the difference.
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
use crate::sim::Ctx;
use tempered_core::ids::RankId;

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
    fn send(&mut self, ctx: &mut Ctx<'_, LbWire>, to: RankId, msg: LbMsg);

    /// Interpret an incoming frame (network or self-timer); any frame or
    /// timer it calls for (an ack, a retransmission) goes to `ctx`.
    fn receive(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, wire: LbWire) -> RxEvent;

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
    fn reinstate(&mut self, _ctx: &mut Ctx<'_, LbWire>, _to: RankId, _seq: u64, _msg: LbMsg) {}

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
    fn send(&mut self, ctx: &mut Ctx<'_, LbWire>, to: RankId, msg: LbMsg) {
        let bytes = payload_bytes(&msg, self.bytes_per_task);
        ctx.send(to, LbWire::Raw(msg), bytes);
    }

    fn receive(&mut self, _ctx: &mut Ctx<'_, LbWire>, from: RankId, wire: LbWire) -> RxEvent {
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

    /// Put `(to, seq, msg)` on the network and arm its retry timer: the
    /// one shape a first send, a retransmission and a reinstatement share.
    fn transmit(&self, ctx: &mut Ctx<'_, LbWire>, to: RankId, seq: u64, msg: LbMsg, delay: f64) {
        let bytes = payload_bytes(&msg, self.bytes_per_task) + SEQ_OVERHEAD_BYTES;
        ctx.send(to, LbWire::Data { seq, msg }, bytes);
        ctx.schedule(delay, LbWire::RetryTimer { to, seq });
    }
}

impl Transport for Reliable {
    fn send(&mut self, ctx: &mut Ctx<'_, LbWire>, to: RankId, msg: LbMsg) {
        let (seq, delay) = self.channel.send(to, msg.clone());
        self.transmit(ctx, to, seq, msg, delay);
    }

    fn receive(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, wire: LbWire) -> RxEvent {
        match wire {
            // Tolerated for mixed stacks; a raw frame has no seq to dedup.
            LbWire::Raw(msg) => RxEvent::Deliver(msg),
            LbWire::Data { seq, msg } => {
                // Always ack, even duplicates: the ack for the original
                // may have been lost.
                ctx.send(from, LbWire::Ack { seq }, SEQ_OVERHEAD_BYTES);
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
                    self.transmit(ctx, to, seq, msg, next_delay);
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

    fn reinstate(&mut self, ctx: &mut Ctx<'_, LbWire>, to: RankId, seq: u64, msg: LbMsg) {
        let delay = self.channel.reinstate(to, seq, msg.clone());
        self.transmit(ctx, to, seq, msg, delay);
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

    type Frames = Vec<(RankId, LbWire, usize)>;
    type Timers = Vec<(f64, LbWire)>;

    /// Run `f` against a [`Ctx::detached`] and hand back what it wrote:
    /// frames as `(to, wire, bytes)` and timers as `(delay, wire)`, each
    /// in call order (the two are separate queues in every driver).
    fn on_ctx<R>(f: impl FnOnce(&mut Ctx<'_, LbWire>) -> R) -> (R, Frames, Timers) {
        let mut frames = Vec::new();
        let mut ctx = Ctx::detached(RankId::new(0), 0.0, &mut frames);
        let result = f(&mut ctx);
        let timers = ctx.take_timers();
        (result, frames, timers)
    }

    fn gossip(epoch: u64) -> LbMsg {
        LbMsg::Gossip {
            epoch,
            round: 1,
            pairs: vec![].into(),
        }
    }

    /// One reliable send of `gossip(1)` to rank 1: its data frame and its
    /// retry timer.
    fn send_one(sender: &mut Reliable) -> (LbWire, LbWire) {
        let ((), mut frames, mut timers) =
            on_ctx(|ctx| sender.send(ctx, RankId::new(1), gossip(1)));
        assert_eq!((frames.len(), timers.len()), (1, 1), "frame + retry timer");
        let (to, wire, bytes) = frames.remove(0);
        assert_eq!(to, RankId::new(1));
        assert!(matches!(wire, LbWire::Data { seq: 1, .. }));
        assert_eq!(bytes, gossip(1).wire_bytes() + SEQ_OVERHEAD_BYTES);
        let (delay, timer) = timers.remove(0);
        assert!(delay > 0.0);
        assert!(matches!(timer, LbWire::RetryTimer { to, seq: 1 } if to == RankId::new(1)));
        (wire, timer)
    }

    /// Fire `timer` until the retry budget runs out; the give-up itself
    /// must write nothing.
    fn exhaust(sender: &mut Reliable, timer: &LbWire) -> (RankId, u64, LbMsg) {
        for _ in 0..4 {
            let (ev, frames, timers) =
                on_ctx(|ctx| sender.receive(ctx, RankId::new(0), timer.clone()));
            match ev {
                RxEvent::GaveUp { to, seq, msg } => {
                    assert!(
                        frames.is_empty() && timers.is_empty(),
                        "a give-up is silent"
                    );
                    return (to, seq, msg);
                }
                RxEvent::Retransmitted { .. } => {
                    assert_eq!((frames.len(), timers.len()), (1, 1), "resend + re-arm");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        panic!("retry budget must eventually run out");
    }

    #[test]
    fn raw_round_trips_without_overhead() {
        let mut t = Raw::new(1000);
        let ((), mut frames, timers) = on_ctx(|ctx| t.send(ctx, RankId::new(1), gossip(1)));
        assert!(timers.is_empty(), "best-effort frames arm nothing");
        assert_eq!(frames.len(), 1);
        let (to, wire, bytes) = frames.pop().unwrap();
        assert_eq!(to, RankId::new(1));
        assert_eq!(bytes, gossip(1).wire_bytes());
        let mut t2 = Raw::new(1000);
        let (ev, frames, _) = on_ctx(|ctx| t2.receive(ctx, RankId::new(0), wire));
        assert!(matches!(
            ev,
            RxEvent::Deliver(LbMsg::Gossip { epoch: 1, .. })
        ));
        assert!(frames.is_empty(), "raw frames are never acked");
    }

    #[test]
    fn raw_charges_task_payloads() {
        let mut t = Raw::new(1000);
        let msg = LbMsg::TaskData {
            epoch: 9,
            tasks: vec![tempered_core::ids::TaskId::new(1); 3],
        };
        let ((), frames, _) = on_ctx(|ctx| t.send(ctx, RankId::new(1), msg.clone()));
        assert_eq!(frames[0].2, msg.wire_bytes() + 3 * 1000);
    }

    #[test]
    fn reliable_frames_ack_and_dedup() {
        let mut sender = Reliable::new(RetryConfig::default(), 0);
        let mut receiver = Reliable::new(RetryConfig::default(), 0);
        let (wire, _) = send_one(&mut sender);

        // First delivery: acked and delivered.
        let (ev, frames, timers) =
            on_ctx(|ctx| receiver.receive(ctx, RankId::new(0), wire.clone()));
        assert!(matches!(ev, RxEvent::Deliver(_)));
        assert!(timers.is_empty());
        assert!(
            matches!(frames[..], [(to, LbWire::Ack { seq: 1 }, SEQ_OVERHEAD_BYTES)] if to == RankId::new(0)),
            "data frames are always acked: {frames:?}"
        );

        // Redelivery: acked a second time, but suppressed.
        let (ev, frames, _) = on_ctx(|ctx| receiver.receive(ctx, RankId::new(0), wire));
        assert!(matches!(ev, RxEvent::Duplicate { seq: 1, .. }));
        assert!(
            matches!(frames[..], [(_, LbWire::Ack { seq: 1 }, _)]),
            "duplicates re-ack: {frames:?}"
        );
        assert_eq!(receiver.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn reliable_retry_then_settle() {
        let mut sender = Reliable::new(RetryConfig::default(), 0);
        let (_, timer) = send_one(&mut sender);

        // Unacked: the timer retransmits and re-arms.
        let (ev, frames, timers) = on_ctx(|ctx| sender.receive(ctx, RankId::new(0), timer.clone()));
        assert!(matches!(ev, RxEvent::Retransmitted { .. }));
        assert!(matches!(frames[..], [(_, LbWire::Data { seq: 1, .. }, _)]));
        assert!(matches!(
            timers[..],
            [(_, LbWire::RetryTimer { seq: 1, .. })]
        ));

        // Acked: the next timer settles silently.
        on_ctx(|ctx| sender.receive(ctx, RankId::new(1), LbWire::Ack { seq: 1 }));
        let (ev, frames, timers) = on_ctx(|ctx| sender.receive(ctx, RankId::new(0), timer));
        assert!(matches!(ev, RxEvent::Nothing));
        assert!(frames.is_empty() && timers.is_empty());
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
        let (_, timer) = send_one(&mut sender);
        let (to, seq, msg) = exhaust(&mut sender, &timer);
        assert_eq!(to, RankId::new(1));
        assert_eq!(seq, 1);
        assert!(matches!(msg, LbMsg::Gossip { epoch: 1, .. }));
    }

    #[test]
    fn reinstate_retransmits_with_a_fresh_budget() {
        let retry = RetryConfig {
            max_retries: 1,
            jitter: 0.0,
            ..RetryConfig::default()
        };
        let mut sender = Reliable::new(retry, 0);
        let (_, timer) = send_one(&mut sender);
        let (to, seq, msg) = exhaust(&mut sender, &timer);
        // Link-suspect verdict: revive. The transport retransmits the
        // same (to, seq) frame and re-arms the timer.
        let ((), frames, timers) = on_ctx(|ctx| sender.reinstate(ctx, to, seq, msg));
        assert!(matches!(frames[..], [(_, LbWire::Data { seq: 1, .. }, _)]));
        assert!(matches!(
            timers[..],
            [(_, LbWire::RetryTimer { seq: 1, .. })]
        ));
        assert_eq!(sender.stats().revived, 1);
        // An ack now settles it like any first-class send.
        on_ctx(|ctx| sender.receive(ctx, RankId::new(1), LbWire::Ack { seq }));
        let (ev, _, _) = on_ctx(|ctx| sender.receive(ctx, RankId::new(0), timer));
        assert!(matches!(ev, RxEvent::Nothing));
    }

    #[test]
    fn corrupted_frames_are_dropped_then_masked_by_retransmission() {
        let mut sender = Reliable::new(RetryConfig::default(), 0);
        let mut receiver = Reliable::new(RetryConfig::default(), 0);
        let (wire, timer) = send_one(&mut sender);

        // The frame arrives bit-flipped: dropped, and crucially NOT acked.
        let (ev, frames, _) = on_ctx(|ctx| receiver.receive(ctx, RankId::new(0), wire.damaged()));
        assert!(matches!(ev, RxEvent::Corrupt { from } if from == RankId::new(0)));
        assert!(frames.is_empty(), "corrupt frames must not be acked");

        // The sender's retry timer re-delivers the intact original.
        let (ev, _, _) = on_ctx(|ctx| sender.receive(ctx, RankId::new(0), timer));
        assert!(matches!(ev, RxEvent::Retransmitted { .. }));
        let (ev, _, _) = on_ctx(|ctx| receiver.receive(ctx, RankId::new(0), wire));
        assert!(matches!(ev, RxEvent::Deliver(LbMsg::Gossip { .. })));
    }
}
