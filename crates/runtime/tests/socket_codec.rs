//! Property tests of the TCP socket frame codec
//! ([`tempered_runtime::lb::FrameReader`] / `encode_frame`).
//!
//! The codec is the trust boundary of the socket driver: whatever the
//! peer's TCP stack hands us — whole frames, single bytes, several
//! frames glued together, bit-flipped payloads — the reader must either
//! reproduce the sender's `LbWire` exactly or surface a `Damaged` frame
//! that fails verification (which the reliable layer then treats as a
//! loss: dropped unacked, retransmitted by the sender).

use proptest::prelude::*;
use proptest::BoxedStrategy;
use rand::Rng;
use tempered_core::ids::{RankId, TaskId};
use tempered_runtime::collective::LoadSummary;
use tempered_runtime::lb::transport::{Reliable, RxEvent, Transport};
use tempered_runtime::lb::{encode_frame, FrameReader, LbMsg, LbWire, TaskEntry};
use tempered_runtime::sim::Ctx;
use tempered_runtime::termination::TdMsg;
use tempered_runtime::RetryConfig;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Uniform choice among boxed strategies (the vendored proptest has no
/// `prop_oneof!`).
struct OneOf<T>(Vec<BoxedStrategy<T>>);

impl<T: std::fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut rand::rngs::SmallRng) -> Option<T> {
        let pick = rng.gen_range(0..self.0.len());
        self.0[pick].sample(rng)
    }
}

fn arb_rank() -> impl Strategy<Value = RankId> {
    (0u32..64).prop_map(RankId::new)
}

fn arb_task_entry() -> impl Strategy<Value = TaskEntry> {
    (any::<u64>(), 0.0f64..100.0, 0u32..64).prop_map(|(id, load, home)| TaskEntry {
        id: TaskId::new(id),
        load,
        home: RankId::new(home),
    })
}

fn arb_summary() -> impl Strategy<Value = LoadSummary> {
    (0.0f64..1e6, 0.0f64..1e4, 0u64..4096).prop_map(|(total, max, count)| LoadSummary {
        total,
        max,
        count,
    })
}

fn arb_msg() -> impl Strategy<Value = LbMsg> {
    OneOf(vec![
        (any::<u32>(), arb_summary())
            .prop_map(|(slot, summary)| LbMsg::ReduceUp { slot, summary })
            .boxed(),
        (any::<u32>(), arb_summary())
            .prop_map(|(slot, summary)| LbMsg::ReduceDown { slot, summary })
            .boxed(),
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec((arb_rank(), 0.0f64..100.0), 0..16),
        )
            .prop_map(
                |(epoch, round, pairs): (_, _, Vec<(RankId, f64)>)| LbMsg::Gossip {
                    epoch,
                    round,
                    pairs: pairs.into(),
                },
            )
            .boxed(),
        (any::<u64>(), prop::collection::vec(arb_task_entry(), 0..12))
            .prop_map(|(epoch, tasks)| LbMsg::Propose { epoch, tasks })
            .boxed(),
        (any::<u64>(), prop::collection::vec(arb_task_entry(), 0..12))
            .prop_map(|(epoch, rejected)| LbMsg::ProposeReply { epoch, rejected })
            .boxed(),
        (
            any::<u64>(),
            prop::collection::vec(any::<u64>().prop_map(TaskId::new), 0..24),
        )
            .prop_map(|(epoch, tasks)| LbMsg::Fetch { epoch, tasks })
            .boxed(),
        (
            any::<u64>(),
            prop::collection::vec(any::<u64>().prop_map(TaskId::new), 0..24),
        )
            .prop_map(|(epoch, tasks)| LbMsg::TaskData { epoch, tasks })
            .boxed(),
        (any::<u64>(), prop::collection::vec(arb_rank(), 0..16))
            .prop_map(|(base, dead)| LbMsg::View {
                base,
                dead: dead.into(),
            })
            .boxed(),
        Just(LbMsg::Knock).boxed(),
        (any::<u64>(), prop::collection::vec(arb_rank(), 0..16))
            .prop_map(|(base, dead)| LbMsg::Heal {
                base,
                dead: dead.into(),
            })
            .boxed(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(epoch, wave, sent, recv)| {
                LbMsg::Td(TdMsg::Token {
                    epoch,
                    wave,
                    sent,
                    recv,
                })
            })
            .boxed(),
    ])
}

fn arb_wire() -> impl Strategy<Value = LbWire> {
    OneOf(vec![
        arb_msg().prop_map(LbWire::Raw).boxed(),
        (1u64..1 << 48, arb_msg())
            .prop_map(|(seq, msg)| LbWire::Data { seq, msg })
            .boxed(),
        (1u64..1 << 48).prop_map(|seq| LbWire::Ack { seq }).boxed(),
        (arb_rank(), 1u64..1 << 48)
            .prop_map(|(to, seq)| LbWire::RetryTimer { to, seq })
            .boxed(),
        any::<u64>()
            .prop_map(|stage_seq| LbWire::StageTimer { stage_seq })
            .boxed(),
        Just(LbWire::Heartbeat).boxed(),
        Just(LbWire::HeartbeatTimer).boxed(),
        any::<u64>()
            .prop_map(|park_seq| LbWire::ParkTimer { park_seq })
            .boxed(),
    ])
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// A whole frame pushed at once comes back as the identical wire
    /// value, leaving no residue in the buffer.
    #[test]
    fn frame_roundtrips(wire in arb_wire()) {
        let mut reader = FrameReader::new();
        reader.push(&encode_frame(&wire));
        let got = reader.next_frame();
        prop_assert_eq!(got, Some(wire));
        prop_assert!(reader.next_frame().is_none());
        prop_assert_eq!(reader.pending(), 0);
    }

    /// TCP is a byte stream: several frames glued together and fed to
    /// the reader in arbitrary fixed-size chunks (down to one byte)
    /// reassemble into exactly the sent sequence.
    #[test]
    fn partial_reads_reassemble(
        wires in prop::collection::vec(arb_wire(), 1..5),
        chunk in 1usize..7,
    ) {
        let stream: Vec<u8> = wires.iter().flat_map(encode_frame).collect();
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.push(piece);
            while let Some(w) = reader.next_frame() {
                got.push(w);
            }
        }
        prop_assert_eq!(got, wires);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// One socket read can hold hundreds of small frames: many whole
    /// frames in a single push pop in order and leave nothing behind.
    #[test]
    fn many_frames_in_one_push_pop_in_order(
        wires in prop::collection::vec(arb_wire(), 1..200),
    ) {
        let stream: Vec<u8> = wires.iter().flat_map(encode_frame).collect();
        let mut reader = FrameReader::new();
        reader.push(&stream);
        let got: Vec<LbWire> = std::iter::from_fn(|| reader.next_frame()).collect();
        prop_assert_eq!(got, wires);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// Any single corrupted payload byte is caught by the CRC: the
    /// frame surfaces as `Damaged` (failing verification, so the rank
    /// drops it unacked), and the reader resynchronizes cleanly on the
    /// next frame.
    #[test]
    fn corrupt_payload_byte_is_caught_and_resyncs(
        wire in arb_wire(),
        follow in arb_wire(),
        pick in any::<prop::sample::Index>(),
        mask in (0u8..255).prop_map(|m| m + 1),
    ) {
        let mut bytes = encode_frame(&wire);
        // Corrupt strictly inside the payload region (after the 8-byte
        // len+crc header) — header corruption is a framing error, not a
        // checksum error, and is exercised elsewhere.
        let at = 8 + pick.index(bytes.len() - 8);
        bytes[at] ^= mask;
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        reader.push(&encode_frame(&follow));
        let first = reader.next_frame().expect("a frame must surface");
        prop_assert!(
            matches!(first, LbWire::Damaged { .. }) && !first.verify(),
            "single-byte corruption must surface as a failed check, got {:?}",
            first
        );
        let second = reader.next_frame();
        prop_assert_eq!(second, Some(follow));
        prop_assert!(reader.next_frame().is_none());
    }
}

// ---------------------------------------------------------------------------
// The loss-masking contract, end to end
// ---------------------------------------------------------------------------

/// A corrupted `Data` frame is dropped *unacked* — the receiver sends
/// nothing back — so the sender's retry timer retransmits and the clean
/// copy is delivered and acknowledged. Corruption is masked exactly
/// like loss, which is why the socket driver can map CRC failures to
/// `Damaged` and move on.
#[test]
fn corrupted_data_frames_are_dropped_unacked_and_redelivered() {
    let retry = RetryConfig::default();
    let me = RankId::new(0);
    let peer = RankId::new(1);
    let mut sender = Reliable::new(retry, 1000);
    let mut receiver = Reliable::new(retry, 1000);
    let msg = LbMsg::Gossip {
        epoch: 1,
        round: 1,
        pairs: vec![(me, 2.0)].into(),
    };

    // Each step runs against a detached context; what the transport
    // wrote comes back as (frames, timers).
    fn step<R>(
        me: RankId,
        f: impl FnOnce(&mut Ctx<'_, LbWire>) -> R,
    ) -> (R, Vec<LbWire>, Vec<LbWire>) {
        let mut outbox = Vec::new();
        let mut ctx = Ctx::detached(me, 0.0, &mut outbox);
        let result = f(&mut ctx);
        let timers = ctx.take_timers().into_iter().map(|(_, w)| w).collect();
        (
            result,
            outbox.into_iter().map(|(_, w, _)| w).collect(),
            timers,
        )
    }

    let ((), frames, timers) = step(me, |ctx| sender.send(ctx, peer, msg.clone()));
    let [data] = &frames[..] else {
        panic!("reliable send emits one Data frame, got {frames:?}");
    };
    let [retry_timer] = &timers[..] else {
        panic!("reliable send arms one retry timer, got {timers:?}");
    };

    // The frame arrives corrupted: dropped, and — crucially — no ack.
    let (event, frames, _) = step(peer, |ctx| receiver.receive(ctx, me, data.damaged()));
    assert!(matches!(event, RxEvent::Corrupt { from } if from == me));
    assert!(
        frames.is_empty(),
        "a corrupt frame must be dropped unacked, got {frames:?}"
    );

    // The sender's retry timer fires and retransmits the clean copy.
    let (event, resent, _) = step(me, |ctx| sender.receive(ctx, me, retry_timer.clone()));
    assert!(matches!(event, RxEvent::Retransmitted { to, .. } if to == peer));
    assert_eq!(
        resent,
        std::slice::from_ref(data),
        "the resend is the identical Data frame"
    );

    // The clean copy delivers and is acked; the ack settles the sender.
    let (event, acks, _) = step(peer, |ctx| receiver.receive(ctx, me, data.clone()));
    match event {
        RxEvent::Deliver(delivered) => assert_eq!(delivered, msg),
        other => panic!("clean resend must deliver, got {other:?}"),
    }
    let [ack] = &acks[..] else {
        panic!("delivery acks once, got {acks:?}");
    };
    let (event, _, _) = step(me, |ctx| sender.receive(ctx, peer, ack.clone()));
    assert!(matches!(event, RxEvent::Nothing));

    assert_eq!(sender.stats().retransmitted, 1);
    assert_eq!(sender.stats().acked, 1);
    assert_eq!(receiver.stats().duplicates_suppressed, 0);
}
