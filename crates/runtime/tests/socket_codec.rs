//! Property tests of the TCP socket frame codec
//! ([`tempered_runtime::lb::FrameReader`] / `encode_frame`).
//!
//! The codec is the trust boundary of the socket driver: whatever the
//! peer's TCP stack hands us — whole frames, single bytes, several
//! frames glued together, bit-flipped payloads, forged timers and NACKs,
//! ranks the run does not have, plain noise — the reader must either
//! reproduce the sender's `LbWire` exactly or surface a `Damaged` frame
//! that fails verification (which the rank then treats as a loss: dropped unacked,
//! retransmitted by the sender).

use proptest::prelude::*;
use proptest::BoxedStrategy;
use rand::Rng;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_runtime::collective::LoadSummary;
use tempered_runtime::crc::crc32;
use tempered_runtime::lb::{encode_frame, FrameReader, LbMsg, LbRank, LbWire, TaskEntry};
use tempered_runtime::sim::Ctx;
use tempered_runtime::termination::TdMsg;
use tempered_runtime::{LbProtocolConfig, Protocol, RetryConfig};

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

/// Every generated frame names ranks below this; readers are built for
/// exactly this roster.
const ROSTER: u32 = 64;

/// `FrameReader`'s bound on a frame payload (private there).
const MAX_FRAME_BYTES: usize = 64 << 20;

fn arb_rank() -> impl Strategy<Value = RankId> {
    (0..ROSTER).prop_map(RankId::new)
}

fn arb_task_entry() -> impl Strategy<Value = TaskEntry> {
    (any::<u64>(), 0.0f64..100.0, 0..ROSTER).prop_map(|(id, load, home)| TaskEntry {
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

/// Any frame a well-behaved peer of a [`ROSTER`]-rank run sends. No peer
/// sends a `ProposeReply`: the protocol has no negative acknowledgements.
fn arb_wire() -> impl Strategy<Value = LbWire> {
    OneOf(vec![
        arb_msg().prop_map(LbWire::Raw).boxed(),
        (1u64..1 << 48, arb_msg())
            .prop_map(|(seq, msg)| LbWire::Data { seq, msg })
            .boxed(),
        (1u64..1 << 48).prop_map(|seq| LbWire::Ack { seq }).boxed(),
        Just(LbWire::Heartbeat).boxed(),
    ])
}

/// The self-timers: a rank arms them for itself, so one on the wire is a
/// forgery.
fn arb_timer() -> impl Strategy<Value = LbWire> {
    OneOf(vec![
        (arb_rank(), 1u64..1 << 48)
            .prop_map(|(to, seq)| LbWire::RetryTimer { to, seq })
            .boxed(),
        (0u64..8)
            .prop_map(|stage_seq| LbWire::StageTimer { stage_seq })
            .boxed(),
        Just(LbWire::HeartbeatTimer).boxed(),
        (0u64..8)
            .prop_map(|park_seq| LbWire::ParkTimer { park_seq })
            .boxed(),
    ])
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..max)
}

/// A well-formed header (length, matching CRC) around `payload`: what
/// gets arbitrary bytes past the checksum and into `LbWire::decode`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A negative acknowledgement naming only ranks of the roster: a well-formed
/// frame of a kind no peer sends, so one on the wire is a forgery.
fn arb_nack() -> impl Strategy<Value = LbWire> {
    let nack = || {
        (any::<u64>(), prop::collection::vec(arb_task_entry(), 0..12))
            .prop_map(|(epoch, rejected)| LbMsg::ProposeReply { epoch, rejected })
    };
    OneOf(vec![
        nack().prop_map(LbWire::Raw).boxed(),
        (1u64..1 << 48, nack())
            .prop_map(|(seq, msg)| LbWire::Data { seq, msg })
            .boxed(),
    ])
}

/// One stretch of a hostile byte stream.
fn arb_hostile_piece() -> impl Strategy<Value = Vec<u8>> {
    OneOf(vec![
        // Plain noise (almost always an absurd length prefix).
        arb_bytes(48).boxed(),
        // A frame a peer may send, to be found again after the noise.
        arb_wire().prop_map(|w| encode_frame(&w)).boxed(),
        // The same with one byte damaged anywhere, header included.
        (
            arb_wire(),
            any::<prop::sample::Index>(),
            (1u16..256).prop_map(|m| m as u8),
        )
            .prop_map(|(w, at, mask)| {
                let mut bytes = encode_frame(&w);
                let at = at.index(bytes.len());
                bytes[at] ^= mask;
                bytes
            })
            .boxed(),
        // Arbitrary payloads under a checksum that matches.
        arb_bytes(96).prop_map(|p| framed(&p)).boxed(),
        // The same, steered into a frame or message decoder by its tag.
        (0x20u16..0x2A, 0u16..14, arb_bytes(96))
            .prop_map(|(wire_tag, msg_tag, mut p)| {
                p.insert(0, msg_tag as u8);
                p.insert(0, wire_tag as u8);
                framed(&p)
            })
            .boxed(),
        // Forged timers and NACKs, and ranks the run does not have.
        arb_timer().prop_map(|w| encode_frame(&w)).boxed(),
        arb_nack().prop_map(|w| encode_frame(&w)).boxed(),
        (ROSTER..u32::MAX, any::<u64>())
            .prop_map(|(r, base)| {
                encode_frame(&LbWire::Raw(LbMsg::View {
                    base,
                    dead: vec![RankId::new(1), RankId::new(r)].into(),
                }))
            })
            .boxed(),
        (ROSTER..u32::MAX, 1u64..1 << 48)
            .prop_map(|(r, seq)| {
                encode_frame(&LbWire::Data {
                    seq,
                    msg: LbMsg::Gossip {
                        epoch: 1,
                        round: 1,
                        pairs: vec![(RankId::new(r), 1.0)].into(),
                    },
                })
            })
            .boxed(),
    ])
}

/// The largest rank id `wire` names, if it names any.
fn max_rank(wire: &LbWire) -> Option<u32> {
    let (LbWire::Raw(msg) | LbWire::Data { msg, .. }) = wire else {
        return None;
    };
    match msg {
        LbMsg::Gossip { pairs, .. } => pairs.iter().map(|(r, _)| r.as_u32()).max(),
        LbMsg::Propose { tasks, .. } => tasks.iter().map(|t| t.home.as_u32()).max(),
        LbMsg::View { dead, .. } | LbMsg::Heal { dead, .. } => {
            dead.iter().map(|r| r.as_u32()).max()
        }
        _ => None,
    }
}

/// Feed `stream` to `reader` in pieces of the (cycled) `cuts` lengths,
/// popping every frame that completes. Between pushes the reader may
/// hold one incomplete frame and nothing more.
fn feed(reader: &mut FrameReader, stream: &[u8], cuts: &[usize]) -> Vec<LbWire> {
    let mut got = Vec::new();
    let mut rest = stream;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(cut.min(rest.len()));
        rest = tail;
        reader.push(piece);
        assert!(reader.pending() <= MAX_FRAME_BYTES + 8 + piece.len());
        while let Some(w) = reader.next_frame() {
            got.push(w);
        }
        assert!(reader.pending() < MAX_FRAME_BYTES + 8);
    }
    got
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
    /// the reader in pieces of arbitrary, changing sizes (down to one
    /// byte) reassemble into exactly the sent sequence.
    #[test]
    fn partial_reads_reassemble(
        wires in prop::collection::vec(arb_wire(), 1..5),
        cuts in prop::collection::vec(1usize..40, 1..16),
    ) {
        let stream: Vec<u8> = wires.iter().flat_map(encode_frame).collect();
        let mut reader = FrameReader::for_roster(ROSTER as usize);
        let got = feed(&mut reader, &stream, &cuts);
        prop_assert_eq!(got, wires);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// Whatever bytes arrive in whatever pieces, nothing panics and what
    /// comes out is either a frame a peer of this roster may send or a
    /// `Damaged` one whose check fails — never a timer, never a NACK,
    /// never a rank the run does not have.
    #[test]
    fn hostile_bytes_come_out_admissible_or_damaged(
        pieces in prop::collection::vec(arb_hostile_piece(), 1..12),
        cuts in prop::collection::vec(1usize..64, 1..16),
    ) {
        let stream = pieces.concat();
        let mut reader = FrameReader::for_roster(ROSTER as usize);
        for wire in feed(&mut reader, &stream, &cuts) {
            match &wire {
                LbWire::Damaged { .. } => prop_assert!(!wire.verify(), "{:?}", wire),
                LbWire::Raw(LbMsg::ProposeReply { .. })
                | LbWire::Data { msg: LbMsg::ProposeReply { .. }, .. } => {
                    prop_assert!(false, "a NACK came off the wire: {:?}", wire)
                }
                LbWire::Raw(_) | LbWire::Data { .. } | LbWire::Ack { .. } | LbWire::Heartbeat => {
                    prop_assert!(max_rank(&wire).is_none_or(|r| r < ROSTER), "{:?}", wire)
                }
                timer => prop_assert!(false, "a timer came off the wire: {:?}", timer),
            }
        }
        // The decoder alone, on every piece, checksum or no checksum.
        for piece in &pieces {
            let _ = LbWire::decode(piece);
        }
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
    let (root, leaf) = (RankId::new(0), RankId::new(1));
    let cfg = LbProtocolConfig::default().hardened(RetryConfig::default());
    let new = |me| LbRank::new(me, 2, vec![(TaskId::new(1), 2.0)], cfg, RngFactory::new(3));
    let (mut receiver, mut sender) = (new(root), new(leaf));

    // Each step runs one handler against a fresh context; what the
    // rank wrote comes back as (frames, timers).
    fn step(me: RankId, f: impl FnOnce(&mut Ctx<'_, LbWire>)) -> (Vec<LbWire>, Vec<LbWire>) {
        let (mut outbox, mut timers) = (Vec::new(), Vec::new());
        f(&mut Ctx::new(me, 0.0, &mut outbox, &mut timers));
        (
            outbox.into_iter().map(|(_, w, _)| w).collect(),
            timers.into_iter().map(|(_, w)| w).collect(),
        )
    }

    // The root waits for its child; the leaf's start is one reliable
    // send, its contribution to the setup reduction.
    let (frames, _) = step(root, |ctx| receiver.on_start(ctx));
    assert!(frames.is_empty(), "the root of two waits, got {frames:?}");
    let (frames, timers) = step(leaf, |ctx| sender.on_start(ctx));
    let [data @ LbWire::Data { seq: 1, .. }] = &frames[..] else {
        panic!("a reliable send emits one Data frame, got {frames:?}");
    };
    let [LbWire::StageTimer { .. }, retry_timer @ LbWire::RetryTimer { seq: 1, .. }] = &timers[..]
    else {
        panic!("the stage deadline, then one retry timer, got {timers:?}");
    };

    // The frame arrives with a bit flipped on the way: the reader hands
    // over a `Damaged` frame, and the rank drops it — crucially, no ack.
    let mut bytes = encode_frame(data);
    *bytes.last_mut().unwrap() ^= 0x10;
    let mut reader = FrameReader::for_roster(2);
    reader.push(&bytes);
    let damaged = reader.next_frame().expect("frame complete");
    assert!(matches!(damaged, LbWire::Damaged { .. }) && !damaged.verify());
    let (frames, timers) = step(root, |ctx| receiver.on_message(ctx, leaf, damaged));
    assert!(
        frames.is_empty() && timers.is_empty(),
        "a corrupt frame must be dropped unacked, got {frames:?}"
    );

    // The sender's retry timer fires and retransmits the clean copy.
    let (resent, rearmed) = step(leaf, |ctx| {
        sender.on_message(ctx, leaf, retry_timer.clone())
    });
    assert_eq!(
        resent,
        std::slice::from_ref(data),
        "the resend is the identical Data frame"
    );
    assert_eq!(rearmed, std::slice::from_ref(retry_timer));

    // The clean copy is acked — before anything the engine sends in
    // response — and delivered: the reduction completes, so the root
    // answers its child.
    let (frames, _) = step(root, |ctx| receiver.on_message(ctx, leaf, data.clone()));
    let [ack @ LbWire::Ack { seq: 1 }, LbWire::Data {
        msg: LbMsg::ReduceDown { .. },
        ..
    }, ..] = &frames[..]
    else {
        panic!("the ack, then the engine's reply, got {frames:?}");
    };
    // The ack settles the sender: the timer now finds nothing to resend.
    let (frames, _) = step(leaf, |ctx| sender.on_message(ctx, root, ack.clone()));
    assert!(frames.is_empty());
    let (frames, timers) = step(leaf, |ctx| {
        sender.on_message(ctx, leaf, retry_timer.clone())
    });
    assert!(frames.is_empty() && timers.is_empty());

    assert_eq!(sender.reliable_stats().retransmitted, 1);
    assert_eq!(sender.reliable_stats().acked, 1);
    assert_eq!(receiver.reliable_stats().duplicates_suppressed, 0);
}

/// A length-prefix bomb buys its sender nothing: the reader holds at
/// most one frame of the largest size it takes, and a prefix beyond that
/// is dropped on sight.
#[test]
fn the_reader_buffers_at_most_one_maximal_frame() {
    let chunk = vec![0u8; 1 << 20];
    let mut reader = FrameReader::for_roster(ROSTER as usize);
    let mut header = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    header.extend_from_slice(&0u32.to_le_bytes());
    reader.push(&header);
    for _ in 0..MAX_FRAME_BYTES / chunk.len() - 1 {
        reader.push(&chunk);
        assert!(reader.next_frame().is_none(), "still one byte-run short");
        assert!(reader.pending() < MAX_FRAME_BYTES + 8);
    }
    reader.push(&chunk);
    let got = reader.next_frame().expect("the maximal frame completes");
    assert!(matches!(&got, LbWire::Damaged { bytes, .. } if bytes.len() == MAX_FRAME_BYTES));
    assert_eq!(reader.pending(), 0);

    let mut header = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
    header.extend_from_slice(&0u32.to_le_bytes());
    reader.push(&header);
    let got = reader
        .next_frame()
        .expect("an oversize prefix surfaces at once");
    assert!(matches!(got, LbWire::Damaged { .. }) && !got.verify());
    assert_eq!(reader.pending(), 0);
}
