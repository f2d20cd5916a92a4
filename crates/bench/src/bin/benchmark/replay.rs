//! Corpus replay: the frames one traced round delivered, pushed through
//! a single layer's public functions in isolation, so that layer has a
//! price of its own.

use crate::spans::Delivered;
use std::hint::black_box;
use std::time::Instant;
use tempered_core::knowledge::Knowledge;
use tempered_core::load::Load;
use tempered_runtime::crc::crc32;
use tempered_runtime::lb::{encode_frame, FrameReader, LbMsg, LbWire};
use tempered_runtime::reliable::ReliableChannel;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::wheel::TimerWheel;
use tempered_runtime::RetryConfig;

/// Frames replayed through the codec and the knowledge merge: enough
/// for stable per-frame numbers, bounded so replay stays a small part
/// of a traced run.
const CODEC_FRAMES: usize = 100_000;
const GOSSIP_FRAMES: u64 = 200_000;
/// A codec replay loops over a small corpus until it has run this long.
const MIN_REPLAY_NS: u128 = 50_000_000;

fn crosses_network(wire: &LbWire) -> bool {
    matches!(
        wire,
        LbWire::Raw(_) | LbWire::Data { .. } | LbWire::Ack { .. } | LbWire::Heartbeat
    )
}

pub struct WheelReplay {
    pub push_pop_ns: f64,
    pub peak_len: usize,
}

/// Replay the corpus's delivery schedule through a `TimerWheel<f64, _>`.
///
/// Delivery times are recorded; push times are not visible from outside
/// and are reconstructed from the latency model (a frame was pushed one
/// un-jittered latency before it arrived, a retry timer one timeout
/// before it fired). Events still queued when the round ended were never
/// delivered and are absent, so `peak_len` is a lower bound.
pub fn wheel(
    corpus: &[Delivered],
    model: &NetworkModel,
    retry: Option<RetryConfig>,
) -> WheelReplay {
    let timeout = retry.map_or(0.0, |r| r.timeout);
    let mut pushes: Vec<(f64, f64)> = corpus
        .iter()
        .map(|(_, _, at, wire)| {
            let flight = if crosses_network(wire) {
                model.base_latency + model.per_byte * wire.wire_bytes() as f64
            } else {
                timeout
            };
            ((at - flight).max(0.0), *at)
        })
        .collect();
    pushes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut wheel: TimerWheel<f64, u32> = TimerWheel::new(1.0 / model.base_latency);
    let mut peak_len = 0;
    let mut next = 0;
    let t0 = Instant::now();
    for (_, _, at, _) in corpus {
        while next < pushes.len() && pushes[next].0 <= *at {
            wheel.push(pushes[next].1, next as u32);
            next += 1;
        }
        peak_len = peak_len.max(wheel.len());
        black_box(wheel.pop());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    WheelReplay {
        push_pop_ns: ns / corpus.len().max(1) as f64,
        peak_len,
    }
}

/// Replay every reliable exchange of the corpus through one
/// `ReliableChannel` per rank: `send` at the sender and `accept` at the
/// receiver for each `Data`, `on_ack` at the sender for each `Ack`.
/// Returns nanoseconds per `Data` frame for all three together.
pub fn reliable(corpus: &[Delivered], num_ranks: usize, retry: RetryConfig) -> f64 {
    let mut channels: Vec<ReliableChannel<LbMsg>> = (0..num_ranks)
        .map(|_| ReliableChannel::new(retry))
        .collect();
    let mut data_frames = 0u64;
    let t0 = Instant::now();
    for (from, to, _, wire) in corpus {
        match wire {
            LbWire::Data { seq, msg } => {
                data_frames += 1;
                black_box(channels[from.as_usize()].send(*to, msg.clone()));
                black_box(channels[to.as_usize()].accept(*from, *seq));
            }
            LbWire::Ack { seq } => channels[to.as_usize()].on_ack(*from, *seq),
            _ => {}
        }
    }
    t0.elapsed().as_nanos() as f64 / data_frames.max(1) as f64
}

pub struct GossipReplay {
    pub merge_ns_per_pair: f64,
    pub pairs_per_msg: f64,
    pub bytes_per_msg: f64,
}

/// Replay gossip payloads through `Knowledge::merge_from` (what
/// `merge_pairs` runs over a slice), one knowledge set per receiver,
/// reset whenever the receiver moves to a new epoch (as the engine does
/// between iterations).
pub fn gossip(corpus: &[Delivered], num_ranks: usize) -> Option<GossipReplay> {
    let mut known: Vec<(u64, Knowledge)> = (0..num_ranks).map(|_| (0, Knowledge::new())).collect();
    let (mut frames, mut pairs_total, mut bytes_total) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for (_, to, _, wire) in corpus {
        let (LbWire::Raw(msg) | LbWire::Data { msg, .. }) = wire else {
            continue;
        };
        let LbMsg::Gossip { epoch, pairs, .. } = msg else {
            continue;
        };
        let (at, knowledge) = &mut known[to.as_usize()];
        if at != epoch {
            *at = *epoch;
            *knowledge = Knowledge::new();
        }
        black_box(knowledge.merge_from(pairs.iter().map(|&(r, l)| (r, Load::new(l)))));
        frames += 1;
        pairs_total += pairs.len() as u64;
        bytes_total += msg.wire_bytes() as u64;
        if frames == GOSSIP_FRAMES {
            break;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (frames > 0).then(|| GossipReplay {
        merge_ns_per_pair: ns / pairs_total.max(1) as f64,
        pairs_per_msg: pairs_total as f64 / frames as f64,
        bytes_per_msg: bytes_total as f64 / frames as f64,
    })
}

pub struct CodecReplay {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_frame: f64,
    pub crc_mb_per_s: f64,
    /// `encode_frame` at the sender plus `FrameReader` reassembly from
    /// 4 KiB reads at the receiver, per frame.
    pub frame_ns: f64,
}

/// Time `passes` of `body` over the corpus; returns ns per frame.
fn per_frame(frames: usize, mut body: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut passes = 0u64;
    loop {
        body();
        passes += 1;
        if t0.elapsed().as_nanos() >= MIN_REPLAY_NS {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / (passes * frames as u64) as f64
}

/// Replay the corpus's network frames through the wire codec, the CRC
/// and the socket framing.
pub fn codec(corpus: &[Delivered]) -> Option<CodecReplay> {
    let frames: Vec<&LbWire> = corpus
        .iter()
        .map(|d| &d.3)
        .filter(|w| crosses_network(w))
        .take(CODEC_FRAMES)
        .collect();
    if frames.is_empty() {
        return None;
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(|w| w.encode()).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();

    let mut buf = Vec::new();
    let encode_ns = per_frame(frames.len(), || {
        for w in &frames {
            buf.clear();
            w.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let decode_ns = per_frame(frames.len(), || {
        for e in &encoded {
            black_box(LbWire::decode(e).expect("an encoded frame decodes"));
        }
    });
    let crc_ns = per_frame(frames.len(), || {
        for e in &encoded {
            black_box(crc32(e));
        }
    });
    let frame_ns = per_frame(frames.len(), || {
        let mut stream = Vec::with_capacity(bytes + 8 * frames.len());
        for w in &frames {
            stream.extend_from_slice(&encode_frame(w));
        }
        let mut reader = FrameReader::new();
        let mut popped = 0;
        for chunk in stream.chunks(4096) {
            reader.push(chunk);
            while let Some(w) = reader.next_frame() {
                black_box(w);
                popped += 1;
            }
        }
        assert_eq!(popped, frames.len(), "every framed message reassembles");
    });
    let bytes_per_frame = bytes as f64 / frames.len() as f64;
    Some(CodecReplay {
        encode_ns,
        decode_ns,
        bytes_per_frame,
        // bytes per ns is GB/s; 1e3 of those is MB/s.
        crc_mb_per_s: bytes_per_frame / crc_ns * 1e3,
        frame_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use crate::rounds::sim_round_traced;
    use crate::spans::SpanLog;
    use tempered_core::rng::RngFactory;
    use tempered_runtime::FaultPlan;

    #[test]
    fn replays_cover_a_captured_corpus() {
        let dist = inputs::hotspot(16);
        let mut log = SpanLog::new();
        let traced = sim_round_traced(
            &mut log,
            &dist,
            inputs::hardened(),
            &FaultPlan::none(),
            &RngFactory::new(7),
            true,
        );
        assert_eq!(traced.corpus.len() as u64, traced.events);
        assert!(traced.corpus.windows(2).all(|w| w[0].2 <= w[1].2));

        let w = wheel(
            &traced.corpus,
            &NetworkModel::default(),
            Some(inputs::SIM_RETRY),
        );
        assert!(w.peak_len > 0 && w.peak_len <= traced.corpus.len());
        assert!(w.push_pop_ns > 0.0);
        assert!(reliable(&traced.corpus, 16, inputs::SIM_RETRY) > 0.0);
        let g = gossip(&traced.corpus, 16).unwrap();
        // A gossip frame is a 16-byte header plus 12 bytes per pair.
        assert!((g.bytes_per_msg - (16.0 + 12.0 * g.pairs_per_msg)).abs() < 1e-9);
        let c = codec(&traced.corpus).unwrap();
        assert!(c.bytes_per_frame > 0.0 && c.crc_mb_per_s > 0.0 && c.frame_ns > c.encode_ns);
    }
}
