//! TCP socket driver: the LB protocol over real OS sockets.
//!
//! The third driver in the sans-I/O stack (after the discrete-event
//! [`crate::sim::Simulator`] and the threaded `parallel` executor): one
//! OS process per rank, [`LbWire`] frames over length-prefixed TCP
//! streams, the same [`LbRank`] actor and the same
//! [`crate::emulator::LinkEmulator`]-interpreted [`FaultPlan`] as
//! everywhere else.
//!
//! Layout per rank process (see `DESIGN.md` §12):
//!
//! ```text
//! accept thread     nonblocking accept, spawns one reader per stream
//! reader threads    handshake, then stream → FrameReader → inbound channel
//! writer threads    per-peer frame queue → connect/reconnect → stream
//! main thread       crate::host::Host hosting the one LbRank
//! ```
//!
//! The main thread runs the loop a parallel worker runs, `Host::run`, as
//! a host of one rank (a layout of one-rank blocks over one host per
//! rank, so a self-send stays in the host and egress only frames for
//! peers): sends pass through the emulator at send time (per-link fault
//! ordinals are keyed by the sending rank, so per-process emulators
//! reproduce the single-emulator simulator), delay fates hold messages
//! back on the *sender* side, and crash windows gate admission at
//! delivery time.
//! Only the byte pumps, the frame egress and the stop rule live here.
//! Real TCP loss — a reset mid-run, a peer not yet listening — is
//! absorbed by reconnect-with-backoff below and the rank's reliable
//! channel above, the same contract as an injected drop.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes = LbWire::encode()]
//! ```
//!
//! `crc` is [`crc32`] over the payload. A frame whose CRC does not
//! match is *not* discarded silently: it surfaces as
//! [`LbWire::Damaged`] so the receive path drops it unacked (the
//! sender's reliable channel then re-delivers the original) — in-flight
//! damage and injected corruption take the same path. So does a frame
//! that checks out but is not one a peer may send: a payload that does
//! not decode (self-timers included), or one naming a rank outside the
//! run's roster.

use super::messages::LbWire;
use super::rank::LbRank;
use crate::crc::crc32;
use crate::fault::{FaultPlan, FaultStats};
use crate::host::{Host, Inbound, Layout};
use crate::sim::Protocol;
use rand::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_obs::NetworkStats;

/// Handshake preamble: magic, then the sender's rank id (both u32 LE).
const HANDSHAKE_MAGIC: u32 = 0x544C_4231; // "TLB1"

/// Upper bound on a frame payload; anything larger is a protocol error
/// (the largest legitimate frame is a `TaskData` batch, well under 1 MiB
/// at realistic task counts).
const MAX_FRAME_BYTES: usize = 64 << 20;

/// Serialize one wire frame: length prefix, payload CRC, payload.
///
/// Header and payload are laid into a single allocation: the payload is
/// encoded in place after a blank header, which is then back-patched —
/// the bytes are identical to the historical two-buffer construction.
pub fn encode_frame(wire: &LbWire) -> Vec<u8> {
    let mut out = vec![0u8; 8];
    wire.encode_into(&mut out);
    let len = out.len() - 8;
    let crc = crc32(&out[8..]);
    out[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Incremental frame reassembler for one TCP stream.
///
/// Feed raw bytes with [`FrameReader::push`] in whatever chunks the
/// socket produces; [`FrameReader::next_frame`] pops complete frames.
/// Frames that fail the CRC, do not decode, or name a rank outside the
/// roster are returned as [`LbWire::Damaged`] (with a failing checksum)
/// rather than dropped, so the receive path counts and handles them
/// like injected corruption.
#[derive(Debug)]
pub struct FrameReader {
    /// Every rank a frame names must lie in `0..num_ranks`.
    num_ranks: usize,
    buf: Vec<u8>,
    /// How much of `buf` has already left as frames. Popping a frame
    /// advances this instead of moving what is still buffered, so one
    /// socket read holding hundreds of small frames costs one compaction
    /// (at the next `push`), not one per frame.
    read: usize,
}

impl FrameReader {
    /// An empty reassembler that takes any rank id a frame names.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FrameReader::for_roster(usize::MAX)
    }

    /// An empty reassembler for one stream of a `num_ranks`-rank run.
    pub fn for_roster(num_ranks: usize) -> Self {
        FrameReader {
            num_ranks,
            buf: Vec::new(),
            read: 0,
        }
    }

    /// Append bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.read);
        self.read = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet assembled into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pop the next complete frame, if one has fully arrived.
    ///
    /// Returns `None` while the frame is still partial. A payload whose
    /// CRC mismatches arrives as `LbWire::Damaged { crc: <expected>,
    /// bytes: <received> }`, whose [`LbWire::verify`] fails — exactly
    /// the shape injected corruption takes. A CRC-valid payload that
    /// does not decode (a peer speaking a different dialect, or forging
    /// a self-timer), that names a rank outside the roster, or that is
    /// itself a `Damaged` frame whose check passes is wrapped the same
    /// way, with the checksum inverted so verification still fails.
    pub fn next_frame(&mut self) -> Option<LbWire> {
        let unread = &self.buf[self.read..];
        if unread.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(unread[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(unread[4..8].try_into().unwrap());
        if len > MAX_FRAME_BYTES {
            // Desynchronized or hostile stream: surface one damaged
            // frame and resynchronize by discarding what is unread.
            let bytes = unread.to_vec();
            self.buf.clear();
            self.read = 0;
            return Some(LbWire::Damaged {
                crc: !crc32(&bytes),
                bytes,
            });
        }
        if unread.len() < 8 + len {
            return None;
        }
        // Decode straight out of the reassembly buffer: the payload is
        // only copied out on the damaged paths, which need to own the
        // bytes they surface.
        let payload = &unread[8..8 + len];
        let wire = if crc32(payload) != crc {
            LbWire::Damaged {
                crc,
                bytes: payload.to_vec(),
            }
        } else {
            match LbWire::decode(payload) {
                Ok(wire) if wire.admissible(self.num_ranks) => wire,
                _ => LbWire::Damaged {
                    crc: !crc,
                    bytes: payload.to_vec(),
                },
            }
        };
        self.read += 8 + len;
        Some(wire)
    }
}

/// Per-attempt TCP connect timeout, and how long an accepted stream may
/// take to present its handshake before it is dropped.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Socket read timeout — also the cadence at which reader and writer
/// threads notice shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// First reconnect backoff; doubles per failed attempt up to the ceiling.
const INITIAL_BACKOFF: Duration = Duration::from_millis(5);
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// What a caller decides about [`run_socket_rank`].
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Hard wall-clock bound on the whole run; exceeding it abandons
    /// the run (`finished` may still be true if the protocol was done).
    pub deadline: Duration,
    /// Seed for the reconnect jitter streams (derive it from the run
    /// seed so retries are reproducible, not protocol-coupled).
    pub seed: u64,
    /// Faults to emulate in userspace between engine and socket.
    pub fault_plan: FaultPlan,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            deadline: Duration::from_secs(60),
            seed: 0,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// Outcome of one rank process's run.
#[derive(Debug)]
pub struct SocketRankReport {
    /// The actor in its final state (assignment, stats, stage).
    pub rank: LbRank,
    /// Messages/bytes this rank sent (modeled payload bytes, matching
    /// the other drivers' accounting).
    pub network: NetworkStats,
    /// Injected-fault accounting from this rank's emulator (send-side
    /// fates for its own traffic plus crash drops on delivery).
    pub faults: FaultStats,
    /// Whether the protocol reached Done here before stop/deadline.
    pub finished: bool,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
}

/// Run one rank of the LB protocol over TCP until `stop` is raised or
/// the deadline passes.
///
/// `listener` must already be bound (bind to port 0 and distribute the
/// resulting map to avoid races); `peers[r]` is rank `r`'s address
/// (`peers[me]` is ignored). `on_done` fires exactly once, the first
/// time the protocol reaches Done locally — or when the fault plan has
/// permanently crashed this rank, which can never finish — so an
/// orchestrator can collect doneness before telling everyone to exit.
///
/// The function returns once `stop` is observed (normal teardown) or
/// the deadline expires; it keeps serving acks, heartbeats, and heal
/// traffic in between, which is what lets peers finish after we do.
pub fn run_socket_rank(
    me: RankId,
    rank: LbRank,
    listener: TcpListener,
    peers: Vec<SocketAddr>,
    cfg: SocketConfig,
    stop: Arc<AtomicBool>,
    mut on_done: impl FnMut(),
) -> SocketRankReport {
    let num_ranks = peers.len();
    let start = Instant::now();
    let halt = Arc::new(AtomicBool::new(false));
    let mut host = Host::new(
        vec![(me.as_usize(), rank)],
        Layout {
            block: 1,
            hosts: num_ranks,
        },
        start,
        cfg.fault_plan,
        tempered_obs::Recorder::disabled(),
    );
    let (in_tx, in_rx) = channel::<Inbound<LbWire>>();

    // Per-peer outbound frame queues, drained by writer threads.
    let mut out_rx: Vec<(usize, Receiver<Vec<u8>>)> = Vec::new();
    let out_tx: Vec<Option<Sender<Vec<u8>>>> = (0..num_ranks)
        .map(|r| {
            (r != me.as_usize()).then(|| {
                let (tx, rx) = channel();
                out_rx.push((r, rx));
                tx
            })
        })
        .collect();

    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");

    std::thread::scope(|scope| {
        // Accept thread: spawns one reader per inbound stream.
        {
            let halt = Arc::clone(&halt);
            let stop = Arc::clone(&stop);
            let in_tx = in_tx.clone();
            scope.spawn(move || {
                accept_loop(&listener, me, num_ranks, &halt, &stop, &in_tx, scope);
            });
        }

        // Writer threads: own connect/reconnect with seeded backoff
        // jitter, drain the peer's frame queue.
        for (peer, rx) in out_rx {
            let halt = Arc::clone(&halt);
            let stop = Arc::clone(&stop);
            let addr = peers[peer];
            let jitter = RngFactory::new(cfg.seed).rank_stream(
                b"sockrtry",
                me.as_usize() as u64,
                peer as u64,
            );
            scope.spawn(move || {
                writer_loop(me, addr, rx, jitter, &halt, &stop);
            });
        }

        host.run(
            &in_rx,
            // The host keeps a self-send; egress only ever names a peer.
            |_, to, msg| {
                let peer = out_tx[to.as_usize()].as_ref().expect("a peer's queue");
                let _ = peer.send(encode_frame(&msg));
            },
            |host, _idle| {
                if host.newly_done() > 0 {
                    on_done();
                }
                stop.load(Ordering::SeqCst) || start.elapsed() >= cfg.deadline
            },
        );

        halt.store(true, Ordering::SeqCst);
    });

    let wall_time_s = host.now();
    let (mut ranks, network, faults, _) = host.finish();
    let (_, rank) = ranks.pop().expect("the host holds this rank");
    SocketRankReport {
        finished: rank.is_done(),
        rank,
        network,
        faults,
        wall_time_s,
    }
}

/// Accept inbound connections and spawn a reader per stream.
/// Nonblocking accept polled on a short sleep so shutdown is prompt.
fn accept_loop<'scope>(
    listener: &TcpListener,
    me: RankId,
    num_ranks: usize,
    halt: &Arc<AtomicBool>,
    stop: &Arc<AtomicBool>,
    in_tx: &Sender<Inbound<LbWire>>,
    scope: &'scope std::thread::Scope<'scope, '_>,
) {
    loop {
        if halt.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let _ = stream.set_nonblocking(false);
                let in_tx = in_tx.clone();
                let halt = Arc::clone(halt);
                let stop = Arc::clone(stop);
                scope.spawn(move || reader_loop(stream, me, num_ranks, &in_tx, &halt, &stop));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

/// Read the handshake (magic, then the sender's rank id) off a freshly
/// accepted stream. `None` — drop the stream — when it is malformed,
/// names a rank outside the run, or has not fully arrived within
/// [`CONNECT_TIMEOUT`]: a connection that never speaks (port scan,
/// health probe) must cost nothing but its own thread, briefly.
fn read_handshake(
    stream: &mut TcpStream,
    num_ranks: usize,
    halt: &AtomicBool,
    stop: &AtomicBool,
) -> Option<RankId> {
    let give_up = Instant::now() + CONNECT_TIMEOUT;
    let mut hs = [0u8; 8];
    let mut filled = 0;
    while filled < hs.len() {
        if halt.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) || Instant::now() >= give_up {
            return None;
        }
        match stream.read(&mut hs[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    let magic = u32::from_le_bytes(hs[0..4].try_into().unwrap());
    let from = u32::from_le_bytes(hs[4..8].try_into().unwrap());
    (magic == HANDSHAKE_MAGIC && (from as usize) < num_ranks).then(|| RankId::new(from))
}

/// Handshake one inbound stream, then drain it into the inbound channel,
/// frame by frame.
fn reader_loop(
    mut stream: TcpStream,
    me: RankId,
    num_ranks: usize,
    in_tx: &Sender<Inbound<LbWire>>,
    halt: &AtomicBool,
    stop: &AtomicBool,
) {
    let Some(from) = read_handshake(&mut stream, num_ranks, halt, stop) else {
        return;
    };
    let mut reader = FrameReader::for_roster(num_ranks);
    let mut buf = [0u8; 16 * 1024];
    loop {
        if halt.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed; it reconnects if it has more
            Ok(n) => {
                reader.push(&buf[..n]);
                while let Some(wire) = reader.next_frame() {
                    if in_tx.send((from, me, wire)).is_err() {
                        return;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Own the outbound stream to one peer: connect (and reconnect) with
/// seeded exponential backoff jitter, handshake, then write queued
/// frames. A frame that fails mid-write is retried on the next
/// connection — duplicate delivery is fine (the receiver dedups), and
/// the reliable channel covers anything genuinely lost.
fn writer_loop(
    me: RankId,
    addr: SocketAddr,
    rx: Receiver<Vec<u8>>,
    mut jitter: rand::rngs::SmallRng,
    halt: &AtomicBool,
    stop: &AtomicBool,
) {
    let shutting_down = || halt.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst);
    let mut stream: Option<TcpStream> = None;
    let mut backoff = INITIAL_BACKOFF;
    let mut pending: Option<Vec<u8>> = None;
    loop {
        if shutting_down() {
            return;
        }
        // (Re)connect if needed.
        if stream.is_none() {
            if let Ok(mut s) = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                let _ = s.set_nodelay(true);
                let mut hs = [0u8; 8];
                hs[0..4].copy_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
                hs[4..8].copy_from_slice(&me.as_u32().to_le_bytes());
                if s.write_all(&hs).is_ok() {
                    stream = Some(s);
                    backoff = INITIAL_BACKOFF;
                }
            }
            if stream.is_none() {
                // Jittered exponential backoff: deterministic per
                // (seed, me, peer) stream, uncorrelated across links.
                let sleep = backoff.mul_f64(0.5 + jitter.gen::<f64>());
                let step = Duration::from_millis(5);
                let mut slept = Duration::ZERO;
                while slept < sleep && !shutting_down() {
                    std::thread::sleep(step.min(sleep - slept));
                    slept += step;
                }
                backoff = (backoff * 2).min(MAX_BACKOFF);
                continue;
            }
        }
        // Next frame: the one that failed last time, or a fresh one.
        let frame = match pending.take() {
            Some(f) => f,
            None => match rx.recv_timeout(READ_TIMEOUT) {
                Ok(f) => f,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
        };
        let s = stream.as_mut().expect("connected above");
        if s.write_all(&frame).is_err() {
            stream = None;
            pending = Some(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::lb::{LbMsg, LbProtocolConfig, PartitionConfig, TaskEntry};
    use crate::reliable::RetryConfig;
    use crate::sim::{NetworkModel, Simulator};
    use std::net::Ipv4Addr;
    use tempered_core::distribution::Distribution;
    use tempered_core::ids::TaskId;

    #[test]
    fn frame_roundtrips_through_the_reader() {
        let wires = vec![
            LbWire::Heartbeat,
            LbWire::Ack { seq: 42 },
            LbWire::Raw(LbMsg::Knock),
        ];
        let mut reader = FrameReader::new();
        for w in &wires {
            reader.push(&encode_frame(w));
        }
        for w in &wires {
            let got = reader.next_frame().expect("frame complete");
            assert_eq!(got.encode(), w.encode());
            assert!(got.verify());
        }
        assert!(reader.next_frame().is_none());
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn partial_reads_reassemble() {
        let wire = LbWire::Ack { seq: 7 };
        let frame = encode_frame(&wire);
        let mut reader = FrameReader::new();
        for b in &frame[..frame.len() - 1] {
            reader.push(&[*b]);
            assert!(
                reader.next_frame().is_none(),
                "must wait for the full frame"
            );
        }
        reader.push(&frame[frame.len() - 1..]);
        let got = reader.next_frame().expect("complete now");
        assert_eq!(got.encode(), wire.encode());
    }

    #[test]
    fn crc_mismatch_surfaces_as_damaged() {
        let wire = LbWire::Ack { seq: 9 };
        let mut frame = encode_frame(&wire);
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // flip a payload bit
        let mut reader = FrameReader::new();
        reader.push(&frame);
        let got = reader.next_frame().expect("frame complete");
        assert!(matches!(got, LbWire::Damaged { .. }));
        assert!(!got.verify(), "damage must be detectable");
    }

    #[test]
    fn oversize_length_prefix_resynchronizes_as_damage() {
        let mut reader = FrameReader::new();
        let mut junk = Vec::new();
        junk.extend_from_slice(&u32::MAX.to_le_bytes());
        junk.extend_from_slice(&0u32.to_le_bytes());
        junk.extend_from_slice(b"garbage");
        // Behind a whole frame in the same read: what is discarded is the
        // unread bytes, no more and no less.
        let mut read = encode_frame(&LbWire::Heartbeat);
        read.extend_from_slice(&junk);
        reader.push(&read);
        assert_eq!(reader.next_frame(), Some(LbWire::Heartbeat));
        let got = reader.next_frame().expect("surfaced");
        assert!(matches!(&got, LbWire::Damaged { bytes, .. } if *bytes == junk));
        assert!(!got.verify());
        assert_eq!(reader.pending(), 0, "buffer resynchronized");
    }

    /// The four self-timers, which a rank acts on whoever sent them.
    fn forged_timers() -> Vec<LbWire> {
        let mut timers = vec![LbWire::HeartbeatTimer];
        for n in 0..4 {
            timers.push(LbWire::StageTimer { stage_seq: n });
            timers.push(LbWire::ParkTimer { park_seq: n });
            timers.push(LbWire::RetryTimer {
                to: RankId::new(0),
                seq: n,
            });
        }
        timers
    }

    /// One frame of every message kind that names ranks, naming `r` next
    /// to ranks that exist. A `View` naming more dead ranks than the run
    /// has underflows the survivor count of an engine that believes it.
    fn frames_naming(r: u32) -> Vec<LbWire> {
        let entry = |home| TaskEntry {
            id: TaskId::new(1),
            load: 1.0,
            home: RankId::new(home),
        };
        let msgs = [
            LbMsg::Gossip {
                epoch: 1,
                round: 1,
                pairs: vec![(RankId::new(0), 1.0), (RankId::new(r), 2.0)].into(),
            },
            LbMsg::Propose {
                epoch: 1,
                tasks: vec![entry(0), entry(r)],
            },
            LbMsg::View {
                base: 0,
                dead: (r..r + 5).map(RankId::new).collect(),
            },
            LbMsg::Heal {
                base: 1,
                dead: vec![RankId::new(1), RankId::new(r)].into(),
            },
        ];
        let mut frames = Vec::new();
        for msg in msgs {
            frames.push(LbWire::Raw(msg.clone()));
            frames.push(LbWire::Data { seq: 1, msg });
        }
        frames
    }

    /// Push `wire`'s frame through `reader` and pop what comes out.
    fn through(mut reader: FrameReader, wire: &LbWire) -> LbWire {
        reader.push(&encode_frame(wire));
        let got = reader.next_frame().expect("frame complete");
        assert_eq!(reader.pending(), 0);
        got
    }

    #[test]
    fn forged_timers_surface_as_damage() {
        for timer in forged_timers() {
            let got = through(FrameReader::for_roster(4), &timer);
            assert!(
                matches!(&got, LbWire::Damaged { bytes, .. } if *bytes == timer.encode()),
                "{timer:?} came through as {got:?}"
            );
            assert!(!got.verify());
        }
    }

    #[test]
    fn ranks_outside_the_roster_surface_as_damage() {
        for (inside, outside) in frames_naming(3).iter().zip(frames_naming(8)) {
            assert_eq!(through(FrameReader::for_roster(8), inside), *inside);
            let got = through(FrameReader::for_roster(8), &outside);
            assert!(
                matches!(&got, LbWire::Damaged { bytes, .. } if *bytes == outside.encode()),
                "{outside:?} came through as {got:?}"
            );
            assert!(!got.verify());
            // A reader that was told no roster takes any rank id.
            assert_eq!(through(FrameReader::new(), &outside), outside);
        }
    }

    /// End-to-end over real loopback sockets, one thread per "process":
    /// the committed assignment must be bit-for-bit the simulator's —
    /// also when every listener's first connection is a stranger that
    /// never sends a byte (port scan, health probe), and its second a
    /// peer that forges timers and names ranks the run does not have.
    #[test]
    fn loopback_run_matches_simulator_assignment() {
        let num_ranks = 4usize;
        let seed = 4242u64;
        let dist = Distribution::concentrated(num_ranks, 1, 12);
        let cfg = LbProtocolConfig {
            trials: 1,
            iters: 2,
            fanout: 2,
            rounds: 3,
            ..Default::default()
        }
        .hardened(RetryConfig {
            timeout: 2e-3,
            backoff: 2.0,
            max_retries: 12,
            stage_deadline: 10.0,
            ..Default::default()
        })
        // A live peer must go silent for 300 ms before it is suspected
        // (the `sockets_hotspot` knobs): the rank threads share two
        // cores with every other test of a debug build.
        .crash_tolerant(HealthConfig {
            period: 10e-3,
            suspicion_threshold: 30.0,
            startup_grace: 0.5,
        })
        .partition_tolerant(PartitionConfig { park_deadline: 1.0 });
        let factory = RngFactory::new(seed);

        // Reference: the deterministic simulator.
        let mut sim = Simulator::new(
            LbRank::for_dist(&dist, cfg, factory),
            NetworkModel::default(),
            &factory,
        );
        let report = sim.run();
        assert!(report.completed);
        let reference: Vec<_> = sim.into_ranks().iter().map(LbRank::canonical).collect();

        // Real sockets on loopback.
        let listeners: Vec<TcpListener> = (0..num_ranks)
            .map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind"))
            .collect();
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        let _silent: Vec<TcpStream> = peers
            .iter()
            .map(|addr| TcpStream::connect(addr).expect("connect"))
            .collect();
        let _hostile: Vec<TcpStream> = peers
            .iter()
            .enumerate()
            .map(|(r, addr)| {
                let mut s = TcpStream::connect(addr).expect("connect");
                let as_rank = ((r + 1) % num_ranks) as u32;
                s.write_all(&HANDSHAKE_MAGIC.to_le_bytes()).expect("magic");
                s.write_all(&as_rank.to_le_bytes()).expect("rank");
                for wire in forged_timers()
                    .iter()
                    .chain(&frames_naming(num_ranks as u32))
                {
                    s.write_all(&encode_frame(wire)).expect("frame");
                }
                s
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut reports: Vec<Option<SocketRankReport>> = (0..num_ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let ranks = LbRank::for_dist(&dist, cfg, factory);
            for (r, (listener, rank)) in listeners.into_iter().zip(ranks).enumerate() {
                let peers = peers.clone();
                let stop = Arc::clone(&stop);
                let done = Arc::clone(&done);
                handles.push(scope.spawn(move || {
                    run_socket_rank(
                        RankId::from(r),
                        rank,
                        listener,
                        peers,
                        SocketConfig {
                            seed,
                            deadline: Duration::from_secs(30),
                            ..Default::default()
                        },
                        stop,
                        || {
                            done.fetch_add(1, Ordering::SeqCst);
                        },
                    )
                }));
            }
            // Orchestrate in miniature: wait for everyone, then stop.
            let t0 = Instant::now();
            while done.load(Ordering::SeqCst) < num_ranks {
                assert!(t0.elapsed() < Duration::from_secs(30), "ranks hung");
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, Ordering::SeqCst);
            for (r, h) in handles.into_iter().enumerate() {
                reports[r] = Some(h.join().expect("rank thread"));
            }
        });

        let mut total = 0usize;
        for (r, report) in reports.iter().enumerate() {
            let report = report.as_ref().expect("collected");
            assert!(report.finished, "rank {r} must finish");
            assert!(!report.rank.degraded(), "rank {r} degraded");
            // A run that restarted on a smaller view legitimately commits
            // another placement; say so before comparing placements.
            let view = report.rank.view();
            assert!(
                view.generation() == 0 && !report.rank.parked(),
                "rank {r} left the initial view (generation {}, dead {:?}, parked {}): \
                 nobody crashed, so the host stalled a live peer past the suspicion \
                 threshold — the placement below is not comparable",
                view.generation(),
                view.dead(),
                report.rank.parked(),
            );
            let placed = report.rank.canonical();
            total += placed.len();
            assert_eq!(placed, reference[r], "rank {r} assignment diverged");
        }
        assert_eq!(total, dist.num_tasks());
    }
}
