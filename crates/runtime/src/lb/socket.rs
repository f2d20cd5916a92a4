//! TCP socket driver: the LB protocol over real OS sockets.
//!
//! The third driver in the sans-I/O stack (after the discrete-event
//! [`crate::sim::Simulator`] and the threaded `parallel` executor): one
//! OS process per rank, [`LbWire`] frames over length-prefixed TCP
//! streams, the same [`LbRank`] actor and the same
//! [`crate::emulator::LinkEmulator`]-interpreted [`FaultPlan`] as
//! everywhere else.
//!
//! A rank runs on one thread, the caller's (see `DESIGN.md` §12):
//!
//! ```text
//! Host::run         the one LbRank's handlers, timers and held copies
//!   egress          frame straight into the peer link's byte queue
//!   receive         write the queues without blocking, connect a link
//!                   whose backoff ran out, then ppoll(2) the listener,
//!                   every accepted stream and every link the kernel
//!                   would not take all bytes from — without blocking
//!                   for a spin after a turn that did work, then
//!                   blocking; accept, read the 8-byte handshake as it
//!                   arrives, then stream → FrameReader → the host
//! ```
//!
//! `Host::run` is the loop a parallel worker runs, here as a host of one
//! rank (a layout of one-rank blocks over one host per rank, so a
//! self-send stays in the host and egress only frames for peers): sends
//! pass through the emulator at send time (per-link fault ordinals are
//! keyed by the sending rank, so per-process emulators reproduce the
//! single-emulator simulator), delay fates hold messages back on the
//! *sender* side, and crash windows gate admission at delivery time.
//! Only the socket transport and the stop rule live here. Real TCP loss
//! — a reset mid-run, a peer not yet listening — is absorbed by
//! reconnect-with-backoff below and the rank's reliable channel above,
//! the same contract as an injected drop.
//!
//! Connects run inline, bounded by `CONNECT_BOUND`: on loopback, the
//! one deployment so far, a connect is accepted or refused at once. A
//! peer on a real network that drops SYNs would hold the rank's thread
//! for that bound once per backoff.
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
use crate::host::{Host, IdleStats, Inbound, Layout, Transport, SPIN};
use crate::sim::Protocol;
use rand::Rng;
use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
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

/// Serialize one wire frame: length prefix, payload CRC, payload. The
/// driver lays frames straight into a link's queue the same way.
pub fn encode_frame(wire: &LbWire) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, wire);
    out
}

/// Serialize one wire frame onto `out`: a blank 8-byte header, the
/// payload encoded in place, then the header filled in.
fn frame_into(out: &mut Vec<u8>, wire: &LbWire) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    wire.encode_into(out);
    let len = out.len() - at - 8;
    let crc = crc32(&out[at + 8..]);
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
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
        // The header is read through a fixed-size array, so a short or
        // hostile prefix is "not yet", never a panic.
        let (&[l0, l1, l2, l3, c0, c1, c2, c3], body) = unread.split_first_chunk::<8>()?;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
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
        // Decode straight out of the reassembly buffer: the payload is
        // only copied out on the damaged paths, which need to own the
        // bytes they surface.
        let payload = body.get(..len)?;
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

/// How long an accepted stream may take to present its handshake before
/// it is closed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest one connect attempt may hold the rank's thread: well under the
/// 300 ms a live peer may go silent before the health detector suspects
/// it. On loopback a connect is accepted or refused at once.
const CONNECT_BOUND: Duration = Duration::from_millis(100);

/// First reconnect backoff; doubles per failed attempt up to the ceiling.
const INITIAL_BACKOFF: Duration = Duration::from_millis(5);
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Bytes one read takes off an inbound stream.
const READ_CHUNK: usize = 64 * 1024;

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
/// the deadline passes, on the calling thread: it starts no other.
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
    let start = Instant::now();
    let mut host = Host::new(
        vec![(me.as_usize(), rank)],
        Layout {
            block: 1,
            hosts: peers.len(),
        },
        start,
        cfg.fault_plan,
        tempered_obs::Recorder::disabled(),
    );
    let mut sockets = Sockets::new(me, listener, &peers, cfg.seed);
    host.run(&mut sockets, |host, _idle| {
        if host.newly_done() > 0 {
            on_done();
        }
        stop.load(Ordering::SeqCst) || start.elapsed() >= cfg.deadline
    });
    drop(sockets);

    let wall_time_s = host.now();
    let (mut ranks, network, faults, _) = host.finish();
    // The host was built above over this one rank; no input bytes reach
    // the `expect`.
    let (_, rank) = ranks.pop().expect("the host holds this rank");
    SocketRankReport {
        finished: rank.is_done(),
        rank,
        network,
        faults,
        wall_time_s,
    }
}

/// Every socket of one rank, driven from the rank's own thread: the
/// listener, the accepted streams it reads frames from, and one outbound
/// link per peer. [`Host::run`]'s receive step writes what the links
/// hold, then waits in `ppoll(2)` on the listener, the inbound streams
/// and every link the kernel could not yet take all bytes from.
struct Sockets {
    me: RankId,
    listener: TcpListener,
    /// Accepted streams, in the order they were accepted.
    inbound: Vec<InStream>,
    /// One link per rank, `None` at our own index.
    links: Vec<Option<Link>>,
    /// Frames read off the streams and not yet handed to the host.
    ready: VecDeque<Inbound<LbWire>>,
    /// The poll set, rebuilt each wait.
    fds: Vec<PollFd>,
    chunk: Vec<u8>,
}

impl Sockets {
    /// Take over `listener` and connect to every peer in `peers` once.
    fn new(me: RankId, listener: TcpListener, peers: &[SocketAddr], seed: u64) -> Self {
        // Reached before any peer connects, so no input bytes reach it:
        // only an OS that refuses the option on our own listener.
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let now = Instant::now();
        let links = peers
            .iter()
            .enumerate()
            .map(|(peer, &addr)| {
                (peer != me.as_usize()).then(|| {
                    // Jittered backoff, deterministic per (seed, me, peer)
                    // stream and uncorrelated across links.
                    let jitter = RngFactory::new(seed).rank_stream(
                        b"sockrtry",
                        me.as_usize() as u64,
                        peer as u64,
                    );
                    let mut link = Link {
                        addr,
                        stream: None,
                        queue: Vec::new(),
                        sent: 0,
                        retry_at: now,
                        backoff: INITIAL_BACKOFF,
                        jitter,
                    };
                    link.connect(me, now);
                    link
                })
            })
            .collect();
        Sockets {
            me,
            listener,
            inbound: Vec::new(),
            links,
            ready: VecDeque::new(),
            fds: Vec::new(),
            chunk: vec![0; READ_CHUNK],
        }
    }

    /// Write what the links hold, and connect those whose backoff ran out.
    fn pump(&mut self) {
        let now = Instant::now();
        for link in self.links.iter_mut().flatten() {
            if link.stream.is_none() && link.retry_at <= now {
                link.connect(self.me, now);
            }
            link.flush(now);
        }
    }

    /// Wait up to `wait` for the listener, an inbound stream or a stalled
    /// link, then accept, read and write what became ready.
    fn poll(&mut self, wait: Duration) {
        let now = Instant::now();
        self.inbound
            .retain(|s| s.from.is_some() || now < s.accepted + CONNECT_TIMEOUT);
        self.fds.clear();
        self.fds.push(PollFd::new(&self.listener, POLLIN));
        for s in &self.inbound {
            self.fds.push(PollFd::new(&s.stream, POLLIN));
        }
        for link in self.links.iter().flatten() {
            if let Some(stream) = link.stream.as_ref().filter(|_| link.backlog()) {
                self.fds.push(PollFd::new(stream, POLLOUT));
            }
        }
        if !ppoll_fds(&mut self.fds, wait) {
            return;
        }
        let (me, num_ranks) = (self.me, self.links.len());
        let mut fds = self.fds[1..].iter();
        let (chunk, ready) = (&mut self.chunk, &mut self.ready);
        self.inbound.retain_mut(|s| {
            let woke = fds.next().is_some_and(|fd| fd.revents != 0);
            !woke || s.read(me, num_ranks, chunk, ready)
        });
        if fds.any(|fd| fd.revents != 0) {
            self.pump();
        }
        if self.fds[0].revents != 0 {
            self.accept(now);
        }
    }

    /// Take every connection waiting on the listener.
    fn accept(&mut self, now: Instant) {
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                self.inbound.push(InStream {
                    stream,
                    accepted: now,
                    handshake: [0; 8],
                    filled: 0,
                    from: None,
                    reader: FrameReader::for_roster(self.links.len()),
                });
            }
        }
    }
}

impl Transport<LbWire> for Sockets {
    /// Writes first, so what the last turn sent leaves before the wait.
    /// Then, as in the threaded executor, an `armed` host polls without
    /// blocking for [`SPIN`] before it sleeps in `ppoll`: waking a thread
    /// costs more than a handler, and the reply to what the turn just
    /// sent is usually a peer's handler away.
    fn receive(
        &mut self,
        wait: Duration,
        armed: bool,
        idle: &mut IdleStats,
    ) -> Result<Inbound<LbWire>, RecvTimeoutError> {
        self.pump();
        let began = Instant::now();
        if armed && self.ready.is_empty() && !wait.is_zero() {
            idle.spins += 1;
            let spin = SPIN.min(wait);
            while self.ready.is_empty() && began.elapsed() < spin {
                std::thread::yield_now();
                self.poll(Duration::ZERO);
            }
            idle.spin_hits += u64::from(!self.ready.is_empty());
        }
        if self.ready.is_empty() {
            let left = wait.saturating_sub(began.elapsed());
            idle.parks += u64::from(!left.is_zero());
            self.poll(left);
        }
        self.ready.pop_front().ok_or(RecvTimeoutError::Timeout)
    }

    fn try_receive(&mut self) -> Option<Inbound<LbWire>> {
        self.ready.pop_front()
    }

    fn egress(&mut self, _from: RankId, to: RankId, msg: LbWire) {
        // The host keeps a self-send, and `FrameReader` drops a frame
        // naming a rank off the roster as damaged, so egress only ever
        // names a peer: no input bytes reach the `expect`.
        let link = self.links[to.as_usize()].as_mut().expect("a peer's link");
        frame_into(&mut link.queue, &msg);
    }
}

/// An accepted stream: the 8-byte handshake (magic, then the sender's
/// rank id), read as it arrives, then frames from that rank.
struct InStream {
    stream: TcpStream,
    accepted: Instant,
    handshake: [u8; 8],
    filled: usize,
    /// The sender, once a valid handshake is in. A stream that has not
    /// presented one within [`CONNECT_TIMEOUT`] is closed: a connection
    /// that never speaks (port scan, health probe) costs nothing else.
    from: Option<RankId>,
    reader: FrameReader,
}

impl InStream {
    /// Read what the stream holds into `ready`; false once it is closed,
    /// broken or has presented a bad handshake.
    fn read(
        &mut self,
        me: RankId,
        num_ranks: usize,
        chunk: &mut [u8],
        ready: &mut VecDeque<Inbound<LbWire>>,
    ) -> bool {
        let n = match self.stream.read(chunk) {
            Ok(0) => return false, // peer closed; it reconnects if it has more
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return true
            }
            Err(_) => return false,
        };
        let mut bytes = &chunk[..n];
        let from = match self.from {
            Some(from) => from,
            None => {
                let take = bytes.len().min(8 - self.filled);
                self.handshake[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
                self.filled += take;
                bytes = &bytes[take..];
                if self.filled < 8 {
                    return true;
                }
                let [m0, m1, m2, m3, f0, f1, f2, f3] = self.handshake;
                let magic = u32::from_le_bytes([m0, m1, m2, m3]);
                let from = u32::from_le_bytes([f0, f1, f2, f3]);
                if magic != HANDSHAKE_MAGIC || from as usize >= num_ranks {
                    return false;
                }
                *self.from.insert(RankId::new(from))
            }
        };
        self.reader.push(bytes);
        while let Some(wire) = self.reader.next_frame() {
            ready.push_back((from, me, wire));
        }
        true
    }
}

/// The outbound stream to one peer and the frames queued for it.
///
/// Writes never block: what the kernel does not take stays queued and is
/// written when the stream polls writable. If a write fails, the stream
/// is dropped and the frame it cut is resent whole on the next connection
/// — the receiver dedups a frame it did get, and the reliable channel
/// covers one that was lost.
struct Link {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Whole frames; the first `sent` bytes have left.
    queue: Vec<u8>,
    sent: usize,
    /// When to try again while there is no stream.
    retry_at: Instant,
    backoff: Duration,
    jitter: rand::rngs::SmallRng,
}

impl Link {
    /// Bytes are queued that the stream has not taken.
    fn backlog(&self) -> bool {
        self.sent < self.queue.len()
    }

    /// One connect attempt, bounded by [`CONNECT_BOUND`], and the
    /// handshake; on failure, the next attempt waits out the backoff.
    fn connect(&mut self, me: RankId, now: Instant) {
        let mut hs = [0u8; 8];
        hs[0..4].copy_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
        hs[4..8].copy_from_slice(&me.as_u32().to_le_bytes());
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_BOUND).and_then(|mut s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            // A fresh stream's empty send buffer takes all 8 bytes.
            s.write_all(&hs)?;
            Ok(s)
        });
        match stream {
            Ok(s) => {
                self.stream = Some(s);
                self.backoff = INITIAL_BACKOFF;
            }
            Err(_) => {
                self.retry_at = now + self.backoff.mul_f64(0.5 + self.jitter.gen::<f64>());
                self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
            }
        }
    }

    /// Write queued bytes until the kernel takes no more, then drop the
    /// frames that have left whole.
    fn flush(&mut self, now: Instant) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let broken = loop {
            if self.sent == self.queue.len() {
                break false;
            }
            match stream.write(&self.queue[self.sent..]) {
                Ok(n) if n > 0 => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => break true,
            }
        };
        // Walk the frame headers to the first frame not fully written.
        let mut whole = 0;
        while let Some(&[l0, l1, l2, l3]) = self.queue[whole..].first_chunk::<4>() {
            let end = whole + 8 + u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            if end > self.sent {
                break;
            }
            whole = end;
        }
        self.queue.drain(..whole);
        self.sent -= whole;
        if broken {
            self.stream = None;
            self.sent = 0;
            self.retry_at = now;
        }
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

impl PollFd {
    fn new(socket: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Wait up to `wait` for an entry of `fds` to become ready; false when
/// none did (a timeout, a signal or a failed call).
fn ppoll_fds(fds: &mut [PollFd], wait: Duration) -> bool {
    let timeout = Timespec {
        tv_sec: wait.as_secs() as c_long,
        tv_nsec: wait.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // pollfd entries, passed with its own length, into which the kernel
    // writes only `revents`; `timeout` lives across the call, and a null
    // signal mask leaves the thread's mask as it is.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    ready > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::lb::{LbMsg, LbProtocolConfig, PartitionConfig, TaskEntry};
    use crate::reliable::RetryConfig;
    use crate::sim::{Ctx, NetworkModel, Simulator};
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

    /// Sends `bulk` to rank 1 on start and ticks a 1 ms timer; answers an
    /// `Ack` with an `Ack` carrying the ticks so far.
    struct Pinger {
        bulk: Vec<LbWire>,
        ticks: u64,
    }

    impl Protocol for Pinger {
        type Msg = LbWire;
        fn on_start(&mut self, ctx: &mut Ctx<'_, LbWire>) {
            for wire in self.bulk.drain(..) {
                ctx.send(RankId::new(1), wire, 8);
            }
            ctx.schedule(1e-3, LbWire::HeartbeatTimer);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, msg: LbWire) {
            match msg {
                LbWire::HeartbeatTimer => {
                    self.ticks += 1;
                    ctx.schedule(1e-3, LbWire::HeartbeatTimer);
                }
                LbWire::Ack { .. } => ctx.send(from, LbWire::Ack { seq: self.ticks }, 8),
                _ => {}
            }
        }
    }

    fn pinger(bulk: Vec<LbWire>) -> Pinger {
        Pinger { bulk, ticks: 0 }
    }

    /// Gossip frames of `pairs` pairs each, told apart by their round.
    fn gossip(frames: u32, pairs: usize) -> Vec<LbWire> {
        let pairs: Arc<[(RankId, f64)]> = vec![(RankId::new(0), 1.5); pairs].into();
        (0..frames)
            .map(|round| {
                LbWire::Raw(LbMsg::Gossip {
                    epoch: 1,
                    round,
                    pairs: Arc::clone(&pairs),
                })
            })
            .collect()
    }

    fn bind() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    /// Host `rank` as rank 0 of a `peers.len()`-rank run on `listener`,
    /// on the calling thread, until `stop` is raised.
    fn serve<P: Protocol<Msg = LbWire>>(
        rank: P,
        listener: TcpListener,
        peers: &[SocketAddr],
        stop: &AtomicBool,
    ) -> P {
        let one_each = Layout {
            block: 1,
            hosts: peers.len(),
        };
        let mut host = Host::new(
            vec![(0, rank)],
            one_each,
            Instant::now(),
            FaultPlan::none(),
            tempered_obs::Recorder::disabled(),
        );
        let mut sockets = Sockets::new(RankId::new(0), listener, peers, 0);
        host.run(&mut sockets, |_, _| stop.load(Ordering::SeqCst));
        let (mut ranks, ..) = host.finish();
        ranks.pop().expect("one rank").1
    }

    /// Raises its flag when dropped, so a failed assertion ends the rank
    /// thread it shares a scope with instead of hanging the test.
    struct StopOnDrop<'a>(&'a AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// The next connection on `listener`, within ten seconds.
    fn accept(listener: &TcpListener) -> TcpStream {
        listener.set_nonblocking(true).expect("nonblocking");
        let t0 = Instant::now();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).expect("blocking");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .expect("timeout");
                    return stream;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    assert!(t0.elapsed() < Duration::from_secs(10), "no connection");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept: {e}"),
            }
        }
    }

    fn handshake(from: u32) -> Vec<u8> {
        [HANDSHAKE_MAGIC.to_le_bytes(), from.to_le_bytes()].concat()
    }

    /// The next frame on `stream`, read through `reader`.
    fn next_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> LbWire {
        let mut chunk = vec![0; READ_CHUNK];
        loop {
            if let Some(wire) = reader.next_frame() {
                return wire;
            }
            let n = stream.read(&mut chunk).expect("a frame within the timeout");
            assert!(n > 0, "closed mid-frame");
            reader.push(&chunk[..n]);
        }
    }

    /// A connection from rank 0, handshake read.
    fn accept_from_rank_0(listener: &TcpListener) -> TcpStream {
        let mut stream = accept(listener);
        let mut hs = [0; 8];
        stream.read_exact(&mut hs).expect("handshake");
        assert_eq!(hs[..], handshake(0)[..]);
        stream
    }

    #[test]
    fn a_peer_that_stops_reading_stalls_only_its_own_link() {
        // About 14 MB for rank 1, which reads nothing at first: loopback
        // buffers take about 4 MB of it.
        let bulk = gossip(12, 100_000);
        let (listener, addr) = bind();
        let (stalled, stalled_addr) = bind();
        let (live, live_addr) = bind();
        let peers = [addr, stalled_addr, live_addr];
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            scope.spawn(|| serve(pinger(bulk.clone()), listener, &peers, &stop));
            let mut stalled = accept_from_rank_0(&stalled);
            let mut replies = accept_from_rank_0(&live);
            let mut pings = TcpStream::connect(addr).expect("connect");
            pings.write_all(&handshake(2)).expect("handshake");

            // Rank 2 is answered and the timer ticks on meanwhile.
            let mut reader = FrameReader::new();
            let mut last = 0;
            for seq in 0..5 {
                std::thread::sleep(Duration::from_millis(20));
                pings
                    .write_all(&encode_frame(&LbWire::Ack { seq }))
                    .expect("ping");
                let LbWire::Ack { seq: ticks } = next_frame(&mut replies, &mut reader) else {
                    panic!("not an answer");
                };
                assert!(ticks > last, "no tick between pings: {ticks} after {last}");
                last = ticks;
            }

            // Rank 1 drains: every queued frame arrives intact, in order.
            let mut reader = FrameReader::new();
            for wire in &bulk {
                assert!(
                    next_frame(&mut stalled, &mut reader) == *wire,
                    "frame damaged"
                );
            }
        });
    }

    #[test]
    fn a_frame_cut_by_a_write_error_is_resent_whole() {
        // A 12 MB frame, then a small one. The peer takes 64 KiB and closes
        // with megabytes unread, which resets the connection under the
        // rest of the first frame: loopback buffers hold about 4 MB while
        // the peer reads so little.
        let mut frames = gossip(1, 1_000_000);
        frames.push(LbWire::Ack { seq: 7 });
        let (listener, addr) = bind();
        let (peer, peer_addr) = bind();
        let peers = [addr, peer_addr];
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            scope.spawn(|| serve(pinger(frames.clone()), listener, &peers, &stop));
            let mut first = accept_from_rank_0(&peer);
            let mut cut = vec![0; 64 << 10];
            first.read_exact(&mut cut).expect("the frame's first bytes");
            drop(first);
            let mut reader = FrameReader::new();
            reader.push(&cut);
            assert_eq!(reader.next_frame(), None, "the cut frame never completes");

            // Both frames come whole on the next connection, once each.
            let mut second = accept_from_rank_0(&peer);
            let mut reader = FrameReader::new();
            for wire in &frames {
                assert!(
                    next_frame(&mut second, &mut reader) == *wire,
                    "frame damaged"
                );
            }
            second
                .set_read_timeout(Some(Duration::from_millis(100)))
                .expect("timeout");
            let mut more = [0; 1];
            assert!(second.read(&mut more).is_err(), "a frame came twice");
            assert_eq!(reader.pending(), 0);
        });
    }

    #[test]
    fn a_silent_connection_is_closed_after_the_handshake_patience() {
        let (listener, addr) = bind();
        let (_peer, peer_addr) = bind();
        let peers = [addr, peer_addr];
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            scope.spawn(|| serve(pinger(Vec::new()), listener, &peers, &stop));
            let t0 = Instant::now();
            let mut silent = TcpStream::connect(addr).expect("connect");
            silent
                .set_read_timeout(Some(CONNECT_TIMEOUT + Duration::from_secs(2)))
                .expect("timeout");
            let mut byte = [0; 1];
            assert_eq!(silent.read(&mut byte).expect("closed in time"), 0, "EOF");
            let waited = t0.elapsed();
            assert!(
                waited >= CONNECT_TIMEOUT / 2 && waited < CONNECT_TIMEOUT + Duration::from_secs(1),
                "closed after {waited:?}"
            );
        });
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
