//! Wire messages of the asynchronous LB protocol.
//!
//! Every *basic* (TD-counted) message carries the termination-detection
//! epoch it belongs to, so ranks that have not yet advanced to that epoch
//! can buffer it instead of processing it out of order — the standard
//! epoch-stamping discipline of barrier-free AMT runtimes.

use crate::census::{vec_bytes, HeapCensus, Owner};
use crate::collective::LoadSummary;
use crate::crc::crc32;
use crate::termination::TdMsg;
use tempered_core::ids::{RankId, TaskId};

/// A migratable task as carried by protocol messages: identity, measured
/// load, and the rank that physically holds its data (its *home* at the
/// start of the LB pass — lazy migration fetches from there at commit
/// time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskEntry {
    /// Stable task identity.
    pub id: TaskId,
    /// Instrumented load (f64 seconds).
    pub load: f64,
    /// Rank holding the task's data since the LB pass began.
    pub home: RankId,
}

/// Wire envelope around [`LbMsg`]: the delivery layer of the hardened
/// protocol.
///
/// With [`super::LbProtocolConfig::reliability`] unset every message
/// travels as [`LbWire::Raw`] — zero overhead, bit-identical to the
/// historical best-effort protocol. With a [`crate::reliable::RetryConfig`]
/// installed, protocol messages travel as [`LbWire::Data`] with a
/// per-link sequence number and are acknowledged / retransmitted /
/// deduplicated by a [`crate::reliable::ReliableChannel`]; the four timer
/// variants are scheduled by a rank *to itself* via
/// [`crate::sim::Ctx::schedule`] and never cross the network — they do
/// not [`LbWire::decode`].
#[derive(Clone, Debug, PartialEq)]
pub enum LbWire {
    /// Best-effort transmission (legacy mode; no delivery guarantee).
    Raw(LbMsg),
    /// Reliable transmission: retransmitted until acknowledged,
    /// deduplicated by `seq` at the receiver.
    Data {
        /// Per-(sender → receiver) sequence number, starting at 1.
        seq: u64,
        /// The protocol payload.
        msg: LbMsg,
    },
    /// Acknowledgement for a [`LbWire::Data`] with the same `seq`
    /// (best-effort; a lost ack merely causes a redundant resend).
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Self-timer: check whether `(to, seq)` is still unacknowledged
    /// and retransmit or give up.
    RetryTimer {
        /// Destination of the pending message.
        to: RankId,
        /// Its sequence number.
        seq: u64,
    },
    /// Self-timer, the rank's one armed stage watchdog: if the rank's
    /// stage-transition counter still equals `stage_seq` when this fires,
    /// the stage has made no progress for a full deadline and the rank
    /// degrades; if the stage moved on, the timer re-arms for what is
    /// left of the new stage's deadline.
    StageTimer {
        /// Value of the stage counter when the timer was armed; a timer
        /// the rank no longer holds as armed is ignored.
        stage_seq: u64,
    },
    /// Liveness beacon for the heartbeat failure detector
    /// ([`crate::health::HealthDetector`]). Deliberately *outside* the
    /// reliable layer: heartbeats are periodic and self-correcting, so
    /// retransmitting a lost one is pointless — and a crashed receiver
    /// must not burn the sender's retry budget.
    Heartbeat,
    /// Self-timer driving the heartbeat send period and the failure
    /// detector's poll.
    HeartbeatTimer,
    /// Self-timer: if the rank is still parked (quorum-less after a
    /// partition) with park counter `park_seq` when this fires, the heal
    /// never came — the rank finishes read-only on its original
    /// placement instead of waiting forever.
    ParkTimer {
        /// Value of the park counter when the timer was armed.
        park_seq: u64,
    },
    /// A frame whose bits were corrupted in flight ([`LinkFaultKind::
    /// Corrupt`](crate::fault::LinkFaultKind)): the canonical encoding of
    /// the original frame with at least one bit flipped, plus the CRC32
    /// the sender computed over the *un*-corrupted bytes. Receivers
    /// recompute the checksum and drop the frame on mismatch; the
    /// reliable layer then re-delivers, exactly as for a loss.
    Damaged {
        /// CRC32 ([`crate::crc::crc32`]) of the frame as sent.
        crc: u32,
        /// The frame bytes as received (corrupted).
        bytes: Vec<u8>,
    },
}

/// Wire overhead of the reliable framing (sequence number + tag),
/// added to [`LbMsg::wire_bytes`] for [`LbWire::Data`] transmissions.
pub const SEQ_OVERHEAD_BYTES: usize = 12;

impl LbWire {
    /// Count the heap behind this frame as [`Owner::Payloads`]: its
    /// message's (see [`LbMsg::heap_census`]) or a damaged frame's bytes.
    pub(crate) fn heap_census(&self, census: &mut HeapCensus) {
        match self {
            LbWire::Raw(msg) | LbWire::Data { msg, .. } => msg.heap_census(census),
            LbWire::Damaged { bytes, .. } => census.add(Owner::Payloads, vec_bytes(bytes)),
            LbWire::Ack { .. }
            | LbWire::RetryTimer { .. }
            | LbWire::StageTimer { .. }
            | LbWire::Heartbeat
            | LbWire::HeartbeatTimer
            | LbWire::ParkTimer { .. } => {}
        }
    }

    /// Modeled wire size. Timers never cross the network and cost 0.
    pub fn wire_bytes(&self) -> usize {
        match self {
            LbWire::Raw(m) => m.wire_bytes(),
            LbWire::Data { msg, .. } => msg.wire_bytes() + SEQ_OVERHEAD_BYTES,
            LbWire::Ack { .. } => SEQ_OVERHEAD_BYTES,
            LbWire::Heartbeat => 8,
            // A damaged frame occupies the same bandwidth as the original.
            LbWire::Damaged { bytes, .. } => bytes.len(),
            LbWire::RetryTimer { .. }
            | LbWire::StageTimer { .. }
            | LbWire::HeartbeatTimer
            | LbWire::ParkTimer { .. } => 0,
        }
    }

    /// Canonical byte encoding of a frame: the integrity-checked unit the
    /// CRC32 covers. This is a modeling device, not an interop format —
    /// it only has to be deterministic and injective enough that any
    /// single flipped bit changes the checksum (CRC32 detects all
    /// single-bit errors), which the corruption fault model relies on.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        b
    }

    /// [`LbWire::encode`] into a caller-owned buffer: appends the frame
    /// bytes without clearing, so framing layers can lay headers and
    /// payload into one allocation (see the socket driver's
    /// `encode_frame`) and hot loops can reuse a scratch buffer.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        fn u32le(b: &mut Vec<u8>, v: u32) {
            b.extend_from_slice(&v.to_le_bytes());
        }
        fn u64le(b: &mut Vec<u8>, v: u64) {
            b.extend_from_slice(&v.to_le_bytes());
        }
        fn f64le(b: &mut Vec<u8>, v: f64) {
            u64le(b, v.to_bits());
        }
        fn summary(b: &mut Vec<u8>, s: &LoadSummary) {
            f64le(b, s.total);
            f64le(b, s.max);
            u64le(b, s.count);
        }
        fn msg(b: &mut Vec<u8>, m: &LbMsg) {
            match m {
                LbMsg::ReduceUp { slot, summary: s } => {
                    b.push(0);
                    u32le(b, *slot);
                    summary(b, s);
                }
                LbMsg::ReduceDown { slot, summary: s } => {
                    b.push(1);
                    u32le(b, *slot);
                    summary(b, s);
                }
                LbMsg::Gossip {
                    epoch,
                    round,
                    pairs,
                } => {
                    b.push(2);
                    u64le(b, *epoch);
                    u32le(b, *round);
                    u32le(b, pairs.len() as u32);
                    for (r, load) in pairs.iter() {
                        u32le(b, r.as_u32());
                        f64le(b, *load);
                    }
                }
                LbMsg::Propose { epoch, tasks }
                | LbMsg::ProposeReply {
                    epoch,
                    rejected: tasks,
                } => {
                    b.push(if matches!(m, LbMsg::Propose { .. }) {
                        3
                    } else {
                        4
                    });
                    u64le(b, *epoch);
                    u32le(b, tasks.len() as u32);
                    for t in tasks {
                        u64le(b, t.id.as_u64());
                        f64le(b, t.load);
                        u32le(b, t.home.as_u32());
                    }
                }
                LbMsg::Fetch { epoch, tasks } | LbMsg::TaskData { epoch, tasks } => {
                    b.push(if matches!(m, LbMsg::Fetch { .. }) {
                        5
                    } else {
                        6
                    });
                    u64le(b, *epoch);
                    u32le(b, tasks.len() as u32);
                    for t in tasks {
                        u64le(b, t.as_u64());
                    }
                }
                LbMsg::View { base, dead } => {
                    b.push(7);
                    u64le(b, *base);
                    u32le(b, dead.len() as u32);
                    for r in dead.iter() {
                        u32le(b, r.as_u32());
                    }
                }
                LbMsg::Knock => b.push(8),
                LbMsg::Heal { base, dead } => {
                    b.push(9);
                    u64le(b, *base);
                    u32le(b, dead.len() as u32);
                    for r in dead.iter() {
                        u32le(b, r.as_u32());
                    }
                }
                LbMsg::Td(TdMsg::Token {
                    epoch,
                    wave,
                    sent,
                    recv,
                }) => {
                    b.push(10);
                    u64le(b, *epoch);
                    u64le(b, *wave);
                    u64le(b, *sent);
                    u64le(b, *recv);
                }
                LbMsg::Td(TdMsg::Terminated { epoch, sent }) => {
                    b.push(11);
                    u64le(b, *epoch);
                    u64le(b, *sent);
                }
            }
        }
        match self {
            LbWire::Raw(m) => {
                b.push(0x20);
                msg(b, m);
            }
            LbWire::Data { seq, msg: m } => {
                b.push(0x21);
                u64le(b, *seq);
                msg(b, m);
            }
            LbWire::Ack { seq } => {
                b.push(0x22);
                u64le(b, *seq);
            }
            LbWire::Heartbeat => b.push(0x23),
            LbWire::Damaged { crc, bytes } => {
                b.push(0x24);
                u32le(b, *crc);
                b.extend_from_slice(bytes);
            }
            LbWire::RetryTimer { to, seq } => {
                b.push(0x25);
                u32le(b, to.as_u32());
                u64le(b, *seq);
            }
            LbWire::StageTimer { stage_seq } => {
                b.push(0x26);
                u64le(b, *stage_seq);
            }
            LbWire::HeartbeatTimer => b.push(0x27),
            LbWire::ParkTimer { park_seq } => {
                b.push(0x28);
                u64le(b, *park_seq);
            }
        }
    }

    /// Decode a frame from its canonical encoding — the exact inverse of
    /// [`LbWire::encode`] on every frame that crosses a network (the four
    /// self-timer variants do not decode: a peer must not be able to fire
    /// a rank's timers). The in-process executors never need this (they
    /// pass `LbWire` values by move), but the TCP socket driver
    /// ([`crate::lb::socket`]) ships the canonical bytes across real
    /// streams and reconstructs the frame on the receiving side.
    ///
    /// Every byte must be consumed: trailing garbage is a framing bug
    /// upstream and is reported, not ignored.
    pub fn decode(bytes: &[u8]) -> Result<LbWire, WireDecodeError> {
        let mut cur = Cursor {
            bytes,
            pos: 0,
            what: "frame",
        };
        let wire = cur.wire()?;
        if cur.pos != bytes.len() {
            return Err(WireDecodeError {
                what: "frame",
                offset: cur.pos,
                kind: WireDecodeErrorKind::TrailingBytes(bytes.len() - cur.pos),
            });
        }
        Ok(wire)
    }

    /// Whether a peer in a `num_ranks`-rank run may put this frame on the
    /// wire, checked once, where bytes become frames
    /// ([`crate::lb::FrameReader`]). Every rank it names — gossip pairs,
    /// task homes, dead sets — must lie inside the roster: the engine
    /// sends to the ranks it learns of and sizes its survivor set by the
    /// dead ones. A [`LbWire::Damaged`] frame must actually fail its
    /// check, and a self-timer or a [`LbMsg::ProposeReply`] is never a
    /// peer's to send.
    pub(crate) fn admissible(&self, num_ranks: usize) -> bool {
        let known = |r: &RankId| r.as_usize() < num_ranks;
        match self {
            LbWire::Raw(msg) | LbWire::Data { msg, .. } => match msg {
                LbMsg::Gossip { pairs, .. } => pairs.iter().all(|(r, _)| known(r)),
                LbMsg::Propose { tasks, .. } => tasks.iter().all(|t| known(&t.home)),
                LbMsg::ProposeReply { .. } => false,
                LbMsg::View { dead, .. } | LbMsg::Heal { dead, .. } => dead.iter().all(known),
                LbMsg::ReduceUp { .. }
                | LbMsg::ReduceDown { .. }
                | LbMsg::Fetch { .. }
                | LbMsg::TaskData { .. }
                | LbMsg::Knock
                | LbMsg::Td(_) => true,
            },
            LbWire::Ack { .. } | LbWire::Heartbeat => true,
            dam @ LbWire::Damaged { .. } => !dam.verify(),
            LbWire::RetryTimer { .. }
            | LbWire::StageTimer { .. }
            | LbWire::HeartbeatTimer
            | LbWire::ParkTimer { .. } => false,
        }
    }

    /// CRC32 over the canonical encoding.
    pub fn checksum(&self) -> u32 {
        crc32(&self.encode())
    }

    /// The frame as it arrives after in-flight corruption: its canonical
    /// bytes with one deterministically chosen bit flipped, paired with
    /// the checksum of the *original* bytes. Verification at the receiver
    /// is guaranteed to fail (CRC32 detects every single-bit error).
    pub fn damaged(&self) -> LbWire {
        let bytes = self.encode();
        let crc = crc32(&bytes);
        let mut bytes = bytes;
        // Derive the flipped position from the checksum: deterministic
        // under a seed (the frame contents are), varied across frames.
        let bit = crc as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        LbWire::Damaged { crc, bytes }
    }

    /// Receiver-side integrity check for a [`LbWire::Damaged`] frame:
    /// `true` when the stored checksum matches the received bytes. Other
    /// frames trivially verify (the model only wraps frames in `Damaged`
    /// when corruption actually struck).
    pub fn verify(&self) -> bool {
        match self {
            LbWire::Damaged { crc, bytes } => crc32(bytes) == *crc,
            _ => true,
        }
    }
}

/// A malformed canonical frame encoding (see [`LbWire::decode`]).
///
/// Carries enough context to name the offending spot: what was being
/// decoded, the byte offset where decoding failed, and the failure kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDecodeError {
    /// What was being decoded when the error struck ("frame", "gossip
    /// pair", ...).
    pub what: &'static str,
    /// Byte offset into the frame at which the error was detected.
    pub offset: usize,
    /// The failure itself.
    pub kind: WireDecodeErrorKind,
}

/// The ways a canonical frame encoding can be malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireDecodeErrorKind {
    /// The frame ended before the field could be read.
    Truncated,
    /// An unknown frame or message tag byte.
    BadTag(u8),
    /// Bytes left over after a complete frame was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            WireDecodeErrorKind::Truncated => {
                write!(f, "truncated {} at byte {}", self.what, self.offset)
            }
            WireDecodeErrorKind::BadTag(tag) => write!(
                f,
                "unknown {} tag {tag:#04x} at byte {}",
                self.what, self.offset
            ),
            WireDecodeErrorKind::TrailingBytes(n) => write!(
                f,
                "{n} trailing byte(s) after {} ending at byte {}",
                self.what, self.offset
            ),
        }
    }
}

impl std::error::Error for WireDecodeError {}

/// Byte-reader over a frame, tracking position for error context.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl Cursor<'_> {
    fn fail(&self, kind: WireDecodeErrorKind) -> WireDecodeError {
        WireDecodeError {
            what: self.what,
            offset: self.pos,
            kind,
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u8], WireDecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.fail(WireDecodeErrorKind::Truncated));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireDecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn rank(&mut self) -> Result<RankId, WireDecodeError> {
        Ok(RankId::new(self.u32()?))
    }

    /// Length prefix for a repeated field. Bounded by the bytes actually
    /// remaining (each element is at least one byte), so a corrupt length
    /// cannot provoke a huge allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, WireDecodeError> {
        let n = self.u32()? as usize;
        if n * min_elem_bytes > self.bytes.len() - self.pos {
            return Err(self.fail(WireDecodeErrorKind::Truncated));
        }
        Ok(n)
    }

    fn summary(&mut self) -> Result<LoadSummary, WireDecodeError> {
        Ok(LoadSummary {
            total: self.f64()?,
            max: self.f64()?,
            count: self.u64()?,
        })
    }

    fn task_entries(&mut self) -> Result<Vec<TaskEntry>, WireDecodeError> {
        let n = self.len(20)?;
        (0..n)
            .map(|_| {
                Ok(TaskEntry {
                    id: TaskId::new(self.u64()?),
                    load: self.f64()?,
                    home: self.rank()?,
                })
            })
            .collect()
    }

    fn task_ids(&mut self) -> Result<Vec<TaskId>, WireDecodeError> {
        let n = self.len(8)?;
        (0..n).map(|_| Ok(TaskId::new(self.u64()?))).collect()
    }

    fn ranks(&mut self) -> Result<std::sync::Arc<[RankId]>, WireDecodeError> {
        let n = self.len(4)?;
        (0..n).map(|_| self.rank()).collect()
    }

    fn msg(&mut self) -> Result<LbMsg, WireDecodeError> {
        self.what = "message";
        let tag = self.u8()?;
        Ok(match tag {
            0 => LbMsg::ReduceUp {
                slot: self.u32()?,
                summary: self.summary()?,
            },
            1 => LbMsg::ReduceDown {
                slot: self.u32()?,
                summary: self.summary()?,
            },
            2 => {
                let epoch = self.u64()?;
                let round = self.u32()?;
                let n = self.len(12)?;
                let pairs = (0..n)
                    .map(|_| Ok((self.rank()?, self.f64()?)))
                    .collect::<Result<_, _>>()?;
                LbMsg::Gossip {
                    epoch,
                    round,
                    pairs,
                }
            }
            3 => LbMsg::Propose {
                epoch: self.u64()?,
                tasks: self.task_entries()?,
            },
            4 => LbMsg::ProposeReply {
                epoch: self.u64()?,
                rejected: self.task_entries()?,
            },
            5 => LbMsg::Fetch {
                epoch: self.u64()?,
                tasks: self.task_ids()?,
            },
            6 => LbMsg::TaskData {
                epoch: self.u64()?,
                tasks: self.task_ids()?,
            },
            7 => LbMsg::View {
                base: self.u64()?,
                dead: self.ranks()?,
            },
            8 => LbMsg::Knock,
            9 => LbMsg::Heal {
                base: self.u64()?,
                dead: self.ranks()?,
            },
            10 => LbMsg::Td(TdMsg::Token {
                epoch: self.u64()?,
                wave: self.u64()?,
                sent: self.u64()?,
                recv: self.u64()?,
            }),
            11 => LbMsg::Td(TdMsg::Terminated {
                epoch: self.u64()?,
                sent: self.u64()?,
            }),
            other => {
                self.pos -= 1;
                return Err(self.fail(WireDecodeErrorKind::BadTag(other)));
            }
        })
    }

    fn wire(&mut self) -> Result<LbWire, WireDecodeError> {
        let tag = self.u8()?;
        Ok(match tag {
            0x20 => LbWire::Raw(self.msg()?),
            0x21 => LbWire::Data {
                seq: self.u64()?,
                msg: self.msg()?,
            },
            0x22 => LbWire::Ack { seq: self.u64()? },
            0x23 => LbWire::Heartbeat,
            0x24 => {
                let crc = self.u32()?;
                let bytes = self.bytes[self.pos..].to_vec();
                self.pos = self.bytes.len();
                LbWire::Damaged { crc, bytes }
            }
            // The four self-timers (tags 0x25–0x28 of `encode`) are not
            // wire frames: a rank arms them for itself and acts on them
            // whoever `from` is, so one off the network is a bad tag.
            other => {
                self.pos -= 1;
                return Err(self.fail(WireDecodeErrorKind::BadTag(other)));
            }
        })
    }
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum LbMsg {
    /// Reduction partial flowing child → parent for collective `slot`.
    ReduceUp {
        /// Collective slot: 0 is the initial load allreduce; slot
        /// `1 + trial·n_iters + iter` evaluates that iteration's proposal.
        slot: u32,
        /// Accumulated partial.
        summary: LoadSummary,
    },
    /// Reduction result broadcast root → leaves for collective `slot`.
    ReduceDown {
        /// Collective slot (see [`LbMsg::ReduceUp`]).
        slot: u32,
        /// Final reduced value.
        summary: LoadSummary,
    },
    /// Epidemic knowledge propagation (Algorithm 1).
    Gossip {
        /// TD epoch this message belongs to.
        epoch: u64,
        /// Message round `r`.
        round: u32,
        /// `(rank, load)` pairs — the sender's `S` and `LOAD()` snapshot.
        /// Shared (`Arc`) because one snapshot fans out to several gossip
        /// targets and into the retransmission buffer: cloning the frame
        /// must not copy the pair list.
        pairs: std::sync::Arc<[(RankId, f64)]>,
    },
    /// Proposed (lazy) transfers: the recipient becomes the logical owner
    /// for subsequent iterations without any data movement.
    Propose {
        /// TD epoch this message belongs to.
        epoch: u64,
        /// Tasks now logically owned by the receiver.
        tasks: Vec<TaskEntry>,
    },
    /// Menon et al.'s negative acknowledgement, which the paper drops
    /// (§V-A): no rank sends one. The variant keeps its codec tag only
    /// because the benchmark's message classifier still names it;
    /// `LbWire::admissible` refuses it off the wire and the engine
    /// ignores it.
    ProposeReply {
        /// TD epoch this message belongs to.
        epoch: u64,
        /// Tasks bounced back to the proposer.
        rejected: Vec<TaskEntry>,
    },
    /// Commit stage: the final owner requests task data from the home
    /// rank.
    Fetch {
        /// TD epoch (the commit epoch).
        epoch: u64,
        /// Task ids to ship.
        tasks: Vec<TaskId>,
    },
    /// Commit stage: task payloads shipped home → final owner.
    TaskData {
        /// TD epoch (the commit epoch).
        epoch: u64,
        /// Task ids delivered.
        tasks: Vec<TaskId>,
    },
    /// Membership view-change propagation: the sender's full
    /// `(base, dead)` view. Control traffic (never TD-counted, never
    /// buffered): a receiver merges it via
    /// [`crate::membership::View::merge_full`] and, if its view changed,
    /// restarts its protocol on the survivors (or parks, if the quorum
    /// gate is on and the live component lost its majority) and
    /// re-broadcasts — a convergent flood, since merge_full is
    /// order-insensitive.
    View {
        /// The sender's heal-fence base generation (0 until the first
        /// partition heal; see [`crate::membership::View::base_gen`]).
        base: u64,
        /// Every rank the sender's view has declared dead. Shared
        /// (`Arc`) because one merged membership summary floods to every
        /// peer (and lands in retransmission buffers): cloning the frame
        /// must not copy the dead list — with churn in the mix these
        /// floods are frequent, and at ≥8k ranks the per-message copies
        /// dominated allocation (ROADMAP item 2 follow-up).
        dead: std::sync::Arc<[RankId]>,
    },
    /// Beacon a *parked* (quorum-less) rank sends to ranks it has fenced
    /// off: "I am alive and reachable — if you fenced me because of a
    /// partition, it has healed." Control traffic, best-effort; the
    /// receiving side's leader answers with a healed [`LbMsg::View`]
    /// (mid-run) or a [`LbMsg::Heal`] offer (post-commit).
    Knock,
    /// Post-commit heal offer: the majority component finished its run
    /// and its leader hands the parked rank the healed `(base, dead)`
    /// view so it can stand down read-only in agreement with the
    /// majority's committed outcome.
    Heal {
        /// Healed base generation (dominates every pre-heal generation).
        base: u64,
        /// Dead set of the healed view (shared for the same reason as
        /// [`LbMsg::View::dead`]).
        dead: std::sync::Arc<[RankId]>,
    },
    /// Termination-detection control traffic.
    Td(TdMsg),
}

impl LbMsg {
    /// Count the heap behind this message as [`Owner::Payloads`]: task
    /// lists by capacity, gossip pairs and dead sets once per shared
    /// allocation however many frames carry them.
    pub(crate) fn heap_census(&self, census: &mut HeapCensus) {
        match self {
            LbMsg::Gossip { pairs, .. } => census.add_shared(Owner::Payloads, pairs),
            LbMsg::View { dead, .. } | LbMsg::Heal { dead, .. } => {
                census.add_shared(Owner::Payloads, dead)
            }
            LbMsg::Propose { tasks, .. }
            | LbMsg::ProposeReply {
                rejected: tasks, ..
            } => census.add(Owner::Payloads, vec_bytes(tasks)),
            LbMsg::Fetch { tasks, .. } | LbMsg::TaskData { tasks, .. } => {
                census.add(Owner::Payloads, vec_bytes(tasks))
            }
            LbMsg::ReduceUp { .. } | LbMsg::ReduceDown { .. } | LbMsg::Knock | LbMsg::Td(_) => {}
        }
    }

    /// The TD epoch a *basic* message belongs to; `None` for control and
    /// collective messages, which are never TD-counted or buffered.
    pub fn basic_epoch(&self) -> Option<u64> {
        match self {
            LbMsg::Gossip { epoch, .. }
            | LbMsg::Propose { epoch, .. }
            | LbMsg::Fetch { epoch, .. }
            | LbMsg::TaskData { epoch, .. } => Some(*epoch),
            _ => None,
        }
    }

    /// Modeled wire size in bytes, used by the executors' latency model
    /// and network accounting. Task *data* payloads are modeled via
    /// `BYTES_PER_TASK` at the send site, not here.
    pub fn wire_bytes(&self) -> usize {
        match self {
            LbMsg::ReduceUp { .. } | LbMsg::ReduceDown { .. } => 32,
            LbMsg::Gossip { pairs, .. } => 16 + 12 * pairs.len(),
            LbMsg::Propose { tasks, .. } => 16 + 20 * tasks.len(),
            LbMsg::ProposeReply { rejected, .. } => 16 + 20 * rejected.len(),
            LbMsg::Fetch { tasks, .. } => 16 + 8 * tasks.len(),
            LbMsg::TaskData { tasks, .. } => 16 + 8 * tasks.len(),
            // The heal-fence base rides inside the existing 8-byte view
            // header: keeping the modeled size unchanged keeps crash-stop
            // runs (base always 0) bit-identical to the pre-heal protocol.
            LbMsg::View { dead, .. } => 8 + 4 * dead.len(),
            LbMsg::Knock => 8,
            LbMsg::Heal { dead, .. } => 16 + 4 * dead.len(),
            LbMsg::Td(_) => crate::termination::TD_MSG_BYTES,
        }
    }
}

/// Modeled payload bytes per migrated task: the commit stage's data
/// volume.
pub(crate) const BYTES_PER_TASK: usize = 65_536;

/// Full modeled cost of a protocol message: wire framing plus the
/// commit-stage task-data payload ([`BYTES_PER_TASK`] per shipped task).
/// Every send site uses this, so a retransmission recomputes the same
/// cost as the original transmission.
pub fn payload_bytes(msg: &LbMsg) -> usize {
    let extra = match msg {
        LbMsg::TaskData { tasks, .. } => BYTES_PER_TASK * tasks.len(),
        _ => 0,
    };
    msg.wire_bytes() + extra
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_epoch_classification() {
        assert_eq!(
            LbMsg::Gossip {
                epoch: 3,
                round: 1,
                pairs: vec![].into()
            }
            .basic_epoch(),
            Some(3)
        );
        assert_eq!(
            LbMsg::Propose {
                epoch: 7,
                tasks: vec![]
            }
            .basic_epoch(),
            Some(7)
        );
        assert_eq!(
            LbMsg::ReduceUp {
                slot: 0,
                summary: LoadSummary::default()
            }
            .basic_epoch(),
            None
        );
        assert_eq!(
            LbMsg::Td(TdMsg::Terminated { epoch: 1, sent: 0 }).basic_epoch(),
            None
        );
    }

    #[test]
    fn wire_framing_overhead() {
        let inner = LbMsg::Fetch {
            epoch: 2,
            tasks: vec![TaskId::new(1), TaskId::new(2)],
        };
        let raw = LbWire::Raw(inner.clone()).wire_bytes();
        let framed = LbWire::Data { seq: 9, msg: inner }.wire_bytes();
        assert_eq!(raw + SEQ_OVERHEAD_BYTES, framed);
        assert_eq!(LbWire::Ack { seq: 9 }.wire_bytes(), SEQ_OVERHEAD_BYTES);
        assert_eq!(
            LbWire::RetryTimer {
                to: RankId::new(0),
                seq: 1
            }
            .wire_bytes(),
            0
        );
        assert_eq!(LbWire::StageTimer { stage_seq: 3 }.wire_bytes(), 0);
        assert_eq!(LbWire::HeartbeatTimer.wire_bytes(), 0);
        assert_eq!(LbWire::ParkTimer { park_seq: 1 }.wire_bytes(), 0);
        assert!(
            LbWire::Heartbeat.wire_bytes() > 0,
            "heartbeats cross the wire"
        );
    }

    #[test]
    fn view_changes_are_control_traffic() {
        let msg = LbMsg::View {
            base: 0,
            dead: vec![RankId::new(3), RankId::new(5)].into(),
        };
        assert_eq!(msg.basic_epoch(), None, "views must never be TD-counted");
        assert!(
            msg.wire_bytes()
                > LbMsg::View {
                    base: 0,
                    dead: vec![].into()
                }
                .wire_bytes()
        );
        assert_eq!(LbMsg::Knock.basic_epoch(), None);
        assert_eq!(
            LbMsg::Heal {
                base: 9,
                dead: vec![].into()
            }
            .basic_epoch(),
            None
        );
    }

    #[test]
    fn encoding_is_deterministic_and_distinguishes_frames() {
        let a = LbWire::Data {
            seq: 4,
            msg: LbMsg::Gossip {
                epoch: 1,
                round: 2,
                pairs: vec![(RankId::new(3), 0.5)].into(),
            },
        };
        assert_eq!(a.encode(), a.encode());
        assert_eq!(a.checksum(), a.checksum());
        let b = LbWire::Data {
            seq: 5,
            msg: LbMsg::Gossip {
                epoch: 1,
                round: 2,
                pairs: vec![(RankId::new(3), 0.5)].into(),
            },
        };
        assert_ne!(a.checksum(), b.checksum(), "seq is covered by the crc");
    }

    #[test]
    fn single_flipped_bit_fails_verification() {
        let frames = [
            LbWire::Raw(LbMsg::View {
                base: 7,
                dead: vec![RankId::new(1)].into(),
            }),
            LbWire::Data {
                seq: 12,
                msg: LbMsg::Propose {
                    epoch: 3,
                    tasks: vec![TaskEntry {
                        id: TaskId::new(9),
                        load: 1.25,
                        home: RankId::new(2),
                    }],
                },
            },
            LbWire::Ack { seq: 1 },
            LbWire::Heartbeat,
        ];
        for frame in frames {
            assert!(frame.verify(), "intact frames verify");
            let dam = frame.damaged();
            assert!(!dam.verify(), "one flipped bit must fail the crc");
            let LbWire::Damaged { bytes, .. } = &dam else {
                panic!("damaged() wraps in Damaged");
            };
            assert_eq!(
                bytes.len(),
                frame.encode().len(),
                "corruption flips bits, it does not truncate"
            );
            assert_eq!(dam.wire_bytes(), bytes.len());
        }
    }

    #[test]
    fn every_flipped_bit_position_is_caught() {
        // Exhaustive over a small frame: whichever bit the model flips,
        // the receiver-side check must catch it.
        let frame = LbWire::Raw(LbMsg::Knock);
        let bytes = frame.encode();
        let crc = frame.checksum();
        for bit in 0..bytes.len() * 8 {
            let mut corrupted = bytes.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let dam = LbWire::Damaged {
                crc,
                bytes: corrupted,
            };
            assert!(!dam.verify(), "bit {bit} slipped through");
        }
    }

    /// The four self-timers: encodable (a corrupted frame is modeled over
    /// the canonical bytes of any `LbWire`), never decodable.
    fn timers() -> [LbWire; 4] {
        [
            LbWire::RetryTimer {
                to: RankId::new(4),
                seq: 8,
            },
            LbWire::StageTimer { stage_seq: 11 },
            LbWire::HeartbeatTimer,
            LbWire::ParkTimer { park_seq: 5 },
        ]
    }

    /// One frame of every variant that crosses a network, exercising
    /// every field shape.
    fn exhaustive_frames() -> Vec<LbWire> {
        let entries = vec![
            TaskEntry {
                id: TaskId::new(9),
                load: 1.25,
                home: RankId::new(2),
            },
            TaskEntry {
                id: TaskId::new(u64::MAX),
                load: -0.0,
                home: RankId::new(u32::MAX),
            },
        ];
        let msgs = vec![
            LbMsg::ReduceUp {
                slot: 3,
                summary: LoadSummary {
                    total: 7.5,
                    max: 2.5,
                    count: 4,
                },
            },
            LbMsg::ReduceDown {
                slot: 0,
                summary: LoadSummary::default(),
            },
            LbMsg::Gossip {
                epoch: 1,
                round: 2,
                pairs: vec![(RankId::new(3), 0.5), (RankId::new(0), f64::INFINITY)].into(),
            },
            LbMsg::Propose {
                epoch: 3,
                tasks: entries.clone(),
            },
            LbMsg::ProposeReply {
                epoch: 4,
                rejected: entries,
            },
            LbMsg::Fetch {
                epoch: 5,
                tasks: vec![TaskId::new(1), TaskId::new(2)],
            },
            LbMsg::TaskData {
                epoch: 6,
                tasks: vec![],
            },
            LbMsg::View {
                base: 7,
                dead: vec![RankId::new(1), RankId::new(30)].into(),
            },
            LbMsg::Knock,
            LbMsg::Heal {
                base: 9,
                dead: vec![].into(),
            },
            LbMsg::Td(TdMsg::Token {
                epoch: 1,
                wave: 2,
                sent: 3,
                recv: 4,
            }),
            LbMsg::Td(TdMsg::Terminated { epoch: 2, sent: 9 }),
        ];
        let mut frames = vec![
            LbWire::Ack { seq: 17 },
            LbWire::Heartbeat,
            LbWire::Raw(LbMsg::Knock).damaged(),
        ];
        for m in msgs {
            frames.push(LbWire::Raw(m.clone()));
            frames.push(LbWire::Data { seq: 42, msg: m });
        }
        frames
    }

    #[test]
    fn decode_inverts_encode_for_every_variant() {
        for frame in exhaustive_frames() {
            let bytes = frame.encode();
            let back = LbWire::decode(&bytes).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
            assert_eq!(
                back.encode(),
                bytes,
                "decode∘encode must be the identity on canonical bytes ({frame:?})"
            );
        }
        // A rank acts on its timers whoever they claim to come from, so
        // a peer must not be able to put one on the wire.
        for timer in timers() {
            let bytes = timer.encode();
            let err = LbWire::decode(&bytes).expect_err("timers are not wire frames");
            assert_eq!(err.kind, WireDecodeErrorKind::BadTag(bytes[0]), "{timer:?}");
            assert_eq!(err.offset, 0);
        }
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        for frame in exhaustive_frames() {
            // A Damaged frame's tail is variable-length by design (the
            // corrupted bytes run to the end of the frame), so a prefix
            // of one is itself a well-formed Damaged frame — its
            // integrity failure is caught by `verify`, not by framing.
            if matches!(frame, LbWire::Damaged { .. }) {
                continue;
            }
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                let err = LbWire::decode(&bytes[..cut])
                    .expect_err("a strict prefix of a frame must not decode");
                assert!(
                    err.offset <= cut,
                    "error offset {} past the {cut}-byte prefix",
                    err.offset
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let mut bytes = LbWire::Heartbeat.encode();
        bytes.push(0xFF);
        let err = LbWire::decode(&bytes).unwrap_err();
        assert_eq!(err.kind, WireDecodeErrorKind::TrailingBytes(1));

        let err = LbWire::decode(&[0x7F]).unwrap_err();
        assert_eq!(err.kind, WireDecodeErrorKind::BadTag(0x7F));
        assert_eq!(err.offset, 0);

        // Unknown *message* tag inside a Raw envelope.
        let err = LbWire::decode(&[0x20, 0xEE]).unwrap_err();
        assert_eq!(err.kind, WireDecodeErrorKind::BadTag(0xEE));
        assert_eq!(err.offset, 1);
        assert!(err.to_string().contains("0xee"), "{err}");
    }

    #[test]
    fn decode_bounds_length_prefixes_by_remaining_bytes() {
        // A Gossip claiming 2^31 pairs with a 0-byte body must fail as
        // truncated without attempting the allocation.
        let mut bytes = vec![0x20, 2]; // Raw + Gossip tag
        bytes.extend_from_slice(&1u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&0u32.to_le_bytes()); // round
        bytes.extend_from_slice(&0x8000_0000u32.to_le_bytes()); // pair count
        let err = LbWire::decode(&bytes).unwrap_err();
        assert_eq!(err.kind, WireDecodeErrorKind::Truncated);
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let small = LbMsg::Gossip {
            epoch: 0,
            round: 0,
            pairs: vec![].into(),
        };
        let big = LbMsg::Gossip {
            epoch: 0,
            round: 0,
            pairs: vec![(RankId::new(0), 1.0); 100].into(),
        };
        assert!(big.wire_bytes() > small.wire_bytes());
        assert_eq!(big.wire_bytes() - small.wire_bytes(), 1200);
    }
}
