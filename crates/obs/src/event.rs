//! Event model and the shared [`Recorder`] handle.
//!
//! Events are produced by the executors and protocol actors and stored in
//! fixed-capacity per-rank ring buffers. Timestamps are plain `f64`
//! seconds: *virtual* time when recorded by the discrete-event simulator,
//! *monotonic wall-clock* time (since executor start) when recorded by
//! the threaded executor. Because the simulator's event order is a pure
//! function of `(input, config, seed)`, a trace recorded there is
//! bit-identical across runs — see `DESIGN.md` §8.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::metrics::MetricsRegistry;

/// Default per-rank ring-buffer capacity (events retained per rank).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// What happened. Spans carry a duration at emission time; instants do not.
///
/// Every payload field is `Copy` so events can be moved into the ring
/// buffers without allocation on the hot path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// An LB protocol stage on one rank (setup/gossip/proposals/evaluate/
    /// commit), scoped to a `(trial, iter)` pair of the tempered sweep.
    LbStage {
        /// Static stage name (`"setup"`, `"gossip"`, ...).
        stage: &'static str,
        /// Trial index within the LB configuration sweep.
        trial: u32,
        /// Iteration index within the trial.
        iter: u32,
    },
    /// One gossip fan-out round inside the gossip stage.
    GossipRound {
        /// Trial index.
        trial: u32,
        /// Iteration index.
        iter: u32,
        /// Round ordinal within this iteration (0-based).
        round: u32,
    },
    /// A Mattern termination-detection epoch completed on this rank.
    EpochTerminated {
        /// The epoch that terminated.
        epoch: u64,
        /// Messages this rank sent during the epoch.
        sent: u64,
    },
    /// The reliable channel re-sent an unacknowledged payload.
    Retransmit {
        /// Destination rank.
        to: u32,
        /// Per-destination sequence number of the payload.
        seq: u64,
    },
    /// The reliable channel suppressed an already-processed duplicate.
    DuplicateSuppressed {
        /// Origin rank of the duplicate.
        from: u32,
        /// Sequence number that was seen twice.
        seq: u64,
    },
    /// Retry budget exhausted for a peer; the rank stops resending.
    GaveUp {
        /// The unreachable destination rank.
        to: u32,
    },
    /// Retry exhaustion was attributed to the *link* (the failure
    /// detector still vouches for the peer): the payload was reinstated
    /// with a fresh budget and the link's quality score debited.
    LinkSuspect {
        /// Destination rank of the suspect path.
        to: u32,
    },
    /// A frame failed its checksum on receive and was dropped; the
    /// sender's reliable channel re-delivers it.
    CorruptDropped {
        /// Origin rank of the damaged frame.
        from: u32,
    },
    /// The rank abandoned the LB protocol and fell back to its current
    /// assignment (stage deadline or retry give-up).
    Degraded {
        /// Static name of the stage in which degradation happened.
        stage: &'static str,
    },
    /// The link emulator acted on an in-flight message.
    Fault {
        /// Static fault name (`"drop"`, `"duplicate"`, `"spike"`, ...).
        kind: &'static str,
        /// Destination rank of the affected message.
        to: u32,
    },
    /// An EMPIRE application step boundary (start of step `step`).
    PhaseBoundary {
        /// Application step number.
        step: u64,
    },
    /// An EMPIRE application phase on one rank (exchange/stats/lb/migration).
    AppPhase {
        /// Static phase name.
        phase: &'static str,
        /// Application step the phase belongs to.
        step: u64,
    },
    /// This rank entered its commit stage: it adopted the best placement
    /// found and started the fenced commit epoch. The audit layer
    /// (`tempered_runtime::audit`) checks epoch monotonicity and
    /// quorum-before-commit against these instants.
    Committed {
        /// The fenced commit epoch (view base + protocol offset).
        epoch: u64,
        /// Generation of the view the rank committed under.
        generation: u64,
        /// Live ranks in that view.
        live: u32,
        /// Total ranks in the run.
        total: u32,
    },
    /// The heartbeat failure detector declared a peer crashed.
    Suspected {
        /// The rank now considered dead.
        rank: u32,
    },
    /// This rank adopted a new membership view and restarted its protocol
    /// on the surviving ranks.
    ViewChange {
        /// Generation of the new view (== number of dead ranks).
        generation: u32,
        /// Size of the dead set in the new view.
        dead: u32,
    },
    /// This rank's live component lost quorum under a partition and the
    /// rank parked read-only (no protocol progress, no commit).
    Parked {
        /// Generation of the quorum-less view.
        generation: u32,
    },
    /// A partition heal: this rank adopted (or minted) a healed view that
    /// readmits previously fenced ranks.
    Healed {
        /// Generation of the healed view.
        generation: u32,
    },
    /// A knocking node was admitted to the elastic roster and assigned
    /// a dense rank id (planned scale-out).
    Joined {
        /// Stable node id of the joiner.
        node: u64,
        /// Dense rank id assigned under the admitting view.
        rank: u32,
    },
    /// A roster node entered the `Draining` state: the balancers now
    /// treat it as infinitely loaded and evacuate it (planned scale-in).
    DrainStarted {
        /// Stable node id being drained.
        node: u64,
    },
    /// A draining node finished its handoff, acked, and parked: its
    /// residual tasks live elsewhere and it left the roster.
    DrainCompleted {
        /// Stable node id that parked.
        node: u64,
    },
    /// A drain missed its deadline (stalled handoff) and degraded to the
    /// crash path: the node was declared dead and its residual tasks
    /// were recovered onto the survivors.
    DrainDeadlineExceeded {
        /// Stable node id that was force-crashed.
        node: u64,
    },
    /// Free-form marker for ad-hoc instrumentation.
    Marker(&'static str),
}

impl EventKind {
    /// Chrome trace-event category for this kind.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::LbStage { .. } | EventKind::GossipRound { .. } => "lb",
            EventKind::EpochTerminated { .. } => "td",
            EventKind::Retransmit { .. }
            | EventKind::DuplicateSuppressed { .. }
            | EventKind::GaveUp { .. }
            | EventKind::LinkSuspect { .. }
            | EventKind::CorruptDropped { .. }
            | EventKind::Degraded { .. } => "reliable",
            EventKind::Fault { .. } => "fault",
            EventKind::PhaseBoundary { .. } | EventKind::AppPhase { .. } => "app",
            EventKind::Committed { .. } => "lb",
            EventKind::Suspected { .. }
            | EventKind::ViewChange { .. }
            | EventKind::Parked { .. }
            | EventKind::Healed { .. }
            | EventKind::Joined { .. }
            | EventKind::DrainStarted { .. }
            | EventKind::DrainCompleted { .. }
            | EventKind::DrainDeadlineExceeded { .. } => "membership",
            EventKind::Marker(_) => "marker",
        }
    }

    /// Chrome trace-event display name for this kind.
    pub fn name(&self) -> String {
        match self {
            EventKind::LbStage { stage, .. } => format!("lb:{stage}"),
            EventKind::GossipRound { round, .. } => format!("gossip_round:{round}"),
            EventKind::EpochTerminated { epoch, .. } => format!("epoch_terminated:{epoch}"),
            EventKind::Retransmit { .. } => "retransmit".to_string(),
            EventKind::DuplicateSuppressed { .. } => "duplicate_suppressed".to_string(),
            EventKind::GaveUp { .. } => "gave_up".to_string(),
            EventKind::LinkSuspect { to } => format!("link_suspect:{to}"),
            EventKind::CorruptDropped { from } => format!("corrupt_dropped:{from}"),
            EventKind::Degraded { stage } => format!("degraded:{stage}"),
            EventKind::Fault { kind, .. } => format!("fault:{kind}"),
            EventKind::PhaseBoundary { step } => format!("step:{step}"),
            EventKind::AppPhase { phase, .. } => format!("app:{phase}"),
            EventKind::Committed { epoch, .. } => format!("committed:{epoch}"),
            EventKind::Suspected { rank } => format!("suspected:{rank}"),
            EventKind::ViewChange { generation, .. } => format!("view_change:{generation}"),
            EventKind::Parked { generation } => format!("parked:{generation}"),
            EventKind::Healed { generation } => format!("healed:{generation}"),
            EventKind::Joined { node, .. } => format!("joined:{node}"),
            EventKind::DrainStarted { node } => format!("drain_started:{node}"),
            EventKind::DrainCompleted { node } => format!("drain_completed:{node}"),
            EventKind::DrainDeadlineExceeded { node } => {
                format!("drain_deadline_exceeded:{node}")
            }
            EventKind::Marker(name) => (*name).to_string(),
        }
    }

    /// `"key":value` argument pairs for the Chrome `args` object, already
    /// JSON-encoded. Deterministic: fields appear in declaration order.
    pub fn args(&self) -> Vec<(&'static str, String)> {
        match *self {
            EventKind::LbStage { trial, iter, .. } => {
                vec![("trial", trial.to_string()), ("iter", iter.to_string())]
            }
            EventKind::GossipRound { trial, iter, round } => vec![
                ("trial", trial.to_string()),
                ("iter", iter.to_string()),
                ("round", round.to_string()),
            ],
            EventKind::EpochTerminated { epoch, sent } => {
                vec![("epoch", epoch.to_string()), ("sent", sent.to_string())]
            }
            EventKind::Retransmit { to, seq } => {
                vec![("to", to.to_string()), ("seq", seq.to_string())]
            }
            EventKind::DuplicateSuppressed { from, seq } => {
                vec![("from", from.to_string()), ("seq", seq.to_string())]
            }
            EventKind::GaveUp { to } => vec![("to", to.to_string())],
            EventKind::LinkSuspect { to } => vec![("to", to.to_string())],
            EventKind::CorruptDropped { from } => vec![("from", from.to_string())],
            EventKind::Degraded { .. } => vec![],
            EventKind::Fault { to, .. } => vec![("to", to.to_string())],
            EventKind::PhaseBoundary { step } => vec![("step", step.to_string())],
            EventKind::AppPhase { step, .. } => vec![("step", step.to_string())],
            EventKind::Committed {
                epoch,
                generation,
                live,
                total,
            } => vec![
                ("epoch", epoch.to_string()),
                ("generation", generation.to_string()),
                ("live", live.to_string()),
                ("total", total.to_string()),
            ],
            EventKind::Suspected { rank } => vec![("rank", rank.to_string())],
            EventKind::ViewChange { generation, dead } => vec![
                ("generation", generation.to_string()),
                ("dead", dead.to_string()),
            ],
            EventKind::Parked { generation } | EventKind::Healed { generation } => {
                vec![("generation", generation.to_string())]
            }
            EventKind::Joined { node, rank } => {
                vec![("node", node.to_string()), ("rank", rank.to_string())]
            }
            EventKind::DrainStarted { node }
            | EventKind::DrainCompleted { node }
            | EventKind::DrainDeadlineExceeded { node } => {
                vec![("node", node.to_string())]
            }
            EventKind::Marker(_) => vec![],
        }
    }
}

/// One recorded event. `dur` is `Some` for spans, `None` for instants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Rank that recorded the event.
    pub rank: u32,
    /// Start timestamp in seconds (virtual or monotonic; see module docs).
    pub ts: f64,
    /// Span duration in seconds, or `None` for an instant event.
    pub dur: Option<f64>,
    /// Payload.
    pub kind: EventKind,
}

/// Fixed-capacity drop-oldest ring of events for one rank.
#[derive(Debug)]
struct Ring {
    capacity: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

#[derive(Debug)]
struct Inner {
    rings: Vec<Mutex<Ring>>,
    metrics: Mutex<MetricsRegistry>,
}

/// Cheap, cloneable handle for recording events and metrics.
///
/// A disabled recorder ([`Recorder::disabled`], also `Default`) carries no
/// allocation and every recording call is an inlined early-return no-op,
/// so instrumented hot paths cost one branch when tracing is off.
///
/// An enabled recorder holds one ring buffer per rank plus a shared
/// [`MetricsRegistry`]; clones share the same storage, so the same handle
/// can be threaded through every rank of either executor.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything (the zero-overhead default).
    #[inline]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with `DEFAULT_RING_CAPACITY` events per rank.
    pub fn enabled(num_ranks: usize) -> Self {
        Self::with_capacity(num_ranks, DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder retaining at most `capacity` events per rank
    /// (oldest events are dropped first and counted).
    pub fn with_capacity(num_ranks: usize, capacity: usize) -> Self {
        let rings = (0..num_ranks)
            .map(|_| {
                Mutex::new(Ring {
                    capacity: capacity.max(1),
                    events: VecDeque::new(),
                    dropped: 0,
                })
            })
            .collect();
        Recorder {
            inner: Some(Arc::new(Inner {
                rings,
                metrics: Mutex::new(MetricsRegistry::default()),
            })),
        }
    }

    /// `true` when events are actually retained. Callers may use this to
    /// skip building expensive event payloads.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Heap bytes this recorder's storage holds, counting capacity: the
    /// per-rank ring buffers and the metrics registry (0 when disabled).
    /// Clones share the storage, so count it once per recorder, not per
    /// handle.
    pub fn heap_bytes(&self) -> usize {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let rings: usize = inner
            .rings
            .iter()
            .map(|r| {
                let ring = r.lock().expect("obs ring poisoned");
                ring.events.capacity() * std::mem::size_of::<Event>()
            })
            .sum();
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Inner>()
            + inner.rings.capacity() * std::mem::size_of::<Mutex<Ring>>()
            + rings
            + inner
                .metrics
                .lock()
                .expect("obs metrics poisoned")
                .heap_bytes()
    }

    /// Record an instant event at `ts` seconds on `rank`.
    #[inline]
    pub fn instant(&self, rank: u32, ts: f64, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.push(Event {
                rank,
                ts,
                dur: None,
                kind,
            });
        }
    }

    /// Record a span starting at `ts` and lasting `dur` seconds on `rank`.
    #[inline]
    pub fn span(&self, rank: u32, ts: f64, dur: f64, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.push(Event {
                rank,
                ts,
                dur: Some(dur.max(0.0)),
                kind,
            });
        }
    }

    /// Mutate the shared metrics registry. No-op when disabled; `f` is not
    /// called, so callers can do non-trivial aggregation inside the closure
    /// without guarding on [`Recorder::is_enabled`].
    #[inline]
    pub fn with_metrics<F: FnOnce(&mut MetricsRegistry)>(&self, f: F) {
        if let Some(inner) = &self.inner {
            f(&mut inner.metrics.lock().expect("obs metrics poisoned"));
        }
    }

    /// Add `delta` to counter `name` (convenience over `with_metrics`).
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.with_metrics(|m| m.counter_add(name, delta));
        }
    }

    /// Record one `value` observation into log-bucketed histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.with_metrics(|m| m.observe(name, value));
        }
    }

    /// Snapshot the recorded events and metrics without consuming the
    /// recorder: events are concatenated rank-major and stably sorted by
    /// start timestamp, so equal-time events order by `(rank, insertion)`
    /// — a deterministic total order for deterministic inputs.
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let mut events = Vec::new();
        let mut dropped = 0u64;
        let mut num_ranks = 0u32;
        for (rank, ring) in inner.rings.iter().enumerate() {
            let ring = ring.lock().expect("obs ring poisoned");
            events.extend(ring.events.iter().copied());
            dropped += ring.dropped;
            num_ranks = num_ranks.max(rank as u32 + 1);
        }
        events.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        let metrics = inner.metrics.lock().expect("obs metrics poisoned").clone();
        Trace {
            num_ranks,
            events,
            metrics,
            dropped_events: dropped,
        }
    }
}

impl Inner {
    fn push(&self, ev: Event) {
        debug_assert!(
            (ev.rank as usize) < self.rings.len(),
            "event for unknown rank {}",
            ev.rank
        );
        if let Some(ring) = self.rings.get(ev.rank as usize) {
            ring.lock().expect("obs ring poisoned").push(ev);
        }
    }
}

/// An immutable snapshot of everything a [`Recorder`] captured.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of ranks the recorder was created for.
    pub num_ranks: u32,
    /// All events, sorted by start timestamp (ties: rank, insertion order).
    pub events: Vec<Event>,
    /// Merged metrics registry.
    pub metrics: MetricsRegistry,
    /// Events discarded because a per-rank ring overflowed.
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.instant(0, 1.0, EventKind::Marker("x"));
        rec.span(0, 1.0, 2.0, EventKind::Marker("y"));
        rec.counter_add("c", 1);
        let trace = rec.snapshot();
        assert!(trace.events.is_empty());
        assert!(trace.metrics.is_empty());
    }

    #[test]
    fn events_sort_by_time_then_rank() {
        let rec = Recorder::enabled(2);
        rec.instant(1, 2.0, EventKind::Marker("b"));
        rec.instant(0, 2.0, EventKind::Marker("a"));
        rec.instant(1, 1.0, EventKind::Marker("c"));
        let trace = rec.snapshot();
        let names: Vec<_> = trace.events.iter().map(|e| e.kind.name()).collect();
        // t=1 first; at t=2 rank 0 sorts before rank 1 (stable sort,
        // rank-major concatenation).
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    fn heap_bytes_counts_the_rings_by_capacity() {
        assert_eq!(Recorder::disabled().heap_bytes(), 0);
        let rec = Recorder::enabled(2);
        let empty = rec.heap_bytes();
        assert!(empty > 0, "the rings' headers live on the heap");
        for i in 0..100 {
            rec.instant(1, i as f64, EventKind::PhaseBoundary { step: i });
        }
        let grown = rec.heap_bytes() - empty;
        assert!(
            grown >= 100 * std::mem::size_of::<Event>(),
            "{grown} B for 100 events"
        );
        assert_eq!(rec.clone().heap_bytes(), rec.heap_bytes(), "one storage");
    }

    #[test]
    fn ring_drops_oldest() {
        let rec = Recorder::with_capacity(1, 2);
        for i in 0..5 {
            rec.instant(0, i as f64, EventKind::PhaseBoundary { step: i });
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped_events, 3);
        assert_eq!(trace.events[0].kind, EventKind::PhaseBoundary { step: 3 });
    }

    #[test]
    fn clones_share_storage() {
        let rec = Recorder::enabled(1);
        let clone = rec.clone();
        clone.instant(0, 0.0, EventKind::Marker("shared"));
        clone.counter_add("n", 2);
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.metrics.counter("n"), 2);
    }
}
