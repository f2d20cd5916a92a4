//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer, and a [`Protocol`] wrapper that times every handler
//! call of a rank without the rank knowing.

use crate::json::{obj, Value};
use std::time::Instant;
use tempered_core::ids::RankId;
use tempered_runtime::lb::{LbMsg, LbWire};
use tempered_runtime::sim::{Ctx, Protocol};

/// One recorded span. A handler span stands for *many* calls of one
/// kind under one round: `busy_ns` is the time those calls covered and
/// `count` how many there were; for an ordinary span `busy_ns` is its
/// duration and `count` is 1.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.busy_ns as f64 / 1e6
    }

    /// Record `count` calls that together covered `busy_ns` of `parent`.
    pub fn aggregate(&mut self, name: &str, parent: usize, busy_ns: u64, count: u64) {
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns,
            end_ns,
            busy_ns,
            count,
        });
    }

    /// A span's self time: what it covered minus what its children
    /// covered. Children that ran on several threads at once can cover
    /// more than their parent's wall time; self time then floors at 0.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::Str(s.name.clone())),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("busy_ns", Value::Num(s.busy_ns as f64)),
                        ("self_ns", Value::Num(self.self_ns(id) as f64)),
                        ("count", Value::Num(s.count as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// What arrived at a rank, by transport envelope.
pub const WIRE_KINDS: [&str; 6] = ["start", "data", "ack", "retry_timer", "raw", "other"];
/// What the engine was handed, by protocol message inside `Data`/`Raw`.
pub const MSG_KINDS: [&str; 6] = ["gossip", "propose", "fetch", "reduce", "td", "other"];

fn wire_kind(wire: &LbWire) -> usize {
    match wire {
        LbWire::Data { .. } => 1,
        LbWire::Ack { .. } => 2,
        LbWire::RetryTimer { .. } => 3,
        LbWire::Raw(_) => 4,
        _ => 5,
    }
}

fn msg_kind(wire: &LbWire) -> Option<usize> {
    let (LbWire::Data { msg, .. } | LbWire::Raw(msg)) = wire else {
        return None;
    };
    Some(match msg {
        LbMsg::Gossip { .. } => 0,
        LbMsg::Propose { .. } | LbMsg::ProposeReply { .. } => 1,
        LbMsg::Fetch { .. } | LbMsg::TaskData { .. } => 2,
        LbMsg::ReduceUp { .. } | LbMsg::ReduceDown { .. } => 3,
        LbMsg::Td(_) => 4,
        _ => 5,
    })
}

/// Nanoseconds and calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.n += other.n;
    }

    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Handler time of one rank (or, merged, of one round).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HandlerTimes {
    /// Every handler call is booked to exactly one wire kind.
    pub wire: [Acc; 6],
    pub msg: [Acc; 6],
}

impl HandlerTimes {
    /// Every handler call: the wire kinds partition them.
    pub fn total(&self) -> Acc {
        let mut total = Acc::default();
        for a in self.wire {
            total.merge(a);
        }
        total
    }

    pub fn merge(&mut self, other: &HandlerTimes) {
        for (a, b) in self.wire.iter_mut().zip(other.wire) {
            a.merge(b);
        }
        for (a, b) in self.msg.iter_mut().zip(other.msg) {
            a.merge(b);
        }
    }
}

/// One delivered frame: `(from, to, now, wire)`.
pub type Delivered = (RankId, RankId, f64, LbWire);

/// A protocol actor with every handler call timed from outside. It
/// forwards each [`Protocol`] method to `inner` unchanged — same sends,
/// same timers, same fault exposure — so the modeled cost of a run is
/// the same with and without it.
pub struct Spanned<P> {
    pub inner: P,
    pub times: HandlerTimes,
    /// Every frame delivered to this rank, when capture is on.
    pub corpus: Option<Vec<Delivered>>,
}

impl<P> Spanned<P> {
    pub fn new(inner: P, capture: bool) -> Self {
        Spanned {
            inner,
            times: HandlerTimes::default(),
            corpus: capture.then(Vec::new),
        }
    }
}

impl<P: Protocol<Msg = LbWire>> Protocol for Spanned<P> {
    type Msg = LbWire;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.wire[0].add(ns);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, msg: LbWire) {
        let (wk, mk) = (wire_kind(&msg), msg_kind(&msg));
        if let Some(corpus) = &mut self.corpus {
            corpus.push((from, ctx.me(), ctx.now(), msg.clone()));
        }
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.wire[wk].add(ns);
        if let Some(mk) = mk {
            self.times.msg[mk].add(ns);
        }
    }

    fn on_quiescence(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        self.inner.on_quiescence(ctx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn faultable(msg: &LbWire) -> bool {
        P::faultable(msg)
    }

    fn corrupted(msg: &LbWire) -> Option<LbWire> {
        P::corrupted(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use tempered_core::rng::RngFactory;
    use tempered_runtime::sim::{NetworkModel, Simulator};

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::new();
        let round = log.open("round", None);
        let run = log.open("sim.run", Some(round));
        log.spans[round].busy_ns = 1000;
        log.spans[run].busy_ns = 900;
        log.aggregate("lb.rank.data", run, 300, 7);
        log.aggregate("lb.rank.ack", run, 200, 9);
        assert_eq!(log.self_ns(run), 400);
        assert_eq!(log.self_ns(round), 100);
        // Grandchildren are not subtracted twice.
        let leaf = log.spans.len() - 1;
        assert_eq!(log.self_ns(leaf), 200);
        // Children on two threads can cover more than the parent's wall.
        log.aggregate("lb.rank.raw", run, 5000, 1);
        assert_eq!(log.self_ns(run), 0);
    }

    /// The wrapper must be invisible to the protocol: same virtual time,
    /// events, messages, bytes and placement with and without it.
    #[test]
    fn spanned_is_transparent_to_the_modeled_cost() {
        let dist = inputs::hotspot(32);
        let factory = RngFactory::new(7);
        for (cfg, plan) in [
            (inputs::hardened(), inputs::lossy_plan()),
            (inputs::raw(), tempered_runtime::FaultPlan::none()),
        ] {
            let mut plain = Simulator::new(
                inputs::build_ranks(&dist, cfg, &factory),
                NetworkModel::default(),
                &factory,
            );
            plain.set_fault_plan(plan.clone());
            let a = plain.run();
            let wrapped = inputs::build_ranks(&dist, cfg, &factory)
                .into_iter()
                .map(|r| Spanned::new(r, true))
                .collect();
            let mut sim = Simulator::new(wrapped, NetworkModel::default(), &factory);
            sim.set_fault_plan(plan);
            let b = sim.run();
            assert!(a.completed && b.completed);
            assert_eq!(a.finish_time.to_bits(), b.finish_time.to_bits());
            assert_eq!(a.events_delivered, b.events_delivered);
            assert_eq!(a.network, b.network);
            assert_eq!(a.faults, b.faults);
            let ranks = sim.into_ranks();
            assert_eq!(
                inputs::assignment_of_ranks(plain.into_ranks().iter()),
                inputs::assignment_of_ranks(ranks.iter().map(|s| &s.inner)),
            );
            let mut times = HandlerTimes::default();
            let mut delivered = 0;
            for r in &ranks {
                times.merge(&r.times);
                delivered += r.corpus.as_ref().unwrap().len() as u64;
            }
            // One on_start per rank, one on_message per delivered event.
            assert_eq!(times.total().n, 32 + b.events_delivered);
            assert_eq!(delivered, b.events_delivered);
        }
    }
}
