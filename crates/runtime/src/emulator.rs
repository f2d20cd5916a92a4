//! Userspace link emulator: the one [`FaultPlan`] interpreter, shared by
//! every driver.
//!
//! [`crate::fault`] says what a plan *is*; this module is what a plan
//! *does*. The deterministic simulator, the threaded executor and the TCP
//! socket driver all need the exact same decision procedure: per-message
//! fate (drop / duplicate / delay spike) at send time, then directed link
//! fate (cut / lossy / delay / flap / corrupt + partition windows), then
//! receiver pause deferral, and a crash check at delivery time — all
//! drawn from the plan's seeded hash streams so the n-th message on a
//! link suffers the same fate under every driver. That procedure lives
//! here and nowhere else (pinned by `tests/fate_identity.rs`).
//!
//! Two properties drive the design:
//!
//! 1. **Statelessness relative to the model RNG.** Fault decisions are
//!    pure hashes of `(plan seed, from, to, per-link ordinal)` — they
//!    consume nothing from the executor's random streams. A zeroed plan
//!    therefore leaves every other random decision bit-identical to a
//!    run with no plan at all.
//! 2. **Executor-neutral units.** The emulator is pure with respect to
//!    time and expresses extra delay as a *multiplier on nominal
//!    latency*: callers pass `now` (virtual seconds in the simulator,
//!    wall-clock seconds since run start in the real drivers) and their
//!    *arrival rule* — how a latency multiplier turns into an arrival
//!    time on their clock — and get each surviving copy handed back with
//!    that arrival time. The schedule of effects (which message is
//!    dropped, duplicated, …) is identical either way.
//!
//! How a copy travels afterwards (event queue, in-memory channel, TCP
//! frame) is the driver's business, which is exactly what lets the chaos
//! grids rerun over real sockets and commit bit-for-bit what the
//! simulator commits (see `DESIGN.md` §12).

use crate::fault::{CrashEvent, FaultPlan, FaultStats, LinkFaultKind};
use crate::parallel::PARALLEL_DELAY_UNIT;
use crate::sim::Protocol;
use std::collections::HashMap;
use tempered_core::ids::RankId;
use tempered_core::rng::{derive_seed, splitmix64};
use tempered_obs::{EventKind, Recorder};

/// Send-time and delivery-time fault interpreter.
///
/// Construct once per simulator, rank process, or worker thread. Each
/// `(from, to)` link has an ordinal counter and the fate of the n-th
/// message on a link is a pure function of `(seed, from, to, n)`; the
/// ordinal streams are keyed by the *sending* rank, so any partitioning
/// of the emulator that keeps all of a rank's sends on one instance
/// reproduces the single-instance simulator exactly.
pub struct LinkEmulator {
    plan: FaultPlan,
    /// Whether send-time fates are drawn at all: `false` for a
    /// [`FaultPlan::is_zero`] plan, whose fast path touches no hash
    /// stream, so the only way a plan can perturb a run is by actually
    /// injecting a fault.
    active: bool,
    straggler: HashMap<RankId, f64>,
    crashes: HashMap<RankId, CrashEvent>,
    ordinals: HashMap<(RankId, RankId), u64>,
    /// Per-link ordinals for the link-fault hash stream — independent of
    /// `ordinals` so adding link faults to a plan leaves the legacy
    /// per-message fate stream untouched.
    link_ordinals: HashMap<(RankId, RankId), u64>,
    /// Effect counters, updated as fates are drawn.
    stats: FaultStats,
    /// Receives one instant event per injected fault.
    pub(crate) recorder: Recorder,
}

/// The verdict for one message: how many copies travel and how late.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Fate {
    /// Delivered copies: 0 (dropped), 1 (normal), or 2 (duplicated).
    copies: u32,
    /// Multiplier on the message's nominal latency (≥ 1).
    delay_factor: f64,
}

/// The link layer's verdict for one message, combining every matching
/// [`crate::fault::LinkFault`] and [`crate::fault::PartitionWindow`]
/// active at send time.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LinkVerdict {
    /// The message is severed (cut, flap down-phase, lossy draw, or
    /// partition) and must not be delivered.
    cut: bool,
    /// Extra latency multiplier from `Delay` faults (≥ 1).
    delay_factor: f64,
    /// The message is delivered damaged; checksumming receivers drop it.
    corrupt: bool,
}

/// The fate on a healthy link.
const CLEAN_LINK: LinkVerdict = LinkVerdict {
    cut: false,
    delay_factor: 1.0,
    corrupt: false,
};

/// Turns the hash `u` into a uniform in `[0, 1)`.
#[inline]
fn unit(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The wall-clock host's arrival rule for [`LinkEmulator::outgoing`]: it
/// has no base latency to multiply, so a copy is held back
/// [`PARALLEL_DELAY_UNIT`] per unit of latency factor above 1 and an
/// unfaulted message arrives at `now` itself, i.e. is not held at all.
pub fn wall_arrival(now: f64) -> impl Fn(f64, f64, u32) -> f64 {
    let unit = PARALLEL_DELAY_UNIT.as_secs_f64();
    move |fate, link, copy| now + (fate * link - 1.0).max(0.0) * f64::from(copy + 1) * unit
}

impl LinkEmulator {
    /// Build an emulator for `plan`, validating it — once — on the way in
    /// (panics on an invalid plan: callers with user-supplied plans
    /// [`FaultPlan::validate`] at the door).
    pub fn new(plan: FaultPlan, recorder: Recorder) -> Self {
        plan.validate()
            .expect("a plan handed to an executor was validated at the door");
        LinkEmulator {
            active: !plan.is_zero(),
            straggler: plan.stragglers.iter().copied().collect(),
            crashes: plan.crashes.iter().map(|&c| (c.rank, c)).collect(),
            plan,
            ordinals: HashMap::new(),
            link_ordinals: HashMap::new(),
            stats: FaultStats::default(),
            recorder,
        }
    }

    /// Heap bytes held: the plan's lists and the interpreter's per-rank
    /// and per-link tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::census::{hash_map_bytes, vec_bytes};
        let p = &self.plan;
        vec_bytes(&p.stragglers)
            + vec_bytes(&p.pauses)
            + vec_bytes(&p.crashes)
            + vec_bytes(&p.links)
            + p.links
                .iter()
                .map(|l| vec_bytes(&l.src) + vec_bytes(&l.dst))
                .sum::<usize>()
            + vec_bytes(&p.partitions)
            + p.partitions
                .iter()
                .map(|w| vec_bytes(&w.side))
                .sum::<usize>()
            + hash_map_bytes(&self.straggler)
            + hash_map_bytes(&self.crashes)
            + hash_map_bytes(&self.ordinals)
            + hash_map_bytes(&self.link_ordinals)
    }

    /// Apply send-time fates to one outgoing message at time `now`,
    /// handing each surviving copy and its arrival time to `deliver` in
    /// delivery order. `deliver` is not called at all when the message
    /// was severed (dropped, cut, or corrupted with no corruption model).
    ///
    /// `arrival(fate factor, link factor, copy index)` is the driver's
    /// arrival rule; an unfaulted message asks for `arrival(1.0, 1.0, 0)`.
    /// A duplicated copy trails the original (copy index 1), like a
    /// retransmission overlapping the first delivery. Arrivals inside a
    /// pause window of `to` are deferred to the window's end.
    pub fn outgoing<P: Protocol>(
        &mut self,
        from: RankId,
        to: RankId,
        msg: P::Msg,
        now: f64,
        arrival: impl Fn(f64, f64, u32) -> f64,
        mut deliver: impl FnMut(P::Msg, f64),
    ) {
        if !self.active || !P::faultable(&msg) {
            deliver(msg, arrival(1.0, 1.0, 0));
            return;
        }
        let fate = self.fate(from, to);
        // The link layer rules on the same send: a cut severs every copy,
        // a delay compounds with the per-message fate, a corruption
        // damages the payload in flight. Send time decides which windows
        // are open.
        let link = self.link_fate(from, to, now);
        if self.recorder.is_enabled() {
            record_fates(&self.recorder, from, to, now, &fate, &link);
        }
        if link.cut {
            return;
        }
        let msg = if link.corrupt {
            match P::corrupted(&msg) {
                Some(bad) => bad,
                // No corruption model: indistinguishable from loss.
                None => return,
            }
        } else {
            msg
        };
        let mut msg = Some(msg);
        for copy in 0..fate.copies {
            let mut at = arrival(fate.delay_factor, link.delay_factor, copy);
            if let Some(until) = self.deferred_until(to, at) {
                at = until;
                self.recorder.instant(
                    from.as_u32(),
                    now,
                    EventKind::Fault {
                        kind: "pause",
                        to: to.as_u32(),
                    },
                );
            }
            // The last copy moves the payload; only duplicated copies
            // clone.
            let m = if copy + 1 == fate.copies {
                msg.take().expect("one take per send")
            } else {
                msg.as_ref().expect("taken only by the last copy").clone()
            };
            deliver(m, at);
        }
    }

    /// Delivery-time crash check: whether `to` is up at `now`. A `false`
    /// verdict counts the discarded delivery (and records it). Crash-stop
    /// is decided at *arrival*, never at send time, so a simulator's
    /// per-send latency draws stay aligned with a crash-free run.
    pub fn admit(&mut self, from: RankId, to: RankId, now: f64) -> bool {
        if !self.is_down(to, now) {
            return true;
        }
        self.stats.crash_dropped += 1;
        if self.recorder.is_enabled() {
            self.recorder.instant(
                from.as_u32(),
                now,
                EventKind::Fault {
                    kind: "crash_drop",
                    to: to.as_u32(),
                },
            );
        }
        false
    }

    /// Whether `rank` is crashed at `now` with no restart ever coming —
    /// such a rank can never report done, so executors count it as
    /// finished instead of hanging (the `sweep_crashed` rule).
    pub fn down_forever(&self, rank: RankId, now: f64) -> bool {
        match self.crashes.get(&rank) {
            Some(c) => now >= c.at && c.restart_after.is_none(),
            None => false,
        }
    }

    /// Whether the plan contains any crash events at all (lets drivers
    /// skip the sweep entirely).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Injected-fault accounting so far, including crash drops.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `rank` is down at time `now` (crashed, not yet restarted).
    fn is_down(&self, rank: RankId, now: f64) -> bool {
        self.crashes.get(&rank).is_some_and(|c| c.down_at(now))
    }

    /// Decide the fate of the next message on the `from → to` link.
    fn fate(&mut self, from: RankId, to: RankId) -> Fate {
        self.stats.faultable += 1;
        let ord = self.ordinals.entry((from, to)).or_insert(0);
        *ord += 1;
        let mut state = derive_seed(
            self.plan.seed,
            &[0xFA_017_u64, from.as_u32() as u64, to.as_u32() as u64, *ord],
        );
        let u_drop = unit(splitmix64(&mut state));
        let u_dup = unit(splitmix64(&mut state));
        let u_spike = unit(splitmix64(&mut state));
        let u_reorder = unit(splitmix64(&mut state));
        let u_mag = unit(splitmix64(&mut state));

        if u_drop < self.plan.drop {
            self.stats.dropped += 1;
            return Fate {
                copies: 0,
                delay_factor: 1.0,
            };
        }
        let copies = if u_dup < self.plan.duplicate {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut delay_factor = 1.0_f64;
        let strag = self
            .straggler
            .get(&from)
            .copied()
            .unwrap_or(1.0)
            .max(self.straggler.get(&to).copied().unwrap_or(1.0));
        if strag > 1.0 {
            self.stats.straggled += 1;
            delay_factor *= strag;
        }
        if u_spike < self.plan.delay_spike {
            self.stats.spiked += 1;
            // Truncated Pareto(α = 1): heavy tail, bounded at 100×scale.
            delay_factor *= self.plan.delay_spike_scale / (1.0 - 0.99 * u_mag);
        }
        if u_reorder < self.plan.reorder {
            self.stats.reordered += 1;
            delay_factor *= self.plan.reorder_factor.max(1.0);
        }
        Fate {
            copies,
            delay_factor,
        }
    }

    /// If `arrival` (seconds) falls inside a pause window of rank `to`,
    /// return the deferred delivery time.
    fn deferred_until(&mut self, to: RankId, arrival: f64) -> Option<f64> {
        let mut deferred: Option<f64> = None;
        for w in &self.plan.pauses {
            if w.rank == to && arrival >= w.from && arrival < w.until {
                deferred = Some(deferred.map_or(w.until, |d: f64| d.max(w.until)));
            }
        }
        if deferred.is_some() {
            self.stats.paused += 1;
        }
        deferred
    }

    /// Decide what the link layer does to the next message sent on
    /// `from → to` at time `now`.
    ///
    /// Probabilistic faults (`Lossy`, `Corrupt`) draw from a dedicated
    /// hash stream keyed by `(seed, from, to, link ordinal)`; the draws
    /// happen for every message on a *matching* link regardless of the
    /// time window, so the stream — and with it every downstream fate —
    /// is independent of when the windows open and close. A plan with no
    /// link faults and no partitions returns [`CLEAN_LINK`] without
    /// touching any counter or stream.
    fn link_fate(&mut self, from: RankId, to: RankId, now: f64) -> LinkVerdict {
        if self.plan.links_zero() {
            return CLEAN_LINK;
        }
        let mut fate = CLEAN_LINK;
        let mut state: Option<u64> = None;
        for l in &self.plan.links {
            if !l.matches_link(from, to) {
                continue;
            }
            // Lazily derive the per-message hash state on first
            // probabilistic match; later matches draw sequentially in
            // plan order.
            let draw = if l.is_probabilistic() {
                let s = match &mut state {
                    Some(s) => s,
                    None => {
                        let ord = self.link_ordinals.entry((from, to)).or_insert(0);
                        *ord += 1;
                        state.insert(derive_seed(
                            self.plan.seed,
                            &[
                                0x11_4C_17_u64,
                                from.as_u32() as u64,
                                to.as_u32() as u64,
                                *ord,
                            ],
                        ))
                    }
                };
                unit(splitmix64(s))
            } else {
                0.0
            };
            if !l.active_at(now) {
                continue;
            }
            match l.kind {
                LinkFaultKind::Cut => fate.cut = true,
                LinkFaultKind::Lossy { p } => {
                    if draw < p {
                        fate.cut = true;
                    }
                }
                LinkFaultKind::Delay { factor } => fate.delay_factor *= factor,
                LinkFaultKind::Flap { period, duty } => {
                    let phase = ((now - l.start) / period).fract();
                    if phase < duty {
                        fate.cut = true;
                    }
                }
                LinkFaultKind::Corrupt { p } => {
                    if draw < p {
                        fate.corrupt = true;
                    }
                }
            }
        }
        for p in &self.plan.partitions {
            if p.cuts(from, to, now) {
                fate.cut = true;
            }
        }
        if fate.cut {
            self.stats.link_cut += 1;
            // A severed message is neither delayed nor corrupted.
            fate.delay_factor = 1.0;
            fate.corrupt = false;
        } else if fate.corrupt {
            self.stats.corrupted += 1;
        }
        if fate.delay_factor > 1.0 {
            self.stats.link_delayed += 1;
        }
        fate
    }
}

/// Emit one recorder instant per fault decision that struck.
fn record_fates(
    recorder: &Recorder,
    from: RankId,
    to: RankId,
    now: f64,
    fate: &Fate,
    link: &LinkVerdict,
) {
    let fault = |kind| EventKind::Fault {
        kind,
        to: to.as_u32(),
    };
    if fate.copies == 0 {
        recorder.instant(from.as_u32(), now, fault("drop"));
    } else if fate.copies > 1 {
        recorder.instant(from.as_u32(), now, fault("duplicate"));
    }
    if fate.delay_factor > 1.0 {
        recorder.instant(from.as_u32(), now, fault("delay"));
    }
    if link.cut {
        recorder.instant(from.as_u32(), now, fault("link_cut"));
    }
    if link.delay_factor > 1.0 {
        recorder.instant(from.as_u32(), now, fault("link_delay"));
    }
    if link.corrupt {
        recorder.instant(from.as_u32(), now, fault("corrupt"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LinkFault, PartitionWindow, PauseWindow};
    use crate::sim::Ctx;

    /// Minimal protocol for exercising the emulator generically.
    struct Echo;
    impl Protocol for Echo {
        type Msg = u32;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, u32>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: RankId, _msg: u32) {}
        fn corrupted(msg: &u32) -> Option<u32> {
            Some(msg ^ 1)
        }
    }

    /// A protocol with no corruption model: corrupt faults become loss.
    struct NoModel;
    impl Protocol for NoModel {
        type Msg = u32;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, u32>) {}
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: RankId, _msg: u32) {}
    }

    fn emu(plan: FaultPlan) -> LinkEmulator {
        LinkEmulator::new(plan, Recorder::disabled())
    }

    /// Send `msg` on `from → to` at `now` under `arrival`; the surviving
    /// copies as `(msg, arrival)`.
    fn send_with<P: Protocol<Msg = u32>>(
        e: &mut LinkEmulator,
        from: u32,
        to: u32,
        msg: u32,
        now: f64,
        arrival: impl Fn(f64, f64, u32) -> f64,
    ) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        e.outgoing::<P>(
            RankId::new(from),
            RankId::new(to),
            msg,
            now,
            arrival,
            |m, at| out.push((m, at)),
        );
        out
    }

    /// [`send_with`] under the wall-clock arrival rule.
    fn send<P: Protocol<Msg = u32>>(
        e: &mut LinkEmulator,
        from: u32,
        to: u32,
        msg: u32,
        now: f64,
    ) -> Vec<(u32, f64)> {
        send_with::<P>(e, from, to, msg, now, wall_arrival(now))
    }

    /// Whether a message sent on `from → to` at `now` is severed.
    fn cut(e: &mut LinkEmulator, from: u32, to: u32, now: f64) -> bool {
        send::<Echo>(e, from, to, 0, now).is_empty()
    }

    /// The per-message delay factor of the next send on `from → to`
    /// (which must survive, in one copy).
    fn fate_factor(e: &mut LinkEmulator, from: u32, to: u32) -> f64 {
        let out = send_with::<Echo>(e, from, to, 0, 0.0, |fate, _, _| fate);
        assert_eq!(out.len(), 1);
        out[0].1
    }

    fn link(
        src: &[u32],
        dst: &[u32],
        start: f64,
        end: Option<f64>,
        kind: LinkFaultKind,
    ) -> LinkFault {
        LinkFault {
            src: src.iter().map(|&r| RankId::new(r)).collect(),
            dst: dst.iter().map(|&r| RankId::new(r)).collect(),
            start,
            end,
            kind,
        }
    }

    fn on_link(kind: LinkFaultKind) -> FaultPlan {
        FaultPlan {
            links: vec![link(&[0], &[1], 0.0, None, kind)],
            ..FaultPlan::none()
        }
    }

    fn lossy(drop: f64, duplicate: f64) -> FaultPlan {
        FaultPlan {
            seed: 42,
            drop,
            duplicate,
            ..FaultPlan::none()
        }
    }

    #[test]
    fn zero_plan_is_a_passthrough() {
        let mut e = emu(FaultPlan::none());
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 0.5), [(7, 0.5)]);
        assert!(e.admit(RankId::new(0), RankId::new(1), 0.0));
        assert_eq!(e.stats(), FaultStats::default());
    }

    #[test]
    #[should_panic(expected = "ProbabilityOutOfRange")]
    fn an_invalid_plan_panics_at_construction() {
        emu(lossy(1.5, 0.0));
    }

    #[test]
    fn fates_are_deterministic_per_link_ordinal() {
        // Two emulators over the same plan must draw identical fates —
        // the property that lets every rank process run its own instance
        // and still reproduce the single-instance simulator.
        let plan = || FaultPlan {
            links: on_link(LinkFaultKind::Lossy { p: 0.5 }).links,
            ..lossy(0.3, 0.2)
        };
        let mut a = emu(plan());
        let mut b = emu(plan());
        for i in 0..64 {
            let (from, to) = [(0, 1), (1, 0), (0, 2), (0, 1), (2, 5)][i as usize % 5];
            assert_eq!(
                send::<Echo>(&mut a, from, to, i, 0.0),
                send::<Echo>(&mut b, from, to, i, 0.0),
                "message {i} diverged"
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fate_ignores_interleaving_of_other_links() {
        // The n-th message on a link has the same fate regardless of
        // traffic on other links.
        let mut lone = emu(lossy(0.5, 0.0));
        let fates: Vec<_> = (0..20)
            .map(|_| send::<Echo>(&mut lone, 3, 4, 0, 0.0))
            .collect();
        let mut busy = emu(lossy(0.5, 0.0));
        let mut got = Vec::new();
        for i in 0..20 {
            // Interleave unrelated traffic.
            send::<Echo>(&mut busy, 1, 2, 0, 0.0);
            got.push(send::<Echo>(&mut busy, 3, 4, 0, 0.0));
            if i % 3 == 0 {
                send::<Echo>(&mut busy, 4, 3, 0, 0.0);
            }
        }
        assert_eq!(fates, got);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let mut e = emu(lossy(0.2, 0.0));
        let n = 10_000;
        let lost = (0..n)
            .filter(|i| send::<Echo>(&mut e, i % 16, (i + 1) % 16, 0, 0.0).is_empty())
            .count();
        assert_eq!(e.stats().faultable, u64::from(n));
        assert_eq!(e.stats().dropped, lost as u64);
        let rate = lost as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate} far from 0.2");
    }

    #[test]
    fn duplicates_are_delivered_in_order() {
        let mut e = emu(lossy(0.0, 1.0));
        // Without a delay fate both copies travel back-to-back (the
        // wall-clock drivers have no base latency to multiply); a delay
        // fate staggers them via the `(copy + 1)` factor.
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 0.0), [(7, 0.0), (7, 0.0)]);
        assert_eq!(e.stats().duplicated, 1);
    }

    #[test]
    fn stragglers_scale_delay_both_directions() {
        let mut e = emu(FaultPlan {
            stragglers: vec![(RankId::new(2), 8.0)],
            ..FaultPlan::none()
        });
        assert_eq!(fate_factor(&mut e, 2, 0), 8.0);
        assert_eq!(fate_factor(&mut e, 0, 2), 8.0);
        assert_eq!(fate_factor(&mut e, 0, 1), 1.0);
        assert_eq!(e.stats().straggled, 2);
    }

    #[test]
    fn spikes_are_heavy_but_bounded() {
        let mut e = emu(FaultPlan {
            seed: 7,
            delay_spike: 1.0,
            delay_spike_scale: 10.0,
            ..FaultPlan::none()
        });
        for i in 0..1000 {
            let f = fate_factor(&mut e, 0, 1 + i % 5);
            assert!((10.0..=10.0 * 101.0).contains(&f), "spike factor {f}");
        }
        assert_eq!(e.stats().spiked, 1000);
    }

    #[test]
    fn delay_fates_hold_back_in_driver_units() {
        let mut e = emu(on_link(LinkFaultKind::Delay { factor: 5.0 }));
        let out = send::<Echo>(&mut e, 0, 1, 7, 2.0);
        assert_eq!(out.len(), 1);
        // (5 − 1) × PARALLEL_DELAY_UNIT past `now`.
        let expected = 2.0 + 4.0 * PARALLEL_DELAY_UNIT.as_secs_f64();
        assert!((out[0].1 - expected).abs() < 1e-12);
    }

    #[test]
    fn link_delays_compound_and_count() {
        let mut e = emu(FaultPlan {
            links: vec![
                link(&[0], &[1], 0.0, None, LinkFaultKind::Delay { factor: 3.0 }),
                link(&[], &[1], 0.0, None, LinkFaultKind::Delay { factor: 2.0 }),
            ],
            ..FaultPlan::none()
        });
        let out = send_with::<Echo>(&mut e, 0, 1, 0, 0.0, |_, link, _| link);
        assert_eq!(out, [(0, 6.0)]);
        assert_eq!(e.stats().link_delayed, 1);
    }

    #[test]
    fn pause_windows_defer_delivery() {
        let mut e = emu(FaultPlan {
            pauses: vec![PauseWindow {
                rank: RankId::new(1),
                from: 1.0,
                until: 2.0,
            }],
            ..FaultPlan::none()
        });
        let mut lands = |to, at: f64| send_with::<Echo>(&mut e, 0, to, 0, 0.0, |_, _, _| at)[0].1;
        assert_eq!(lands(1, 0.5), 0.5);
        assert_eq!(lands(1, 1.5), 2.0, "held to the window's end");
        assert_eq!(lands(1, 2.0), 2.0, "the end is exclusive");
        assert_eq!(lands(0, 1.5), 1.5, "another rank's window");
        assert_eq!(e.stats().paused, 1);
    }

    #[test]
    fn cut_is_directed_windowed_and_counted() {
        let mut e = emu(FaultPlan {
            links: vec![link(&[0], &[1], 1.0, Some(2.0), LinkFaultKind::Cut)],
            ..FaultPlan::none()
        });
        assert!(!cut(&mut e, 0, 1, 0.5));
        assert!(cut(&mut e, 0, 1, 1.0));
        assert!(cut(&mut e, 0, 1, 1.9));
        assert!(!cut(&mut e, 0, 1, 2.0));
        // Reverse direction untouched — asymmetric by construction.
        assert!(!cut(&mut e, 1, 0, 1.5));
        assert_eq!(e.stats().link_cut, 2);
    }

    #[test]
    fn empty_sets_are_wildcards() {
        let mut e = emu(FaultPlan {
            links: vec![link(&[], &[3], 0.0, None, LinkFaultKind::Cut)],
            ..FaultPlan::none()
        });
        assert!(cut(&mut e, 7, 3, 0.0));
        assert!(!cut(&mut e, 3, 7, 0.0));
    }

    #[test]
    fn lossy_draws_are_window_independent() {
        // The n-th message on a link gets the same draw whether or not
        // earlier messages fell inside the fault window.
        let mk = |start: f64| {
            emu(FaultPlan {
                seed: 9,
                links: vec![link(
                    &[0],
                    &[1],
                    start,
                    None,
                    LinkFaultKind::Lossy { p: 0.5 },
                )],
                ..FaultPlan::none()
            })
        };
        let run = |e: &mut LinkEmulator, at: f64| -> Vec<bool> {
            (0..64).map(|i| cut(e, 0, 1, at + f64::from(i))).collect()
        };
        // Messages before the late window opens are never lost, yet must
        // not shift the draws used once it is open: ordinals 65.. under
        // the late window are ordinals 65.. under the early one.
        let mut early = mk(0.0);
        let mut late = mk(10.0);
        run(&mut early, 20.0);
        assert!(run(&mut late, -64.0).iter().all(|&lost| !lost));
        let hits = run(&mut late, 20.0);
        assert_eq!(hits, run(&mut early, 20.0));
        // And the loss rate is in the right ballpark.
        let n = hits.iter().filter(|&&lost| lost).count();
        assert!((16..=48).contains(&n), "loss count {n} far from half");
    }

    #[test]
    fn flap_is_deterministic_in_time() {
        let mut e = emu(FaultPlan {
            links: vec![link(
                &[0],
                &[1],
                1.0,
                None,
                LinkFaultKind::Flap {
                    period: 1.0,
                    duty: 0.5,
                },
            )],
            ..FaultPlan::none()
        });
        assert!(cut(&mut e, 0, 1, 1.0)); // phase 0.0 < 0.5
        assert!(cut(&mut e, 0, 1, 1.25));
        assert!(!cut(&mut e, 0, 1, 1.5));
        assert!(!cut(&mut e, 0, 1, 1.75));
        assert!(cut(&mut e, 0, 1, 2.1));
        assert!(!cut(&mut e, 0, 1, 0.5)); // before the fault starts
    }

    #[test]
    fn partitions_cut_both_directions_across_the_split() {
        let mut e = emu(FaultPlan {
            partitions: vec![PartitionWindow {
                side: vec![RankId::new(0), RankId::new(1)],
                start: 1.0,
                end: Some(2.0),
            }],
            ..FaultPlan::none()
        });
        assert!(cut(&mut e, 0, 2, 1.5));
        assert!(cut(&mut e, 2, 0, 1.5));
        // Within a component traffic flows.
        assert!(!cut(&mut e, 0, 1, 1.5));
        assert!(!cut(&mut e, 2, 3, 1.5));
        // Outside the window the network is whole.
        assert!(!cut(&mut e, 0, 2, 0.5));
        assert!(!cut(&mut e, 0, 2, 2.0));
    }

    #[test]
    fn corruption_uses_the_protocol_model_or_becomes_loss() {
        let plan = || FaultPlan {
            seed: 5,
            ..on_link(LinkFaultKind::Corrupt { p: 1.0 })
        };
        let mut e = emu(plan());
        assert_eq!(
            send::<Echo>(&mut e, 0, 1, 6, 0.0),
            [(7, 0.0)],
            "corruption model applied in flight"
        );
        assert_eq!(e.stats().corrupted, 1);
        assert!(
            send::<NoModel>(&mut emu(plan()), 0, 1, 6, 0.0).is_empty(),
            "no corruption model: damage is loss"
        );
    }

    #[test]
    fn a_cut_wins_over_corruption() {
        let mut plan = on_link(LinkFaultKind::Corrupt { p: 1.0 });
        plan.links
            .push(link(&[0], &[1], 0.0, None, LinkFaultKind::Cut));
        let mut e = emu(plan);
        assert!(cut(&mut e, 0, 1, 0.0));
        assert_eq!(e.stats().corrupted, 0);
        assert_eq!(e.stats().link_cut, 1);
    }

    #[test]
    fn crash_windows_gate_admission_and_count_drops() {
        let (src, fatal, warm) = (RankId::new(0), RankId::new(1), RankId::new(2));
        let mut e = emu(FaultPlan {
            crashes: vec![
                CrashEvent::fatal(fatal, 2.0),
                CrashEvent::with_restart(warm, 1.0, 3.0),
            ],
            ..FaultPlan::none()
        });
        assert!(e.has_crashes());
        // Fatal crash: down from `at` forever.
        assert!(e.admit(src, fatal, 1.9));
        assert!(!e.admit(src, fatal, 2.0));
        assert!(!e.down_forever(fatal, 1.9));
        assert!(e.down_forever(fatal, 100.0));
        // Warm restart: down only during the outage window.
        assert!(!e.admit(src, warm, 1.0));
        assert!(!e.admit(src, warm, 3.9));
        assert!(e.admit(src, warm, 4.0));
        assert!(!e.down_forever(warm, 2.0));
        assert_eq!(e.stats().crash_dropped, 3);
        // Unlisted ranks never crash.
        assert!(e.admit(fatal, src, 50.0));
        assert!(!e.down_forever(src, 99.0));
    }
}
