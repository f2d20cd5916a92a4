//! Userspace link emulator: the one [`FaultPlan`] interpreter, shared by
//! every driver.
//!
//! The deterministic simulator, the threaded executor and the TCP socket
//! driver all need the exact same decision procedure: per-message fate
//! (drop / duplicate / delay spike) at send time, then directed link fate
//! (cut / lossy / delay / flap / corrupt + partition windows), then
//! receiver pause deferral, and a crash check at delivery time — all
//! drawn from the plan's seeded hash streams so the n-th message on a
//! link suffers the same fate under every driver. That procedure lives
//! here and nowhere else (pinned by `tests/fate_identity.rs`).
//!
//! The emulator is pure with respect to time: callers pass `now` (virtual
//! seconds in the simulator, wall-clock seconds since run start in the
//! real drivers) and their *arrival rule* — how a latency multiplier
//! turns into an arrival time on their clock — and get each surviving
//! copy handed back with that arrival time. How a copy travels afterwards
//! (event queue, in-memory channel, TCP frame) is the driver's business,
//! which is exactly what lets the chaos grids rerun over real sockets and
//! commit bit-for-bit what the simulator commits (see `DESIGN.md` §12).

use crate::fault::{CrashSchedule, Fate, FaultInjector, FaultPlan, FaultStats, LinkFate};
use crate::parallel::PARALLEL_DELAY_UNIT;
use crate::sim::Protocol;
use tempered_core::ids::RankId;
use tempered_obs::{EventKind, Recorder};

/// Send-time and delivery-time fault interpreter.
///
/// Construct once per simulator, rank process, or worker thread —
/// per-link ordinal streams are keyed by the *sending* rank, so any
/// partitioning of the emulator that keeps all of a rank's sends on one
/// instance reproduces the single-instance simulator exactly.
pub struct LinkEmulator {
    injector: Option<FaultInjector>,
    crash_sched: CrashSchedule,
    /// Receives one instant event per injected fault.
    pub(crate) recorder: Recorder,
    /// Deliveries discarded because the destination was crashed.
    crash_dropped: u64,
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
    /// Build an emulator for `plan`. A [`FaultPlan::is_zero`] plan is
    /// validated and discarded outright: the fast path then touches no
    /// hash stream at all, so the only way a plan can perturb a run is by
    /// actually injecting a fault.
    pub fn new(plan: FaultPlan, recorder: Recorder) -> Self {
        let crash_sched = CrashSchedule::new(&plan.crashes);
        let injector = if plan.is_zero() {
            plan.validate()
                .expect("a plan handed to an executor was validated at the door");
            None
        } else {
            Some(FaultInjector::new(plan))
        };
        LinkEmulator {
            injector,
            crash_sched,
            recorder,
            crash_dropped: 0,
        }
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
        let inj = match &mut self.injector {
            Some(inj) if P::faultable(&msg) => inj,
            _ => {
                deliver(msg, arrival(1.0, 1.0, 0));
                return;
            }
        };
        let fate = inj.fate(from, to);
        // The link layer rules on the same send: a cut severs every copy,
        // a delay compounds with the per-message fate, a corruption
        // damages the payload in flight. Send time decides which windows
        // are open.
        let link = inj.link_fate(from, to, now);
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
            if let Some(until) = inj.deferred_until(to, at) {
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
        if !self.crash_sched.is_down(to, now) {
            return true;
        }
        self.crash_dropped += 1;
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
        self.crash_sched.is_down_forever(rank, now)
    }

    /// Whether the plan contains any crash events at all (lets drivers
    /// skip the sweep entirely).
    pub fn has_crashes(&self) -> bool {
        !self.crash_sched.is_empty()
    }

    /// Injected-fault accounting so far, including crash drops.
    pub fn stats(&self) -> FaultStats {
        let mut stats = self.injector.as_ref().map(|i| i.stats).unwrap_or_default();
        stats.crash_dropped += self.crash_dropped;
        stats
    }
}

/// Emit one recorder instant per fault decision that struck.
fn record_fates(
    recorder: &Recorder,
    from: RankId,
    to: RankId,
    now: f64,
    fate: &Fate,
    link: &LinkFate,
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
    use crate::fault::{CrashEvent, LinkFault, LinkFaultKind, PartitionWindow};
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

    /// Send `msg` on `from → to` at `now` under the wall-clock arrival
    /// rule; the surviving copies as `(msg, arrival)`.
    fn send<P: Protocol<Msg = u32>>(
        e: &mut LinkEmulator,
        from: u32,
        to: u32,
        msg: u32,
        now: f64,
    ) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        e.outgoing::<P>(
            RankId::new(from),
            RankId::new(to),
            msg,
            now,
            wall_arrival(now),
            |m, at| out.push((m, at)),
        );
        out
    }

    fn on_link(kind: LinkFaultKind) -> Vec<LinkFault> {
        vec![LinkFault {
            src: vec![RankId::new(0)],
            dst: vec![RankId::new(1)],
            start: 0.0,
            end: None,
            kind,
        }]
    }

    #[test]
    fn zero_plan_is_a_passthrough() {
        let mut e = emu(FaultPlan::none());
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 0.5), [(7, 0.5)]);
        assert!(e.admit(RankId::new(0), RankId::new(1), 0.0));
        assert_eq!(e.stats(), FaultStats::default());
    }

    #[test]
    fn cut_link_severs_and_counts() {
        let mut e = emu(FaultPlan {
            links: on_link(LinkFaultKind::Cut),
            ..FaultPlan::none()
        });
        assert!(send::<Echo>(&mut e, 0, 1, 7, 0.0).is_empty());
        // The reverse direction is untouched.
        assert_eq!(send::<Echo>(&mut e, 1, 0, 7, 0.0).len(), 1);
        assert_eq!(e.stats().link_cut, 1);
    }

    #[test]
    fn corruption_uses_the_protocol_model_or_becomes_loss() {
        let plan = || FaultPlan {
            seed: 5,
            links: on_link(LinkFaultKind::Corrupt { p: 1.0 }),
            ..FaultPlan::none()
        };
        assert_eq!(
            send::<Echo>(&mut emu(plan()), 0, 1, 6, 0.0),
            [(7, 0.0)],
            "corruption model applied in flight"
        );
        assert!(
            send::<NoModel>(&mut emu(plan()), 0, 1, 6, 0.0).is_empty(),
            "no corruption model: damage is loss"
        );
    }

    #[test]
    fn delay_fates_hold_back_in_driver_units() {
        let mut e = emu(FaultPlan {
            links: on_link(LinkFaultKind::Delay { factor: 5.0 }),
            ..FaultPlan::none()
        });
        let out = send::<Echo>(&mut e, 0, 1, 7, 2.0);
        assert_eq!(out.len(), 1);
        // (5 − 1) × PARALLEL_DELAY_UNIT past `now`.
        let expected = 2.0 + 4.0 * PARALLEL_DELAY_UNIT.as_secs_f64();
        assert!((out[0].1 - expected).abs() < 1e-12);
    }

    #[test]
    fn duplicates_are_delivered_in_order() {
        let mut e = emu(FaultPlan {
            seed: 3,
            duplicate: 1.0,
            ..FaultPlan::none()
        });
        // Without a delay fate both copies travel back-to-back (the
        // wall-clock drivers have no base latency to multiply); a delay
        // fate staggers them via the `(copy + 1)` factor.
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 0.0), [(7, 0.0), (7, 0.0)]);
        assert_eq!(e.stats().duplicated, 1);
    }

    #[test]
    fn partitions_cut_send_time_windows() {
        let mut e = emu(FaultPlan {
            partitions: vec![PartitionWindow {
                side: vec![RankId::new(1)],
                start: 1.0,
                end: Some(2.0),
            }],
            ..FaultPlan::none()
        });
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 0.5).len(), 1, "before");
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 1.5).len(), 0, "inside");
        assert_eq!(send::<Echo>(&mut e, 0, 1, 7, 2.5).len(), 1, "healed");
    }

    #[test]
    fn crash_windows_gate_admission_and_count_drops() {
        let mut e = emu(FaultPlan {
            crashes: vec![CrashEvent::fatal(RankId::new(2), 1.0)],
            ..FaultPlan::none()
        });
        assert!(e.has_crashes());
        assert!(e.admit(RankId::new(0), RankId::new(2), 0.5));
        assert!(!e.admit(RankId::new(0), RankId::new(2), 1.5));
        assert_eq!(e.stats().crash_dropped, 1);
        assert!(!e.down_forever(RankId::new(2), 0.5));
        assert!(e.down_forever(RankId::new(2), 1.5));
        assert!(!e.down_forever(RankId::new(0), 99.0));
    }

    #[test]
    fn ordinal_streams_match_across_instances() {
        // Two emulators over the same plan must draw identical per-link
        // fates — the property that lets every rank process run its own
        // instance and still reproduce the single-instance simulator.
        let plan = || FaultPlan {
            seed: 11,
            links: on_link(LinkFaultKind::Lossy { p: 0.5 }),
            ..FaultPlan::none()
        };
        let mut a = emu(plan());
        let mut b = emu(plan());
        for i in 0..64 {
            assert_eq!(
                send::<Echo>(&mut a, 0, 1, i, 0.0),
                send::<Echo>(&mut b, 0, 1, i, 0.0),
                "message {i} diverged"
            );
        }
        assert_eq!(a.stats(), b.stats());
    }
}
