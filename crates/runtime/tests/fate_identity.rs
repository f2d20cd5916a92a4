//! Cross-driver fate identity: the n-th message on a link suffers the
//! same fate under every driver.
//!
//! A scripted toy protocol sends one fixed `(time, from, to)` sequence
//! under a busy plan — drop, duplicate, delay spike, reorder, a
//! straggler, cut / lossy / corrupt / delayed links, a partition window,
//! and a pause — once through the [`Simulator`] and once through a bare
//! [`LinkEmulator`] driven the way the wall-clock drivers drive it. The
//! surviving copies of every send and the [`FaultStats`] must match.

use std::sync::Arc;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_obs::Recorder;
use tempered_runtime::emulator::{wall_arrival, LinkEmulator};
use tempered_runtime::fault::{FaultPlan, LinkFault, LinkFaultKind, PartitionWindow, PauseWindow};
use tempered_runtime::sim::{Ctx, NetworkModel, Protocol, Simulator};

const RANKS: u32 = 6;

/// `(send time, from, to)`, sorted by time so per-link order is the
/// script order under both drivers.
type Script = Arc<Vec<(f64, u32, u32)>>;

fn script() -> Script {
    let mut s = Vec::new();
    for i in 0..400u32 {
        let from = i % RANKS;
        let to = (from + 1 + (i / RANKS) % (RANKS - 1)) % RANKS;
        s.push((f64::from(i) * 1e-4, from, to));
    }
    Arc::new(s)
}

fn link(src: u32, dst: u32, start: f64, end: Option<f64>, kind: LinkFaultKind) -> LinkFault {
    LinkFault {
        src: vec![RankId::new(src)],
        dst: vec![RankId::new(dst)],
        start,
        end,
        kind,
    }
}

/// Every script time lies inside rank 5's pause window, and the window
/// is long against both arrival rules (µs of simulated latency, µs of
/// emulated hold-back), so "arrives paused" means the same set of
/// messages under both.
fn busy_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA7E,
        drop: 0.1,
        duplicate: 0.1,
        delay_spike: 0.1,
        delay_spike_scale: 4.0,
        reorder: 0.1,
        reorder_factor: 3.0,
        stragglers: vec![(RankId::new(4), 2.5)],
        pauses: vec![PauseWindow {
            rank: RankId::new(5),
            from: 0.0,
            until: 1.0,
        }],
        links: vec![
            link(0, 1, 0.005, Some(0.02), LinkFaultKind::Cut),
            link(1, 2, 0.0, None, LinkFaultKind::Lossy { p: 0.4 }),
            link(2, 3, 0.0, None, LinkFaultKind::Corrupt { p: 0.5 }),
            link(3, 4, 0.01, None, LinkFaultKind::Delay { factor: 2.0 }),
        ],
        partitions: vec![PartitionWindow {
            side: vec![RankId::new(0), RankId::new(3)],
            start: 0.025,
            end: Some(0.03),
        }],
        ..FaultPlan::none()
    }
}

#[derive(Clone, Debug)]
enum Msg {
    /// Timer: send script entry `i` now.
    Fire(usize),
    /// Script entry `i` on the wire.
    Data(usize),
}

struct Scripted {
    me: u32,
    script: Script,
    /// Copies received, by script index.
    got: Vec<u32>,
}

impl Protocol for Scripted {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for (i, &(at, from, _)) in self.script.iter().enumerate() {
            if from == self.me {
                ctx.schedule(at, Msg::Fire(i));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: RankId, msg: Msg) {
        match msg {
            Msg::Fire(i) => ctx.send(RankId::new(self.script[i].2), Msg::Data(i), 64),
            Msg::Data(i) => self.got[i] += 1,
        }
    }

    /// Damaged copies still arrive (and count as surviving).
    fn corrupted(msg: &Msg) -> Option<Msg> {
        Some(msg.clone())
    }
}

#[test]
fn simulator_and_bare_emulator_agree_on_every_fate() {
    let script = script();

    let ranks: Vec<Scripted> = (0..RANKS)
        .map(|me| Scripted {
            me,
            script: Arc::clone(&script),
            got: vec![0; script.len()],
        })
        .collect();
    let mut sim = Simulator::new(ranks, NetworkModel::default(), &RngFactory::new(1));
    sim.set_fault_plan(busy_plan());
    let report = sim.run();
    let mut sim_copies = vec![0u32; script.len()];
    for rank in sim.into_ranks() {
        for (total, got) in sim_copies.iter_mut().zip(&rank.got) {
            *total += got;
        }
    }

    let mut emulator = LinkEmulator::new(busy_plan(), Recorder::disabled());
    let mut emu_copies = vec![0u32; script.len()];
    for (i, &(at, from, to)) in script.iter().enumerate() {
        emulator.outgoing::<Scripted>(
            RankId::new(from),
            RankId::new(to),
            Msg::Data(i),
            at,
            wall_arrival(at, 1e-6),
            |_, _| emu_copies[i] += 1,
        );
    }

    assert_eq!(sim_copies, emu_copies, "per-send surviving copies");
    assert_eq!(report.faults, emulator.stats());

    // The plan must actually have exercised every dimension, or the
    // equality above proves little.
    let s = report.faults;
    for (what, n) in [
        ("dropped", s.dropped),
        ("duplicated", s.duplicated),
        ("spiked", s.spiked),
        ("reordered", s.reordered),
        ("straggled", s.straggled),
        ("paused", s.paused),
        ("link_cut", s.link_cut),
        ("link_delayed", s.link_delayed),
        ("corrupted", s.corrupted),
    ] {
        assert!(n > 0, "busy plan never {what}");
    }
    assert!(sim_copies.contains(&0) && sim_copies.contains(&2));
}
