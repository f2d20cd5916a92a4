//! Cross-driver fate identity: the n-th message on a link suffers the
//! same fate under every driver.
//!
//! A scripted toy protocol sends one fixed `(time, from, to)` sequence
//! under a busy plan — drop, duplicate, delay spike, reorder, a
//! straggler, cut / lossy / corrupt / delayed links, a partition window,
//! and a pause — once through the [`Simulator`] and once through a bare
//! [`LinkEmulator`] driven the way the wall-clock host drives it. The
//! surviving copies of every send and the [`FaultStats`] must match.
//! The wall-clock host itself is the third client: the same script
//! through the threaded executor, against a bare emulator replaying the
//! send times the host's clock gave.

use std::sync::Arc;
use std::time::Duration;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_obs::Recorder;
use tempered_runtime::emulator::{wall_arrival, LinkEmulator};
use tempered_runtime::fault::{
    FaultPlan, FaultStats, LinkFault, LinkFaultKind, PartitionWindow, PauseWindow,
};
use tempered_runtime::parallel::{run_parallel_with, ParallelOptions};
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

/// Every script time lies inside rank 5's pause window `[0, pause_until]`;
/// with a window long against both arrival rules (µs of simulated
/// latency, ms of emulated hold-back), "arrives paused" means the same
/// set of messages under both.
fn busy_plan(pause_until: f64) -> FaultPlan {
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
            until: pause_until,
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
    /// The driver's clock when this rank sent script entry `i`.
    sent_at: Vec<Option<f64>>,
}

fn ranks(script: &Script) -> Vec<Scripted> {
    (0..RANKS)
        .map(|me| Scripted {
            me,
            script: Arc::clone(script),
            got: vec![0; script.len()],
            sent_at: vec![None; script.len()],
        })
        .collect()
}

/// Copies received per script entry, summed over all ranks.
fn copies(ranks: &[Scripted]) -> Vec<u32> {
    let mut total = vec![0; ranks[0].got.len()];
    for rank in ranks {
        for (total, got) in total.iter_mut().zip(&rank.got) {
            *total += got;
        }
    }
    total
}

/// Feed a bare emulator the script, entry `i` sent at `at(i)`, under the
/// wall-clock arrival rule: surviving copies per entry, and the stats.
fn bare_emulator(
    plan: FaultPlan,
    script: &Script,
    at: impl Fn(usize) -> f64,
) -> (Vec<u32>, FaultStats) {
    let mut emulator = LinkEmulator::new(plan, Recorder::disabled());
    let mut copies = vec![0u32; script.len()];
    for (i, &(_, from, to)) in script.iter().enumerate() {
        emulator.outgoing::<Scripted>(
            RankId::new(from),
            RankId::new(to),
            Msg::Data(i),
            at(i),
            wall_arrival(at(i)),
            |_, _| copies[i] += 1,
        );
    }
    (copies, emulator.stats())
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
            Msg::Fire(i) => {
                self.sent_at[i] = Some(ctx.now());
                ctx.send(RankId::new(self.script[i].2), Msg::Data(i), 64)
            }
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

    let mut sim = Simulator::new(ranks(&script), NetworkModel::default(), &RngFactory::new(1));
    sim.set_fault_plan(busy_plan(1.0));
    let report = sim.run();
    let sim_copies = copies(&sim.into_ranks());

    let (emu_copies, emu_stats) = bare_emulator(busy_plan(1.0), &script, |i| script[i].0);

    assert_eq!(sim_copies, emu_copies, "per-send surviving copies");
    assert_eq!(report.faults, emu_stats);

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

/// The same script through the wall-clock host (two threaded workers,
/// each with its own emulator). Its timers fire when the OS lets them,
/// so the reference is a bare emulator fed the send times the host's
/// clock actually gave — which the handlers saw, because one clock
/// reading serves a whole handler turn. Every surviving copy must be
/// delivered exactly once, held ones included, and the workers' merged
/// stats must equal the single emulator's.
#[test]
fn wall_clock_host_and_bare_emulator_agree_on_every_fate() {
    let script = script();
    // The run ends by idle timeout (the script has no notion of done),
    // which therefore has to outlast the quiet stretch before the pause
    // window closes and releases what was sent to rank 5.
    let plan = busy_plan(0.2);
    let report = run_parallel_with(
        ranks(&script),
        2,
        Duration::from_millis(300),
        ParallelOptions {
            fault_plan: plan.clone(),
            ..Default::default()
        },
    );
    let sent_at: Vec<f64> = (0..script.len())
        .map(|i| report.ranks[script[i].1 as usize].sent_at[i].expect("every entry was sent"))
        .collect();

    let (emu_copies, emu_stats) = bare_emulator(plan, &script, |i| sent_at[i]);

    assert_eq!(
        copies(&report.ranks),
        emu_copies,
        "per-send delivered copies"
    );
    assert_eq!(report.faults, emu_stats);
    assert_eq!(report.network.messages, script.len() as u64);
    assert!(emu_stats.paused > 0 && emu_stats.link_delayed > 0 && emu_stats.duplicated > 0);
}
