//! Parameter sweeps over the §V design space.
//!
//! The paper motivates its changes with targeted experiments; the sweeps
//! here generalize them so ablations can be regenerated for any layout:
//! gossip fanout/rounds (information coverage vs. cost), trials ×
//! iterations (refinement budget), task orderings (§V-E), and the three
//! binary design toggles (criterion, CMF scale, CMF recomputation).

use crate::table::{fmt_sig, Table};
use tempered_core::cmf::CmfKind;
use tempered_core::criteria::CriterionKind;
use tempered_core::distribution::Distribution;
use tempered_core::gossip::{run_gossip, GossipConfig};
use tempered_core::ordering::OrderingKind;
use tempered_core::refine::{refine, RefineConfig};
use tempered_core::rng::RngFactory;
use tempered_core::transfer::TransferConfig;

/// One sweep sample.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable parameter description.
    pub label: String,
    /// Final (best) imbalance.
    pub imbalance: f64,
    /// Total accepted transfers.
    pub transfers: usize,
    /// Total rejected candidates.
    pub rejected: usize,
    /// Gossip messages sent.
    pub messages: u64,
    /// Net migrations the proposal would execute.
    pub migrations: usize,
}

/// A completed sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Sweep title.
    pub title: String,
    /// Samples in sweep order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Render as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            self.title.clone(),
            &[
                "Config",
                "Imbalance (I)",
                "Transfers",
                "Rejected",
                "Messages",
                "Migrations",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                p.label.clone(),
                fmt_sig(p.imbalance),
                p.transfers.to_string(),
                p.rejected.to_string(),
                p.messages.to_string(),
                p.migrations.to_string(),
            ]);
        }
        t
    }
}

fn point(label: String, dist: &Distribution, cfg: &RefineConfig, seed: u64) -> SweepPoint {
    let out = refine(dist, cfg, &RngFactory::new(seed), 0);
    SweepPoint {
        label,
        imbalance: out.best_imbalance,
        transfers: out.records.iter().map(|r| r.transfers).sum(),
        rejected: out.records.iter().map(|r| r.rejected).sum(),
        messages: out.total_messages,
        migrations: out.migrations.len(),
    }
}

fn base_config(trials: usize, iters: usize) -> RefineConfig {
    RefineConfig {
        trials,
        iters,
        gossip: GossipConfig::default(),
        transfer: TransferConfig::tempered(),
    }
}

/// Sweep the gossip fanout `f`.
pub fn sweep_fanout(dist: &Distribution, fanouts: &[usize], seed: u64) -> Sweep {
    let points = fanouts
        .iter()
        .map(|&f| {
            let mut cfg = base_config(2, 6);
            cfg.gossip.fanout = f;
            point(format!("f={f}"), dist, &cfg, seed)
        })
        .collect();
    Sweep {
        title: "Gossip fanout sweep (TemperedLB, 2 trials × 6 iters)".into(),
        points,
    }
}

/// Sweep the gossip round limit `k`.
pub fn sweep_rounds(dist: &Distribution, rounds: &[usize], seed: u64) -> Sweep {
    let points = rounds
        .iter()
        .map(|&k| {
            let mut cfg = base_config(2, 6);
            cfg.gossip.rounds = k;
            point(format!("k={k}"), dist, &cfg, seed)
        })
        .collect();
    Sweep {
        title: "Gossip rounds sweep (TemperedLB, 2 trials × 6 iters)".into(),
        points,
    }
}

/// Sweep the refinement budget (trials × iterations).
pub fn sweep_budget(dist: &Distribution, budgets: &[(usize, usize)], seed: u64) -> Sweep {
    let points = budgets
        .iter()
        .map(|&(t, i)| {
            point(
                format!("trials={t} iters={i}"),
                dist,
                &base_config(t, i),
                seed,
            )
        })
        .collect();
    Sweep {
        title: "Refinement budget sweep (TemperedLB)".into(),
        points,
    }
}

/// Sweep the four §V-E task orderings.
pub fn sweep_orderings(dist: &Distribution, seed: u64) -> Sweep {
    let points = OrderingKind::ALL
        .iter()
        .map(|&ordering| {
            let mut cfg = base_config(2, 6);
            cfg.transfer.ordering = ordering;
            point(format!("{ordering}"), dist, &cfg, seed)
        })
        .collect();
    Sweep {
        title: "Task ordering sweep (§V-E)".into(),
        points,
    }
}

/// Ablate the three §V design toggles one at a time from the full
/// TemperedLB configuration.
pub fn sweep_ablation(dist: &Distribution, seed: u64) -> Sweep {
    let mut points = Vec::new();
    let full = base_config(2, 6);
    points.push(point("full TemperedLB".into(), dist, &full, seed));

    let mut no_relax = full;
    no_relax.transfer.criterion = CriterionKind::Original;
    points.push(point("criterion → original".into(), dist, &no_relax, seed));

    let mut no_cmf = full;
    no_cmf.transfer.cmf = CmfKind::Original;
    points.push(point("CMF scale → original".into(), dist, &no_cmf, seed));

    let mut no_recompute = full;
    no_recompute.transfer.recompute_cmf = false;
    points.push(point(
        "CMF recompute → off".into(),
        dist,
        &no_recompute,
        seed,
    ));

    let mut one_shot = full;
    one_shot.trials = 1;
    one_shot.iters = 1;
    points.push(point("trials/iters → 1/1".into(), dist, &one_shot, seed));

    Sweep {
        title: "Design ablation (§V changes removed one at a time)".into(),
        points,
    }
}

/// Sweep the relative imbalance threshold `h` (§V-B notes "allowing for
/// higher values of h do not substantially affect the outcome on
/// average" for the original criterion; this generalizes the check to
/// any configuration).
pub fn sweep_threshold(dist: &Distribution, thresholds: &[f64], seed: u64) -> Sweep {
    let points = thresholds
        .iter()
        .map(|&h| {
            let mut cfg = base_config(2, 6);
            cfg.transfer.threshold_h = h;
            point(format!("h={h}"), dist, &cfg, seed)
        })
        .collect();
    Sweep {
        title: "Overload threshold sweep (h)".into(),
        points,
    }
}

/// Sweep the knowledge cap (`max_knowledge`): the paper's footnote-2
/// future-work direction — bounding `|S^p|` caps memory and message
/// volume at some cost in LB quality.
pub fn sweep_knowledge_cap(dist: &Distribution, caps: &[usize], seed: u64) -> Sweep {
    let points = caps
        .iter()
        .map(|&cap| {
            let mut cfg = base_config(2, 6);
            cfg.gossip.max_knowledge = cap;
            let label = if cap == 0 {
                "unbounded".to_string()
            } else {
                format!("|S| <= {cap}")
            };
            point(label, dist, &cfg, seed)
        })
        .collect();
    Sweep {
        title: "Knowledge cap sweep (footnote 2: limited-information gossip)".into(),
        points,
    }
}

/// Gossip coverage as a function of rounds: fraction of ranks achieving
/// full knowledge, and message cost (supports the `log_f P` claim of
/// §IV-B's theoretical analysis).
pub fn gossip_coverage(dist: &Distribution, fanout: usize, max_rounds: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("Gossip coverage vs rounds (f={fanout})"),
        &["k", "full-knowledge ranks (%)", "mean |S|", "messages"],
    );
    let l_ave = dist.average_load();
    let underloaded = dist.rank_loads().iter().filter(|&&l| l < l_ave).count();
    for k in 0..=max_rounds {
        let cfg = GossipConfig {
            fanout,
            rounds: k,
            max_knowledge: 0,
        };
        let out = run_gossip(dist.rank_loads(), l_ave, &cfg, &RngFactory::new(seed), 0);
        t.push_row(vec![
            k.to_string(),
            fmt_sig(100.0 * out.global_knowledge_fraction(underloaded)),
            fmt_sig(out.mean_knowledge_size()),
            out.messages_sent.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ConcentratedLayout;

    fn dist() -> Distribution {
        ConcentratedLayout::small().build(3)
    }

    #[test]
    fn fanout_sweep_produces_point_per_value() {
        let s = sweep_fanout(&dist(), &[1, 2, 4], 1);
        assert_eq!(s.points.len(), 3);
        // Higher fanout should not send fewer messages.
        assert!(s.points[2].messages >= s.points[0].messages);
        let t = s.to_table();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn budget_sweep_improves_with_more_iterations() {
        let d = dist();
        let s = sweep_budget(&d, &[(1, 1), (2, 6)], 1);
        assert!(
            s.points[1].imbalance <= s.points[0].imbalance + 1e-9,
            "more refinement budget should not hurt: {} vs {}",
            s.points[0].imbalance,
            s.points[1].imbalance
        );
    }

    #[test]
    fn ablation_full_config_is_best_or_tied() {
        let d = dist();
        let s = sweep_ablation(&d, 1);
        let full = s.points[0].imbalance;
        let orig_criterion = s.points[1].imbalance;
        assert!(
            full <= orig_criterion + 1e-9,
            "removing the relaxed criterion must not help: {full} vs {orig_criterion}"
        );
    }

    #[test]
    fn orderings_sweep_covers_all_four() {
        let s = sweep_orderings(&dist(), 1);
        assert_eq!(s.points.len(), 4);
        for p in &s.points {
            assert!(p.imbalance.is_finite());
        }
    }

    #[test]
    fn threshold_sweep_higher_h_means_fewer_transfers() {
        let d = dist();
        let s = sweep_threshold(&d, &[1.0, 2.0, 8.0], 1);
        assert_eq!(s.points.len(), 3);
        assert!(
            s.points[2].transfers <= s.points[0].transfers,
            "h=8 should transfer no more than h=1"
        );
    }

    #[test]
    fn knowledge_cap_bounds_knowledge_and_costs_quality() {
        let d = dist();
        let s = sweep_knowledge_cap(&d, &[0, 8, 2], 1);
        assert_eq!(s.points.len(), 3);
        // A tight cap must not *improve* on unbounded knowledge.
        assert!(
            s.points[2].imbalance >= s.points[0].imbalance - 1e-9,
            "cap=2 {} vs unbounded {}",
            s.points[2].imbalance,
            s.points[0].imbalance
        );
        // And it sends fewer knowledge pairs (messages are similar, but
        // payloads shrink; transfers should drop with fewer targets).
        assert!(s.points[2].imbalance.is_finite());
    }

    #[test]
    fn gossip_coverage_grows_with_rounds() {
        let d = dist();
        let t = gossip_coverage(&d, 3, 6, 1);
        assert_eq!(t.rows.len(), 7);
        // k=0 row reports zero messages.
        assert_eq!(t.rows[0][3], "0");
    }
}
