//! The transfer stage (Algorithm 2): choose tasks for migration from
//! partial knowledge.
//!
//! Each overloaded rank traverses its tasks in the configured order and,
//! for each candidate, samples a recipient from the CMF over its known
//! underloaded ranks, then applies the acceptance criterion. Accepted
//! tasks update the *local estimate* of the recipient's load (line 12) —
//! the recipient is never consulted, and the paper deliberately omits the
//! negative acknowledgements of the original GrapevineLB work.
//!
//! The knobs correspond one-to-one to the paper's §V change list:
//! criterion (original/relaxed), CMF scale (original/modified), CMF
//! recomputation (once vs per candidate), and task ordering.

use crate::cmf::{Cmf, CmfKind};
use crate::criteria::CriterionKind;
use crate::distribution::Migration;
use crate::ids::RankId;
use crate::knowledge::Knowledge;
use crate::load::Load;
use crate::ordering::OrderingKind;
use crate::task::Task;
use rand::rngs::SmallRng;

/// Configuration of the transfer stage: the §V design space.
#[derive(Clone, Copy, Debug)]
pub struct TransferConfig {
    /// Acceptance criterion (Algorithm 2 lines 33–39).
    pub criterion: CriterionKind,
    /// CMF construction (lines 21–32).
    pub cmf: CmfKind,
    /// Rebuild the CMF for every candidate (line 7, §V-A change 3) instead
    /// of once before the loop (line 5, original).
    pub recompute_cmf: bool,
    /// Task traversal order (line 3, §V-E).
    pub ordering: OrderingKind,
    /// Relative imbalance threshold `h`: the loop runs while
    /// `ℓ^p > h · ℓ_ave`.
    pub threshold_h: f64,
}

impl TransferConfig {
    /// The original GrapevineLB configuration (§IV-B).
    pub fn grapevine() -> Self {
        TransferConfig {
            criterion: CriterionKind::Original,
            cmf: CmfKind::Original,
            recompute_cmf: false,
            ordering: OrderingKind::Arbitrary,
            threshold_h: 1.0,
        }
    }

    /// The TemperedLB configuration with the paper's best ordering
    /// (Fewest Migrations, §V-E2).
    pub fn tempered() -> Self {
        TransferConfig {
            criterion: CriterionKind::Relaxed,
            cmf: CmfKind::Modified,
            recompute_cmf: true,
            ordering: OrderingKind::FewestMigrations,
            threshold_h: 1.0,
        }
    }
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig::tempered()
    }
}

/// Outcome of one rank's transfer stage.
#[derive(Clone, Debug, Default)]
pub struct TransferOutcome {
    /// Proposed migrations (`M^p` + `TARGET^p()`), in proposal order.
    pub proposals: Vec<Migration>,
    /// Candidates accepted by the criterion.
    pub accepted: usize,
    /// Candidates rejected by the criterion.
    pub rejected: usize,
    /// The rank's load after the proposed transfers.
    pub final_load: Load,
}

/// Run Algorithm 2 for one rank.
///
/// `knowledge` is the rank's gossip result and is mutated in place: local
/// estimates of recipient loads are bumped as transfers are proposed
/// (line 12). `rng` drives CMF sampling (line 9). The CMF iterates
/// `knowledge` in order, so the caller hands it over canonical
/// ([`Knowledge::canonicalize`]): an arrival-ordered set would sample
/// other targets and split the sync and async execution modes.
pub fn transfer_stage(
    rank: RankId,
    tasks: &[Task],
    knowledge: &mut Knowledge,
    l_ave: Load,
    cfg: &TransferConfig,
    rng: &mut SmallRng,
) -> TransferOutcome {
    debug_assert!(
        knowledge.is_canonical(),
        "transfer_stage needs knowledge in rank order"
    );
    let mut l_p: Load = tasks.iter().map(|t| t.load).sum();
    let mut outcome = TransferOutcome {
        final_load: l_p,
        ..Default::default()
    };

    // Line 3: traversal order.
    let order = cfg.ordering.order_tasks(tasks, l_ave, l_p);

    // Line 5 / line 7: the CMF is a pure function of (knowledge, l_ave,
    // cfg.cmf), and knowledge changes only when a proposal is accepted
    // (line 12), so the per-candidate rebuild of the modified behaviour
    // (§V-A change 3) only has real work to do after an acceptance — and
    // then only from the recipient's position in the rank-ordered
    // knowledge on, unless its new estimate raised the scale
    // ([`Cmf::raise`]). The kept CMF is bit-identical to a fresh
    // `Cmf::build` over the current estimates, so sampled targets and RNG
    // consumption match a naive per-candidate rebuild exactly.
    let mut cmf = Cmf::default();
    let mut viable = cmf.rebuild(knowledge, l_ave, cfg.cmf);
    let mut raised = None;

    let threshold = l_ave * cfg.threshold_h;
    let mut n = 0usize;
    // Line 6: while overloaded and candidates remain.
    while l_p > threshold && n < order.len() {
        // Line 7: modified behaviour rebuilds the CMF each candidate so
        // the updated local estimates are reflected.
        if cfg.recompute_cmf {
            if let Some(recipient) = raised.take() {
                viable = cmf.raise(knowledge, cfg.cmf, recipient);
            }
        }
        if !viable {
            // No viable recipient under the current estimates: nothing
            // this rank can do until the next gossip refresh.
            break;
        }
        let f = &cmf;
        let o_x = order[n];
        // Line 9: sample the recipient.
        let p_x = f.sample(rng);
        if p_x == rank {
            // Possible only when this rank gossiped itself as underloaded
            // but still entered the loop (h < 1 configurations): a
            // self-transfer is meaningless, treat as a rejection.
            outcome.rejected += 1;
            n += 1;
            continue;
        }
        // Line 10: locally-known load of the recipient.
        let l_x = knowledge
            .load_of(p_x)
            .expect("CMF support is a subset of knowledge");
        // Line 11: acceptance criterion.
        if cfg.criterion.evaluate(l_x, o_x.load, l_ave, l_p) {
            // Lines 12–16: update local estimates and record the proposal.
            knowledge.add_to_load(p_x, o_x.load);
            raised = Some(p_x);
            l_p -= o_x.load;
            outcome.proposals.push(Migration {
                task: o_x.id,
                from: rank,
                to: p_x,
                load: o_x.load,
            });
            outcome.accepted += 1;
        } else {
            outcome.rejected += 1;
        }
        n += 1;
    }

    outcome.final_load = l_p;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn tasks(loads: &[f64]) -> Vec<Task> {
        loads
            .iter()
            .enumerate()
            .map(|(i, &l)| Task::new(i as u64, l))
            .collect()
    }

    fn kn(pairs: &[(u32, f64)]) -> Knowledge {
        pairs
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect()
    }

    fn rng() -> SmallRng {
        RngFactory::new(99).rank_stream(b"test", 0, 0)
    }

    #[test]
    fn non_overloaded_rank_proposes_nothing() {
        let ts = tasks(&[0.5, 0.5]);
        let mut k = kn(&[(1, 0.1)]);
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k,
            Load::new(2.0),
            &TransferConfig::tempered(),
            &mut rng(),
        );
        assert!(out.proposals.is_empty());
        assert_eq!(out.accepted, 0);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.final_load, Load::new(1.0));
    }

    #[test]
    fn empty_knowledge_proposes_nothing() {
        let ts = tasks(&[5.0, 5.0]);
        let mut k = Knowledge::new();
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k,
            Load::new(1.0),
            &TransferConfig::tempered(),
            &mut rng(),
        );
        assert!(out.proposals.is_empty());
    }

    #[test]
    fn relaxed_criterion_sheds_excess_to_single_target() {
        // Rank 0 holds 10 unit tasks; one known empty target; average 5.
        // Relaxed criterion allows transfers while the recipient estimate
        // stays below the sender's current load.
        let ts = tasks(&[1.0; 10]);
        let mut k = kn(&[(1, 0.0)]);
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k,
            Load::new(5.0),
            &TransferConfig::tempered(),
            &mut rng(),
        );
        // It should offload until both ranks are near 5.
        assert!(out.final_load.get() <= 6.0, "final {:?}", out.final_load);
        assert!(out.accepted >= 4);
        for m in &out.proposals {
            assert_eq!(m.to, RankId::new(1));
            assert_eq!(m.from, RankId::new(0));
        }
        // Local estimate of the recipient tracked the transfers.
        assert_eq!(
            k.load_of(RankId::new(1)).unwrap().get(),
            out.accepted as f64
        );
    }

    #[test]
    fn original_criterion_stops_at_average() {
        // Same scenario with the original criterion: the recipient may
        // never reach average, so at most 4 unit tasks move (0→4 < 5).
        let ts = tasks(&[1.0; 10]);
        let mut k = kn(&[(1, 0.0)]);
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k,
            Load::new(5.0),
            &TransferConfig::grapevine(),
            &mut rng(),
        );
        assert!(out.accepted <= 5);
        assert!(
            k.load_of(RankId::new(1)).unwrap() < Load::new(5.0),
            "original criterion must keep the recipient under average"
        );
    }

    #[test]
    fn proposals_never_move_more_than_excess_under_relaxed_rule() {
        // Lemma 1 locally: every accepted transfer keeps the recipient's
        // estimate strictly below the sender's pre-transfer load.
        let ts = tasks(&[2.0, 3.0, 1.0, 4.0, 2.5]);
        let k = kn(&[(1, 0.2), (2, 1.0)]);
        let mut l_p = Load::new(12.5);
        let cfg = TransferConfig::tempered();
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k.clone(),
            Load::new(2.0),
            &cfg,
            &mut rng(),
        );
        // Re-play and check the invariant step by step.
        let mut est = k;
        for m in &out.proposals {
            let before = est.load_of(m.to).unwrap();
            assert!(
                m.load.get() < l_p.get() - before.get(),
                "accepted transfer violates the relaxed criterion"
            );
            est.add_to_load(m.to, m.load);
            l_p -= m.load;
        }
    }

    #[test]
    fn threshold_h_scales_the_stop_condition() {
        let ts = tasks(&[1.0; 10]);
        // With h = 2.0 and average 5, the rank (load 10) is *not* above
        // h·l_ave = 10, so nothing moves.
        let mut k = kn(&[(1, 0.0)]);
        let cfg = TransferConfig {
            threshold_h: 2.0,
            ..TransferConfig::tempered()
        };
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k,
            Load::new(5.0),
            &cfg,
            &mut rng(),
        );
        assert!(out.proposals.is_empty());
    }

    #[test]
    fn deterministic_for_fixed_rng() {
        let ts = tasks(&[2.0, 3.0, 1.0, 4.0]);
        let cfg = TransferConfig::tempered();
        let run = |seed: u64| {
            let mut k = kn(&[(1, 0.0), (2, 0.5), (3, 1.0)]);
            let mut r = RngFactory::new(seed).rank_stream(b"t", 0, 0);
            transfer_stage(RankId::new(0), &ts, &mut k, Load::new(1.5), &cfg, &mut r)
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.proposals, b.proposals);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn rejected_candidates_are_counted() {
        // Knowledge says the only target is nearly as loaded as us; with
        // the original criterion every candidate gets rejected.
        let ts = tasks(&[1.0; 4]);
        let mut k = kn(&[(1, 0.9)]);
        let out = transfer_stage(
            RankId::new(0),
            &ts,
            &mut k,
            Load::new(1.0),
            &TransferConfig::grapevine(),
            &mut rng(),
        );
        assert_eq!(out.accepted, 0);
        assert_eq!(out.rejected, 4, "all four candidates should be rejected");
        assert_eq!(out.final_load, Load::new(4.0));
    }
}
