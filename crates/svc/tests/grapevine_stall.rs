//! Pins the 16-rank `svc_flash` / grapevine row of `repro modeled_cost`
//! (`results/repro/quick/modeled_cost.txt`) where final imbalance equals
//! initial imbalance (0.2545 → 0.2545, zero migrations). Investigated and
//! diagnosed as *correct* GrapevineLB
//! behavior, not a bug — this test gates the row so a silent behavior
//! change (in either direction) is caught.
//!
//! What actually happens: the overloaded ranks DO propose transfers
//! (every iteration records accepted transfers, so this is not a task-
//! granularity stall). But under the Original criterion the senders act
//! on stale, uncoordinated estimates of the same few underloaded
//! recipients — the CMF is never rebuilt mid-stage and there are no
//! nacks — so concurrent senders pile work onto shared targets and
//! overshoot them. The proposed assignment's max load does not drop
//! (at 16 ranks it is bit-equal to the initial max), so the
//! best-of-trials commit gate (strict improvement only) correctly keeps
//! the original placement: final == initial, zero migrations.
//!
//! This is exactly the local-minimum / uncoordinated-transfer failure
//! mode of GrapevineLB that motivates TemperedLB in the paper; the
//! tempered configuration (Modified CMF + Relaxed criterion + CMF
//! recompute) makes strict progress on the very same distribution,
//! which the second test asserts.

use tempered_core::distribution::Distribution;
use tempered_core::refine::{refine, RefineConfig};
use tempered_core::rng::RngFactory;
use tempered_svc::SvcScenario;

/// The exact distribution behind the row: flash-crowd service scenario
/// advanced to mid-ramp (same seed and phase arithmetic as
/// `repro modeled_cost`).
fn svc_flash(num_ranks: usize) -> Distribution {
    let scenario = SvcScenario::flash_crowd(num_ranks, 16, 36, 4242);
    let mut dist = scenario.initial_distribution();
    let mid_ramp = scenario.phases as u64 / 3 + 3;
    scenario.apply_phase(&mut dist, mid_ramp);
    dist
}

/// Grapevine stalls on the flash-crowd skew: transfers are proposed in
/// every iteration, yet no proposal beats the initial imbalance, so the
/// commit gate keeps the original assignment untouched.
#[test]
fn grapevine_stalls_on_flash_crowd_despite_proposing_transfers() {
    let dist = svc_flash(16);
    let outcome = refine(&dist, &RefineConfig::grapevine(), &RngFactory::new(4242), 0);

    // The stall is NOT for lack of trying: every iteration accepted
    // transfers into its proposal.
    assert!(!outcome.records.is_empty());
    for record in &outcome.records {
        assert!(
            record.transfers > 0,
            "iteration {}/{} proposed no transfers — the stall diagnosis \
             (overshoot, not inactivity) no longer holds",
            record.trial,
            record.iteration,
        );
        // Uncoordinated senders overshoot shared recipients: the
        // proposal never improves on the starting imbalance.
        assert!(
            record.imbalance >= outcome.initial_imbalance,
            "a grapevine proposal now improves the flash-crowd row \
             ({} < {}): regenerate the `modeled_cost` quick row and this diagnosis",
            record.imbalance,
            outcome.initial_imbalance,
        );
    }

    // So the strict-improvement commit gate keeps the original
    // placement: the `modeled_cost` row's 0.2545 → 0.2545 with 0 migrations.
    assert_eq!(outcome.best_imbalance, outcome.initial_imbalance);
    assert!(outcome.migrations.is_empty());
}

/// TemperedLB breaks the stall on the identical distribution — the
/// paper's point, and the reason the row stays in `modeled_cost` as a
/// contrast rather than being "fixed" in the grapevine protocol.
#[test]
fn tempered_makes_progress_on_the_same_flash_crowd() {
    let dist = svc_flash(16);
    let outcome = refine(&dist, &RefineConfig::tempered(), &RngFactory::new(4242), 0);

    assert!(
        outcome.best_imbalance < outcome.initial_imbalance,
        "tempered no longer improves the flash-crowd row: {} vs {}",
        outcome.best_imbalance,
        outcome.initial_imbalance,
    );
    assert!(!outcome.migrations.is_empty());
}
