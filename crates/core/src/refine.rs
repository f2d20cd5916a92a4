//! Iterative refinement of the task-rank mapping (Algorithm 3).
//!
//! The §V-A changes wrap the inform/transfer stages in `n_iters`
//! iterations and `n_trials` independent trials. Each trial restarts from
//! the distribution used for the previous timestep; each iteration runs a
//! fresh gossip stage over the *proposed* loads, lets every overloaded
//! rank propose transfers from its partial knowledge, applies the
//! proposals, and evaluates the resulting global imbalance (Eq. 1). The
//! best proposal across all trials and iterations wins; actual task
//! migration is deferred until then (Algorithm 3 line 13).
//!
//! This module is the *analysis-mode* driver: it owns a global
//! [`Distribution`] and executes the per-rank protocol sequentially and
//! deterministically — exactly what the paper's LBAF Python tool does.
//! The fully asynchronous message-driven execution lives in
//! `tempered-runtime`; both share the stage implementations in
//! [`crate::gossip`] and [`crate::transfer`].

use crate::distribution::{Distribution, Migration};
use crate::gossip::{run_gossip, GossipConfig};
use crate::ids::RankId;

use crate::rng::RngFactory;
use crate::transfer::{transfer_stage, TransferConfig};

/// Configuration of the full iterative LB pass.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// Number of independent trials (`n_trials`, Algorithm 3 line 2).
    pub trials: usize,
    /// Iterations per trial (`n_iters`, line 6).
    pub iters: usize,
    /// Gossip stage parameters.
    pub gossip: GossipConfig,
    /// Transfer stage parameters.
    pub transfer: TransferConfig,
}

impl RefineConfig {
    /// The original GrapevineLB: one trial, one iteration, original
    /// criterion/CMF, arbitrary order.
    pub fn grapevine() -> Self {
        RefineConfig {
            trials: 1,
            iters: 1,
            gossip: GossipConfig::default(),
            transfer: TransferConfig::grapevine(),
        }
    }

    /// TemperedLB as run for the paper's EMPIRE results: 10 trials of 8
    /// iterations with the Fewest Migrations ordering.
    pub fn tempered() -> Self {
        RefineConfig {
            trials: 10,
            iters: 8,
            gossip: GossipConfig::default(),
            transfer: TransferConfig::tempered(),
        }
    }
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig::tempered()
    }
}

/// Statistics for one iteration of one trial — one row of the §V-B / §V-D
/// tables.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// Trial index (0-based).
    pub trial: usize,
    /// Iteration index within the trial (1-based, matching the paper's
    /// tables; index 0 is the pre-LB state).
    pub iteration: usize,
    /// Accepted transfers this iteration.
    pub transfers: usize,
    /// Rejected candidates this iteration.
    pub rejected: usize,
    /// Imbalance `I` after applying this iteration's proposals.
    pub imbalance: f64,
    /// Gossip messages sent this iteration.
    pub gossip_messages: u64,
}

impl IterationRecord {
    /// Rejection rate in percent, as the paper's tables report it;
    /// `None` when no candidates were considered.
    pub fn rejection_rate(&self) -> Option<f64> {
        let total = self.transfers + self.rejected;
        if total == 0 {
            None
        } else {
            Some(100.0 * self.rejected as f64 / total as f64)
        }
    }
}

/// Outcome of a full refinement pass.
#[derive(Clone, Debug)]
pub struct RefineOutcome {
    /// The best distribution found (Algorithm 3 line 10).
    pub best: Distribution,
    /// Net migrations turning the input distribution into `best`
    /// (the deferred transfers of line 13).
    pub migrations: Vec<Migration>,
    /// Per-iteration statistics, all trials concatenated.
    pub records: Vec<IterationRecord>,
    /// Imbalance of the input distribution.
    pub initial_imbalance: f64,
    /// Imbalance of `best`.
    pub best_imbalance: f64,
    /// Total gossip messages across all trials and iterations.
    pub total_messages: u64,
}

/// Run Algorithm 3 over `dist`, returning the best proposal found.
///
/// `epoch` namespaces this pass's randomness (e.g. the application
/// timestep at which the balancer was invoked), keeping repeated LB
/// invocations decorrelated while the whole run stays reproducible from
/// the factory's master seed.
///
/// ```
/// use tempered_core::prelude::*;
///
/// let mut per_rank = vec![vec![1.0f64; 24]];
/// per_rank.resize(8, vec![]);
/// let dist = Distribution::from_loads(per_rank);
/// let out = refine(
///     &dist,
///     &RefineConfig { trials: 2, iters: 4, ..RefineConfig::tempered() },
///     &RngFactory::new(1),
///     0,
/// );
/// assert!(out.best_imbalance < out.initial_imbalance);
/// assert_eq!(out.records.len(), 8); // 2 trials × 4 iterations
/// ```
pub fn refine(
    dist: &Distribution,
    cfg: &RefineConfig,
    factory: &RngFactory,
    epoch: u64,
) -> RefineOutcome {
    let l_ave = dist.average_load();
    let initial_imbalance = dist.imbalance();

    let mut best = dist.clone();
    let mut best_imbalance = initial_imbalance;
    let mut records = Vec::with_capacity(cfg.trials * cfg.iters);
    let mut total_messages = 0u64;

    for trial in 0..cfg.trials {
        // Line 3: reset to the input state for each trial.
        let mut work = dist.clone();

        for iter in 1..=cfg.iters {
            // Sub-epoch so each (epoch, trial, iteration) draws fresh
            // randomness.
            let sub_epoch =
                ((epoch << 20) | ((trial as u64) << 10) | iter as u64).wrapping_mul(0x9E37_79B9);

            // Line 7: INFORM over the proposed loads.
            let gossip = run_gossip(work.rank_loads(), l_ave, &cfg.gossip, factory, sub_epoch);
            total_messages += gossip.messages_sent;

            // Line 8: TRANSFER on every rank (no-op for non-overloaded).
            let mut knowledge = gossip.knowledge;
            let mut proposals: Vec<Migration> = Vec::new();
            let mut transfers = 0usize;
            let mut rejected = 0usize;
            let threshold = l_ave * cfg.transfer.threshold_h;
            // Indexing two parallel per-rank structures (`work`,
            // `knowledge`); an enumerate over either would still index
            // the other.
            #[allow(clippy::needless_range_loop)]
            for p in 0..work.num_ranks() {
                let rank = RankId::from(p);
                if work.rank_load(rank) <= threshold {
                    continue;
                }
                // Rank order, not gossip arrival order: CMF construction
                // iterates knowledge in order, and the asynchronous
                // runtime canonicalizes the same way — this is what makes
                // the two execution modes sample identical targets.
                knowledge[p].canonicalize();
                let mut rng = factory.rank_stream(b"transfer", p as u64, sub_epoch);
                let out = transfer_stage(
                    rank,
                    work.tasks_on(rank),
                    &mut knowledge[p],
                    l_ave,
                    &cfg.transfer,
                    &mut rng,
                );
                transfers += out.accepted;
                rejected += out.rejected;
                proposals.extend(out.proposals);
            }

            // Apply this iteration's proposals to the working state; the
            // next iteration's gossip sees the updated loads.
            work.apply(&proposals)
                .expect("proposals reference live tasks at their current ranks");

            // Lines 9–10: evaluate and keep the best.
            let imbalance = work.imbalance();
            records.push(IterationRecord {
                trial,
                iteration: iter,
                transfers,
                rejected,
                imbalance,
                gossip_messages: gossip.messages_sent,
            });
            if imbalance < best_imbalance {
                best_imbalance = imbalance;
                best = work.clone();
            }
        }
    }

    // Line 13: the transfers actually executed are the net relocations
    // from the input distribution to the best proposal.
    let migrations = net_migrations(dist, &best);

    RefineOutcome {
        best,
        migrations,
        records,
        initial_imbalance,
        best_imbalance,
        total_messages,
    }
}

/// Compute the net task relocations between two distributions over the
/// same task set.
pub fn net_migrations(from: &Distribution, to: &Distribution) -> Vec<Migration> {
    let mut out = Vec::new();
    for rank in from.rank_ids() {
        for task in from.tasks_on(rank) {
            let dest = to
                .location_of(task.id)
                .expect("distributions cover the same task set");
            if dest != rank {
                out.push(Migration {
                    task: task.id,
                    from: rank,
                    to: dest,
                    load: task.load,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(transfer: TransferConfig, trials: usize, iters: usize) -> RefineConfig {
        RefineConfig {
            trials,
            iters,
            gossip: GossipConfig {
                fanout: 4,
                rounds: 6,
                max_knowledge: 0,
            },
            transfer,
        }
    }

    #[test]
    fn tempered_dramatically_reduces_concentrated_imbalance() {
        let dist = Distribution::concentrated(64, 2, 100);
        let cfg = small_cfg(TransferConfig::tempered(), 2, 8);
        let out = refine(&dist, &cfg, &RngFactory::new(42), 0);
        assert!(out.initial_imbalance > 30.0);
        assert!(
            out.best_imbalance < 1.0,
            "tempered should reach I < 1, got {}",
            out.best_imbalance
        );
        out.best.check_invariants().unwrap();
    }

    #[test]
    fn grapevine_improves_less_than_tempered() {
        let dist = Distribution::concentrated(64, 2, 100);
        let factory = RngFactory::new(42);
        let grapevine = refine(
            &dist,
            &small_cfg(TransferConfig::grapevine(), 1, 10),
            &factory,
            0,
        );
        let tempered = refine(
            &dist,
            &small_cfg(TransferConfig::tempered(), 1, 10),
            &factory,
            0,
        );
        assert!(
            tempered.best_imbalance < grapevine.best_imbalance,
            "tempered {} should beat grapevine {}",
            tempered.best_imbalance,
            grapevine.best_imbalance
        );
    }

    #[test]
    fn refinement_never_returns_worse_than_input() {
        let dist = Distribution::concentrated(16, 1, 20);
        for seed in [1, 2, 3] {
            let out = refine(
                &dist,
                &small_cfg(TransferConfig::grapevine(), 1, 3),
                &RngFactory::new(seed),
                0,
            );
            assert!(out.best_imbalance <= out.initial_imbalance);
        }
    }

    #[test]
    fn migrations_transform_input_into_best() {
        let dist = Distribution::concentrated(32, 2, 40);
        let out = refine(
            &dist,
            &small_cfg(TransferConfig::tempered(), 2, 4),
            &RngFactory::new(7),
            0,
        );
        let mut replay = dist.clone();
        replay.apply(&out.migrations).unwrap();
        for rank in replay.rank_ids() {
            assert!(replay.rank_load(rank).approx_eq(out.best.rank_load(rank)));
        }
    }

    #[test]
    fn total_load_is_conserved() {
        let dist = Distribution::concentrated(32, 3, 30);
        let out = refine(
            &dist,
            &small_cfg(TransferConfig::tempered(), 1, 6),
            &RngFactory::new(9),
            0,
        );
        assert!(out.best.total_load().approx_eq(dist.total_load()));
        assert_eq!(out.best.num_tasks(), dist.num_tasks());
    }

    #[test]
    fn records_cover_all_trials_and_iterations() {
        let dist = Distribution::concentrated(16, 1, 10);
        let cfg = small_cfg(TransferConfig::tempered(), 3, 4);
        let out = refine(&dist, &cfg, &RngFactory::new(1), 0);
        assert_eq!(out.records.len(), 12);
        for t in 0..3 {
            assert_eq!(out.records.iter().filter(|r| r.trial == t).count(), 4);
        }
        let iters: Vec<usize> = out
            .records
            .iter()
            .filter(|r| r.trial == 1)
            .map(|r| r.iteration)
            .collect();
        assert_eq!(iters, vec![1, 2, 3, 4]);
    }

    #[test]
    fn deterministic_across_runs() {
        let dist = Distribution::concentrated(32, 2, 25);
        let cfg = small_cfg(TransferConfig::tempered(), 2, 3);
        let a = refine(&dist, &cfg, &RngFactory::new(123), 5);
        let b = refine(&dist, &cfg, &RngFactory::new(123), 5);
        assert_eq!(a.best_imbalance, b.best_imbalance);
        assert_eq!(a.migrations, b.migrations);
        let c = refine(&dist, &cfg, &RngFactory::new(124), 5);
        // Different master seed almost surely differs somewhere.
        assert!(
            a.migrations != c.migrations || a.best_imbalance != c.best_imbalance,
            "different seeds should explore different proposals"
        );
    }

    #[test]
    fn balanced_input_is_left_alone() {
        let dist = Distribution::from_loads(vec![vec![1.0], vec![1.0], vec![1.0]]);
        let out = refine(
            &dist,
            &small_cfg(TransferConfig::tempered(), 2, 2),
            &RngFactory::new(4),
            0,
        );
        assert_eq!(out.best_imbalance, 0.0);
        assert!(out.migrations.is_empty());
        assert_eq!(out.total_messages, 0, "no underloaded ranks → no gossip");
    }

    #[test]
    fn rejection_rate_formats() {
        let rec = IterationRecord {
            trial: 0,
            iteration: 1,
            transfers: 1,
            rejected: 3,
            imbalance: 0.0,
            gossip_messages: 0,
        };
        assert_eq!(rec.rejection_rate(), Some(75.0));
        let none = IterationRecord {
            transfers: 0,
            rejected: 0,
            ..rec
        };
        assert_eq!(none.rejection_rate(), None);
    }
}
