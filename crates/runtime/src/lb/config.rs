//! Configuration of the asynchronous LB protocol, and the one conversion
//! that keeps it in lock-step with the analysis-mode [`RefineConfig`].

use crate::health::HealthConfig;
use crate::reliable::RetryConfig;
use tempered_core::refine::RefineConfig;
use tempered_core::transfer::TransferConfig;

/// Configuration of the asynchronous protocol.
///
/// The algorithmic knobs mirror [`RefineConfig`] exactly — convert with
/// [`From`] so the two execution modes cannot drift apart; the remaining
/// fields configure the delivery stack, which has no analysis-mode
/// counterpart.
#[derive(Clone, Copy, Debug)]
pub struct LbProtocolConfig {
    /// Independent trials (`n_trials`).
    pub trials: usize,
    /// Iterations per trial (`n_iters`).
    pub iters: usize,
    /// Gossip fanout `f`.
    pub fanout: usize,
    /// Gossip round limit `k`.
    pub rounds: usize,
    /// Transfer-stage knobs (criterion, CMF, ordering, threshold).
    pub transfer: TransferConfig,
    /// Delivery hardening. `None` (default) sends best-effort
    /// [`super::LbWire::Raw`] frames — the historical protocol,
    /// bit-identical to builds without the fault layer. `Some` enables
    /// at-least-once delivery with retransmission, dedup, and stage
    /// deadlines.
    pub reliability: Option<RetryConfig>,
    /// Crash-stop fault tolerance. `None` (default) disables heartbeats
    /// and failure detection entirely — no extra traffic, bit-identical
    /// to builds without the health layer. `Some` makes every rank send
    /// periodic heartbeats, run an accrual failure detector, and — on
    /// suspecting a peer — fence it out and restart the protocol on the
    /// surviving ranks (see `lb::engine`'s view-change handling).
    pub health: Option<HealthConfig>,
    /// Partition and gray-failure tolerance, layered over `health`.
    /// `None` (default) keeps the pure crash-stop interpretation of every
    /// failure signal — bit-identical to builds without the partition
    /// layer. `Some` changes three things: retry exhaustion toward a peer
    /// the failure detector still vouches for is treated as a *link*
    /// problem (the message is reinstated instead of the peer declared
    /// dead); protocol restarts and commits are quorum-gated (a minority
    /// component parks read-only instead of committing — split-brain
    /// prevention); and parked ranks knock at the majority until the
    /// partition heals, re-merging under an epoch-fenced view.
    pub partition: Option<PartitionConfig>,
}

/// Knobs of the partition-tolerance layer
/// ([`LbProtocolConfig::partition`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionConfig {
    /// Seconds a quorum-less (parked) rank waits for a heal before it
    /// gives up and finishes read-only on its original placement.
    pub park_deadline: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            // Generous vs. the µs-scale simulated RTT and the default
            // 0.25 s stage deadline: a heal that is coming arrives well
            // before this; one that is not should not stall shutdown.
            park_deadline: 1.0,
        }
    }
}

impl PartitionConfig {
    /// The park deadline every simulator-scale harness runs under: long
    /// against the µs-scale simulated RTT and [`RetryConfig::generous`]'s
    /// backoff, short enough that a grid of parked cells stays fast.
    pub fn quick() -> Self {
        PartitionConfig {
            park_deadline: 0.05,
        }
    }
}

impl From<RefineConfig> for LbProtocolConfig {
    /// Derive the protocol configuration that runs the *same algorithm*
    /// as `refine(cfg, ...)` distributed: every balancer that can state
    /// its parameters as a [`RefineConfig`] (TemperedLB, GrapevineLB,
    /// and any §V ablation between them) runs through the async protocol
    /// with no separate knob set to keep in sync.
    fn from(cfg: RefineConfig) -> Self {
        LbProtocolConfig {
            trials: cfg.trials,
            iters: cfg.iters,
            fanout: cfg.gossip.fanout,
            rounds: cfg.gossip.rounds,
            transfer: cfg.transfer,
            reliability: None,
            health: None,
            partition: None,
        }
    }
}

impl Default for LbProtocolConfig {
    fn default() -> Self {
        RefineConfig::tempered().into()
    }
}

impl LbProtocolConfig {
    /// A GrapevineLB-equivalent configuration: single trial, single
    /// iteration, original criterion and CMF, arbitrary ordering.
    pub fn grapevine() -> Self {
        RefineConfig::grapevine().into()
    }

    /// The reduced TemperedLB every chaos, fuzz and perf harness runs:
    /// two trials of three iterations, fanout 4, five gossip rounds —
    /// enough for a real migration pattern, small enough for a grid.
    pub fn quick() -> Self {
        LbProtocolConfig {
            trials: 2,
            iters: 3,
            fanout: 4,
            rounds: 5,
            ..Default::default()
        }
    }

    /// The same configuration with delivery hardening enabled under the
    /// given retry policy.
    pub fn hardened(self, retry: RetryConfig) -> Self {
        LbProtocolConfig {
            reliability: Some(retry),
            ..self
        }
    }

    /// The same configuration with crash-stop fault tolerance enabled:
    /// heartbeats, failure detection, and survivor-set restarts.
    pub fn crash_tolerant(self, health: HealthConfig) -> Self {
        LbProtocolConfig {
            health: Some(health),
            ..self
        }
    }

    /// The same configuration with partition tolerance enabled: link-
    /// suspect attribution, quorum-gated commits, and partition healing.
    /// Requires `health` (the failure detector is what vouches for
    /// peers); callers typically stack
    /// `.hardened(..).crash_tolerant(..).partition_tolerant(..)`.
    pub fn partition_tolerant(self, partition: PartitionConfig) -> Self {
        LbProtocolConfig {
            partition: Some(partition),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempered_core::balancer::{GrapevineLb, TemperedLb};

    #[test]
    fn protocol_config_derives_from_refine_config() {
        // Satellite check for knob drift: the default protocol knobs ARE
        // the analysis-mode TemperedLB knobs, via the one conversion.
        let tempered: LbProtocolConfig = TemperedLb::default().refine_config().into();
        let d = LbProtocolConfig::default();
        assert_eq!(tempered.trials, d.trials);
        assert_eq!(tempered.iters, d.iters);
        assert_eq!(tempered.fanout, d.fanout);
        assert_eq!(tempered.rounds, d.rounds);

        let grapevine: LbProtocolConfig = GrapevineLb::default().refine_config().into();
        let g = LbProtocolConfig::grapevine();
        assert_eq!(grapevine.trials, g.trials);
        assert_eq!(grapevine.iters, g.iters);
        assert_eq!((g.trials, g.iters), (1, 1));
    }

    #[test]
    fn hardened_preserves_other_knobs() {
        let cfg = LbProtocolConfig {
            trials: 4,
            ..LbProtocolConfig::default()
        }
        .hardened(RetryConfig::default());
        assert!(cfg.reliability.is_some());
        assert_eq!(cfg.trials, 4);
    }

    #[test]
    fn partition_tolerance_is_opt_in() {
        let base = LbProtocolConfig::default();
        assert!(base.partition.is_none(), "default stays crash-stop");
        let cfg = base
            .hardened(RetryConfig::default())
            .crash_tolerant(crate::health::HealthConfig::default())
            .partition_tolerant(PartitionConfig::default());
        assert!(cfg.partition.is_some());
        assert!(cfg.partition.unwrap().park_deadline > 0.0);
    }
}
