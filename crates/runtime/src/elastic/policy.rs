//! Forecast-driven autoscaling: decide when the roster should grow or
//! shrink.
//!
//! The policy reuses the same [`Holt`] level+trend forecaster the
//! predictive balancers run per task — here over the *total* load
//! series — and compares the predicted per-rank load against a
//! hysteresis band: above `out_per_rank` the cluster scales out, below
//! `in_per_rank` it scales in, and inside the band it holds. The band
//! (plus a decision cooldown) is what keeps a noisy series from
//! flapping the roster: scale-out and scale-in thresholds must not
//! meet, so one decision cannot immediately justify its own reversal.
//!
//! The policy only *decides*; [`super::run_elastic`] (or the embedding
//! application) turns decisions into knocks and drains.

use tempered_core::forecast::{Holt, LoadModel};

/// Hysteresis thresholds and bounds for [`AutoscalePolicy`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoscaleConfig {
    /// Never shrink below this many ranks.
    pub min_ranks: usize,
    /// Never grow beyond this many ranks.
    pub max_ranks: usize,
    /// Scale out when the predicted per-rank load exceeds this.
    pub out_per_rank: f64,
    /// Scale in when the predicted per-rank load falls below this
    /// (must be strictly less than `out_per_rank` — that gap is the
    /// hysteresis band).
    pub in_per_rank: f64,
    /// How many steps ahead the forecast looks.
    pub horizon: f64,
    /// Minimum steps between two non-`Hold` decisions.
    pub cooldown: u64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_ranks: 2,
            max_ranks: 64,
            out_per_rank: 8.0,
            in_per_rank: 4.0,
            horizon: 2.0,
            cooldown: 2,
        }
    }
}

/// The policy's verdict for one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Admit this many fresh ranks.
    Out(usize),
    /// Drain this many ranks.
    In(usize),
    /// Leave the roster alone.
    Hold,
}

/// Hysteresis autoscaler over a [`Holt`]-forecast total-load series.
#[derive(Clone, Debug)]
pub struct AutoscalePolicy {
    cfg: AutoscaleConfig,
    model: Holt,
    last_action: Option<u64>,
}

impl AutoscalePolicy {
    /// A policy with no history yet.
    pub fn new(cfg: AutoscaleConfig) -> Self {
        assert!(
            cfg.in_per_rank < cfg.out_per_rank,
            "hysteresis band must be non-empty: in {} !< out {}",
            cfg.in_per_rank,
            cfg.out_per_rank
        );
        assert!(cfg.min_ranks >= 1 && cfg.min_ranks <= cfg.max_ranks);
        AutoscalePolicy {
            cfg,
            model: Holt::default(),
            last_action: None,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Absorb this step's observed total load and decide. The sizing
    /// rule targets the midpoint of the hysteresis band: scale-out adds
    /// enough ranks to bring the predicted per-rank load down to the
    /// midpoint, scale-in removes just enough to keep both the predicted
    /// and the observed load below the scale-out threshold — both
    /// clamped to `[min_ranks, max_ranks]`.
    pub fn observe_and_decide(
        &mut self,
        step: u64,
        total_load: f64,
        num_ranks: usize,
    ) -> ScaleDecision {
        self.model.observe(total_load);
        if let Some(last) = self.last_action {
            if step.saturating_sub(last) < self.cfg.cooldown {
                return ScaleDecision::Hold;
            }
        }
        let predicted = self.model.predict(self.cfg.horizon).max(0.0);
        let per_rank = predicted / num_ranks as f64;
        let mid = 0.5 * (self.cfg.out_per_rank + self.cfg.in_per_rank);

        if per_rank > self.cfg.out_per_rank && num_ranks < self.cfg.max_ranks {
            let target =
                ((predicted / mid).ceil() as usize).clamp(num_ranks + 1, self.cfg.max_ranks);
            self.last_action = Some(step);
            ScaleDecision::Out(target - num_ranks)
        } else if per_rank < self.cfg.in_per_rank && num_ranks > self.cfg.min_ranks {
            // Shrink only as far as the scale-out threshold allows for
            // the larger of the forecast and the load in hand: a trend
            // still falling after the load levels off must not drain
            // ranks the current load needs.
            let floor = (predicted.max(total_load) / self.cfg.out_per_rank).ceil() as usize;
            let target = floor.clamp(self.cfg.min_ranks, num_ranks - 1);
            self.last_action = Some(step);
            ScaleDecision::In(num_ranks - target)
        } else {
            ScaleDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            min_ranks: 2,
            max_ranks: 16,
            out_per_rank: 10.0,
            in_per_rank: 4.0,
            horizon: 1.0,
            cooldown: 0,
        }
    }

    #[test]
    fn rising_load_scales_out_toward_the_band_midpoint() {
        let mut p = AutoscalePolicy::new(cfg());
        // A flat 5-per-rank start sits inside the band.
        assert_eq!(p.observe_and_decide(0, 20.0, 4), ScaleDecision::Hold);
        // A doubling ramp: Holt's trend term anticipates the overshoot
        // (level 40, trend 10 → predicted 50, 12.5 per rank).
        match p.observe_and_decide(1, 40.0, 4) {
            ScaleDecision::Out(n) => {
                assert!(n >= 1, "a doubling ramp must add ranks");
                assert!(4 + n <= 16, "never beyond max_ranks");
            }
            other => panic!("expected scale-out, got {other:?}"),
        }
    }

    #[test]
    fn falling_load_scales_in_but_respects_the_floor() {
        let mut p = AutoscalePolicy::new(cfg());
        p.observe_and_decide(0, 96.0, 8);
        p.observe_and_decide(1, 96.0, 8);
        // The trough: predicted per-rank load collapses below 4.
        match p.observe_and_decide(2, 16.0, 8) {
            ScaleDecision::In(n) => {
                assert!(n >= 1);
                assert!(8 - n >= 2, "never below min_ranks");
            }
            other => panic!("expected scale-in, got {other:?}"),
        }
    }

    /// A ramp and then a step back down: the trend term still pulls
    /// the forecast under the band after the load has levelled off, but
    /// the scale-in keeps what the observed load needs.
    #[test]
    fn scale_in_never_drains_below_the_observed_load() {
        let cfg = cfg();
        let mut p = AutoscalePolicy::new(cfg);
        // At `max_ranks` the ramp cannot scale out; the step down leaves
        // 70 / 16 = 4.4 per rank inside the band, but the forecast reads
        // 43.75.
        let mut ranks = cfg.max_ranks;
        for (step, load) in [(0, 80.0), (1, 100.0), (2, 120.0), (3, 140.0), (4, 70.0)] {
            if let ScaleDecision::In(n) = p.observe_and_decide(step, load, ranks) {
                ranks -= n;
                assert!(
                    load / ranks as f64 <= cfg.out_per_rank,
                    "step {step}: {load} on {ranks} ranks overshoots {}",
                    cfg.out_per_rank
                );
                return;
            }
        }
        panic!("the step down never triggered a scale-in");
    }

    #[test]
    fn the_band_interior_holds() {
        let mut p = AutoscalePolicy::new(cfg());
        for step in 0..6 {
            // 6 per rank sits inside (4, 10): no action, ever.
            assert_eq!(p.observe_and_decide(step, 24.0, 4), ScaleDecision::Hold);
        }
    }

    #[test]
    fn cooldown_suppresses_back_to_back_decisions() {
        let mut p = AutoscalePolicy::new(AutoscaleConfig {
            cooldown: 3,
            ..cfg()
        });
        let first = p.observe_and_decide(0, 200.0, 4);
        assert!(matches!(first, ScaleDecision::Out(_)));
        assert_eq!(
            p.observe_and_decide(1, 200.0, 4),
            ScaleDecision::Hold,
            "cooldown must gate the follow-up"
        );
        assert_eq!(p.observe_and_decide(2, 200.0, 4), ScaleDecision::Hold);
        assert!(matches!(
            p.observe_and_decide(3, 200.0, 4),
            ScaleDecision::Out(_)
        ));
    }

    #[test]
    fn bounds_are_hard() {
        let mut p = AutoscalePolicy::new(cfg());
        p.observe_and_decide(0, 1000.0, 16);
        assert_eq!(
            p.observe_and_decide(1, 1000.0, 16),
            ScaleDecision::Hold,
            "already at max_ranks"
        );
        let mut p = AutoscalePolicy::new(cfg());
        p.observe_and_decide(0, 0.5, 2);
        assert_eq!(
            p.observe_and_decide(1, 0.5, 2),
            ScaleDecision::Hold,
            "already at min_ranks"
        );
    }
}
