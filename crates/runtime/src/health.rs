//! Heartbeat failure detection: accrual-style suspicion over arrival
//! history.
//!
//! Crash-stop failures ([`crate::fault::CrashEvent`]) are invisible to
//! the delivery layer: a dead rank simply stops talking, which a lossy
//! network can imitate for a while. Following the φ-accrual family of
//! detectors (Hayashibara et al.), each rank passively tracks when it
//! last heard from every peer and maintains a smoothed estimate of the
//! peer's inter-arrival time; the *suspicion level* of a peer is the
//! ratio of current silence to expected inter-arrival. When the ratio
//! crosses a configured threshold the peer is suspected — permanently,
//! since the stack models crash-stop (a resurrected rank is handled by
//! the membership layer's self-degradation valve, not by un-suspecting).
//!
//! The detector is deliberately *deterministic*: it consumes no
//! randomness and works purely on the executor's clock (virtual seconds
//! under the simulator, wall-clock under threads), so a seeded simulated
//! run suspects the same ranks at the same virtual times every time.
//!
//! Like the other runtime components this is a passive state machine:
//! the embedding protocol feeds it heartbeat arrivals
//! ([`HealthDetector::on_heartbeat`]) and polls it on its own timer
//! ([`HealthDetector::tick`]); the detector never sends anything itself.

use tempered_core::ids::RankId;

/// Tuning for the heartbeat failure detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// Heartbeat send period in seconds. Must be small against the
    /// reliable layer's give-up horizon and the protocol stage deadline,
    /// so genuine crashes are detected (and fenced) before retry
    /// exhaustion degrades a surviving sender.
    pub period: f64,
    /// Suspicion threshold: a peer is suspected once
    /// `silence / expected_interval` exceeds this. Higher values
    /// tolerate more jitter but detect real crashes later.
    pub suspicion_threshold: f64,
    /// Grace period (seconds) after startup during which no peer is
    /// suspected, covering protocol warm-up before heartbeats flow.
    pub startup_grace: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            // ~1000× the simulated µs-scale RTT, well under the default
            // 0.25 s stage deadline and the ~16-retry give-up horizon.
            period: 1e-3,
            suspicion_threshold: 4.0,
            startup_grace: 5e-3,
        }
    }
}

/// Per-peer arrival bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Peer {
    /// Time of the most recent heartbeat (or startup).
    last_heard: f64,
    /// Smoothed inter-arrival estimate (EWMA), seeded with the period.
    mean_interval: f64,
    suspected: bool,
}

/// Accrual failure detector for one rank observing all peers.
#[derive(Clone, Debug)]
pub struct HealthDetector {
    me: RankId,
    cfg: HealthConfig,
    start: f64,
    peers: Vec<Peer>,
}

/// EWMA weight on the newest inter-arrival sample.
const EWMA_ALPHA: f64 = 0.2;

impl HealthDetector {
    /// Detector for rank `me` of `num_ranks`, started at time `now`.
    pub fn new(me: RankId, num_ranks: usize, cfg: HealthConfig, now: f64) -> Self {
        HealthDetector {
            me,
            cfg,
            start: now,
            peers: vec![
                Peer {
                    last_heard: now,
                    mean_interval: cfg.period,
                    suspected: false,
                };
                num_ranks
            ],
        }
    }

    /// Heap bytes held: one peer record per rank of the job.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::census::vec_bytes(&self.peers)
    }

    /// The detector's configuration.
    pub fn cfg(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Record a heartbeat (or any liveness-proving traffic) from `from`
    /// at time `now`. Arrivals from already-suspected peers are ignored:
    /// suspicion is monotone under crash-stop semantics.
    pub fn on_heartbeat(&mut self, from: RankId, now: f64) {
        let p = &mut self.peers[from.as_usize()];
        if p.suspected {
            return;
        }
        let interval = (now - p.last_heard).max(0.0);
        p.mean_interval = (1.0 - EWMA_ALPHA) * p.mean_interval + EWMA_ALPHA * interval;
        p.last_heard = now;
    }

    /// Suspicion level of `rank` at time `now`: current silence divided
    /// by the expected inter-arrival (the accrual statistic; the classic
    /// φ is a monotone transform of this ratio under an exponential
    /// arrival model).
    ///
    /// The expected interval is floored at the heartbeat period: any
    /// liveness-proving frame feeds the EWMA, so a burst of µs-scale
    /// protocol traffic drives the estimate far below the period — but a
    /// peer that stops bursting still beats every `period`, and judging
    /// its silence against the burst rate would mass-suspect live ranks
    /// during the first natural lull.
    pub fn suspicion(&self, rank: RankId, now: f64) -> f64 {
        let p = &self.peers[rank.as_usize()];
        (now - p.last_heard).max(0.0) / p.mean_interval.max(self.cfg.period)
    }

    /// Whether `rank` is currently suspected.
    pub fn is_suspected(&self, rank: RankId) -> bool {
        self.peers[rank.as_usize()].suspected
    }

    /// Poll the detector at time `now`; returns peers *newly* suspected
    /// by this call, in rank order. Call from a periodic timer.
    pub fn tick(&mut self, now: f64) -> Vec<RankId> {
        if now - self.start < self.cfg.startup_grace {
            return Vec::new();
        }
        let mut newly = Vec::new();
        for r in 0..self.peers.len() {
            let rank = RankId::from(r);
            if rank == self.me || self.peers[r].suspected {
                continue;
            }
            if self.suspicion(rank, now) > self.cfg.suspicion_threshold {
                self.peers[r].suspected = true;
                newly.push(rank);
            }
        }
        newly
    }

    /// Force-suspect `rank` (e.g. learned from a peer's view change
    /// rather than from local silence). Returns `true` if this was news.
    pub fn force_suspect(&mut self, rank: RankId) -> bool {
        let p = &mut self.peers[rank.as_usize()];
        let fresh = !p.suspected;
        p.suspected = true;
        fresh
    }

    /// Reinstate `rank` after a partition heal: clear suspicion and
    /// restart its arrival history at `now`. The crash-stop "suspicion is
    /// monotone" rule is deliberately relaxed here — a healed rank was
    /// fenced out for being unreachable, not dead, and the heal protocol
    /// (quorum leader only) is the sole caller.
    pub fn reinstate(&mut self, rank: RankId, now: f64) {
        let p = &mut self.peers[rank.as_usize()];
        p.suspected = false;
        p.last_heard = now;
        p.mean_interval = self.cfg.period;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            period: 1.0,
            suspicion_threshold: 3.0,
            startup_grace: 2.0,
        }
    }

    #[test]
    fn silent_peer_is_suspected_after_threshold() {
        let mut d = HealthDetector::new(RankId::new(0), 3, cfg(), 0.0);
        // Regular heartbeats from rank 1; rank 2 is silent from the start.
        for t in 1..=3 {
            d.on_heartbeat(RankId::new(1), t as f64);
        }
        assert!(d.tick(3.0).is_empty(), "silence of 3 ≤ threshold ratio");
        let newly = d.tick(3.5);
        assert_eq!(newly, vec![RankId::new(2)]);
        assert!(d.is_suspected(RankId::new(2)));
        assert!(!d.is_suspected(RankId::new(1)));
        // Already-suspected peers are not re-reported.
        assert!(d.tick(4.0).is_empty());
    }

    #[test]
    fn startup_grace_suppresses_early_suspicion() {
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        assert!(d.tick(1.9).is_empty(), "inside grace");
        assert!(!d.is_suspected(RankId::new(1)));
    }

    #[test]
    fn jittery_but_alive_peer_stays_trusted() {
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        // Irregular arrivals: 0.5, 1.8, 2.9, 4.5 — gaps up to 1.6 s.
        for &t in &[0.5, 1.8, 2.9, 4.5] {
            assert!(d.tick(t).is_empty(), "no suspicion at t={t}");
            d.on_heartbeat(RankId::new(1), t);
        }
        assert!(!d.is_suspected(RankId::new(1)));
    }

    #[test]
    fn suspicion_ratio_tracks_silence() {
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        d.on_heartbeat(RankId::new(1), 1.0);
        // mean_interval stays ~1.0; suspicion grows linearly with silence.
        assert!(d.suspicion(RankId::new(1), 2.0) > 0.9);
        assert!(d.suspicion(RankId::new(1), 2.0) < 1.1);
        assert!(d.suspicion(RankId::new(1), 5.0) > 3.0);
    }

    #[test]
    fn bursty_traffic_does_not_sharpen_the_detector() {
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        // A dense burst drives the inter-arrival EWMA far below the
        // period (gossip traffic doubles as liveness proof)…
        for i in 0..200 {
            d.on_heartbeat(RankId::new(1), 10.0 + i as f64 * 1e-4);
        }
        // …but a lull shorter than threshold × period must stay trusted:
        // the expected interval is floored at the heartbeat period.
        assert!(d.tick(12.5).is_empty());
        assert!(!d.is_suspected(RankId::new(1)));
        // Genuine silence past the threshold is still detected.
        assert_eq!(d.tick(14.1), vec![RankId::new(1)]);
    }

    #[test]
    fn force_suspect_is_idempotent_and_monotone() {
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        assert!(d.force_suspect(RankId::new(1)));
        assert!(!d.force_suspect(RankId::new(1)), "second time is not news");
        // Heartbeats from a suspected peer do not resurrect it.
        d.on_heartbeat(RankId::new(1), 100.0);
        assert!(d.is_suspected(RankId::new(1)));
    }

    #[test]
    fn flapping_link_does_not_oscillate_into_permanent_suspicion() {
        // A link to rank 1 flaps at the heartbeat period: every other
        // heartbeat is lost. Silence therefore never exceeds ~2 periods,
        // well under the suspicion threshold of 3 — the peer must stay
        // trusted for the whole run.
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        let peer = RankId::new(1);
        for beat in 0..200u32 {
            let t = beat as f64; // period = 1.0
            if beat % 2 == 0 {
                d.on_heartbeat(peer, t);
            }
            assert!(d.tick(t).is_empty(), "flapping peer suspected at t={t}");
        }
        assert!(!d.is_suspected(peer));
    }

    #[test]
    fn reinstate_clears_suspicion_and_resets_history() {
        let mut d = HealthDetector::new(RankId::new(0), 2, cfg(), 0.0);
        let peer = RankId::new(1);
        d.force_suspect(peer);
        assert!(d.is_suspected(peer));
        d.reinstate(peer, 100.0);
        assert!(!d.is_suspected(peer));
        // Fresh arrival history: no instant re-suspicion at the next tick.
        assert!(d.tick(100.5).is_empty());
        // But renewed silence is still detected eventually.
        assert_eq!(d.tick(104.1), vec![peer]);
    }

    #[test]
    fn detection_is_deterministic() {
        let run = || {
            let mut d = HealthDetector::new(RankId::new(0), 4, cfg(), 0.0);
            let mut when = Vec::new();
            for step in 0..100 {
                let t = step as f64 * 0.5;
                if step % 2 == 0 {
                    d.on_heartbeat(RankId::new(1), t);
                }
                for r in d.tick(t) {
                    when.push((r, t.to_bits()));
                }
            }
            when
        };
        assert_eq!(run(), run());
    }
}
