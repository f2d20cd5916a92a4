//! Phase demarcation and load instrumentation.
//!
//! §III-B: the runtime lets the application demarcate *phases* (timesteps)
//! and instruments per-task execution time within each phase. Balancers
//! consume the previous phase's measurements under the *principle of
//! persistence* — past load predicts future load. This module provides
//! the bookkeeping: per-task load recording, phase history, and a
//! quantitative persistence check applications can use to decide whether
//! phase-level balancing is applicable at all (§III-B notes that when
//! persistence fails, balancing should move within a phase instead).

use std::collections::HashMap;
use tempered_core::ids::TaskId;
use tempered_core::load::Load;

/// Instrumented loads for one completed phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseRecord {
    /// Phase index (application timestep).
    pub phase: u64,
    /// Measured per-task loads.
    pub loads: Vec<(TaskId, Load)>,
}

impl PhaseRecord {
    /// Total load of the phase.
    pub fn total(&self) -> Load {
        self.loads.iter().map(|(_, l)| *l).sum()
    }
}

/// Rolling per-task instrumentation across phases.
#[derive(Clone, Debug, Default)]
pub struct PhaseTracker {
    current_phase: u64,
    current: HashMap<TaskId, Load>,
    history: Vec<PhaseRecord>,
    /// Cap on retained history (old phases are discarded FIFO).
    pub max_history: usize,
}

impl PhaseTracker {
    /// New tracker starting at phase 0, retaining `max_history` phases.
    pub fn new(max_history: usize) -> Self {
        PhaseTracker {
            max_history: max_history.max(1),
            ..Default::default()
        }
    }

    /// Phase currently being instrumented.
    pub fn current_phase(&self) -> u64 {
        self.current_phase
    }

    /// Accumulate `load` against `task` in the current phase. Multiple
    /// records per task per phase sum (a task may run several kernels).
    pub fn record(&mut self, task: TaskId, load: Load) {
        *self.current.entry(task).or_insert(Load::ZERO) += load;
    }

    /// Close the current phase, returning its record, and begin the next.
    pub fn end_phase(&mut self) -> PhaseRecord {
        let mut loads: Vec<(TaskId, Load)> = self.current.drain().collect();
        // Deterministic order regardless of hash state.
        loads.sort_by_key(|(id, _)| *id);
        let record = PhaseRecord {
            phase: self.current_phase,
            loads,
        };
        self.history.push(record.clone());
        if self.history.len() > self.max_history {
            self.history.remove(0);
        }
        self.current_phase += 1;
        record
    }

    /// The most recently completed phase, if any.
    pub fn last_phase(&self) -> Option<&PhaseRecord> {
        self.history.last()
    }

    /// Retained history, oldest first.
    pub fn history(&self) -> &[PhaseRecord] {
        &self.history
    }

    /// The persistence coefficient between the last two completed phases:
    /// the Pearson correlation of per-task loads. Values near `1.0` mean
    /// the previous phase is a good predictor (the balancer's operating
    /// assumption); `None` with fewer than two phases or degenerate
    /// variance.
    pub fn persistence(&self) -> Option<f64> {
        let n = self.history.len();
        if n < 2 {
            return None;
        }
        correlation(&self.history[n - 2], &self.history[n - 1])
    }
}

/// Pearson correlation of per-task loads across two phases (tasks present
/// in both phases only).
pub fn correlation(a: &PhaseRecord, b: &PhaseRecord) -> Option<f64> {
    let bmap: HashMap<TaskId, f64> = b.loads.iter().map(|&(t, l)| (t, l.get())).collect();
    let paired: Vec<(f64, f64)> = a
        .loads
        .iter()
        .filter_map(|&(t, l)| bmap.get(&t).map(|&lb| (l.get(), lb)))
        .collect();
    if paired.len() < 2 {
        return None;
    }
    let n = paired.len() as f64;
    let (sx, sy): (f64, f64) = paired
        .iter()
        .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for &(x, y) in &paired {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tracker: &mut PhaseTracker, loads: &[f64]) -> PhaseRecord {
        for (i, &l) in loads.iter().enumerate() {
            tracker.record(TaskId::from(i), Load::new(l));
        }
        tracker.end_phase()
    }

    #[test]
    fn phases_advance_and_accumulate() {
        let mut t = PhaseTracker::new(10);
        t.record(TaskId::new(0), Load::new(1.0));
        t.record(TaskId::new(0), Load::new(0.5));
        t.record(TaskId::new(1), Load::new(2.0));
        let rec = t.end_phase();
        assert_eq!(rec.phase, 0);
        assert_eq!(rec.loads.len(), 2);
        assert_eq!(rec.loads[0], (TaskId::new(0), Load::new(1.5)));
        assert_eq!(rec.total(), Load::new(3.5));
        assert_eq!(t.current_phase(), 1);
    }

    #[test]
    fn history_is_bounded() {
        let mut t = PhaseTracker::new(2);
        for _ in 0..5 {
            record(&mut t, &[1.0]);
        }
        assert_eq!(t.history().len(), 2);
        assert_eq!(t.last_phase().unwrap().phase, 4);
        assert_eq!(t.history()[0].phase, 3);
    }

    #[test]
    fn perfect_persistence() {
        let mut t = PhaseTracker::new(5);
        record(&mut t, &[1.0, 2.0, 3.0]);
        record(&mut t, &[1.0, 2.0, 3.0]);
        let p = t.persistence().unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_persistence() {
        let mut t = PhaseTracker::new(5);
        record(&mut t, &[1.0, 2.0, 3.0]);
        record(&mut t, &[3.0, 2.0, 1.0]);
        let p = t.persistence().unwrap();
        assert!((p + 1.0).abs() < 1e-12);
    }

    #[test]
    fn persistence_undefined_cases() {
        let mut t = PhaseTracker::new(5);
        assert!(t.persistence().is_none());
        record(&mut t, &[1.0, 2.0]);
        assert!(t.persistence().is_none());
        // Constant loads → zero variance → undefined.
        record(&mut t, &[5.0, 5.0]);
        record(&mut t, &[5.0, 5.0]);
        assert!(t.persistence().is_none());
    }

    #[test]
    fn correlation_ignores_unmatched_tasks() {
        let a = PhaseRecord {
            phase: 0,
            loads: vec![
                (TaskId::new(0), Load::new(1.0)),
                (TaskId::new(1), Load::new(2.0)),
                (TaskId::new(9), Load::new(100.0)),
            ],
        };
        let b = PhaseRecord {
            phase: 1,
            loads: vec![
                (TaskId::new(0), Load::new(2.0)),
                (TaskId::new(1), Load::new(4.0)),
                (TaskId::new(7), Load::new(50.0)),
            ],
        };
        let c = correlation(&a, &b).unwrap();
        assert!((c - 1.0).abs() < 1e-12);
    }
}
