//! Application load traces: record per-phase task loads, persist them in
//! a plain-text format, and replay balancers over them.
//!
//! This mirrors the workflow of the paper's real tooling: vt instruments
//! an application run and writes per-phase LB data files; the LBAF tool
//! then replays balancing strategies *offline* against those traces. The
//! format here is deliberately trivial — line-oriented text, one
//! `rank task load` triple per line inside `phase`/`end` blocks — so
//! traces are diffable, greppable, and constructible by hand:
//!
//! ```text
//! # tempered-lb trace v1
//! ranks 16
//! phase 0
//! 0 0 1.25
//! 0 1 0.5
//! end
//! phase 1
//! ...
//! end
//! ```

use empire_pic::{BdotScenario, CostModel, EmpireSim};
use std::collections::HashSet;
use std::fmt::Write as _;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::task::Task;

/// One recorded phase: the task loads and their rank assignment at the
/// time of measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct TracePhase {
    /// Phase (timestep) index.
    pub phase: u64,
    /// `(rank, task, load)` triples.
    pub entries: Vec<(RankId, TaskId, f64)>,
}

/// A recorded application trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Total ranks in the traced system.
    pub num_ranks: usize,
    /// Phases in recording order.
    pub phases: Vec<TracePhase>,
}

impl Trace {
    /// Reconstruct the task distribution of phase `idx`. A trace that
    /// [`Trace::parse`] accepted fails only for an `idx` it does not
    /// have: rank bounds and task uniqueness are checked at the door.
    pub fn distribution(&self, idx: usize) -> Result<Distribution, String> {
        let phase = self
            .phases
            .get(idx)
            .ok_or_else(|| format!("trace has {} phases, wanted {idx}", self.phases.len()))?;
        let mut dist = Distribution::new(self.num_ranks);
        for &(rank, task, load) in &phase.entries {
            dist.insert(rank, Task::new(task, load))
                .map_err(|e| format!("phase {idx}: {e}"))?;
        }
        Ok(dist)
    }

    /// Serialize to the text format. Test accessor: the inverse that
    /// [`Trace::parse`]'s round-trip tests check it against.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# tempered-lb trace v1\n");
        let _ = writeln!(out, "ranks {}", self.num_ranks);
        for p in &self.phases {
            let _ = writeln!(out, "phase {}", p.phase);
            for &(rank, task, load) in &p.entries {
                let _ = writeln!(out, "{rank} {task} {load}");
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parse the text format. Every error names its line; an entry
    /// whose rank is outside the `ranks` header, or whose task id already
    /// appeared in its phase, is an error here rather than a surprise in
    /// [`Trace::distribution`].
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut num_ranks: Option<usize> = None;
        let mut phases = Vec::new();
        let mut current: Option<TracePhase> = None;
        let mut seen = HashSet::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("ranks ") {
                if num_ranks.is_some() {
                    return Err(err("second 'ranks' header"));
                }
                num_ranks = Some(rest.trim().parse().map_err(|_| err("bad rank count"))?);
            } else if let Some(rest) = line.strip_prefix("phase ") {
                if current.is_some() {
                    return Err(err("nested phase block"));
                }
                seen.clear();
                current = Some(TracePhase {
                    phase: rest.trim().parse().map_err(|_| err("bad phase id"))?,
                    entries: Vec::new(),
                });
            } else if line == "end" {
                phases.push(current.take().ok_or_else(|| err("end without phase"))?);
            } else {
                let p = current.as_mut().ok_or_else(|| err("entry outside phase"))?;
                let mut it = line.split_whitespace();
                let rank: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad rank"))?;
                let task: u64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad task"))?;
                let load: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("bad load"))?;
                if it.next().is_some() {
                    return Err(err("trailing fields"));
                }
                if !load.is_finite() || load < 0.0 {
                    return Err(err("load must be finite and >= 0"));
                }
                let ranks = num_ranks.ok_or_else(|| err("entry before the 'ranks' header"))?;
                if rank as usize >= ranks {
                    return Err(err(&format!("rank {rank} outside 'ranks {ranks}'")));
                }
                if !seen.insert(task) {
                    return Err(err(&format!("task {task} listed twice in one phase")));
                }
                p.entries.push((RankId::new(rank), TaskId::new(task), load));
            }
        }
        if current.is_some() {
            return Err("unterminated phase block".into());
        }
        let num_ranks = num_ranks.ok_or("missing 'ranks' header")?;
        Ok(Trace { num_ranks, phases })
    }
}

/// Capture a trace from a distribution snapshot (one phase).
pub fn snapshot_phase(phase: u64, dist: &Distribution) -> TracePhase {
    let mut entries = Vec::with_capacity(dist.num_tasks());
    for rank in dist.rank_ids() {
        for t in dist.tasks_on(rank) {
            entries.push((rank, t.id, t.load.get()));
        }
    }
    entries.sort_by_key(|&(_, task, _)| task);
    TracePhase { phase, entries }
}

/// Run the EMPIRE surrogate and record a trace: one phase every
/// `every` steps (plus the final step).
pub fn record_empire_trace(
    scenario: BdotScenario,
    cost: CostModel,
    seed: u64,
    every: usize,
) -> Trace {
    let mut sim = EmpireSim::new(scenario, cost, seed);
    let mut phases = Vec::new();
    let every = every.max(1);
    for step in 0..scenario.steps {
        sim.step();
        if step % every == 0 || step + 1 == scenario.steps {
            phases.push(snapshot_phase(step as u64, &sim.distribution));
        }
    }
    Trace {
        num_ranks: scenario.mesh.num_ranks(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        Trace {
            num_ranks: 4,
            phases: vec![
                TracePhase {
                    phase: 0,
                    entries: vec![
                        (RankId::new(0), TaskId::new(0), 1.5),
                        (RankId::new(0), TaskId::new(1), 0.5),
                        (RankId::new(2), TaskId::new(2), 2.0),
                    ],
                },
                TracePhase {
                    phase: 5,
                    entries: vec![(RankId::new(1), TaskId::new(0), 3.0)],
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let t = tiny_trace();
        let parsed = Trace::parse(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn distribution_reconstruction() {
        let t = tiny_trace();
        let d = t.distribution(0).unwrap();
        assert_eq!(d.num_ranks(), 4);
        assert_eq!(d.num_tasks(), 3);
        assert_eq!(d.rank_load(RankId::new(0)).get(), 2.0);
        assert!(t.distribution(7).is_err());
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(Trace::parse("").is_err()); // no header
        assert!(Trace::parse("ranks 4\n0 0 1.0\n").is_err()); // entry outside phase
        assert!(Trace::parse("ranks 4\nphase 0\nphase 1\nend\n").is_err()); // nested
        assert!(Trace::parse("ranks 4\nphase 0\n0 0 1.0\n").is_err()); // unterminated
        assert!(Trace::parse("ranks 4\nphase 0\n0 0 -1\nend\n").is_err()); // negative
        assert!(Trace::parse("ranks 4\nphase 0\n0 0 1 9\nend\n").is_err()); // extra field
        assert!(Trace::parse("ranks 4\nend\n").is_err()); // end without phase
        assert!(Trace::parse("phase 0\n0 0 1.0\nend\nranks 4\n").is_err()); // header after entries
        assert!(Trace::parse("ranks 4\nphase 0\n3 0 1.0\nend\nranks 2\n").is_err()); // header shrunk later

        // Both of these parsed, and `distribution` then failed on them.
        let err = Trace::parse("ranks 2\nphase 0\n5 0 1.0\nend\n").unwrap_err();
        assert_eq!(err, "line 3: rank 5 outside 'ranks 2'");
        let err = Trace::parse("ranks 2\nphase 0\n0 7 1.0\n1 7 2.0\nend\n").unwrap_err();
        assert_eq!(err, "line 4: task 7 listed twice in one phase");
        // The same task id in two phases is the same task measured twice.
        let ok = Trace::parse("ranks 2\nphase 0\n0 7 1.0\nend\nphase 1\n1 7 2.0\nend\n").unwrap();
        assert!((0..2).all(|i| ok.distribution(i).is_ok()));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# hi\n\nranks 2\n# mid\nphase 0\n0 0 1.0\nend\n";
        let t = Trace::parse(text).unwrap();
        assert_eq!(t.phases.len(), 1);
    }

    #[test]
    fn snapshot_matches_distribution() {
        let d = Distribution::from_loads(vec![vec![1.0, 2.0], vec![3.0]]);
        let p = snapshot_phase(9, &d);
        assert_eq!(p.phase, 9);
        assert_eq!(p.entries.len(), 3);
        let t = Trace {
            num_ranks: 2,
            phases: vec![p],
        };
        let d2 = t.distribution(0).unwrap();
        for r in d.rank_ids() {
            assert_eq!(d.rank_load(r), d2.rank_load(r));
        }
    }

    #[test]
    fn empire_trace_records_phases_with_persistent_loads() {
        let mut scenario = BdotScenario::small();
        scenario.steps = 10;
        let trace = record_empire_trace(scenario, CostModel::default(), 3, 3);
        // Steps 0, 3, 6, 9 (9 is also the final step).
        assert_eq!(trace.phases.len(), 4);
        assert_eq!(trace.num_ranks, scenario.mesh.num_ranks());
        // Loads grow between recorded phases (injection accumulates).
        let d0 = trace.distribution(0).unwrap();
        let d3 = trace.distribution(3).unwrap();
        assert!(d3.total_load() > d0.total_load());
        // And the trace text round-trips.
        let reparsed = Trace::parse(&trace.to_text()).unwrap();
        assert_eq!(reparsed, trace);
    }
}
