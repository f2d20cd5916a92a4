//! Fig. 3-style LB cost breakdown computed from trace records alone.
//!
//! The paper's Fig. 3 decomposes where the load balancer spends its time
//! (information propagation vs. transfer negotiation vs. commit). This
//! module rebuilds that decomposition from an exported Chrome trace —
//! either an in-memory [`Trace`](crate::Trace) lowered via
//! [`to_records`](crate::chrome::to_records) or a `trace.json` re-read
//! with [`read_chrome_trace`](crate::chrome::read_chrome_trace) — with
//! no access to the hand-rolled timers that produced the run.

use std::collections::BTreeMap;

use crate::chrome::TraceRecord;

/// Aggregated cost of one span group (e.g. all `lb:gossip` spans).
#[derive(Clone, Debug, PartialEq)]
pub struct BreakdownRow {
    /// Group key (span name with per-instance ordinals stripped).
    pub group: String,
    /// Number of spans in the group.
    pub count: u64,
    /// Total span time summed over all ranks, in seconds.
    pub total_s: f64,
    /// Largest per-rank span-time sum, in seconds — the group's
    /// contribution to the critical path under perfect overlap.
    pub max_rank_s: f64,
}

/// The full breakdown: span groups plus instant-event counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Span groups in name order.
    pub rows: Vec<BreakdownRow>,
    /// Instant events per group, in name order.
    pub instants: Vec<(String, u64)>,
    /// Number of distinct ranks that recorded any event.
    pub num_ranks: u32,
}

impl CostBreakdown {
    /// Total seconds across the LB span groups (names starting `lb:` or
    /// `gossip_round`), summed over ranks.
    pub fn lb_total_s(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.group.starts_with("lb:") || r.group.starts_with("gossip_round"))
            .map(|r| r.total_s)
            .sum()
    }
}

/// Strip per-instance ordinals so repeated spans aggregate:
/// `gossip_round:3` → `gossip_rounds`, `epoch_terminated:7` →
/// `epoch_terminated`, `step:12` → `steps`; everything else unchanged.
fn group_key(name: &str) -> String {
    if name.starts_with("gossip_round:") {
        "gossip_rounds".to_string()
    } else if name.starts_with("epoch_terminated:") {
        "epoch_terminated".to_string()
    } else if name.starts_with("step:") {
        "steps".to_string()
    } else {
        name.to_string()
    }
}

/// Aggregate trace records into a [`CostBreakdown`].
pub fn cost_breakdown(records: &[TraceRecord]) -> CostBreakdown {
    // group -> (count, total µs, rank -> per-rank µs)
    let mut spans: BTreeMap<String, (u64, f64, BTreeMap<u32, f64>)> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut ranks: BTreeMap<u32, ()> = BTreeMap::new();
    for rec in records {
        ranks.insert(rec.tid, ());
        match rec.ph {
            'X' => {
                let entry = spans.entry(group_key(&rec.name)).or_default();
                entry.0 += 1;
                entry.1 += rec.dur_us;
                *entry.2.entry(rec.tid).or_insert(0.0) += rec.dur_us;
            }
            'i' => {
                *instants.entry(group_key(&rec.name)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    CostBreakdown {
        rows: spans
            .into_iter()
            .map(|(group, (count, total_us, per_rank))| BreakdownRow {
                group,
                count,
                total_s: total_us / 1e6,
                max_rank_s: per_rank.values().copied().fold(0.0, f64::max) / 1e6,
            })
            .collect(),
        instants: instants.into_iter().collect(),
        num_ranks: ranks.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u32, name: &str, dur_us: f64) -> TraceRecord {
        TraceRecord {
            ph: 'X',
            tid,
            ts_us: 0.0,
            dur_us,
            name: name.to_string(),
            cat: "lb".to_string(),
            args: vec![],
        }
    }

    fn instant(tid: u32, name: &str) -> TraceRecord {
        TraceRecord {
            ph: 'i',
            tid,
            ts_us: 0.0,
            dur_us: 0.0,
            name: name.to_string(),
            cat: "reliable".to_string(),
            args: vec![],
        }
    }

    #[test]
    fn groups_and_aggregates() {
        let records = vec![
            span(0, "lb:gossip", 10.0),
            span(1, "lb:gossip", 30.0),
            span(0, "gossip_round:0", 4.0),
            span(0, "gossip_round:1", 6.0),
            instant(1, "retransmit"),
            instant(1, "retransmit"),
        ];
        let b = cost_breakdown(&records);
        assert_eq!(b.num_ranks, 2);
        let gossip = b.rows.iter().find(|r| r.group == "lb:gossip").unwrap();
        assert_eq!(gossip.count, 2);
        assert!((gossip.total_s - 40e-6).abs() < 1e-12);
        assert!((gossip.max_rank_s - 30e-6).abs() < 1e-12);
        let rounds = b.rows.iter().find(|r| r.group == "gossip_rounds").unwrap();
        assert_eq!(rounds.count, 2);
        assert!(b.instants.contains(&("retransmit".to_string(), 2)));
        assert!((b.lb_total_s() - 50e-6).abs() < 1e-12);
    }
}
