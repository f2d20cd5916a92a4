//! Metric names, units and bounds; result files; and `--check`.

use crate::json::{obj, Value};
use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    /// What a user of the system sees. `bound` is the share of the
    /// baseline's median by which the metric may worsen before `--check`
    /// calls it a regression; 0 means it must repeat exactly.
    /// `contract` marks the metrics `BENCHMARK.json` lists as end-to-end:
    /// those defined on every workload, never 0, and steady across seeds.
    EndToEnd { bound: f64, contract: bool },
    /// One layer's share, from the traced run. No bound.
    Layer,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, contract: bool) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        class: Class::EndToEnd { bound, contract },
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        class: Class::Layer,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        class: Class::Layer,
    }
}

/// Every metric the benchmark can report. A run reports the subset its
/// workload exercises.
pub const DEFS: &[Def] = &[
    e2e("setup_s", "s", 0.25, true),
    e2e("round_ms_p10", "ms", 0.25, true),
    e2e("rss_hwm_kb", "KiB", 0.15, true),
    e2e("weak_scaling_ratio", "ratio", 0.25, false),
    e2e("virtual_ms", "ms", 0.0, false),
    e2e("messages", "count", 0.0, false),
    e2e("bytes", "bytes", 0.0, false),
    e2e("final_imbalance", "ratio", 0.0, false),
    e2e("failed_share", "ratio", 0.0, false),
    layer("trace.overhead_pct", "%"),
    layer("sim.self_ms", "ms"),
    layer("sim.events", "count"),
    layer("sim.us_per_event", "us"),
    layer("sim.overhead_ms", "ms"),
    layer("wheel.push_pop_ns", "ns"),
    layer("wheel.peak_len", "count"),
    layer("lb.rank.handler_ms", "ms"),
    layer("lb.rank.start_ms", "ms"),
    layer("lb.rank.data_ms", "ms"),
    layer("lb.rank.ack_ms", "ms"),
    layer("lb.rank.retry_timer_ms", "ms"),
    layer("lb.rank.raw_ms", "ms"),
    layer("lb.rank.other_ms", "ms"),
    layer("lb.rank.start_n", "count"),
    layer("lb.rank.data_n", "count"),
    layer("lb.rank.ack_n", "count"),
    layer("lb.rank.retry_timer_n", "count"),
    layer("lb.rank.raw_n", "count"),
    layer("lb.rank.other_n", "count"),
    layer("lb.engine.gossip_ms", "ms"),
    layer("lb.engine.propose_ms", "ms"),
    layer("lb.engine.fetch_ms", "ms"),
    layer("lb.engine.reduce_ms", "ms"),
    layer("lb.engine.td_ms", "ms"),
    layer("lb.engine.other_ms", "ms"),
    layer("lb.engine.gossip_n", "count"),
    layer("lb.engine.propose_n", "count"),
    layer("lb.engine.fetch_n", "count"),
    layer("lb.engine.reduce_n", "count"),
    layer("lb.engine.td_n", "count"),
    layer("lb.engine.other_n", "count"),
    layer("lb.driver.local_round_ms", "ms"),
    layer("reliable.cost_ms", "ms"),
    layer("reliable.send_ack_ns", "ns"),
    layer("reliable.sent", "count"),
    layer("reliable.retransmitted", "count"),
    layer("reliable.duplicates_suppressed", "count"),
    layer("reliable.gave_up", "count"),
    layer_up("reliable.useful_ratio", "ratio"),
    layer("fault.cost_ms", "ms"),
    layer("fault.dropped", "count"),
    layer("fault.duplicated", "count"),
    layer("fault.reordered", "count"),
    layer("fault.spiked", "count"),
    layer("core.refine_ms", "ms"),
    layer("core.knowledge.merge_ns_per_pair", "ns"),
    layer("core.gossip.pairs_per_msg", "count"),
    layer("core.gossip.bytes_per_msg", "bytes"),
    layer("lb.messages.encode_ns", "ns"),
    layer("lb.messages.decode_ns", "ns"),
    layer("lb.messages.bytes_per_frame", "bytes"),
    layer_up("crc.mb_per_s", "MB/s"),
    layer("lb.socket.frame_ns", "ns"),
    layer("lb.socket.round_ms_p90", "ms"),
    layer("lb.socket.teardown_ms", "ms"),
    layer_up("lb.socket.frames_per_s", "1/s"),
    layer("lb.socket.cpu_ms_per_round", "ms"),
    layer("lb.socket.messages", "count"),
    layer("lb.socket.retransmitted", "count"),
    layer("parallel.one_worker_round_ms", "ms"),
    layer("parallel.handoff_ms", "ms"),
    layer("parallel.messages", "count"),
    layer_up("parallel.frames_per_s", "1/s"),
    layer("parallel.cpu_ms_per_round", "ms"),
    layer("parallel.handler_ms", "ms"),
    layer("parallel.round_ms_p90", "ms"),
    layer("obs.overhead_pct", "%"),
    layer("obs.events_recorded", "count"),
    layer("svc.build_ms", "ms"),
    layer("core.distribution.build_ms", "ms"),
];

pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

fn in_contract_end_to_end(d: &Def) -> bool {
    matches!(d.class, Class::EndToEnd { contract: true, .. })
}

/// Workload and metric names are keys in files and on command lines.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind a timing: count, quartiles, supported tail.
    pub summary: Option<Summary>,
}

/// Everything one run of one workload measured.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Ranks times rounds that were verified, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans: Option<SpanLog>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Self {
        RunResult {
            workload,
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            spans: None,
        }
    }

    /// Record a metric; its name must be in [`DEFS`], which gives the unit.
    pub fn push(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.metrics.push(Metric {
            name: d.name,
            unit: d.unit,
            value,
            summary: None,
        });
    }

    pub fn push_summary(&mut self, name: &str, value: f64, summary: Summary) {
        self.push(name, value);
        self.metrics.last_mut().expect("just pushed").summary = Some(summary);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn value_of(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The full result, one JSON object.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".to_string(), Value::Str(m.name.to_string())),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ("value".to_string(), Value::Num(m.value)),
                ];
                if let Some(s) = &m.summary {
                    fields.push(("n".to_string(), Value::Num(s.n as f64)));
                    fields.push(("p50".to_string(), Value::Num(s.p50)));
                    fields.push(("q1".to_string(), Value::Num(s.q1)));
                    fields.push(("q3".to_string(), Value::Num(s.q3)));
                    if let Some((p, v)) = s.tail {
                        fields.push(("tail_percentile".to_string(), Value::Num(p)));
                        fields.push(("tail".to_string(), Value::Num(v)));
                    }
                }
                Value::Obj(fields)
            })
            .collect();
        obj([
            ("workload", Value::Str(self.workload.to_string())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "errors",
                Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", Value::Arr(metrics)),
        ])
    }

    /// The one-line result the acceptance driver reads: exactly the
    /// metrics `BENCHMARK.json` lists for this kind of run, with 0 for a
    /// layer the workload does not exercise.
    pub fn contract_line(&self) -> String {
        let metrics = DEFS
            .iter()
            .filter(|d| in_contract_end_to_end(d) != self.traced)
            .map(|d| {
                let value = self.value_of(d.name).unwrap_or(0.0);
                (
                    d.name.to_string(),
                    obj([
                        ("value", Value::Num(value)),
                        ("unit", Value::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }

    /// Every metric by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed={} {} ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            let _ = write!(out, "  {:<34} {:>16.4} {:<6}", m.name, m.value, m.unit);
            if let Some(s) = &m.summary {
                let _ = write!(
                    out,
                    " n={} p50={:.4} q1={:.4} q3={:.4}",
                    s.n, s.p50, s.q1, s.q3
                );
                if let Some((p, v)) = s.tail {
                    let _ = write!(out, " p{p}={v:.4}");
                }
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  verified {} rank-rounds, {} failed",
            self.attempted, self.failed
        );
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED {e}");
        }
        out
    }
}

// ---- --check ------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A metric that must repeat exactly did not.
    Drift,
    /// The run-to-run spread is wider than the bound, so the comparison
    /// cannot tell a regression from noise.
    Unresolved,
}

pub struct Judgement {
    pub base: f64,
    pub change: f64,
    /// Signed share of the baseline by which the change is worse.
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compare the values of one metric on one workload across the runs of
/// two result sets. `spread_hint` is the widest within-run quartile
/// spread, used when a side has a single run.
pub fn judge(
    base: &[f64],
    change: &[f64],
    bound: f64,
    better: Better,
    spread_hint: f64,
) -> Judgement {
    let (a, b) = (stats::median(base), stats::median(change));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if a == 0.0 {
        if b == a {
            0.0
        } else {
            sign * (b - a).signum() * f64::INFINITY
        }
    } else {
        sign * (b - a) / a.abs()
    };
    let spread = if base.len() >= 2 && change.len() >= 2 {
        stats::spread(base).max(stats::spread(change))
    } else {
        spread_hint
    };
    let exact = base
        .iter()
        .chain(change)
        .all(|v| v.to_bits() == base[0].to_bits());
    let verdict = if bound == 0.0 {
        if exact {
            Verdict::Ok
        } else {
            Verdict::Drift
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Judgement {
        base: a,
        change: b,
        worse_by,
        spread,
        verdict,
    }
}

/// One metric on one workload over the untraced runs of a result file.
struct Series {
    workload: String,
    metric: String,
    values: Vec<f64>,
    /// Widest quartile spread of the samples within a single run.
    within: f64,
}

fn collect(doc: &Value) -> Vec<Series> {
    let mut out: Vec<Series> = Vec::new();
    for run in doc.get("runs").map_or(&[][..], Value::as_arr) {
        if run.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        for m in run.get("metrics").map_or(&[][..], Value::as_arr) {
            let (Some(metric), Some(value)) = (
                m.get("name").and_then(Value::as_str),
                m.get("value").and_then(Value::as_f64),
            ) else {
                continue;
            };
            let within = match (
                m.get("q1").and_then(Value::as_f64),
                m.get("q3").and_then(Value::as_f64),
            ) {
                (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
                _ => 0.0,
            };
            match out
                .iter_mut()
                .find(|s| s.workload == workload && s.metric == metric)
            {
                Some(series) => {
                    series.values.push(value);
                    series.within = series.within.max(within);
                }
                None => out.push(Series {
                    workload: workload.to_string(),
                    metric: metric.to_string(),
                    values: vec![value],
                    within,
                }),
            }
        }
    }
    out
}

/// Compare two result files; returns the report and whether every
/// pairing passed (no regression, no drift, nothing missing).
pub fn check(base: &Value, change: &Value) -> (String, bool) {
    let (base, change) = (collect(base), collect(change));
    let mut out = format!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "change", "worse", "spread", "bound"
    );
    let mut pass = true;
    for a in &base {
        let (workload, metric) = (&a.workload, &a.metric);
        let Some(Def {
            class: Class::EndToEnd { bound, .. },
            better,
            ..
        }) = def(metric)
        else {
            continue;
        };
        let Some(b) = change
            .iter()
            .find(|b| b.workload == *workload && b.metric == *metric)
        else {
            let _ = writeln!(
                out,
                "{workload:<18} {metric:<20} missing from the second file"
            );
            pass = false;
            continue;
        };
        let j = judge(
            &a.values,
            &b.values,
            *bound,
            *better,
            a.within.max(b.within),
        );
        pass &= !matches!(j.verdict, Verdict::Regression | Verdict::Drift);
        let _ = writeln!(
            out,
            "{workload:<18} {metric:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.2}  {}",
            j.base,
            j.change,
            j.worse_by * 100.0,
            j.spread * 100.0,
            bound,
            match j.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Drift => "DRIFT",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn names_and_units_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes().all(|b| {
                    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
                })
        };
        for (i, d) in DEFS.iter().enumerate() {
            assert!(valid_name(d.name) && d.name.len() <= 64, "{}", d.name);
            assert!(unit_ok(d.unit), "{}", d.unit);
            assert!(
                DEFS[..i].iter().all(|e| e.name != d.name),
                "{} twice",
                d.name
            );
        }
        for w in &crate::workloads::WORKLOADS {
            assert!(valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(!valid_name("") && !valid_name("a b") && !valid_name("a/b") && !valid_name("é"));
    }

    #[test]
    fn bounds_decide_regressions() {
        let lower = Better::Lower;
        // Within the bound, and an improvement, are both fine.
        assert_eq!(
            judge(&[100.0], &[109.0], 0.10, lower, 0.0).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0], &[109.0], 0.05, lower, 0.0).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&[100.0], &[50.0], 0.10, lower, 0.0).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&[100.0], &[111.0], 0.10, lower, 0.0).verdict,
            Verdict::Regression
        );
        // For higher-is-better the sign flips.
        assert_eq!(
            judge(&[100.0], &[80.0], 0.10, Better::Higher, 0.0).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&[100.0], &[120.0], 0.10, Better::Higher, 0.0).verdict,
            Verdict::Ok
        );
        // Medians over several runs decide, not single values.
        let j = judge(
            &[99.0, 100.0, 101.0],
            &[100.0, 130.0, 101.0],
            0.10,
            lower,
            0.0,
        );
        assert_eq!(
            j.verdict,
            Verdict::Unresolved,
            "a 30% spread hides a 1% change"
        );
        let j = judge(
            &[99.0, 100.0, 101.0],
            &[119.0, 120.0, 121.0],
            0.10,
            lower,
            0.0,
        );
        assert_eq!(j.verdict, Verdict::Regression);
        assert!((j.worse_by - 0.2).abs() < 1e-12);
        // One run a side: the within-run quartiles stand in for the spread.
        assert_eq!(
            judge(&[100.0], &[120.0], 0.10, lower, 0.3).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_may_not_move_at_all() {
        let lower = Better::Lower;
        assert_eq!(
            judge(&[7.0, 7.0], &[7.0], 0.0, lower, 0.0).verdict,
            Verdict::Ok
        );
        assert_eq!(judge(&[0.0], &[0.0], 0.0, lower, 0.0).verdict, Verdict::Ok);
        // Even an improvement is drift: faster must not mean different.
        assert_eq!(
            judge(&[7.0], &[6.999_999], 0.0, lower, 0.0).verdict,
            Verdict::Drift
        );
        assert_eq!(
            judge(&[0.0], &[1e-9], 0.0, lower, 0.0).verdict,
            Verdict::Drift
        );
        assert_eq!(
            judge(&[7.0, 7.5], &[7.0, 7.5], 0.0, lower, 0.0).verdict,
            Verdict::Drift
        );
    }

    fn file(round_ms: f64, messages: f64) -> Value {
        let mut r = RunResult::new("sim_hotspot", 1, 1.0, false);
        r.attempted = 1;
        r.push("round_ms_p10", round_ms);
        r.push("messages", messages);
        r.push("lb.rank.handler_ms", 1.0);
        obj([("runs", Value::Arr(vec![r.to_json()]))])
    }

    #[test]
    fn check_compares_result_files() {
        let base = file(100.0, 5.0);
        let (report, pass) = check(&base, &parse(&file(105.0, 5.0).to_line()).unwrap());
        assert!(pass, "{report}");
        assert!(!report.contains("lb.rank"), "layer metrics have no bound");
        let (report, pass) = check(&base, &file(130.0, 5.0));
        assert!(!pass && report.contains("REGRESSION"));
        let (report, pass) = check(&base, &file(100.0, 6.0));
        assert!(!pass && report.contains("DRIFT"));
        let (_, pass) = check(&base, &obj([("runs", Value::Arr(vec![]))]));
        assert!(!pass, "a workload missing from the second file fails");
    }

    #[test]
    fn contract_line_lists_exactly_the_declared_metrics() {
        let mut r = RunResult::new("sim_hotspot", 1, 1.0, false);
        r.attempted = 4;
        r.push("round_ms_p10", 12.5);
        r.push("messages", 9.0);
        let line = parse(&r.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(4.0));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["setup_s", "round_ms_p10", "rss_hwm_kb"]);
        r.traced = true;
        r.failed = 1;
        let line = parse(&r.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), DEFS.len() - 3);
        assert!(metrics.iter().all(|(k, _)| k != "round_ms_p10"));
    }

    /// The numbers of record come from the standalone manifest's build,
    /// which has to repeat the root's release profile (cargo has no way to
    /// inherit one); the two may not drift apart.
    #[test]
    fn standalone_manifest_repeats_the_root_release_profile() {
        let profile = |manifest: &str| -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let root = profile(include_str!("../../../../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(profile(include_str!("Cargo.toml")), root);
    }

    /// `BENCHMARK.json` at the repository root lists this table; the two
    /// may not drift apart.
    #[test]
    fn committed_manifest_matches_the_table() {
        let committed = parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            committed
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |contract: bool| -> Vec<(String, String)> {
            DEFS.iter()
                .filter(|d| in_contract_end_to_end(d) == contract)
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(true));
        assert_eq!(listed("per_layer"), table(false));
        for m in committed.get("end_to_end").unwrap().as_arr() {
            let name = m.get("name").unwrap().as_str().unwrap();
            let Some(Class::EndToEnd { bound, .. }) = def(name).map(|d| d.class) else {
                panic!("{name} is not end-to-end");
            };
            assert_eq!(
                m.get("bound").unwrap().as_f64(),
                Some(bound),
                "bound of {name}"
            );
        }
        let workloads: Vec<&str> = committed
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        // All but `sim_hotspot_lossy`: four workloads are as many as get
        // runs long enough to be steady inside the driver's time limit.
        let ours: Vec<&str> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|name| *name != "sim_hotspot_lossy")
            .collect();
        assert_eq!(workloads, ours);
    }
}
