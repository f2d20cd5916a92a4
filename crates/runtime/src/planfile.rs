//! JSON (de)serialization for [`FaultPlan`] files.
//!
//! Plan files are read with the workspace's one JSON reader
//! ([`tempered_obs::json`]) and written by a canonical writer whose
//! output round-trips bit-exactly through [`FaultPlan::from_json`].
//! Omitted fields take their [`FaultPlan::none`] defaults, so checked-in
//! plan files only state what they perturb.

use crate::fault::{CrashEvent, FaultPlan, LinkFault, LinkFaultKind, PartitionWindow, PauseWindow};
use std::fmt::Write as _;
use tempered_core::ids::RankId;
use tempered_obs::json::{self, arr, as_num, as_str, as_uint, field, get, obj, Json};

type PResult<T> = Result<T, String>;

// ---- Json -> FaultPlan -----------------------------------------------------

fn as_rank(v: &Json, what: &str) -> PResult<RankId> {
    Ok(RankId::new(as_uint(v, what, u32::MAX.into())? as u32))
}

fn as_ranks(v: &Json, what: &str) -> PResult<Vec<RankId>> {
    arr(v, what)?.iter().map(|i| as_rank(i, what)).collect()
}

pub(crate) fn as_opt_num(v: &Json, what: &str) -> PResult<Option<f64>> {
    match v {
        Json::Null => Ok(None),
        other => as_num(other, what).map(Some),
    }
}

fn link_kind(map: &[(String, Json)]) -> PResult<LinkFaultKind> {
    let kind = obj(field(map, "kind", "link")?, "link.kind")?;
    match as_str(field(kind, "type", "link.kind")?, "link.kind.type")? {
        "cut" => Ok(LinkFaultKind::Cut),
        "lossy" => Ok(LinkFaultKind::Lossy {
            p: as_num(field(kind, "p", "link.kind")?, "link.kind.p")?,
        }),
        "delay" => Ok(LinkFaultKind::Delay {
            factor: as_num(field(kind, "factor", "link.kind")?, "link.kind.factor")?,
        }),
        "flap" => Ok(LinkFaultKind::Flap {
            period: as_num(field(kind, "period", "link.kind")?, "link.kind.period")?,
            duty: as_num(field(kind, "duty", "link.kind")?, "link.kind.duty")?,
        }),
        "corrupt" => Ok(LinkFaultKind::Corrupt {
            p: as_num(field(kind, "p", "link.kind")?, "link.kind.p")?,
        }),
        other => Err(format!("link.kind.type: unknown kind \"{other}\"")),
    }
}

pub(crate) fn plan_from_json(root: &Json) -> PResult<FaultPlan> {
    let map = obj(root, "plan")?;
    let mut plan = FaultPlan::none();
    for (key, value) in map {
        match key.as_str() {
            "seed" => plan.seed = as_uint(value, "seed", u64::MAX)?,
            "drop" => plan.drop = as_num(value, "drop")?,
            "duplicate" => plan.duplicate = as_num(value, "duplicate")?,
            "delay_spike" => plan.delay_spike = as_num(value, "delay_spike")?,
            "delay_spike_scale" => plan.delay_spike_scale = as_num(value, "delay_spike_scale")?,
            "reorder" => plan.reorder = as_num(value, "reorder")?,
            "reorder_factor" => plan.reorder_factor = as_num(value, "reorder_factor")?,
            "stragglers" => {
                for item in arr(value, "stragglers")? {
                    let pair = arr(item, "stragglers[]")?;
                    if pair.len() != 2 {
                        return Err("stragglers[]: expected [rank, factor]".to_string());
                    }
                    plan.stragglers.push((
                        as_rank(&pair[0], "stragglers[].rank")?,
                        as_num(&pair[1], "stragglers[].factor")?,
                    ));
                }
            }
            "pauses" => {
                for item in arr(value, "pauses")? {
                    let w = obj(item, "pauses[]")?;
                    plan.pauses.push(PauseWindow {
                        rank: as_rank(field(w, "rank", "pause")?, "pause.rank")?,
                        from: as_num(field(w, "from", "pause")?, "pause.from")?,
                        until: as_num(field(w, "until", "pause")?, "pause.until")?,
                    });
                }
            }
            "crashes" => {
                for item in arr(value, "crashes")? {
                    let c = obj(item, "crashes[]")?;
                    plan.crashes.push(CrashEvent {
                        rank: as_rank(field(c, "rank", "crash")?, "crash.rank")?,
                        at: as_num(field(c, "at", "crash")?, "crash.at")?,
                        restart_after: match get(c, "restart_after") {
                            None => None,
                            Some(v) => as_opt_num(v, "crash.restart_after")?,
                        },
                    });
                }
            }
            "links" => {
                for item in arr(value, "links")? {
                    let l = obj(item, "links[]")?;
                    plan.links.push(LinkFault {
                        src: as_ranks(field(l, "src", "link")?, "link.src")?,
                        dst: as_ranks(field(l, "dst", "link")?, "link.dst")?,
                        start: as_num(field(l, "start", "link")?, "link.start")?,
                        end: match get(l, "end") {
                            None => None,
                            Some(v) => as_opt_num(v, "link.end")?,
                        },
                        kind: link_kind(l)?,
                    });
                }
            }
            "partitions" => {
                for item in arr(value, "partitions")? {
                    let p = obj(item, "partitions[]")?;
                    plan.partitions.push(PartitionWindow {
                        side: as_ranks(field(p, "side", "partition")?, "partition.side")?,
                        start: as_num(field(p, "start", "partition")?, "partition.start")?,
                        end: match get(p, "end") {
                            None => None,
                            Some(v) => as_opt_num(v, "partition.end")?,
                        },
                    });
                }
            }
            other => return Err(format!("plan: unknown field \"{other}\"")),
        }
    }
    Ok(plan)
}

// ---- FaultPlan -> Json text ------------------------------------------------

/// Write `x` the way `f64::to_string` does but keep integral values
/// readable (`2` not `2.0` would not re-parse differently; both are
/// fine) — plain `{}` formatting round-trips through `str::parse::<f64>`
/// exactly for every finite value.
pub(crate) fn num(x: f64) -> String {
    format!("{x}")
}

fn ranks(out: &mut String, ranks: &[RankId]) {
    out.push('[');
    for (i, r) in ranks.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", r.as_u32());
    }
    out.push(']');
}

fn opt_end(out: &mut String, end: Option<f64>) {
    match end {
        Some(e) => {
            let _ = write!(out, "\"end\": {}", num(e));
        }
        None => out.push_str("\"end\": null"),
    }
}

impl FaultPlan {
    /// Parse a plan from JSON text. Omitted fields default as in
    /// [`FaultPlan::none`]; unknown fields are rejected so typos in plan
    /// files fail loudly. The parsed plan is *not* validated — callers
    /// should [`FaultPlan::validate`] before use.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        plan_from_json(&json::parse(text)?)
    }

    /// The one door for plan files: read, parse, and validate the plan
    /// for a run of `ranks` ranks ([`FaultPlan::validate_for`], so a rank
    /// the run does not have is rejected here), prefixing every error with the offending path — a
    /// bad `--plan` flag or a typo inside the file is reported as
    /// `plans/foo.json: link.kind.p must be a probability` rather than a
    /// bare field name, or a panic.
    pub fn load(path: &std::path::Path, ranks: usize) -> Result<FaultPlan, String> {
        let named = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(path)
            .map_err(|e| named(format!("cannot read plan file: {e}")))?;
        let plan = FaultPlan::from_json(&text).map_err(named)?;
        plan.validate_for(ranks).map_err(|e| named(e.to_string()))?;
        Ok(plan)
    }

    /// Render the plan as pretty-printed JSON that [`FaultPlan::from_json`]
    /// parses back to an equal plan.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"drop\": {},", num(self.drop));
        let _ = writeln!(out, "  \"duplicate\": {},", num(self.duplicate));
        let _ = writeln!(out, "  \"delay_spike\": {},", num(self.delay_spike));
        let _ = writeln!(
            out,
            "  \"delay_spike_scale\": {},",
            num(self.delay_spike_scale)
        );
        let _ = writeln!(out, "  \"reorder\": {},", num(self.reorder));
        let _ = writeln!(out, "  \"reorder_factor\": {},", num(self.reorder_factor));

        out.push_str("  \"stragglers\": [");
        for (i, (r, f)) in self.stragglers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    [{}, {}]", r.as_u32(), num(*f));
        }
        out.push_str(if self.stragglers.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"pauses\": [");
        for (i, w) in self.pauses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rank\": {}, \"from\": {}, \"until\": {}}}",
                w.rank.as_u32(),
                num(w.from),
                num(w.until)
            );
        }
        out.push_str(if self.pauses.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"crashes\": [");
        for (i, c) in self.crashes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rank\": {}, \"at\": {}, ",
                c.rank.as_u32(),
                num(c.at)
            );
            match c.restart_after {
                Some(d) => {
                    let _ = write!(out, "\"restart_after\": {}}}", num(d));
                }
                None => out.push_str("\"restart_after\": null}"),
            }
        }
        out.push_str(if self.crashes.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"links\": [");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"src\": ");
            ranks(&mut out, &l.src);
            out.push_str(", \"dst\": ");
            ranks(&mut out, &l.dst);
            let _ = write!(out, ", \"start\": {}, ", num(l.start));
            opt_end(&mut out, l.end);
            out.push_str(", \"kind\": ");
            match l.kind {
                LinkFaultKind::Cut => out.push_str("{\"type\": \"cut\"}"),
                LinkFaultKind::Lossy { p } => {
                    let _ = write!(out, "{{\"type\": \"lossy\", \"p\": {}}}", num(p));
                }
                LinkFaultKind::Delay { factor } => {
                    let _ = write!(out, "{{\"type\": \"delay\", \"factor\": {}}}", num(factor));
                }
                LinkFaultKind::Flap { period, duty } => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"flap\", \"period\": {}, \"duty\": {}}}",
                        num(period),
                        num(duty)
                    );
                }
                LinkFaultKind::Corrupt { p } => {
                    let _ = write!(out, "{{\"type\": \"corrupt\", \"p\": {}}}", num(p));
                }
            }
            out.push('}');
        }
        out.push_str(if self.links.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"partitions\": [");
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"side\": ");
            ranks(&mut out, &p.side);
            let _ = write!(out, ", \"start\": {}, ", num(p.start));
            opt_end(&mut out, p.end);
            out.push('}');
        }
        out.push_str(if self.partitions.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });

        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan() -> FaultPlan {
        FaultPlan {
            seed: 77,
            drop: 0.05,
            duplicate: 0.02,
            delay_spike: 0.01,
            delay_spike_scale: 8.0,
            reorder: 0.1,
            reorder_factor: 4.0,
            stragglers: vec![(RankId::new(3), 2.5)],
            pauses: vec![PauseWindow {
                rank: RankId::new(1),
                from: 0.001,
                until: 0.002,
            }],
            crashes: vec![
                CrashEvent::fatal(RankId::new(5), 0.01),
                CrashEvent::with_restart(RankId::new(6), 0.02, 0.005),
            ],
            links: vec![
                LinkFault {
                    src: vec![RankId::new(0)],
                    dst: vec![RankId::new(1), RankId::new(2)],
                    start: 0.0,
                    end: Some(0.01),
                    kind: LinkFaultKind::Lossy { p: 0.3 },
                },
                LinkFault {
                    src: vec![],
                    dst: vec![RankId::new(4)],
                    start: 0.005,
                    end: None,
                    kind: LinkFaultKind::Flap {
                        period: 0.001,
                        duty: 0.5,
                    },
                },
                LinkFault {
                    src: vec![RankId::new(2)],
                    dst: vec![],
                    start: 0.0,
                    end: None,
                    kind: LinkFaultKind::Corrupt { p: 0.25 },
                },
            ],
            partitions: vec![PartitionWindow {
                side: vec![RankId::new(0), RankId::new(1)],
                start: 0.002,
                end: Some(0.004),
            }],
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let plan = busy_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("round trip parses");
        assert_eq!(back, plan);
        // And serializing again is byte-stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::none();
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert!(back.is_zero());
    }

    #[test]
    fn sparse_files_take_defaults() {
        let plan = FaultPlan::from_json(
            r#"{"seed": 9, "partitions": [{"side": [0, 1], "start": 0.001, "end": 0.002}]}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.drop, 0.0);
        assert_eq!(plan.partitions.len(), 1);
        assert!(plan.links.is_empty());
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn typos_and_malformed_text_fail_loudly() {
        assert!(FaultPlan::from_json(r#"{"sed": 9}"#).is_err());
        assert!(FaultPlan::from_json(r#"{"seed": }"#).is_err());
        assert!(FaultPlan::from_json(r#"{"seed": 1} trailing"#).is_err());
        assert!(FaultPlan::from_json(
            r#"{"links": [{"src": [], "dst": [], "start": 0, "kind": {"type": "meteor"}}]}"#
        )
        .is_err());
    }

    /// Hostile or sloppy plan text is an `Err`, never an abort and never
    /// a silent guess: 200 000 nested arrays do not overflow the stack, a
    /// non-ASCII typo is named as typed, and a repeated key is rejected.
    #[test]
    fn depth_bombs_non_ascii_and_duplicate_keys_fail_loudly() {
        let bomb = format!("{{\"stragglers\": {}", "[".repeat(200_000));
        let err = FaultPlan::from_json(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than 64 at byte"), "{err}");

        let err = FaultPlan::from_json(r#"{"sèed": 9}"#).unwrap_err();
        assert!(err.contains("unknown field \"sèed\""), "{err}");

        let err = FaultPlan::from_json(r#"{"drop": 0.1, "seed": 1, "drop": 0.2}"#).unwrap_err();
        assert!(err.contains("duplicate key \"drop\""), "{err}");

        let dir = std::env::temp_dir().join("tempered-planfile-bomb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bomb.json");
        std::fs::write(&path, &bomb).unwrap();
        let err = FaultPlan::load(&path, 16).unwrap_err();
        assert!(err.starts_with(&format!("{}: ", path.display())), "{err}");
    }

    /// The shipped example plans (`examples/plans/*.json`) must load at
    /// the rank count of the harness that runs them — the quick-mode
    /// count where there are two, since CI runs that one — and
    /// round-trip. (Scenarios run under the auditor are fuzz cases in
    /// `regressions/`, which `tests/regression_corpus.rs` loads.)
    #[test]
    fn shipped_example_plans_load_at_their_harness_rank_count() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/plans");
        let harness_ranks = [
            ("sockets_gray.json", 4),   // `orchestrate` via `bench::sockets::scenarios`
            ("svc_flashcrowd.json", 8), // `repro svc_sweep`
        ];
        let mut shipped: Vec<String> = std::fs::read_dir(&dir)
            .expect("examples/plans exists")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".json"))
            .collect();
        shipped.sort();
        assert_eq!(
            shipped,
            harness_ranks.map(|(name, _)| name),
            "every shipped plan is listed here with its harness"
        );
        for (name, ranks) in harness_ranks {
            let plan = FaultPlan::load(&dir.join(name), ranks)
                .unwrap_or_else(|e| panic!("shipped plan rejected: {e}"));
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back, plan, "{name} must round-trip");
        }
    }

    #[test]
    fn load_names_the_file_in_every_error() {
        let missing = std::path::Path::new("/nonexistent/plan.json");
        let err = FaultPlan::load(missing, 16).unwrap_err();
        assert!(err.starts_with("/nonexistent/plan.json: "), "{err}");
        assert!(err.contains("cannot read"), "{err}");

        let dir = std::env::temp_dir().join("tempered-planfile-load-test");
        std::fs::create_dir_all(&dir).unwrap();

        let bad_syntax = dir.join("bad_syntax.json");
        std::fs::write(&bad_syntax, r#"{"drop": }"#).unwrap();
        let err = FaultPlan::load(&bad_syntax, 16).unwrap_err();
        assert!(
            err.starts_with(&format!("{}: ", bad_syntax.display())),
            "{err}"
        );

        let bad_value = dir.join("bad_value.json");
        std::fs::write(&bad_value, r#"{"drop": 1.5}"#).unwrap();
        let err = FaultPlan::load(&bad_value, 16).unwrap_err();
        assert!(
            err.contains("drop"),
            "validation error names the field: {err}"
        );
        assert!(
            err.starts_with(&format!("{}: ", bad_value.display())),
            "{err}"
        );

        // A rank the run does not have: the same file loads for 4 ranks
        // and is rejected, by name, for 2.
        let rank_3 = dir.join("rank_3.json");
        std::fs::write(&rank_3, r#"{"crashes": [{"rank": 3, "at": 0.001}]}"#).unwrap();
        assert!(FaultPlan::load(&rank_3, 4).is_ok());
        let err = FaultPlan::load(&rank_3, 2).unwrap_err();
        assert!(err.starts_with(&format!("{}: ", rank_3.display())), "{err}");
        assert!(err.contains("rank 3"), "{err}");
    }

    /// No plan can hang or panic an executor: each of these once did
    /// (a negative latency factor, a deferral to +∞, a wheel index out of
    /// bounds) or silently crashed nobody, and each is now an `Err` at
    /// the door — the JSON reader for numbers that parse non-finite,
    /// `validate` for what a caller builds in memory, `validate_for` for
    /// ranks outside the roster.
    #[test]
    fn plans_that_hung_or_panicked_are_rejected_at_the_door() {
        let door = |plan: Result<FaultPlan, String>| {
            plan.and_then(|p| p.validate_for(16).map_err(|e| e.to_string()))
        };
        let text = |t: &str| FaultPlan::from_json(t);
        let built = |edit: fn(&mut FaultPlan)| {
            let mut p = FaultPlan::none();
            edit(&mut p);
            Ok(p)
        };
        let table: Vec<(Result<FaultPlan, String>, &str)> = vec![
            (
                text(r#"{"seed":1,"delay_spike":0.5,"delay_spike_scale":-10}"#),
                "delay_spike_scale must be finite and >= 1, got -10",
            ),
            (
                text(r#"{"pauses":[{"rank":0,"from":0,"until":1e999}]}"#),
                "number out of range at byte",
            ),
            (
                text(
                    r#"{"links":[{"src":[],"dst":[],"start":0,
                        "kind":{"type":"delay","factor":1e999}}]}"#,
                ),
                "number out of range at byte",
            ),
            (
                text(r#"{"stragglers":[[0,1e999]]}"#),
                "number out of range at byte",
            ),
            (
                text(r#"{"crashes":[{"rank":4000000000,"at":1e-4,"restart_after":null}]}"#),
                "crash names rank 4000000000, outside the run's 16 ranks",
            ),
            // 2³² + 3 truncated to 32 bits is rank 3, which 16 ranks have:
            // it must be rejected, not wrapped.
            (
                text(r#"{"crashes":[{"rank":4294967299,"at":2e-4}]}"#),
                "crash.rank: 4294967299 is not an integer",
            ),
            (
                text(r#"{"reorder":0.1,"reorder_factor":0.5}"#),
                "reorder_factor must be finite and >= 1",
            ),
            (
                text(r#"{"partitions":[{"side":[3,16],"start":0,"end":null}]}"#),
                "partition names rank 16",
            ),
            (
                text(r#"{"links":[{"src":[2],"dst":[99],"start":0,"kind":{"type":"cut"}}]}"#),
                "link fault names rank 99",
            ),
            (
                text(r#"{"stragglers":[[16,2]]}"#),
                "straggler names rank 16",
            ),
            (
                text(r#"{"pauses":[{"rank":20,"from":0,"until":1}]}"#),
                "pause names rank 20",
            ),
            // The same holes, for a plan built in memory rather than read.
            (
                built(|p| p.stragglers = vec![(RankId::new(0), f64::INFINITY)]),
                "straggler factor for 0 must be finite",
            ),
            (
                built(|p| {
                    p.pauses = vec![PauseWindow {
                        rank: RankId::new(0),
                        from: 0.0,
                        until: f64::INFINITY,
                    }]
                }),
                "pause window for 0 is malformed",
            ),
            (
                built(|p| {
                    p.crashes = vec![CrashEvent::with_restart(RankId::new(1), 0.0, f64::NAN)]
                }),
                "crash of 1 is malformed",
            ),
            (
                built(|p| {
                    p.links = vec![LinkFault {
                        src: vec![],
                        dst: vec![],
                        start: 0.0,
                        end: Some(f64::INFINITY),
                        kind: LinkFaultKind::Cut,
                    }]
                }),
                "link fault is malformed",
            ),
        ];
        for (plan, want) in table {
            let err = door(plan).expect_err(want);
            assert!(err.contains(want), "want {want:?}, got {err:?}");
        }
    }

    #[test]
    fn scientific_notation_parses() {
        let plan =
            FaultPlan::from_json(r#"{"pauses": [{"rank": 0, "from": 1e-3, "until": 2.5E-3}]}"#)
                .unwrap();
        assert_eq!(plan.pauses[0].from, 1e-3);
        assert_eq!(plan.pauses[0].until, 2.5e-3);
    }
}
