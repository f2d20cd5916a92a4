//! Golden trace test: the Chrome trace exported from a tiny 4-rank
//! simulated LB run must be byte-stable — two runs with the same
//! (input, config, seed) produce *identical* `trace.json` bytes, and the
//! export round-trips through the trace reader into the same records.
//!
//! This is the determinism contract of the observability layer: virtual
//! time stamps, ring-buffer ordering, metric maps, and the JSON writer
//! are all deterministic, so a trace diff is a behavior diff.

use tempered_core::distribution::Distribution;
use tempered_core::rng::RngFactory;
use tempered_obs::{cost_breakdown, read_chrome_trace, to_records, write_chrome_trace, Recorder};
use tempered_runtime::lb::LbProtocolConfig;
use tempered_runtime::sim::NetworkModel;
use tempered_runtime::{run_distributed_lb_traced, FaultPlan};

const SEED: u64 = 77;

fn four_rank_input() -> Distribution {
    Distribution::from_loads(vec![
        vec![3.0, 2.0, 1.5, 1.0, 0.5],
        vec![0.25, 0.25],
        vec![],
        vec![],
    ])
}

fn cfg() -> LbProtocolConfig {
    LbProtocolConfig {
        trials: 1,
        iters: 2,
        fanout: 2,
        rounds: 3,
        ..Default::default()
    }
}

/// One traced fault-free run; returns the exported trace JSON.
fn traced_run_json() -> String {
    let recorder = Recorder::enabled(4);
    let out = run_distributed_lb_traced(
        &four_rank_input(),
        cfg(),
        NetworkModel::default(),
        &RngFactory::new(SEED),
        FaultPlan::none(),
        recorder.clone(),
    );
    assert_eq!(out.degraded_ranks, 0, "fault-free run must not degrade");
    let trace = recorder.snapshot();
    assert_eq!(trace.dropped_events, 0, "tiny run must fit the ring");
    write_chrome_trace(&trace)
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_run_json();
    let b = traced_run_json();
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

#[test]
fn different_seeds_give_different_traces() {
    let a = traced_run_json();
    let recorder = Recorder::enabled(4);
    run_distributed_lb_traced(
        &four_rank_input(),
        cfg(),
        NetworkModel::default(),
        &RngFactory::new(SEED + 1),
        FaultPlan::none(),
        recorder.clone(),
    );
    let b = write_chrome_trace(&recorder.snapshot());
    assert_ne!(a, b, "the trace must reflect the run, not just its shape");
}

#[test]
fn trace_round_trips_through_the_reader() {
    let recorder = Recorder::enabled(4);
    run_distributed_lb_traced(
        &four_rank_input(),
        cfg(),
        NetworkModel::default(),
        &RngFactory::new(SEED),
        FaultPlan::none(),
        recorder.clone(),
    );
    let trace = recorder.snapshot();
    let json = write_chrome_trace(&trace);
    let parsed = read_chrome_trace(&json).expect("our own trace must parse");
    assert_eq!(parsed, to_records(&trace), "reader must invert the writer");
}

#[test]
fn trace_contains_the_protocol_stages() {
    let json = traced_run_json();
    let records = read_chrome_trace(&json).expect("parse");
    let b = cost_breakdown(&records);
    let groups: Vec<&str> = b.rows.iter().map(|r| r.group.as_str()).collect();
    for expected in [
        "lb:setup",
        "gossip_rounds",
        "lb:proposals",
        "lb:evaluate",
        "lb:commit",
    ] {
        assert!(
            groups.contains(&expected),
            "breakdown missing {expected}: {groups:?}"
        );
    }
    assert!(b.lb_total_s() > 0.0);
    assert!(b
        .instants
        .iter()
        .any(|(g, n)| g == "epoch_terminated" && *n > 0));
    assert_eq!(b.num_ranks, 4);
}
