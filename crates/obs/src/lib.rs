//! `tempered-obs`: deterministic tracing + mergeable metrics for the
//! TemperedLB runtime.
//!
//! Three pieces (see `DESIGN.md` §8 for the full design):
//!
//! 1. **Event tracing** ([`Recorder`], [`Event`], [`Trace`]) — per-rank
//!    fixed-capacity ring buffers of span/instant events. Timestamps are
//!    virtual seconds in the discrete-event simulator and monotonic
//!    seconds in the threaded executor. A disabled recorder is a `None`
//!    behind an `Option<Arc<..>>`: every record call inlines to a branch
//!    and is free to clone, so instrumentation can stay in hot paths.
//! 2. **Metrics** ([`MetricsRegistry`], [`Histogram`], [`NetworkStats`])
//!    — counters, max-gauges, and log₂-bucketed integer histograms whose
//!    merges are associative and commutative, so per-rank registries fold
//!    in any order with identical results.
//! 3. **Exporters** ([`chrome`], [`export`], [`report`]) — Chrome
//!    trace-event JSON for Perfetto, CSV/JSON metric dumps, and a Fig. 3
//!    style LB cost breakdown recomputed from trace records alone.
//!
//! Determinism contract: for a fault-free run of the simulator with a
//! fixed `(input, config, seed)`, the exported `trace.json` is
//! byte-identical across runs. The threaded executor records real time
//! and makes no such promise.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod report;
pub mod tail;

pub use chrome::{read_chrome_trace, to_records, write_chrome_trace, TraceRecord};
pub use event::{Event, EventKind, Recorder, Trace, DEFAULT_RING_CAPACITY};
pub use export::{metrics_to_csv, metrics_to_json};
pub use metrics::{Histogram, MetricsRegistry, NetworkStats, HISTOGRAM_BUCKETS};
pub use report::{cost_breakdown, BreakdownRow, CostBreakdown};
pub use tail::{TailAccumulator, TailSummary};
