//! Chrome trace-event export (and re-import) of a [`Trace`].
//!
//! The writer emits the JSON object format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of complete (`"ph":"X"`) and instant (`"ph":"i"`)
//! events with microsecond timestamps, one event per line, `tid` = rank.
//! Output is built with deterministic string formatting only — no
//! hash-map iteration, no pointers, no wall-clock — so the same [`Trace`]
//! always serializes to the same bytes.
//!
//! [`read_chrome_trace`] reads the file back through [`crate::json`], so
//! a trace that was re-indented or had its keys reordered by another
//! tool still loads; it understands the fields this module writes.

use crate::event::Trace;
use crate::json::{self, arr, as_num, as_str, as_uint, field, get, obj, Json};

/// One exported trace event, the common currency between the writer,
/// the reader, and the cost-breakdown report.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Chrome phase: `'X'` (complete/span) or `'i'` (instant).
    pub ph: char,
    /// Thread id — the recording rank.
    pub tid: u32,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: f64,
    /// Display name (e.g. `lb:gossip`).
    pub name: String,
    /// Category (e.g. `lb`, `fault`).
    pub cat: String,
    /// `args` entries as `(key, json_value)` pairs in emission order.
    pub args: Vec<(String, String)>,
}

/// Microseconds with fixed millinanosecond (3-decimal) precision — the
/// resolution Chrome renders, and a stable format for byte-identical
/// output.
fn fmt_us(us: f64) -> String {
    format!("{us:.3}")
}

/// Quantize a microsecond value to the writer's 3-decimal precision, via
/// the format string itself so records always carry exactly what the
/// file will say (and what the reader will parse back).
fn quantize_us(us: f64) -> f64 {
    fmt_us(us).parse().expect("fixed-point format is parseable")
}

/// Lower a [`Trace`] to the records the exporter writes (metadata rows
/// excluded). Deterministic given a deterministic event order.
pub fn to_records(trace: &Trace) -> Vec<TraceRecord> {
    trace
        .events
        .iter()
        .map(|ev| TraceRecord {
            ph: if ev.dur.is_some() { 'X' } else { 'i' },
            tid: ev.rank,
            ts_us: quantize_us(ev.ts * 1e6),
            dur_us: quantize_us(ev.dur.unwrap_or(0.0) * 1e6),
            name: ev.kind.name(),
            cat: ev.kind.category().to_string(),
            args: ev
                .kind
                .args()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        })
        .collect()
}

fn push_args(out: &mut String, args: &[(String, String)]) {
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
        out.push_str(v);
    }
    out.push('}');
}

/// Serialize a [`Trace`] to a Chrome trace-event JSON string.
///
/// Layout: a `process_name` metadata row, one `thread_name` row per rank,
/// then every event in trace order, one per line.
pub fn write_chrome_trace(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"tempered\"}}",
    );
    for rank in 0..trace.num_ranks {
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
    }
    for rec in to_records(trace) {
        out.push_str(",\n{\"ph\":\"");
        out.push(rec.ph);
        out.push_str(&format!(
            "\",\"pid\":0,\"tid\":{},\"ts\":{}",
            rec.tid,
            fmt_us(rec.ts_us)
        ));
        if rec.ph == 'X' {
            out.push_str(&format!(",\"dur\":{}", fmt_us(rec.dur_us)));
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"name\":\"{}\",\"cat\":\"{}\"",
            rec.name, rec.cat
        ));
        push_args(&mut out, &rec.args);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Parse a `trace.json` produced by [`write_chrome_trace`] back into its
/// event records. Metadata (`"ph":"M"`) rows are skipped.
///
/// Returns `Err` naming the offending `traceEvents[i]` entry when the
/// text is not JSON or an event lacks a field the writer emits.
pub fn read_chrome_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let root = json::parse(text)?;
    let events = arr(
        field(obj(&root, "trace")?, "traceEvents", "trace")?,
        "traceEvents",
    )?;
    let mut records = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let what = format!("traceEvents[{i}]");
        let ev = obj(event, &what)?;
        let ph = as_str(field(ev, "ph", &what)?, "ph")?
            .chars()
            .next()
            .ok_or_else(|| format!("{what}: empty \"ph\""))?;
        if ph == 'M' {
            continue;
        }
        let num = |key: &str| as_num(field(ev, key, &what)?, key);
        let args = match get(ev, "args") {
            None => Vec::new(),
            Some(args) => obj(args, "args")?
                .iter()
                .map(|(k, v)| match v {
                    Json::Num(n) => Ok((k.clone(), n.to_string())),
                    other => Err(format!(
                        "{what}: args.{k}: expected a number, got {other:?}"
                    )),
                })
                .collect::<Result<_, _>>()?,
        };
        records.push(TraceRecord {
            ph,
            tid: as_uint(field(ev, "tid", &what)?, "tid", u32::MAX.into())? as u32,
            ts_us: num("ts")?,
            dur_us: if ph == 'X' { num("dur")? } else { 0.0 },
            name: as_str(field(ev, "name", &what)?, "name")?.to_string(),
            cat: match get(ev, "cat") {
                None => String::new(),
                Some(cat) => as_str(cat, "cat")?.to_string(),
            },
            args,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Recorder};

    fn sample_trace() -> Trace {
        let rec = Recorder::enabled(2);
        rec.span(
            0,
            0.0,
            1.5e-6,
            EventKind::LbStage {
                stage: "gossip",
                trial: 0,
                iter: 1,
            },
        );
        rec.instant(
            1,
            2.0e-6,
            EventKind::Fault {
                kind: "drop",
                to: 0,
            },
        );
        rec.span(
            1,
            3.0e-6,
            0.5e-6,
            EventKind::GossipRound {
                trial: 0,
                iter: 1,
                round: 2,
            },
        );
        rec.snapshot()
    }

    #[test]
    fn writer_is_deterministic() {
        let a = write_chrome_trace(&sample_trace());
        let b = write_chrome_trace(&sample_trace());
        assert_eq!(a, b);
        assert!(a.contains("\"name\":\"lb:gossip\""));
        assert!(a.contains("\"thread_name\""));
    }

    #[test]
    fn round_trips_through_reader() {
        let trace = sample_trace();
        let json = write_chrome_trace(&trace);
        let parsed = read_chrome_trace(&json).unwrap();
        assert_eq!(parsed, to_records(&trace));
    }

    /// The reader is a JSON reader, not a scanner of the writer's line
    /// layout: another tool may re-indent the file or reorder keys.
    #[test]
    fn reader_accepts_reformatted_and_reordered_output() {
        let trace = sample_trace();
        // No string the writer emits contains a comma or a brace.
        let pretty = write_chrome_trace(&trace)
            .replace(',', ",\n    ")
            .replace('{', "{\n  ")
            .replace('}', "\n}");
        assert_eq!(read_chrome_trace(&pretty).unwrap(), to_records(&trace));

        let reordered = r#"{"traceEvents": [
            {"args": {"trial": 0, "iter": 1}, "cat": "lb", "name": "lb:gossip",
             "dur": 1.500, "ts": 0.000, "tid": 0, "pid": 0, "ph": "X"}
        ], "displayTimeUnit": "ms"}"#;
        assert_eq!(
            read_chrome_trace(reordered).unwrap(),
            to_records(&trace)[..1]
        );
    }

    #[test]
    fn reader_rejects_garbage_event_line() {
        let bad = "{\"traceEvents\":[\n{\"ph\":\"X\",\"ts\":1.0}\n]}";
        assert!(read_chrome_trace(bad).is_err());
    }
}
