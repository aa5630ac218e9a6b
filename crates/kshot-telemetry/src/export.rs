//! Exporters: JSON lines, Chrome `trace_event` (Perfetto-loadable), and
//! a plain-text summary table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::record::{json_escape, Field, Record};
use crate::schema::{one_line, push_escaped, Appender, CounterKey, EventKey, GaugeKey, SpanKey};
use crate::sketch::QuantileSketch;

/// Append `fields` as one JSON object.
fn push_fields(out: &mut String, fields: &[Field]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(out, k);
        out.push(':');
        v.append_json(out);
    }
    out.push('}');
}

/// Append one record's JSON line, and its newline, to `out`. Every line
/// carries the [`SCHEMA_VERSION`](crate::SCHEMA_VERSION) as `"v"` so
/// downstream parsers can detect format drift. This is the unit of the
/// streaming pipeline: a fleet worker renders a machine's records
/// straight into its parcel (see [`crate::Recorder::append_record_lines`]).
pub fn append_record_line(out: &mut String, rec: &Record) {
    match rec {
        Record::Span(s) => {
            use SpanKey as K;
            let mut w = Appender::<K>::open(out);
            w.u64(K::Id, s.id);
            w.u64_or_null(K::Parent, s.parent);
            w.str(K::Name, s.name);
            w.u64(K::Thread, s.thread);
            w.u64(K::WallStartNs, s.wall_start_ns);
            w.u64(K::WallDurNs, s.wall_dur_ns);
            if let Some(sim) = s.sim_start_ns {
                w.u64(K::SimStartNs, sim);
            }
            if let Some(sim) = s.sim_end_ns {
                w.u64(K::SimEndNs, sim);
            }
            if !s.fields.is_empty() {
                push_fields(w.key(K::Fields), &s.fields);
            }
            w.close();
        }
        Record::Event(e) => {
            use EventKey as K;
            let mut w = Appender::<K>::open(out);
            w.u64_or_null(K::Parent, e.parent);
            w.str(K::Name, e.name);
            w.u64(K::Thread, e.thread);
            w.u64(K::WallNs, e.wall_ns);
            if let Some(sim) = e.sim_ns {
                w.u64(K::SimNs, sim);
            }
            if !e.fields.is_empty() {
                push_fields(w.key(K::Fields), &e.fields);
            }
            w.close();
        }
    }
}

/// One record as a single JSON-lines object (no trailing newline); see
/// [`append_record_line`].
pub fn record_json_line(rec: &Record) -> String {
    one_line(|out| append_record_line(out, rec))
}

/// Append metric lines to `out`: one `counter`, `gauge`, or `sketch`
/// line per metric, each stamped with `"v"`, counters first. Counter
/// and sketch lines are *mergeable* across shards (add counters,
/// bucket-merge sketches); gauges are last-writer-wins.
pub(crate) fn append_metric_lines<'m>(
    out: &mut String,
    counters: impl IntoIterator<Item = (&'m str, u64)>,
    gauges: impl IntoIterator<Item = (&'m str, i64)>,
    sketches: impl IntoIterator<Item = (&'m str, &'m QuantileSketch)>,
) {
    for (name, value) in counters {
        let mut w = Appender::<CounterKey>::open(out);
        w.str(CounterKey::Name, name);
        w.u64(CounterKey::Value, value);
        w.close();
    }
    for (name, value) in gauges {
        let mut w = Appender::<GaugeKey>::open(out);
        w.str(GaugeKey::Name, name);
        w.i64(GaugeKey::Value, value);
        w.close();
    }
    for (name, sketch) in sketches {
        sketch.append_line(out, name);
    }
}

/// A metrics snapshot's lines, appended to `out`.
fn append_snapshot_lines(out: &mut String, metrics: &MetricsSnapshot) {
    append_metric_lines(
        out,
        metrics.counters.iter().copied(),
        metrics.gauges.iter().copied(),
        metrics.sketches.iter().map(|(name, s)| (*name, s)),
    );
}

/// A metrics snapshot as JSON lines: one `counter`, `gauge`, or
/// `sketch` line per metric, counters first, each stamped with `"v"`.
pub fn metrics_json_lines(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    append_snapshot_lines(&mut out, metrics);
    out
}

/// One JSON object per line: spans, events, then counters, gauges, and
/// sketches from the metrics snapshot. Every line is independently
/// parseable, so partial files (e.g. from a truncated run) still load.
pub fn json_lines(records: &[Record], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for rec in records {
        append_record_line(&mut out, rec);
    }
    append_snapshot_lines(&mut out, metrics);
    out
}

/// Timestamp selection for the Chrome exporter: simulated time when a
/// record carries it, wall time otherwise. Mixed traces are legal but
/// the two clocks share one axis, so instrument consistently.
fn span_ts_dur(s: &crate::record::SpanRecord) -> (u64, u64) {
    match (s.sim_start_ns, s.sim_dur_ns()) {
        (Some(start), Some(dur)) => (start, dur),
        _ => (s.wall_start_ns, s.wall_dur_ns),
    }
}

/// Chrome `trace_event` JSON: an object with a `traceEvents` array of
/// `"X"` (complete) events for spans and `"i"` (instant) events for
/// events. Loadable in Perfetto (ui.perfetto.dev) or `chrome://tracing`.
/// Timestamps are microseconds with nanosecond precision kept in the
/// fractional digits.
pub fn chrome_trace(records: &[Record]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for rec in records {
        if !first {
            out.push(',');
        }
        first = false;
        match rec {
            Record::Span(s) => {
                let (ts_ns, dur_ns) = span_ts_dur(s);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"kshot\",\"ph\":\"X\",\"ts\":{}.{:03},\
                     \"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{}",
                    json_escape(s.name),
                    ts_ns / 1_000,
                    ts_ns % 1_000,
                    dur_ns / 1_000,
                    dur_ns % 1_000,
                    s.thread,
                    s.id,
                );
                if let Some(p) = s.parent {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                for (k, v) in &s.fields {
                    out.push(',');
                    push_escaped(&mut out, k);
                    out.push(':');
                    v.append_json(&mut out);
                }
                out.push_str("}}");
            }
            Record::Event(e) => {
                let ts_ns = e.sim_ns.unwrap_or(e.wall_ns);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"cat\":\"kshot\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":",
                    json_escape(e.name),
                    ts_ns / 1_000,
                    ts_ns % 1_000,
                    e.thread,
                );
                push_fields(&mut out, &e.fields);
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    wall_total: u64,
    wall_max: u64,
    sim_total: u64,
    sim_count: u64,
}

/// Plain-text table: per-span-name aggregates (count, wall mean/max,
/// sim mean where instrumented), then events, counters, gauges, and
/// sketch quantiles.
pub fn summary(records: &[Record], metrics: &MetricsSnapshot) -> String {
    let mut spans: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    let mut events: BTreeMap<&'static str, u64> = BTreeMap::new();
    for rec in records {
        match rec {
            Record::Span(s) => {
                let agg = spans.entry(s.name).or_default();
                agg.count += 1;
                agg.wall_total += s.wall_dur_ns;
                agg.wall_max = agg.wall_max.max(s.wall_dur_ns);
                if let Some(d) = s.sim_dur_ns() {
                    agg.sim_total += d;
                    agg.sim_count += 1;
                }
            }
            Record::Event(e) => *events.entry(e.name).or_default() += 1,
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "wall mean", "wall max", "sim mean"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    for (name, agg) in &spans {
        let wall_mean = agg.wall_total / agg.count;
        let sim_mean = match agg.sim_total.checked_div(agg.sim_count) {
            Some(mean) => fmt_ns(mean),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12} {:>12} {:>12}",
            name,
            agg.count,
            fmt_ns(wall_mean),
            fmt_ns(agg.wall_max),
            sim_mean
        );
    }
    if !events.is_empty() {
        let _ = writeln!(out, "\n{:<28} {:>7}", "event", "count");
        let _ = writeln!(out, "{}", "-".repeat(36));
        for (name, count) in &events {
            let _ = writeln!(out, "{name:<28} {count:>7}");
        }
    }
    if !metrics.counters.is_empty() {
        let _ = writeln!(out, "\n{:<28} {:>12}", "counter", "value");
        let _ = writeln!(out, "{}", "-".repeat(41));
        for (name, value) in &metrics.counters {
            let _ = writeln!(out, "{name:<28} {value:>12}");
        }
    }
    if !metrics.gauges.is_empty() {
        let _ = writeln!(out, "\n{:<28} {:>12}", "gauge", "value");
        let _ = writeln!(out, "{}", "-".repeat(41));
        for (name, value) in &metrics.gauges {
            let _ = writeln!(out, "{name:<28} {value:>12}");
        }
    }
    if !metrics.sketches.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "sketch", "count", "p50", "p95", "p99", "min", "max"
        );
        let _ = writeln!(out, "{}", "-".repeat(102));
        for (name, s) in &metrics.sketches {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
                name,
                s.count(),
                fmt_ns(s.quantile_per_mille(500)),
                fmt_ns(s.quantile_per_mille(950)),
                fmt_ns(s.quantile_per_mille(990)),
                fmt_ns(s.min()),
                fmt_ns(s.max())
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EventRecord, SpanRecord, Value};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Span(SpanRecord {
                id: 1,
                parent: None,
                name: "kshot.live_patch",
                thread: 0,
                wall_start_ns: 500,
                wall_dur_ns: 9_500,
                sim_start_ns: Some(1_000),
                sim_end_ns: Some(51_000),
                fields: vec![("cve", Value::Str("CVE-2017-7184".into()))],
            }),
            Record::Event(EventRecord {
                parent: Some(1),
                name: "smm.trampoline",
                thread: 0,
                wall_ns: 700,
                sim_ns: Some(2_500),
                fields: vec![("addr", Value::U64(0xffff)), ("len", Value::U64(5))],
            }),
        ]
    }

    #[test]
    fn json_lines_roundtrippable_shapes() {
        let out = json_lines(&sample_records(), &MetricsSnapshot::default());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"span\""));
        assert!(lines[0].contains("\"sim_start_ns\":1000"));
        assert!(lines[1].contains("\"name\":\"smm.trampoline\""));
        assert!(lines[1].contains("\"addr\":65535"));
    }

    #[test]
    fn chrome_trace_prefers_sim_time() {
        let out = chrome_trace(&sample_records());
        // 1000ns sim start -> 1.000µs; 50000ns sim duration -> 50.000µs.
        assert!(out.contains("\"ts\":1.000"), "{out}");
        assert!(out.contains("\"dur\":50.000"), "{out}");
        assert!(out.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(out.ends_with("]}"));
    }

    #[test]
    fn summary_lists_each_name_once() {
        let out = summary(&sample_records(), &MetricsSnapshot::default());
        assert_eq!(out.matches("kshot.live_patch").count(), 1);
        assert!(out.contains("smm.trampoline"));
        assert!(out.contains("50.00us"), "{out}");
    }

    fn span_named(name: &'static str) -> Record {
        Record::Span(SpanRecord {
            id: 9,
            parent: None,
            name,
            thread: 0,
            wall_start_ns: 0,
            wall_dur_ns: 1,
            sim_start_ns: None,
            sim_end_ns: None,
            fields: vec![("note", Value::Str("tab\there".into()))],
        })
    }

    #[test]
    fn chrome_trace_escapes_hostile_span_names() {
        // Quotes, backslashes, and raw control characters in names and
        // string fields must come out as valid JSON escapes, never raw.
        let hostile = "bad\"name\\with\nctrl\u{1}";
        let out = chrome_trace(&[span_named(hostile)]);
        assert!(out.contains(r#"bad\"name\\with\nctrl\u0001"#), "{out}");
        assert!(out.contains(r#""note":"tab\there""#), "{out}");
        // No raw control bytes survive into the output.
        assert!(out.chars().all(|c| c >= ' ' || c == '\n'), "{out}");
    }

    #[test]
    fn json_lines_escape_hostile_names_and_stamp_schema_version() {
        let hostile = "a\"b\\c";
        let out = json_lines(&[span_named(hostile)], &MetricsSnapshot::default());
        assert!(out.contains(r#""name":"a\"b\\c""#), "{out}");
        assert!(
            out.contains(&format!("\"v\":{}", crate::SCHEMA_VERSION)),
            "{out}"
        );
    }

    #[test]
    fn sketch_metrics_export_as_schema_stamped_lines() {
        use crate::metrics::MetricsRegistry;
        let reg = MetricsRegistry::new();
        reg.observe("machine.smm_dwell_ns", 45_000);
        reg.observe("machine.smm_dwell_ns", 52_000);
        let snap = reg.snapshot();
        let out = metrics_json_lines(&snap);
        let line = out
            .lines()
            .find(|l| l.starts_with("{\"type\":\"sketch\""))
            .expect("sketch line emitted");
        assert!(line.contains("\"name\":\"machine.smm_dwell_ns\""), "{line}");
        assert!(
            line.contains(&format!("\"v\":{}", crate::SCHEMA_VERSION)),
            "{line}"
        );
        assert!(line.contains("\"count\":2"), "{line}");
        // And the summary table renders a sketch section.
        let table = summary(&[], &snap);
        assert!(table.contains("sketch"), "{table}");
        assert!(table.contains("machine.smm_dwell_ns"), "{table}");
    }

    #[test]
    fn summary_percentile_edge_cases() {
        use crate::metrics::MetricsRegistry;
        // Empty sketches cannot exist through the registry (first
        // observation creates them), so empty-quantile behaviour is
        // covered on the sketch type directly in sketch.rs. Here:
        // single-sample and all-equal sketches through the exporter.
        let reg = MetricsRegistry::new();
        reg.observe("single", 1_500);
        for _ in 0..10 {
            reg.observe("equal", 7_000);
        }
        let snap = reg.snapshot();
        let out = summary(&[], &snap);
        // A single sample is every percentile.
        let single = snap.sketch("single").unwrap();
        assert_eq!(single.quantile_per_mille(500), 1_500);
        assert_eq!(single.quantile_per_mille(950), 1_500);
        // All-equal samples collapse to that value at every percentile.
        let equal = snap.sketch("equal").unwrap();
        assert_eq!(equal.quantile_per_mille(10), 7_000);
        assert_eq!(equal.quantile_per_mille(500), 7_000);
        assert_eq!(equal.quantile_per_mille(1000), 7_000);
        // And the summary row shows the exact value in every quantile,
        // min and max column.
        let row = |name: &str| out.lines().find(|l| l.starts_with(name)).unwrap();
        assert_eq!(row("single").matches("1.50us").count(), 5, "{out}");
        assert_eq!(row("equal").matches("7.00us").count(), 5, "{out}");
    }
}
