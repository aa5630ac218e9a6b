//! Phase-breakdown profiler: reconstructs per-phase timing for the
//! live-patch pipeline from span records.
//!
//! Each of the six [`PHASES`] is timed by one span the patch path
//! already emits. The four SMM stages are the paper's OS-pause
//! breakdown (§V-C, Table III), timed by the handler's stage spans:
//!
//! | phase          | span           | where it runs        | clocks    |
//! |----------------|----------------|----------------------|-----------|
//! | `attest`       | `phase.attest` | SGX session driver   | wall only |
//! | `key_exchange` | `smm.keygen`   | SMM handler          | sim+wall  |
//! | `decrypt`      | `smm.decrypt`  | SMM handler          | sim+wall  |
//! | `verify`       | `smm.verify`   | SMM handler          | sim+wall  |
//! | `apply`        | `smm.apply`    | SMM handler          | sim+wall  |
//! | `resume`       | `phase.resume` | session driver (RSM) | sim+wall  |
//!
//! A [`PhaseProfile`] aggregates those spans from any source — a live
//! [`Recorder`](crate::Recorder), a record slice, or a streamed
//! JSON-lines shard file — into one [`QuantileSketch`] of wall-clock and
//! one of simulated durations per phase. Counts, totals and maxima are
//! exact; p50/p95 are sketch estimates (the exact nearest-rank value
//! `x` and the estimate `e` satisfy `x ≤ e ≤ x·γ`, at most 2.2 % high,
//! exact for one value or all-equal samples). Sketch state depends only
//! on the multiset of samples, so two profiles built from the same spans
//! via different paths compare equal. That equality is the streaming
//! pipeline's lossless-export proof: the profile parsed back from
//! per-worker shard files must `==` the profile taken from the
//! in-memory merged recorder.

use std::fmt::Write as _;

use crate::export::fmt_ns;
use crate::record::Record;
use crate::recorder::Recorder;
use crate::shard::ShardData;
use crate::sketch::QuantileSketch;

/// The canonical pipeline phase names, in execution order.
pub const PHASES: [&str; 6] = [
    "attest",
    "key_exchange",
    "decrypt",
    "verify",
    "apply",
    "resume",
];

/// The span that times each of [`PHASES`], index for index.
const PHASE_SPANS: [&str; 6] = [
    "phase.attest",
    "smm.keygen",
    "smm.decrypt",
    "smm.verify",
    "smm.apply",
    "phase.resume",
];

/// Timing of one phase: a sketch of wall-clock durations (one sample
/// per span) and one of simulated durations (spans that carry simulated
/// time). Building one costs a bucket lookup per sample, its size is
/// bounded by the occupied buckets rather than the sample count, and
/// equality is order-independent: profiles built from the same spans
/// observed in different orders (e.g. different worker interleavings)
/// compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    wall: QuantileSketch,
    sim: QuantileSketch,
}

impl PhaseStats {
    /// Wall-clock durations, one sample per span.
    pub fn wall(&self) -> &QuantileSketch {
        &self.wall
    }

    /// Simulated durations, one sample per span carrying simulated time.
    pub fn sim(&self) -> &QuantileSketch {
        &self.sim
    }

    fn add_sample(&mut self, wall_ns: u64, sim_ns: Option<u64>) {
        self.wall.observe(wall_ns);
        if let Some(sim) = sim_ns {
            self.sim.observe(sim);
        }
    }

    fn merge_from(&mut self, other: &PhaseStats) {
        self.wall.merge_from(&other.wall);
        self.sim.merge_from(&other.sim);
    }
}

/// Per-phase timing reconstructed from the spans that time each phase.
///
/// Phases that never appeared read as absent. Equality is structural
/// and order-independent (see [`PhaseStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// One entry per [`PHASES`] name, in order.
    phases: [PhaseStats; 6],
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> PhaseProfile {
        PhaseProfile::default()
    }

    /// Build from a record slice: every span that times a phase
    /// contributes one sample; everything else is ignored.
    pub fn from_records(records: &[Record]) -> PhaseProfile {
        let mut profile = PhaseProfile::new();
        for rec in records {
            if let Record::Span(s) = rec {
                profile.observe(s.name, s.wall_dur_ns, s.sim_dur_ns());
            }
        }
        profile
    }

    /// Build from a live recorder's retained records.
    pub fn from_recorder(recorder: &Recorder) -> PhaseProfile {
        PhaseProfile::from_records(&recorder.records())
    }

    /// Build from streamed JSON-lines text (e.g. a per-worker shard
    /// file): the phase profile of [`ShardData::parse`], which decodes
    /// every line through the one shard-line decoder.
    ///
    /// # Errors
    ///
    /// Any line [`ShardData::parse`] rejects: invalid JSON, a `"v"`
    /// other than [`crate::SCHEMA_VERSION`] (format drift must be loud,
    /// not a silently empty profile), an unknown `"type"`, or a span
    /// line without a string `"name"` or an integer `"wall_dur_ns"`.
    pub fn from_json_lines(text: &str) -> Result<PhaseProfile, String> {
        ShardData::parse(text).map(|shard| shard.phases)
    }

    /// Add one sample of the span named `span`, if it times a phase.
    pub(crate) fn observe(&mut self, span: &str, wall_ns: u64, sim_ns: Option<u64>) {
        if let Some(i) = PHASE_SPANS.iter().position(|&s| s == span) {
            self.phases[i].add_sample(wall_ns, sim_ns);
        }
    }

    /// Fold another profile's samples into this one.
    pub fn merge_from(&mut self, other: &PhaseProfile) {
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge_from(theirs);
        }
    }

    /// Stats for one of [`PHASES`], if any of its spans was seen.
    pub fn get(&self, phase: &str) -> Option<&PhaseStats> {
        let i = PHASES.iter().position(|&p| p == phase)?;
        Some(&self.phases[i]).filter(|s| !s.wall.is_empty())
    }

    /// True when no phase spans were seen.
    pub fn is_empty(&self) -> bool {
        self.total_samples() == 0
    }

    /// Total samples across all phases.
    pub fn total_samples(&self) -> u64 {
        self.phases.iter().map(|s| s.wall.count()).sum()
    }

    /// Phase names present, in pipeline order.
    pub fn phase_names(&self) -> Vec<&'static str> {
        PHASES
            .into_iter()
            .filter(|p| self.get(p).is_some())
            .collect()
    }

    /// Render a plain-text phase table: count, sim p50/p95/max, wall
    /// p50/p95/max per phase, in pipeline order.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "phase", "count", "sim p50", "sim p95", "sim max", "wall p50", "wall p95", "wall max"
        );
        let _ = writeln!(out, "{}", "-".repeat(94));
        for (name, PhaseStats { wall, sim }) in PHASES.iter().zip(&self.phases) {
            if wall.is_empty() {
                continue;
            }
            let sim_ns = |v: u64| {
                if sim.is_empty() {
                    "-".to_string()
                } else {
                    fmt_ns(v)
                }
            };
            let _ = writeln!(
                out,
                "{:<14} {:>7} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
                name,
                wall.count(),
                sim_ns(sim.quantile_per_mille(500)),
                sim_ns(sim.quantile_per_mille(950)),
                sim_ns(sim.max()),
                fmt_ns(wall.quantile_per_mille(500)),
                fmt_ns(wall.quantile_per_mille(950)),
                fmt_ns(wall.max()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SpanRecord;

    /// The sketch contract for an estimate `e` of the exact
    /// nearest-rank sample `x`: `x ≤ e ≤ x·γ`, with the integer slack
    /// `tests/prop_sketch.rs` allows.
    fn assert_in_gamma_bracket(estimate: u64, exact: u64) {
        let bound = u128::from(exact)
            * (1000 + u128::from(QuantileSketch::MAX_RELATIVE_ERROR_PER_MILLE) + 1)
            / 1000
            + 1;
        assert!(
            exact <= estimate && u128::from(estimate) <= bound,
            "estimate {estimate} outside [{exact}, {bound}]"
        );
    }

    fn phase_span(name: &'static str, wall: u64, sim: Option<(u64, u64)>) -> Record {
        Record::Span(SpanRecord {
            id: 1,
            parent: None,
            name,
            thread: 0,
            wall_start_ns: 0,
            wall_dur_ns: wall,
            sim_start_ns: sim.map(|(s, _)| s),
            sim_end_ns: sim.map(|(_, e)| e),
            fields: Vec::new(),
        })
    }

    #[test]
    fn builds_from_records_and_ignores_non_phase_spans() {
        let records = vec![
            phase_span("smm.decrypt", 100, Some((0, 1_000))),
            phase_span("smm.decrypt", 300, Some((0, 3_000))),
            phase_span("phase.attest", 50, None),
            phase_span("smm.window", 999, Some((0, 9_999))),
            // Not a phase's span: smm.decrypt alone times decrypt.
            phase_span("phase.decrypt", 100, Some((0, 1_000))),
        ];
        let p = PhaseProfile::from_records(&records);
        assert_eq!(p.total_samples(), 3);
        let d = p.get("decrypt").unwrap();
        assert_eq!(d.wall().count(), 2);
        assert_in_gamma_bracket(d.sim().quantile_per_mille(500), 1_000);
        assert_eq!(d.sim().max(), 3_000);
        assert_eq!(d.wall().sum(), 400);
        let a = p.get("attest").unwrap();
        assert!(a.sim().is_empty());
        assert_eq!(a.wall().quantile_per_mille(950), 50);
        assert!(p.get("window").is_none());
    }

    #[test]
    fn json_roundtrip_equals_in_memory_profile() {
        let records = vec![
            phase_span("smm.verify", 10, Some((100, 600))),
            phase_span("smm.verify", 30, Some((700, 2_200))),
            phase_span("smm.apply", 5, Some((0, 50))),
        ];
        let direct = PhaseProfile::from_records(&records);
        let mut text = String::new();
        // Reverse order: equality must not depend on stream order.
        for rec in records.iter().rev() {
            text.push_str(&crate::export::record_json_line(rec));
            text.push('\n');
        }
        text.push_str("{\"type\":\"counter\",\"v\":1,\"name\":\"x\",\"value\":3}\n");
        let parsed = PhaseProfile::from_json_lines(&text).unwrap();
        assert_eq!(parsed, direct);
    }

    #[test]
    fn json_lines_reject_drifted_schema_and_garbage() {
        let bad_version = "{\"type\":\"span\",\"v\":999,\"name\":\"smm.apply\",\"wall_dur_ns\":1}";
        assert!(PhaseProfile::from_json_lines(bad_version)
            .unwrap_err()
            .contains("schema version"));
        assert!(PhaseProfile::from_json_lines("not json").is_err());
        let no_wall = "{\"type\":\"span\",\"v\":1,\"name\":\"smm.apply\"}";
        assert_eq!(
            PhaseProfile::from_json_lines(no_wall).unwrap_err(),
            "line 1: missing/invalid \"wall_dur_ns\""
        );
    }

    #[test]
    fn merge_is_order_independent() {
        let a = PhaseProfile::from_records(&[
            phase_span("smm.decrypt", 10, Some((0, 10))),
            phase_span("phase.resume", 7, None),
        ]);
        let b = PhaseProfile::from_records(&[phase_span("smm.decrypt", 20, Some((0, 20)))]);
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("decrypt").unwrap().wall().count(), 2);
    }

    #[test]
    fn table_lists_phases_in_pipeline_order() {
        let p = PhaseProfile::from_records(&[
            phase_span("phase.resume", 5, None),
            phase_span("smm.keygen", 5, Some((0, 5))),
            phase_span("phase.attest", 5, None),
        ]);
        assert_eq!(p.phase_names(), vec!["attest", "key_exchange", "resume"]);
        let table = p.render_table();
        let attest_at = table.find("attest").unwrap();
        let resume_at = table.find("resume").unwrap();
        assert!(attest_at < resume_at, "{table}");
    }

    #[test]
    fn percentiles_nearest_rank_over_raw_samples() {
        let mut s = PhaseStats::default();
        for v in [40, 10, 30, 20] {
            s.add_sample(v, None);
        }
        // Each percentile is a sketch estimate inside the γ bracket of
        // the exact nearest-rank sample...
        for (q, exact) in [(250, 10), (500, 20), (750, 30), (1000, 40), (10, 10)] {
            assert_in_gamma_bracket(s.wall().quantile_per_mille(q), exact);
        }
        // ...while count, total and max stay exact.
        assert_eq!(s.wall().count(), 4);
        assert_eq!(s.wall().sum(), 100);
        assert_eq!(s.wall().max(), 40);
        assert_eq!(PhaseStats::default().wall().quantile_per_mille(500), 0);
    }

    /// A profile's state is bounded by the distinct values it has seen,
    /// not by its sample count, and does not depend on arrival order:
    /// 100 000 samples over 1 000 distinct values occupy exactly the
    /// buckets those values occupy seen once each.
    #[test]
    fn profile_size_tracks_distinct_values_not_samples() {
        // 7 919 is coprime to 1 000, so i ↦ i·7 919 mod 1 000 cycles
        // through every k in 0..1 000; the values span ~20 octaves.
        let value = |i: u64| {
            let k = i * 7_919 % 1_000 + 1;
            k * k * 53
        };
        let build = |order: &mut dyn Iterator<Item = u64>| {
            let mut p = PhaseProfile::new();
            for v in order.map(value) {
                p.observe("smm.decrypt", v / 10, Some(v));
            }
            p
        };
        let many = build(&mut (0..100_000));
        let once = build(&mut (0..1_000));
        let (m, o) = (many.get("decrypt").unwrap(), once.get("decrypt").unwrap());
        assert_eq!(m.wall().count(), 100_000);
        assert_eq!(o.wall().count(), 1_000);
        assert_eq!(m.wall().bucket_len(), o.wall().bucket_len());
        assert_eq!(m.sim().bucket_len(), o.sim().bucket_len());
        assert_eq!(build(&mut (0..100_000).rev()), many);
    }
}
