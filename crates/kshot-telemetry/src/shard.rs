//! Shard re-aggregation: read streamed JSON-lines files back into
//! mergeable aggregates.
//!
//! A fleet campaign streams each worker's telemetry to its own
//! `worker-<N>.jsonl` (see [`crate::StreamSink`]). A [`ShardData`]
//! parses one such file — validating the per-line schema version — and
//! accumulates:
//!
//! - a [`PhaseProfile`] from `phase.*` spans,
//! - counter totals (adding across repeated lines, e.g. one metrics
//!   block per machine),
//! - gauges (last writer wins, matching the registry semantics),
//! - quantile-sketch totals ([`QuantileSketch::merge_from`], the same
//!   arithmetic the live registry merge uses — merge-order-independent
//!   by construction),
//! - every other typed object (e.g. a fleet's `"type":"machine"`
//!   outcome lines) verbatim in [`ShardData::other`], so higher layers
//!   can extend the shard format without this crate knowing about it.
//!
//! Because the per-line arithmetic is identical to the in-memory merge
//! path, parsing all shards and [`merging`](ShardData::merge_from) them
//! yields totals equal to the single merged recorder's — the lossless
//! round-trip the observe report asserts. For fleet-scale aggregation,
//! [`ShardData::merge_tree`] folds per-worker partial aggregates
//! hierarchically (pairwise reduction) with results identical to a
//! sequential left fold.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::merkle::{self, DigestTree, FrontierNode};
use crate::metrics::MetricsSnapshot;
use crate::phase::PhaseProfile;
use crate::sketch::QuantileSketch;

/// Why a shard read failed. [`ShardData::tail_file`] distinguishes
/// truncation/rotation from plain I/O and parse failures so a live
/// monitor can halt loudly on the one case where resuming would
/// misparse: the file shrank below the resume offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Opening, reading, or seeking the shard file failed.
    Io { path: PathBuf, error: String },
    /// The file is shorter than the resume offset — it was truncated or
    /// rotated under the tailer, so the saved offset no longer names a
    /// record boundary and resuming would read garbage.
    Truncated {
        path: PathBuf,
        offset: u64,
        len: u64,
    },
    /// A committed line failed to parse (malformed JSON, schema drift,
    /// or invalid UTF-8).
    Parse { path: PathBuf, error: String },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            ShardError::Truncated { path, offset, len } => write!(
                f,
                "{}: tail offset {offset} beyond file length {len} (truncated or rotated?)",
                path.display()
            ),
            ShardError::Parse { path, error } => write!(f, "{}: {error}", path.display()),
        }
    }
}

impl std::error::Error for ShardError {}

/// One worker's Merkle digest roll-up, parsed back from a
/// `{"type":"rollup",...}` shard line. Because the line carries the
/// tree's O(log n) *frontier* — not just the bagged root, which is not
/// mergeable — an offline reader can re-merge adjacent worker roll-ups
/// into the campaign root without any per-machine digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRollup {
    /// First machine index the worker's contiguous range covers.
    pub start: u64,
    /// Machines in the range.
    pub machines: u64,
    /// The worker-range Merkle root (also recomputable from `tree`).
    pub root: merkle::Digest,
    /// The reconstructed accumulator, ready for [`DigestTree::merge`].
    pub tree: DigestTree,
}

/// Aggregates parsed back from one or more JSON-lines shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardData {
    /// Counter totals, summed across all parsed lines (saturating).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, last writer wins.
    pub gauges: BTreeMap<String, i64>,
    /// Quantile-sketch totals, merged across all parsed lines.
    pub sketches: BTreeMap<String, QuantileSketch>,
    /// Phase profile from `phase.*` span lines.
    pub phases: PhaseProfile,
    /// Span lines seen (phase or otherwise).
    pub spans: u64,
    /// Event lines seen.
    pub events: u64,
    /// Objects of any other `"type"` (e.g. fleet `machine` outcome
    /// lines), in stream order.
    pub other: Vec<Value>,
}

pub(crate) fn field_u64(v: &Value, key: &str, lineno: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {lineno}: missing/invalid {key:?}"))
}

pub(crate) fn field_str<'a>(v: &'a Value, key: &str, lineno: usize) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {lineno}: missing/invalid {key:?}"))
}

/// Reject a line whose `"v"` is not [`crate::SCHEMA_VERSION`].
pub(crate) fn check_schema_version(v: &Value, lineno: usize) -> Result<(), String> {
    let ver = v.get("v").and_then(Value::as_u64);
    if ver == Some(u64::from(crate::SCHEMA_VERSION)) {
        Ok(())
    } else {
        Err(format!(
            "line {lineno}: schema version {ver:?}, expected {}",
            crate::SCHEMA_VERSION
        ))
    }
}

impl ShardData {
    /// An empty aggregate.
    pub fn new() -> ShardData {
        ShardData::default()
    }

    /// Parse one shard's JSON-lines text, folding every line into this
    /// aggregate. Call repeatedly to fold several shards into one, or
    /// parse each shard separately and [`merge_from`](Self::merge_from).
    ///
    /// # Errors
    ///
    /// Any line that is not a JSON object, lacks a `"type"`, or carries
    /// a `"v"` different from [`crate::SCHEMA_VERSION`]. Format drift
    /// must fail loudly — a silently-empty aggregate would make the
    /// equivalence gate vacuous.
    pub fn parse_into(&mut self, text: &str) -> Result<(), String> {
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            check_schema_version(&v, lineno)?;
            match field_str(&v, "type", lineno)? {
                "span" => {
                    self.spans += 1;
                    self.phases.add_span_line(&v, lineno)?;
                }
                "event" => self.events += 1,
                "counter" => {
                    let name = field_str(&v, "name", lineno)?;
                    let value = field_u64(&v, "value", lineno)?;
                    let slot = self.counters.entry(name.to_string()).or_insert(0);
                    *slot = slot.saturating_add(value);
                }
                "gauge" => {
                    let name = field_str(&v, "name", lineno)?;
                    let value = v
                        .get("value")
                        .and_then(Value::as_i64)
                        .ok_or_else(|| format!("line {lineno}: missing/invalid \"value\""))?;
                    self.gauges.insert(name.to_string(), value);
                }
                "sketch" => {
                    let name = field_str(&v, "name", lineno)?;
                    let sketch = QuantileSketch::from_json_value(&v, lineno)?;
                    self.sketches
                        .entry(name.to_string())
                        .or_default()
                        .merge_from(&sketch);
                }
                _ => self.other.push(v),
            }
        }
        Ok(())
    }

    /// Parse a shard from text into a fresh aggregate.
    pub fn parse(text: &str) -> Result<ShardData, String> {
        let mut shard = ShardData::new();
        shard.parse_into(text)?;
        Ok(shard)
    }

    /// Read and parse one shard file.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file, or any parse error (prefixed with
    /// the path).
    pub fn parse_file(path: impl AsRef<Path>) -> Result<ShardData, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ShardData::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Incrementally fold the *complete* lines of `text` into this
    /// aggregate, returning how many bytes were consumed.
    ///
    /// Only lines terminated by `\n` are parsed; a torn final line (a
    /// record the writer is still appending) is left unconsumed, so the
    /// caller re-reads it — whole — on the next call. This is the
    /// building block for [`tail_file`](Self::tail_file).
    ///
    /// # Errors
    ///
    /// Any *complete* line that fails to parse (malformed JSON, missing
    /// `"type"`, schema drift) — torn-line tolerance never excuses a
    /// corrupt committed line.
    pub fn tail_text(&mut self, text: &str) -> Result<usize, String> {
        let complete = match text.rfind('\n') {
            Some(i) => i + 1,
            None => 0,
        };
        self.parse_into(&text[..complete])?;
        Ok(complete)
    }

    /// Resume parsing a shard file from byte `offset`, tolerating a
    /// torn final line, and return the new offset to resume from next
    /// time.
    ///
    /// This is the live-tailing primitive: an operator dashboard calls
    /// it in a loop while a campaign is still streaming, folding each
    /// new batch of complete lines into a running aggregate. The final
    /// line is only consumed once its `\n` lands, so a record caught
    /// mid-write (even mid-UTF-8-sequence) is skipped this round and
    /// parsed whole on the next. When nothing new and complete has
    /// appeared, the returned offset equals the one passed in.
    ///
    /// # Errors
    ///
    /// [`ShardError::Io`] on I/O failures, [`ShardError::Truncated`]
    /// when `offset` is beyond the current file length (the file was
    /// truncated or rotated under the tailer — resuming would misparse,
    /// so it fails loudly), [`ShardError::Parse`] for invalid UTF-8 in
    /// *committed* lines or any parse error from the committed lines.
    pub fn tail_file(&mut self, path: impl AsRef<Path>, offset: u64) -> Result<u64, ShardError> {
        use std::io::{Read, Seek, SeekFrom};
        let path = path.as_ref();
        let io = |e: std::io::Error| ShardError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        };
        let mut file = std::fs::File::open(path).map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        if offset > len {
            return Err(ShardError::Truncated {
                path: path.to_path_buf(),
                offset,
                len,
            });
        }
        file.seek(SeekFrom::Start(offset)).map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let parse = |e: String| ShardError::Parse {
            path: path.to_path_buf(),
            error: e,
        };
        let text = std::str::from_utf8(&bytes[..complete])
            .map_err(|e| parse(format!("invalid UTF-8 in committed lines: {e}")))?;
        self.parse_into(text).map_err(parse)?;
        Ok(offset + complete as u64)
    }

    /// Fold another aggregate into this one with the registry-merge
    /// semantics: counters add, gauges last-writer-wins, sketches and
    /// phases merge bucket-wise, `other` lines append.
    pub fn merge_from(&mut self, other: &ShardData) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, s) in &other.sketches {
            self.sketches.entry(name.clone()).or_default().merge_from(s);
        }
        self.phases.merge_from(&other.phases);
        self.spans += other.spans;
        self.events += other.events;
        self.other.extend(other.other.iter().cloned());
    }

    /// Hierarchically fold per-worker partial aggregates into one: a
    /// pairwise tree reduction (`⌈n/2⌉` aggregates per round) instead of
    /// a left-to-right fold over every line. Adjacent shards are merged
    /// each round, which preserves shard order for the order-*dependent*
    /// pieces (gauge last-writer-wins, `other` line order), so the
    /// result equals the sequential `merge_from` fold over `shards` in
    /// the given order — while the merge *depth* drops from O(n) to
    /// O(log n), the shape the million-machine roll-up needs.
    pub fn merge_tree(shards: Vec<ShardData>) -> ShardData {
        let mut level = shards;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut iter = level.into_iter();
            while let Some(mut left) = iter.next() {
                if let Some(right) = iter.next() {
                    left.merge_from(&right);
                }
                next.push(left);
            }
            level = next;
        }
        level.into_iter().next().unwrap_or_default()
    }

    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Quantile-sketch total by name.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// Objects of the given non-telemetry `"type"` (e.g. `"machine"`).
    pub fn other_of_type<'a>(&'a self, ty: &'a str) -> impl Iterator<Item = &'a Value> {
        self.other
            .iter()
            .filter(move |v| v.get("type").and_then(Value::as_str) == Some(ty))
    }

    /// Parse every `"rollup"` line into a typed [`DigestRollup`], in
    /// stream order. Each frontier is validated to tile its declared
    /// range and to reproduce the line's stated root, so a corrupt
    /// roll-up fails here rather than producing a silently-wrong merged
    /// campaign root.
    ///
    /// # Errors
    ///
    /// A description of the first malformed roll-up line.
    pub fn digest_rollups(&self) -> Result<Vec<DigestRollup>, String> {
        let mut out = Vec::new();
        for v in self.other_of_type("rollup") {
            let start = v
                .get("start")
                .and_then(Value::as_u64)
                .ok_or("rollup: missing/invalid \"start\"")?;
            let machines = v
                .get("machines")
                .and_then(Value::as_u64)
                .ok_or("rollup: missing/invalid \"machines\"")?;
            let root = v
                .get("root")
                .and_then(Value::as_str)
                .and_then(merkle::digest_from_hex)
                .ok_or("rollup: missing/invalid \"root\"")?;
            let nodes = match v.get("frontier") {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|item| match item {
                        Value::Array(parts) if parts.len() == 3 => {
                            let level = parts[0]
                                .as_u64()
                                .filter(|&l| l <= 63)
                                .ok_or("rollup: invalid frontier level")?;
                            let index =
                                parts[1].as_u64().ok_or("rollup: invalid frontier index")?;
                            let hash = parts[2]
                                .as_str()
                                .and_then(merkle::digest_from_hex)
                                .ok_or("rollup: invalid frontier hash")?;
                            Ok(FrontierNode {
                                level: level as u32,
                                index,
                                hash,
                            })
                        }
                        _ => Err("rollup: frontier node is not [level,index,hash]".to_string()),
                    })
                    .collect::<Result<Vec<FrontierNode>, String>>()?,
                _ => return Err("rollup: missing/invalid \"frontier\"".to_string()),
            };
            let tree = DigestTree::from_frontier(start, machines, nodes)
                .map_err(|e| format!("rollup: {e}"))?;
            if tree.root() != root {
                return Err(format!(
                    "rollup: stated root does not match its frontier (machines {start}..{})",
                    start + machines
                ));
            }
            out.push(DigestRollup {
                start,
                machines,
                root,
                tree,
            });
        }
        Ok(out)
    }

    /// Check this aggregate's metric totals against an in-memory
    /// snapshot, field by field. `Ok(())` means every counter, gauge,
    /// and sketch matches exactly in both directions — the lossless
    /// streaming proof for metrics.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch found.
    pub fn assert_metrics_match(&self, snap: &MetricsSnapshot) -> Result<(), String> {
        for (name, v) in &snap.counters {
            if self.counter(name) != *v {
                return Err(format!(
                    "counter {name:?}: shards={} in-memory={v}",
                    self.counter(name)
                ));
            }
        }
        if self.counters.len() != snap.counters.len() {
            let extra: Vec<&String> = self
                .counters
                .keys()
                .filter(|k| !snap.counters.iter().any(|(n, _)| *n == k.as_str()))
                .collect();
            return Err(format!("counters only in shards: {extra:?}"));
        }
        for (name, v) in &snap.gauges {
            if self.gauges.get(*name) != Some(v) {
                return Err(format!(
                    "gauge {name:?}: shards={:?} in-memory={v}",
                    self.gauges.get(*name)
                ));
            }
        }
        if self.gauges.len() != snap.gauges.len() {
            return Err("gauge present only in shards".to_string());
        }
        for (name, s) in &snap.sketches {
            match self.sketches.get(*name) {
                Some(mine) if mine == s => {}
                Some(mine) => {
                    return Err(format!("sketch {name:?}: shards={mine:?} in-memory={s:?}"))
                }
                None => return Err(format!("sketch {name:?} missing from shards")),
            }
        }
        if self.sketches.len() != snap.sketches.len() {
            return Err("sketch present only in shards".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::metrics_json_lines;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn parses_metric_lines_and_sums_across_blocks() {
        // Two machines' metrics blocks into one shard: counters add,
        // sketches bucket-merge, exactly like a registry merge.
        let m1 = MetricsRegistry::new();
        m1.counter_add("fleet.machines_patched", 1);
        m1.observe("smm.dwell", 45_000);
        let m2 = MetricsRegistry::new();
        m2.counter_add("fleet.machines_patched", 1);
        m2.observe("smm.dwell", 47_000);
        let text = format!(
            "{}{}",
            metrics_json_lines(&m1.snapshot()),
            metrics_json_lines(&m2.snapshot())
        );
        let shard = ShardData::parse(&text).unwrap();
        assert_eq!(shard.counter("fleet.machines_patched"), 2);
        let s = shard.sketch("smm.dwell").unwrap();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 92_000);
        assert_eq!(s.min(), 45_000);
        assert_eq!(s.max(), 47_000);

        // And the merged in-memory registry agrees.
        let merged = MetricsRegistry::new();
        merged.merge_from(&m1);
        merged.merge_from(&m2);
        shard.assert_metrics_match(&merged.snapshot()).unwrap();
    }

    #[test]
    fn full_recorder_roundtrip_matches_in_memory() {
        let rec = crate::Recorder::new();
        crate::with_recorder(rec.clone(), || {
            let span = crate::span_at("phase.decrypt", 1_000);
            span.end_at(23_000);
            crate::event("machine.smi");
            crate::counter("kshot.patches", 1);
            crate::observe("kshot.latency", 5_000);
        });
        let text = rec.export_json_lines();
        let shard = ShardData::parse(&text).unwrap();
        assert_eq!(shard.spans, 1);
        assert_eq!(shard.events, 1);
        assert_eq!(shard.counter("kshot.patches"), 1);
        shard.assert_metrics_match(&rec.metrics_snapshot()).unwrap();
        let profile = crate::PhaseProfile::from_recorder(&rec);
        assert_eq!(shard.phases, profile);
        assert_eq!(shard.phases.get("decrypt").unwrap().sim().max(), 22_000);
        let latency = shard.sketch("kshot.latency").unwrap();
        assert_eq!((latency.count(), latency.sum()), (1, 5_000));
    }

    #[test]
    fn preserves_unknown_typed_lines_for_higher_layers() {
        let text = "{\"type\":\"machine\",\"v\":1,\"machine\":3,\"patched\":true}\n\
                    {\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1}\n";
        let shard = ShardData::parse(text).unwrap();
        assert_eq!(shard.other.len(), 1);
        let m: Vec<_> = shard.other_of_type("machine").collect();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].get("machine").and_then(Value::as_u64), Some(3));
        assert_eq!(shard.other_of_type("nothing").count(), 0);
    }

    #[test]
    fn rejects_version_drift_and_malformed_lines() {
        let drift = "{\"type\":\"counter\",\"v\":2,\"name\":\"c\",\"value\":1}";
        assert!(ShardData::parse(drift)
            .unwrap_err()
            .contains("schema version"));
        assert!(ShardData::parse("{\"no\":\"type\"}").is_err());
        assert!(ShardData::parse("garbage").is_err());
        let bad_shape = "{\"type\":\"sketch\",\"v\":1,\"name\":\"s\",\"count\":1,\
                         \"sum\":1,\"zeros\":0,\"min\":1,\"max\":1,\"idx\":[1,2],\"counts\":[1]}";
        assert!(ShardData::parse(bad_shape)
            .unwrap_err()
            .contains("bucket shape"));
        // A non-empty sketch with min > max (its first quantile query
        // would panic in `clamp`), ahead of the machine line that would
        // carry it into the health monitor: a parse error naming the
        // line.
        let inverted = "{\"type\":\"sketch\",\"v\":1,\"name\":\"machine.smm_dwell_ns\",\
                        \"count\":1,\"sum\":1,\"zeros\":0,\"min\":100,\"max\":50,\
                        \"idx\":[200],\"counts\":[1]}\n\
                        {\"type\":\"machine\",\"v\":1,\"machine\":0,\"ok\":true}\n";
        assert_eq!(
            ShardData::parse(inverted).unwrap_err(),
            "line 1: sketch min 100 > max 50"
        );
    }

    #[test]
    fn merge_from_equals_parse_into_same_aggregate() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 5);
        reg.observe("h", 100);
        let block = metrics_json_lines(&reg.snapshot());

        let mut folded = ShardData::new();
        folded.parse_into(&block).unwrap();
        folded.parse_into(&block).unwrap();

        let one = ShardData::parse(&block).unwrap();
        let mut merged = one.clone();
        merged.merge_from(&one);

        assert_eq!(folded, merged);
        assert_eq!(merged.counter("c"), 10);
    }

    #[test]
    fn tail_text_leaves_torn_final_line_unconsumed() {
        let mut shard = ShardData::new();
        let text = "{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1}\n\
                    {\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"va";
        let consumed = shard.tail_text(text).unwrap();
        assert_eq!(consumed, text.rfind('\n').unwrap() + 1);
        assert_eq!(shard.counter("c"), 1, "only the complete line parsed");
        // No newline at all: nothing consumed, nothing parsed.
        let mut empty = ShardData::new();
        assert_eq!(empty.tail_text("{\"type\":\"coun").unwrap(), 0);
        assert_eq!(empty, ShardData::new());
        // A *committed* bad line still fails loudly.
        assert!(ShardData::new().tail_text("garbage\n").is_err());
    }

    /// The live-tailing scenario: a writer appends a block, is caught
    /// mid-record, then finishes the record and appends more. Tailing
    /// across those snapshots must converge to exactly the full-file
    /// parse, with the torn record parsed once (whole), never twice.
    #[test]
    fn tail_file_resumes_mid_record_and_matches_full_parse() {
        use std::io::Write;
        let reg1 = MetricsRegistry::new();
        reg1.counter_add("tail.machines", 1);
        reg1.observe("tail.latency", 40_000);
        let block1 = metrics_json_lines(&reg1.snapshot());
        let reg2 = MetricsRegistry::new();
        reg2.counter_add("tail.machines", 1);
        reg2.observe("tail.latency", 44_000);
        let block2 = metrics_json_lines(&reg2.snapshot());

        let dir = std::env::temp_dir().join(format!("kshot-tail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("worker-0.jsonl");

        // First snapshot: all of block1 plus a torn prefix of block2's
        // first record (cut mid-line, no newline).
        let torn = &block2[..block2.find('\n').unwrap() / 2];
        std::fs::write(&path, format!("{block1}{torn}")).unwrap();

        let mut tail = ShardData::new();
        let off1 = tail.tail_file(&path, 0).unwrap();
        assert_eq!(off1, block1.len() as u64, "torn record not consumed");
        assert_eq!(tail.counter("tail.machines"), 1);

        // Re-tailing with no new complete data is a no-op.
        let again = tail.clone();
        assert_eq!(tail.tail_file(&path, off1).unwrap(), off1);
        assert_eq!(tail, again);

        // Writer finishes the record and appends the rest of block2.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&block2.as_bytes()[torn.len()..]).unwrap();
        drop(f);

        let off2 = tail.tail_file(&path, off1).unwrap();
        assert_eq!(off2, (block1.len() + block2.len()) as u64);
        assert_eq!(tail.counter("tail.machines"), 2);
        let s = tail.sketch("tail.latency").unwrap();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum(), 84_000);
        assert_eq!(s.min(), 40_000);
        assert_eq!(s.max(), 44_000);

        // The incremental aggregate equals the one-shot full parse.
        assert_eq!(tail, ShardData::parse_file(&path).unwrap());

        // An offset past EOF (rotation/truncation) fails loudly.
        let err = ShardData::new().tail_file(&path, off2 + 1).unwrap_err();
        assert!(err.to_string().contains("beyond file length"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncation guard: a tailer resumes from a saved offset, but the
    /// file was rotated (recreated shorter) in between. The tail must
    /// return a typed [`ShardError::Truncated`] — never silently read
    /// from a stale offset into the new file's bytes.
    #[test]
    fn tail_file_flags_truncation_under_a_live_tailer() {
        let reg = MetricsRegistry::new();
        reg.counter_add("rot.machines", 1);
        let block = metrics_json_lines(&reg.snapshot());

        let dir = std::env::temp_dir().join(format!("kshot-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("worker-0.jsonl");
        std::fs::write(&path, format!("{block}{block}{block}")).unwrap();

        let mut tail = ShardData::new();
        let off = tail.tail_file(&path, 0).unwrap();
        assert_eq!(off, 3 * block.len() as u64);

        // Rotation: the writer recreates the file with fresh content
        // shorter than the tailer's resume offset.
        std::fs::write(&path, &block).unwrap();
        let before = tail.clone();
        let err = tail.tail_file(&path, off).unwrap_err();
        match &err {
            ShardError::Truncated {
                path: p,
                offset,
                len,
            } => {
                assert_eq!(p, &path);
                assert_eq!(*offset, off);
                assert_eq!(*len, block.len() as u64);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // The error is loud and self-describing...
        assert!(err.to_string().contains("truncated or rotated"), "{err}");
        // ...and the aggregate is untouched: no garbage was folded in.
        assert_eq!(tail, before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Sketch lines round-trip through a shard and merge across blocks
    /// exactly like the in-memory registry merge.
    #[test]
    fn parses_and_merges_sketch_lines() {
        let m1 = MetricsRegistry::new();
        m1.observe("machine.smm_dwell_ns", 45_000);
        m1.observe("machine.smm_dwell_ns", 61_000);
        let m2 = MetricsRegistry::new();
        m2.observe("machine.smm_dwell_ns", 47_000);
        let text = format!(
            "{}{}",
            metrics_json_lines(&m1.snapshot()),
            metrics_json_lines(&m2.snapshot())
        );
        let shard = ShardData::parse(&text).unwrap();
        let s = shard.sketch("machine.smm_dwell_ns").unwrap();
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 153_000);

        let merged = MetricsRegistry::new();
        merged.merge_from(&m1);
        merged.merge_from(&m2);
        shard.assert_metrics_match(&merged.snapshot()).unwrap();

        // A sketch mismatch (or absence) is reported specifically.
        let drifted = MetricsRegistry::new();
        drifted.observe("machine.smm_dwell_ns", 1);
        let err = shard.assert_metrics_match(&drifted.snapshot()).unwrap_err();
        assert!(err.contains("sketch"), "{err}");
    }

    /// Tree-merging per-worker aggregates equals the sequential fold —
    /// including the order-dependent pieces (gauges, `other` order).
    #[test]
    fn merge_tree_equals_sequential_fold() {
        let mut shards = Vec::new();
        for w in 0..5u64 {
            let reg = MetricsRegistry::new();
            reg.counter_add("t.machines", w + 1);
            reg.gauge_set("t.last_worker", w as i64);
            reg.observe("t.lat", 10_000 * (w + 1));
            reg.observe("t.dwell", 40_000 + w);
            let mut text = metrics_json_lines(&reg.snapshot());
            text.push_str(&format!(
                "{{\"type\":\"machine\",\"v\":1,\"machine\":{w},\"ok\":true}}\n"
            ));
            shards.push(ShardData::parse(&text).unwrap());
        }

        let mut sequential = ShardData::new();
        for s in &shards {
            sequential.merge_from(s);
        }
        let tree = ShardData::merge_tree(shards);
        assert_eq!(tree, sequential);
        assert_eq!(tree.counter("t.machines"), 1 + 2 + 3 + 4 + 5);
        assert_eq!(tree.gauges.get("t.last_worker"), Some(&4));
        let order: Vec<u64> = tree
            .other_of_type("machine")
            .map(|m| m.get("machine").and_then(Value::as_u64).unwrap())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "shard order preserved");
        // Degenerate shapes.
        assert_eq!(ShardData::merge_tree(Vec::new()), ShardData::new());
        let one = sequential.clone();
        assert_eq!(ShardData::merge_tree(vec![one.clone()]), one);
    }

    /// Worker roll-up lines reconstruct per-worker trees whose merge
    /// equals the tree built over all digests sequentially — the
    /// offline half of the million-machine digest proof.
    #[test]
    fn digest_rollups_reconstruct_and_merge_to_the_campaign_root() {
        use crate::merkle::digest_hex;
        let digests: Vec<[u8; 32]> = (0..23u64)
            .map(|i| {
                let mut d = [0u8; 32];
                d[..8].copy_from_slice(&i.to_le_bytes());
                d
            })
            .collect();
        let reference = DigestTree::from_leaves(&digests);
        // Two workers over contiguous ranges [0,10) and [10,23).
        let mut lines = String::new();
        for (start, end) in [(0usize, 10usize), (10, 23)] {
            let mut tree = DigestTree::starting_at(start as u64);
            digests[start..end].iter().for_each(|d| tree.append(*d));
            let frontier: Vec<String> = tree
                .frontier()
                .iter()
                .map(|n| format!("[{},{},\"{}\"]", n.level, n.index, digest_hex(&n.hash)))
                .collect();
            lines.push_str(&format!(
                "{{\"type\":\"rollup\",\"v\":1,\"start\":{},\"machines\":{},\"root\":\"{}\",\"frontier\":[{}]}}\n",
                start,
                end - start,
                digest_hex(&tree.root()),
                frontier.join(",")
            ));
        }
        let shard = ShardData::parse(&lines).unwrap();
        let rollups = shard.digest_rollups().unwrap();
        assert_eq!(rollups.len(), 2);
        let mut merged = rollups[0].tree.clone();
        merged.merge(&rollups[1].tree).unwrap();
        assert_eq!(merged.root(), reference.root());
        assert_eq!(rollups[0].root, rollups[0].tree.root());

        // A corrupted stated root fails loudly, not silently.
        let mut tampered = lines.clone();
        let first_root_at = tampered.find("\"root\":\"").unwrap() + 8;
        let replacement = if &tampered[first_root_at..first_root_at + 1] == "0" {
            "1"
        } else {
            "0"
        };
        tampered.replace_range(first_root_at..first_root_at + 1, replacement);
        let err = ShardData::parse(&tampered)
            .unwrap()
            .digest_rollups()
            .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn mismatch_reports_are_specific() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", 5);
        let shard = ShardData::parse(&metrics_json_lines(&reg.snapshot())).unwrap();
        let other = MetricsRegistry::new();
        other.counter_add("c", 6);
        let err = shard.assert_metrics_match(&other.snapshot()).unwrap_err();
        assert!(err.contains("counter \"c\""), "{err}");
    }
}
