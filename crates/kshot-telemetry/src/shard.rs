//! Shard lines: the one typed decoder for streamed JSON-lines shards,
//! and their re-aggregation into mergeable aggregates.
//!
//! A fleet campaign streams each worker's telemetry to its own
//! `worker-<N>.jsonl` (see [`crate::StreamSink`]). [`ShardLine::decode`]
//! is the only reader of a line's fields: it parses the line once into
//! a record, a metric, or one of the fleet's own lines — a machine's
//! outcome ([`MachineLine`]), an SMI flight record ([`SmiLine`]), a
//! block's Merkle roll-up ([`DigestRollup`]) — whose writers live here
//! too. Schema drift, an unknown `"type"`, a missing or ill-typed field
//! and a roll-up whose frontier misses its stated root are typed errors:
//! the lines come from machines a monitor must assume compromised.
//!
//! A [`ShardData`] folds decoded lines into:
//!
//! - a [`PhaseProfile`] from the spans that time each phase,
//! - counter totals (adding across repeated lines, e.g. one metrics
//!   block per machine),
//! - gauges (last writer wins, matching the registry semantics),
//! - quantile-sketch totals ([`QuantileSketch::merge_from`], the same
//!   arithmetic the live registry merge uses — merge-order-independent
//!   by construction),
//! - the typed machine, smi and roll-up lines, in stream order.
//!
//! Because the per-line arithmetic is identical to the in-memory merge
//! path, parsing all shards and [`merging`](ShardData::merge_from) them
//! yields totals equal to the single merged recorder's — the lossless
//! round-trip the observe report asserts.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::merkle::{self, DigestTree, FrontierNode};
use crate::metrics::MetricsSnapshot;
use crate::phase::PhaseProfile;
use crate::record::json_escape;
use crate::sketch::QuantileSketch;
use crate::SCHEMA_VERSION;

/// Why a shard read failed. The live tail ([`crate::HealthMonitor::poll`])
/// distinguishes truncation/rotation from plain I/O and parse failures
/// so the monitor can halt loudly on the one case where resuming would
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
    /// A committed line failed to decode (longer than
    /// [`MAX_LINE_BYTES`], malformed JSON, schema drift, an unknown
    /// type, a missing field, or invalid UTF-8), or a monitor rejected
    /// what it said.
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

/// One shard line, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardLine {
    /// A span record. `sim_dur_ns` is present when the span carries
    /// both simulated stamps.
    Span {
        name: String,
        wall_dur_ns: u64,
        sim_dur_ns: Option<u64>,
    },
    /// An event record.
    Event,
    /// A counter total.
    Counter { name: String, value: u64 },
    /// A gauge value.
    Gauge { name: String, value: i64 },
    /// A quantile-sketch total.
    Sketch {
        name: String,
        sketch: QuantileSketch,
    },
    /// A fleet machine's outcome, which closes the machine's parcel.
    Machine(MachineLine),
    /// One SMI flight record.
    Smi(SmiLine),
    /// A placement block's Merkle roll-up, validated against its root.
    Rollup(DigestRollup),
}

/// Member `key` of `v`, read by `as_t` (`Value::as_u64`, ...).
fn at<'a, T>(v: &'a Value, key: &str, as_t: fn(&'a Value) -> Option<T>) -> Result<T, String> {
    v.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("missing/invalid {key:?}"))
}

/// An optional member: absent is `None`, present must read as a `T`.
fn opt_at<'a, T>(
    v: &'a Value,
    key: &str,
    as_t: fn(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(key)
        .map(|x| as_t(x).ok_or_else(|| format!("missing/invalid {key:?}")))
        .transpose()
}

/// Array member `key` of `v`, each item read by `item`.
fn items_at<'a, T>(
    v: &'a Value,
    key: &str,
    item: impl Fn(&'a Value) -> Option<T>,
) -> Result<Vec<T>, String> {
    match v.get(key) {
        Some(Value::Array(items)) => items.iter().map(item).collect(),
        _ => None,
    }
    .ok_or_else(|| format!("missing/invalid {key:?}"))
}

/// Longest line [`ShardLine::decode`] reads: 256 KiB. The longest line
/// the fleet writes is a full 2 048-bucket sketch with `u64::MAX`
/// counts, about 53 KB, so the cap only rejects corrupt or hostile
/// input, before any of it is parsed.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

impl ShardLine {
    /// Decode one shard line.
    ///
    /// # Errors
    ///
    /// A line longer than [`MAX_LINE_BYTES`], malformed JSON, a `"v"`
    /// other than [`SCHEMA_VERSION`], a missing or unknown `"type"`, a
    /// missing or ill-typed field, or a roll-up whose frontier does not
    /// reproduce its stated root. The error does not name the line;
    /// callers prefix its number.
    pub fn decode(line: &str) -> Result<ShardLine, String> {
        if line.len() > MAX_LINE_BYTES {
            return Err(format!(
                "line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
                line.len()
            ));
        }
        let v = json::parse(line)?;
        let version = v.get("v").and_then(Value::as_u64);
        if version != Some(u64::from(SCHEMA_VERSION)) {
            return Err(format!(
                "schema version {version:?}, expected {SCHEMA_VERSION}"
            ));
        }
        let name = || at(&v, "name", Value::as_str).map(str::to_owned);
        Ok(match at(&v, "type", Value::as_str)? {
            "span" => ShardLine::Span {
                name: name()?,
                wall_dur_ns: at(&v, "wall_dur_ns", Value::as_u64)?,
                sim_dur_ns: match (
                    opt_at(&v, "sim_start_ns", Value::as_u64)?,
                    opt_at(&v, "sim_end_ns", Value::as_u64)?,
                ) {
                    (Some(start), Some(end)) => Some(end.saturating_sub(start)),
                    _ => None,
                },
            },
            "event" => ShardLine::Event,
            "counter" => ShardLine::Counter {
                name: name()?,
                value: at(&v, "value", Value::as_u64)?,
            },
            "gauge" => ShardLine::Gauge {
                name: name()?,
                value: at(&v, "value", Value::as_i64)?,
            },
            "sketch" => ShardLine::Sketch {
                name: name()?,
                sketch: QuantileSketch::from_json_value(&v)?,
            },
            "machine" => ShardLine::Machine(MachineLine::decode(&v)?),
            "smi" => ShardLine::Smi(SmiLine::decode(&v)?),
            "rollup" => {
                ShardLine::Rollup(DigestRollup::decode(&v).map_err(|e| format!("rollup: {e}"))?)
            }
            other => return Err(format!("unknown line type {other:?}")),
        })
    }
}

/// A fleet machine's outcome line. Its fields mirror the campaign's
/// `MachineOutcome`, with simulated times in ns; the error string,
/// digest and injection write count stay in the in-memory report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineLine {
    pub machine: u64,
    pub worker: u64,
    pub ok: bool,
    pub attempts: u64,
    pub retries: u64,
    pub faults_injected: u64,
    pub sim_clock_ns: u64,
    pub smm_overbudget: u64,
    pub max_smm_dwell_ns: u64,
    /// The SMI behind `max_smm_dwell_ns`: its index and cause label.
    pub dwell_worst: Option<(u64, String)>,
    pub latency_ns: Option<u64>,
}

impl MachineLine {
    /// The `{"type":"machine",...}` line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"type\":\"machine\",\"v\":{},\"machine\":{},\"worker\":{},",
                "\"ok\":{},\"attempts\":{},\"retries\":{},\"faults_injected\":{},",
                "\"sim_clock_ns\":{},\"smm_overbudget\":{},\"max_smm_dwell_ns\":{}"
            ),
            SCHEMA_VERSION,
            self.machine,
            self.worker,
            self.ok,
            self.attempts,
            self.retries,
            self.faults_injected,
            self.sim_clock_ns,
            self.smm_overbudget,
            self.max_smm_dwell_ns,
        );
        if let Some((smi, cause)) = &self.dwell_worst {
            let _ = write!(
                out,
                ",\"dwell_worst_smi\":{smi},\"dwell_worst_cause\":{}",
                json_escape(cause)
            );
        }
        if let Some(latency) = self.latency_ns {
            let _ = write!(out, ",\"latency_ns\":{latency}");
        }
        out.push('}');
        out
    }

    fn decode(v: &Value) -> Result<MachineLine, String> {
        let machine = at(v, "machine", Value::as_u64)?;
        let missing = |key: &str| format!("machine {machine}: machine line missing {key:?}");
        let num = |key: &str| at(v, key, Value::as_u64).map_err(|_| missing(key));
        let opt = |key: &str| opt_at(v, key, Value::as_u64).map_err(|_| missing(key));
        Ok(MachineLine {
            machine,
            worker: num("worker")?,
            ok: at(v, "ok", Value::as_bool).map_err(|_| missing("ok"))?,
            attempts: num("attempts")?,
            retries: num("retries")?,
            faults_injected: num("faults_injected")?,
            sim_clock_ns: num("sim_clock_ns")?,
            smm_overbudget: num("smm_overbudget")?,
            max_smm_dwell_ns: num("max_smm_dwell_ns")?,
            dwell_worst: match (opt("dwell_worst_smi")?, v.get("dwell_worst_cause")) {
                (Some(smi), Some(Value::String(cause))) => Some((smi, cause.clone())),
                (None, None) => None,
                _ => return Err(missing("dwell_worst_smi\" or \"dwell_worst_cause")),
            },
            latency_ns: opt("latency_ns")?,
        })
    }
}

/// One SMI flight record of `machine` as a shard line: the input the
/// detached [`crate::IntegrityMonitor`] replays. Its fields mirror the
/// machine's `SmiFlightRecord`, with the cause and exit as their labels,
/// write ranges as `(base, len)` and journal ops in their compact
/// encoding (`B:a`, `B:r`, `S:<index>:<id hash>`, `E:<count>`, `C`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmiLine {
    pub machine: u64,
    pub smi: u64,
    pub cause: String,
    pub measurement: u64,
    pub writes: Vec<(u64, u64)>,
    pub writes_truncated: u64,
    pub journal: Vec<String>,
    pub journal_truncated: u64,
    pub dwell_ns: u64,
    pub exit: String,
}

impl SmiLine {
    /// The `{"type":"smi",...}` line (no trailing newline). The
    /// measurement travels as a hex string: the JSON layer parses
    /// numbers as `f64`, which is only integer-exact to 2^53. The line
    /// carries no wall-clock field, so the smi stream is byte-identical
    /// across schedules.
    pub fn to_json_line(&self) -> String {
        let writes: Vec<String> = self
            .writes
            .iter()
            .map(|(base, len)| format!("[{base},{len}]"))
            .collect();
        let journal: Vec<String> = self.journal.iter().map(|op| json_escape(op)).collect();
        format!(
            concat!(
                "{{\"type\":\"smi\",\"v\":{},\"machine\":{},\"smi\":{},\"cause\":{},",
                "\"measurement\":\"{:#018x}\",\"writes\":[{}],\"writes_truncated\":{},",
                "\"journal\":[{}],\"journal_truncated\":{},\"dwell_ns\":{},\"exit\":{}}}"
            ),
            SCHEMA_VERSION,
            self.machine,
            self.smi,
            json_escape(&self.cause),
            self.measurement,
            writes.join(","),
            self.writes_truncated,
            journal.join(","),
            self.journal_truncated,
            self.dwell_ns,
            json_escape(&self.exit),
        )
    }

    fn decode(v: &Value) -> Result<SmiLine, String> {
        let label = |key: &str| at(v, key, Value::as_str).map(str::to_owned);
        let hex = |x: &Value| u64::from_str_radix(x.as_str()?.strip_prefix("0x")?, 16).ok();
        Ok(SmiLine {
            machine: at(v, "machine", Value::as_u64)?,
            smi: at(v, "smi", Value::as_u64)?,
            cause: label("cause")?,
            measurement: at(v, "measurement", hex)?,
            writes: items_at(v, "writes", |range| match range {
                Value::Array(pair) if pair.len() == 2 => pair[0].as_u64().zip(pair[1].as_u64()),
                _ => None,
            })?,
            writes_truncated: at(v, "writes_truncated", Value::as_u64)?,
            journal: items_at(v, "journal", |op| op.as_str().map(str::to_owned))?,
            journal_truncated: at(v, "journal_truncated", Value::as_u64)?,
            dwell_ns: at(v, "dwell_ns", Value::as_u64)?,
            exit: label("exit")?,
        })
    }
}

/// One placement block's Merkle digest roll-up, as its `rollup` shard
/// line carries it: the block's range, its root, and the tree's O(log n)
/// *frontier* — the bagged root alone is not mergeable — so an offline
/// reader can re-merge adjacent roll-ups into the campaign root without
/// any per-machine digests. The range and root a line states are the
/// tree's own, so a roll-up cannot state a root its frontier lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRollup {
    /// The block's accumulator, ready for [`DigestTree::merge`].
    pub tree: DigestTree,
}

impl DigestRollup {
    /// The `{"type":"rollup",...}` line (no trailing newline): the
    /// stated root and the frontier as `[level,index,hash]` nodes.
    pub fn to_json_line(&self) -> String {
        let frontier: Vec<String> = self
            .tree
            .frontier()
            .iter()
            .map(|n| {
                format!(
                    "[{},{},\"{}\"]",
                    n.level,
                    n.index,
                    merkle::digest_hex(&n.hash)
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"type\":\"rollup\",\"v\":{},\"start\":{},\"machines\":{},",
                "\"root\":\"{}\",\"frontier\":[{}]}}"
            ),
            SCHEMA_VERSION,
            self.tree.start(),
            self.tree.len(),
            merkle::digest_hex(&self.tree.root()),
            frontier.join(","),
        )
    }

    /// Rebuild a roll-up, validating that its frontier tiles the stated
    /// range and reproduces the stated root, so a corrupt roll-up fails
    /// here rather than producing a silently-wrong campaign root.
    fn decode(v: &Value) -> Result<DigestRollup, String> {
        let hash = |x: &Value| merkle::digest_from_hex(x.as_str()?);
        let start = at(v, "start", Value::as_u64)?;
        let machines = at(v, "machines", Value::as_u64)?;
        let root = at(v, "root", hash)?;
        let nodes = items_at(v, "frontier", |node| match node {
            Value::Array(parts) if parts.len() == 3 => Some(FrontierNode {
                level: parts[0].as_u64().filter(|&l| l <= 63)? as u32,
                index: parts[1].as_u64()?,
                hash: hash(&parts[2])?,
            }),
            _ => None,
        })?;
        let tree = DigestTree::from_frontier(start, machines, nodes).map_err(|e| e.to_string())?;
        if tree.root() != root {
            return Err(format!(
                "stated root does not match its frontier (machines {start}..{})",
                tree.end()
            ));
        }
        Ok(DigestRollup { tree })
    }
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
    /// Phase profile from the span lines that time each phase.
    pub phases: PhaseProfile,
    /// Span lines seen (phase or otherwise).
    pub spans: u64,
    /// Event lines seen.
    pub events: u64,
    /// Machine outcome lines, in stream order.
    pub machines: Vec<MachineLine>,
    /// SMI flight-record lines, in stream order.
    pub smis: Vec<SmiLine>,
    /// Block roll-ups, in stream order.
    pub rollups: Vec<DigestRollup>,
}

/// The committed lines of the shard at `path` from byte `offset` (all
/// bytes through the last `\n`: a record still being appended waits for
/// the next read), and the offset after them: the health monitor's one
/// read. Fails with [`ShardError::Io`] on I/O failures,
/// [`ShardError::Truncated`] when `offset` is beyond the file's length
/// (the file was truncated or rotated under the tailer, and resuming
/// would misparse), and [`ShardError::Parse`] for invalid UTF-8 in the
/// committed lines or for an unterminated final line already longer
/// than [`MAX_LINE_BYTES`], which no newline could make decodable and
/// which every later read would otherwise read whole again.
pub(crate) fn read_committed(path: &Path, offset: u64) -> Result<(String, u64), ShardError> {
    use std::io::{Read, Seek, SeekFrom};
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
    let committed = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    if bytes.len() - committed > MAX_LINE_BYTES {
        return Err(ShardError::Parse {
            path: path.to_path_buf(),
            error: format!(
                "unterminated line at byte {} exceeds the {MAX_LINE_BYTES}-byte cap",
                offset + committed as u64
            ),
        });
    }
    bytes.truncate(committed);
    let next = offset + bytes.len() as u64;
    let text = String::from_utf8(bytes).map_err(|e| ShardError::Parse {
        path: path.to_path_buf(),
        error: format!("invalid UTF-8 in committed lines: {e}"),
    })?;
    Ok((text, next))
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
    /// The first line [`ShardLine::decode`] rejects, prefixed with its
    /// line number. Format drift must fail loudly — a silently-empty
    /// aggregate would make the equivalence gate vacuous.
    pub fn parse_into(&mut self, text: &str) -> Result<(), String> {
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let decoded = ShardLine::decode(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            self.absorb(decoded);
        }
        Ok(())
    }

    fn absorb(&mut self, line: ShardLine) {
        match line {
            ShardLine::Span {
                name,
                wall_dur_ns,
                sim_dur_ns,
            } => {
                self.spans += 1;
                self.phases.observe(&name, wall_dur_ns, sim_dur_ns);
            }
            ShardLine::Event => self.events += 1,
            ShardLine::Counter { name, value } => {
                let slot = self.counters.entry(name).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            ShardLine::Gauge { name, value } => {
                self.gauges.insert(name, value);
            }
            ShardLine::Sketch { name, sketch } => {
                self.sketches.entry(name).or_default().merge_from(&sketch);
            }
            ShardLine::Machine(machine) => self.machines.push(machine),
            ShardLine::Smi(smi) => self.smis.push(smi),
            ShardLine::Rollup(rollup) => self.rollups.push(rollup),
        }
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

    /// Fold another aggregate into this one with the registry-merge
    /// semantics: counters add, gauges last-writer-wins, sketches and
    /// phases merge bucket-wise, machine, smi and roll-up lines append.
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
        self.machines.extend_from_slice(&other.machines);
        self.smis.extend_from_slice(&other.smis);
        self.rollups.extend_from_slice(&other.rollups);
    }

    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Quantile-sketch total by name.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
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

    fn machine_line(machine: u64) -> MachineLine {
        MachineLine {
            machine,
            worker: 0,
            ok: true,
            attempts: 1,
            retries: 0,
            faults_injected: 0,
            sim_clock_ns: 1_000,
            smm_overbudget: 0,
            max_smm_dwell_ns: 45_000,
            dwell_worst: Some((2, "patch".to_string())),
            latency_ns: Some(50_000),
        }
    }

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
            let span = crate::span_at("smm.decrypt", 1_000);
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

    /// An unknown `"type"` is a typed parse error naming the line: no
    /// producer extends the format, so a line nobody decodes is drift
    /// or hostile, not data to carry along.
    #[test]
    fn unknown_line_type_is_a_typed_parse_error() {
        let text = "{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1}\n\
                    {\"type\":\"health\",\"v\":1,\"seq\":0}\n";
        assert_eq!(
            ShardData::parse(text).unwrap_err(),
            "line 2: unknown line type \"health\""
        );
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

    /// Merging per-worker aggregates in shard order keeps the
    /// order-dependent pieces in that order: the last shard's gauge
    /// wins, and machine lines follow shard order — as one parse of the
    /// shards concatenated would fold them.
    #[test]
    fn merge_from_keeps_gauge_and_machine_line_order() {
        let shards: Vec<String> = (0..5u64)
            .map(|w| {
                let reg = MetricsRegistry::new();
                reg.counter_add("t.machines", w + 1);
                reg.gauge_set("t.last_worker", w as i64);
                reg.observe("t.lat", 10_000 * (w + 1));
                let mut text = metrics_json_lines(&reg.snapshot());
                text.push_str(&machine_line(w).to_json_line());
                text.push('\n');
                text
            })
            .collect();
        let fold = |order: &mut dyn Iterator<Item = &String>| {
            let mut merged = ShardData::new();
            for text in order {
                merged.merge_from(&ShardData::parse(text).unwrap());
            }
            merged
        };
        let merged = fold(&mut shards.iter());
        assert_eq!(merged, ShardData::parse(&shards.concat()).unwrap());
        assert_eq!(merged.counter("t.machines"), 1 + 2 + 3 + 4 + 5);
        assert_eq!(merged.gauges.get("t.last_worker"), Some(&4));
        let order: Vec<u64> = merged.machines.iter().map(|m| m.machine).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "shard order preserved");
        // Reversed, the same shards merge to the same totals but the
        // other gauge and the reverse machine order.
        let reversed = fold(&mut shards.iter().rev());
        assert_eq!(reversed.counters, merged.counters);
        assert_eq!(reversed.sketches, merged.sketches);
        assert_eq!(reversed.gauges.get("t.last_worker"), Some(&0));
        let order: Vec<u64> = reversed.machines.iter().map(|m| m.machine).collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
    }

    /// The longest line the fleet writes, a sketch holding all 2 048
    /// buckets at `u64::MAX`, decodes under the cap and round-trips.
    #[test]
    fn full_sketch_line_decodes_under_the_cap() {
        let max = u64::MAX;
        let idx: Vec<String> = (0..2048).map(|i: u32| i.to_string()).collect();
        let line = format!(
            "{{\"type\":\"sketch\",\"v\":1,\"name\":\"machine.smm_dwell_ns\",\"count\":{max},\
             \"sum\":{max},\"zeros\":0,\"min\":1,\"max\":{max},\"idx\":[{}],\"counts\":[{}]}}",
            idx.join(","),
            vec![max.to_string(); 2048].join(","),
        );
        assert!(
            (50_000..MAX_LINE_BYTES).contains(&line.len()),
            "{}",
            line.len()
        );
        match ShardLine::decode(&line) {
            Ok(ShardLine::Sketch { name, sketch }) => {
                assert_eq!(sketch.bucket_len(), 2048);
                assert_eq!(sketch.to_json_line(&name), line);
            }
            other => panic!("expected a sketch, got {other:?}"),
        }
    }

    /// A line longer than the cap is a typed parse error naming the
    /// line, before any of it is parsed; one at the cap still decodes.
    #[test]
    fn over_long_line_is_a_typed_parse_error() {
        let event = |len: usize| {
            let head = "{\"type\":\"event\",\"v\":1,\"name\":\"";
            format!("{head}{}\"}}", "x".repeat(len - head.len() - 2))
        };
        assert_eq!(
            ShardLine::decode(&event(MAX_LINE_BYTES)),
            Ok(ShardLine::Event)
        );
        let text = format!("{}\n{}\n", event(64), event(MAX_LINE_BYTES + 1));
        assert_eq!(
            ShardData::parse(&text).unwrap_err(),
            format!(
                "line 2: line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
                MAX_LINE_BYTES + 1
            )
        );
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
        let rollups = &shard.rollups;
        assert_eq!(rollups.len(), 2);
        let mut merged = rollups[0].tree.clone();
        merged.merge(&rollups[1].tree).unwrap();
        assert_eq!(merged.root(), reference.root());
        assert_eq!(rollups[0].tree.start(), 0);

        // A corrupted stated root fails loudly, not silently.
        let mut tampered = lines.clone();
        let first_root_at = tampered.find("\"root\":\"").unwrap() + 8;
        let replacement = if &tampered[first_root_at..first_root_at + 1] == "0" {
            "1"
        } else {
            "0"
        };
        tampered.replace_range(first_root_at..first_root_at + 1, replacement);
        let err = ShardData::parse(&tampered).unwrap_err();
        assert!(
            err.starts_with("line 1: rollup: stated root does not match"),
            "{err}"
        );
        // So does a frontier whose positions would overflow a u64.
        let overflowing = format!(
            "{{\"type\":\"rollup\",\"v\":1,\"start\":{max},\"machines\":1,\
             \"root\":\"{hex}\",\"frontier\":[[0,{max},\"{hex}\"]]}}",
            max = u64::MAX,
            hex = digest_hex(&digests[0]),
        );
        let err = ShardData::parse(&overflowing).unwrap_err();
        assert!(err.contains("frontier does not tile its range"), "{err}");
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
