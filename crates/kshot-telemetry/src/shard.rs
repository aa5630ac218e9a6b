//! Shard lines: the one typed decoder for streamed JSON-lines shards,
//! and their re-aggregation into mergeable aggregates.
//!
//! A fleet campaign streams each worker's telemetry to its own
//! `worker-<N>.jsonl` (see [`crate::StreamSink`]). [`ShardLine::decode`]
//! is the only reader of a line's fields: it scans the line once, with
//! no tree, into a record, a metric, or one of the fleet's own lines — a
//! machine's outcome ([`MachineLine`]), an SMI flight record
//! ([`SmiLine`]), a block's Merkle roll-up ([`DigestRollup`]) — whose
//! appenders live here too. Each line type's keys are declared once
//! (`schema.rs`), and both the appenders and the reader derive from that
//! declaration. Schema drift, an unknown `"type"`, a key the type does
//! not declare or a key given twice, a missing or ill-typed field (an
//! integer is read exactly, so a fraction, an exponent or an overflow is
//! ill-typed) and a roll-up whose frontier misses its stated root are
//! typed errors: the lines come from machines a monitor must assume
//! compromised.
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

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::merkle::{self, DigestTree, FrontierNode};
use crate::metrics::MetricsSnapshot;
use crate::phase::PhaseProfile;
use crate::schema::{
    one_line, push_escaped, push_hex, push_u64, push_u64_list, Appender, CounterKey, EventKey,
    Fields, GaugeKey, Line, LineKeys, MachineKey, Raw, RollupKey, SmiKey, SpanKey,
};
use crate::sketch::QuantileSketch;

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
    /// type, an unknown, duplicated, missing or ill-typed key, or
    /// invalid UTF-8), or a monitor rejected what it said.
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

/// One shard line, decoded. Names borrow from the line unless they
/// carried escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardLine<'a> {
    /// A span record. `sim_dur_ns` is present when the span carries
    /// both simulated stamps.
    Span {
        name: Cow<'a, str>,
        wall_dur_ns: u64,
        sim_dur_ns: Option<u64>,
    },
    /// An event record.
    Event,
    /// A counter total.
    Counter { name: Cow<'a, str>, value: u64 },
    /// A gauge value.
    Gauge { name: Cow<'a, str>, value: i64 },
    /// A quantile-sketch total.
    Sketch {
        name: Cow<'a, str>,
        sketch: QuantileSketch,
    },
    /// A fleet machine's outcome, which closes the machine's parcel.
    Machine(MachineLine),
    /// One SMI flight record.
    Smi(SmiLine),
    /// A placement block's Merkle roll-up, validated against its root.
    Rollup(DigestRollup),
}

/// Longest line [`ShardLine::decode`] reads: 256 KiB. The longest line
/// the fleet writes is a full 2 048-bucket sketch with `u64::MAX`
/// counts, about 53 KB, so the cap only rejects corrupt or hostile
/// input, before any of it is parsed.
pub const MAX_LINE_BYTES: usize = 256 * 1024;

impl<'a> ShardLine<'a> {
    /// Decode one shard line with the borrowed reader that each line
    /// type's key declaration derives (`schema.rs`): no tree is built, and
    /// every integer is read exactly.
    ///
    /// # Errors
    ///
    /// A line longer than [`MAX_LINE_BYTES`], malformed JSON, nesting
    /// deeper than [`crate::json::MAX_DEPTH`], a `"v"` other than
    /// [`crate::SCHEMA_VERSION`], a missing or unknown `"type"`, a key
    /// the line's type does not declare or a key given twice, a missing
    /// or ill-typed field (an integer with a fraction or an exponent, or
    /// beyond its type's range, is ill-typed), a malformed sketch, or a
    /// roll-up whose frontier does not reproduce its stated root. The
    /// error does not name the line; callers prefix its number.
    pub fn decode(line: &'a str) -> Result<ShardLine<'a>, String> {
        if line.len() > MAX_LINE_BYTES {
            return Err(format!(
                "line of {} bytes exceeds the {MAX_LINE_BYTES}-byte cap",
                line.len()
            ));
        }
        let scanned = Line::scan(line)?;
        Ok(match &*scanned.ty {
            "span" => {
                use SpanKey as K;
                let f = scanned.fields::<K>()?;
                f.opt(K::Id, Raw::u64)?;
                f.opt(K::Parent, Raw::u64_or_null)?;
                let name = f.req(K::Name, Raw::str)?;
                f.opt(K::Thread, Raw::u64)?;
                f.opt(K::WallStartNs, Raw::u64)?;
                let wall_dur_ns = f.req(K::WallDurNs, Raw::u64)?;
                let sim = (
                    f.opt(K::SimStartNs, Raw::u64)?,
                    f.opt(K::SimEndNs, Raw::u64)?,
                );
                f.opt(K::Fields, Raw::object)?;
                ShardLine::Span {
                    name,
                    wall_dur_ns,
                    sim_dur_ns: match sim {
                        (Some(start), Some(end)) => Some(end.saturating_sub(start)),
                        _ => None,
                    },
                }
            }
            "event" => {
                use EventKey as K;
                let f = scanned.fields::<K>()?;
                f.opt(K::Parent, Raw::u64_or_null)?;
                f.opt(K::Name, Raw::str)?;
                f.opt(K::Thread, Raw::u64)?;
                f.opt(K::WallNs, Raw::u64)?;
                f.opt(K::SimNs, Raw::u64)?;
                f.opt(K::Fields, Raw::object)?;
                ShardLine::Event
            }
            "counter" => {
                let f = scanned.fields::<CounterKey>()?;
                ShardLine::Counter {
                    name: f.req(CounterKey::Name, Raw::str)?,
                    value: f.req(CounterKey::Value, Raw::u64)?,
                }
            }
            "gauge" => {
                let f = scanned.fields::<GaugeKey>()?;
                ShardLine::Gauge {
                    name: f.req(GaugeKey::Name, Raw::str)?,
                    value: f.req(GaugeKey::Value, Raw::i64)?,
                }
            }
            "sketch" => {
                let (name, sketch) = QuantileSketch::decode(&scanned.fields()?)?;
                ShardLine::Sketch { name, sketch }
            }
            "machine" => ShardLine::Machine(MachineLine::decode(&scanned.fields()?)?),
            "smi" => ShardLine::Smi(SmiLine::decode(&scanned.fields()?)?),
            "rollup" => ShardLine::Rollup(
                DigestRollup::decode(&scanned.fields()?).map_err(|e| format!("rollup: {e}"))?,
            ),
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
    /// Append the `{"type":"machine",...}` line and its newline to `out`.
    pub fn append_line(&self, out: &mut String) {
        use MachineKey as K;
        let mut w = Appender::<K>::open(out);
        w.u64(K::Machine, self.machine);
        w.u64(K::Worker, self.worker);
        w.bool(K::Ok, self.ok);
        w.u64(K::Attempts, self.attempts);
        w.u64(K::Retries, self.retries);
        w.u64(K::FaultsInjected, self.faults_injected);
        w.u64(K::SimClockNs, self.sim_clock_ns);
        w.u64(K::SmmOverbudget, self.smm_overbudget);
        w.u64(K::MaxSmmDwellNs, self.max_smm_dwell_ns);
        if let Some((smi, cause)) = &self.dwell_worst {
            w.u64(K::DwellWorstSmi, *smi);
            w.str(K::DwellWorstCause, cause);
        }
        if let Some(latency) = self.latency_ns {
            w.u64(K::LatencyNs, latency);
        }
        w.close();
    }

    /// The `{"type":"machine",...}` line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        one_line(|out| self.append_line(out))
    }

    fn decode(f: &Fields<'_, MachineKey>) -> Result<MachineLine, String> {
        use MachineKey as K;
        let machine = f.req(K::Machine, Raw::u64)?;
        let missing = |key: K| format!("machine {machine}: machine line missing {:?}", key.name());
        let num = |key| f.req(key, Raw::u64).map_err(|_| missing(key));
        Ok(MachineLine {
            machine,
            worker: num(K::Worker)?,
            ok: f.req(K::Ok, Raw::bool).map_err(|_| missing(K::Ok))?,
            attempts: num(K::Attempts)?,
            retries: num(K::Retries)?,
            faults_injected: num(K::FaultsInjected)?,
            sim_clock_ns: num(K::SimClockNs)?,
            smm_overbudget: num(K::SmmOverbudget)?,
            max_smm_dwell_ns: num(K::MaxSmmDwellNs)?,
            dwell_worst: match (
                f.opt(K::DwellWorstSmi, Raw::u64),
                f.opt(K::DwellWorstCause, Raw::str),
            ) {
                (Ok(Some(smi)), Ok(Some(cause))) => Some((smi, cause.into_owned())),
                (Ok(None), Ok(None)) => None,
                _ => {
                    return Err(format!(
                        "machine {machine}: machine line missing \"dwell_worst_smi\" or \"dwell_worst_cause\""
                    ))
                }
            },
            latency_ns: f
                .opt(K::LatencyNs, Raw::u64)
                .map_err(|_| missing(K::LatencyNs))?,
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
    /// Append the `{"type":"smi",...}` line and its newline to `out`. The
    /// measurement travels as a `0x`-prefixed 16-digit hex string. The
    /// line carries no wall-clock field, so the smi stream is
    /// byte-identical across schedules.
    pub fn append_line(&self, out: &mut String) {
        use SmiKey as K;
        let mut w = Appender::<K>::open(out);
        w.u64(K::Machine, self.machine);
        w.u64(K::Smi, self.smi);
        w.str(K::Cause, &self.cause);
        let hex = w.key(K::Measurement);
        hex.push_str("\"0x");
        push_hex(hex, &self.measurement.to_be_bytes());
        hex.push('"');
        let writes = w.key(K::Writes);
        writes.push('[');
        for (i, &(base, len)) in self.writes.iter().enumerate() {
            if i > 0 {
                writes.push(',');
            }
            push_u64_list(writes, [base, len]);
        }
        writes.push(']');
        w.u64(K::WritesTruncated, self.writes_truncated);
        let journal = w.key(K::Journal);
        journal.push('[');
        for (i, op) in self.journal.iter().enumerate() {
            if i > 0 {
                journal.push(',');
            }
            push_escaped(journal, op);
        }
        journal.push(']');
        w.u64(K::JournalTruncated, self.journal_truncated);
        w.u64(K::DwellNs, self.dwell_ns);
        w.str(K::Exit, &self.exit);
        w.close();
    }

    /// The `{"type":"smi",...}` line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        one_line(|out| self.append_line(out))
    }

    fn decode(f: &Fields<'_, SmiKey>) -> Result<SmiLine, String> {
        use SmiKey as K;
        let label = |key| f.req(key, Raw::str).map(Cow::into_owned);
        let hex = |raw: Raw<'_>| u64::from_str_radix(raw.str()?.strip_prefix("0x")?, 16).ok();
        Ok(SmiLine {
            machine: f.req(K::Machine, Raw::u64)?,
            smi: f.req(K::Smi, Raw::u64)?,
            cause: label(K::Cause)?,
            measurement: f.req(K::Measurement, hex)?,
            writes: f.req(K::Writes, |raw| {
                raw.items()?
                    .map(|range| {
                        let mut pair = range.items()?;
                        let base = pair.next()?.u64()?;
                        let len = pair.next()?.u64()?;
                        pair.next().is_none().then_some((base, len))
                    })
                    .collect()
            })?,
            writes_truncated: f.req(K::WritesTruncated, Raw::u64)?,
            journal: f.req(K::Journal, |raw| {
                raw.items()?
                    .map(|op| op.str().map(Cow::into_owned))
                    .collect()
            })?,
            journal_truncated: f.req(K::JournalTruncated, Raw::u64)?,
            dwell_ns: f.req(K::DwellNs, Raw::u64)?,
            exit: label(K::Exit)?,
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
    /// Append the `{"type":"rollup",...}` line and its newline to `out`:
    /// the stated root and the frontier as `[level,index,hash]` nodes.
    pub fn append_line(&self, out: &mut String) {
        use RollupKey as K;
        let mut w = Appender::<K>::open(out);
        w.u64(K::Start, self.tree.start());
        w.u64(K::Machines, self.tree.len());
        let root = w.key(K::Root);
        root.push('"');
        push_hex(root, &self.tree.root());
        root.push('"');
        let frontier = w.key(K::Frontier);
        frontier.push('[');
        for (i, node) in self.tree.frontier().iter().enumerate() {
            if i > 0 {
                frontier.push(',');
            }
            frontier.push('[');
            push_u64(frontier, u64::from(node.level));
            frontier.push(',');
            push_u64(frontier, node.index);
            frontier.push_str(",\"");
            push_hex(frontier, &node.hash);
            frontier.push_str("\"]");
        }
        frontier.push(']');
        w.close();
    }

    /// The `{"type":"rollup",...}` line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        one_line(|out| self.append_line(out))
    }

    /// Rebuild a roll-up, validating that its frontier tiles the stated
    /// range and reproduces the stated root, so a corrupt roll-up fails
    /// here rather than producing a silently-wrong campaign root.
    fn decode(f: &Fields<'_, RollupKey>) -> Result<DigestRollup, String> {
        use RollupKey as K;
        let hash = |raw: Raw<'_>| merkle::digest_from_hex(&raw.str()?);
        let start = f.req(K::Start, Raw::u64)?;
        let machines = f.req(K::Machines, Raw::u64)?;
        let root = f.req(K::Root, hash)?;
        let nodes = f.req(K::Frontier, |raw| {
            raw.items()?
                .map(|node| {
                    let mut parts = node.items()?;
                    let node = FrontierNode {
                        level: parts.next()?.u64().filter(|&l| l <= 63)? as u32,
                        index: parts.next()?.u64()?,
                        hash: hash(parts.next()?)?,
                    };
                    parts.next().is_none().then_some(node)
                })
                .collect()
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

    fn absorb(&mut self, line: ShardLine<'_>) {
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
                let slot = self.counters.entry(name.into_owned()).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            ShardLine::Gauge { name, value } => {
                self.gauges.insert(name.into_owned(), value);
            }
            ShardLine::Sketch { name, sketch } => {
                self.sketches
                    .entry(name.into_owned())
                    .or_default()
                    .merge_from(&sketch);
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

    /// Integers are read exactly: values an `f64` cannot hold come back
    /// as written, at both ends of `u64` and of `i64`.
    #[test]
    fn decode_reads_integers_exactly() {
        let line = MachineLine {
            sim_clock_ns: (1 << 53) + 1,
            latency_ns: Some(u64::MAX - 1),
            ..machine_line(3)
        };
        assert_eq!(
            ShardLine::decode(&line.to_json_line()),
            Ok(ShardLine::Machine(line))
        );
        let counter =
            "{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":18446744073709551615}";
        assert_eq!(
            ShardLine::decode(counter),
            Ok(ShardLine::Counter {
                name: "c".into(),
                value: u64::MAX
            })
        );
        for value in [i64::MIN, i64::MAX, -((1 << 53) + 1)] {
            let gauge = format!("{{\"type\":\"gauge\",\"v\":1,\"name\":\"g\",\"value\":{value}}}");
            assert_eq!(
                ShardLine::decode(&gauge),
                Ok(ShardLine::Gauge {
                    name: "g".into(),
                    value
                })
            );
        }
    }

    /// A fraction, an exponent, a sign on a `u64` or a value beyond the
    /// field's range is not an integer: the field is ill-typed.
    #[test]
    fn decode_rejects_fractions_exponents_and_overflow() {
        for value in ["1.0", "1e3", "1E+3", "-1", "18446744073709551616"] {
            let counter =
                format!("{{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":{value}}}");
            assert_eq!(
                ShardLine::decode(&counter),
                Err("missing/invalid \"value\"".to_string()),
                "{value}"
            );
        }
        for value in ["-9223372036854775809", "9223372036854775808", "-1.5"] {
            let gauge = format!("{{\"type\":\"gauge\",\"v\":1,\"name\":\"g\",\"value\":{value}}}");
            assert_eq!(
                ShardLine::decode(&gauge),
                Err("missing/invalid \"value\"".to_string()),
                "{value}"
            );
        }
        let fraction = machine_line(4)
            .to_json_line()
            .replace("\"sim_clock_ns\":1000", "\"sim_clock_ns\":1000.0");
        assert_eq!(
            ShardLine::decode(&fraction),
            Err("machine 4: machine line missing \"sim_clock_ns\"".to_string())
        );
    }

    /// A key given twice is an error naming the key, wherever it is:
    /// no reading silently wins.
    #[test]
    fn decode_rejects_duplicate_keys() {
        let text = "{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1}\n\
                    {\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1,\"value\":2}\n";
        assert_eq!(
            ShardData::parse(text).unwrap_err(),
            "line 2: duplicate key \"value\" in a counter line"
        );
        for (line, key) in [
            (
                "{\"type\":\"counter\",\"v\":1,\"v\":1,\"name\":\"c\",\"value\":1}",
                "v",
            ),
            (
                "{\"v\":1,\"name\":\"c\",\"type\":\"counter\",\"type\":\"counter\"}",
                "type",
            ),
            (
                "{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1,\"type\":\"gauge\"}",
                "type",
            ),
        ] {
            assert_eq!(
                ShardLine::decode(line),
                Err(format!("duplicate key {key:?}")),
                "{line}"
            );
        }
        let twice = machine_line(5)
            .to_json_line()
            .replace("\"ok\":true", "\"ok\":false,\"ok\":true");
        assert_eq!(
            ShardLine::decode(&twice),
            Err("duplicate key \"ok\" in a machine line".to_string())
        );
    }

    /// A key the line's type does not declare is an error naming it, on
    /// every line type: no producer extends a line, so an extra key is
    /// drift or hostile, not data to skip.
    #[test]
    fn decode_rejects_unknown_keys() {
        let text = "{\"type\":\"counter\",\"v\":1,\"name\":\"c\",\"value\":1,\"note\":\"x\"}\n";
        assert_eq!(
            ShardData::parse(text).unwrap_err(),
            "line 1: unknown key \"note\" in a counter line"
        );
        let mut tree = DigestTree::starting_at(0);
        tree.append([7; 32]);
        let sketch = {
            let mut s = QuantileSketch::new();
            s.observe(45_000);
            s.to_json_line("d")
        };
        for (ty, line) in [
            ("machine", machine_line(0).to_json_line()),
            ("rollup", DigestRollup { tree }.to_json_line()),
            ("sketch", sketch),
            (
                "event",
                "{\"type\":\"event\",\"v\":1,\"name\":\"e\"}".to_string(),
            ),
            (
                "span",
                "{\"type\":\"span\",\"v\":1,\"name\":\"s\",\"wall_dur_ns\":1}".to_string(),
            ),
        ] {
            let extra = format!("{},\"extra\":0}}", &line[..line.len() - 1]);
            assert_eq!(
                ShardLine::decode(&extra),
                Err(format!("unknown key \"extra\" in a {ty} line")),
                "{extra}"
            );
        }
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
