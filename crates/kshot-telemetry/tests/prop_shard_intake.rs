//! The shard-line intake under random and hostile input. Every typed
//! line the fleet writes decodes back to exactly what was written, over
//! the whole `u64` range. On every line type, with its keys reordered
//! and whitespace between its tokens, the borrowed reader agrees with
//! the `json::parse` tree it replaced, kept here as the oracle. A shard
//! whose lines are truncated, duplicated, or carry a `"type"` nested
//! inside their `fields` yields a verdict or a typed error from
//! `ShardData::parse` and from `HealthMonitor::poll`/`finish` — never a
//! panic — with the monitor's resident state bounded. So does a shard
//! carrying one line just under the line cap or far over it (1–4 MiB),
//! within a stated time bound.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kshot_telemetry::export::{metrics_json_lines, record_json_line};
use kshot_telemetry::json::{self, Value as Json};
use kshot_telemetry::merkle::{digest_from_hex, DigestTree, FrontierNode};
use kshot_telemetry::shard::MAX_LINE_BYTES;
use kshot_telemetry::{
    DigestRollup, EventRecord, HealthMonitor, HealthPolicy, IntegrityPolicy, MachineLine,
    MetricsRegistry, Record, ShardData, ShardError, ShardLine, SmiLine, SpanRecord, Value,
    SMM_DWELL_METRIC,
};
use proptest::prelude::*;

/// Integers the reader carries exactly: every `u64`, with the edges
/// `any` favours and the first integers an `f64` cannot hold.
fn exact_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just((1u64 << 53) + 1), Just(u64::MAX - 1)]
}

/// Integers the `json::parse` oracle reads exactly: up to 2^53.
fn oracle_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=(1 << 53), Just(0u64), Just(1u64 << 53)]
}

/// `v` folded into the range the oracle reads exactly.
fn fit(v: u64) -> u64 {
    v % ((1 << 53) + 1)
}

/// Short strings over control characters, quotes, backslashes, ASCII
/// and non-ASCII text: everything the line writers must escape.
fn label() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x3000, 0..12)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

prop_compose! {
    fn machine_line()(
        (machine, worker, ok) in (exact_u64(), exact_u64(), any::<bool>()),
        (attempts, retries, faults_injected) in (exact_u64(), exact_u64(), exact_u64()),
        (sim_clock_ns, smm_overbudget, max_smm_dwell_ns) in (exact_u64(), exact_u64(), exact_u64()),
        dwell_worst in prop::option::of((exact_u64(), label())),
        latency_ns in prop::option::of(exact_u64()),
    ) -> MachineLine {
        MachineLine {
            machine,
            worker,
            ok,
            attempts,
            retries,
            faults_injected,
            sim_clock_ns,
            smm_overbudget,
            max_smm_dwell_ns,
            dwell_worst,
            latency_ns,
        }
    }
}

prop_compose! {
    fn smi_line()(
        (machine, smi, measurement) in (exact_u64(), exact_u64(), any::<u64>()),
        (cause, exit) in (label(), label()),
        writes in prop::collection::vec((exact_u64(), exact_u64()), 0..6),
        journal in prop::collection::vec(label(), 0..6),
        (writes_truncated, journal_truncated, dwell_ns) in (exact_u64(), exact_u64(), exact_u64()),
    ) -> SmiLine {
        SmiLine {
            machine,
            smi,
            cause,
            measurement,
            writes,
            writes_truncated,
            journal,
            journal_truncated,
            dwell_ns,
            exit,
        }
    }
}

prop_compose! {
    fn rollup()(
        start in 0u64..(1 << 40),
        leaves in prop::collection::vec(any::<[u8; 32]>(), 0..48),
    ) -> DigestRollup {
        let mut tree = DigestTree::starting_at(start);
        for leaf in leaves {
            tree.append(leaf);
        }
        DigestRollup { tree }
    }
}

/// One machine's parcel as a worker writes it: a stage span, the
/// metrics block, the SMI flight records, the outcome line, and the
/// block's roll-up.
fn parcel(machine: u64) -> Vec<String> {
    let mut lines = vec![format!(
        "{{\"type\":\"span\",\"v\":1,\"id\":1,\"parent\":null,\"name\":\"smm.decrypt\",\
         \"thread\":0,\"wall_start_ns\":10,\"wall_dur_ns\":5,\"sim_start_ns\":100,\
         \"sim_end_ns\":{},\"fields\":{{\"bytes\":4096}}}}",
        200 + machine
    )];
    let reg = MetricsRegistry::new();
    reg.observe(SMM_DWELL_METRIC, 45_000 + machine);
    reg.counter_add("machine.smi", 2);
    lines.extend(
        metrics_json_lines(&reg.snapshot())
            .lines()
            .map(str::to_owned),
    );
    for smi in 1..=2 {
        let rec = SmiLine {
            machine,
            smi,
            cause: if smi == 1 { "install" } else { "patch" }.to_string(),
            measurement: if smi == 1 { 0 } else { 0xabcd },
            writes: vec![(0x1000, 16)],
            writes_truncated: 0,
            journal: vec!["B:a".into(), "E:2".into(), "C".into()],
            journal_truncated: 0,
            dwell_ns: 45_000,
            exit: "ok".to_string(),
        };
        lines.push(rec.to_json_line());
    }
    let outcome = MachineLine {
        machine,
        worker: 0,
        ok: true,
        attempts: 1,
        retries: 0,
        faults_injected: 0,
        sim_clock_ns: 1_000_000,
        smm_overbudget: 0,
        max_smm_dwell_ns: 45_000,
        dwell_worst: Some((2, "patch".to_string())),
        latency_ns: Some(7_000_000),
    };
    lines.push(outcome.to_json_line());
    let mut tree = DigestTree::starting_at(machine);
    tree.append([machine as u8; 32]);
    lines.push(DigestRollup { tree }.to_json_line());
    lines
}

/// Record and metric names: plain, and ones the writers must escape.
const NAMES: [&str; 4] = [
    "smm.decrypt",
    "sgx.fetch",
    "odd \"quoted\" \\ name\t",
    "é \u{1}",
];

prop_compose! {
    /// A span or event record, as a worker renders it.
    fn record_line()(
        (span, name, parent) in (any::<bool>(), 0usize..NAMES.len(), prop::option::of(oracle_u64())),
        (id, thread, wall, dur) in (oracle_u64(), oracle_u64(), oracle_u64(), oracle_u64()),
        sim in prop::option::of((oracle_u64(), oracle_u64())),
        (field, label) in (any::<u64>(), label()),
    ) -> String {
        let fields = match field % 4 {
            0 => Vec::new(),
            1 => vec![("bytes", Value::U64(fit(field)))],
            2 => vec![("why", Value::Str(label)), ("ok", Value::Bool(field % 8 == 2))],
            _ => vec![("delta", Value::I64(-(fit(field) as i64))), ("ratio", Value::F64(0.5))],
        };
        record_json_line(&if span {
            Record::Span(SpanRecord {
                id,
                parent,
                name: NAMES[name],
                thread,
                wall_start_ns: wall,
                wall_dur_ns: dur,
                sim_start_ns: sim.map(|(start, _)| start),
                sim_end_ns: sim.map(|(_, end)| end),
                fields,
            })
        } else {
            Record::Event(EventRecord {
                parent,
                name: NAMES[name],
                thread,
                wall_ns: wall,
                sim_ns: sim.map(|(start, _)| start),
                fields,
            })
        })
    }
}

prop_compose! {
    /// A metrics block's lines: counters, gauges and sketches.
    fn metric_lines()(
        counters in prop::collection::vec((0usize..NAMES.len(), 0u64..(1 << 51)), 0..3),
        gauges in prop::collection::vec((0usize..NAMES.len(), oracle_u64(), any::<bool>()), 0..3),
        samples in prop::collection::vec((0usize..NAMES.len(), 0u64..(1 << 48)), 0..8),
    ) -> Vec<String> {
        let reg = MetricsRegistry::new();
        for (name, v) in counters {
            reg.counter_add(NAMES[name], v);
        }
        for (name, v, negative) in gauges {
            reg.gauge_set(NAMES[name], if negative { -(v as i64) } else { v as i64 });
        }
        for (name, v) in samples {
            reg.observe(NAMES[name], v);
        }
        metrics_json_lines(&reg.snapshot()).lines().map(str::to_owned).collect()
    }
}

/// A machine line with every integer where the oracle reads it exactly.
fn fit_machine(m: MachineLine) -> MachineLine {
    MachineLine {
        machine: fit(m.machine),
        worker: fit(m.worker),
        attempts: fit(m.attempts),
        retries: fit(m.retries),
        faults_injected: fit(m.faults_injected),
        sim_clock_ns: fit(m.sim_clock_ns),
        smm_overbudget: fit(m.smm_overbudget),
        max_smm_dwell_ns: fit(m.max_smm_dwell_ns),
        dwell_worst: m.dwell_worst.map(|(smi, cause)| (fit(smi), cause)),
        latency_ns: m.latency_ns.map(fit),
        ..m
    }
}

/// An smi line with every integer where the oracle reads it exactly
/// (the measurement travels as hex, so it keeps its full range).
fn fit_smi(s: SmiLine) -> SmiLine {
    SmiLine {
        machine: fit(s.machine),
        smi: fit(s.smi),
        writes: s
            .writes
            .into_iter()
            .map(|(b, l)| (fit(b), fit(l)))
            .collect(),
        writes_truncated: fit(s.writes_truncated),
        journal_truncated: fit(s.journal_truncated),
        dwell_ns: fit(s.dwell_ns),
        ..s
    }
}

/// `line` with its top-level members in a seeded order and seeded
/// whitespace between its tokens: the same JSON document, spelled
/// differently.
fn respell(line: &str, seed: u64) -> String {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Split the object's body into its members at depth-1 commas.
    let body = &line[1..line.len() - 1];
    let (mut members, mut start, mut depth) = (Vec::new(), 0, 0);
    let (mut in_string, mut escaped) = (false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' | '{' if !in_string => depth += 1,
            ']' | '}' if !in_string => depth -= 1,
            ',' if !in_string && depth == 0 => {
                members.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    members.push(&body[start..]);
    for i in (1..members.len()).rev() {
        members.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    const SPACES: [&str; 5] = ["", " ", "\t", "\r\n", "  \n "];
    let mut out = String::from(SPACES[(next() % 5) as usize]);
    out.push('{');
    let (mut in_string, mut escaped) = (false, false);
    for c in members.join(",").chars() {
        out.push(c);
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' | '{' | ']' | '}' | ',' | ':' if !in_string => {
                out.push_str(SPACES[(next() % 5) as usize]);
            }
            _ => {}
        }
    }
    out.push('}');
    out.push_str(SPACES[(next() % 5) as usize]);
    out
}

/// Whether the borrowed reader and the `json::parse` oracle read `line`
/// alike: every field the decoded line carries equals the oracle's
/// reading of the same key.
fn reader_and_oracle_agree(line: &str) -> Result<(), String> {
    let tree = json::parse(line).map_err(|e| format!("oracle rejects {line:?}: {e}"))?;
    let decoded = ShardLine::decode(line).map_err(|e| format!("reader rejects {line:?}: {e}"))?;
    let num = |key: &str| tree.get(key).and_then(Json::as_u64);
    let text = |key: &str| tree.get(key).and_then(Json::as_str).map(str::to_owned);
    let pairs = |key: &str, width: usize| -> Option<Vec<Vec<Json>>> {
        match tree.get(key)? {
            Json::Array(items) => items
                .iter()
                .map(|item| match item {
                    Json::Array(parts) if parts.len() == width => Some(parts.clone()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    };
    let agree = match &decoded {
        ShardLine::Span {
            name,
            wall_dur_ns,
            sim_dur_ns,
        } => {
            let sim = num("sim_start_ns").zip(num("sim_end_ns"));
            text("name").as_deref() == Some(name)
                && num("wall_dur_ns") == Some(*wall_dur_ns)
                && sim.map(|(start, end)| end.saturating_sub(start)) == *sim_dur_ns
        }
        ShardLine::Event => text("type").as_deref() == Some("event"),
        ShardLine::Counter { name, value } => {
            text("name").as_deref() == Some(name) && num("value") == Some(*value)
        }
        ShardLine::Gauge { name, value } => {
            text("name").as_deref() == Some(name)
                && tree.get("value").and_then(Json::as_i64) == Some(*value)
        }
        ShardLine::Sketch { name, sketch } => {
            // The buckets are private: compare them as the canonical
            // line of the decoded sketch spells them.
            let canonical = json::parse(&sketch.to_json_line(name)).map_err(|e| e.to_string())?;
            text("name").as_deref() == Some(name)
                && num("count") == Some(sketch.count())
                && num("sum") == Some(sketch.sum())
                && num("min") == Some(sketch.min())
                && num("max") == Some(sketch.max())
                && canonical.get("idx") == tree.get("idx")
                && canonical.get("counts") == tree.get("counts")
        }
        ShardLine::Machine(m) => {
            let worst = num("dwell_worst_smi").zip(text("dwell_worst_cause"));
            [
                ("machine", m.machine),
                ("worker", m.worker),
                ("attempts", m.attempts),
                ("retries", m.retries),
                ("faults_injected", m.faults_injected),
                ("sim_clock_ns", m.sim_clock_ns),
                ("smm_overbudget", m.smm_overbudget),
                ("max_smm_dwell_ns", m.max_smm_dwell_ns),
            ]
            .iter()
            .all(|&(key, v)| num(key) == Some(v))
                && tree.get("ok").and_then(Json::as_bool) == Some(m.ok)
                && worst == m.dwell_worst
                && num("latency_ns") == m.latency_ns
        }
        ShardLine::Smi(smi) => {
            let writes = pairs("writes", 2).map(|ranges| {
                ranges
                    .iter()
                    .map(|r| r[0].as_u64().zip(r[1].as_u64()))
                    .collect::<Option<Vec<_>>>()
            });
            let journal = match tree.get("journal") {
                Some(Json::Array(ops)) => ops
                    .iter()
                    .map(|op| op.as_str().map(str::to_owned))
                    .collect::<Option<Vec<_>>>(),
                _ => None,
            };
            let measurement = text("measurement")
                .and_then(|hex| u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok());
            num("machine") == Some(smi.machine)
                && num("smi") == Some(smi.smi)
                && text("cause").as_ref() == Some(&smi.cause)
                && measurement == Some(smi.measurement)
                && writes == Some(Some(smi.writes.clone()))
                && num("writes_truncated") == Some(smi.writes_truncated)
                && journal.as_ref() == Some(&smi.journal)
                && num("journal_truncated") == Some(smi.journal_truncated)
                && num("dwell_ns") == Some(smi.dwell_ns)
                && text("exit").as_ref() == Some(&smi.exit)
        }
        ShardLine::Rollup(rollup) => {
            let frontier = pairs("frontier", 3).and_then(|nodes| {
                nodes
                    .iter()
                    .map(|n| {
                        Some(FrontierNode {
                            level: u32::try_from(n[0].as_u64()?).ok()?,
                            index: n[1].as_u64()?,
                            hash: digest_from_hex(n[2].as_str()?)?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()
            });
            let tree_read = num("start").zip(num("machines")).zip(frontier).and_then(
                |((start, len), nodes)| DigestTree::from_frontier(start, len, nodes).ok(),
            );
            tree_read.as_ref() == Some(&rollup.tree)
                && text("root").and_then(|hex| digest_from_hex(&hex)) == Some(rollup.tree.root())
        }
    };
    if agree {
        Ok(())
    } else {
        Err(format!("{line:?}: reader {decoded:?}, oracle {tree:?}"))
    }
}

const MACHINES: u64 = 3;

/// How one line of the clean shard is damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Cut the line to this fraction (per-mille) of its length.
    Truncate(usize),
    /// Write the line twice.
    Duplicate,
    /// Nest a `"type"` (and a machine index) inside a span's `fields`.
    NestType,
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..1000).prop_map(Damage::Truncate),
        Just(Damage::Duplicate),
        Just(Damage::NestType),
    ]
}

fn damaged_shard(hits: &[(usize, Damage)]) -> String {
    let mut lines: Vec<String> = (0..MACHINES).flat_map(parcel).collect();
    for &(at, damage) in hits {
        let at = at % lines.len();
        match damage {
            Damage::Truncate(per_mille) => {
                let keep = lines[at].len() * per_mille / 1000;
                lines[at].truncate(keep);
            }
            Damage::Duplicate => lines.insert(at, lines[at].clone()),
            Damage::NestType => {
                lines[at] = lines[at].replace(
                    "\"fields\":{\"bytes\":4096}",
                    "\"fields\":{\"type\":\"machine\",\"machine\":1,\"ok\":false}",
                )
            }
        }
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Judge `text` as worker 0's shard with integrity on.
fn judge(text: &str) -> (Result<kshot_telemetry::HealthReport, ShardError>, u64) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "kshot-intake-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let shard = dir.join("worker-0.jsonl");
    std::fs::write(&shard, text).unwrap();
    let mut monitor = HealthMonitor::new(HealthPolicy::new(), 1, MACHINES as usize, vec![shard])
        .with_integrity(IntegrityPolicy::new().with_expected_measurement(0xabcd));
    let polled = monitor.poll();
    let resident = monitor.resident_state_bytes();
    let judged = polled.and_then(|_| monitor.finish());
    let _ = std::fs::remove_dir_all(&dir);
    (judged, resident)
}

#[test]
fn the_clean_shard_judges_healthy() {
    let text = damaged_shard(&[]);
    let shard = ShardData::parse(&text).unwrap();
    assert_eq!(
        (shard.machines.len(), shard.smis.len(), shard.rollups.len()),
        (3, 6, 3)
    );
    assert_eq!(shard.phases.total_samples(), 3);
    let report = judge(&text).0.unwrap();
    assert_eq!(report.snapshots.len(), MACHINES as usize);
    assert_eq!(report.final_verdict().label(), "healthy");
    assert_eq!(report.integrity.unwrap().records_checked, 6);
}

/// What one shard carrying a single long line may cost to parse and to
/// judge, in the debug profile: decoding stays linear in the line's
/// length, and a line over the cap is rejected before it is parsed.
const LONG_LINE_BOUND: Duration = Duration::from_secs(2);

/// Line lengths at the cap's edge: just under or at it, and far over it.
fn long_line_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        (MAX_LINE_BYTES - 4096)..=MAX_LINE_BYTES,
        (1usize << 20)..=(4 << 20),
    ]
}

/// An event line of exactly `len` bytes whose name pads it out, with
/// plain bytes or with an escaped quote in every three.
fn long_event(len: usize, escaped: bool) -> String {
    let head = "{\"type\":\"event\",\"v\":1,\"parent\":null,\"name\":\"";
    let room = len - head.len() - 2;
    let pad = if escaped {
        "\\\"n".repeat(room / 3) + &"n".repeat(room % 3)
    } else {
        "n".repeat(room)
    };
    format!("{head}{pad}\"}}")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// `decode(to_json_line(x)) == x` for every line type the fleet
    /// writes, including escaped labels and `u64::MAX` measurements.
    #[test]
    fn typed_lines_round_trip(m in machine_line(), s in smi_line(), r in rollup()) {
        prop_assert_eq!(ShardLine::decode(&m.to_json_line()), Ok(ShardLine::Machine(m)));
        prop_assert_eq!(ShardLine::decode(&s.to_json_line()), Ok(ShardLine::Smi(s)));
        prop_assert_eq!(ShardLine::decode(&r.to_json_line()), Ok(ShardLine::Rollup(r)));
    }

    /// Damaged shards end in a verdict or a typed parse error, with the
    /// monitor's resident state bounded; the test would fail on a panic.
    #[test]
    fn damaged_shards_yield_a_verdict_or_a_typed_error(
        hits in prop::collection::vec((any::<usize>(), damage()), 1..4),
    ) {
        let text = damaged_shard(&hits);
        let parsed = ShardData::parse(&text);
        let (judged, resident) = judge(&text);
        prop_assert!(
            matches!(judged, Ok(_) | Err(ShardError::Parse { .. })),
            "{:?}",
            judged
        );
        prop_assert!(resident < 16 * 1024, "resident {} bytes", resident);
        // A line the monitor rejected while decoding, the aggregate
        // rejects too; the monitor additionally judges what lines say.
        if let Err(e) = &parsed {
            prop_assert!(judged.is_err(), "ShardData failed ({}) but the monitor did not", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// On valid lines of every type, written by the writers and then
    /// respelled (keys reordered, whitespace between tokens), the
    /// borrowed reader reads what the `json::parse` tree reads.
    #[test]
    fn reader_agrees_with_the_json_oracle(
        (record, metrics) in (record_line(), metric_lines()),
        (m, s, r) in (machine_line(), smi_line(), rollup()),
        seed in any::<u64>(),
    ) {
        let mut lines = vec![
            record,
            fit_machine(m).to_json_line(),
            fit_smi(s).to_json_line(),
            r.to_json_line(),
        ];
        lines.extend(metrics);
        for (i, line) in lines.iter().enumerate() {
            prop_assert_eq!(reader_and_oracle_agree(line), Ok(()));
            let respelled = respell(line, seed.wrapping_add(i as u64));
            prop_assert_eq!(reader_and_oracle_agree(&respelled), Ok(()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// One long line anywhere in the clean shard: at or under the cap it
    /// is read as the event it is and the shard judges healthy; over it,
    /// parsing and the monitor both fail typed, naming the line. Either
    /// way within [`LONG_LINE_BOUND`], with the monitor's resident
    /// state bounded.
    #[test]
    fn long_lines_yield_a_verdict_or_a_typed_error_in_time(
        (len, escaped, at) in (long_line_len(), any::<bool>(), any::<usize>()),
    ) {
        let mut lines: Vec<String> = (0..MACHINES).flat_map(parcel).collect();
        let at = at % (lines.len() + 1);
        lines.insert(at, long_event(len, escaped));
        prop_assert_eq!(lines[at].len(), len);
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let started = Instant::now();
        let parsed = ShardData::parse(&text);
        let (judged, resident) = judge(&text);
        let took = started.elapsed();
        prop_assert!(took < LONG_LINE_BOUND, "{} bytes took {:?}", len, took);
        prop_assert!(resident < 16 * 1024, "resident {} bytes", resident);
        if len <= MAX_LINE_BYTES {
            prop_assert_eq!(parsed.map(|shard| shard.events), Ok(1));
            let report = judged.expect("a shard under the cap is judged");
            prop_assert_eq!(report.final_verdict().label(), "healthy");
        } else {
            let want = format!("line {}: line of {len} bytes exceeds", at + 1);
            prop_assert!(
                matches!(&parsed, Err(e) if e.starts_with(&want)),
                "{:?}",
                parsed.map(drop)
            );
            prop_assert!(
                matches!(&judged, Err(ShardError::Parse { error, .. }) if error.starts_with(&want)),
                "{:?}",
                judged.map(drop)
            );
        }
    }
}
