//! Golden-file test for the Chrome `trace_event` exporter.
//!
//! Builds a fixed set of records (deterministic ids, threads and
//! timestamps), renders them with [`kshot_telemetry::export::chrome_trace`]
//! and compares byte-for-byte against `tests/golden/chrome_trace.json`.
//! The crate's own JSON parser ([`kshot_telemetry::json`]) then checks
//! the output is well-formed JSON with the envelope Perfetto and
//! `chrome://tracing` expect.
//!
//! Regenerate the golden after an intentional format change with
//! `KSHOT_UPDATE_GOLDEN=1 cargo test -p kshot-telemetry --test chrome_golden`.

use kshot_telemetry::export::chrome_trace;
use kshot_telemetry::json;
use kshot_telemetry::{EventRecord, Record, SpanRecord, Value};

fn fixture() -> Vec<Record> {
    vec![
        Record::Span(SpanRecord {
            id: 1,
            parent: None,
            name: "kshot.live_patch",
            thread: 0,
            wall_start_ns: 10_000,
            wall_dur_ns: 900_000,
            sim_start_ns: Some(1_000),
            sim_end_ns: Some(61_000),
            fields: vec![("patch", Value::Str("CVE-2017-7184".to_string()))],
        }),
        Record::Span(SpanRecord {
            id: 2,
            parent: Some(1),
            name: "smm.window",
            thread: 0,
            wall_start_ns: 200_000,
            wall_dur_ns: 80_000,
            sim_start_ns: Some(5_500),
            sim_end_ns: Some(48_750),
            fields: vec![],
        }),
        Record::Span(SpanRecord {
            id: 3,
            parent: Some(2),
            name: "smm.decrypt",
            thread: 0,
            wall_start_ns: 220_000,
            wall_dur_ns: 10_000,
            sim_start_ns: Some(6_000),
            sim_end_ns: Some(18_123),
            fields: vec![("bytes", Value::U64(4096))],
        }),
        // Wall-only span (e.g. sgx.session): exporter falls back to wall
        // timestamps when sim endpoints are absent.
        Record::Span(SpanRecord {
            id: 4,
            parent: Some(1),
            name: "sgx.session",
            thread: 1,
            wall_start_ns: 50_000,
            wall_dur_ns: 120_000,
            sim_start_ns: None,
            sim_end_ns: None,
            fields: vec![("escaped", Value::Str("a\"b\\c\nd".to_string()))],
        }),
        Record::Event(EventRecord {
            parent: Some(3),
            name: "smm.trampoline",
            thread: 0,
            wall_ns: 225_000,
            sim_ns: Some(17_000),
            fields: vec![
                ("site", Value::U64(0x40_0100)),
                ("target", Value::U64(0x7300_0040)),
            ],
        }),
    ]
}

#[test]
fn chrome_trace_matches_golden() {
    let rendered = chrome_trace(&fixture());
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var_os("KSHOT_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with KSHOT_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "chrome_trace output drifted from tests/golden/chrome_trace.json \
         (KSHOT_UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_expected_envelope() {
    let rendered = chrome_trace(&fixture());
    let value = json::parse(&rendered).expect("exporter must emit valid JSON");

    let obj = match &value {
        json::Value::Object(o) => o,
        other => panic!("top level must be an object, got {other:?}"),
    };
    assert_eq!(
        obj.iter()
            .find(|(k, _)| k == "displayTimeUnit")
            .map(|(_, v)| v),
        Some(&json::Value::String("ns".to_string()))
    );
    let events = match obj.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v) {
        Some(json::Value::Array(a)) => a,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(events.len(), fixture().len());

    // Every entry has the mandatory trace_event keys; spans are "X"
    // (complete) with a duration, instants are "i".
    for ev in events {
        let e = match ev {
            json::Value::Object(o) => o,
            other => panic!("event must be an object, got {other:?}"),
        };
        let get = |k: &str| e.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let ph = match get("ph") {
            Some(json::Value::String(s)) => s.as_str(),
            other => panic!("ph must be a string, got {other:?}"),
        };
        assert!(matches!(get("name"), Some(json::Value::String(_))));
        assert!(matches!(get("ts"), Some(json::Value::Number(_))));
        assert!(matches!(get("pid"), Some(json::Value::Number(_))));
        assert!(matches!(get("tid"), Some(json::Value::Number(_))));
        match ph {
            "X" => assert!(matches!(get("dur"), Some(json::Value::Number(_)))),
            "i" => assert!(get("dur").is_none()),
            other => panic!("unexpected phase {other:?}"),
        }
    }
}
