//! The traced run: where one workload's per-machine cost goes, by crate.
//!
//! After the sample's cold campaign, the traced run
//!
//! 1. measures the telemetry layer over the workload's streamed shards
//!    (`retained_observed` streams already; the other workloads re-run
//!    their campaign once with a stream directory),
//! 2. runs the untraced campaign a second time (the warm-heap wall),
//! 3. replays the campaign's machines one at a time through the public
//!    per-machine calls, timing each call and folding the spans the
//!    program already emits under `live_patch_bundle`,
//! 4. calibrates the crypto primitives at the workload's sizes.
//!
//! The replay reconciles: its machines must reproduce the campaign's
//! Merkle root, and the top-level call times must cover its wall.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kshot::core::reserved::rw_offsets;
use kshot::core::{KShot, PatchReport};
use kshot::crypto::{sha256, ChaCha20, DhKeyPair, DhParams};
use kshot::fleet::{CampaignTarget, FleetConfig, HealthPolicy, MachineOutcome, OutcomeFold};
use kshot::kernel::Kernel;
use kshot::patchserver::BundleCache;
use kshot::telemetry::merkle::digest_hex;
use kshot::telemetry::{
    HealthMonitor, PhaseProfile, Record, Recorder, RecorderScope, ShardData, SpanRecord, Value,
};

use crate::{campaign, integrity_policy, Campaign, Setup, HEALTH_WINDOW};

/// 512-bit modular exponentiations per patch, from the call sites on
/// the `live_patch_bundle` path (each `DhKeyPair::from_entropy` and each
/// `DhKeyPair::agree` is one `modpow`):
///
/// - `Helper::begin_server_session` keygen and
///   `Helper::finish_server_session` agree (enclave ↔ server leg);
/// - `KShot::live_patch_bundle` server keygen and agree;
/// - `Helper::prepare_and_stage` keygen and agree (enclave ↔ SMM leg);
/// - `SmmHandler::handle_patch` keygen (`current_keypair`) and agree;
/// - `SmmHandler::rotate_key` → `publish_public` → `current_keypair`,
///   the post-apply key rotation.
///
/// Eight call sites, nine calls: `current_keypair` runs twice.
const DH_MODPOWS_PER_PATCH: u64 = 9;

/// Spans the program emits directly under `live_patch_bundle`, besides
/// `smm.window`, and the layer each is reported as.
const PATCH_SPANS: [(&str, &str); 3] = [
    ("sgx.session", "core.sgx_session_us"),
    ("sgx.fetch", "core.sgx_fetch_us"),
    ("sgx.prepare_and_stage", "core.sgx_prepare_us"),
];

/// Spans the program emits inside the `smm.window` OS pause. None has a
/// listed child, so each is its own self time.
const WINDOW_SPANS: [(&str, &str); 5] = [
    ("smm.keygen", "core.smm_keygen_us"),
    ("smm.decrypt", "core.smm_decrypt_us"),
    ("smm.verify", "core.smm_verify_us"),
    ("smm.apply", "core.smm_apply_us"),
    ("phase.resume", "core.smm_resume_us"),
];

/// Per-machine samples of each layer, in microseconds.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn add(&mut self, layer: &'static str, us: f64) {
        self.0.entry(layer).or_default().push(us);
    }
}

/// Nearest-rank quantile of `v` (`q` in 0..=1).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn micros(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// splitmix64, the campaign's per-machine seed derivation
/// (`FleetConfig::seed` doc: machine `i` installs with
/// `splitmix64(seed + i)`).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet's applied-state digest, recomputed from public `phys()`
/// slices: SHA-256 of the kernel text and of the occupied `mem_X` prefix
/// (up to the placement cursor SMM publishes in `mem_RW`), hashed
/// together.
fn applied_state_digest(system: &KShot, target: &CampaignTarget) -> [u8; 32] {
    let phys = system.kernel().machine().phys();
    let text = phys
        .slice(target.layout.kernel_text_base, target.image.text.len())
        .expect("text segment in bounds");
    let reserved = system.reserved();
    let cursor = phys
        .slice(reserved.rw_base + rw_offsets::NEXT_PADDR, 8)
        .expect("published cursor in bounds");
    let cursor = u64::from_le_bytes(cursor.try_into().expect("eight bytes"));
    let used = cursor.saturating_sub(reserved.x_base).min(reserved.x_size);
    let placed = phys
        .slice(reserved.x_base, used as usize)
        .expect("occupied mem_X prefix in bounds");
    let mut acc = [0u8; 64];
    acc[..32].copy_from_slice(&sha256(text));
    acc[32..].copy_from_slice(&sha256(placed));
    sha256(&acc)
}

/// The outcome a campaign would fold for a machine patched first try.
fn outcome(
    machine: usize,
    system: &KShot,
    report: &PatchReport,
    digest: [u8; 32],
) -> MachineOutcome {
    let m = system.kernel().machine();
    MachineOutcome {
        machine,
        worker: 0,
        attempts: 1,
        retries: 0,
        ok: true,
        error: None,
        latency: Some(report.total()),
        sim_clock: m.now(),
        state_digest: digest,
        faults_injected: 0,
        injection_writes_seen: 0,
        smm_overbudget: m.smm_overbudget_count(),
        max_smm_dwell: m.max_smm_dwell(),
        recovery_failed: false,
        rolled_back: false,
        rollback_skipped: 0,
        rollback_failed: false,
        admitted: true,
        flight: m.flight_snapshot(),
        dwell_worst: m.max_smm_dwell_smi(),
    }
}

/// Byte counts the program reports on its own spans, per patch.
#[derive(Default, Clone, Copy)]
struct SpanBytes {
    /// `smm.decrypt` "bytes": the staged ciphertext SMM opens.
    staged: u64,
    /// `smm.verify` "bytes": payload plus pre-image bytes SMM hashes.
    verified: u64,
}

/// Fold one machine's `live_patch_bundle` spans into `layers`: each
/// listed span as its own layer, `smm.window` minus its listed children,
/// and `core.live_patch_self_us` as the call's wall minus the listed
/// spans directly under it.
fn fold_spans(records: &[Record], live_patch_us: f64, layers: &mut Layers) -> SpanBytes {
    let spans: Vec<&SpanRecord> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
        .collect();
    let us = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_dur_ns as f64 / 1e3)
            .sum()
    };
    let field = |name: &str, key: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.fields.iter())
            .find_map(|(k, v)| match (k, v) {
                (k, Value::U64(n)) if *k == key => Some(*n),
                _ => None,
            })
            .unwrap_or(0)
    };
    let window = us("smm.window");
    let mut in_window = 0.0;
    for (span, layer) in WINDOW_SPANS {
        let v = us(span);
        in_window += v;
        layers.add(layer, v);
    }
    layers.add("core.smm_window_us", window - in_window);
    let mut in_patch = window;
    for (span, layer) in PATCH_SPANS {
        let v = us(span);
        in_patch += v;
        layers.add(layer, v);
    }
    layers.add("core.live_patch_self_us", live_patch_us - in_patch);
    SpanBytes {
        staged: field("smm.decrypt", "bytes"),
        verified: field("smm.verify", "bytes"),
    }
}

/// What the replay measured.
struct Replay {
    layers: Layers,
    wall_us_per_machine: f64,
    /// Sum of the top-level call times, per machine.
    self_us_per_machine: f64,
    root: [u8; 32],
    sim_patch_p50_ns: u64,
    all_identical: bool,
    first_report: PatchReport,
    bytes: SpanBytes,
}

/// Drive the campaign's machines one at a time through the public
/// per-machine calls, timing each: boot, install, bundle cache, live
/// patch (program spans captured), digest, fold, teardown.
fn replay(setup: &Setup, seed: u64, machines: usize) -> Replay {
    let target = &setup.target;
    let cache = BundleCache::new();
    let mut fold = OutcomeFold::new();
    let mut layers = Layers::default();
    let mut first_report = None;
    let mut bytes = SpanBytes::default();
    // The top-level calls run back to back from t0 to t7, so their sum
    // is that interval; the rest of the loop is the replay's glue.
    let mut attributed_us = 0.0;
    let started = Instant::now();
    for machine in 0..machines {
        let recorder = Recorder::new();
        let t0 = Instant::now();
        let kernel = Kernel::boot((*target.image).clone(), &target.version, target.layout)
            .expect("fleet image boots");
        let t1 = Instant::now();
        let mut system = KShot::install(kernel, splitmix64(seed.wrapping_add(machine as u64)))
            .expect("KShot installs");
        let t2 = Instant::now();
        let bundle = cache.get_or_decode(&setup.bytes).expect("bundle decodes");
        let t3 = Instant::now();
        let report = {
            let _scope = RecorderScope::enter(Arc::clone(&recorder));
            system.live_patch_bundle((*bundle).clone())
        }
        .expect("patch applies");
        let t4 = Instant::now();
        let digest = applied_state_digest(&system, target);
        let t5 = Instant::now();
        fold.absorb(&outcome(machine, &system, &report, digest));
        let t6 = Instant::now();
        drop(system);
        let t7 = Instant::now();
        for (layer, from, to) in [
            ("kernel.boot_us", t0, t1),
            ("core.install_us", t1, t2),
            ("patchserver.cache_get_us", t2, t3),
            ("core.live_patch_us", t3, t4),
            ("fleet.digest_us", t4, t5),
            ("fleet.fold_us", t5, t6),
            ("machine.teardown_us", t6, t7),
        ] {
            layers.add(layer, micros(from, to));
        }
        attributed_us += micros(t0, t7);
        bytes = fold_spans(&recorder.records(), micros(t3, t4), &mut layers);
        first_report.get_or_insert(report);
    }
    let wall = started.elapsed();
    Replay {
        layers,
        wall_us_per_machine: wall.as_secs_f64() * 1e6 / machines as f64,
        self_us_per_machine: attributed_us / machines as f64,
        root: fold.merkle_root(),
        sim_patch_p50_ns: fold.latency.quantile_per_mille(500),
        all_identical: fold.all_identical_digests() && fold.succeeded == machines as u64,
        first_report: first_report.expect("at least one machine"),
        bytes,
    }
}

/// Median wall time of `f` over `reps` calls, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    quantile(&samples, 0.5)
}

/// Throughput of `f` over a `len`-byte buffer, in MiB/s: repeated until
/// at least 20 ms have been measured.
fn mib_per_s(len: usize, mut f: impl FnMut(&mut [u8])) -> f64 {
    let mut buf = vec![0x5au8; len];
    let mut reps = 0u64;
    let started = Instant::now();
    while reps < 3 || started.elapsed().as_millis() < 20 {
        f(&mut buf);
        black_box(&buf);
        reps += 1;
    }
    (len as u64 * reps) as f64 / started.elapsed().as_secs_f64() / (1024.0 * 1024.0)
}

/// Telemetry-layer costs over one campaign's shards, per machine.
struct TelemetryCosts {
    shard_bytes: f64,
    parse_us: f64,
    health_replay_us: f64,
    phase_profile_us: f64,
}

fn telemetry(dir: &Path, setup: &Setup, machines: usize) -> TelemetryCosts {
    let shard = dir.join("worker-0.jsonl");
    let text = std::fs::read_to_string(&shard).expect("read the worker shard");
    let per_machine = |us: f64| us / machines as f64;
    let t = Instant::now();
    let parsed = ShardData::parse(&text).expect("shard parses");
    let parse_us = micros(t, Instant::now());
    black_box(parsed);
    let t = Instant::now();
    let health = HealthMonitor::new(HealthPolicy::new(), HEALTH_WINDOW, machines, vec![shard])
        .with_integrity(integrity_policy(&setup.target.layout))
        .finish()
        .expect("offline health replay");
    let health_us = micros(t, Instant::now());
    assert_eq!(
        health.machines_seen, machines as u64,
        "replay saw every machine"
    );
    let t = Instant::now();
    let profile = PhaseProfile::from_json_lines(&text).expect("phase profile from the shard");
    let phase_us = micros(t, Instant::now());
    black_box(profile);
    TelemetryCosts {
        shard_bytes: text.len() as f64 / machines as f64,
        parse_us: per_machine(parse_us),
        health_replay_us: per_machine(health_us),
        phase_profile_us: per_machine(phase_us),
    }
}

/// Run the traced breakdown and render it as a JSON object: `metrics`
/// (name → value and unit), `sim_ns` (the first replayed machine's simulated
/// stage times) and the reconciliation figures.
pub(crate) fn run(setup: &Setup, config: &FleetConfig, cold: &Campaign, work_dir: &Path) -> String {
    let machines = config.machines;
    let cold_root = cold.report.digest_root();

    // 1. Telemetry over streamed shards.
    let stream_dir = if let Some(dir) = &config.stream_dir {
        dir.clone()
    } else {
        let dir = work_dir.join("stream");
        let streamed = campaign(setup, &config.clone().with_stream_dir(&dir));
        assert_eq!(
            streamed.report.digest_root(),
            cold_root,
            "streamed re-run root"
        );
        dir
    };
    let tel = telemetry(&stream_dir, setup, machines);
    let report_json_us = median_us(5, || {
        black_box(cold.report.to_json());
    });

    // 2. Warm heap: the same campaign again in this process.
    let warm = campaign(setup, config);
    assert_eq!(warm.report.digest_root(), cold_root, "warm campaign root");

    // 3. The traced replay.
    let replay = replay(setup, config.seed, machines);
    let self_us = replay.self_us_per_machine;
    let glue_us = replay.wall_us_per_machine - self_us;
    let warm_us = warm.wall_us_per_machine();
    let reconciled = replay.root == cold_root
        && replay.all_identical
        && replay.sim_patch_p50_ns == cold.report.latency_p50.as_ns()
        && glue_us >= -0.01 * replay.wall_us_per_machine
        && glue_us <= 0.05 * replay.wall_us_per_machine;

    // 4. Crypto calibration at the workload's sizes.
    let params = DhParams::default_group();
    let mut entropy = [0u8; 32];
    let modpow_us = median_us(25, || {
        entropy[0] = entropy[0].wrapping_add(1);
        black_box(DhKeyPair::from_entropy(&params, &entropy).expect("32 entropy bytes"));
    });
    let bundle_len = setup.bytes.len();
    let sha_mib_s = mib_per_s(bundle_len, |buf| {
        black_box(sha256(buf));
    });
    let chacha_mib_s = mib_per_s(bundle_len, |buf| {
        ChaCha20::new(&[7; 32], &[9; 12]).apply(buf);
    });
    // Bytes through each primitive per patch, by pass over the data:
    // ChaCha20 — server seal and enclave open of the encoded bundle,
    // enclave seal and SMM open of the staged package. SHA-256
    // (including HMAC) — cache-hit key, server encode hash, HMAC on seal
    // and on open, enclave decode hash (encoded bundle, five passes);
    // per-entry payload hashes in preprocessing; HMAC on the staged
    // frame at seal and at open; SMM verify.
    let encoded = bundle_len as u64;
    let staged = replay.bytes.staged;
    let payload = replay.first_report.payload_size as u64;
    let chacha_bytes = 2 * encoded + 2 * staged;
    let sha_bytes = 5 * encoded + payload + 2 * staged + replay.bytes.verified;

    let occupancy = cold.report.worker_occupancy[0];
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (layer, samples) in &replay.layers.0 {
        metrics.push((format!("{layer}.p50"), quantile(samples, 0.5), "us"));
        metrics.push((format!("{layer}.p99"), quantile(samples, 0.99), "us"));
    }
    metrics.extend(
        [
            ("trace.machines", machines as f64, "count"),
            (
                "trace.wall_us_per_machine",
                replay.wall_us_per_machine,
                "us",
            ),
            ("trace.self_us_per_machine", self_us, "us"),
            (
                "trace.overhead_pct",
                (replay.wall_us_per_machine - warm_us) / warm_us * 100.0,
                "%",
            ),
            ("fleet.unattributed_us", warm_us - self_us, "us"),
            ("fleet.warm_wall_us_per_machine", warm_us, "us"),
            (
                "fleet.worker_busy_frac",
                occupancy.busy_fraction(),
                "fraction",
            ),
            // Busy rather than in-flight time: in flight is exactly 0 on
            // the zero-RTT workloads; it is busy / busy_frac - busy.
            (
                "fleet.worker_busy_ms",
                occupancy.busy.as_secs_f64() * 1e3,
                "ms",
            ),
            ("fleet.report_json_us", report_json_us, "us"),
            (
                "patchserver.cache_hits",
                cold.report.cache_hits as f64,
                "count",
            ),
            (
                "patchserver.cache_misses",
                cold.report.cache_misses as f64,
                "count",
            ),
            ("crypto.dh_modpow_us", modpow_us, "us"),
            (
                "crypto.dh_modpows_per_patch",
                DH_MODPOWS_PER_PATCH as f64,
                "count",
            ),
            ("crypto.sha256_mib_s", sha_mib_s, "MiB/s"),
            ("crypto.chacha_mib_s", chacha_mib_s, "MiB/s"),
            ("crypto.sha256_bytes_per_patch", sha_bytes as f64, "B"),
            ("crypto.chacha_bytes_per_patch", chacha_bytes as f64, "B"),
            ("telemetry.shard_bytes_per_machine", tel.shard_bytes, "B"),
            ("telemetry.shard_parse_us", tel.parse_us, "us"),
            ("telemetry.health_replay_us", tel.health_replay_us, "us"),
            ("telemetry.phase_profile_us", tel.phase_profile_us, "us"),
        ]
        .map(|(name, v, unit)| (name.to_string(), v, unit)),
    );

    let r = &replay.first_report;
    let sim = [
        ("sgx_fetch", r.sgx.fetch),
        ("sgx_preprocess", r.sgx.preprocess),
        ("sgx_pass", r.sgx.pass),
        ("smm_switch_in", r.smm.switch_in),
        ("smm_keygen", r.smm.keygen),
        ("smm_decrypt", r.smm.decrypt),
        ("smm_verify", r.smm.verify),
        ("smm_apply", r.smm.apply),
        ("smm_switch_out", r.smm.switch_out),
        ("smm_pause", r.smm.total()),
        ("patch_total", r.total()),
    ];

    let mut out = String::from("{\"metrics\":{");
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    out.push_str(&rendered.join(","));
    out.push_str("},\"sim_ns\":{");
    let rendered: Vec<String> = sim
        .iter()
        .map(|(k, t)| format!("\"{k}\":{}", t.as_ns()))
        .collect();
    out.push_str(&rendered.join(","));
    write!(
        out,
        "}},\"replay_root\":\"{}\",\"glue_us\":{glue_us},\"reconciled\":{reconciled}}}",
        digest_hex(&replay.root)
    )
    .expect("write to a String");
    out
}
