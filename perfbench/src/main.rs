//! One sample of the fleet patch-cost benchmark, in a fresh process.
//!
//! ```text
//! kshot-perfbench --workload <name> --seed <n> --work-dir <dir> [--trace]
//! ```
//!
//! A sample sets the workload up (link the target image, boot the
//! reference machine, build and encode the bundle), runs the workload's
//! campaign once — cold, the first campaign of the process — and prints
//! one JSON object on its last line of standard output. With `--trace`
//! it then runs the per-layer breakdown (see `trace.rs`) in the same
//! process and adds a `"layers"` object. `perfbench/run.py` spawns
//! samples, checks them against `perfbench/pinned.json` and aggregates.
//!
//! The program is a black box here: the sample calls `run_campaign` and
//! the public per-machine functions, and times every call from this
//! crate. It adds no instrumentation to the program.

mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kshot::bench_setup::synthetic_bundle;
use kshot::cve::{find, patch_for};
use kshot::fleet::{
    run_campaign, CampaignReport, CampaignTarget, FleetConfig, HealthPolicy, IntegrityPolicy,
};
use kshot::machine::{MemLayout, SimTime};
use kshot::telemetry::merkle::digest_hex;

/// The CVE every workload patches (EXPERIMENTS.md, Figures 4 & 5).
const CVE: &str = "CVE-2017-17806";
/// Payload of the `fold_large` synthetic bundle.
const LARGE_BUNDLE_BYTES: usize = 1 << 20;
/// Link RTT and pipeline depth of `pipelined_rtt` (the `BENCH_fleet.json`
/// "pipelined" shape).
const PIPELINED_RTT: Duration = Duration::from_millis(60);
const PIPELINED_DEPTH: usize = 16;
/// Health window of `retained_observed`, in machines.
pub(crate) const HEALTH_WINDOW: usize = 8;

/// The four campaign shapes. Every one runs on a single worker thread.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    FoldSmall,
    FoldLarge,
    RetainedObserved,
    PipelinedRtt,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "fold_small" => Workload::FoldSmall,
            "fold_large" => Workload::FoldLarge,
            "retained_observed" => Workload::RetainedObserved,
            "pipelined_rtt" => Workload::PipelinedRtt,
            _ => return None,
        })
    }

    /// Machines per campaign: fixed per workload, the same on every run.
    fn machines(self) -> usize {
        match self {
            Workload::FoldSmall => 200,
            Workload::FoldLarge => 24,
            Workload::RetainedObserved => 160,
            Workload::PipelinedRtt => 128,
        }
    }

    /// The campaign configuration. `stream_dir` is where a streaming
    /// campaign writes its shards.
    fn config(self, seed: u64, stream_dir: &Path, layout: &MemLayout) -> FleetConfig {
        let base = FleetConfig::new(self.machines(), 1).with_seed(seed);
        match self {
            Workload::FoldSmall | Workload::FoldLarge => base.with_outcome_fold(),
            Workload::RetainedObserved => base
                .with_stream_dir(stream_dir)
                .with_health(HealthPolicy::new(), HEALTH_WINDOW)
                .with_integrity(integrity_policy(layout)),
            Workload::PipelinedRtt => base
                .with_link_rtt(PIPELINED_RTT)
                .with_pipeline_depth(PIPELINED_DEPTH)
                .with_outcome_fold(),
        }
    }
}

/// The per-SMI invariants the integrity monitor replays: the sealed
/// handler measurement and the machine's legitimate physical extents.
pub(crate) fn integrity_policy(layout: &MemLayout) -> IntegrityPolicy {
    IntegrityPolicy::new()
        .with_expected_measurement(kshot::core::expected_handler_measurement())
        .with_allowed_extent(layout.smram_base, layout.smram_size)
        .with_allowed_extent(layout.kernel_text_base, layout.kernel_text_size)
        .with_allowed_extent(layout.kernel_data_base, layout.kernel_data_size)
        .with_allowed_extent(layout.reserved_base, layout.reserved_size)
}

/// Everything a campaign needs, built before the clock starts.
pub(crate) struct Setup {
    pub(crate) target: CampaignTarget,
    pub(crate) bytes: Vec<u8>,
    seconds: f64,
}

fn setup(workload: Workload) -> Setup {
    let started = Instant::now();
    let spec = find(CVE).expect("benchmark CVE exists");
    let (target, server) = CampaignTarget::benchmark(spec.version);
    // The reference machine supplies the KernelInfo the server builds
    // against; it is dropped before any campaign runs.
    let info = target.boot_one().info();
    let bytes = match workload {
        Workload::FoldLarge => {
            synthetic_bundle("PERF-1MiB", spec.version, LARGE_BUNDLE_BYTES).encode()
        }
        _ => server
            .build_patch(&info, &patch_for(spec))
            .expect("server builds the CVE patch")
            .bundle
            .encode(),
    };
    Setup {
        target,
        bytes,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Forget the process's resident high-water mark, so the next reading
/// covers only what runs after this call.
fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the peak RSS mark");
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Longest simulated SMM dwell across the fleet.
fn max_smm_pause(report: &CampaignReport) -> SimTime {
    match &report.fold {
        Some(fold) => fold.max_smm_dwell,
        None => report
            .outcomes
            .iter()
            .map(|o| o.max_smm_dwell)
            .max()
            .unwrap_or(SimTime::ZERO),
    }
}

/// One timed campaign and the outputs the runner checks.
pub(crate) struct Campaign {
    pub(crate) report: CampaignReport,
    wall: Duration,
    peak_rss_mib: f64,
}

impl Campaign {
    pub(crate) fn wall_us_per_machine(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.report.machines as f64
    }
}

pub(crate) fn campaign(setup: &Setup, config: &FleetConfig) -> Campaign {
    if let Some(dir) = &config.stream_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the stream directory");
    }
    reset_peak_rss();
    let started = Instant::now();
    let report = run_campaign(&setup.target, &setup.bytes, config);
    let wall = started.elapsed();
    Campaign {
        report,
        wall,
        peak_rss_mib: peak_rss_mib(),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    work_dir: PathBuf,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut work_dir = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--trace" => trace = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("kshot-perfbench: {e}");
        std::process::exit(2);
    });
    let setup = setup(args.workload);
    let config = args.workload.config(
        args.seed,
        &args.work_dir.join("campaign"),
        &setup.target.layout,
    );
    let cold = campaign(&setup, &config);
    let r = &cold.report;

    let mut json = String::new();
    write!(
        json,
        concat!(
            "{{\"machines\":{},\"succeeded\":{},\"failed\":{},",
            "\"identical_digests\":{},\"digest_root\":\"{}\",",
            "\"sim_patch_ns_p50\":{},\"sim_smm_pause_ns_max\":{},\"bundle_bytes\":{},",
            "\"setup_s\":{},\"wall_us_per_machine\":{},\"peak_rss_mib\":{}"
        ),
        r.machines,
        r.succeeded,
        r.failed,
        r.all_identical_digests(),
        digest_hex(&r.digest_root()),
        r.latency_p50.as_ns(),
        max_smm_pause(r).as_ns(),
        setup.bytes.len(),
        setup.seconds,
        cold.wall_us_per_machine(),
        cold.peak_rss_mib,
    )
    .expect("write to a String");
    // The monitor plane must judge a clean fleet clean.
    if let Some(health) = &r.health {
        write!(
            json,
            ",\"health_verdict\":\"{}\",\"integrity_violations\":{}",
            health.report.final_verdict().label(),
            r.integrity.as_ref().map_or(0, |i| i.violations),
        )
        .expect("write to a String");
    }
    if args.trace {
        let layers = trace::run(&setup, &config, &cold, &args.work_dir);
        write!(json, ",\"layers\":{layers}").expect("write to a String");
    }
    json.push('}');
    let _ = std::fs::remove_dir_all(&args.work_dir);
    println!("{json}");
}
