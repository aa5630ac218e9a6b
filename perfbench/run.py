#!/usr/bin/env python3
"""Fleet patch-cost benchmark for the KShot reproduction.

    python3 perfbench/run.py --workload fold_small --seed 1 --seconds 10 --trace 0

Builds the `kshot-perfbench` sampler (perfbench/Cargo.toml) in release
mode, then spawns one fresh sampler process after another for
`--seconds` seconds. Each sample sets up, runs the workload's campaign
once (cold heap) and reports its outputs; every sample is checked
against perfbench/pinned.json. The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` machines, and the
median of each metric over the samples — the end-to-end metrics with
`--trace 0`, the per-layer breakdown with `--trace 1`.

Exits non-zero, without a result line, when the sampler cannot be built;
exits 1, after a result line with `"correct": false`, when a sample fails
a machine, diverges, or misses a pinned value.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fold_small", "fold_large", "retained_observed", "pipelined_rtt")
# The untraced metrics, as (sample field, unit).
END_TO_END = (("setup_s", "s"), ("wall_us_per_machine", "us"), ("peak_rss_mib", "MiB"))
# Fewest samples a run reports a median over, however short --seconds is.
MIN_SAMPLES = {False: 5, True: 1}
SAMPLE_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the sampler and return its path; exit 3 if that fails."""
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        built = subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        built = False
    if not built:
        log("perfbench: building the sampler failed")
        sys.exit(3)
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is ours.
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target").resolve()
    return target / "release" / "kshot-perfbench"


def run_sample(binary, workload, seed, trace, index):
    work = HERE / ".work" / f"{os.getpid()}-{index}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--work-dir", str(work)]
    if trace:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"sample {index} timed out after {SAMPLE_TIMEOUT_S} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        return None, f"sample {index} exited {done.returncode}:\n{done.stderr[-4000:]}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def check(sample, pinned, trace):
    """Every reason `sample` is wrong, as strings (empty when correct)."""
    errors = []
    if sample["failed"] or sample["succeeded"] != pinned["machines"]:
        errors.append(f"{sample['failed']} of {sample['machines']} machines failed")
    if not sample["identical_digests"]:
        errors.append("applied-state digests diverged")
    for key in ("digest_root", "sim_patch_ns_p50", "sim_smm_pause_ns_max"):
        if sample[key] != pinned[key]:
            errors.append(f"{key} {sample[key]} != pinned {pinned[key]}")
    if sample.get("health_verdict", "healthy") != "healthy":
        errors.append(f"health verdict {sample['health_verdict']}")
    if sample.get("integrity_violations", 0):
        errors.append(f"{sample['integrity_violations']} integrity violations")
    if trace:
        layers = sample["layers"]
        if layers["replay_root"] != pinned["digest_root"]:
            errors.append("traced replay root differs from the campaign root")
        if not layers["reconciled"]:
            errors.append(f"traced replay does not reconcile (glue {layers['glue_us']:.1f} us)")
    return errors


def simulator_error(sample, reference):
    """Simulated SGX time and SMM pause against the reference figures."""
    pause_us = sample["sim_smm_pause_ns_max"] / 1e3
    sgx_us = sample["sim_patch_ns_p50"] / 1e3 - pause_us
    return (
        f"simulator vs {reference['source']}: "
        f"SGX {sgx_us:.1f} us vs {reference['sgx_us']} us "
        f"({(sgx_us / reference['sgx_us'] - 1) * 100:+.2f}%), "
        f"SMM pause {pause_us:.3f} us vs {reference['smm_pause_us']} us "
        f"({(pause_us / reference['smm_pause_us'] - 1) * 100:+.2f}%)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    trace = bool(args.trace)
    pinned = json.loads((HERE / "pinned.json").read_text())[args.workload]

    binary = build()
    samples, errors = [], []
    started = time.monotonic()
    while not errors and (
        len(samples) < MIN_SAMPLES[trace] or time.monotonic() - started < args.seconds
    ):
        sample, error = run_sample(binary, args.workload, args.seed, trace, len(samples))
        if error:
            errors.append(error)
            break
        errors.extend(check(sample, pinned, trace))
        samples.append(sample)
    shutil.rmtree(HERE / ".work", ignore_errors=True)

    if trace:
        declared = samples[0]["layers"]["metrics"] if samples else {}
        metrics = {
            name: {
                "value": statistics.median(s["layers"]["metrics"][name]["value"] for s in samples),
                "unit": m["unit"],
            }
            for name, m in declared.items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(s[name] for s in samples) if samples else 0.0, "unit": unit}
            for name, unit in END_TO_END
        }

    if samples:
        first = samples[0]
        log(f"{args.workload}: {len(samples)} samples of {first['machines']} machines, "
            f"bundle {first['bundle_bytes']} B, root {first['digest_root'][:16]}..")
        log(f"sim_patch_us.p50 {first['sim_patch_ns_p50'] / 1e3:.3f}  "
            f"sim_smm_pause_us.max {first['sim_smm_pause_ns_max'] / 1e3:.3f}")
        log(simulator_error(first, pinned["reference"]))
        log("wall_us_per_machine by sample: "
            + " ".join(f"{s['wall_us_per_machine']:.0f}" for s in samples))
        if trace:
            layers = first["layers"]
            log("simulated stage times (ns): " + json.dumps(layers["sim_ns"]))
            m = {name: v["value"] for name, v in layers["metrics"].items()}
            log(f"reconciliation (us/machine): traced wall {m['trace.wall_us_per_machine']:.1f} = "
                f"self {m['trace.self_us_per_machine']:.1f} + glue {layers['glue_us']:.1f}; "
                f"warm untraced wall {m['fleet.warm_wall_us_per_machine']:.1f} = "
                f"self + unattributed {m['fleet.unattributed_us']:.1f}")
    for error in errors:
        log(f"perfbench: FAILED: {error}")

    attempted = sum(s["machines"] for s in samples) or 1
    failed = sum(s["failed"] for s in samples) if samples else attempted
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
