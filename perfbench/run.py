#!/usr/bin/env python3
"""Benchmark entry point: builds the harness and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness (``perfbench/harness``) is
built with cargo into ``$CARGO_TARGET_DIR`` (default ``.bench_build``).

``--trace 0`` runs the workload once, with tracing off, and reports every
end-to-end metric of ``BENCHMARK.json``. ``--trace 1`` runs it twice, each in
its own process: once untraced (for the tracing overhead) and once with an
in-memory span subscriber, and reports every per-layer metric plus the
reconciliation table. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

Every workload's inputs come from a fixed seed, so every run of a build,
workload and length does identical work whatever its ``--seed`` (which is
recorded). Every run prints a work fingerprint; one that differs from an
earlier run's (kept in the build directory) makes the run incorrect rather
than noisy. The traced run must match the untraced one too.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Process-global knobs of the library crates; timed runs scrub them so the
# library defaults apply.
SCRUBBED = [
    "SO_THREADS",
    "SO_STORAGE",
    "SO_SCHEDULE",
    "SO_COMPACT_THRESHOLD",
    "SO_FLIGHT_CAP",
    "SO_SLOWLOG_MICROS",
    "SO_TRACE",
    "SO_METRICS",
]

SERVE_CLASSES = ["count", "repeat", "probe", "bulk"]

# Per-layer metrics each workload measures. A workload reports the others
# as 0: that layer does no work there.
LAYERS = {
    "lp_attack": [
        "lp.pivots",
        "lp.us_per_pivot",
        "recon.decode_ms",
        "recon.queries_ms",
        "query.answer_all_ms",
        "recon.accuracy",
        "recon.residual_ratio",
    ]
    + [f"bench.unaccounted_frac.{c}" for c in ["decode", "decode_n16", "decode_n32"]],
    "serve_mixed": [
        f"{layer}.{c}"
        for layer in [
            "serve.server_us",
            "serve.wire_us",
            "serve.encode_us",
            "serve.decode_us",
            "analyze.lint_ms",
            "tenant.rows_scanned",
            "tenant.cache_hits",
        ]
        for c in SERVE_CLASSES
    ]
    + ["dp.eps_spent"]
    + [f"bench.unaccounted_frac.{c}" for c in SERVE_CLASSES],
    "table_churn": [
        "data.insert_us",
        "data.delete_us",
        "data.locate_live_us",
        "data.compact_ms",
        "data.compactions",
        "storage.scan_ms_per_atom",
        "query.repaired_rows_per_read",
        "query.segment_hits_per_read",
        "query.shortcut_atoms_per_read",
        "plan.atom_scans_per_read",
        "plan.cache_hits_per_read",
        "plan.nodes_evaluated_per_read",
        "analyze.relint_frac",
        "analyze.gate_overhead_ms",
    ]
    + [f"bench.unaccounted_frac.{c}" for c in ["read", "insert", "delete", "compact"]],
}
# Measured on every workload. `tail.main_p90_ms` is the main class's p90
# from the untraced run: reported, but not an end-to-end metric, because its
# ten-run spread on a shared 2-core host exceeded the largest bound (0.25)
# in half the ten-run batches.
COMMON_LAYERS = ["obs.trace_overhead_frac", "bench.unaccounted_frac", "tail.main_p90_ms"]

RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_rev():
    """The checkout's commit, read without leaving the checkout."""
    head = os.path.join(".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def build(env):
    started = time.monotonic()
    try:
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_BUDGET_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    if r.returncode != 0:
        fail("build failed", 2)
    return time.monotonic() - started


def run_harness(binary, args, traced, env, deadline):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
    ]
    try:
        r = subprocess.run(
            cmd,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within the run budget", 3)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0:
        fail(f"harness exited with {r.returncode}")
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("harness printed no report")


def check_fingerprint(ledger_path, key, fingerprint):
    """Records the fingerprint of `key`; False if an earlier run differs."""
    try:
        with open(ledger_path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, fingerprint)
    with open(ledger_path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    return seen == fingerprint


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(LAYERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = {m["name"] for m in spec["per_layer"]}
    measured = set(COMMON_LAYERS).union(*LAYERS.values())
    if declared != measured:
        fail(f"per-layer metrics of BENCHMARK.json and run.py differ: {sorted(declared ^ measured)}")

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build_s = build(env)
    binary = os.path.join(target, "release", "so-perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S

    reports = [run_harness(binary, args, False, env, deadline)]
    if args.trace:
        reports.append(run_harness(binary, args, True, env, deadline))
    timed, last = reports[0], reports[-1]

    ledger = os.path.join(target, "perfbench-fingerprints.json")
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{args.workload}|seconds={args.seconds}|build={build_id}"
    same_work = all(r["fingerprint"] == timed["fingerprint"] for r in reports)
    same_work = check_fingerprint(ledger, key, timed["fingerprint"]) and same_work

    if args.trace:
        values = {name: 0.0 for name in declared}
        for name in LAYERS[args.workload] + ["bench.unaccounted_frac"]:
            if last["metrics"].get(name) is None:
                fail(f"traced run did not report {name}")
            values[name] = last["metrics"][name]
        # Both rates are scaled to the reference host speed, which removes
        # most of the drift between the two processes; see README.md.
        values["obs.trace_overhead_frac"] = 1.0 - last["ops_per_s"] / timed["ops_per_s"]
        values["tail.main_p90_ms"] = timed["metrics"]["main_p90_ms"]
    else:
        values = {}
        for m in spec["end_to_end"]:
            v = timed["metrics"].get(m["name"])
            if v is None or not math.isfinite(v):
                fail(f"timed run did not report {m['name']}")
            values[m["name"]] = v

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    cfg = timed["config"]
    print(
        f"config: rev={git_rev()} available_parallelism={cfg['available_parallelism']} "
        f"storage={cfg['storage_engine']} plan_threads={cfg['plan_threads']} "
        f"compact_threshold={cfg['compact_threshold']} scrubbed={','.join(SCRUBBED)} "
        f"build_s={build_s:.1f}"
    )
    print(f"samples: {json.dumps(timed['samples'], sort_keys=True)}")
    print(f"work: {json.dumps(timed['work'], sort_keys=True)}")
    print(f"fingerprint: {timed['fingerprint']}" + ("" if same_work else " (DIFFERS from an earlier run)"))
    result = {
        "correct": failed == 0 and same_work,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
