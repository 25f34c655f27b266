#!/usr/bin/env python3
"""End-to-end benchmark of the asura library.

    python3 perfbench/run.py --workload mw_mini_sn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build on
first use, runs the requested workload, checks its outputs and prints a
metric table followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the spans are written as Chrome trace-event JSON
(load it in chrome://tracing or ui.perfetto.dev). Every run also writes a
fingerprinted record (host, compiler, ISA, OpenMP widths, source digest,
load average) to .bench_out/. A run whose window saw more host steal than
the bounds in BENCHMARK.json were shown to hold under is flagged as not
comparable, in the table, the record and on stderr. The exit code is 0 only
if every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mw_mini_sn", "sn_storm_p4", "service_fleet")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then (re)build the perfbench target; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core" / "simulation.hpp").is_file():
        fail(f"the asura sources are not next to {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    out = build_dir()
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return out / "perfbench"


def source_digest():
    """sha256 over the files the benchmark builds from (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "tests" / "ic_fixtures.hpp"]
    for sub in ("src", "tools", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def declared_metrics():
    """name -> unit of the end_to_end and per_layer metrics BENCHMARK.json declares."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric declarations in BENCHMARK.json ({e})")


def declared_view(report, trace, declared):
    """The run's metrics in BENCHMARK.json order. A metric that is not
    declared, or has another unit, or a declared one the workload did not
    report, is an error of the benchmark; the only exception are per-layer
    metrics of the layers the workload names idle, which read 0."""
    key = "per_layer" if trace else "end_to_end"
    got, want = report[key], declared[key]
    for name, m in got.items():
        if want.get(name) != m["unit"]:
            fail(f"{report['workload']} reported {name} [{m['unit']}], which BENCHMARK.json {key} does not declare")
    idle = report.get("idle_layers", [])
    view = {}
    for name, unit in want.items():
        if name in got:
            view[name] = got[name]
        elif trace and any(name == layer or name.startswith(layer + ".") for layer in idle):
            view[name] = {"value": 0.0, "unit": unit}
        else:
            fail(f"{report['workload']} did not report {name}, and it is not in an idle layer")
    return view


def check_trace(path):
    """A traced run must leave loadable trace-event JSON with complete spans."""
    try:
        doc = json.loads(Path(path).read_text())
        events = doc["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        ok = bool(spans) and all(
            isinstance(e["name"], str) and e["dur"] >= 0 and e["ts"] >= 0 and "self_us" in e["args"] for e in spans
        )
        return None if ok else f"{path}: no spans or malformed span"
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"{path}: not valid trace-event JSON ({e})"


def run_one(binary, workload, seed, seconds, trace, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} exited with code {proc.returncode} and no report")
    report = json.loads(lines[-1])
    if trace:
        bad = check_trace(report["info"]["trace_file"])
        if bad:
            report["correct"] = False
            report["failures"].append(bad)
    report["fingerprint"].update(
        {"git_commit": git_commit(), "source_sha256": source_digest(),
         "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    # The workload tells whether host steal during its window stayed low
    # enough for the bounds in BENCHMARK.json to hold (perfbench kStealLimit).
    report["comparable"] = report["info"]["comparable"]
    if not report["comparable"]:
        print(f"perfbench: {workload}: host steal was too high while it measured; "
              "its wall-clock figures are not comparable with other runs", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps(report, indent=1) + "\n")
    return report, record


def print_table(report, record, metrics):
    info = report["info"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"correct {report['correct']}  attempted {report['attempted']}  failed {report['failed']}  "
          f"host steal {100 * info['steal_frac']:.1f}%  comparable {report['comparable']}")
    for f in report["failures"]:
        print(f"  FAILED: {f}")
    for name, m in metrics.items():
        note = ""
        if name == "step_ms_tail":
            note = f"  (p{info['step_ms_tail_percentile']:.1f} of {info['step_samples']} steps)"
        elif name == "query_ms_tail":
            note = f"  (p{info['query_ms_tail_percentile']:.1f} of {info['query_samples']} queries)"
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  record: {record}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = declared_metrics()
    binary = build()
    out_dir = ROOT / ".bench_out"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        report, record = run_one(binary, w, args.seed, args.seconds, args.trace, out_dir)
        metrics = declared_view(report, args.trace, declared)
        print_table(report, record, metrics)
        result["correct"] = result["correct"] and report["correct"]
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = "" if len(workloads) == 1 else f"{w}."
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
