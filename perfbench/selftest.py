#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Determinism: one episode of mw_mini_sn and of sn_storm_p4 is run twice
   with one seed and once with another (perfbench --counts). Every exact
   work count (interactions, comm bytes and messages, sub-steps, regions
   sent, limiter wakes, the final-state hash) must repeat for the same seed,
   and the seed-driven ones must change with the seed. The step count,
   regions sent and received and the tree builds of mw_mini_sn are fixed by
   the workload design (one progenitor per clump, one SN per step), so they
   are only required to repeat.
2. Reporting: a short service_fleet run at --trace 0 and --trace 1 must
   pass run.py's checks (every metric the workload reports is declared in
   BENCHMARK.json with its unit, and every declared one is reported unless
   its layer is one the workload names idle) and leave loadable trace-event
   JSON. The idle layers must be exactly the per-layer metrics that read 0
   by design, so a layer that stops reporting cannot hide behind them.

Exit code 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark runner: build() and paths)

MUST_CHANGE = {
    "mw_mini_sn": ("gravity_interactions", "sph_interactions", "state_hash"),
    "sn_storm_p4": ("gravity_interactions", "sph_interactions", "comm_bytes", "comm_messages", "substeps",
                    "limiter_wakes", "state_hash"),
}


def counts(binary, workload, seed):
    proc = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed), "--counts"],
                          stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not report["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed: {report.get('failures')}")
    return report["counts"]


def check_determinism(binary, problems):
    for workload, must_change in MUST_CHANGE.items():
        a, b, c = counts(binary, workload, 11), counts(binary, workload, 11), counts(binary, workload, 12)
        print(f"{workload}:")
        for name in a:
            print(f"  {name:22s} seed 11: {a[name]:>22d} {b[name]:>22d}   seed 12: {c[name]:>22d}")
            if a[name] != b[name]:
                problems.append(f"{workload}: {name} differs between two runs with one seed")
            if name in must_change and a[name] == c[name]:
                problems.append(f"{workload}: {name} did not change with the seed")


def check_reporting(problems):
    declared = run.declared_metrics()
    for trace in (0, 1):
        proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", "service_fleet", "--seed", "5",
                               "--seconds", "2", "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=2 * run.RUN_TIMEOUT_S)
        if proc.returncode != 0:
            problems.append(f"service_fleet --trace {trace} failed (exit {proc.returncode})")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        key = "per_layer" if trace else "end_to_end"
        if not result["correct"] or set(result["metrics"]) != set(declared[key]):
            problems.append(f"service_fleet --trace {trace}: incorrect or incomplete result")
        if trace:
            record = json.loads((run.ROOT / ".bench_out" / "service_fleet-seed5-trace1.json").read_text())
            idle = record["idle_layers"]
            zero = [n for n, m in result["metrics"].items() if n not in record["per_layer"]]
            used = [layer for layer in idle if not any(n == layer or n.startswith(layer + ".") for n in zero)]
            if used:
                problems.append(f"idle layers {used} match no unreported metric")
        print(f"--trace {trace}: {len(result['metrics'])} metrics, as BENCHMARK.json {key} declares")


def main():
    binary = run.build()
    problems = []
    check_determinism(binary, problems)
    check_reporting(problems)
    for p in problems:
        print(f"FAILED: {p}")
    print("selftest:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
