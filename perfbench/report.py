#!/usr/bin/env python3
"""Run every workload over several seeds and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seeds 10 \
        [--workloads check_session ...] [--baseline perfbench/baseline.json]

For each workload it runs ``run.py`` once per seed with tracing off, for
the ``run_seconds`` of BENCHMARK.json, and prints, for every end-to-end
metric, the median, the quartiles and the spread (distance between the
quartiles as a share of the median) next to the bound in BENCHMARK.json.
It then runs the traced replay twice on one seed, prints the median of
every per-layer metric with the end-to-end metric it should move, and
checks that every count repeats exactly.  The gate outcome of every run is printed too.
``--baseline`` writes the medians, the machine record and the layer map
as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

RUN_TIMEOUT_S = 300
TRACED_RUNS = 2     # enough to see a count that does not repeat


def run_once(workload, seed, seconds, trace):
    """One run.py invocation: (result, record, gate lines)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    gates = [line for line in lines if line.startswith("gate ")]
    return json.loads(lines[-1]), record, gates


def spread(values):
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {"workloads": {}, "layer_map": {
        name: {"unit": unit, "measured_from": src, "should_move": moves}
        for name, unit, _, src, moves in tracing.PER_LAYER}}
    ok = True
    for workload in args.workloads:
        why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
        print(f"\n== {workload}: {why}")
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        results = []
        for seed in seeds:
            result, record, gates = run_once(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            env = record.get("env", {})
            failed = [g for g in gates if "FAIL" in g]
            print(f"  seed {seed}: {result['attempted']} ops, {result['failed']} "
                  f"failed, {record['measured_s']:.1f} s measured"
                  + "".join(f"\n    {g}" for g in failed))
            ok &= result["correct"]
        entry = {"runs": len(results), "end_to_end": {}, "per_layer": {},
                 "notes": record.get("notes", {})}
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}  unit")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, rel = spread(values)
            steady = rel < m["bound"] / 3
            print(f"  {name:<14}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel:>9.2%}"
                  f"{m['bound']:>8.0%}  {m['unit']}{'' if steady else '  UNSTEADY'}")
            entry["end_to_end"][name] = {"median": q2, "q1": q1, "q3": q3,
                                         "spread": rel, "unit": m["unit"]}
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  fail_ratio = {failed}/{attempted}")
        entry["fail_ratio"] = failed / attempted

        traced = [run_once(workload, args.first_seed, spec["run_seconds"], 1)
                  for _ in range(TRACED_RUNS)]
        print(f"  per-layer metrics, median of {len(traced)} traced runs "
              f"of seed {args.first_seed}:")
        for name, unit, _, _, moves in tracing.PER_LAYER:
            values = [t[0]["metrics"][name]["value"] for t in traced]
            mark = ""
            if unit == "count" and len(set(values)) > 1:
                mark, ok = "  COUNTS DIFFER", False
            print(f"    {name:<44}{median(values):>14.6g} {unit:<6}"
                  f"-> {moves}{mark}")
            entry["per_layer"][name] = median(values)
            ok &= all(t[0]["correct"] for t in traced)
        baseline["workloads"][workload] = entry
    baseline["machine"] = env
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
