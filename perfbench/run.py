#!/usr/bin/env python3
"""Run one workload of the hydrobrackets benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check_session --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh interpreters, then the operations of one session of the
workload over and over, in order, for ``--seconds`` (at least one whole
session); a session's time is the sum of its operations' median times,
each operation timed without its gate.  ``--trace 1`` replays one session
in this process five times: once to warm up, then untraced, traced twice
with per-layer wrappers installed (see tracing.py) and untraced again, and
reports the per-layer metrics of the last traced replay.  Every operation
is gated against its known answer either way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment record, the gate outcome per operation and every
metric with its unit.
"""

import os

# pinned before numpy loads here, and inherited by every child process
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)
os.environ.pop("HYDROBRACKETS_THREADS", None)

import argparse          # noqa: E402
import itertools         # noqa: E402
import json              # noqa: E402
import platform          # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import time              # noqa: E402
from functools import partial    # noqa: E402
from importlib import metadata   # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median    # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# (name, unit, better); bounds live in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "1", "higher"),
)


def child_env(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SRC, *extra))
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(interpreter_s):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
        "thread_vars": {**THREAD_VARS, "HYDROBRACKETS_THREADS": None},
        "cli.interpreter_s": interpreter_s,
    }


def setup_command(workload, seed):
    """The fresh-interpreter start-up a user of the workload pays."""
    if workload == "generated_api":
        return [sys.executable, "-c",
                "import hydrobrackets, generator\n"
                f"for doc, _ in generator.generate({seed}):\n"
                "    hydrobrackets.parse_document(doc)"]
    return [sys.executable, "-c", "import hydrobrackets.cli"]


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def session_ops(workload, seed, workdir, ledger, main=None):
    """One session as ``(name, run)`` pairs in order; ``run()`` does and gates
    one operation (for generated_api, one generated system) and returns its
    (wall s, CPU s)."""
    import workloads as wl
    if workload == "generated_api":
        import generator
        return [(doc["name"], partial(wl.run_api_system, doc, expected, ledger))
                for doc, expected in generator.generate(seed)]
    env = child_env()
    return [(op.name, partial(wl.run_cli_op, op, workdir, ledger, env=env, main=main))
            for op in wl.CLI_WORKLOADS[workload](seed)]


def end_to_end(workload, seed, seconds, workdir, ledger):
    import tracing
    env = child_env(BENCH)
    interpreter_s = tracing.interpreter_s(env, workdir)
    setup_s = tracing.child_seconds(setup_command(workload, seed), env, workdir)
    if workload == "generated_api":
        import hydrobrackets  # noqa: F401  (paid in setup_s by the user)
    ops = session_ops(workload, seed, workdir, ledger)
    walls = {name: [] for name, _ in ops}
    cpus = {name: [] for name, _ in ops}
    begin = time.perf_counter()
    for k in itertools.count():
        name, run_op = ops[k % len(ops)]
        # one whole session first, then no operation expected to end late
        if k >= len(ops) and time.perf_counter() - begin + median(walls[name]) > seconds:
            break
        wall, cpu = run_op()
        walls[name].append(wall)
        cpus[name].append(cpu)
    # a session's time, from the median time of each of its operations
    metrics = {
        "wall_s": sum(median(v) for v in walls.values()),
        "cpu_s": sum(median(v) for v in cpus.values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "pass_ratio": 1.0 - ledger.failed / ledger.attempted,
    }
    record = {"op_wall_s": walls, "op_cpu_s": cpus,
              "measured_s": time.perf_counter() - begin}
    return metrics, environment(interpreter_s), record


def traced(workload, seed, workdir, ledger):
    import tracing
    import hydrobrackets.cli as cli
    env = child_env()
    costs = tracing.cli_costs(env, workdir)
    ops = session_ops(workload, seed, workdir, ledger, main=cli.main)

    def replay(tracer=None):
        """Wall time of one session, traced if ``tracer`` is given."""
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            for _, run_op in ops:
                run_op()
            return time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
    replay()    # pays first-call costs, so every timed replay runs warm
    # untraced, traced, traced, untraced: a steady drift of the machine's
    # speed cancels out of the difference
    tracers = (tracing.Tracer(), tracing.Tracer())
    untraced_s = [replay()]
    traced_s = [replay(t) for t in tracers]
    untraced_s.append(replay())
    layers = {**costs, **tracers[-1].layer_metrics(),
              "trace.overhead_s": (sum(traced_s) - sum(untraced_s)) / 2}
    metrics = {name: layers[name] for name, *_ in tracing.PER_LAYER}
    record = {"untraced_s": untraced_s, "traced_s": traced_s,
              "spans": len(tracers[-1].start)}
    return metrics, environment(costs["cli.interpreter_s"]), record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hydrobrackets" / "cli.py").is_file():
        print(f"error: no hydrobrackets sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tracing
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = wl.Ledger()
    try:
        if args.trace:
            metrics, env, record = traced(args.workload, args.seed, workdir, ledger)
        else:
            metrics, env, record = end_to_end(args.workload, args.seed,
                                              args.seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {name: unit for name, unit, *_ in END_TO_END + tracing.PER_LAYER}

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (attempted, failed, first) in sorted(ledger.by_op.items()):
        status = "pass" if not failed else f"FAIL ({first})"
        print(f"gate {name}: {attempted - failed}/{attempted} {status}")
    for key, value in sorted(ledger.notes.items()):
        print(f"note {key} = {value!r}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"fail_ratio = {ledger.failed}/{ledger.attempted}")
    print("record " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "env": env,
                                  "notes": ledger.notes, **record},
                                 sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
