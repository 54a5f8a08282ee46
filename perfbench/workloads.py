"""The four workloads, their operations and how each operation is run.

One client runs the operations of a session in sequence (a closed loop).
CLI workloads start one ``python -m hydrobrackets.cli`` process per
command, as a user does; `generated_api` calls the public Python API in
the benchmark's own process.  The seed fixes the inputs: the command order
of the CLI sessions, the Jacobi functional seeds and the generated metrics.
An operation is timed alone: reading its output back and gating it happen
after the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gates

CHILD_TIMEOUT_S = 150
LARGE_BATCH = 2048
# disjoint blocks of 60 functional seeds (20 triples each); the benchmark's
# own tests check that every block gives the known Jacobi answers
JACOBI_SEEDS = (0, 60, 120, 180)


@dataclass
class Op:
    """One gated operation: a CLI command, or a classify call in-process."""

    name: str
    argv: list
    gate: Callable
    out: str | None = None     # file name of --out in the work directory


def _ordered(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def check_ops(seed):
    return _ordered([
        Op("examples", ["examples"], gates.examples),
        Op("check canonical", ["check", "canonical"],
           gates.check_report("DN_FLAT"), "check-canonical.json"),
        Op("check polar_plane", ["check", "polar_plane"],
           gates.check_report("DN_FLAT"), "check-polar_plane.json"),
        Op("check sphere", ["check", "sphere"],
           gates.check_report("MF_CONST_CURV", curvature=1.0), "check-sphere.json"),
        Op("check --class dn sphere", ["check", "--class", "dn", "sphere"],
           gates.check_report("NOT_A_BRACKET", code=2, failing="flatness"),
           "check-dn-sphere.json"),
        Op("check --class fer sphere_affinor",
           ["check", "--class", "fer", "sphere_affinor"],
           gates.check_report("FERAPONTOV"), "check-fer-sphere_affinor.json"),
        Op("flat-coords polar_plane", ["flat-coords", "polar_plane", "--grid", "64"],
           gates.flat_chart),
        Op("flat-coords canonical", ["flat-coords", "canonical", "--grid", "64"],
           gates.flat_chart),
    ], seed)


def jacobi_seed(seed):
    return JACOBI_SEEDS[seed % len(JACOBI_SEEDS)]


def jacobi_ops(seed):
    args = ["--seed", str(jacobi_seed(seed))]
    return _ordered([
        Op("jacobi polar_plane", ["jacobi", "polar_plane", *args],
           gates.jacobi(passes=True), "jacobi-polar_plane.json"),
        Op("jacobi sphere", ["jacobi", "sphere", *args],
           gates.jacobi(passes=False), "jacobi-sphere.json"),
    ], seed)


def hodograph_ops(seed):
    return _ordered([
        Op("hodograph hopf", ["hodograph", "hopf"], gates.hopf, "hopf.csv"),
        Op("hodograph shallow_water_riemann", ["hodograph", "shallow_water_riemann"],
           gates.shallow_water_riemann, "shallow_water_riemann.csv"),
    ], seed)


CLI_WORKLOADS = {
    "check_session": check_ops,
    "jacobi_sweep": jacobi_ops,
    "hodograph_session": hodograph_ops,
}
WORKLOADS = tuple(CLI_WORKLOADS) + ("generated_api",)


class Ledger:
    """Attempted and failed operations, first problems, notes and digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_op = {}
        self.notes = {}
        self.digests = {}

    def record(self, name, problems, notes=None, out_text=None):
        if out_text is not None:
            digest = hashlib.sha256(out_text.encode()).hexdigest()
            first = self.digests.setdefault(name, digest)
            if digest != first:
                problems = problems + ["--out differs from the first repeat"]
        self.attempted += 1
        self.failed += bool(problems)
        row = self.by_op.setdefault(name, [0, 0, None])
        row[0] += 1
        row[1] += bool(problems)
        if problems and row[2] is None:
            row[2] = "; ".join(problems)
        self.notes.update({f"{name}: {k}": v for k, v in (notes or {}).items()})


def _gate(gate, outcome):
    try:
        return gate(outcome)
    except Exception as err:        # a malformed output must not stop the run
        return [f"gate raised {err!r}"]


def _read(path):
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def cpu_now():
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _execute(argv, workdir, env, main):
    """(exit code, stdout) of one command, in a child or through ``main``."""
    if main is None:
        try:
            proc = subprocess.run([sys.executable, "-m", "hydrobrackets.cli", *argv],
                                  env=env, cwd=workdir, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            return None, ""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Exception as err:    # the op fails, the replay goes on
        code = f"raised {err!r}"
    return code, buf.getvalue()


def run_cli_op(op, workdir: Path, ledger: Ledger, *, env, main=None):
    """Run one command in a child process, or through ``main`` if given,
    gate it and return its (wall s, CPU s)."""
    argv = list(op.argv)
    out_path = workdir / op.out if op.out else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
        argv += ["--out", str(out_path)]
    c0, t0 = cpu_now(), time.perf_counter()
    code, stdout = _execute(argv, workdir, env, main)
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    out_text = _read(out_path) if out_path is not None else None
    outcome = gates.Outcome(code, stdout, out_text)
    ledger.record(op.name, _gate(op.gate, outcome), outcome.notes, out_text)
    return wall, cpu


def run_api_system(doc, expected, ledger: Ledger):
    """Parse one generated config, classify it cold at 64 samples, then
    again with warm tables at ``LARGE_BATCH`` samples; gate both and return
    the (wall s, CPU s) of the parse and the two classify calls.

    The API is looked up on every call, so an installed tracer sees it.
    """
    from hydrobrackets import config, verify
    gate = gates.classify_report(expected)
    name = f"N={len(doc['coords'])} c={expected['curvature']}"
    c0, t0 = cpu_now(), time.perf_counter()
    try:
        system = config.parse_document(doc).system
    except Exception as err:        # the op fails, the run goes on
        for stage in ("cold", "warm"):
            ledger.record(f"classify {stage} {name}", [f"config: {err!r}"])
        return time.perf_counter() - t0, cpu_now() - c0
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    for stage, samples in (("cold", 64), ("warm", LARGE_BATCH)):
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            report, problems = verify.classify(system, samples=samples), None
        except Exception as err:
            report, problems = None, [f"raised {err!r}"]
        wall, cpu = wall + time.perf_counter() - t0, cpu + cpu_now() - c0
        ledger.record(f"classify {stage} {name}", problems or _gate(gate, report))
    return wall, cpu
