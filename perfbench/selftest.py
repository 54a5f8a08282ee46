"""Tests of the benchmark itself: generator, gates, tracer and spec.

Run from the root of a checkout with

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test collection.  The
Jacobi test replays every Jacobi seed block the benchmark uses at the
default grid; the whole file takes about two minutes on two cores.
"""

import json
import math
import sys
from pathlib import Path

import pytest
import sympy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gates       # noqa: E402
import generator   # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads as wl   # noqa: E402
import hydrobrackets.cli as cli   # noqa: E402


def replay(ops, tmp_path, ledger=None):
    ledger = ledger or wl.Ledger()
    for op in ops:
        wl.run_cli_op(op, tmp_path, ledger, env=None, main=cli.main)
    return ledger


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


# --- generator ------------------------------------------------------------

def test_generator_is_deterministic_and_seed_dependent():
    def configs(seed):
        return json.dumps([doc for doc, _ in generator.generate(seed)]).encode()
    assert configs(7) == configs(7)
    assert len({configs(s) for s in range(20)}) == 20


def _gaussian_curvature(doc):
    """Gaussian curvature of a generated N=2 metric, by sympy, as a function."""
    u, v = sympy.symbols("u1 u2")
    names = {"u1": u, "u2": v, "c": doc["params"]["c"]}
    g11, g22 = (sympy.sympify(doc["g_upper"][i][i].replace("^", "**"), locals=names)
                for i in range(2))
    E, G = 1 / g11, 1 / g22           # lower metric E du^2 + G dv^2
    root = sympy.sqrt(E * G)
    K = -(sympy.diff(sympy.diff(G, u) / root, u)
          + sympy.diff(sympy.diff(E, v) / root, v)) / (2 * root)
    return sympy.lambdify((u, v), K, "math")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_curvature_matches_sympy_oracle(seed):
    two_dim = [(d, e) for d, e in generator.generate(seed) if len(d["coords"]) == 2]
    assert {e["verdict"] for _, e in two_dim} == {"DN_FLAT", "MF_CONST_CURV"}
    lo, hi = generator.BOX
    for doc, expected in two_dim:
        K = _gaussian_curvature(doc)
        for a, b in ((lo, lo), (hi, lo), (0.35, 0.5), (hi, hi)):
            assert K(a, b) == pytest.approx(expected["curvature"], abs=1e-9)


# --- jacobi seeds -----------------------------------------------------------

@pytest.mark.parametrize("seed", range(len(wl.JACOBI_SEEDS)))
def test_jacobi_known_answers_on_every_benchmark_seed(seed, tmp_path):
    ledger = replay(wl.jacobi_ops(seed), tmp_path)
    assert ledger.attempted == 2
    assert ledger.failed == 0, ledger.by_op


# --- gates count wrong answers ---------------------------------------------

def test_tampered_hopf_csv_is_a_failure(tmp_path):
    op = op_named(wl.hodograph_ops(0), "hodograph hopf")
    ledger = replay([op], tmp_path)
    assert ledger.failed == 0
    text = (tmp_path / op.out).read_text()
    rows = text.splitlines()
    cells = rows[100].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    rows[100] = ",".join(cells)
    assert gates.hopf(gates.Outcome(0, "", "\n".join(rows))) != []
    assert gates.hopf(gates.Outcome(0, "", text)) == []
    assert gates.hopf(gates.Outcome(0, "", text.replace("e-01,", "e-01x,", 1))) != []


def test_tampered_shallow_water_csv_is_a_failure(tmp_path):
    op = op_named(wl.hodograph_ops(0), "hodograph shallow_water_riemann")
    ledger = replay([op], tmp_path)
    assert ledger.failed == 0
    assert ledger.notes[f"{op.name}: flow_residual"] > gates.TOL_GOURSAT
    text = (tmp_path / op.out).read_text()
    rows = text.splitlines()
    k = 1 + 8 * 64 + 30                 # an interior spacetime point
    cells = rows[k].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)
    rows[k] = ",".join(cells)
    stdout = ("pde residual: max 1.0e-06 mean 1e-07 over 780 points\n"
              "solved 1088/1088 spacetime points\n")
    outcome = gates.Outcome(0, stdout, "\n".join(rows))
    assert any("from the CSV" in p for p in gates.shallow_water_riemann(outcome))


def test_flipped_expected_verdict_counts_in_fail_ratio(tmp_path):
    honest = op_named(wl.check_ops(0), "check sphere")
    flipped = wl.Op(honest.name, honest.argv, gates.check_report("DN_FLAT"),
                    honest.out)
    ledger = replay([honest, flipped], tmp_path)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_wrong_exit_code_and_missing_witness_are_failures(tmp_path):
    op = op_named(wl.check_ops(0), "check --class dn sphere")
    replay([op], tmp_path)
    text = (tmp_path / op.out).read_text()
    assert op.gate(gates.Outcome(2, "", text)) == []
    assert op.gate(gates.Outcome(0, "", text)) != []
    rep = json.loads(text)
    for c in rep["checks"]:
        c["witness"] = None
    assert op.gate(gates.Outcome(2, "", json.dumps(rep))) != []


def test_non_finite_jacobi_residual_is_a_failure():
    rep = {"residuals": [1e-9, float("nan")], "n_triples": 2, "max_residual": 1e-9,
           "tol": 1e-6, "pass": True}
    assert gates.jacobi(passes=True)(gates.Outcome(0, "", json.dumps(rep))) != []


def test_changed_out_file_between_repeats_is_a_failure():
    ledger = wl.Ledger()
    ledger.record("op", [], out_text="a")
    ledger.record("op", [], out_text="a")
    ledger.record("op", [], out_text="b")
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_generated_gate_rejects_a_wrong_curvature():
    from hydrobrackets import config, verify
    doc, expected = generator.generate(0)[1]
    report = verify.classify(config.parse_document(doc).system)
    assert gates.classify_report(expected)(report) == []
    wrong = dict(expected, curvature=expected["curvature"] + 1e-3)
    assert gates.classify_report(wrong)(report) != []


# --- tracer ---------------------------------------------------------------

def test_traced_counts_repeat_and_wrappers_come_off(tmp_path):
    from hydrobrackets import expr, tensor
    ops = [op_named(wl.check_ops(0), "check sphere"),
           op_named(wl.check_ops(0), "flat-coords canonical")]
    originals = (expr.evaluate, tensor.evaluate, tensor.christoffel_at)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tensor.evaluate is not originals[1]
            replay(ops, tmp_path)
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics()
        counts.append({k: v for k, v in m.items()
                       if k.endswith(("_calls", "_points", "_stages"))})
        assert m["verify.rk4_stages"] > 0
        assert m["tensor.christoffel_at_calls"] >= m["verify.rk4_stages"]
        assert m["expr.evaluate_calls"] > 0
    assert counts[0] == counts[1]
    assert (expr.evaluate, tensor.evaluate, tensor.christoffel_at) == originals


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.name_of.extend([0, 1])
    tracer.parent.extend([-1, 0])
    tracer.start.extend([0.0, 1.0])
    tracer.end.extend([10.0, 4.0])
    m = tracer.layer_metrics()
    assert (m["outer_s"], m["inner_s"]) == (10.0, 3.0)
    tracing.SELF_TIMED.add("outer")
    try:
        assert tracer.layer_metrics()["outer_s"] == 7.0
    finally:
        tracing.SELF_TIMED.discard("outer")


def test_import_time_parser_separates_scipy():
    text = "\n".join([       # the layout `python -X importtime` prints
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |           scipy._lib",
        "import time:       200 |        300 |         scipy",
        "import time:        10 |        310 |       hydrobrackets.hodograph",
        "import time:        30 |         30 |       scipy.linalg",
        "import time:        50 |         50 |       numpy",
        "import time:        40 |        430 |   hydrobrackets",
        "import time:        20 |        450 | hydrobrackets.cli",
    ])
    total, scipy = tracing.import_times(text)
    assert math.isclose(total, 450e-6) and math.isclose(scipy, 330e-6)


# --- the spec ---------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [t[:3] for t in tracing.PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
