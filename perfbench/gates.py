"""Known-answer gates: each checks one operation's output against what the
mathematics says it must be.

A gate takes an `Outcome` and returns a list of problems; an empty list
means the operation gave the right answer.  A wrong verdict, a wrong exit
code, a non-finite residual or an unreadable output file is a problem.
Gates read only what a user sees: exit codes, printed text and ``--out``
files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

# names every CLI workload relies on; `examples` must list them
REQUIRED_EXAMPLES = ("canonical", "hopf", "polar_plane", "shallow_water_riemann",
                     "sphere", "sphere_affinor")
CURVATURE_TOL = 1e-6
TOL_JACOBI = 1e-6            # config default tol_jacobi
JACOBI_FAIL_FLOOR = 1e-3     # a non-Jacobi bracket must be resolved above this
HOPF_TOL = 1e-10             # closed form u = (t + sqrt(t^2 + 4x))/2
PDE_TOL = 1e-5               # threshold of the shipped acceptance criterion 08
TOL_GOURSAT = 1e-5           # config default tol_goursat


@dataclass
class Outcome:
    """What one operation produced."""

    code: int
    stdout: str
    out_text: str | None = None          # content of the --out file, if any
    notes: dict = field(default_factory=dict)   # recorded, never gated


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _load_json(text, problems):
    try:
        return json.loads(text)
    except (TypeError, ValueError) as err:
        problems.append(f"--out is not JSON: {err}")
        return None


def examples(o: Outcome):
    problems = [] if o.code == 0 else [f"exit {o.code}, expected 0"]
    names = o.stdout.split()
    if names != sorted(set(names)):
        problems.append("example names are not sorted and unique")
    missing = [n for n in REQUIRED_EXAMPLES if n not in names]
    if missing:
        problems.append(f"missing examples {missing}")
    return problems


def check_report(verdict, code=0, curvature=None, failing=None):
    """Gate of a `check --out report.json` run.

    ``failing`` names the check that must fail with a finite witness; all
    other checks must pass with finite residuals.
    """
    def gate(o: Outcome):
        problems = [] if o.code == code else [f"exit {o.code}, expected {code}"]
        rep = _load_json(o.out_text, problems)
        if rep is None:
            return problems
        if rep.get("verdict") != verdict:
            problems.append(f"verdict {rep.get('verdict')}, expected {verdict}")
        for c in rep.get("checks", []):
            if not _finite(c.get("residual")):
                problems.append(f"{c.get('name')}: non-finite residual")
            elif c.get("name") == failing:
                wit = c.get("witness") or []
                if c.get("pass") or not wit or not all(_finite(v) for v in wit):
                    problems.append(f"{failing}: expected a failure with a witness")
            elif not c.get("pass"):
                problems.append(f"{c.get('name')}: unexpected failure")
        if failing and failing not in {c.get("name") for c in rep.get("checks", [])}:
            problems.append(f"no {failing} check in the report")
        if not rep.get("checks"):
            problems.append("report has no checks")
        if curvature is not None:
            c = rep.get("curvature_constant")
            if not _finite(c) or abs(c - curvature) >= CURVATURE_TOL:
                problems.append(f"curvature constant {c}, expected {curvature}")
        return problems
    return gate


def flat_chart(o: Outcome):
    problems = [] if o.code == 0 else [f"exit {o.code}, expected 0"]
    try:
        chart = json.loads(o.stdout)
    except ValueError as err:
        return problems + [f"summary is not JSON: {err}"]
    res, tol = chart.get("pushed_metric_residual"), chart.get("tol")
    if not (_finite(res) and _finite(tol) and res < tol and chart.get("pass")):
        problems.append(f"pushed-metric residual {res} not below tol {tol}")
    return problems


def jacobi(passes):
    """Gate of `jacobi --out report.json`: below tol_jacobi, or clearly above."""
    def gate(o: Outcome):
        code = 0 if passes else 2
        problems = [] if o.code == code else [f"exit {o.code}, expected {code}"]
        rep = _load_json(o.out_text, problems)
        if rep is None:
            return problems
        residuals = rep.get("residuals") or []
        if len(residuals) != rep.get("n_triples") or not residuals:
            problems.append("residual list does not match n_triples")
        if not all(_finite(r) for r in residuals):
            problems.append("non-finite Jacobi residual")
            return problems
        top = max(residuals)
        if rep.get("max_residual") != top:
            problems.append("max_residual is not the largest residual")
        if passes and not (top < TOL_JACOBI and rep.get("tol") == TOL_JACOBI
                           and rep.get("pass") is True):
            problems.append(f"residual {top:.3e} not below tol_jacobi {TOL_JACOBI}")
        if not passes and not (top > JACOBI_FAIL_FLOOR and rep.get("pass") is False):
            problems.append(f"residual {top:.3e} not above {JACOBI_FAIL_FLOOR}")
        return problems
    return gate


def _worse(worst, err):
    """Running maximum in which a non-finite error wins for good."""
    return max(worst, err) if math.isfinite(err) else math.inf


def _read_csv(text, problems, header):
    try:
        rows = list(csv.reader(io.StringIO(text or "")))
        if not rows or rows[0] != header:
            problems.append(f"CSV header {rows[:1]}, expected {header}")
            return None
        return [[float(v) for v in r] for r in rows[1:]]
    except ValueError as err:
        problems.append(f"CSV is not numeric: {err}")
        return None


def hopf(o: Outcome):
    """Every point converged and equal to the closed form of u^2 = t u + x."""
    problems = [] if o.code == 0 else [f"exit {o.code}, expected 0"]
    rows = _read_csv(o.out_text, problems, ["x", "t", "R1", "residual", "converged"])
    if rows is None:
        return problems
    if len(rows) != 256 * 33:
        problems.append(f"{len(rows)} rows, expected {256 * 33}")
    worst = 0.0
    for x, t, u, _, conv in rows:
        if conv != 1.0:
            problems.append(f"not converged at x={x} t={t}")
            break
        worst = _worse(worst, abs(u - (t + math.sqrt(t * t + 4.0 * x)) / 2.0))
    if not worst < HOPF_TOL:
        problems.append(f"closed-form error {worst:.3e} not below {HOPF_TOL}")
    o.notes["hopf_max_error"] = worst
    return problems


def _pde_residual(rows, nx, nt):
    """max |R_t - v(R) R_x| on the interior with 4th-order differences.

    Velocities are those of shallow water in Riemann invariants,
    v1 = (3 R1 + R2)/4 and v2 = (3 R2 + R1)/4.
    """
    grid = [rows[k * nx:(k + 1) * nx] for k in range(nt)]
    ht = grid[1][0][1] - grid[0][0][1]
    hx = grid[0][1][0] - grid[0][0][0]
    worst = 0.0
    for k in range(2, nt - 2):
        for i in range(2, nx - 2):
            r = grid[k][i][2:4]
            v = ((3 * r[0] + r[1]) / 4, (3 * r[1] + r[0]) / 4)
            for c in range(2):
                col = 2 + c
                r_t = (-grid[k + 2][i][col] + 8 * grid[k + 1][i][col]
                       - 8 * grid[k - 1][i][col] + grid[k - 2][i][col]) / (12 * ht)
                r_x = (-grid[k][i + 2][col] + 8 * grid[k][i + 1][col]
                       - 8 * grid[k][i - 1][col] + grid[k][i - 2][col]) / (12 * hx)
                worst = _worse(worst, abs(r_t - v[c] * r_x))
    return worst


_FLOW = re.compile(r"flow \[(\w[\w-]*)\]: defining residual (\S+)")
_PDE = re.compile(r"pde residual: max (\S+)")
_SOLVED = re.compile(r"solved (\d+)/(\d+) spacetime points")


def shallow_water_riemann(o: Outcome):
    """All 64 x 17 points converged with PDE residual below 1e-5.

    The flow defining residual is recorded in ``notes`` and not gated: it is
    a known defect that the command still exits 0 with a residual above
    tol_goursat.
    """
    problems = [] if o.code == 0 else [f"exit {o.code}, expected 0"]
    flow = _FLOW.search(o.stdout)
    if flow:
        o.notes["flow_residual"] = float(flow.group(2))
        o.notes["tol_goursat"] = TOL_GOURSAT
    pde = _PDE.search(o.stdout)
    if not pde or not float(pde.group(1)) < PDE_TOL:
        problems.append(f"reported pde residual {pde and pde.group(1)} "
                        f"not below {PDE_TOL}")
    solved = _SOLVED.search(o.stdout)
    if not solved or solved.group(1) != solved.group(2):
        problems.append("not every spacetime point converged")
    rows = _read_csv(o.out_text, problems,
                     ["x", "t", "R1", "R2", "residual", "converged"])
    if rows is None:
        return problems
    if len(rows) != 64 * 17:
        return problems + [f"{len(rows)} rows, expected {64 * 17}"]
    if any(r[5] != 1.0 for r in rows):
        problems.append("CSV flags unconverged points")
    recomputed = _pde_residual(rows, 64, 17)
    o.notes["pde_residual_from_csv"] = recomputed
    if not recomputed < PDE_TOL:
        problems.append(f"pde residual from the CSV {recomputed:.3e} "
                        f"not below {PDE_TOL}")
    return problems


def classify_report(expected):
    """Gate of an in-process `verify.classify` on a generated metric."""
    def gate(report):
        problems = []
        if report.verdict != expected["verdict"]:
            problems.append(f"verdict {report.verdict}, expected "
                            f"{expected['verdict']}")
        for c in report.checks:
            if not _finite(c.residual):
                problems.append(f"{c.name}: non-finite residual")
        if expected["verdict"] == "MF_CONST_CURV":
            c = report.curvature_constant
            if not _finite(c) or abs(c - expected["curvature"]) >= CURVATURE_TOL:
                problems.append(f"curvature constant {c}, expected "
                                f"{expected['curvature']}")
        return problems
    return gate
