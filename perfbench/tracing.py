"""Per-layer tracing from outside the package.

`Tracer.install` replaces public functions of the hydrobrackets modules
with wrappers that record a span (name, start, end, parent) and a call
count.  A function is replaced under every name a hydrobrackets module
holds it by, so ``tensor.evaluate`` and ``hodograph.evaluate`` are traced
together with ``expr.evaluate``.  No leading-underscore name is wrapped.
Spans are kept in flat arrays and reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import functools
import re
import subprocess
import sys
import time
import warnings
from array import array
from statistics import median

# (module, attribute path, span name).  Span names are the metric prefixes.
TARGETS = (
    ("expr", "parse", "expr.parse"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "evaluate", "expr.evaluate"),
    ("system", "sample_box", "system.sample_box"),
    ("config", "parse_document", "config.load"),
    ("tensor", "metric_upper_at", "tensor.metric_upper_at"),
    ("tensor", "metric_lower_at", "tensor.metric_lower_at"),
    ("tensor", "b_at", "tensor.b_at"),
    ("tensor", "christoffel_at", "tensor.christoffel_at"),
    ("tensor", "riemann_raised_at", "tensor.riemann_raised_at"),
    ("verify", "classify", "verify.classify"),
    ("verify", "develop_flat_coords", "verify.develop_flat_coords"),
    ("fieldbracket", "jacobi_residual", "fieldbracket.jacobi_residual"),
    ("fieldbracket", "bracket", "fieldbracket.bracket"),
    ("fieldbracket", "apply_bracket_operator", "fieldbracket.apply_bracket_operator"),
    ("fieldbracket", "Functional.variational", "fieldbracket.variational"),
    ("hodograph", "semi_hamiltonian_check", "hodograph.semi_hamiltonian_check"),
    ("hodograph", "integrate_commuting_flow", "hodograph.integrate_commuting_flow"),
    ("hodograph", "hodograph_solve", "hodograph.hodograph_solve"),
    ("hodograph", "CommutingFlow.w_at", "hodograph.w_at"),
    ("hodograph", "CommutingFlow.dw_at", "hodograph.dw_at"),
    ("hodograph", "verify_solution", "hodograph.verify_solution"),
)

# (metric, unit, better, what it is measured from, what it should move).
# "self" is span time minus the time covered by child spans; "total"
# includes the children.  The last field names the end-to-end metric and
# workload a change to this layer should move.
WALL_CHECK = "wall_s on check_session"
WALL_JACOBI = "wall_s on jacobi_sweep"
WALL_HODO = "wall_s on hodograph_session"
WALL_API = "wall_s on generated_api"
PER_LAYER = (
    ("cli.interpreter_s", "s", "lower", "bare `python -c pass`",
     "nothing: a control for drift of the machine"),
    ("cli.import_s", "s", "lower", "`-X importtime` of hydrobrackets.cli",
     "setup_s on every CLI workload; wall_s mostly on check_session"),
    ("cli.import_scipy_s", "s", "lower", "scipy part of cli.import_s",
     "setup_s on every CLI workload; wall_s mostly on check_session"),
    ("config.load_s", "s", "lower", "total of config.parse_document",
     "setup_s; " + WALL_API),
    ("expr.parse_s", "s", "lower", "total of expr.parse", WALL_API),
    ("expr.parse_calls", "count", "lower", "calls of expr.parse", WALL_API),
    ("expr.differentiate_s", "s", "lower", "total of expr.differentiate",
     WALL_API + " (cold tables)"),
    ("expr.differentiate_calls", "count", "lower", "calls of expr.differentiate",
     WALL_API + " (cold tables)"),
    ("expr.evaluate_s", "s", "lower", "total of expr.evaluate",
     "wall_s on jacobi_sweep (64 points a call), hodograph_session (1 point) "
     "and generated_api (thousands)"),
    ("expr.evaluate_calls", "count", "lower", "calls of expr.evaluate",
     "wall_s on jacobi_sweep, hodograph_session and generated_api"),
    ("expr.evaluate_points", "count", "lower", "points summed over evaluate calls",
     "wall_s on jacobi_sweep, hodograph_session and generated_api"),
    ("system.sample_box_s", "s", "lower", "total of system.sample_box", WALL_API),
    ("tensor.metric_lower_at_s", "s", "lower", "total of metric_lower_at", WALL_CHECK),
    ("tensor.metric_lower_at_calls", "count", "lower", "calls of metric_lower_at",
     WALL_CHECK),
    ("tensor.christoffel_at_s", "s", "lower", "total of christoffel_at", WALL_CHECK),
    ("tensor.christoffel_at_calls", "count", "lower", "calls of christoffel_at",
     WALL_CHECK),
    ("tensor.riemann_raised_at_s", "s", "lower", "total of riemann_raised_at",
     WALL_API),
    ("tensor.riemann_raised_at_calls", "count", "lower",
     "calls of riemann_raised_at", WALL_API),
    ("tensor.metric_upper_at_calls", "count", "lower", "calls of metric_upper_at",
     WALL_JACOBI),
    ("tensor.b_at_calls", "count", "lower", "calls of b_at", WALL_JACOBI),
    ("verify.classify_s", "s", "lower", "self time of verify.classify", WALL_CHECK),
    ("verify.develop_flat_coords_s", "s", "lower",
     "self time of develop_flat_coords", WALL_CHECK),
    ("verify.rk4_stages", "count", "lower",
     "christoffel_at calls inside develop_flat_coords", WALL_CHECK),
    ("fieldbracket.jacobi_residual_s", "s", "lower", "self time of jacobi_residual",
     WALL_JACOBI),
    ("fieldbracket.bracket_s", "s", "lower", "total of fieldbracket.bracket",
     WALL_JACOBI),
    ("fieldbracket.bracket_calls", "count", "lower", "calls of fieldbracket.bracket",
     WALL_JACOBI),
    ("fieldbracket.apply_bracket_operator_s", "s", "lower",
     "total of apply_bracket_operator", WALL_JACOBI),
    ("fieldbracket.apply_bracket_operator_calls", "count", "lower",
     "calls of apply_bracket_operator", WALL_JACOBI),
    ("fieldbracket.variational_s", "s", "lower", "total of Functional.variational",
     WALL_JACOBI),
    ("fieldbracket.variational_calls", "count", "lower",
     "calls of Functional.variational", WALL_JACOBI),
    ("fieldbracket.floor_ratio", "1", "lower",
     "triples warning StepTooSmallWarning / triples", WALL_JACOBI),
    ("hodograph.semi_hamiltonian_check_s", "s", "lower",
     "total of semi_hamiltonian_check", WALL_HODO),
    ("hodograph.integrate_commuting_flow_s", "s", "lower",
     "total of integrate_commuting_flow", WALL_HODO),
    ("hodograph.hodograph_solve_s", "s", "lower", "self time of hodograph_solve",
     WALL_HODO),
    ("hodograph.flow_eval_s", "s", "lower", "total of CommutingFlow.w_at and dw_at",
     WALL_HODO),
    ("hodograph.w_at_calls", "count", "lower",
     "calls of CommutingFlow.w_at (Newton iterations and line-search trials)",
     WALL_HODO),
    ("hodograph.dw_at_calls", "count", "lower",
     "calls of CommutingFlow.dw_at (Jacobians of the Newton iterations)", WALL_HODO),
    ("hodograph.converged_ratio", "1", "higher",
     "converged / solved spacetime points", WALL_HODO),
    ("hodograph.verify_solution_s", "s", "lower", "total of verify_solution",
     WALL_HODO),
    ("hodograph.flow_residual", "1", "lower",
     "largest flow defining residual reported; a known defect while it is "
     "above tol_goursat", "nothing: recorded, not gated"),
    ("trace.overhead_s", "s", "lower",
     "mean traced minus mean untraced in-process wall time of the same "
     "session, replayed warm as untraced, traced, traced, untraced",
     "nothing: the cost of tracing"),
)

SELF_TIMED = {"verify.classify", "verify.develop_flat_coords",
              "fieldbracket.jacobi_residual", "hodograph.hodograph_solve"}


class Tracer:
    """Wrappers, spans and counters for one traced replay."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.active = {}
        self.counters = {"points": 0, "rk4_stages": 0, "floored": 0,
                         "converged": 0, "solved": 0, "flow_residual": 0.0}
        self._undo = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.active[name] = 0
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.active[name] += 1
            self.start.append(time.perf_counter())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
                self.active[name] -= 1
        return wrapper

    # hooks that count what a span alone does not show
    def _on_expr_evaluate(self, fn, args, kwargs):
        env = args[1] if len(args) > 1 else kwargs["env"]
        self.counters["points"] += max(
            (getattr(v, "size", 1) for v in env.values()), default=1)
        return fn(*args, **kwargs)

    def _on_tensor_christoffel_at(self, fn, args, kwargs):
        if self.active["verify.develop_flat_coords"]:
            self.counters["rk4_stages"] += 1
        return fn(*args, **kwargs)

    def _on_fieldbracket_jacobi_residual(self, fn, args, kwargs):
        from hydrobrackets.errors import StepTooSmallWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(*args, **kwargs)
        self.counters["floored"] += any(
            issubclass(w.category, StepTooSmallWarning) for w in caught)
        for w in caught:    # hand them on to the caller's own filters
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out

    def _on_hodograph_hodograph_solve(self, fn, args, kwargs):
        sol = fn(*args, **kwargs)
        self.counters["converged"] += int(sol.n_converged)
        self.counters["solved"] += int(sol.converged.size)
        return sol

    def _on_hodograph_integrate_commuting_flow(self, fn, args, kwargs):
        flow = fn(*args, **kwargs)
        self.counters["flow_residual"] = max(self.counters["flow_residual"],
                                             float(flow.residual))
        return flow

    def install(self):
        """Wrap every target under every hydrobrackets name that holds it."""
        import importlib
        mods = {m: importlib.import_module(f"hydrobrackets.{m}")
                for m in {t[0] for t in TARGETS}}
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "hydrobrackets" or name.startswith("hydrobrackets.")]
        for mod_name, path, span in TARGETS:
            *classes, attr = path.split(".")
            owner = mods[mod_name]
            for cls in classes:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig)
            if owner is mods[mod_name]:
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig and not key.startswith("_"):
                            self._undo.append((holder, key, orig))
                            setattr(holder, key, wrapper)
            else:                       # a method: replace it on its class
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def layer_metrics(self):
        """Per-span totals, self times and calls, reduced to PER_LAYER names."""
        k = len(self.names)
        total, own, calls = [0.0] * k, [0.0] * k, [0] * k
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            d = self.end[i] - self.start[i]
            nid = self.name_of[i]
            total[nid] += d
            own[nid] += d - child[i]
            calls[nid] += 1
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        by = {span: (0.0, 0.0, 0) for _, _, span in TARGETS}
        by.update({n: (total[i], own[i], calls[i]) for i, n in enumerate(self.names)})
        out = {}
        for span, (tot, slf, cnt) in by.items():
            out[f"{span}_s"] = slf if span in SELF_TIMED else tot
            out[f"{span}_calls"] = cnt
        c = self.counters
        out["expr.evaluate_points"] = c["points"]
        out["verify.rk4_stages"] = c["rk4_stages"]
        triples = by["fieldbracket.jacobi_residual"][2]
        out["fieldbracket.floor_ratio"] = c["floored"] / triples if triples else 0.0
        out["hodograph.converged_ratio"] = (c["converged"] / c["solved"]
                                            if c["solved"] else 0.0)
        out["hodograph.flow_eval_s"] = (by["hodograph.w_at"][0]
                                        + by["hodograph.dw_at"][0])
        out["hodograph.flow_residual"] = c["flow_residual"]
        return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times(stderr):
    """(hydrobrackets.cli import s, its scipy part s) from ``-X importtime``.

    Lines come after the import they time, children first, so reading them
    backwards visits every parent before its children.
    """
    total = scipy = 0.0
    scipy_depth = None
    for line in reversed(stderr.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if depth == 1 and name.split(".")[0] == "hydrobrackets":
            total += cumulative
        if scipy_depth is None and name.split(".")[0] == "scipy":
            scipy += cumulative
            scipy_depth = depth
    return total, scipy


CHILD_REPEATS = 3


def child_seconds(cmd, env, cwd):
    """Median wall time of CHILD_REPEATS fresh processes running ``cmd``."""
    times = []
    for _ in range(CHILD_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return median(times)


def interpreter_s(env, cwd):
    """``cli.interpreter_s``: start-up of a bare interpreter, the control."""
    return child_seconds([sys.executable, "-c", "pass"], env, cwd)


def cli_costs(env, cwd):
    """Median interpreter start, package import and scipy import times."""
    imports, scipys = [], []
    for _ in range(CHILD_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import hydrobrackets.cli"], env=env, cwd=cwd,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        total, scipy = import_times(proc.stderr)
        imports.append(total)
        scipys.append(scipy)
    return {"cli.interpreter_s": interpreter_s(env, cwd),
            "cli.import_s": median(imports), "cli.import_scipy_s": median(scipys)}
