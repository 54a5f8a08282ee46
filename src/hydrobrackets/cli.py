"""Command-line front end: checks, charts, hodograph solves, axiom sweeps.

Configs are JSON files (see `hydrobrackets.config`); positional config
arguments also accept the name of a built-in example.  Exit codes are a
stable contract: 0 pass, 2 a check ran and failed, 1 usage or internal
error.  Identical config, seed and tolerances produce byte-identical JSON
reports.  A reader that closes stdout early (``check sphere | head -1``)
changes neither: the rest of the report goes to `os.devnull`, and ``--out``
is still written.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import re
import sys

import numpy as np

from . import fieldbracket as fb
from . import hodograph as hg
from . import library, verify
from .config import load_config
from .errors import ConfigError, HydroBracketsError, NotFlatError

PASS, FAIL, ERROR = 0, 2, 1


def _grid(text):
    """``--grid`` values: integers of at least 2, the config schema's
    ``resolution`` minimum."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _tol(text):
    """``--tol-*`` values: finite numbers above 0, as in a config."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {text}")
    return value


def _seed(text):
    """``--seed`` values: non-negative integers, as
    `fieldbracket.random_polynomial_functional` takes them."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads `-1e-3` or `-inf` as an option flag, not as a
        # value; take every negative float spelling as a value, so that the
        # option's type check (`_tol`) judges it
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)

    # usage problems are exit code 1; 2 is reserved for checked failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ERROR, f"{self.prog}: error: {message}\n")


def _build_parser():
    # every command but `examples` reads a config and can write --out
    common = _Parser(add_help=False)
    common.add_argument("config", help="config path or built-in name")
    common.add_argument("--out",
                        help="write the report (JSON) or table (CSV) here")
    parser = _Parser(prog="hydrobrackets",
                     description="verify hydrodynamic bracket classes and "
                                 "integrate diagonal systems")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command declares only the options it reads; a --tol-* option's
    # dest is the tolerance key it overrides (see `_load`)
    p = sub.add_parser("check", parents=[common],
                       help="classify a bracket candidate")
    p.add_argument("--class", dest="bracket_class", default="auto",
                   choices=("dn", "mf", "fer", "liouville", "auto"))
    p.add_argument("--tol-zero", type=_tol,
                   help="override the algebraic-residual tolerance")

    p = sub.add_parser("flat-coords", parents=[common],
                       help="develop canonical coordinates of a flat metric")
    p.add_argument("--tol-flat", type=_tol,
                   help="override the flat-chart constancy tolerance")
    p.add_argument("--grid", type=_grid, help="chart grid resolution")

    p = sub.add_parser("hodograph", parents=[common],
                       help="solve a diagonal system by commuting flows")
    p.add_argument("--tol-zero", type=_tol,
                   help="override the compatibility-check tolerance")
    p.add_argument("--grid", type=_grid,
                   help="flow-marching cells per axis (boundary flows)")
    p.add_argument("--force", action="store_true",
                   help="solve even if the compatibility check fails")

    p = sub.add_parser("jacobi", parents=[common],
                       help="sweep the bracket axioms over random functionals")
    p.add_argument("--tol-zero", dest="tol_jacobi", type=_tol,
                   help="override the Jacobi-residual tolerance")
    p.add_argument("--grid", type=_grid,
                   help="field gridpoints, a power of two of at least 4 "
                        "(default 64)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="base seed for generated functionals, a "
                        "non-negative integer (default 0)")

    sub.add_parser("examples", help="list built-in examples")
    return parser


def _resolve(ref):
    if os.path.exists(ref):
        return load_config(ref)
    if os.path.basename(ref) == ref and not ref.endswith(".json"):
        try:
            return library.load(ref)
        except KeyError as err:
            raise ConfigError(str(err.args[0])) from err
    raise ConfigError(f"config file not found: {ref}")


def _load(args):
    """The config ``args.config`` names, with its ``--tol-*`` overrides."""
    lc = _resolve(args.config)
    lc.tolerances.update((key, value) for key, value in vars(args).items()
                         if key in lc.tolerances and value is not None)
    return lc


def _given(**kwargs):
    """The keyword arguments set to a value; the callee's defaults fill the
    rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _say(*args, **kwargs):
    """`print` to stdout.  Once the reader has closed the pipe, stdout
    points at `os.devnull`, so the command goes on to write ``--out`` and
    returns its verdict's code."""
    try:
        print(*args, **kwargs)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_check(args):
    lc = _load(args)
    run = {
        "dn": verify.check_dn,
        "mf": verify.check_mf,
        "fer": verify.check_ferapontov,
        "liouville": verify.check_liouville,
        "auto": verify.classify,
    }[args.bracket_class]
    report = run(lc.system, tol_zero=lc.tolerances["tol_zero"])
    _say(report)
    if args.out:
        _write_text(args.out, report.to_json())
    return PASS if report.passed else FAIL


def cmd_flat_coords(args):
    lc = _load(args)
    try:
        chart = verify.develop_flat_coords(
            lc.system, tol_flat=lc.tolerances["tol_flat"],
            **_given(resolution=args.grid))
    except NotFlatError as err:
        print(f"not flat: {err}", file=sys.stderr)
        return FAIL
    _say(verify.json_text(chart.summary_dict()), end="")
    if args.out:
        n = lc.system.N
        grids = np.meshgrid(*chart.axes, indexing="ij")
        cols = [g.ravel() for g in grids]
        cols += [chart.values[..., k].ravel() for k in range(n)]
        header = ",".join(lc.system.coords) + "," + ",".join(
            f"n{k + 1}" for k in range(n))
        verify.write_csv(args.out, header, cols)
    return PASS if chart.passed else FAIL


def cmd_hodograph(args):
    lc = _load(args)
    sys_, tol = lc.system, lc.tolerances
    report = hg.semi_hamiltonian_check(sys_, tol_zero=tol["tol_zero"],
                                       gap_tol=tol["gap_tol"])
    _say(report)
    if not report.passed and not args.force:
        print("refusing to solve a system that fails the compatibility check "
              "(use --force to override)", file=sys.stderr)
        return FAIL

    section = lc.hodograph
    if "w" in section:
        flow = hg.closed_form_flow(sys_, section["w"], gap_tol=tol["gap_tol"])
    elif "boundary" in section:
        flow = hg.integrate_commuting_flow(
            sys_, section["boundary"][0], section["boundary"][1],
            basepoint=section.get("basepoint"), tol_goursat=tol["tol_goursat"],
            gap_tol=tol["gap_tol"],
            **_given(resolution=args.grid or section.get("resolution")))
    else:
        raise ConfigError("config declares no commuting flow: the hodograph "
                          "section needs either 'w' or 'boundary'")
    _say(f"flow [{flow.kind}]: defining residual "
          f"{flow.residual:.3e} ({flow.provenance})")
    # integrated flows carry march error and are not judged here
    if flow.kind == "closed-form" and not flow.residual < tol["tol_goursat"]:
        print(f"refusing to solve: the flow misses its defining relation by "
              f"{flow.residual:.3e} (tol_goursat {tol['tol_goursat']:.1e}) at "
              f"R = {flow.witness}", file=sys.stderr)
        return FAIL

    seed = section["seed"] if "seed" in section else sys_.box.center
    if "x_window" in section:  # the config admits the windows as a pair
        x_window = tuple(section["x_window"])
        t_window = tuple(section["t_window"])
    else:
        x_window, t_window = hg.spacetime_window(sys_, flow, seed)
    sol = hg.hodograph_solve(sys_, flow, x_window=x_window, t_window=t_window,
                             seed=seed, newton_tol=tol["newton_tol"],
                             **_given(nx=section.get("nx"), nt=section.get("nt")))
    audit = hg.verify_solution(sol, sys_)
    _say(f"solved {sol.n_converged}/{sol.converged.size} spacetime points "
          f"on x={x_window[0]:.6g}..{x_window[1]:.6g} "
          f"t={t_window[0]:.6g}..{t_window[1]:.6g}")
    _say(f"pde residual: max {audit.max_residual:.3e} mean "
          f"{audit.mean_residual:.3e} over {audit.n_points} points")
    if args.out:
        hg.save_solution_csv(args.out, sol)
    return PASS


def _sample_field(sys, m, seed):
    """Deterministic smooth periodic field staying inside the sample box;
    its harmonics are drawn from ``random.Random(seed)``."""
    lo = np.asarray(sys.box.lo)
    hi = np.asarray(sys.box.hi)
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    rng = random.Random(seed)
    x = np.arange(m) * 2 * np.pi / m
    vals = np.empty((sys.N, m))
    for comp in range(sys.N):
        # bounded harmonics: total amplitude stays below half the box size
        acc = np.full(m, center[comp])
        for j in range(1, 5):
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            acc += 0.1 * half[comp] * (a * np.cos(j * x) + b * np.sin(j * x)) / j
        vals[comp] = acc
    return fb.GridField(vals)


def cmd_jacobi(args):
    lc = _load(args)
    sys_ = lc.system
    m = args.grid or 64
    base = args.seed
    tol = lc.tolerances["tol_jacobi"]
    field = _sample_field(sys_, m, base)
    # a generator: one triple's functionals are alive at a time
    triples = ([fb.random_polynomial_functional(
        sys_.coords, degree=3, seed=base + 3 * k + j) for j in range(3)]
        for k in range(20))
    residuals = fb.jacobi_residuals(sys_, triples, field)
    worst = int(np.argmax(residuals))
    top = residuals[worst]
    ok = top < tol
    _say(f"jacobi [{'pass' if ok else 'FAIL'}]: max residual {top:.3e} "
          f"(tol {tol:.1e}) over {len(residuals)} seeded triples at M={m}; "
          f"worst triple seeds {base + 3 * worst}..{base + 3 * worst + 2}")
    if args.out:
        _write_text(args.out, verify.json_text({
            "system": sys_.name,
            "m": m,
            "seed": base,
            "n_triples": len(residuals),
            "residuals": residuals,
            "max_residual": top,
            "worst_triple": worst,
            "tol": tol,
            "pass": ok,
        }))
    return PASS if ok else FAIL


def cmd_examples(args):
    for name in library.names():
        _say(name)
    return PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    handler = {
        "check": cmd_check,
        "flat-coords": cmd_flat_coords,
        "hodograph": cmd_hodograph,
        "jacobi": cmd_jacobi,
        "examples": cmd_examples,
    }[args.command]
    try:
        code = handler(args)
    except (ConfigError, HydroBracketsError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return ERROR
    # a buffered stdout meets a closed pipe here, not in the command
    _say(end="", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
