"""The Python API's options, pinned.

Every public function and class of the modules below is listed with the
parameters a caller may leave out or must name (defaults, keyword-only,
``*args``, ``**kwargs``), in signature order.  A new option, or a new
public name, fails `test_public_options_are_pinned` until it is added here
on purpose, the way `test_cli.COMMAND_OPTIONS` pins the command-line
options.
"""

import inspect

from hydrobrackets import (
    config, errors, expr, fieldbracket, hodograph, library, system, tensor, verify,
)

MODULES = (verify, hodograph, tensor, system, fieldbracket, expr, config,
           library, errors)

PUBLIC_OPTIONS = {
    "verify.CheckResult": ("witness",),
    "verify.FlatChart": (),
    "verify.JsonReport": (),
    "verify.PencilReport": (),
    "verify.VerifyReport": ("checks", "curvature_constant", "cross_flag"),
    "verify.check_dn": ("tol_zero",),
    "verify.check_ferapontov": ("tol_zero",),
    "verify.check_liouville": ("tol_zero",),
    "verify.check_mf": ("tol_zero",),
    "verify.classify": ("samples", "tol_zero"),
    "verify.develop_flat_coords": ("resolution", "basepoint", "tol_flat"),
    "verify.fold_worst": ("*start",),
    "verify.json_text": (),
    "verify.pencil_regularity": ("tol_gap",),
    "verify.point_list": (),
    "verify.write_csv": (),
    "hodograph.CommutingFlow": ("exprs", "axes", "values", "params", "residual",
                                "tol", "provenance"),
    "hodograph.HodographSolution": (),
    "hodograph.SemiHamiltonianReport": (),
    "hodograph.SolutionResidual": (),
    "hodograph.closed_form_flow": ("gap_tol",),
    "hodograph.hodograph_solve": ("x_window", "t_window", "nx", "nt", "seed",
                                  "newton_tol"),
    "hodograph.integrate_commuting_flow": ("resolution", "basepoint",
                                           "tol_goursat", "gap_tol"),
    "hodograph.save_solution_csv": (),
    "hodograph.semi_hamiltonian_check": ("tol_zero", "gap_tol"),
    "hodograph.spacetime_window": (),
    "hodograph.speeds_at": (),
    "hodograph.speeds_d1_at": (),
    "hodograph.verify_solution": (),
    "tensor.b_at": (),
    "tensor.christoffel_at": (),
    "tensor.hantjes_at": (),
    "tensor.levi_civita_at": (),
    "tensor.metric_lower_at": (),
    "tensor.metric_upper_at": (),
    "tensor.nijenhuis_at": (),
    "tensor.operator_at": (),
    "tensor.operator_d1_at": (),
    "tensor.pairwise_gaps": (),
    "tensor.point_at": (),
    "tensor.riemann_raised_at": (),
    "tensor.table_at": (),
    "tensor.table_jets_at": (),
    "system.Box": (),
    "system.SystemDef": ("g_upper", "b", "V", "v_diag", "affinors", "h_ultra",
                         "gamma", "params", "box", "name"),
    "system.halton_points": (),
    "system.sample_box": (),
    "fieldbracket.Functional": (),
    "fieldbracket.GridField": (),
    "fieldbracket.apply_bracket_operator": (),
    "fieldbracket.bracket": (),
    "fieldbracket.hamiltonian_flow": (),
    "fieldbracket.jacobi_residual": (),
    "fieldbracket.jacobi_residuals": (),
    "fieldbracket.random_polynomial_functional": ("degree", "seed"),
    "fieldbracket.spectral_dx": (),
    "expr.Expr": (),
    "expr.Number": (),
    "expr.Name": (),
    "expr.Neg": (),
    "expr.Add": (),
    "expr.Sub": (),
    "expr.Mul": (),
    "expr.Div": (),
    "expr.Pow": (),
    "expr.Call": (),
    "expr.parse": (),
    "expr.as_expr": (),
    "expr.differentiate": (),
    "expr.evaluate": (),
    "expr.evaluate_table": (),
    "expr.jet_table": (),
    "expr.compile_table": (),
    "expr.to_source": (),
    "expr.free_names": (),
    "config.LoadedConfig": (),
    "config.validate": (),
    "config.parse_document": (),
    "config.load_config": (),
    "library.names": (),
    "library.path": (),
    "library.load": (),
    "errors.HydroBracketsError": ("*args",),
    "errors.ExprSyntaxError": (),
    "errors.UnknownSymbolError": ("position",),
    "errors.DomainError": ("expr",),
    "errors.SingularMetricError": ("point",),
    "errors.ShapeMismatchError": ("*args",),
    "errors.MissingAffinorsError": ("*args",),
    "errors.MissingGammaError": ("*args",),
    "errors.NotFlatError": ("residual",),
    "errors.HyperbolicityViolationError": ("point",),
    "errors.NonConvergenceError": ("*args",),
    "errors.SeedOutOfBoxError": ("*args",),
    "errors.RegionTooSmallError": ("*args",),
    "errors.ConfigError": ("*args",),
    "errors.StepTooSmallWarning": ("*args",),
    "errors.DegenerateHyperbolicityWarning": ("*args",),
}


def _options(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:      # an exception class that keeps BaseException's *args
        return ("*args",)
    out = []
    for p in params:
        if p.kind is p.VAR_POSITIONAL:
            out.append("*" + p.name)
        elif p.kind is p.VAR_KEYWORD:
            out.append("**" + p.name)
        elif p.default is not p.empty or p.kind is p.KEYWORD_ONLY:
            out.append(p.name)
    return tuple(out)


def public_options():
    found = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__):
                found[f"{short}.{name}"] = _options(obj)
    return found


def test_public_options_are_pinned():
    assert public_options() == PUBLIC_OPTIONS


def test_sampling_region_and_count_are_fixed():
    """The system's box is the only sampling region, and only `classify`
    takes a sample count (`perfbench` classifies at 2048 samples)."""
    removed = {"box", "extra_points", "extra", "warn_degenerate", "scale", "name"}
    for key, options in PUBLIC_OPTIONS.items():
        if key != "system.SystemDef":       # a system declares its box and name
            assert not removed & set(options), key
    assert [k for k, o in PUBLIC_OPTIONS.items() if "samples" in o] == [
        "verify.classify"]
    assert verify.SAMPLES == 64
    samples = inspect.signature(verify.classify).parameters["samples"]
    assert samples.default == verify.SAMPLES
