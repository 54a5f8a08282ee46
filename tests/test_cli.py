"""Config loading and the command-line surface.

Commands run in-process through main(argv) so exit codes and output are
asserted directly; one subprocess test covers the installed entry point.
"""

import argparse
import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hydrobrackets import cli, library, verify
from hydrobrackets import config as cfgmod
from hydrobrackets import hodograph as hg
from hydrobrackets.cli import main
from hydrobrackets.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"

ALL_EXAMPLES = [
    "canonical", "epsilon3", "hopf", "polar_plane", "shallow_water",
    "shallow_water_riemann", "so3", "sphere", "sphere_affinor",
]


def write_config(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gaussian_warp_doc():
    # smooth non-flat, non-constant-curvature metric
    return {
        "name": "gaussian-warp",
        "coords": ["r", "s"],
        "g_upper": [["1", "0"], ["0", "exp(-2*r^2)"]],
        "box": {"min": [0.2, -1.0], "max": [1.2, 1.0]},
    }


def coupled_bad_doc():
    return {
        "name": "coupled-bad",
        "coords": ["R1", "R2", "R3"],
        "v_diag": ["R2 + R3 + R2*R3", "R1 + R3", "R1 + R2"],
        "box": {"min": [0.1, 1.1, 2.1], "max": [0.9, 1.9, 2.9]},
    }


# --- config layer ---------------------------------------------------------------

def test_library_lists_all_examples():
    assert library.names() == ALL_EXAMPLES


def test_builtin_configs_all_load():
    for name in library.names():
        lc = library.load(name)
        assert lc.system.N == len(lc.system.coords)
        assert lc.tolerances["tol_zero"] == 1e-9


def test_tolerance_overrides_merge(tmp_path):
    doc = gaussian_warp_doc()
    doc["tolerances"] = {"tol_flat": 1e-5}
    lc = cfgmod.load_config(write_config(tmp_path, doc))
    assert lc.tolerances["tol_flat"] == 1e-5
    assert lc.tolerances["tol_zero"] == 1e-9


def test_affinors_and_params_reach_the_system(tmp_path):
    doc = {
        "name": "affine",
        "coords": ["x", "y"],
        "params": {"k": 2.0},
        "g_upper": [["k", "0"], ["0", "k"]],
        "affinors": [{"sign": -1, "matrix": [["1", "0"], ["0", "1"]]}],
        "box": {"min": [0.0, 0.0], "max": [1.0, 1.0]},
    }
    lc = cfgmod.load_config(write_config(tmp_path, doc))
    assert lc.system.params == {"k": 2.0}
    assert len(lc.system.affinors) == 1
    assert lc.system.affinors[0][0] == -1.0


def test_unknown_key_rejected(tmp_path):
    doc = gaussian_warp_doc()
    doc["metric"] = [["1"]]
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write_config(tmp_path, doc))
    assert "config invalid" in str(err.value)


def test_component_count_mismatch_rejected(tmp_path):
    doc = gaussian_warp_doc()
    doc["N"] = 3
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write_config(tmp_path, doc))
    assert "$.N" in str(err.value)


def test_box_length_mismatch_rejected(tmp_path):
    doc = gaussian_warp_doc()
    doc["box"]["min"] = [0.2]
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write_config(tmp_path, doc))
    assert "$.box.min" in str(err.value)


@pytest.mark.parametrize("keys, literal, path", [
    (("tolerances", "tol_zero"), "Infinity", "$.tolerances.tol_zero"),
    (("box", "min", 1), "NaN", "$.box.min[1]"),
    (("g_upper", 0, 0), "1e999", "$.g_upper[0][0]"),
    (("params", "k"), "-Infinity", "$.params.k"),
    (("box", "max", 0), "1" + "0" * 400, "$.box.max[0]"),
])
def test_non_finite_numbers_rejected_with_their_path(tmp_path, capsys, keys,
                                                     literal, path):
    doc = gaussian_warp_doc()
    doc.update(tolerances={"tol_zero": 1e-9}, params={"k": 1.0})
    owner = doc
    for key in keys[:-1]:
        owner = owner[key]
    owner[keys[-1]] = "@slot@"
    config = tmp_path / "system.json"
    config.write_text(json.dumps(doc).replace('"@slot@"', literal))
    cfgmod.validate(json.loads(config.read_text()))     # the schema allows it
    message = f"config invalid at {path}: "
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(str(config))
    assert message in str(err.value)
    assert main(["check", str(config)]) == 1
    assert message in capsys.readouterr().err


def test_json_syntax_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "coords": [}')
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(str(path))
    assert "line 2" in str(err.value)


def test_bad_expression_rejected(tmp_path):
    doc = gaussian_warp_doc()
    doc["g_upper"][1][1] = "exp(-2*r^"
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write_config(tmp_path, doc))
    assert "expression" in str(err.value)


def test_overflowing_number_literal_is_an_expression_error(tmp_path, capsys):
    doc = {"name": "overflow", "N": 1, "coords": ["U1"],
           "g_upper": [["log(U1 - 1e999)"]], "box": {"min": [1.0], "max": [2.0]}}
    assert main(["check", write_config(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.endswith(": expression error: number '1e999' is not a "
                                 "finite float (at position 9)\n")
    assert captured.err.count("position") == 1


def test_undeclared_name_rejected(tmp_path):
    doc = gaussian_warp_doc()
    doc["g_upper"][0][0] = "q"
    with pytest.raises(ConfigError):
        cfgmod.load_config(write_config(tmp_path, doc))


def test_tol_gap_key_is_rejected(tmp_path):
    doc = gaussian_warp_doc()
    doc["tolerances"] = {"tol_gap": 1e-8}
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write_config(tmp_path, doc))
    assert "config invalid at $.tolerances" in str(err.value)


def test_default_tolerances_are_the_library_defaults():
    readers = {
        "tol_zero": [(f, "tol_zero") for f in (
            verify.check_dn, verify.check_mf, verify.check_ferapontov,
            verify.check_liouville, verify.classify, hg.semi_hamiltonian_check)],
        "tol_flat": [(verify.develop_flat_coords, "tol_flat")],
        "tol_goursat": [(hg.integrate_commuting_flow, "tol_goursat")],
        "gap_tol": [(f, "gap_tol") for f in (
            hg.semi_hamiltonian_check, hg.closed_form_flow,
            hg.integrate_commuting_flow)],
        "newton_tol": [(hg.hodograph_solve, "newton_tol")],
    }
    # tol_jacobi has no library reader: only the jacobi command judges by it
    assert set(cfgmod.DEFAULT_TOLERANCES) == set(readers) | {"tol_jacobi"}
    for key, params in readers.items():
        for fn, name in params:
            default = inspect.signature(fn).parameters[name].default
            assert default == cfgmod.DEFAULT_TOLERANCES[key], (key, fn.__name__)


# --- CLI: options ---------------------------------------------------------------

COMMAND_OPTIONS = {
    "check": {"--class", "--tol-zero", "--out"},
    "flat-coords": {"--tol-flat", "--grid", "--out"},
    "hodograph": {"--tol-zero", "--grid", "--force", "--out"},
    "jacobi": {"--tol-zero", "--grid", "--seed", "--out"},
    "examples": set(),
}
FORMERLY_SHARED = {"--tol-zero": "1e-3", "--tol-flat": "1e-3", "--grid": "8",
                   "--seed": "3", "--out": "report", "--force": None}


def command_options(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[command]._actions
            for s in a.option_strings} - {"-h", "--help"}


def test_settable_command_option_pairs():
    assert sum(len(command_options(c)) for c in COMMAND_OPTIONS) == 14


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_takes_only_the_options_it_reads(command, capsys):
    assert command_options(command) == COMMAND_OPTIONS[command]
    config = [] if command == "examples" else ["canonical"]
    for option, value in FORMERLY_SHARED.items():
        if option in COMMAND_OPTIONS[command]:
            continue
        argv = [command, *config, option] + ([value] if value else [])
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "unrecognized arguments" in err


def test_jacobi_tol_zero_overrides_tol_jacobi(capsys):
    assert main(["jacobi", "sphere", "--grid", "32", "--tol-zero", "1e3"]) == 0
    assert "(tol 1.0e+03)" in capsys.readouterr().out


@pytest.mark.parametrize("argv, digest", [
    (["check", "--class", "mf", "sphere"],
     "67e754bffbee6ae698a466fd5ef5e8f940a98fc9f7e029c3e5d941bbc1819e7b"),
    (["jacobi", "polar_plane", "--seed", "0"],
     "3bd2b468ec07a453b82ca621ddad98188222f2e4a7e44c692a80152ae8e5f619"),
])
def test_out_json_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["flat-coords", "polar_plane", "--grid", "8"],
     "4bfbabe60a4172db0925760288f2beac51ca7919be33ca7a7d8f78df484beebd"),
    (["hodograph", "hopf"],
     "bd477c009a58a2558df37a3e4db6cf1f56e113b743692489af43e56e2f465bd2"),
])
def test_out_csv_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command", ["flat-coords", "hodograph", "jacobi"])
@pytest.mark.parametrize("grid", ["0", "-3", "1"])
def test_grid_below_two_is_a_usage_error(command, grid, capsys):
    assert main([command, "canonical", "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument --grid: must be at least 2, got {grid}" in err


@pytest.mark.parametrize("command, option", [
    ("check", "--tol-zero"), ("flat-coords", "--tol-flat"),
    ("hodograph", "--tol-zero"), ("jacobi", "--tol-zero")])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_tolerance_must_be_finite_and_positive(command, option, value, capsys):
    assert main([command, "canonical", option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert (f"argument {option}: must be a finite number above 0, got {value}"
            in err)


def test_hodograph_runs_at_the_smallest_grid(capsys):
    # a 3 x 3 node Goursat grid still interpolates (2nd-order node slopes)
    assert main(["hodograph", "shallow_water_riemann", "--grid", "2"]) == 0
    assert "solved 1088/1088" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "jacobi"])
@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-INF", "-nan", "-.5"])
def test_negative_tolerance_spellings_reach_the_tolerance_check(command, value,
                                                                capsys):
    # argparse would read these as option flags ("expected one argument")
    assert main([command, "canonical", "--tol-zero", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert (f"argument --tol-zero: must be a finite number above 0, got {value}"
            in err)


# --- CLI: check -----------------------------------------------------------------

def test_examples_subcommand(capsys):
    assert main(["examples"]) == 0
    assert capsys.readouterr().out.split() == ALL_EXAMPLES


def test_check_flat_metric_passes(capsys):
    assert main(["check", "--class", "dn", "canonical"]) == 0
    assert "DN_FLAT" in capsys.readouterr().out


def test_check_curved_metric_fails_flatness(capsys):
    assert main(["check", "--class", "dn", "sphere"]) == 2
    out = capsys.readouterr().out
    assert "NOT_A_BRACKET" in out
    assert "[FAIL] flatness" in out


def test_check_constant_curvature(capsys):
    assert main(["check", "--class", "mf", "sphere"]) == 0
    assert "MF_CONST_CURV(c=1" in capsys.readouterr().out


def test_check_affinor_family(capsys):
    assert main(["check", "--class", "fer", "sphere_affinor"]) == 0
    assert "FERAPONTOV" in capsys.readouterr().out


def test_check_auto_dispatch(capsys, tmp_path):
    assert main(["check", "polar_plane"]) == 0
    assert "DN_FLAT" in capsys.readouterr().out
    path = write_config(tmp_path, gaussian_warp_doc())
    assert main(["check", path]) == 2
    assert "INDETERMINATE" in capsys.readouterr().out


def test_check_non_finite_metric_value_is_an_error(tmp_path, capsys):
    doc = {"name": "nan-metric", "N": 2, "coords": ["x", "y"],
           "g_upper": [["1", "0"], ["0", "exp(1000*x)*0 + 1"]],
           "box": {"min": [0.0, 0.0], "max": [1.0, 1.0]}}
    assert main(["check", write_config(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: metric value not finite at (")
    assert captured.err.count("\n") == 1


def test_check_missing_affinors_is_an_error(capsys):
    assert main(["check", "--class", "fer", "sphere"]) == 1
    assert "error" in capsys.readouterr().err


def test_check_tolerance_override(tmp_path, capsys):
    doc = {
        "name": "perturbed-polar",
        "coords": ["r", "th"],
        "g_upper": [["1", "0"], ["0", "1/r^2"]],
        "b": [
            [["0", "0"], ["0", "-1/r + 0.001"]],
            [["0", "1/r"], ["-1/r^3", "0"]],
        ],
        "box": {"min": [0.5, -1.0], "max": [2.5, 1.5]},
    }
    path = write_config(tmp_path, doc)
    assert main(["check", "--class", "dn", path]) == 2
    capsys.readouterr()
    assert main(["check", "--class", "dn", path, "--tol-zero", "0.1"]) == 0


def test_check_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["check", "--class", "mf", "sphere", "--out", str(a)])
    main(["check", "--class", "mf", "sphere", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["verdict"] == "MF_CONST_CURV"


def test_check_rejects_unknown_config(capsys):
    assert main(["check", "no_such_example"]) == 1
    assert "no built-in example" in capsys.readouterr().err


def test_usage_error_is_exit_one(capsys):
    assert main(["check", "--class", "bogus", "canonical"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- CLI: flat-coords -----------------------------------------------------------

def test_flat_coords_chart_csv(tmp_path, capsys):
    out = tmp_path / "chart.csv"
    assert main(["flat-coords", "polar_plane", "--grid", "8",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert summary["pushed_metric_residual"] < 1e-7
    lines = out.read_text().splitlines()
    assert lines[0] == "r,th,n1,n2"
    assert len(lines) == 1 + 9 * 9


def test_flat_coords_curved_metric_fails(capsys):
    assert main(["flat-coords", "sphere", "--grid", "8"]) == 2
    assert "not flat" in capsys.readouterr().err


# --- CLI: hodograph -------------------------------------------------------------

@pytest.mark.parametrize("name, key, numeric, text", [
    ("hopf", "w", [1.5], ["1.5"]),
    ("shallow_water_riemann", "boundary", [0.5, "R2^2/2 - 5"],
     ["0.5", "R2^2/2 - 5"]),
])
def test_hodograph_numeric_entries_run_as_their_source_text(
        tmp_path, capsys, name, key, numeric, text):
    doc = json.loads(library.path(name).read_text())
    seen = []
    for tag, entries in (("numeric", numeric), ("text", text)):
        doc["hodograph"][key] = entries
        out = tmp_path / f"{tag}.csv"
        assert main(["hodograph", write_config(tmp_path, doc, f"{tag}.json"),
                     "--out", str(out)]) == 0
        seen.append((capsys.readouterr().out, out.read_bytes()))
    assert seen[0] == seen[1]


def test_hodograph_scalar_example(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    assert main(["hodograph", "hopf", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "vacuous" in text
    assert "pde residual" in text
    assert out.read_text().splitlines()[0] == "x,t,R1,residual,converged"


def test_hodograph_refuses_incompatible_velocities(tmp_path, capsys):
    path = write_config(tmp_path, coupled_bad_doc())
    assert main(["hodograph", path]) == 2
    assert "refusing" in capsys.readouterr().err


def test_hodograph_force_bypasses_the_gate(tmp_path, capsys):
    # with --force the gate is passed; this config still has no flow data,
    # so the run ends as an error rather than a checked failure
    path = write_config(tmp_path, coupled_bad_doc())
    assert main(["hodograph", path, "--force"]) == 1
    assert "no commuting flow" in capsys.readouterr().err


def test_hodograph_two_component_pipeline(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    assert main(["hodograph", "shallow_water_riemann", "--grid", "128",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "flow [sampled]" in text
    assert "pde residual" in text
    header = out.read_text().splitlines()[0]
    assert header == "x,t,R1,R2,residual,converged"


# --- CLI: jacobi ----------------------------------------------------------------

def test_jacobi_flat_bracket_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["jacobi", "canonical", "--grid", "32", "--out", str(out)]) == 0
    assert "jacobi [pass]" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["max_residual"] < 1e-6
    assert report["n_triples"] == 20


def test_jacobi_curved_metric_fails(capsys):
    assert main(["jacobi", "sphere", "--grid", "32"]) == 2
    assert "jacobi [FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name, code", [
    ("canonical", 0), ("polar_plane", 0), ("so3", 0), ("hopf", 0),
    ("sphere", 2), ("sphere_affinor", 2)])
def test_jacobi_exit_codes_of_the_bracket_examples(name, code, seed, capsys):
    assert main(["jacobi", name, "--grid", "32", "--seed", seed]) == code
    out = capsys.readouterr().out
    assert out.startswith("jacobi [pass]" if code == 0 else "jacobi [FAIL]")
    assert "roundoff" not in out


def test_jacobi_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["jacobi", "canonical", "--grid", "32", "--seed", "7", "--out", str(a)])
    main(["jacobi", "canonical", "--grid", "32", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["seed"] == 7


def test_jacobi_ultralocal_bracket(capsys):
    assert main(["jacobi", "so3", "--grid", "32"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "flat-coords"])
def test_zero_metric_has_no_local_bracket_to_classify(command, capsys):
    # so3 declares g_upper = 0: its bracket is purely ultralocal, and
    # `test_jacobi_ultralocal_bracket` passes it
    assert main([command, "so3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the declared g_upper is identically zero, so there is no "
        "local bracket to classify; jacobi tests the ultralocal part\n")


@pytest.mark.parametrize("name", ["shallow_water", "epsilon3",
                                  "shallow_water_riemann"])
def test_jacobi_without_a_bracket_is_an_error(name, capsys):
    assert main(["jacobi", name, "--grid", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: system declares no bracket (needs g_upper or h_ultra)"
            in captured.err)


# --- entry point ----------------------------------------------------------------

def child_env():
    """Environment for a child interpreter that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hydrobrackets.cli", "examples"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.split() == ALL_EXAMPLES


def test_cli_import_leaves_scipy_unloaded():
    """The runtime needs numpy only: neither the import, nor a sampled-flow
    hodograph solve, nor a metric pencil loads scipy."""
    code = ("import contextlib, io, sys, hydrobrackets.cli as cli\n"
            "print('scipy' in sys.modules)\n"
            "from hydrobrackets import library, verify\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['hodograph', 'shallow_water_riemann']) == 0\n"
            "sphere = library.load('sphere').system\n"
            "verify.pencil_regularity(sphere, sphere)\n"
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_no_module_imports_scipy():
    found = []
    for path in sorted((SRC / "hydrobrackets").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_cli_import_and_config_load_leave_jsonschema_unloaded():
    """Configs are validated by the package's own schema walk."""
    code = ("import sys, hydrobrackets.cli; from hydrobrackets import library; "
            "library.load('polar_plane'); print('jsonschema' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
