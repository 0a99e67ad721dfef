import argparse
import ast
import csv
import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpflow.cli
import warpflow.flows
import warpflow.quantities
import warpflow.surface
from warpflow import inequalities
from warpflow.ambient import _SPACE_OPTIONS, parse_options, parse_space_spec
from warpflow.cli import (
    EXIT_ERROR, EXIT_FINDING, EXIT_OK, EXIT_USAGE, Pool, RunConfig, UsageError,
    _expand_range, _sweep_members, main, steady_allocator,
)
from warpflow.grid import circle_grid, sphere_grid
from warpflow.surface import _SURFACE_OPTIONS, make_seed_surface, parse_surface_spec


def run(args):
    return main(args)


def test_usage_errors_exit_64(capsys, tmp_path, monkeypatch):
    assert run(["evolve", "--space", "sphere", "--flow", "euclidean-inverse",
                "--k", "1", "--surface", "round:r0=1", "--t-final", "1"]) == EXIT_USAGE
    assert run(["verify", "--space", "hyperbolic", "--surface", "round:r0=1",
                "--check", "hyperbolic-ref:k=1,ell=2"]) == EXIT_USAGE
    assert run(["verify", "--space", "flatland", "--surface", "round:r0=1",
                "--check", "weinstock"]) == EXIT_USAGE
    assert run(["verify", "--space", "euclidean", "--surface", "blob:r=1",
                "--check", "weinstock"]) == EXIT_USAGE
    assert run(["verify", "--space", "euclidean", "--surface", "round:r0=1"]) == EXIT_USAGE
    assert run(["evolve", "--space", "euclidean", "--flow", "imcf",
                "--surface", "round:r0=1", "--t-final", "1",
                "--grid", "8x16"]) == EXIT_USAGE
    capsys.readouterr()
    # an explicit n = 2 grid with --n 1 is refused, not replaced by the n = 1 default
    assert run(["verify", "--n", "1", "--grid", "64x128", "--check", "girao"]) == EXIT_USAGE
    assert "'64x128'" in capsys.readouterr().err
    # an unknown, repeated or misspelt option is refused and named
    for args, named in ((["--space", "hyperbolic", "--check", "hyperbolic-ref:k=1,el=1"], "'el'"),
                        (["--check", "weinstock:k=7"], "'k'"),
                        (["--check", "girao:k=1,k=2"], "'k' given twice"),
                        (["--check", "kwong_miao:k"], "'k'"),
                        (["--check", "blob"], "'blob'"),
                        (["--surface", "round:r0=1,r0=2"], "'r0' given twice"),
                        (["--space", "custom:cosh,a=0.5,a=1"], "'a' given twice"),
                        # a fraction for an integer key is refused, not truncated
                        (["--check", "minkowski:k=1.5"],
                         "'k' in 'minkowski:k=1.5' takes integers, got '1.5'"),
                        (["--check", "phi-quermass:k=0.5"], "'k'"),
                        (["--check", "kwong-miao:k=2.5"], "'k'"),
                        (["--space", "hyperbolic", "--check", "hyperbolic-ref:k=1,ell=0.7"],
                         "'ell'"),
                        (["--space", "sphere", "--check", "sphere-ref:ell=1.5"], "'ell'"),
                        (["--surface", "legendre:r0=1,eps=0.1,l=2.5"], "'l'"),
                        (["--surface", "bandlimited:seed=1.7,r0=1,amp=0.05,lmax=4"], "'seed'"),
                        (["--surface", "bandlimited:seed=1,r0=1,amp=0.05,lmax=inf"], "'lmax'"),
                        # out of range is refused before any numpy runs
                        (["--surface", "bandlimited:seed=1,r0=1,amp=0.05,lmax=0"],
                         "'lmax' must be >= 1, got 0"),
                        (["--surface", "bandlimited:seed=-1,r0=1,amp=0.05,lmax=4"],
                         "'seed' must be >= 0, got -1"),
                        # a negative degree is refused, not read as P_{-l-1}
                        (["--surface", "legendre:r0=1,eps=0.1,l=-3"], "'l' must be >= 0")):
        assert run(["verify", "--grid", "16x32", "--check", "girao", *args]) == EXIT_USAGE
        assert named in capsys.readouterr().err, args
    for spec, named in (("legendre:r0=1,eps=0:0.1:0.05,l=2,l=3", "'l' given twice"),
                        ("legendre:r0=1,eps=0:0.1:0.05,ell=2", "'ell'"),
                        ("legendre:r0=1:2,eps=0:0.1:0.05,l=2", "one swept parameter"),
                        ("legendre:r0=1,eps=0.1,l=2:3:0.5", "'l' in"),
                        ("bandlimited:seed=-1:1,r0=1,amp=0.05,lmax=4", "'seed' must be"),
                        ("legendre:r0=1,eps=0.1,l=-3:2", "'l' must be >= 0")):
        assert run(["sweep", "--grid", "16x32", "--surface", spec,
                    "--check", "girao"]) == EXIT_USAGE
        assert named in capsys.readouterr().err, spec
    for bad in ("0.5:2.5", "1:2:0", "2:1:1"):
        assert run(["sweep", "--space", "euclidean", "--grid", "16x32",
                    "--surface", f"legendre:r0=1,eps=0.1,l={bad}",
                    "--check", "girao"]) == EXIT_USAGE
        assert f"'{bad}'" in capsys.readouterr().err
    # sweep input is checked in the parent, before any worker starts
    assert run(["sweep", "--space", "flatland", "--grid", "16x32", "--workers", "2",
                "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2",
                "--check", "girao"]) == EXIT_USAGE
    assert "flatland" in capsys.readouterr().err
    assert run(["sweep", "--space", "euclidean", "--grid", "16x32", "--workers", "2",
                "--surface", "blob:r0=1:2", "--check", "girao"]) == EXIT_USAGE
    assert "blob" in capsys.readouterr().err
    # a malformed surface file names the line at fault
    short = tmp_path / "short.csv"
    short.write_text("theta,phi,u\n0.1,0.2\n")
    assert run(["verify", "--space", "euclidean", "--surface-file", str(short),
                "--check", "girao"]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err
    # missing or unreadable input files name their path
    missing = tmp_path / "missing.csv"
    assert run(["verify", "--space", "euclidean", "--surface-file", str(missing),
                "--check", "girao"]) == EXIT_USAGE
    assert str(missing) in capsys.readouterr().err
    assert run(["verify", "--config", str(tmp_path / "missing.json"),
                "--check", "girao"]) == EXIT_USAGE
    assert "missing.json" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text('{"space": ')
    assert run(["verify", "--config", str(broken), "--check", "girao"]) == EXIT_USAGE
    assert "broken.json" in capsys.readouterr().err
    # a member's check or surface fails the same way with or without workers
    for workers in ("1", "2"):
        assert run(["sweep", "--space", "euclidean", "--grid", "16x32", "--workers", workers,
                    "--surface", "round:r0=1:2", "--check", "hyperbolic-ref"]) == EXIT_USAGE
        assert "this bound is a hyperbolic statement" in capsys.readouterr().err
        assert run(["sweep", "--space", "sphere", "--grid", "16x32", "--workers", workers,
                    "--surface", "round:r0=2:4", "--check", "girao"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "graph radius 4.0" in err and "outside the ambient domain" in err
        assert "np.float64" not in err
    # the worker count from the environment is checked like --workers
    for bad in ("x", "0"):
        monkeypatch.setenv("WARPFLOW_WORKERS", bad)
        assert run(["sweep", "--space", "euclidean", "--grid", "16x32",
                    "--surface", "round:r0=1:2", "--check", "girao"]) == EXIT_USAGE
        assert "WARPFLOW_WORKERS" in capsys.readouterr().err
    monkeypatch.delenv("WARPFLOW_WORKERS")
    # a bad worker count or config value names its key, from a flag or a file
    sweep = ["sweep", "--space", "euclidean", "--grid", "16x32",
             "--surface", "round:r0=1:2", "--check", "girao"]
    assert run(sweep + ["--workers", "0"]) == EXIT_USAGE
    assert "workers must be >= 1, got 0" in capsys.readouterr().err
    for values, message in (({"cfl": "0.2"}, "config key 'cfl' must be float, got '0.2'"),
                            ({"workers": 0}, "workers must be >= 1, got 0"),
                            ({"workers": 1.5}, "config key 'workers' must be int"),
                            ({"checks": "girao"}, "config key 'checks' must be list[str]"),
                            ({"out": 3}, "config key 'out' must be str or null"),
                            # checked against its flag's choices, and finite
                            ({"fmt": "xml"}, "config key 'fmt' must be one of 'csv', 'json'"),
                            ({"n": 5}, "config key 'n' must be one of 1, 2, got 5"),
                            ({"tol": math.nan}, "config key 'tol' must be a finite number"),
                            ({"t_final": math.inf}, "config key 't_final' must be a finite")):
        config = tmp_path / "values.json"
        config.write_text(json.dumps(values))
        assert run(sweep + ["--config", str(config)]) == EXIT_USAGE, values
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, argv, message", [
    ({"bogus": 1}, ["verify", "--check", "girao"], "unknown config key 'bogus'"),
    ([1], ["verify", "--check", "girao"], "{config}: config must be a JSON object"),
    (None, ["evolve"], "evolve requires --flow"),
    (None, ["evolve", "--flow", "nope"], "unknown flow 'nope'"),
    (None, ["reference"], "reference requires --r or --invert"),
    (None, ["sweep", "--surface", "legendre:r0=1,eps=a:b,l=2", "--check", "girao"],
     "sweep value 'a:b' is not v, lo:hi or lo:hi:step"),
    (None, ["sweep"], "sweep requires at least one --check"),
    (None, ["dump-surface"], "dump-surface requires --out"),
])
def test_usage_errors_name_their_cause(capsys, tmp_path, config, argv, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
        message = message.format(config=path)
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_static_convexity_is_undefined_where_lambda_prime_is_negative(capsys):
    # lambda' = cos 2 < 0 on the sphere's geodesic sphere of radius 2
    space = parse_space_spec("sphere")
    graph = make_seed_surface(space, sphere_grid(16, 32), "round", r0=2.0)
    rep = warpflow.quantities.QuantityReport(space, graph)
    assert rep.static_margin is None and rep.class_flags["static_convex"] is None
    assert run(["verify", "--space", "sphere", "--grid", "16x32", "--surface", "round:r0=2",
                "--check", "sphere-ref:ell=0"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].endswith(";static_convex=None")


def test_negative_tol_exits_64(capsys, tmp_path):
    # a negative tol made an exact equality, deficit 0, a finding (exit 2)
    verify = ["verify", "--grid", "16x32", "--check", "girao"]
    sweep = ["sweep", "--grid", "16x32", "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2",
             "--check", "girao"]
    config = tmp_path / "tol.json"
    config.write_text(json.dumps({"tol": -1}))
    for argv in (verify, sweep):
        for source in (["--tol", "-1"], ["--config", str(config)]):
            assert run(argv + source) == EXIT_USAGE, argv + source
            assert "usage error: tol must be >= 0, got -1.0" in capsys.readouterr().err
    assert run(verify + ["--tol", "0"]) == EXIT_OK


def test_refused_checks_keep_their_messages(capsys):
    for space, item, message in (
            ("euclidean", "minkowski:k=3", "need 1 <= k <= n = 2"),
            ("euclidean", "girao:k=0.5", "need k >= 1, got 0.5"),
            ("euclidean", "girao:k=inf", "need a finite k, got inf"),
            ("euclidean", "girao:k=1e6",
             "check girao:k=1e6 overflows: Numerical result out of range"),
            ("hyperbolic", "hyperbolic-ref:k=1,ell=2", "need 0 <= ell <= k = 1"),
            ("sphere", "sphere-ref:ell=3", "need 0 <= ell <= n = 2"),
            ("sphere", "weinstock", "the squared-momentum bound is a euclidean statement"),
            ("euclidean", "kwong-miao:k=3", "need 1 <= k <= n = 2"),
            ("euclidean", "phi-quermass:k=0", "need 1 <= k <= n = 2"),
            ("hyperbolic", "phi-quermass", "this bound is a euclidean statement"),
            ("euclidean", "curve", "the curve bound needs n = 1")):
        argv = ["verify", "--space", space, "--grid", "16x32", "--check", item]
        assert run(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err == f"usage error: {message}\n"


def test_checks_that_are_not_finite_exit_64(capsys):
    # girao:k=inf wrote a nan row and exited 0, and ahead of a finding it hid
    # the finding (min() keeps a leading nan); kwong-miao on a sphere of
    # radius 1e103 reads inf against inf and wrote a nan row
    verify = ["verify", "--grid", "16x32", "--tol", "0"]
    assert run(verify + ["--check", "girao:k=400"]) == EXIT_FINDING
    for checks, surface, message in (
            (["girao:k=inf", "girao:k=400"], "round:r0=1", "need a finite k, got inf"),
            (["kwong-miao:k=1"], "round:r0=1e103",
             "check kwong-miao:k=1 is not finite: lhs inf, rhs inf")):
        capsys.readouterr()
        argv = verify + ["--surface", surface] + [arg for c in checks for arg in ("--check", c)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err == f"usage error: {message}\n"


def test_evolve_exits_2_on_a_finding_and_1_on_an_early_stop(monkeypatch, capsys):
    # a guard row that every imcf step breaks: a persistent finding, then a
    # step underflow, and the finding decides the exit code
    row = warpflow.flows.Monotone("area", -1, lambda rep: rep.area)
    monkeypatch.setitem(warpflow.flows.FLOWS, "imcf", dataclasses.replace(
        warpflow.flows.FLOWS["imcf"], monotones=lambda k, ks: [row]))
    assert run(["evolve", "--space", "hyperbolic", "--flow", "imcf", "--grid", "16x32",
                "--surface", "round:r0=1", "--eps-mono", "1e-300"]) == EXIT_FINDING
    err = capsys.readouterr().err
    assert "'quantity': 'area'" in err and "persistent wrong-way move" in err
    assert "'note': 'wrong-way move since the last sample'" in err
    monkeypatch.undo()
    # imcf in the sphere stops when the mean curvature nears zero at the equator
    assert run(["evolve", "--space", "sphere", "--flow", "imcf", "--grid", "16x32",
                "--surface", "round:r0=1.5", "--t-final", "1"]) == EXIT_ERROR
    assert "terminated early: ('equator_stop', " in capsys.readouterr().err


def test_report_intervals_beyond_the_bound_exit_64(capsys):
    # 1e298 intervals ended as a step underflow (exit 1), and 1e11 ran without end
    evolve = ["evolve", "--flow", "imcf", "--grid", "16x32", "--t-final", "0.01"]
    for report_dt, intervals in (("1e-300", "1e+298"), ("1e-13", "1e+11")):
        assert run_bounded(evolve + ["--report-dt", report_dt]) == EXIT_USAGE
        assert (f"usage error: t_final / report_dt = {intervals} report intervals, above "
                "100000") in capsys.readouterr().err


def test_non_finite_flags_exit_64(capsys):
    evolve = ["evolve", "--flow", "imcf", "--grid", "16x32", "--t-final", "0.01"]
    for argv in (evolve + ["--t-final", "nan"], evolve + ["--t-final", "inf"],
                 evolve + ["--eps-mono", "nan"], evolve + ["--report-dt", "nan"],
                 evolve + ["--max-rel-step", "nan"], evolve + ["--cfl", "inf"],
                 ["verify", "--grid", "16x32", "--check", "girao", "--tol", "nan"],
                 ["reference", "--space", "hyperbolic", "--r", "nan"],
                 ["reference", "--space", "hyperbolic", "--invert", "nan"],
                 ["probe", "--space", "hyperbolic", "--r-max", "inf"]):
        assert run(argv) == EXIT_USAGE, argv
        assert f"argument {argv[-2]}: must be a finite number" in capsys.readouterr().err


# each subcommand's flags as the hand-written parser declared them: option
# string = the type its value is read as (* when the flag repeats) {choices}
_COMMON_FLAGS = ("--config=str --space=str --n=int{1,2} --grid=str --surface=str "
                 "--surface-file=str --out=str")
_FLAGS = {
    "evolve": _COMMON_FLAGS + " --format=str{csv,json} --flow=str --k=int --t-final=float "
              "--report-dt=float --cfl=float --max-rel-step=float --eps-mono=float",
    "verify": _COMMON_FLAGS + " --format=str{csv,json} --check=str* --tol=float",
    "reference": "--config=str --space=str --n=int{1,2} --k=int --ell=int --r=float "
                 "--invert=float --format=str{csv,json}",
    "probe": "--config=str --space=str --r-max=float --samples=int --format=str{csv,json}",
    "sweep": _COMMON_FLAGS + " --format=str{csv,json} --check=str* --tol=float --workers=int",
    "dump-surface": _COMMON_FLAGS,
}


def _flag(action) -> str:
    star = "*" if isinstance(action, argparse._AppendAction) else ""
    choices = "" if action.choices is None else "{%s}" % ",".join(map(str, action.choices))
    return (f"{'/'.join(action.option_strings)}="
            f"{type((action.type or str)('2')).__name__}{star}{choices}")


def test_each_option_is_declared_once():
    (sub,) = [a for a in warpflow.cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(_FLAGS)
    dests = set()
    for command, parser in sub.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert " ".join(map(_flag, actions)) == _FLAGS[command], command
        options = [a for a in actions if a.dest != "config"]
        # an unset flag leaves the config file's value in place
        assert all(a.default is argparse.SUPPRESS for a in options), command
        dests |= {a.dest for a in options}
    # every flag is a RunConfig field, and every field but command is a flag
    assert dests == {f.name for f in dataclasses.fields(RunConfig)} - {"command"}


def test_integer_options_take_whole_numbers(capsys):
    # fractions are refused (test_usage_errors_exit_64); whole numbers pass in any
    # spelling, and the boundary-momentum exponent is real
    sweep = ["sweep", "--grid", "16x32", "--check", "girao", "--surface"]
    assert run(sweep + ["legendre:r0=1,eps=0.1,l=2:4"]) == EXIT_OK
    assert run(sweep + ["bandlimited:seed=1:3,r0=1,amp=0.05,lmax=4.0"]) == EXIT_OK
    assert run(["verify", "--grid", "16x32", "--check", "minkowski:k=2.0"]) == EXIT_OK
    assert run(["verify", "--grid", "16x32", "--check", "boundary-momentum:k=1.5"]) == EXIT_OK
    capsys.readouterr()


_IMPORT_PATH_SCRIPT = """
import contextlib, io, sys
import warpflow.cli as cli

runs = []
for space, flow, k, t_final in (("euclidean", "imcf", "1", "0.01"),
                                ("hyperbolic", "sx", "1", "0.005"),
                                ("sphere", "bgl", "2", "0.01")):
    common = ["--space", space, "--grid", "16x32"]
    surface = "bandlimited:seed={},r0=0.5,amp=0.02,lmax=4"
    for argv in (["verify", *common, "--surface", surface.format(7), "--check", "girao"],
                 ["sweep", *common, "--surface", surface.format("1:2"), "--check", "girao"],
                 ["evolve", *common, "--surface", surface.format(7), "--flow", flow,
                  "--k", k, "--t-final", t_final]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            runs.append(cli.main(argv))
print(runs)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _fresh_python(script: str) -> str:
    """The stdout of script run by a new interpreter that imports this warpflow."""
    src = str(Path(warpflow.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def test_cli_runs_without_importing_scipy():
    """Importing scipy.special tripled the start-up of a warpflow call; nothing on
    the CLI path of the built-in ambients may import any of scipy."""
    codes, modules = _fresh_python(_IMPORT_PATH_SCRIPT).splitlines()
    assert codes == str([EXIT_OK] * 9)
    assert modules == "[]"


def test_verify_and_an_inline_sweep_import_no_multiprocessing():
    """Only a forking sweep needs multiprocessing: it cost about 4.6 ms of every
    warpflow start-up when cli imported it."""
    out = _fresh_python("""
import contextlib, io, sys
import warpflow.cli as cli
cli._FORK_S = float("inf")      # the sweep runs inline whatever its members take
runs = []
for argv in (["verify", "--grid", "16x32", "--surface", "round:r0=1", "--check", "girao"],
             ["sweep", "--grid", "16x32", "--workers", "2", "--check", "girao",
              "--surface", "bandlimited:seed=1:4,r0=1,amp=0.05,lmax=4"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        runs.append(cli.main(argv))
print(runs, "multiprocessing" in sys.modules)
""")
    assert out == f"{[EXIT_OK] * 2} False\n"


def test_importing_every_module_loads_no_scipy():
    # warpflow.surface computes its Legendre functions by recurrence, and
    # every ambient's radial integrals are closed forms, so neither importing a
    # module nor reading a custom ambient's volume loads scipy.
    # warpflow.__main__ runs the CLI when imported and imports only warpflow.cli.
    out = _fresh_python("""
import importlib, math, pkgutil, sys
import warpflow
names = [info.name for info in pkgutil.iter_modules(warpflow.__path__, "warpflow.")
         if info.name != "warpflow.__main__"]
for name in names:
    importlib.import_module(name)
print(" ".join(names))
from warpflow.ambient import parse_space_spec
from warpflow.grid import sphere_grid
from warpflow.quantities import full_report
from warpflow.surface import make_seed_surface
volumes = []
for spec in ("custom:cosh,a=0.5", "custom:power_cubic,beta=0.5"):
    space = parse_space_spec(spec)
    graph = make_seed_surface(space, sphere_grid(16, 32), "legendre", r0=1, eps=0.1, l=2)
    volumes.append(full_report(space, graph).volume)
print(all(math.isfinite(v) and v > 0 for v in volumes))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    names, volumes_ok, modules = out.splitlines()
    assert {f"warpflow.{name}" for name in ("ambient", "cli", "flows", "grid", "inequalities",
                                            "quantities", "surface")} <= set(names.split())
    assert volumes_ok == "True"
    assert modules == "[]"


def test_no_warpflow_module_imports_scipy():
    """A lazy import inside a function runs only when that function does, so the
    fresh-interpreter tests above cannot see it; every import statement of the
    package is read from its source instead."""
    package = Path(warpflow.cli.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_verify_round_equalities(tmp_path, capsys):
    out = tmp_path / "def.csv"
    code = run(["verify", "--space", "euclidean", "--n", "2", "--grid", "64x128",
                "--surface", "round:r0=1",
                "--check", "girao", "--check", "weinstock",
                "--check", "boundary-momentum:k=1.5",
                "--check", "phi-quermass:k=1", "--check", "kwong-miao:k=2",
                "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row["relative_deficit"])) <= 1e-6
        assert "mean_convex=True" in row["class_flags"]
    capsys.readouterr()


def test_verify_json_format(capsys):
    code = run(["verify", "--space", "euclidean", "--grid", "64x128",
                "--surface", "legendre:r0=1,eps=0.2,l=2",
                "--check", "weinstock", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["name"] == "weinstock_iso"
    assert payload[0]["deficit"] > 0
    assert set(payload[0]) >= {"name", "k", "ell", "lhs", "rhs", "deficit",
                               "relative_deficit", "class_flags"}


def test_evolve_writes_parseable_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(["evolve", "--space", "hyperbolic", "--flow", "sx", "--k", "1",
                "--grid", "32x64", "--surface", "round:r0=1",
                "--t-final", "0.5", "--report-dt", "0.25", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    cols = rows[0].keys()
    for required in ("t", "area", "volume", "W0", "W1", "W2", "W3",
                     "momentum_1", "phiE1", "monotone_hyp_lhs", "minH",
                     "minE1", "min_static_margin", "dt"):
        assert required in cols, required
    for row in rows:
        for value in row.values():
            float(value)  # every cell parses
    # stationary round seed: rows essentially identical
    assert float(rows[0]["area"]) == pytest.approx(float(rows[-1]["area"]), rel=1e-12)
    capsys.readouterr()


def test_options_only_where_read(tmp_path, capsys, monkeypatch):
    # --workers belongs to sweep, the one command with worker processes, and
    # dump-surface writes CSV only
    assert run(["evolve", "--flow", "imcf", "--workers", "4"]) == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert run(["dump-surface", "--format", "json",
                "--out", str(tmp_path / "surf.csv")]) == EXIT_USAGE
    assert "--format" in capsys.readouterr().err
    # so the worker count from the environment is read by sweep alone
    monkeypatch.setenv("WARPFLOW_WORKERS", "x")
    assert run(["probe", "--space", "hyperbolic"]) == EXIT_OK
    assert run(["reference", "--space", "hyperbolic", "--r", "1"]) == EXIT_OK
    capsys.readouterr()


def test_evolve_json_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run(["evolve", "--space", "euclidean", "--flow", "imcf", "--k", "1",
                "--grid", "32x64", "--surface", "round:r0=1",
                "--t-final", "0.1", "--report-dt", "0.05",
                "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["meta"]["termination"] == ["reached_t_final"]
    assert len(payload["samples"]) == 3
    assert payload["samples"][0]["area"] == pytest.approx(4 * math.pi, rel=1e-10)
    steps = payload["meta"]["steps"]
    assert steps["accepted"] >= 2 and not any(steps["rejected"].values())
    # an RKC attempt of s stages costs s geometry calls, the last on its candidate;
    # the renormalized imcf adds one per sample, and the start surface one more
    assert steps["geometry_calls"] == steps["stages_total"] + len(payload["samples"]) + 1
    assert 2 <= steps["stages_max"] and steps["stages_total"] >= 2 * steps["accepted"]
    assert set(steps["rejected"]) == {"step_error", "cone", "guard", "domain", "non_finite"}
    err = capsys.readouterr().err
    assert err.startswith(f"steps: {steps['accepted']} accepted, ") and err.count("\n") == 1
    assert f"{steps['stages_total']} stages (max {steps['stages_max']})" in err


def test_reference_command(capsys):
    assert run(["reference", "--space", "hyperbolic", "--k", "1", "--ell", "0",
                "--r", "1.0", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["xi_k"] == pytest.approx(12.3758, abs=1e-4)
    assert data["chi_ell"] == pytest.approx(5.11093, abs=1e-5)

    chi = data["chi_ell"]
    assert run(["reference", "--space", "hyperbolic", "--ell", "0",
                "--invert", str(chi), "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["chi_inverse"] == pytest.approx(1.0, abs=1e-10)


def test_probe_command(capsys):
    assert run(["probe", "--space", "hyperbolic", "--r-max", "20",
                "--samples", "100", "--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert all(v["holds"] for v in data["verdicts"].values())
    assert run(["probe", "--space", "custom:power_cubic,beta=1,a=0,c=1",
                "--r-max", "100"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "unbounded" in text


def test_sweep_legendre_eps(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", "--space", "euclidean", "--grid", "32x64",
                "--surface", "legendre:r0=1,eps=0:0.2:0.05,l=2",
                "--check", "girao", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    deficits = [float(r["min_deficit"]) for r in rows]
    assert abs(deficits[0]) < 1e-10
    assert all(b > a - 1e-12 for a, b in zip(deficits, deficits[1:]))
    capsys.readouterr()
    # a range stops at its last member within hi, whatever the rounding of (hi - lo)/step
    for text, members in (("0:1:0.6", [0.0, 0.6]), ("1:0:-0.6", [1.0, 0.4]),
                          ("0:0.5:0.3", [0.0, 0.3]), ("0:0.1:0.05", [0.0, 0.05, 0.1]),
                          ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.30000000000000004])):
        swept = _sweep_members(f"legendre:r0=1,eps={text},l=2")
        assert [params["eps"] for _, params in swept] == members, text
    assert run(["sweep", "--grid", "16x32", "--surface", "legendre:r0=1,eps=0:0.5:0.3,l=2",
                "--check", "girao"]) == EXIT_OK
    assert [row["eps"] for row in csv.DictReader(capsys.readouterr().out.splitlines())] == [
        "0.0", "0.3"]


def test_sweep_json_cells_are_numbers(capsys):
    assert run(["sweep", "--grid", "16x32", "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2",
                "--check", "girao", "--check", "weinstock", "--format", "json"]) == EXIT_OK
    samples = json.loads(capsys.readouterr().out)["samples"]
    assert [row["eps"] for row in samples] == [0.0, 0.05, 0.1]
    for row in samples:
        assert row.keys() == {"eps", "l", "r0", "boundary_momentum_k1", "weinstock_iso",
                              "min_deficit"}
        assert all(type(cell) is float for cell in row.values()), row
        assert row["min_deficit"] == min(row["boundary_momentum_k1"], row["weinstock_iso"])


def test_empty_surface_file_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["verify", "--surface-file", str(empty), "--check", "girao"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(empty) in err and "empty" in err


def test_non_numeric_surface_cell_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta,phi,u\n0.1,0.2,1.0\n0.1,abc,1.0\n")
    assert run(["verify", "--surface-file", str(bad), "--check", "girao"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{bad}: line 3" in err and "'abc'" in err


def test_malformed_grid_spec_names_the_spec(capsys):
    for n, spec in (("2", "64x"), ("2", "x128"), ("2", "64xabc"), ("1", "5l2")):
        assert run(["verify", "--n", n, "--grid", spec, "--check", "girao"]) == EXIT_USAGE
        assert f"grid spec {spec!r}" in capsys.readouterr().err, spec


def test_sweep_bandlimited_seeds(tmp_path, capsys):
    out = tmp_path / "seeds.csv"
    code = run(["sweep", "--space", "euclidean", "--grid", "32x64",
                "--surface", "bandlimited:seed=1:5,r0=1,amp=0.05,lmax=4",
                "--check", "girao", "--check", "weinstock",
                "--workers", "2", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(r["min_deficit"]) > 0 for r in rows)
    capsys.readouterr()


def test_sphere_bandlimited_degree_above_150_is_refused_by_name(capsys):
    # P_151^151 = -301!! sin^151(theta) overflows a double near the equator, so
    # an n = 2 lmax above 150 is refused by name before the table is built and
    # never reaches the radius check as NaN; 150 builds a finite surface with
    # no floating-point warning, and the circle family has no such limit
    space = parse_space_spec("euclidean")
    with np.errstate(all="raise"):
        u = make_seed_surface(space, sphere_grid(16, 32), "bandlimited",
                              seed=1, r0=1, amp=0.05, lmax=150).u
    assert np.all(np.isfinite(u))
    assert np.all(np.isfinite(make_seed_surface(space, circle_grid(512), "bandlimited",
                                                seed=1, r0=1, amp=0.05, lmax=151).u))
    assert run(["verify", "--grid", "16x32", "--check", "girao",
                "--surface", "bandlimited:seed=1,r0=1,amp=0.05,lmax=151"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'lmax' must be <= 150" in err and "nan" not in err


_FORK_ALWAYS = mock.patch.multiple(warpflow.cli, _FORK_S=0.0, _FORK_S_PER_NODE=0.0)
_FORK_NEVER = mock.patch.object(warpflow.cli, "_FORK_S", math.inf)


def test_sweep_worker_count_bytewise_identical(tmp_path, capsys):
    base = ["sweep", "--space", "euclidean", "--grid", "32x64",
            "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2", "--check", "girao"]
    out1, out4 = tmp_path / "s1.csv", tmp_path / "s4.csv"
    assert run(base + ["--out", str(out1), "--workers", "1"]) == EXIT_OK
    with _FORK_ALWAYS:
        assert run(base + ["--out", str(out4), "--workers", "4"]) == EXIT_OK
    assert out1.read_bytes() == out4.read_bytes()
    capsys.readouterr()


def _square(x):
    return x * x


def _square_and_pid(x):
    return x * x, os.getpid()


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.integers(-1000, 1000), max_size=7), processes=st.integers(1, 4))
def test_pool_map_is_the_sequential_map_and_forks_one_less(items, processes):
    # the calling process is one of the workers: --workers 4 over 3 members
    # forks 2 children, and a one-member sweep forks none
    started, start = [], multiprocessing.Process.start

    def counting(proc):
        started.append(proc)
        return start(proc)

    with mock.patch.object(multiprocessing.Process, "start", counting), Pool(processes) as pool:
        assert pool.map(_square, items, 0.0) == [_square(x) for x in items]
    assert len(started) == max(0, min(processes, len(items)) - 1)
    assert multiprocessing.active_children() == []


def test_pool_caller_runs_the_first_and_largest_share():
    with Pool(3) as pool:
        out = pool.map(_square_and_pid, range(7), 0.0)
    assert [v for v, _ in out] == [x * x for x in range(7)]
    pids = [pid for _, pid in out]
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3] == pids[4] != pids[5] == pids[6]
    assert os.getpid() not in pids[3:]


def test_pool_forks_only_children_whose_share_outlasts_the_break_even(capsys):
    # the first item is timed at 30 ms (cold), the second at 10 ms, and the
    # projection reads the faster: of 8 items, 4 or 3 processes would give a
    # child 2 (20 ms, not above 25 ms), 2 processes give it 4 (40 ms)
    clock = types.SimpleNamespace(perf_counter=iter([0.0, 0.03, 0.03, 0.04]).__next__)
    with mock.patch.object(warpflow.cli, "time", clock), Pool(4) as pool:
        pids = [pid for _, pid in pool.map(_square_and_pid, range(8), 0.025)]
    assert pids[:4] == [os.getpid()] * 4
    assert len(set(pids[4:])) == 1 and os.getpid() not in pids[4:]
    assert capsys.readouterr().err == (
        "sweep: 8 members ran in 2 of at most 4 processes: a child's share of 2 "
        "would take 20.0 ms, not above the 25.0 ms break-even of a fork\n")


@pytest.mark.parametrize("grid, members, member_s, processes", [
    pytest.param("128x256", 4, 5.4e-3, 1, id="gallery"),
    pytest.param("64x128", 20, 0.95e-3, 2, id="flow_imcf"),
    pytest.param("64x128", 20, 1.1e-3, 2, id="flow_sx")])
def test_benchmark_sweeps_fork_where_their_timings_favour(grid, members, member_s, processes,
                                                          capsys):
    # members timed as the benchmark's after its verifies: a gallery child's
    # share of two 128x256 members (about 11 ms) is below that grid's
    # break-even, a flow child's share of ten 64x128 members (9.5-11 ms) above
    started, start = [], multiprocessing.Process.start

    def counting(proc):
        started.append(proc)
        return start(proc)

    clock = types.SimpleNamespace(perf_counter=itertools.count(0.0, member_s).__next__)
    with (mock.patch.object(warpflow.cli, "time", clock),
          mock.patch.object(multiprocessing.Process, "start", counting)):
        assert run_bounded(["sweep", "--space", "euclidean", "--grid", grid, "--workers", "2",
                            "--surface", f"bandlimited:seed=1:{members},r0=1,amp=0.05,lmax=4",
                            "--check", "girao"]) == EXIT_OK
    assert len(started) == processes - 1
    assert ("ran in 1 of at most 2" in capsys.readouterr().err) == (processes == 1)


def _die_in_a_child(monkeypatch, seed):
    """Make the sweep member with this seed end its process with code 3, in a child only."""
    sweep_one, parent = warpflow.cli._sweep_one, os.getpid()

    def dying(task):
        if os.getpid() != parent and task[4]["seed"] == seed:
            os._exit(3)
        return sweep_one(task)

    monkeypatch.setattr(warpflow.cli, "_sweep_one", dying)


def _timeout(signum, frame):
    raise TimeoutError("the command was still running after 30 s")


def run_bounded(args):
    """run(args), interrupted after 30 s, so that a hang (a sweep waiting on a dead
    child, a run of endless report intervals) fails."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        return run(args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_SWEEP4 = ["sweep", "--space", "euclidean", "--grid", "16x32", "--workers", "2",
           "--surface", "bandlimited:seed=1:4,r0=1,amp=0.05,lmax=4", "--check", "girao"]
_FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="the patched member function reaches a child by fork only")


@_FORK_ONLY
@_FORK_ALWAYS
def test_sweep_worker_death_is_an_error_not_a_hang(monkeypatch, capsys):
    # members 1-2 run in the caller, 3-4 in the one child, which dies on its second
    _die_in_a_child(monkeypatch, 4.0)
    assert run_bounded(_SWEEP4) == EXIT_ERROR
    assert "members 3-4 of 4 exited with code 3" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "clean", "usage_in_caller_share", "usage_in_child_share",
    pytest.param("child_death", marks=_FORK_ONLY)])
@_FORK_ALWAYS
def test_no_process_outlives_a_sweep(case, monkeypatch, capsys):
    argv, expected, message = _SWEEP4, EXIT_OK, ""
    if case == "child_death":
        _die_in_a_child(monkeypatch, 3.0)
        expected, message = EXIT_ERROR, "exited with code 3"
    elif case != "clean":
        # of three members the caller runs the first two, the child the last
        radii = "4:2:-1" if case == "usage_in_caller_share" else "2:4"
        argv = ["sweep", "--space", "sphere", "--grid", "16x32", "--workers", "2",
                "--surface", f"round:r0={radii}", "--check", "girao"]
        expected, message = EXIT_USAGE, "graph radius 4.0"
    assert run_bounded(argv) == expected
    assert message in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@_FORK_NEVER
def test_small_sweep_runs_in_the_caller_and_says_so(monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing.Process, "start", mock.Mock(side_effect=AssertionError))
    assert run_bounded(_SWEEP4) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("sweep: 4 members ran in 1 of at most 2 processes: "
                             "a child's share of 2 would take ")
    assert err[0].endswith(" ms, not above the inf ms break-even of a fork")


def test_inline_and_forked_sweeps_write_the_same_bytes(tmp_path, capsys):
    inline, forked = tmp_path / "inline.csv", tmp_path / "forked.csv"
    with _FORK_NEVER:
        assert run_bounded(_SWEEP4 + ["--out", str(inline)]) == EXIT_OK
    assert "ran in 1 of at most 2" in capsys.readouterr().err
    with _FORK_ALWAYS:
        assert run_bounded(_SWEEP4 + ["--out", str(forked)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert inline.read_bytes() == forked.read_bytes()


def test_dump_surface_roundtrip(tmp_path, capsys):
    out = tmp_path / "surf.csv"
    assert run(["dump-surface", "--space", "euclidean", "--grid", "16x32",
                "--surface", "bandlimited:seed=3,r0=1,amp=0.05,lmax=3",
                "--out", str(out)]) == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header == "theta,phi,u"
    code = run(["verify", "--space", "euclidean", "--grid", "16x32",
                "--surface-file", str(out), "--check", "girao"])
    assert code == EXIT_OK
    capsys.readouterr()


_SPHERE_DUMP = str(Path(__file__).parent / "golden" / "dump_surface_sphere.csv")   # 16x32
_CURVE_DUMP = str(Path(__file__).parent / "golden" / "dump_surface_curve.csv")     # n = 1, 64


def test_evolve_surface_file_records_the_files_grid(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert run(["evolve", "--flow", "imcf", "--surface-file", _SPHERE_DUMP, "--t-final", "0.002",
                "--report-dt", "0.002", "--format", "json", "--out", str(out)]) == EXIT_OK
    config = json.loads(out.read_text())["meta"]["config"]
    assert (config["n"], config["grid"], config["surface"]) == (2, "16x32", None)
    capsys.readouterr()


def test_surface_file_refuses_a_grid_it_is_not_on(tmp_path, capsys):
    assert run(["verify", "--grid", "128x256", "--surface-file", _SPHERE_DUMP,
                "--check", "girao"]) == EXIT_USAGE
    assert "grid 16x32" in capsys.readouterr().err
    # a grid set in a config file is refused the same way; the file's own passes
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": "32x64", "checks": ["girao"]}))
    assert run(["verify", "--config", str(cfg), "--surface-file", _SPHERE_DUMP]) == EXIT_USAGE
    assert "grid 16x32" in capsys.readouterr().err
    assert run(["verify", "--config", str(cfg), "--grid", "16x32",
                "--surface-file", _SPHERE_DUMP]) == EXIT_OK
    capsys.readouterr()


def test_surface_file_refuses_an_n_it_is_not_on(capsys):
    argv = ["evolve", "--k", "2", "--flow", "euclidean-inverse", "--surface-file", _CURVE_DUMP]
    assert run(argv[:1] + ["--n", "2"] + argv[1:]) == EXIT_USAGE
    assert "n=1 grid 64" in capsys.readouterr().err
    # with n taken from the file, k = 2 is a usage error of its own
    assert run(argv) == EXIT_USAGE
    assert "k = 2 outside 1..1" in capsys.readouterr().err


def test_surface_file_refuses_a_seed(tmp_path, capsys):
    # the file is the run's surface: a seed beside it, from a flag or a config
    # file, exits 64 naming the file instead of being recorded unused
    assert run(["verify", "--surface-file", _SPHERE_DUMP,
                "--surface", "legendre:r0=2,eps=0.1,l=2", "--check", "girao"]) == EXIT_USAGE
    assert f"surface file {_SPHERE_DUMP}" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"surface": "round:r0=2"}))
    assert run(["evolve", "--flow", "imcf", "--config", str(cfg),
                "--surface-file", _SPHERE_DUMP]) == EXIT_USAGE
    assert f"surface file {_SPHERE_DUMP}" in capsys.readouterr().err


def test_sweep_refuses_a_surface_file(capsys):
    assert run(["sweep", "--surface-file", _SPHERE_DUMP, "--grid", "16x32",
                "--check", "girao"]) == EXIT_USAGE
    assert "--surface family" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "space": "euclidean", "grid": "32x64",
        "surface": "round:r0=1", "checks": ["weinstock"], "n": 2,
    }))
    assert run(["verify", "--config", str(cfg)]) == EXIT_OK
    # flag overrides the file value
    assert run(["verify", "--config", str(cfg),
                "--surface", "legendre:r0=1,eps=0.1,l=2"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = [r for r in out.splitlines() if r.startswith("weinstock")]
    assert len(rows) == 2


def test_workers_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WARPFLOW_WORKERS", "2")
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--space", "euclidean", "--grid", "32x64",
                "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2",
                "--check", "girao", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()


def test_runconfig_roundtrip():
    cfg = RunConfig(command="verify", space="hyperbolic", grid="48x96",
                    checks=["girao", "weinstock"], k=2, tol=1e-9)
    clone = RunConfig(**json.loads(json.dumps(cfg.to_dict())))
    assert clone == cfg


def test_verify_probing_negative_exit(capsys, tmp_path):
    # minkowski residual reported as lhs with rhs 0 always passes;
    # fabricate a finding with a tiny tol on a legendre deficit instead
    code = run(["verify", "--space", "euclidean", "--grid", "32x64",
                "--surface", "round:r0=1", "--check", "weinstock",
                "--tol", "1e-30"])
    # equality case deficits hover at roundoff of either sign
    assert code in (EXIT_OK, EXIT_FINDING)
    capsys.readouterr()


def test_verify_checks_of_one_surface_share_one_report(capsys, monkeypatch):
    # the three checks read their W_ell from one report: one quermassintegral run
    calls = []
    quermassintegrals = warpflow.quantities.quermassintegrals

    def counted(*args, **kwargs):
        calls.append(args)
        return quermassintegrals(*args, **kwargs)

    monkeypatch.setattr(warpflow.quantities, "quermassintegrals", counted)
    code = run(["verify", "--space", "hyperbolic", "--grid", "16x32",
                "--surface", "bandlimited:seed=7,r0=1,amp=0.03,lmax=4",
                "--check", "hyperbolic-ref:k=1,ell=0", "--check", "hyperbolic-ref:k=1,ell=1",
                "--check", "hyperbolic-ref:k=2,ell=2"])
    assert code == EXIT_OK
    assert len(calls) == 1
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_verify_evaluates_each_nodal_value_once(capsys, monkeypatch):
    # six checks on one surface: lambda(u) comes from the one geometry call,
    # and the principal curvatures behind the five deficits' flags are computed once
    nodal_warps, classes = [], []

    def counted_space(spec):
        space = parse_space_spec(spec)

        def warp(r):
            if np.size(r) == 16 * 32:
                nodal_warps.append(r)
            return space.warp(r)
        return dataclasses.replace(space, warp=warp)

    principal_curvatures = warpflow.surface._principal_curvatures

    def counted_class(*args):
        classes.append(args)
        return principal_curvatures(*args)

    monkeypatch.setattr(warpflow.cli, "parse_space_spec", counted_space)
    monkeypatch.setattr(warpflow.surface, "_principal_curvatures", counted_class)
    checks = ("girao", "boundary-momentum:k=2", "hyperbolic-ref:k=1,ell=0",
              "hyperbolic-ref:k=1,ell=1", "hyperbolic-ref:k=2,ell=2", "minkowski:k=1")
    code = run(["verify", "--space", "hyperbolic", "--grid", "16x32",
                "--surface", "bandlimited:seed=7,r0=1,amp=0.03,lmax=4",
                *(arg for check in checks for arg in ("--check", check))])
    assert code == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(checks)
    assert len(nodal_warps) == 1
    assert len(classes) == 1


def test_sweep_computes_no_principal_curvatures(capsys, monkeypatch):
    # sweep writes deficits only, so no member computes the curvatures behind
    # the class flags that verify writes beside each deficit
    calls = []
    principal_curvatures = warpflow.surface._principal_curvatures

    def counted(*args):
        calls.append(args)
        return principal_curvatures(*args)

    monkeypatch.setattr(warpflow.surface, "_principal_curvatures", counted)
    assert run(["sweep", "--space", "hyperbolic", "--grid", "16x32", "--workers", "1",
                "--surface", "bandlimited:seed=1:4,r0=1,amp=0.03,lmax=4",
                "--check", "girao", "--check", "hyperbolic-ref:k=1,ell=0"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert calls == []


def test_sweep_range_is_sized_before_it_is_built(capsys):
    # a range holds at most 1e5 members, counted from lo, hi and step
    assert len(_expand_range("0:99999")) == 100_000
    with pytest.raises(UsageError, match=r"^sweep range '0:100000' has 100001 members, "
                                         r"above 100000$"):
        _expand_range("0:100000")
    # an infinite count exited 1 converting it to an integer, and a billion
    # members were a list of a billion floats before the first one ran
    for spec, count in (("round:r0=0:1e308:1e-308", "inf"),
                        ("bandlimited:seed=0:1000000000,r0=1,amp=0.05,lmax=4", "1e+09")):
        assert run(["sweep", "--grid", "16x32", "--surface", spec,
                    "--check", "girao"]) == EXIT_USAGE
        assert f"has {count} members, above 100000" in capsys.readouterr().err


def test_steady_allocator_reuses_heap_pages():
    """Repeated bursts of field-sized temporaries fault in no new pages."""
    if not steady_allocator():
        pytest.skip("malloc thresholds are fixed on glibc only")

    def burst():
        arrs = [np.ones((64, 128, 3, 3)) for _ in range(6)]    # 590 KB each
        return sum(float(a[0, 0, 0, 0]) for a in arrs)

    burst()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        burst()
    # the default thresholds fault in about 4000 pages here
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def _space_values(spec):
    space = parse_space_spec(spec)
    return space.kind, space.a, space.fiber_scale, float(space.lam(2.0))


# each check name's keys and their types, read from the statement table
_CHECK_OPTIONS = {name: {key: type(default) for key, (default, _, _) in row.options.items()}
                  for name, row in inequalities.STATEMENTS.items()}
# grammar -> (parse, table of names and their keys); every value drawn below
# is valid for its key: a whole number for an int key
_GRAMMARS = {
    "space": (_space_values, _SPACE_OPTIONS),
    "surface": (parse_surface_spec, _SURFACE_OPTIONS),
    "check": (lambda spec: parse_options(spec, _CHECK_OPTIONS, "check"), _CHECK_OPTIONS),
    "sweep": (_sweep_members, _SURFACE_OPTIONS),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_option_grammars_ignore_order_and_refuse_repeats(data):
    parse, table = _GRAMMARS[data.draw(st.sampled_from(sorted(_GRAMMARS)))]
    name = data.draw(st.sampled_from(sorted(name for name, keys in table.items() if keys)))

    def value(key):
        return (st.integers(1, 4).map(str) if table[name][key] is int
                else st.floats(0.125, 4.0).map(repr))

    items = [(key, data.draw(value(key))) for key in sorted(table[name])]

    def spec(items):
        return name + ("," if ":" in name else ":") + ",".join(f"{k}={v}" for k, v in items)

    want = parse(spec(items))
    shuffled = data.draw(st.permutations(items))
    assert parse(spec(shuffled)) == want
    key = data.draw(st.sampled_from(sorted(table[name])))
    shuffled.insert(data.draw(st.integers(0, len(shuffled))), (key, data.draw(value(key))))
    with pytest.raises(ValueError, match=f"'{key}' given twice"):
        parse(spec(shuffled))
