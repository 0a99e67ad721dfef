import csv
import dataclasses
import json
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpflow.cli
import warpflow.quantities
from warpflow.ambient import _SPACE_OPTIONS, parse_options, parse_space_spec
from warpflow.cli import (
    _CHECK_OPTIONS, EXIT_ERROR, EXIT_FINDING, EXIT_OK, EXIT_USAGE, Pool, RunConfig,
    _sweep_members, main, steady_allocator,
)
from warpflow.surface import _SURFACE_OPTIONS, parse_surface_spec


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
                            ({"out": 3}, "config key 'out' must be str or null")):
        config = tmp_path / "values.json"
        config.write_text(json.dumps(values))
        assert run(sweep + ["--config", str(config)]) == EXIT_USAGE, values
        assert message in capsys.readouterr().err


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


def test_cli_runs_without_importing_scipy():
    """Importing scipy.special tripled the start-up of a warpflow call; nothing on
    the CLI path of the built-in ambients may import any of scipy."""
    src = str(Path(warpflow.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    codes, modules = proc.stdout.splitlines()
    assert codes == str([EXIT_OK] * 9)
    assert modules == "[]"


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


def test_sweep_worker_count_bytewise_identical(tmp_path, capsys):
    base = ["sweep", "--space", "euclidean", "--grid", "32x64",
            "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2", "--check", "girao"]
    out1, out4 = tmp_path / "s1.csv", tmp_path / "s4.csv"
    assert run(base + ["--out", str(out1), "--workers", "1"]) == EXIT_OK
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
        assert pool.map(_square, items) == [_square(x) for x in items]
    assert len(started) == max(0, min(processes, len(items)) - 1)
    assert multiprocessing.active_children() == []


def test_pool_caller_runs_the_first_and_largest_share():
    with Pool(3) as pool:
        out = pool.map(_square_and_pid, range(7))
    assert [v for v, _ in out] == [x * x for x in range(7)]
    pids = [pid for _, pid in out]
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3] == pids[4] != pids[5] == pids[6]
    assert os.getpid() not in pids[3:]


def _die_in_a_child(monkeypatch, seed):
    """Make the sweep member with this seed end its process with code 3, in a child only."""
    sweep_one, parent = warpflow.cli._sweep_one, os.getpid()

    def dying(task):
        if os.getpid() != parent and task[4]["seed"] == seed:
            os._exit(3)
        return sweep_one(task)

    monkeypatch.setattr(warpflow.cli, "_sweep_one", dying)


def _timeout(signum, frame):
    raise TimeoutError("the sweep was still running after 30 s")


def run_bounded(args):
    """run(args), interrupted after 30 s, so that a sweep waiting on a dead child fails."""
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
def test_sweep_worker_death_is_an_error_not_a_hang(monkeypatch, capsys):
    # members 1-2 run in the caller, 3-4 in the one child, which dies on its second
    _die_in_a_child(monkeypatch, 4.0)
    assert run_bounded(_SWEEP4) == EXIT_ERROR
    assert "members 3-4 of 4 exited with code 3" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "clean", "usage_in_caller_share", "usage_in_child_share",
    pytest.param("child_death", marks=_FORK_ONLY)])
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
    clone = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
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
    # and the convexity flags are classified once for all five deficits
    nodal_warps, classes = [], []

    def counted_space(spec):
        space = parse_space_spec(spec)

        def warp(r):
            if np.size(r) == 16 * 32:
                nodal_warps.append(r)
            return space.warp(r)
        return dataclasses.replace(space, warp=warp)

    convexity_class = warpflow.quantities.convexity_class

    def counted_class(*args):
        classes.append(args)
        return convexity_class(*args)

    monkeypatch.setattr(warpflow.cli, "parse_space_spec", counted_space)
    monkeypatch.setattr(warpflow.quantities, "convexity_class", counted_class)
    checks = ("girao", "boundary-momentum:k=2", "hyperbolic-ref:k=1,ell=0",
              "hyperbolic-ref:k=1,ell=1", "hyperbolic-ref:k=2,ell=2", "minkowski:k=1")
    code = run(["verify", "--space", "hyperbolic", "--grid", "16x32",
                "--surface", "bandlimited:seed=7,r0=1,amp=0.03,lmax=4",
                *(arg for check in checks for arg in ("--check", check))])
    assert code == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(checks)
    assert len(nodal_warps) == 1
    assert len(classes) == 1


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
