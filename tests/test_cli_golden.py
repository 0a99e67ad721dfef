"""CLI output locked byte for byte against stored golden files.

Each case runs ``warpflow.cli.main`` with stdout captured and compares the
exit code and every byte written against ``tests/golden/<case>``.  A change
that is meant to alter the output regenerates the files with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints, per rewritten file, how many numbers changed and the largest
absolute and relative change, for the change to state; any other change
must leave them untouched.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from warpflow.cli import main

GOLDEN = Path(__file__).parent / "golden"

_EVOLVE = {
    "imcf": ["--space", "euclidean", "--flow", "imcf", "--k", "1",
             "--surface", "legendre:r0=1,eps=0.1,l=2",
             "--t-final", "0.1", "--report-dt", "0.05"],
    "euclidean_inverse": ["--space", "euclidean", "--flow", "euclidean-inverse",
                          "--k", "2", "--surface", "legendre:r0=1,eps=0.1,l=2",
                          "--t-final", "0.1", "--report-dt", "0.05"],
    "hyperbolic_sx": ["--space", "hyperbolic", "--flow", "sx", "--k", "1",
                      "--surface", "legendre:r0=1,eps=0.1,l=2",
                      "--t-final", "0.1", "--report-dt", "0.05"],
    "imcf_cosh": ["--space", "custom:cosh,a=0.5,c=1", "--flow", "imcf", "--k", "1",
                  "--surface", "legendre:r0=1,eps=0.1,l=2",
                  "--t-final", "0.1", "--report-dt", "0.05"],
    "sphere_bgl": ["--space", "sphere", "--flow", "bgl", "--k", "2",
                   "--surface", "legendre:r0=1,eps=0.05,l=2",
                   "--t-final", "0.05", "--report-dt", "0.025"],
}

_BOTH = ("girao", "boundary-momentum:k=2", "minkowski:k=1", "minkowski:k=2")
_VERIFY = {
    "euclidean": ("euclidean", _BOTH + ("weinstock", "phi-quermass:k=1", "phi-quermass:k=2",
                                        "kwong-miao:k=1", "kwong-miao:k=2")),
    "hyperbolic": ("hyperbolic", _BOTH + ("hyperbolic-ref:k=1,ell=0", "hyperbolic-ref:k=1,ell=1",
                                          "hyperbolic-ref:k=2,ell=0", "hyperbolic-ref:k=2,ell=1",
                                          "hyperbolic-ref:k=2,ell=2")),
    "sphere": ("sphere", _BOTH + ("sphere-ref:ell=0", "sphere-ref:ell=1", "sphere-ref:ell=2")),
    "cosh": ("custom:cosh,a=0.5,c=1", _BOTH),
    "power_cubic": ("custom:power_cubic,beta=0.5,a=0,c=1", _BOTH),
}

_GRID = ["--n", "2", "--grid", "16x32"]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fmt in ("csv", "json"):
        for kind, args in _EVOLVE.items():
            cases[f"evolve_{kind}.{fmt}"] = ["evolve", *_GRID, *args, "--format", fmt]
        for name, (space, checks) in _VERIFY.items():
            argv = ["verify", *_GRID, "--space", space, "--surface", "legendre:r0=1,eps=0.1,l=2"]
            for check in checks:
                argv += ["--check", check]
            cases[f"verify_{name}.{fmt}"] = argv + ["--format", fmt]
        cases[f"verify_curve.{fmt}"] = [
            "verify", "--space", "euclidean", "--n", "1", "--grid", "64",
            "--surface", "legendre:r0=1,eps=0.1,l=2", "--check", "curve", "--check", "girao",
            "--format", fmt]
        sweep = ["sweep", *_GRID, "--space", "euclidean",
                 "--surface", "legendre:r0=1,eps=0:0.1:0.05,l=2",
                 "--check", "girao", "--check", "weinstock", "--format", fmt]
        cases[f"sweep_legendre.{fmt}"] = sweep
        cases[f"sweep_legendre_pool.{fmt}"] = sweep + ["--workers", "2"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> bytes:
    """Exit code line, then everything main wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    assert _run(CASES[case]) == (GOLDEN / case).read_bytes()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_diff(old: str, new: str) -> str:
    """How many numbers differ between two outputs of the same layout, and by
    how much at most, absolute and relative."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "layout changed"
    pairs = [(float(a), float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new))
             if a != b]
    if not pairs:
        return "0 numbers changed"
    abs_max = max(abs(a - b) for a, b in pairs)
    rel_max = max(abs(a - b) / max(abs(a), abs(b)) for a, b in pairs)
    return f"{len(pairs)} numbers changed, max abs {abs_max:.3g}, max rel {rel_max:.3g}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        path = GOLDEN / name
        new = _run(argv)
        old = path.read_bytes() if path.exists() else None
        if new == old:
            continue
        path.write_bytes(new)
        what = "new file" if old is None else numeric_diff(old.decode(), new.decode())
        print(f"{name}: {what}")
