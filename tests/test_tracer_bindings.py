"""The benchmark tracer (perfbench/tracer.py) rebinds names inside warpflow's
modules from outside.  Installing it must find every name it rebinds, and
uninstalling it must put back the very objects it replaced.

    python -m pytest tests/test_tracer_bindings.py -q
"""

import sys
from pathlib import Path

import warpflow.cli
import warpflow.flows
import warpflow.inequalities
import warpflow.quantities
import warpflow.surface

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402

sys.path.pop(0)

MODULES = (warpflow.cli, warpflow.flows, warpflow.inequalities, warpflow.quantities,
           warpflow.surface)


def test_tracer_install_uninstall_restores_every_binding():
    before = {module: dict(vars(module)) for module in MODULES}
    tracer = Tracer()
    try:
        tracer.install()
        rebound = [(module, attr) for module, attr, _ in tracer._saved]
        assert {m.__name__ for m, _ in rebound} == {m.__name__ for m in MODULES}
        for module, attr in rebound:
            assert getattr(module, attr) is not before[module][attr], (module.__name__, attr)
    finally:
        tracer.uninstall()
    for module, attr in rebound:
        assert getattr(module, attr) is before[module][attr], (module.__name__, attr)
    for module in MODULES:
        assert vars(module).keys() == before[module].keys()
        assert all(vars(module)[name] is obj for name, obj in before[module].items())


def test_tracer_counts_every_check(capsys):
    # one inequalities.check span per --check, one ball_chi_inverse per reference check
    for space, checks, spans in (
            ("euclidean", ("girao", "boundary-momentum:k=2", "weinstock", "phi-quermass:k=1",
                           "kwong-miao:k=2", "minkowski:k=1"), (6, 0)),
            ("hyperbolic", ("hyperbolic-ref:k=1,ell=0", "hyperbolic-ref:k=2,ell=2"), (2, 2)),
            ("sphere", ("sphere-ref:ell=1",), (1, 1))):
        argv = ["verify", "--space", space, "--grid", "16x32"]
        for item in checks:
            argv += ["--check", item]
        tracer = Tracer()
        try:
            tracer.install()
            assert warpflow.cli.main(argv) == 0, capsys.readouterr().err
        finally:
            tracer.uninstall()
        counts = tracer.counts
        assert (counts["inequalities.check.calls"],
                counts["inequalities.ball_chi_inverse.calls"]) == spans, space
