"""The benchmark's workloads: what each one runs and how its outputs are checked.

Every operation goes through ``warpflow.cli.main``, the function behind the
``warpflow`` command.  The workload seed only chooses the inputs: it draws
the ``bandlimited:seed=...`` surface seeds and the round radii, and the
program receives nothing but the resulting surface specs.

A run is a sequence of *units*.  Every unit has a *screen*: it verifies a
list of surfaces one ``warpflow verify`` call at a time, then runs
``warpflow sweep --workers 2`` over the same bandlimited families, and every
sweep row must equal the sequential verify deficits byte for byte.  In the
flow workloads a unit screens a batch of candidate seeds with the inequality
its flow proves and then evolves the first candidate; in the gallery a unit
is a screen alone, on a 4x finer grid and in every ambient.  Spreading the
verify and sweep samples over the whole run makes every metric average over
the same stretch of time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

# Tolerances of the acceptance gate (tests/test_acceptance.py).
EQUALITY_TOL = 1e-6        # A01: |relative deficit| on round inputs
AREA_LAW_TOL = 1e-5        # A03: max |log(A/A0) - t| under imcf
MONOTONE_TOL = 1e-6        # A02/A05: relative per-sample move the wrong way

# One instance of every check kind each ambient supports, and three of the
# reference bounds, which differ in the functional ball_chi_inverse inverts.
EUCLIDEAN_CHECKS = ("girao", "boundary-momentum:k=2", "weinstock", "phi-quermass:k=1",
                    "kwong-miao:k=2", "minkowski:k=1")
HYPERBOLIC_CHECKS = ("girao", "boundary-momentum:k=2", "hyperbolic-ref:k=1,ell=0",
                     "hyperbolic-ref:k=1,ell=1", "hyperbolic-ref:k=2,ell=2", "minkowski:k=1")
SPHERE_CHECKS = ("girao", "boundary-momentum:k=2", "sphere-ref:ell=0", "sphere-ref:ell=1",
                 "sphere-ref:ell=2", "minkowski:k=1")
CURVE_CHECKS = ("curve", "girao")


@dataclass(frozen=True)
class Family:
    """Consecutive ``bandlimited`` seeds of one ambient, grid and check list."""

    space: str
    n: int
    grid: str
    r0: float
    amp: float
    first_seed: int
    count: int
    checks: tuple[str, ...]

    def spec(self, seed) -> str:
        return f"bandlimited:seed={seed},r0={self.r0!r},amp={self.amp!r},lmax=4"

    @property
    def seeds(self) -> range:
        return range(self.first_seed, self.first_seed + self.count)

    def specs(self) -> list[str]:
        return [self.spec(s) for s in self.seeds]

    def base_args(self) -> list[str]:
        args = ["--space", self.space, "--n", str(self.n), "--grid", self.grid]
        for check in self.checks:
            args += ["--check", check]
        return args


@dataclass(frozen=True)
class Round:
    """A round surface: every check sits at equality."""

    space: str
    n: int
    grid: str
    r0: float
    checks: tuple[str, ...]

    def spec(self) -> str:
        return f"round:r0={self.r0!r}"

    def specs(self) -> list[str]:
        return [self.spec()]


@dataclass(frozen=True)
class Op:
    """One CLI call; ``members`` is how many operations it counts as."""

    kind: str                  # verify | sweep | evolve
    argv: tuple[str, ...]
    family: Family | None = None
    seed: int | None = None
    round_: Round | None = None
    flow: str | None = None
    members: int = 1

    @property
    def n(self) -> int:
        return (self.family or self.round_).n


@dataclass(frozen=True)
class Screen:
    families: tuple[Family, ...]
    rounds: tuple[Round, ...] = ()
    workers: int = 2

    def verify_ops(self) -> list[Op]:
        ops = []
        for fam in self.families:
            for s in fam.seeds:
                argv = ("verify", *fam.base_args(), "--surface", fam.spec(s))
                ops.append(Op("verify", argv, family=fam, seed=s))
        for rnd in self.rounds:
            argv = ["verify", "--space", rnd.space, "--n", str(rnd.n), "--grid", rnd.grid,
                    "--surface", rnd.spec()]
            for check in rnd.checks:
                argv += ["--check", check]
            ops.append(Op("verify", tuple(argv), round_=rnd))
        return ops

    def sweep_ops(self) -> list[Op]:
        ops = []
        for fam in self.families:
            last = fam.first_seed + fam.count - 1
            spec = fam.spec(f"{fam.first_seed}:{last}")
            argv = ("sweep", *fam.base_args(), "--surface", spec,
                    "--workers", str(self.workers))
            ops.append(Op("sweep", argv, family=fam, members=fam.count))
        return ops


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, smaller ones are for tests."""

    flow_grid: str = "64x128"
    batch: int = 20                # flow workloads: seeds screened per unit
    imcf_t_final: float = 0.04
    sx_t_final: float = 0.005
    gallery_grid: str = "128x256"
    curve_grid: str = "512"
    per_ambient: int = 4           # gallery: bandlimited surfaces per ambient and unit
    curves: int = 2                # gallery: bandlimited curves per unit
    min_verifies: int = 100        # n = 2 verifies: 10 samples above p90
    min_evolves: int = 5           # flow workloads: samples of wall_s


FULL = Sizes()


@dataclass
class Workload:
    """A named sequence of units; why each exists is stated in BENCHMARK.json."""

    name: str
    sizes: Sizes = FULL
    min_evolves = 0

    def rng(self, seed: int, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.name, seed) + salt)))

    def screen(self, seed: int, unit: int, workers: int) -> Screen:
        raise NotImplementedError

    def evolve_op(self, seed: int, unit: int) -> Op | None:
        return None

    def unit_ops(self, seed: int, unit: int, workers: int) -> list[Op]:
        """The operations of one unit: its screen, then its evolve if any."""
        screen = self.screen(seed, unit, workers)
        evolve = self.evolve_op(seed, unit)
        return screen.verify_ops() + screen.sweep_ops() + ([evolve] if evolve else [])


class _FlowWorkload(Workload):
    space = ""
    flow = ""
    check = ""
    r0 = 1.0
    amp = 0.02

    @property
    def min_evolves(self):
        return self.sizes.min_evolves

    def family(self, seed: int, unit: int) -> Family:
        """The candidate seeds screened in one unit; the first one is evolved."""
        first = self.rng(seed).randrange(1, 10**6) + unit * self.sizes.batch
        return Family(self.space, 2, self.sizes.flow_grid, self.r0, self.amp, first,
                      self.sizes.batch, (self.check,))

    def screen(self, seed, unit, workers):
        return Screen((self.family(seed, unit),), workers=workers)

    def flow_args(self) -> list[str]:
        raise NotImplementedError

    def evolve_op(self, seed, unit):
        fam = self.family(seed, unit)
        argv = ("evolve", "--space", self.space, "--grid", fam.grid, "--surface",
                fam.spec(fam.first_seed), "--flow", self.flow, "--k", "1",
                "--format", "json", *self.flow_args())
        return Op("evolve", argv, family=fam, seed=fam.first_seed, flow=self.flow)


class FlowImcf(_FlowWorkload):
    space, flow, check = "euclidean", "imcf", "girao"
    # steps are error-controlled: at amp 0.01 their number varies by about
    # 5% across seeds, twice that at 0.02
    amp = 0.01

    def flow_args(self):
        t = self.sizes.imcf_t_final
        return ["--t-final", repr(t), "--report-dt", repr(t / 4)]


class FlowSx(_FlowWorkload):
    space, flow, check = "hyperbolic", "sx", "hyperbolic-ref:k=1,ell=0"

    def flow_args(self):
        # 25 report intervals, each short enough to clip every step, so each
        # step is followed by one sample as with the CLI default of 100
        # intervals, at a quarter of the run time
        t = self.sizes.sx_t_final
        return ["--t-final", repr(t), "--report-dt", repr(t / 25)]


class Gallery(Workload):
    def screen(self, seed, unit, workers):
        sz = self.sizes
        rng = self.rng(seed, unit)
        fams, rounds = [], []
        for space, r0, amp, checks in (
                ("euclidean", 1.0, 0.05, EUCLIDEAN_CHECKS),
                ("hyperbolic", 1.0, 0.05, HYPERBOLIC_CHECKS),
                ("sphere", 0.7, 0.03, SPHERE_CHECKS)):
            fams.append(Family(space, 2, sz.gallery_grid, r0, amp,
                               rng.randrange(1, 10**6), sz.per_ambient, checks))
            rounds.append(Round(space, 2, sz.gallery_grid,
                                round(r0 * rng.uniform(0.8, 1.2), 6), checks))
        fams.append(Family("euclidean", 1, sz.curve_grid, 1.0, 0.05,
                           rng.randrange(1, 10**6), sz.curves, CURVE_CHECKS))
        rounds.append(Round("euclidean", 1, sz.curve_grid,
                            round(rng.uniform(0.8, 1.2), 6), CURVE_CHECKS))
        return Screen(tuple(fams), tuple(rounds), workers)


WORKLOADS = {w.name: w for w in (FlowImcf("flow_imcf"), FlowSx("flow_sx"),
                                  Gallery("gallery"))}


# ---------------------------------------------------------------- checks

@dataclass
class Outcome:
    """Result of one operation plus what its check found."""

    op: Op
    rc: int
    seconds: float
    stdout: str
    stderr: str
    start: float = 0.0                   # perf_counter at the call
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    deficits: list[str] | None = None    # verify: deficit column, as printed

    def fail(self, message: str, members: int | None = None) -> None:
        self.problems.append(message)
        self.failed = min(self.op.members, self.failed + (members or self.op.members))


def per_step_increase(vals: list[float]) -> list[float]:
    return [(b - a) / max(abs(a), abs(b), 1e-300) for a, b in zip(vals, vals[1:])]


def check_verify(out: Outcome) -> None:
    if out.rc != 0:
        out.fail(f"exit {out.rc}: {out.stderr.strip()[:200]}")
        return
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    if len(rows) != out.op.argv.count("--check"):
        out.fail(f"{len(rows)} deficit rows for {out.op.argv.count('--check')} checks")
        return
    out.deficits = [row["deficit"] for row in rows]
    if out.op.round_ is not None:
        for row in rows:
            # the Minkowski row is a residual with rhs 0: its deficit is the gap
            key = "deficit" if row["name"] == "minkowski" else "relative_deficit"
            if not abs(float(row[key])) <= EQUALITY_TOL:
                out.fail(f"round {row['name']} {key} {row[key]} beyond {EQUALITY_TOL}")


def check_sweep(out: Outcome, verified: dict) -> None:
    """Each member row must repeat the sequential verify deficits byte for byte."""
    if out.rc != 0:
        out.fail(f"exit {out.rc}: {out.stderr.strip()[:200]}")
        return
    fam = out.op.family
    rows = list(csv.reader(io.StringIO(out.stdout)))
    header, body = rows[0], rows[1:]
    if len(body) != fam.count:
        out.fail(f"{len(body)} sweep rows for {fam.count} members")
        return
    seed_col = header.index("seed")
    first_check = len(header) - len(fam.checks) - 1     # last column: min_deficit
    for row in body:
        seed = int(float(row[seed_col]))
        want = verified.get((fam, seed))
        got = row[first_check:first_check + len(fam.checks)]
        if want is None:
            out.fail(f"seed {seed}: no passing sequential verify to compare", 1)
        elif got != want:
            out.fail(f"seed {seed}: sweep deficits {got} != verify {want}", 1)


def check_evolve(out: Outcome) -> None:
    if out.rc != 0:
        out.fail(f"exit {out.rc}: {out.stderr.strip()[:200]}")
        return
    samples = json.loads(out.stdout)["samples"]
    if out.op.flow == "imcf":
        t = [s["t"] for s in samples]
        area = [s["area"] for s in samples]
        dev = max(abs(math.log(a / area[0]) - ti) for a, ti in zip(area, t))
        if not dev <= AREA_LAW_TOL:
            out.fail(f"area law deviation {dev:.3e} > {AREA_LAW_TOL}")
        rise = max(per_step_increase([s["Q_imcf_1"] for s in samples]))
        if not rise <= MONOTONE_TOL:
            out.fail(f"Q_imcf_1 rises {rise:.3e} in one step")
    else:
        rise = max(per_step_increase([s["monotone_hyp_lhs"] for s in samples]))
        if not rise <= MONOTONE_TOL:
            out.fail(f"hyperbolic lhs rises {rise:.3e} in one step")
        for name in ("monotone_hyp_W_0", "monotone_hyp_W_1"):
            drop = -min(per_step_increase([s[name] for s in samples]))
            if not drop <= MONOTONE_TOL:
                out.fail(f"{name} drops {drop:.3e} in one step")
