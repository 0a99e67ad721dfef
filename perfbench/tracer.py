"""Span recorder and the bindings it wraps in warpflow, from outside.

warpflow's modules bind each other's functions with ``from ... import``, so
a layer boundary is traced by rebinding the name in every module that
imports it.  ``Tracer.install`` does that and ``Tracer.uninstall`` restores
the originals; nothing under ``src/warpflow`` is edited.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` rows and
written out by ``write_spans`` when the benchmark ends.  Sweep members run
in worker processes, whose spans stay in the workers: the parent records
only the pool's lifetime (``cli.sweep.pool``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter


def differentiate_flops(grid) -> int:
    """Floating-point operations of one grid.differentiate call, computed.

    Counted from the stencil code, not measured: on an MxP sphere grid, 12
    per node for the two theta first derivatives, 9 for the theta second
    derivative, 3 per longitude offset (P/2 - 1 offsets) for the
    antisymmetric circulant, 5 per offset plus 3 for the symmetric one, and
    4 for the Christoffel corrections; on an m-node circle, 6 + 9 per node.
    """
    if grid.n == 1:
        return 15 * grid.node_count
    M, P = grid.shape
    return M * P * (8 * (P // 2 - 1) + 28)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.

    Children of one span never overlap (calls nest on one thread), so the
    covered time is the sum of the children's durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def covered_time(spans, prefixes: tuple[str, ...]) -> float:
    """Wall time inside spans whose name starts with one of ``prefixes``,
    counting nested matches once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        match = name.startswith(prefixes)
        outer = parent >= 0 and inside[parent]
        inside[i] = match or outer
        if match and not outer:
            total += end - start
    return total


class Tracer:
    """In-memory spans and counts at warpflow's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        self.counts[name + ".calls"] += 1
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    # ------------------------------------------------------------ patching
    def _rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        import warpflow.cli as cli
        import warpflow.flows as flows
        import warpflow.inequalities as ineq
        import warpflow.quantities as quantities
        import warpflow.surface as surface

        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def count_flops(args, _):
            counts["grid.differentiate.flop_computed"] += differentiate_flops(args[0])

        self._rebind(surface, "differentiate",
                     self.wrap("grid.differentiate", surface.differentiate, count_flops))

        geometry = surface.geometry
        for module in (quantities, ineq, cli):
            self._rebind(module, "geometry", self.wrap("surface.geometry", geometry))

        def count_flow_geometry(args, _):
            counts["flows.geometry_calls"] += 1

        self._rebind(flows, "geometry",
                     self.wrap("surface.geometry", geometry, count_flow_geometry))

        volume = quantities.volume
        for module in (quantities, ineq):
            self._rebind(module, "volume", self.wrap("quantities.volume", volume))
        quermass = quantities.quermassintegrals
        for module in (quantities, flows, ineq):
            self._rebind(module, "quermassintegrals",
                         self.wrap("quantities.quermassintegrals", quermass))
        self._rebind(flows, "full_report",
                     self.wrap("quantities.full_report", quantities.full_report))

        def count_samples(_, trace):
            counts["flows.samples"] += len(trace.samples)

        self._rebind(cli, "evolve", self.wrap("flows.evolve", flows.evolve, count_samples))

        # cli reaches inequalities through the module (``ineq.<name>``) and
        # the deficits reach ball_chi_inverse through module globals, so
        # rebinding inside warpflow.inequalities covers every caller.
        for attr in ("deficit_boundary_momentum", "deficit_weinstock_iso",
                     "deficit_phi_quermass_euclidean", "kwong_miao_deficit",
                     "deficit_hyperbolic_ref", "deficit_sphere_ref",
                     "minkowski_residual", "curve_kwww_deficit"):
            self._rebind(ineq, attr, self.wrap("inequalities.check", getattr(ineq, attr)))
        self._rebind(ineq, "ball_chi_inverse",
                     self.wrap("inequalities.ball_chi_inverse", ineq.ball_chi_inverse))
        self._rebind(ineq, "monotone_series",
                     self.wrap("inequalities.monotone_series", ineq.monotone_series))

        def count_points(args, _):
            counts["ambient.warp.points"] += int(getattr(args[0], "size", 1))

        parse_space_spec = cli.parse_space_spec

        def traced_space(spec):
            space = parse_space_spec(spec)
            return dataclasses.replace(
                space, warp=self.wrap("ambient.warp", space.warp, count_points))

        self._rebind(cli, "parse_space_spec", traced_space)
        self._rebind(cli, "Pool", functools.partial(_TimedPool, self, cli.Pool))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # ------------------------------------------------------------ summary
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {"s": inclusive seconds, "self_s": self seconds}."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span[0], {"s": 0.0, "self_s": 0.0})
            row["s"] += span[2] - span[1]
            row["self_s"] += own
        return out


class _TimedPool:
    """multiprocessing.Pool seen from the parent: one span per pool lifetime."""

    def __init__(self, tracer: Tracer, pool_cls, *args, **kwargs):
        self._tracer = tracer
        self._idx = tracer.begin("cli.sweep.pool")
        try:
            self._pool = pool_cls(*args, **kwargs)
        except BaseException:
            tracer.end(self._idx)
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.end(self._idx)

    def map(self, *args, **kwargs):
        return self._pool.map(*args, **kwargs)


def write_spans(path, spans, header: dict) -> None:
    """One JSON header line, then one JSON array per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for name, start, end, parent, run_id in spans:
            fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")
