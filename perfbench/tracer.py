"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions of protract's layers with timing
wrappers. A wrapper is installed in every protract module namespace that
holds the original function object, so callers that bound the name at
import time (``from .kernel import eval_table``) are traced too.

A span's self time is its duration minus the time covered by traced
calls made inside it. Bookkeeping the tracer does after a call returns
(walking a DAG to count its nodes, say) is paused out of every open
span, so it shows in neither self nor inclusive times.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction


class Tracer:
    """Call counts, inclusive and self times per span, and counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.sv_margins: list[float] = []
        self._open: list[float] = []   # child time accumulated per open span
        self._paused = 0.0

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Cumulative call counts and counters, for exact comparison."""
        return {"calls": dict(self.calls), "counters": dict(self.counters)}

    def wrap(self, name: str, fn, after=None):
        """A timing wrapper for fn; after(result, args, kwargs) runs untimed."""
        self.calls.setdefault(name, 0)
        self.incl.setdefault(name, 0.0)
        self.self_time.setdefault(name, 0.0)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            paused0 = self._paused
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (self._paused - paused0)
                child = open_spans.pop()
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_time[name] += dt - child
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                t1 = clock()
                after(result, args, kwargs)
                self._paused += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, after):
        """An untimed wrapper that only runs after(result, args, kwargs)."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args, kwargs)
            return result

        counted.__wrapped__ = fn
        return counted


def _replace_everywhere(original, replacement):
    for modname, mod in list(sys.modules.items()):
        if modname != "protract" and not modname.startswith("protract."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _dag_nodes(roots) -> int:
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children())
    return len(seen)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; call once per process."""
    import importlib

    cli, expr, geometry, kernel, program, tensor, transport = (
        importlib.import_module("protract." + name)
        for name in ("cli", "expr", "geometry", "kernel", "program",
                     "tensor", "transport"))

    def pack_nodes(pack, args, kwargs):
        roots = []
        for field in (pack.riemann, pack.ricci, pack.scalar, pack.schouten,
                      pack.weyl, pack.cotton):
            roots.extend(field.components)
        tracer.count("expr.dag_nodes", _dag_nodes(roots))

    def tape_size(table, args, kwargs):
        tracer.count("program.tape_ops", len(table))
        tracer.count("program.tape_slots", table.n_slots)

    def ops_run(out, args, kwargs):
        tracer.count("kernel.ops_interpreted", len(args[0]))
        tracer.count("kernel.points", 1)

    def rk4_steps(out, args, kwargs):
        tracer.count("transport.rk4_steps", args[2])

    def sv_margin(report, args, kwargs):
        bundle = args[0]
        if bundle.name != "metrisability":
            return
        sv_tol = kwargs.get("sv_tol", 1e-6)
        zeros = [s for s in report.singular_values if s < sv_tol]
        if zeros and max(zeros) > 0:
            tracer.sv_margins.append(math.log10(sv_tol / max(zeros)))

    def at_mode(out, args, kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
        point = args[1]
        if mode == "rational" or (mode is None and all(
                isinstance(x, (int, Fraction)) for x in point)):
            tracer.count("tensor.at.rational_calls")

    plan = (
        (expr, "evaluate", "expr.evaluate", None),
        (expr, "diff", "expr.diff", None),
        (program, "compile_table", "program.compile_table", tape_size),
        (kernel, "eval_table", "kernel.eval_table", ops_run),
        (geometry, "derive_pack", "geometry.derive_pack", pack_nodes),
        (geometry, "verify_bianchi", "geometry.verify_bianchi", None),
        (transport, "loop_matrix", "transport.loop_matrix", None),
        (transport, "holonomy_dimension", "transport.holonomy_dimension",
         sv_margin),
        (cli, "load_geometry_spec", "cli.load_geometry_spec", None),
    )
    for module, attr, name, after in plan:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))
    tensor.TensorField.at = tracer.wrap("tensor.at", tensor.TensorField.at,
                                        at_mode)
    transport._segment_matrix = tracer.counter(transport._segment_matrix,
                                               rk4_steps)
