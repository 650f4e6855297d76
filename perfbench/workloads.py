"""Workloads: generated spec files, CLI invocation lists, known answers.

Each workload is a fixed list of ``protract`` CLI invocations. Its inputs
are spec files generated from the workload seed; the program sees only
those files. Every invocation carries a known answer that does not rely
on the program's own PASS/FAIL lines, so a wrong verdict counts as a
failed operation even when the program reports success.

Why these two:

- exact-identities: rational-mode Bianchi and Cotton-Weyl checks on a
  random polynomial metric. Almost all time is exact ``Fraction``
  evaluation (``expr.evaluate``) and symbolic ``expr.diff``; the float
  kernel does no work. Hash-consing and an exact tape act here, a
  batched float evaluator should not move it.
- holonomy-sphere2: loop holonomy on the round 2-sphere. Almost all time
  is ``kernel.eval_table`` at one point per call, about 22k calls on
  three tables; derivation and compilation are under 1%. 200 RK4 steps
  is the smallest step count at which the fixed dimensions match the
  known answer (at 100 the metrisability dimension reads 2, not 6).

Between them every layer is measured: expr, tensor and geometry on the
first, program, kernel and transport on the second, cli on both.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


SPEC = "{spec}"   # stands for the path of the generated spec file


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the known-answer check of its report."""
    argv: tuple
    check: Callable[[int, dict], list]


@dataclass(frozen=True)
class Plan:
    spec: dict           # the generated spec document
    calls: tuple         # Call, in order


def _nonfinite(report) -> list:
    problems = []
    for c in report.get("checks", []):
        if not math.isfinite(c["residual"]):
            problems.append("check %s has non-finite residual %r"
                            % (c["name"], c["residual"]))
    return problems


def exact_zero(names):
    """Named checks must read exactly 0.0; the call must exit 0."""
    def check(code, report):
        problems = _nonfinite(report)
        if code != 0:
            problems.append("exit code %r, expected 0" % code)
        got = {c["name"]: c["residual"] for c in report.get("checks", [])}
        for name in names:
            if name not in got:
                problems.append("check %s missing" % name)
            elif got[name] != 0.0:
                problems.append("check %s residual %r, expected exactly 0"
                                % (name, got[name]))
        return problems
    return check


def metric_values(expected: dict):
    """Report metrics must equal the known values; the call must exit 0."""
    def check(code, report):
        problems = _nonfinite(report)
        if code != 0:
            problems.append("exit code %r, expected 0" % code)
        metrics = report.get("metrics", {})
        for key, want in expected.items():
            if metrics.get(key) != want:
                problems.append("metric %s is %r, expected %r"
                                % (key, metrics.get(key), want))
        return problems
    return check


def _coords(dim):
    return ["x%d" % i for i in range(dim)]


def _round_sphere(dim):
    f = "4/(1+%s)^2" % "+".join("x%d^2" % i for i in range(dim))
    return [[f if i == j else "0" for j in range(dim)] for i in range(dim)]


def _random_metric_rows(rng: random.Random, dim: int) -> list:
    """The shape of tests/gen.random_metric with every coefficient nonzero.

    Nonzero coefficients keep the expression DAG the same shape for
    every seed, so the cost of a pass does not depend on the seed.
    Diagonal entries are at least 2 and off-diagonal ones at most 1/8
    on the box, so the metric is invertible there.
    """
    rows = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = "%d + %d/8*x%d^2" % (i + 2, rng.randint(1, 3),
                                          (i + 1) % dim)
        for j in range(i + 1, dim):
            off = "%d/8*x%d*x%d" % (rng.choice((-1, 1)), i, j)
            rows[i][j] = off
            rows[j][i] = off
    return rows


def _build_exact(seed: int, small: bool) -> Plan:
    dim = 2 if small else 3
    rng = random.Random(seed)
    spec = {
        "dim": dim,
        "coords": _coords(dim),
        "metric": _random_metric_rows(rng, dim),
        "box": [[-1, 1]] * dim,
        "samples": {"count": 1, "seed": seed},
        "mode": "rational",
    }
    names = ("bianchi_first", "bianchi_second", "cotton_weyl_relation")
    return Plan(spec, (
        Call(("check", "--spec", SPEC, "--suite", "bianchi"),
             exact_zero(names)),
    ))


def _build_holonomy(seed: int, small: bool) -> Plan:
    # The small size is the flat plane at 60 steps: same known answer.
    spec = {
        "dim": 2,
        "coords": _coords(2),
        "metric": [["1", "0"], ["0", "1"]] if small else _round_sphere(2),
        "box": [[-1, 1], [-1, 1]],
        "samples": {"count": 20, "seed": seed},
        "mode": "float",
    }
    # A projectively flat chart: every fixed dimension equals the bundle
    # rank. The suite itself only asserts metrisability <= rank.
    expected = {"cotractor_fixed_dim": 3, "tractor_fixed_dim": 3,
                "metrisability_fixed_dim": 6}
    return Plan(spec, (
        Call(("check", "--spec", SPEC, "--suite", "holonomy",
              "--steps", "60" if small else "200"),
             metric_values(expected)),
    ))


WORKLOADS = {
    "exact-identities": _build_exact,
    "holonomy-sphere2": _build_holonomy,
}
