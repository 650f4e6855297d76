"""Seeded random data for tests: polynomials, metrics, sections, points."""

from __future__ import annotations

import random
from fractions import Fraction

from protract.cli import (
    _rand_field as poly_field,
    _rand_poly as poly,
    _rand_section as section,
)
from protract.expr import parse
from protract.geometry import ChartGeometry
from protract.tensor import TensorField


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def rational_points(rng: random.Random, dim: int, count: int,
                    span: int = 2) -> list:
    """Points with small exact coordinates inside (-span/2, span/2)."""
    pts = []
    for _ in range(count):
        pts.append([Fraction(rng.randint(-24, 24), 48 // span)
                    for _ in range(dim)])
    return pts


def float_points(rng: random.Random, dim: int, count: int,
                 lo: float = -0.9, hi: float = 0.9) -> list:
    return [[rng.uniform(lo, hi) for _ in range(dim)] for _ in range(count)]


def random_metric(rng: random.Random, dim: int) -> ChartGeometry:
    """Diagonally dominant polynomial metric, invertible on the box."""
    rows = [["0"] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = "%d + %d/8*x%d^2" % (i + 2, rng.randint(0, 3),
                                          (i + 1) % dim)
        for j in range(i + 1, dim):
            off = "%d/8*x%d*x%d" % (rng.randint(-1, 1), i, j)
            rows[i][j] = off
            rows[j][i] = off
    entries = [parse(rows[i][j], dim) for i in range(dim)
               for j in range(dim)]
    return ChartGeometry(TensorField(dim, 0, 2, entries))


def invertible(geom, point) -> bool:
    from protract.geometry import GeometryError
    from protract.expr import EvalDomainError

    try:
        geom.check_invertible_at(point)
    except (GeometryError, EvalDomainError):
        return False
    return True
