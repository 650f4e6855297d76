"""Seeded random data for tests: polynomials, metrics, sections, points."""

from __future__ import annotations

import random
from fractions import Fraction

from protract.expr import ZERO, Expr, parse
from protract.geometry import ChartGeometry
from protract.tensor import TensorField
from protract.tractor import Section, complete_pair


def rng_for(seed: int) -> random.Random:
    return random.Random(seed)


def poly(rng: random.Random, dim: int) -> Expr:
    """A sum of up to three terms k/4 * u * v, each of u and v 1 or a
    coordinate, k drawn from -4..4 (a term with k = 0 is left out)."""
    names = ["1"] + ["x%d" % i for i in range(dim)]
    terms = []
    for _ in range(3):
        c = rng.randint(-4, 4)
        if c == 0:
            continue
        terms.append("%d/4*%s*%s" % (c, rng.choice(names), rng.choice(names)))
    return parse("+".join(terms) if terms else "0", dim)


def poly_field(rng, dim, p, q, sym=None) -> TensorField:
    """A (p, q) field of poly components, a rank-2 one completed as sym
    says (see tractor.complete_pair)."""
    comps = [poly(rng, dim) for _ in range(dim ** (p + q))]
    complete_pair(comps, dim, sym, ZERO)
    return TensorField(dim, p, q, comps)


def section(rng, cls, dim) -> Section:
    """A random section of type cls: one random field per slot, drawn in
    SLOT_SPEC order, each rank-2 slot completed as SLOT_SYM says."""
    return cls(*[poly_field(rng, dim, p, q, cls.SLOT_SYM.get(name))
                 for name, (p, q) in cls.SLOT_SPEC], validate=False)


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
