"""Levi-Civita connections and the curvature stack on a single chart.

Index storage follows tensor.py: contravariant slots first. The
curvature tensor R_ab{}^c{}_d is stored as [c][a][b][d] and its sign is
fixed by the commutation rule (nabla_a nabla_b - nabla_b nabla_a) v^c =
R_ab{}^c{}_d v^d, which the test suite asserts directly so the
convention cannot drift.

gamma^c_ab (symmetric in ab), R_ab{}^c{}_d, W_ab{}^c{}_d, C_abc and the
Cotton-Weyl field (skew in ab) and the two Bianchi cyclic sums (totally
skew in their three cyclic slots, since R is skew in ab) are built once
per orbit of those slots (tensor.pair_field): the other entries are the
same node or its Neg, or ZERO at a repeated skew index, so values are
exactly symmetric or skew, floats too, and every later field and table
shares the smaller DAG.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import EvalDomainError, Expr, ZERO, add, diff_all, mul, neg
from .tensor import (
    TensorField,
    _is_rational_point,
    _probe_points,
    contract,
    is_symmetric_pair,
    matrix_inverse_exprs,
    max_residual,
    max_residuals,
    pair_field,
    symmetrize,
)

__all__ = [
    "GeometryError", "SingularMetricError",
    "ChartGeometry", "AffineConnection", "CurvaturePack",
    "levi_civita", "partial_derivative", "covariant_derivative", "riemann",
    "derive_pack", "connection_pack", "verify_bianchi", "torsion",
    "cotton_weyl_relation",
]


class GeometryError(ValueError):
    pass


class SingularMetricError(GeometryError, EvalDomainError):
    pass


class AffineConnection:
    """Torsion-free connection given by Christoffel symbols gamma[c][a][b]."""

    __slots__ = ("dim", "gamma", "_flat", "_riemann")

    def __init__(self, gamma: TensorField, validate: bool = True):
        if (gamma.p, gamma.q) != (1, 2):
            raise GeometryError("Christoffel array must have valence (1,2)")
        if validate and not is_symmetric_pair(gamma, 1, 2):
            raise GeometryError("connection coefficients must be symmetric")
        self.dim = gamma.dim
        self.gamma = gamma
        self._flat = None
        self._riemann = None

    def curvature(self) -> TensorField:
        """riemann(self), built once per connection."""
        if self._riemann is None:
            self._riemann = riemann(self)
        return self._riemann

    def is_flat(self) -> bool:
        """Whether the curvature vanishes: every Riemann component within
        1e-12 of zero at the fixed probe points (a non-finite value is
        not flat). Decided once per connection."""
        if self._flat is None:
            R = self.curvature()
            self._flat = max_residual(
                [R], _probe_points(R.components, self.dim)) <= 1e-12
        return self._flat

    def __repr__(self):
        return "<AffineConnection dim=%d>" % self.dim


def _exact_nonzero(det: TensorField, point) -> bool:
    try:
        return det.at(point).components[0] != 0
    except EvalDomainError:
        return False


class ChartGeometry:
    """A chart metric plus lazily derived structure (inverse, connection)."""

    __slots__ = ("dim", "metric", "_cache")

    def __init__(self, metric: TensorField, validate: bool = True):
        if (metric.p, metric.q) != (0, 2):
            raise GeometryError("metric must have valence (0,2)")
        if validate and not is_symmetric_pair(metric, 0, 1, count=5):
            raise GeometryError("metric is not symmetric")
        self.dim = metric.dim
        self.metric = metric
        self._cache: dict = {}

    def metric_inverse(self) -> TensorField:
        got = self._cache.get("inverse")
        if got is None:
            n = self.dim
            rows = [[self.metric[i, j] for j in range(n)] for i in range(n)]
            inv, det = matrix_inverse_exprs(rows)
            got = TensorField(n, 2, 0, [inv[i][j] for i in range(n)
                                        for j in range(n)])
            self._cache["inverse"] = got
            self._cache["det"] = TensorField(n, 0, 0, [det])
        return got

    def check_invertible_at(self, point) -> None:
        """Raise SingularMetricError unless invertible_at admits it."""
        if not self.invertible_at([point])[0]:
            raise SingularMetricError("metric is singular at the point")

    def invertible_at(self, points) -> list:
        """Per point, whether det g is not negligible there.

        The threshold is relative: 1e-12 times the Hadamard row bound of
        the evaluated metric (or exact zero in rational mode). A
        non-finite determinant or metric entry counts as singular. The
        points are one batch, exact or float as kernel.eval_table
        decides; an exact batch is screened row by row, and a row whose
        determinant raises EvalDomainError is singular.
        """
        self.metric_inverse()
        det = self._cache["det"]
        if all(map(_is_rational_point, points)):
            return [_exact_nonzero(det, p) for p in points]
        d = det.at_many(points)[:, 0]
        g = np.abs(self.metric.at_many(points)).reshape(len(d), self.dim, -1)
        with np.errstate(all="ignore"):   # 0 * inf in the bound
            bound = np.prod(g.max(axis=2), axis=1)
            return (np.isfinite(d) & np.isfinite(bound)
                    & ~(np.abs(d) < 1e-12 * np.maximum(1.0, bound))).tolist()

    def connection(self) -> AffineConnection:
        got = self._cache.get("connection")
        if got is None:
            got = levi_civita(self)
            self._cache["connection"] = got
        return got

    def pack(self) -> "CurvaturePack":
        got = self._cache.get("pack")
        if got is None:
            got = derive_pack(self)
            self._cache["pack"] = got
        return got

    def __repr__(self):
        return "<ChartGeometry dim=%d>" % self.dim


@dataclass(frozen=True)
class CurvaturePack:
    riemann: TensorField   # [c][a][b][d]
    ricci: TensorField     # [a][b]
    scalar: TensorField    # single component
    schouten: TensorField  # [a][b]
    weyl: TensorField      # [c][a][b][d]
    cotton: TensorField    # [a][b][c]


def levi_civita(geom: ChartGeometry) -> AffineConnection:
    """Koszul formula: gamma^c_ab = g^cd(d_a g_db + d_b g_da - d_d g_ab)/2."""
    n = geom.dim
    ginv = geom.metric_inverse()
    dg = partial_derivative(geom.metric)  # [a][d][b] = d_a g_db
    half = Fraction(1, 2)

    def component(c, a, b):
        return half * add(*[ginv[c, d] * (dg[a, d, b] + dg[b, d, a]
                                          - dg[d, a, b]) for d in range(n)])
    return AffineConnection(pair_field(n, 1, 2, (1, 2), 1, component),
                            validate=False)


def partial_derivative(T: TensorField) -> TensorField:
    """Coordinate partials of a field, valence (p, q+1) in the index
    order of covariant_derivative (uppers..., a, lowers...): one
    diff_all walk over all the components per coordinate."""
    n, p, q = T.dim, T.p, T.q
    by_coord = [diff_all(T.components, a) for a in range(n)]
    lows = n ** q
    return TensorField(n, p, q + 1, [by_coord[a][up * lows + lo]
                                     for up in range(n ** p)
                                     for a in range(n) for lo in range(lows)])


def _nabla_component(gamma: TensorField, T: TensorField, up: tuple, a: int,
                     lo: tuple, partial) -> Expr:
    """nabla_a T^up_lo from the partial derivative d_a T^up_lo: one
    +gamma term per upper slot and one -gamma term per lower slot. A
    term whose component of T is ZERO is skipped; add would drop it."""
    n = T.dim
    comps = T.components
    terms = [partial]
    for i in range(len(up)):
        for e in range(n):
            comp = comps[T.flat(up[:i] + (e,) + up[i + 1:] + lo)]
            if comp is not ZERO:
                terms.append(mul(gamma[up[i], a, e], comp))
    for j in range(len(lo)):
        for e in range(n):
            comp = comps[T.flat(up + lo[:j] + (e,) + lo[j + 1:])]
            if comp is not ZERO:
                terms.append(neg(mul(gamma[e, a, lo[j]], comp)))
    return add(*terms)


def covariant_derivative(conn: AffineConnection, T: TensorField) -> TensorField:
    """Connection derivative; the new covariant slot comes first.

    Output valence is (p, q+1) with index order (uppers..., a, lowers...):
    the partial derivative plus one +gamma term per upper slot and one
    -gamma term per lower slot.
    """
    if conn.dim != T.dim:
        raise GeometryError("dimension mismatch")
    n, p, q = T.dim, T.p, T.q
    return TensorField(n, p, q + 1, [
        _nabla_component(conn.gamma, T, multi[:p], multi[p], multi[p + 1:],
                         val)
        for multi, val in zip(itertools.product(range(n), repeat=p + q + 1),
                              partial_derivative(T).components)])


def riemann(conn: AffineConnection) -> TensorField:
    """Curvature of the connection, stored as [c][a][b][d]."""
    n = conn.dim
    gamma = conn.gamma
    dgamma = partial_derivative(gamma)  # [c][a][b][d] = d_a gamma^c_bd

    def component(c, a, b, d):
        terms = [dgamma[c, a, b, d], -dgamma[c, b, a, d]]
        for e in range(n):
            terms.append(gamma[c, a, e] * gamma[e, b, d])
            terms.append(-(gamma[c, b, e] * gamma[e, a, d]))
        return add(*terms)
    return pair_field(n, 1, 3, (1, 2), -1, component)


def _ricci(riem: TensorField) -> TensorField:
    # R_ab = R_ca{}^c{}_b: pair the upper slot with the first lower slot
    return contract(riem, 0, 0)


def _weyl(riem: TensorField, schouten: TensorField) -> TensorField:
    def component(c, a, b, d):
        val = riem[c, a, b, d]
        if a == c:
            val = val - schouten[b, d]
        if b == c:
            val = val + schouten[a, d]
        return val
    return pair_field(riem.dim, 1, 3, (1, 2), -1, component)


def _partials(T: TensorField, reads) -> list:
    """d_a T at each multi-index m with reads(a, *m), as one dict per
    coordinate a keyed by m: one diff_all per coordinate over only the
    components it reads."""
    multis = list(itertools.product(range(T.dim), repeat=T.rank))
    out = []
    for a in range(T.dim):
        ms = [m for m in multis if reads(a, *m)]
        out.append(dict(zip(ms, diff_all([T[m] for m in ms], a))))
    return out


def _cotton(conn: AffineConnection, schouten: TensorField) -> TensorField:
    """nabla_a P_bc - nabla_b P_ac, reading nabla_a P_bc only for a != b,
    each the node covariant_derivative builds."""
    dP = _partials(schouten, lambda a, b, c: a != b)

    def nabla(a, b, c):
        return _nabla_component(conn.gamma, schouten, (), a, (b, c),
                                dP[a][b, c])
    return pair_field(conn.dim, 0, 3, (0, 1), -1,
                      lambda a, b, c: nabla(a, b, c) - nabla(b, a, c))


def connection_pack(conn: AffineConnection) -> CurvaturePack:
    """Curvature stack for a bare connection; no metric, so no scalar.

    The Ricci tensor is symmetrized before forming Schouten, which is
    the right reduction for connections obtained by a gradient
    projective change.
    """
    n = conn.dim
    if n < 2:
        raise GeometryError("needs dimension at least 2")
    riem = conn.curvature()
    ricci = symmetrize(_ricci(riem), (0, 1))
    schouten = ricci.scaled(Fraction(1, n - 1))
    weyl = _weyl(riem, schouten)
    cotton = _cotton(conn, schouten)
    scalar = TensorField(n, 0, 0, [ZERO])
    return CurvaturePack(riem, ricci, scalar, schouten, weyl, cotton)


def derive_pack(geom: ChartGeometry) -> CurvaturePack:
    """Full curvature stack of the Levi-Civita connection of the metric."""
    n = geom.dim
    if n < 2:
        raise GeometryError("needs dimension at least 2")
    conn = geom.connection()
    riem = conn.curvature()
    ricci = _ricci(riem)
    ginv = geom.metric_inverse()
    scalar = TensorField(n, 0, 0, [add(*[ginv[b, d] * ricci[b, d]
                                         for b in range(n)
                                         for d in range(n)])])
    schouten = ricci.scaled(Fraction(1, n - 1))
    weyl = _weyl(riem, schouten)
    cotton = _cotton(conn, schouten)
    return CurvaturePack(riem, ricci, scalar, schouten, weyl, cotton)


def torsion(conn: AffineConnection) -> TensorField:
    n = conn.dim
    gamma = conn.gamma
    comps = []
    for c in range(n):
        for a in range(n):
            for b in range(n):
                comps.append(gamma[c, a, b] - gamma[c, b, a])
    return TensorField(n, 1, 2, comps)


def _first_bianchi_field(R: TensorField) -> TensorField:
    """R_ab{}^c{}_d + R_da{}^c{}_b + R_bd{}^c{}_a, stored as [c][a][b][d].

    R is skew in ab, so the cyclic sum is totally skew in abd and is
    built once per increasing triple a < b < d (tensor.pair_field)."""
    return pair_field(R.dim, 1, 3, (1, 2, 3), -1, lambda c, a, b, d: (
        R[c, a, b, d] + R[c, d, a, b] + R[c, b, d, a]))


def _second_bianchi_field(conn: AffineConnection,
                          R: TensorField) -> TensorField:
    """nabla_e R_ab{}^c{}_d + nabla_b R_ea{}^c{}_d + nabla_a R_be{}^c{}_d,
    stored as [c][e][a][b][d].

    Totally skew in eab like the first identity, so it is built once per
    increasing triple e < a < b. That reads nabla_x R_yz{}^c{}_d with
    y < z and x not in {y, z}, each once and each the node
    covariant_derivative builds; the partials are those of only the R
    components these read."""
    dR = _partials(R, lambda x, c, y, z, d: x != y < z != x)

    def nabla(c, x, y, z, d):
        return _nabla_component(conn.gamma, R, (c,), x, (y, z, d),
                                dR[x][c, y, z, d])
    return pair_field(R.dim, 1, 4, (1, 2, 3), -1, lambda c, e, a, b, d: (
        nabla(c, e, a, b, d) + nabla(c, b, e, a, d)
        + neg(nabla(c, a, e, b, d))))


def _cotton_weyl_field(pack: CurvaturePack,
                       conn: AffineConnection) -> TensorField:
    """(n-2) C_abd - nabla_c W_ab{}^c{}_d, stored as [a][b][d].

    Skew in ab, so it is built for a < b only. The divergence
    differentiates by x^c only the components W^c_abd (a < b) it reads,
    and builds each nabla_c W_ab{}^c{}_d term as covariant_derivative
    would."""
    W = pack.weyl
    C = pack.cotton
    n = W.dim
    dW = _partials(W, lambda x, c, a, b, d: x == c and a < b)
    return pair_field(n, 0, 3, (0, 1), -1, lambda a, b, d: (
        (n - 2) * C[a, b, d]
        - add(*[_nabla_component(conn.gamma, W, (c,), c, (a, b, d),
                                 dW[c][c, a, b, d]) for c in range(n)])))


def verify_bianchi(pack: CurvaturePack, conn: AffineConnection, points) -> dict:
    """Max-abs residuals of the curvature identities over points.

    first:       R_ab{}^c{}_d + R_da{}^c{}_b + R_bd{}^c{}_a
    second:      nabla_e R_ab{}^c{}_d + nabla_b R_ea{}^c{}_d
                 + nabla_a R_be{}^c{}_d
    cotton_weyl: (n-2) C_abd - nabla_c W_ab{}^c{}_d (see
                 cotton_weyl_relation)

    The three fields share Gamma, R and most of their products, so they
    are reduced from one compiled table. A cyclic sum of a tensor skew
    in ab is totally skew in its three slots, so each Bianchi field is
    built at increasing triples only (a < b < d, e < a < b) and the
    Cotton-Weyl field at a < b; every other entry is one of those or its
    Neg, or ZERO at a repeated index, and every component is reduced.
    """
    R = pack.riemann
    pts = list(points)
    first, second, cotton_weyl = max_residuals(
        [[_first_bianchi_field(R)], [_second_bianchi_field(conn, R)],
         [_cotton_weyl_field(pack, conn)]], pts)
    return {"first": first, "second": second, "cotton_weyl": cotton_weyl,
            "points": len(pts)}


def cotton_weyl_relation(pack: CurvaturePack, conn: AffineConnection,
                         points) -> float:
    """Max-abs of (n-2) C_abd - nabla_c W_ab{}^c{}_d over points.

    The Cotton index order matches the Weyl pair (a,b); the remaining
    Schouten index d sits last. In dimension 2 both sides vanish
    identically and the residual is 0.
    """
    return max_residual([_cotton_weyl_field(pack, conn)], list(points))
