"""Projective changes of connection and their invariants.

A projective change replaces gamma^c_ab by gamma^c_ab + delta^c_a Y_b +
delta^c_b Y_a for a one-form Y. Geodesics survive as unparametrised
curves. The projective Weyl tensor is invariant, while the Cotton tensor
shifts by the one-form contracted into Weyl, C_bar_abc = C_abc +
Y_d W_ab^d_c, so the invariant is the pair (W, C - Y.W). In dimension 2
Weyl vanishes identically and Cotton is invariant on its own. Only
gradient one-forms Y = d(phi) keep the changed connection inside the
class where the barred Schouten tensor is symmetric, so the invariance
checker symmetrizes the barred Ricci.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Expr, add, gradient
from .geometry import (
    AffineConnection,
    ChartGeometry,
    GeometryError,
    connection_pack,
)
from .tensor import TensorField, max_residuals

__all__ = [
    "Upsilon", "gradient_upsilon", "projective_change",
    "check_weyl_cotton_invariance", "einstein_deviation",
]


class Upsilon:
    """One-form driving a projective change."""

    __slots__ = ("dim", "field")

    def __init__(self, field: TensorField):
        if (field.p, field.q) != (0, 1):
            raise GeometryError("expected a one-form, valence (0,1)")
        self.dim = field.dim
        self.field = field

    def __getitem__(self, a: int):
        return self.field[a]

    def __repr__(self):
        return "<Upsilon dim=%d>" % self.dim


def gradient_upsilon(phi: Expr, dim: int) -> Upsilon:
    """Exact one-form d(phi): the invariance suite's Upsilon when a spec
    gives phi. A spec's upsilon entries go in as given, closed or not."""
    return Upsilon(TensorField(dim, 0, 1, gradient(phi, dim)))


def projective_change(conn: AffineConnection, ups: Upsilon) -> AffineConnection:
    """gamma^c_ab + delta^c_a Y_b + delta^c_b Y_a; torsion-free stays exact."""
    if conn.dim != ups.dim:
        raise GeometryError("dimension mismatch")
    n = conn.dim
    gamma = conn.gamma
    comps = []
    for c in range(n):
        for a in range(n):
            for b in range(n):
                val = gamma[c, a, b]
                if c == a:
                    val = val + ups[b]
                if c == b:
                    val = val + ups[a]
                comps.append(val)
    return AffineConnection(TensorField(n, 1, 2, comps), validate=False)


def check_weyl_cotton_invariance(geom: ChartGeometry, ups: Upsilon,
                                 points) -> dict:
    """Max-abs difference of Weyl and Cotton across a projective change.

    Each residual key holds the largest component magnitude of its tensor
    over the points. An invariance residual is exactly zero on rational
    points and of rounding size on float points.

    - ``weyl``: W_bar - W, an invariance residual in every dimension.
    - ``cotton``: C_bar - C, the raw Cotton change. It equals Y.W, so it
      is an invariance residual only where Weyl vanishes, as in
      dimension 2.
    - ``cotton_pair``: C_bar - C - Y.W, the invariance residual of the
      pair (W, C) in every dimension.
    - ``points``: the number of points evaluated; not a residual.

    The barred stack comes from connection_pack, which symmetrizes the
    barred Ricci before forming Schouten; with a gradient one-form the
    symmetrization is a no-op up to rounding.
    """
    pts = list(points)
    weyl, cotton, cotton_pair = max_residuals(
        [[field] for field in _invariance_fields(geom, ups)], pts)
    return {"weyl": weyl, "cotton": cotton, "cotton_pair": cotton_pair,
            "points": len(pts)}


def _invariance_fields(geom: ChartGeometry, ups: Upsilon) -> tuple:
    """(W_bar - W, C_bar - C, C_bar - C - Y.W) for the projective change
    of the Levi-Civita connection by ups."""
    pack = geom.pack()
    barred_conn = projective_change(geom.connection(), ups)
    barred = connection_pack(barred_conn)
    dweyl = barred.weyl - pack.weyl
    dcotton = barred.cotton - pack.cotton
    # The pair (W, C) is the true invariant: C picks up a Y.W shift when
    # the connection moves, so record the shift-corrected residual too.
    n = geom.dim
    shifted = [dcotton[a, b, c] - add(*[ups[d] * pack.weyl[d, a, b, c]
                                        for d in range(n)])
               for a in range(n) for b in range(n) for c in range(n)]
    return dweyl, dcotton, TensorField(n, 0, 3, shifted)


def einstein_deviation(geom: ChartGeometry) -> TensorField:
    """Trace-free Ricci deviation E_ad = R_ad - g_ad R / n.

    The metric is Einstein at a point exactly when E vanishes there.
    """
    n = geom.dim
    if n < 2:
        raise GeometryError("needs dimension at least 2")
    pack = geom.pack()
    scalar = pack.scalar.components[0]
    k = Fraction(1, n)
    comps = []
    for a in range(n):
        for d in range(n):
            comps.append(pack.ricci[a, d] - k * (geom.metric[a, d] * scalar))
    return TensorField(n, 0, 2, comps)
