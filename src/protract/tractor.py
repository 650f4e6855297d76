"""Bundle connections over a chart geometry.

Sections are tuples of ordinary tensor fields (one per slot); applying a
connection returns a direction-indexed family, one section per chart
direction, so transport code can stay generic over bundle type.

Slot-name conventions, one per section type:

  CotractorSection     (sigma, mu_b)       rank 1 + n
  TractorSection       (nu^b, rho)         rank n + 1
  S2TractorSection     (t^bc sym, nu^c, rho)
  S2CotractorSection   (beta_bc sym, mu_c, sigma)
  SkewTractorSection   (beta^bc skew, nu^b, rho)

A section type is described by its SLOT_SPEC (slot names and valences,
in order) and SLOT_SYM (the symmetry of each rank-2 slot that has one).
These two tables drive everything generic over section types: slot
validation below, complete_pair filling a rank-2 slot from its
independent entries, the transport bundles' coordinate layout, and the
random sections of the command-line suites.

The dual connection on S2T* is not copied from anywhere: it is the
unique connection making the pairing beta_bc t^bc + mu_c nu^c + sigma*rho
differentiate by the Leibniz rule against the metrisability connection.
Because t is symmetric, only the symmetric part of each coefficient is
determined, and the first slot below carries exactly that symmetrized
coefficient (weights 1/2, 1/(2n), 1/n rather than the raw 1, 1/n, 2/n).
"""

from __future__ import annotations

from fractions import Fraction

from .expr import ZERO, add, as_expr
from .geometry import (
    AffineConnection,
    ChartGeometry,
    GeometryError,
    covariant_derivative,
)
from .projective import Upsilon
from .tensor import (
    TensorField,
    is_skew_pair,
    is_symmetric_pair,
    max_residual,
)

__all__ = [
    "Section", "CotractorSection", "TractorSection",
    "S2TractorSection", "S2CotractorSection", "SkewTractorSection",
    "tractor_nabla", "cotractor_nabla", "splitting_transform",
    "tractor_curvature", "proj_prolong_nabla",
    "metrisability_prolong_nabla", "s2_dual_nabla",
    "s2_tractor_nabla", "s2_tractor_nabla_expanded",
    "metrisability_obstruction", "flat_skew_prolong_nabla",
    "induced_s2_section", "metric_lift", "skew_induced_parts",
    "tractor_cotractor_pairing", "s2_cotractor_dual_pairing",
    "complete_pair",
]


def _scalar(dim: int, e) -> TensorField:
    return TensorField(dim, 0, 0, [as_expr(e)])


# SLOT_SYM value -> (test of a rank-2 slot, the word its error uses)
_SYMMETRY_TESTS = {"sym": (is_symmetric_pair, "symmetric"),
                   "skew": (is_skew_pair, "skew")}


def complete_pair(comps: list, dim: int, sym, zero) -> None:
    """Fill in place the lower triangle of a rank-2 slot's flat components
    from the upper one, as SLOT_SYM value sym says: "sym" mirrors each
    entry, "skew" its negation and zeroes the diagonal, None does nothing."""
    if sym is None:
        return
    for b in range(dim):
        if sym == "skew":
            comps[b * dim + b] = zero
        for c in range(b + 1, dim):
            v = comps[b * dim + c]
            comps[c * dim + b] = v if sym == "sym" else -v


class Section:
    """Base for typed slot tuples of tensor fields."""

    SLOT_SPEC: tuple = ()
    SLOT_SYM: dict = {}
    __slots__ = ("dim", "_fields")

    def __init__(self, *fields, validate: bool = True):
        spec = type(self).SLOT_SPEC
        if len(fields) != len(spec):
            raise ValueError("expected %d slot fields" % len(spec))
        dim = None
        for f in fields:
            if isinstance(f, TensorField):
                dim = f.dim
                break
        if dim is None:
            raise ValueError("at least one slot must be a TensorField")
        coerced = []
        for f, (name, (p, q)) in zip(fields, spec):
            if not isinstance(f, TensorField):
                if (p, q) != (0, 0):
                    raise ValueError("slot %s must be a TensorField" % name)
                f = _scalar(dim, f)
            if (f.p, f.q) != (p, q):
                raise ValueError("slot %s must have valence (%d,%d)"
                                 % (name, p, q))
            if f.dim != dim:
                raise ValueError("slot %s has mismatched dimension" % name)
            coerced.append(f)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_fields", tuple(coerced))
        if validate:
            self._check_invariants()

    def _check_invariants(self):
        for name, sym in type(self).SLOT_SYM.items():
            holds, word = _SYMMETRY_TESTS[sym]
            if not holds(getattr(self, name), 0, 1):
                raise ValueError("slot %s must be %s" % (name, word))

    def __getattr__(self, name):
        for f, (slot_name, _) in zip(self._fields, type(self).SLOT_SPEC):
            if slot_name == name:
                return f
        raise AttributeError(name)

    def slots(self):
        return [(name, f) for f, (name, _) in
                zip(self._fields, type(self).SLOT_SPEC)]

    def __add__(self, other):
        if type(other) is not type(self) or other.dim != self.dim:
            raise ValueError("section type mismatch")
        return type(self)(*[a + b for a, b in
                            zip(self._fields, other._fields)], validate=False)

    def __sub__(self, other):
        if type(other) is not type(self) or other.dim != self.dim:
            raise ValueError("section type mismatch")
        return type(self)(*[a - b for a, b in
                            zip(self._fields, other._fields)], validate=False)

    def at(self, point) -> dict:
        """Each slot at one point, by name; see TensorField.at."""
        return {name: f.at(point) for name, f in self.slots()}

    def max_abs_at(self, point):
        return max_residual([self], [point])

    def __repr__(self):
        names = ",".join(name for name, _ in type(self).SLOT_SPEC)
        return "<%s dim=%d slots=(%s)>" % (type(self).__name__, self.dim, names)


class CotractorSection(Section):
    SLOT_SPEC = (("sigma", (0, 0)), ("mu", (0, 1)))


class TractorSection(Section):
    SLOT_SPEC = (("nu", (1, 0)), ("rho", (0, 0)))


class S2TractorSection(Section):
    SLOT_SPEC = (("t", (2, 0)), ("nu", (1, 0)), ("rho", (0, 0)))
    SLOT_SYM = {"t": "sym"}


class S2CotractorSection(Section):
    SLOT_SPEC = (("beta", (0, 2)), ("mu", (0, 1)), ("sigma", (0, 0)))
    SLOT_SYM = {"beta": "sym"}


class SkewTractorSection(Section):
    SLOT_SPEC = (("beta", (2, 0)), ("nu", (1, 0)), ("rho", (0, 0)))
    SLOT_SYM = {"beta": "skew"}


# ---------------------------------------------------------------------------
# rank-(n+1) connections

def cotractor_nabla(geom: ChartGeometry, s: CotractorSection):
    """Direction family of (nabla_a sigma - mu_a, nabla_a mu_b + P_ab sigma)."""
    n = geom.dim
    conn = geom.connection()
    P = geom.pack().schouten
    sigma = s.sigma.components[0]
    dsig = covariant_derivative(conn, s.sigma)
    dmu = covariant_derivative(conn, s.mu)
    family = []
    for a in range(n):
        top = dsig[a] - s.mu[a]
        bottom = [dmu[a, b] + P[a, b] * sigma for b in range(n)]
        family.append(CotractorSection(_scalar(n, top),
                                       TensorField(n, 0, 1, bottom),
                                       validate=False))
    return family


def tractor_nabla(geom: ChartGeometry, s: TractorSection):
    """Direction family of (nabla_a nu^b + rho delta_a^b, nabla_a rho - P_ab nu^b)."""
    n = geom.dim
    conn = geom.connection()
    P = geom.pack().schouten
    rho = s.rho.components[0]
    dnu = covariant_derivative(conn, s.nu)     # [b][a]
    drho = covariant_derivative(conn, s.rho)   # [a]
    family = []
    for a in range(n):
        top = [dnu[b, a] + (rho if a == b else ZERO) for b in range(n)]
        bottom = add(drho[a], *[-(P[a, b] * s.nu[b]) for b in range(n)])
        family.append(TractorSection(TensorField(n, 1, 0, top),
                                     _scalar(n, bottom), validate=False))
    return family


def splitting_transform(s: CotractorSection, ups: Upsilon) -> CotractorSection:
    """Re-express a cotractor section in the splitting moved by ups."""
    if s.dim != ups.dim:
        raise GeometryError("dimension mismatch")
    sigma = s.sigma.components[0]
    mu = [s.mu[a] + ups[a] * sigma for a in range(s.dim)]
    return CotractorSection(s.sigma, TensorField(s.dim, 0, 1, mu),
                            validate=False)


def tractor_cotractor_pairing(u: TractorSection, v: CotractorSection):
    """Scalar nu^b mu_b + rho sigma; the pairing the dual connections share."""
    if u.dim != v.dim:
        raise GeometryError("dimension mismatch")
    return add(u.rho.components[0] * v.sigma.components[0],
               *[u.nu[b] * v.mu[b] for b in range(u.dim)])


def s2_cotractor_dual_pairing(u: S2TractorSection, v: S2CotractorSection):
    """Scalar beta_bc t^{bc} + mu_c nu^c + sigma rho."""
    if u.dim != v.dim:
        raise GeometryError("dimension mismatch")
    n = u.dim
    terms = [u.rho.components[0] * v.sigma.components[0]]
    for c in range(n):
        terms.append(v.mu[c] * u.nu[c])
        terms += [v.beta[b, c] * u.t[b, c] for b in range(n)]
    return add(*terms)


def tractor_curvature(geom: ChartGeometry, s: Section):
    """Curvature action as an antisymmetric (a,b)-indexed grid of sections.

    For a cotractor section the output slots are
        (0, -W_ab{}^d{}_c mu_d + C_abc sigma)
    and for a tractor section
        (W_ab{}^c{}_d nu^d, -C_abd nu^d).
    Both equal the double-application commutator of the matching nabla.
    """
    n = geom.dim
    pack = geom.pack()
    W, C = pack.weyl, pack.cotton
    grid = []
    if isinstance(s, CotractorSection):
        sigma = s.sigma.components[0]
        for a in range(n):
            row = []
            for b in range(n):
                bottom = [add(C[a, b, c] * sigma,
                              *[-(W[d, a, b, c] * s.mu[d]) for d in range(n)])
                          for c in range(n)]
                row.append(CotractorSection(
                    _scalar(n, ZERO), TensorField(n, 0, 1, bottom),
                    validate=False))
            grid.append(row)
        return grid
    if isinstance(s, TractorSection):
        for a in range(n):
            row = []
            for b in range(n):
                top = [add(*[W[c, a, b, d] * s.nu[d] for d in range(n)])
                       for c in range(n)]
                bottom = add(*[-(C[a, b, d] * s.nu[d]) for d in range(n)])
                row.append(TractorSection(TensorField(n, 1, 0, top),
                                          _scalar(n, bottom), validate=False))
            grid.append(row)
        return grid
    raise ValueError("curvature formulas cover cotractor and tractor sections")


# ---------------------------------------------------------------------------
# prolongation connections

def proj_prolong_nabla(geom: ChartGeometry, s: TractorSection):
    """Closed system for vanishing trace-free part of nabla nu.

    Direction family of (nabla_a nu^c - delta_a^c mu,
    nabla_a mu + R_ad nu^d / (n-1)) where mu is the rho slot. Matches
    tractor_nabla after negating the bottom slot.
    """
    n = geom.dim
    if n < 2:
        raise GeometryError("needs dimension at least 2")
    conn = geom.connection()
    ricci = geom.pack().ricci
    k = Fraction(1, n - 1)
    mu = s.rho.components[0]
    dnu = covariant_derivative(conn, s.nu)
    dmu = covariant_derivative(conn, s.rho)
    family = []
    for a in range(n):
        top = [dnu[c, a] - (mu if a == c else ZERO) for c in range(n)]
        bottom = add(dmu[a], *[k * (ricci[a, d] * s.nu[d]) for d in range(n)])
        family.append(TractorSection(TensorField(n, 1, 0, top),
                                     _scalar(n, bottom), validate=False))
    return family


def metrisability_prolong_nabla(geom: ChartGeometry, s: S2TractorSection):
    """Closed system for the metrisability equation tf(nabla t) = 0.

    slot1 = nabla_a t^bc + delta_a^b nu^c + delta_a^c nu^b
    slot2 = nabla_a nu^c + delta_a^c rho - P_ab t^cb + W_ab{}^c{}_d t^bd / n
    slot3 = nabla_a rho - 2 P_ad nu^d - 2 t^bd C_abd / n
    """
    n = geom.dim
    pack = geom.pack()
    conn = geom.connection()
    P, W, C = pack.schouten, pack.weyl, pack.cotton
    invn = Fraction(1, n)
    rho = s.rho.components[0]
    dt = covariant_derivative(conn, s.t)       # [b][c][a]
    dnu = covariant_derivative(conn, s.nu)     # [c][a]
    drho = covariant_derivative(conn, s.rho)   # [a]
    family = []
    for a in range(n):
        slot2 = []
        for c in range(n):
            terms = [dnu[c, a], rho if a == c else ZERO]
            for b in range(n):
                terms.append(-(P[a, b] * s.t[c, b]))
                terms += [invn * (W[c, a, b, d] * s.t[b, d]) for d in range(n)]
            slot2.append(add(*terms))
        val3 = add(drho[a], *[-(2 * (P[a, d] * s.nu[d])) for d in range(n)],
                   *[-(2 * invn * (s.t[b, d] * C[a, b, d]))
                     for b in range(n) for d in range(n)])
        family.append(S2TractorSection(_s2_top_slot(dt, s.nu, a),
                                       TensorField(n, 1, 0, slot2),
                                       _scalar(n, val3), validate=False))
    return family


def _s2_top_slot(dt: TensorField, nu: TensorField, a: int) -> TensorField:
    """nabla_a t^bc + delta_a^b nu^c + delta_a^c nu^b, with dt stored
    [b][c][a]; the first slot of both S2T connections."""
    n = nu.dim
    slot = []
    for b in range(n):
        for c in range(n):
            val = dt[b, c, a]
            if a == b:
                val = val + nu[c]
            if a == c:
                val = val + nu[b]
            slot.append(val)
    return TensorField(n, 2, 0, slot)


def s2_dual_nabla(geom: ChartGeometry, s: S2CotractorSection):
    """Leibniz dual of the metrisability connection, acting on S2T*.

    slot1 = nabla_a beta_bc + (mu_b P_ac + mu_c P_ab)/2
            - mu_e (W_ab{}^e{}_c + W_ac{}^e{}_b)/(2n)
            + sigma (C_abc + C_acb)/n
    slot2 = nabla_a mu_c - 2 beta_ac + 2 P_ac sigma
    slot3 = nabla_a sigma - mu_a

    The slot1 coefficients are the symmetric parts forced by pairing
    against symmetric t; see the module docstring.
    """
    n = geom.dim
    pack = geom.pack()
    conn = geom.connection()
    P, W, C = pack.schouten, pack.weyl, pack.cotton
    half = Fraction(1, 2)
    w_k = Fraction(1, 2 * n)
    c_k = Fraction(1, n)
    sigma = s.sigma.components[0]
    dbeta = covariant_derivative(conn, s.beta)   # [a][b][c]
    dmu = covariant_derivative(conn, s.mu)       # [a][c]
    dsig = covariant_derivative(conn, s.sigma)   # [a]
    family = []
    for a in range(n):
        slot1 = [add(dbeta[a, b, c],
                     half * (s.mu[b] * P[a, c] + s.mu[c] * P[a, b]),
                     c_k * (sigma * (C[a, b, c] + C[a, c, b])),
                     *[-(w_k * (s.mu[e] * (W[e, a, b, c] + W[e, a, c, b])))
                       for e in range(n)])
                 for b in range(n) for c in range(n)]
        slot2 = [dmu[a, c] - 2 * s.beta[a, c] + 2 * (P[a, c] * sigma)
                 for c in range(n)]
        slot3 = dsig[a] - s.mu[a]
        family.append(S2CotractorSection(TensorField(n, 0, 2, slot1),
                                         TensorField(n, 0, 1, slot2),
                                         _scalar(n, slot3), validate=False))
    return family


def s2_tractor_nabla(geom: ChartGeometry, s: S2TractorSection):
    """Symmetric square of the tractor connection, direct slot formulas.

    slot1 = nabla_e t^bc + delta_e^b nu^c + delta_e^c nu^b
    slot2 = nabla_e nu^c - P_eb t^bc + delta_e^c rho
    slot3 = nabla_e rho - 2 P_eb nu^b
    """
    n = geom.dim
    pack = geom.pack()
    conn = geom.connection()
    P = pack.schouten
    rho = s.rho.components[0]
    dt = covariant_derivative(conn, s.t)
    dnu = covariant_derivative(conn, s.nu)
    drho = covariant_derivative(conn, s.rho)
    family = []
    for e in range(n):
        slot2 = [add(dnu[c, e], rho if e == c else ZERO,
                     *[-(P[e, b] * s.t[b, c]) for b in range(n)])
                 for c in range(n)]
        val3 = add(drho[e], *[-(2 * (P[e, b] * s.nu[b])) for b in range(n)])
        family.append(S2TractorSection(_s2_top_slot(dt, s.nu, e),
                                       TensorField(n, 1, 0, slot2),
                                       _scalar(n, val3), validate=False))
    return family


def s2_tractor_nabla_expanded(geom: ChartGeometry, s: S2TractorSection):
    """Same connection derived by formal Leibniz expansion.

    A section is written as t^bc B_b B_c + nu^c (B_c E + E B_c) + rho E E
    over formal symbols with the derivative rules nabla_a B_b = -P_ab E
    and nabla_a E = B_a. Differentiating term by term and re-collecting
    coefficients of the tensor-product monomials must reproduce
    s2_tractor_nabla. The mixed-slot coefficients are collected from the
    B.E and E.B monomials separately: the B.E collection is the nu slot,
    and the E.B one is kept as ``_expansion_eb`` so that the two can be
    checked equal.
    """
    n = geom.dim
    pack = geom.pack()
    conn = geom.connection()
    P = pack.schouten
    rho = s.rho.components[0]
    dt = covariant_derivative(conn, s.t)
    dnu = covariant_derivative(conn, s.nu)
    drho = covariant_derivative(conn, s.rho)
    family = []
    for a in range(n):
        # coefficient accumulators for monomials B_b(x)B_c, B_m(x)E, E(x)B_m, E(x)E
        bb = [[ZERO] * n for _ in range(n)]
        be = [ZERO] * n
        eb = [ZERO] * n
        ee = ZERO
        # d(t^bc) B_b B_c
        for b in range(n):
            for c in range(n):
                bb[b][c] = bb[b][c] + dt[b, c, a]
        # t^bc [(nabla_a B_b) B_c + B_b (nabla_a B_c)]
        for b in range(n):
            for c in range(n):
                eb[c] = eb[c] - P[a, b] * s.t[b, c]
                be[b] = be[b] - P[a, c] * s.t[b, c]
        # d(nu^c) (B_c E + E B_c)
        for c in range(n):
            be[c] = be[c] + dnu[c, a]
            eb[c] = eb[c] + dnu[c, a]
        # nu^c [(nabla_a B_c) E + B_c (nabla_a E) + (nabla_a E) B_c + E (nabla_a B_c)]
        for c in range(n):
            ee = ee - 2 * (P[a, c] * s.nu[c])
            bb[c][a] = bb[c][a] + s.nu[c]
            bb[a][c] = bb[a][c] + s.nu[c]
        # d(rho) E E and rho [(nabla_a E) E + E (nabla_a E)]
        ee = ee + drho[a]
        be[a] = be[a] + rho
        eb[a] = eb[a] + rho
        slot1 = [bb[b][c] for b in range(n) for c in range(n)]
        family.append(S2TractorSection(TensorField(n, 2, 0, slot1),
                                       TensorField(n, 1, 0, be),
                                       _scalar(n, ee), validate=False))
        family[-1]._expansion_eb = TensorField(n, 1, 0, eb)  # type: ignore
    return family


def metrisability_obstruction(geom: ChartGeometry, t: TensorField):
    """Curvature correction separating the two S2T connections.

    Returns (vector-slot field, scalar-slot field) with components
    -(1/n) W_ab{}^c{}_d t^bd  (stored [c][a])  and  (2/n) C_abd t^bd
    (stored [a]). Adding these to the metrisability family's middle and
    bottom slots yields s2_tractor_nabla exactly, so the pair vanishes
    precisely when the two connections coincide.
    """
    n = geom.dim
    if (t.p, t.q) != (2, 0):
        raise ValueError("t must have valence (2,0)")
    if not is_symmetric_pair(t, 0, 1):
        raise ValueError("t must be symmetric")
    pack = geom.pack()
    W, C = pack.weyl, pack.cotton
    invn = Fraction(1, n)
    pairs = [(b, d) for b in range(n) for d in range(n)]
    vec = [add(*[-(invn * (W[c, a, b, d] * t[b, d])) for b, d in pairs])
           for c in range(n) for a in range(n)]
    scal = [add(*[2 * invn * (C[a, b, d] * t[b, d]) for b, d in pairs])
            for a in range(n)]
    return TensorField(n, 1, 1, vec), TensorField(n, 0, 1, scal)


def flat_skew_prolong_nabla(s: SkewTractorSection, conn: AffineConnection):
    """Closed system for tf(nabla beta) = 0 over a flat connection.

    slot1 = nabla_a beta^bc - delta_a^b nu^c + delta_a^c nu^b
    slot2 = nabla_a nu^b - delta_a^b rho
    slot3 = nabla_a rho
    """
    n = conn.dim
    if n < 3:
        raise GeometryError("needs dimension at least 3")
    if s.dim != n:
        raise GeometryError("dimension mismatch")
    if not conn.is_flat():
        raise GeometryError("connection is not flat")
    rho = s.rho.components[0]
    dbeta = covariant_derivative(conn, s.beta)  # [b][c][a]
    dnu = covariant_derivative(conn, s.nu)      # [b][a]
    drho = covariant_derivative(conn, s.rho)    # [a]
    family = []
    for a in range(n):
        slot1 = []
        for b in range(n):
            for c in range(n):
                val = dbeta[b, c, a]
                if a == b:
                    val = val - s.nu[c]
                if a == c:
                    val = val + s.nu[b]
                slot1.append(val)
        slot2 = [dnu[b, a] - (rho if a == b else ZERO) for b in range(n)]
        family.append(SkewTractorSection(TensorField(n, 2, 0, slot1),
                                         TensorField(n, 1, 0, slot2),
                                         _scalar(n, drho[a]), validate=False))
    return family


def skew_induced_parts(conn: AffineConnection, beta: TensorField):
    """The lower slots a skew solution determines: nu from the divergence
    of beta, rho from the divergence of nu."""
    n = conn.dim
    if n < 3:
        raise GeometryError("needs dimension at least 3")
    dbeta = covariant_derivative(conn, beta)   # [b][c][a]
    k1 = Fraction(1, n - 1)
    nu = TensorField(n, 1, 0, [
        k1 * add(*[dbeta[d, c, d] for d in range(n)]) for c in range(n)])
    dnu = covariant_derivative(conn, nu)        # [b][a]
    k2 = Fraction(1, n - 2)
    rho = k2 * add(*[dnu[b, b] for b in range(n)])
    return nu, _scalar(n, rho)


def induced_s2_section(geom: ChartGeometry, t: TensorField) -> S2TractorSection:
    """Complete a symmetric t to the canonical section over it:
    nu^c = -(1/(n+1)) nabla_d t^dc, rho = -(1/n) nabla_a nu^a
    + (1/n) P_de t^ed."""
    n = geom.dim
    conn = geom.connection()
    P = geom.pack().schouten
    dt = covariant_derivative(conn, t)          # [b][c][a]
    k_nu = Fraction(-1, n + 1)
    nu = TensorField(n, 1, 0, [
        k_nu * add(*[dt[d, c, d] for d in range(n)]) for c in range(n)])
    dnu = covariant_derivative(conn, nu)        # [c][a]
    invn = Fraction(1, n)
    rho = -invn * add(*[dnu[a, a] for a in range(n)]) \
        + invn * add(*[P[d, e] * t[e, d]
                       for d in range(n) for e in range(n)])
    return S2TractorSection(t, nu, _scalar(n, rho), validate=False)


def metric_lift(geom: ChartGeometry) -> S2TractorSection:
    """The canonical section over t = inverse metric."""
    return induced_s2_section(geom, geom.metric_inverse())
