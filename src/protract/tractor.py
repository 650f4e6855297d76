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

Every tractor connection is one Leibniz rule (_leibniz). In a splitting
the frame B_b, E obeys nabla_a E = B_a and nabla_a B_b = -P_ab E: the
matrix A_a^c_E = delta_a^c, A_a^E_b = -P_ab. Each slot takes its
covariant derivative, and A acts on every tractor index, +A on an upper
one and -A^T on a lower one (_act). _PLACEMENT says, per section type,
whether its indices are upper or lower and where each slot sits among
them, with a weight: S2T* reads beta_bc = S_bc, mu_c = 2 S_cE,
sigma = S_EE, so its pairing with S2T is beta_bc t^bc + mu_c nu^c +
sigma rho. tractor_curvature is the same action with Omega_ab (W, and
-C in the E row) for A. A new tractor-tensor section type needs only
its slot table and its placement row.

The metrisability connection is the normal S2T one plus K (nu^c gains
W_ab{}^c{}_d t^bd / n, rho gains -2 C_abd t^bd / n), written once;
metrisability_obstruction is -K t. Its dual on S2T* is the unique
connection for which the pairing obeys the Leibniz rule. The normal
parts pair off by themselves, so the dual is the normal S2T* connection
minus K^T, the transpose of K under the pairing. As t is symmetric,
only the symmetric part of K^T's beta output is determined, and the
dual takes exactly that part, (K^T_bc + K^T_cb) / 2.
"""

from __future__ import annotations

import itertools
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
    zero_field,
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
# one Leibniz rule for every tractor connection

# Per section type: whether its tractor indices are upper, and per slot
# (SLOT_SPEC order) its place among them, "E" for E and a letter for each
# slot index, and its weight. The two-index types are symmetric.
_PLACEMENT = {
    CotractorSection: (False, (("E", 1), ("b", 1))),
    TractorSection: (True, (("b", 1), ("E", 1))),
    S2TractorSection: (True, (("bc", 1), ("cE", 1), ("EE", 1))),
    S2CotractorSection: (False, (("bc", 1), ("cE", 2), ("EE", 1))),
}


def _slot_places(pattern: str, n: int) -> list:
    """The tractor place of each component of a slot, in storage order;
    frame index b is the integer b, and E is n."""
    frames = itertools.product(range(n), repeat=len(pattern.replace("E", "")))
    return [tuple(n if ch == "E" else next(it) for ch in pattern)
            for it in map(iter, frames)]


def _term(k, factor, x):
    """k * factor * x, built as the formulas read: factor before x, and a
    negative k as the negation of |k| * factor * x."""
    if x is ZERO:
        return ZERO
    v = x if factor is None else factor * x
    if k < 0:
        return -v if k == -1 else -(-k * v)
    return v if k == 1 else k * v


def _act(s: Section, matrix, blocks=(), leading=None) -> Section:
    """A tractor endomorphism acting on every tractor index of s.

    matrix(I, K) is M^I_K as (coefficient, factor), factor an Expr or None
    for 1, or None where M is zero; frame index b is b and E is n. Terms
    of M that read one component with one factor are collected. blocks
    add, after them, terms in slot coordinates: (out slot, in slot, k,
    factor) adds k * factor(*out indices, *in indices) * each in-slot
    component to each out-slot component. leading holds per slot per
    component the term each sum starts with.
    """
    cls = type(s)
    if cls not in _PLACEMENT:
        raise ValueError("%s has no tractor placement" % cls.__name__)
    upper, row = _PLACEMENT[cls]
    n = s.dim
    fields = [f for _, f in s.slots()]
    places = [_slot_places(pattern, n) for pattern, _ in row]
    read = {place: (si, flat, row[si][1])
            for si, slot in enumerate(places)
            for flat, place in enumerate(slot)}
    for place in itertools.product(range(n + 1), repeat=len(row[0][0])):
        # symmetric: the E entries moved last name the same component
        read.setdefault(place, read[tuple(sorted(place, key=lambda i: i == n))])
    out = []
    for si, slot in enumerate(places):
        w_out = row[si][1]
        comps = []
        for flat, place in enumerate(slot):
            terms = {}
            for pos, index in enumerate(place):
                # E first: each sum keeps the term order its formula has
                for K in (n, *range(n)):
                    entry = matrix(index, K) if upper else matrix(K, index)
                    if entry is None:
                        continue
                    k, factor = entry
                    sj, fj, w_in = read[place[:pos] + (K,) + place[pos + 1:]]
                    key = (sj, fj, factor)
                    k = k if upper else -k
                    if w_in != w_out:
                        k *= Fraction(w_out, w_in)
                    terms[key] = terms.get(key, 0) + k
            own = tuple(i for i in place if i != n)
            lead = () if leading is None else (leading[si][flat],)
            comps.append(add(*lead, *[
                _term(k, factor, fields[sj].components[fj])
                for (sj, fj, factor), k in terms.items() if k != 0], *[
                _term(k, factor(*own, *multi), fields[sj].components[fj])
                for so, sj, k, factor in blocks if so == si
                for fj, multi in enumerate(itertools.product(
                    range(n), repeat=fields[sj].rank))]))
        out.append(TensorField(n, fields[si].p, fields[si].q, comps))
    return cls(*out, validate=False)


def _leibniz(geom: ChartGeometry, s: Section, blocks=None) -> list:
    """Direction family of the normal tractor connection on s: each slot's
    covariant derivative, plus A_a acting on every tractor index, plus
    the terms blocks(a) lists (see _act)."""
    n = geom.dim
    conn = geom.connection()
    P = geom.pack().schouten
    derivs = [covariant_derivative(conn, f) for _, f in s.slots()]
    family = []
    for a in range(n):
        def A(index, K):
            if K == n:
                return (1, None) if index == a else None
            return (-1, P[a, K]) if index == n else None
        lead = [[d[m[:d.p] + (a,) + m[d.p:]]
                 for m in itertools.product(range(n), repeat=d.rank - 1)]
                for d in derivs]
        family.append(_act(s, A, blocks(a) if blocks else (), lead))
    return family


def cotractor_nabla(geom: ChartGeometry, s: CotractorSection):
    """Direction family of (nabla_a sigma - mu_a, nabla_a mu_b + P_ab sigma)."""
    return _leibniz(geom, s)


def tractor_nabla(geom: ChartGeometry, s: TractorSection):
    """Direction family of (nabla_a nu^b + rho delta_a^b, nabla_a rho - P_ab nu^b)."""
    return _leibniz(geom, s)


def s2_tractor_nabla(geom: ChartGeometry, s: S2TractorSection):
    """Symmetric square of the tractor connection:

    slot1 = nabla_e t^bc + delta_e^b nu^c + delta_e^c nu^b
    slot2 = nabla_e nu^c - P_eb t^bc + delta_e^c rho
    slot3 = nabla_e rho - 2 P_eb nu^b
    """
    return _leibniz(geom, s)


def _metrisability_correction(geom: ChartGeometry, a: int) -> list:
    """K_a, the metrisability connection minus the normal S2T one, as
    _act blocks: nu^c gains W_ab{}^c{}_d t^bd / n and rho gains
    -2 C_abd t^bd / n. Every block reads the t slot."""
    pack = geom.pack()
    W, C = pack.weyl, pack.cotton
    k = Fraction(1, geom.dim)
    return [(1, 0, k, lambda c, b, d: W[c, a, b, d]),
            (2, 0, -2 * k, lambda b, d: C[a, b, d])]


def metrisability_prolong_nabla(geom: ChartGeometry, s: S2TractorSection):
    """Closed system for the metrisability equation tf(nabla t) = 0: the
    normal S2T connection plus K.

    slot1 = nabla_a t^bc + delta_a^b nu^c + delta_a^c nu^b
    slot2 = nabla_a nu^c + delta_a^c rho - P_ab t^cb + W_ab{}^c{}_d t^bd / n
    slot3 = nabla_a rho - 2 P_ad nu^d - 2 t^bd C_abd / n
    """
    return _leibniz(geom, s, lambda a: _metrisability_correction(geom, a))


def s2_dual_nabla(geom: ChartGeometry, s: S2CotractorSection):
    """Leibniz dual of the metrisability connection, acting on S2T*: the
    normal S2T* connection minus K^T symmetrised over beta's indices.

    slot1 = nabla_a beta_bc + (mu_b P_ac + mu_c P_ab)/2
            - mu_e (W_ab{}^e{}_c + W_ac{}^e{}_b)/(2n)
            + sigma (C_abc + C_acb)/n
    slot2 = nabla_a mu_c - 2 beta_ac + 2 P_ac sigma
    slot3 = nabla_a sigma - mu_a
    """
    def correction(a):
        # K reads t, so K^T writes beta: its indices (b, c) come first
        return [(i, o, -k / 2,
                 lambda b, c, *rest, f=f: add(f(*rest, b, c), f(*rest, c, b)))
                for o, i, k, f in _metrisability_correction(geom, a)]
    return _leibniz(geom, s, correction)


def tractor_curvature(geom: ChartGeometry, s: Section):
    """Curvature action as an antisymmetric (a,b)-indexed grid of sections:
    Omega_ab (Omega^c_d = W_ab{}^c{}_d, Omega^E_d = -C_abd) on every
    tractor index, which is the double-application commutator of the
    matching nabla. A cotractor section gives
    (0, -W_ab{}^d{}_c mu_d + C_abc sigma), a tractor one
    (W_ab{}^c{}_d nu^d, -C_abd nu^d).
    """
    n = geom.dim
    pack = geom.pack()
    W, C = pack.weyl, pack.cotton

    def omega(a, b):
        return lambda index, K: (None if K == n else (-1, C[a, b, K])
                                 if index == n else (1, W[index, a, b, K]))
    return [[_act(s, omega(a, b)) for b in range(n)] for a in range(n)]


def proj_prolong_nabla(geom: ChartGeometry, s: TractorSection):
    """Closed system for vanishing trace-free part of nabla nu: the family
    (nabla_a nu^c - delta_a^c mu, nabla_a mu + R_ad nu^d / (n-1)), mu the
    rho slot. As P_ab = R_ab / (n-1), it is tractor_nabla on (nu, -mu)
    with the bottom slot negated."""
    if geom.dim < 2:
        raise GeometryError("needs dimension at least 2")

    def flip(u):
        return TractorSection(u.nu, _scalar(u.dim, -u.rho.components[0]),
                              validate=False)
    return [flip(f) for f in tractor_nabla(geom, flip(s))]


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


# ---------------------------------------------------------------------------
# prolongation connections

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
    """Curvature correction separating the two S2T connections: -K t.

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
    s = S2TractorSection(t, zero_field(n, 1, 0), ZERO, validate=False)
    kt = [_act(s, lambda index, K: None, [
        (o, i, -k, f) for o, i, k, f in _metrisability_correction(geom, a)])
        for a in range(n)]
    return (TensorField(n, 1, 1, [kt[a].nu[c] for c in range(n)
                                  for a in range(n)]),
            TensorField(n, 0, 1, [u.rho.components[0] for u in kt]))


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
