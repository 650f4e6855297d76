"""Independent numerical oracles used to validate symbolic results.

Everything here recomputes quantities from first principles with plain
float arithmetic and central differences, or with Fraction row
reduction, deliberately avoiding the library's symbolic derivative,
Christoffel, and curvature code paths. The exceptions are references
for a symbolic construction: structural_key compares expressions
without interning, covariant_derivative_sequential builds the
connection derivative from the expression constructors term by term,
add_fold_reference and mul_fold_reference fold every constant by
Fraction arithmetic, diff_reference differentiates with them and
without skipping zero terms, and postorder_apply_reference is the DAG
walk that fetches and scans a node's children again when it revisits it.
Two sections keep verbatim copies of replaced code: the per-type code
that one slot table per section type replaced (random sections, the
(1,1) and (2,1) trace-free projectors, the sampled source-equation
residual), and the seven hand-written connection bodies that the one
Leibniz rule over tractor.py's placement table replaced, with the
curvature action and the metrisability obstruction it also rewrote.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from protract.expr import ZERO, add
from protract.geometry import GeometryError, covariant_derivative
from protract.tensor import TensorField, is_symmetric_pair
from protract.tractor import (
    CotractorSection,
    S2CotractorSection,
    S2TractorSection,
    TractorSection,
    _scalar,
)


def central_diff(f, x, i: int, h: float = 1e-5):
    """(f(x + h e_i) - f(x - h e_i)) / 2h for vector-to-anything f."""
    hi = list(map(float, x))
    lo = list(map(float, x))
    hi[i] += h
    lo[i] -= h
    return (np.asarray(f(hi)) - np.asarray(f(lo))) / (2.0 * h)


def fraction_gauss_inverse(rows):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j))
                                       for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1, 1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def fd_christoffel(metric_fn, x, h: float = 1e-4) -> np.ndarray:
    """Levi-Civita symbols from finite differences of the metric values.

    metric_fn(point) -> (n, n) array. Output [c][a][b] = Gamma^c_ab.
    """
    g = np.asarray(metric_fn(list(map(float, x))), dtype=float)
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    dg = np.empty((n, n, n))
    for k in range(n):
        dg[k] = central_diff(metric_fn, x, k, h)
    gamma = np.empty((n, n, n))
    for c in range(n):
        for a in range(n):
            for b in range(n):
                s = 0.0
                for d in range(n):
                    s += ginv[c, d] * (dg[a][b, d] + dg[b][a, d]
                                       - dg[d][a, b])
                gamma[c, a, b] = 0.5 * s
    return gamma


def fd_riemann(metric_fn, x, h: float = 1e-3) -> np.ndarray:
    """Curvature from finite differences of fd_christoffel.

    Output [c][a][b][d] = R_ab{}^c{}_d
          = d_a Gamma^c_bd - d_b Gamma^c_ad
            + Gamma^c_ae Gamma^e_bd - Gamma^c_be Gamma^e_ad.
    """
    gamma = fd_christoffel(metric_fn, x, h)
    n = gamma.shape[0]
    dgamma = np.empty((n, n, n, n))
    for k in range(n):
        dgamma[k] = central_diff(lambda p: fd_christoffel(metric_fn, p, h),
                                 x, k, h)
    riem = np.empty((n, n, n, n))
    for c in range(n):
        for a in range(n):
            for b in range(n):
                for d in range(n):
                    val = dgamma[a][c, b, d] - dgamma[b][c, a, d]
                    for e in range(n):
                        val += gamma[c, a, e] * gamma[e, b, d]
                        val -= gamma[c, b, e] * gamma[e, a, d]
                    riem[c, a, b, d] = val
    return riem


def fd_curvature_stack(metric_fn, x, h: float = 1e-3) -> dict:
    """Ricci, scalar, Schouten, Weyl from fd_riemann; Cotton from a
    further difference of the Schouten values."""
    riem = fd_riemann(metric_fn, x, h)
    n = riem.shape[0]
    g = np.asarray(metric_fn(list(map(float, x))), dtype=float)
    ginv = np.linalg.inv(g)
    ricci = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            ricci[a, b] = sum(riem[c, c, a, b] for c in range(n))
    scalar = float(np.einsum("bd,bd->", ginv, ricci))
    schouten = ricci / (n - 1)
    weyl = np.empty((n, n, n, n))
    for c in range(n):
        for a in range(n):
            for b in range(n):
                for d in range(n):
                    val = riem[c, a, b, d]
                    if c == a:
                        val -= schouten[b, d]
                    if c == b:
                        val += schouten[a, d]
                    weyl[c, a, b, d] = val

    def schouten_at(p):
        r = fd_riemann(metric_fn, p, h)
        ric = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                ric[a, b] = sum(r[c, c, a, b] for c in range(n))
        return ric / (n - 1)

    # Gamma corrections to nabla P
    gamma = fd_christoffel(metric_fn, x, h)
    dP = np.empty((n, n, n))
    for k in range(n):
        # outer step below 5e-4 starts amplifying the inner-difference
        # noise; above it the outer truncation dominates the stack
        dP[k] = central_diff(schouten_at, x, k, max(h, 5e-4))
    nablaP = np.empty((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                val = dP[a][b, c]
                for e in range(n):
                    val -= gamma[e, a, b] * schouten[e, c]
                    val -= gamma[e, a, c] * schouten[b, e]
                nablaP[a, b, c] = val
    cotton = np.empty((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                cotton[a, b, c] = nablaP[a, b, c] - nablaP[b, a, c]
    return {"riemann": riem, "ricci": ricci, "scalar": scalar,
            "schouten": schouten, "weyl": weyl, "cotton": cotton}


def commutator_family(nabla, context, section, dim: int):
    """Bundle curvature by double application of the connection.

    Returns grid[a][b] = nabla_a (nabla s)_b - nabla_b (nabla s)_a as
    sections; for a torsion-free base connection the Christoffel terms
    on the direction index cancel in the antisymmetrization, leaving
    exactly the curvature action. Independent of any curvature formula.
    """
    family = nabla(context, section)
    grid = []
    for a in range(dim):
        row = []
        for b in range(dim):
            second_ab = nabla(context, family[b])[a]
            second_ba = nabla(context, family[a])[b]
            row.append(second_ab - second_ba)
        grid.append(row)
    return grid


def richardson_order(err_coarse: float, err_fine: float) -> float:
    """Observed convergence order from a step-halving pair."""
    import math
    return math.log2(err_coarse / err_fine)


def solve_projector_coefficient(n: int, u) -> Fraction:
    """Solve for the unique k making U - k (delta-trace terms) trace free.

    u: nested list u[b][c][a] of Fractions, symmetric or skew in (b, c).
    The projector subtracts k (delta_a^b t1[c] + delta_a^c t2[b]) with
    t1[c] = sum_d u[d][c][d], t2[b] = sum_d u[b][d][d]. Imposing that
    the first trace of the result vanishes is one linear equation in k;
    this solves it from the given sample and returns the exact root.
    """
    t1 = [sum((u[d][c][d] for d in range(n)), Fraction(0)) for c in range(n)]
    t2 = [sum((u[b][d][d] for d in range(n)), Fraction(0)) for b in range(n)]
    for c in range(n):
        lhs = t1[c]
        # first trace of the delta block at k = 1
        rhs = n * t1[c] + t2[c]
        if rhs != 0:
            return Fraction(lhs) / Fraction(rhs)
    raise ZeroDivisionError("sample tensor has vanishing traces")


_PAYLOAD_FIELDS = {"Const": "value", "Var": "index", "Pow": "exponent",
                   "Call": "name"}


def structural_key(e, memo=None):
    """(node type, payload, child keys), recursively: the structural
    equality of expressions, computed without relying on interning."""
    memo = {} if memo is None else memo
    got = memo.get(id(e))
    if got is None:
        name = type(e).__name__
        field = _PAYLOAD_FIELDS.get(name)
        payload = getattr(e, field) if field else None
        got = (name, payload, tuple(structural_key(c, memo) for c in e.children()))
        memo[id(e)] = got
    return got


def covariant_derivative_sequential(conn, T):
    """The connection derivative as a running sum, val = val + G*T per
    upper slot and val = val - G*T per lower slot, each partial taken by
    one expr.diff per component: the term-by-term construction that
    geometry.covariant_derivative's single add per component replaces.
    Same valence and index order, (uppers..., a, lowers...)."""
    import itertools

    from protract.expr import diff
    from protract.tensor import TensorField

    n, p, q = T.dim, T.p, T.q
    gamma = conn.gamma
    out = []
    for multi in itertools.product(range(n), repeat=p + q + 1):
        up, a, lo = multi[:p], multi[p], multi[p + 1:]
        val = diff(T.components[T.flat(up + lo)], a)
        for i in range(p):
            for e in range(n):
                repl = up[:i] + (e,) + up[i + 1:]
                val = val + gamma[up[i], a, e] * T.components[T.flat(repl + lo)]
        for j in range(q):
            for e in range(n):
                repl = lo[:j] + (e,) + lo[j + 1:]
                val = val - gamma[e, a, lo[j]] * T.components[T.flat(up + repl)]
        out.append(val)
    return TensorField(n, p, q + 1, out)


def add_fold_reference(*terms):
    """expr.add as it was before a lone constant became its own fold:
    every constant is summed from int 0 and re-interned through const."""
    from protract.expr import ZERO, Add, Const, const

    flat = []
    c = 0
    for t in terms:
        if isinstance(t, Add):
            items = t.terms
        else:
            items = (t,)
        for item in items:
            if isinstance(item, Const):
                c += item.value
            else:
                flat.append(item)
    if c != 0:
        flat.append(const(c))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul_fold_reference(*factors):
    """expr.mul as it was before a lone constant became its own fold:
    every constant is multiplied from int 1 and re-interned through const."""
    from protract.expr import ZERO, Const, Mul, const

    flat = []
    c = 1
    for f in factors:
        if isinstance(f, Mul):
            items = f.factors
        else:
            items = (f,)
        for item in items:
            if isinstance(item, Const):
                c *= item.value
                if c == 0:
                    return ZERO
            else:
                flat.append(item)
    if not flat:
        return const(c)
    if c != 1:
        flat.insert(0, const(c))
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def diff_reference(exprs, coord):
    """Partial derivatives of a family by a memoised tree walk, built
    with the reference folds above. A product gets one term per factor,
    also for a factor whose derivative is zero: the rule that
    Mul._deriv's zero skip replaces."""
    from protract.expr import (ONE, ZERO, Add, Call, Const, Mul, Neg, Pow,
                               Var, const, neg, power)

    add, mul = add_fold_reference, mul_fold_reference
    memo = {}

    def d(e):
        got = memo.get(id(e))
        if got is not None:
            return got
        if isinstance(e, Const):
            got = ZERO
        elif isinstance(e, Var):
            got = ONE if e.index == coord else ZERO
        elif isinstance(e, Add):
            got = add(*[d(t) for t in e.terms])
        elif isinstance(e, Mul):
            fs = e.factors
            got = add(*[mul(*fs[:i], d(f), *fs[i + 1:])
                        for i, f in enumerate(fs)])
        elif isinstance(e, Pow):
            got = mul(const(e.exponent), power(e.base, e.exponent - 1),
                      d(e.base))
        elif isinstance(e, Neg):
            got = neg(d(e.arg))
        elif isinstance(e, Call) and e.name == "sin":
            got = mul(Call("cos", e.arg), d(e.arg))
        elif isinstance(e, Call) and e.name == "cos":
            got = neg(mul(Call("sin", e.arg), d(e.arg)))
        elif isinstance(e, Call):
            got = mul(e, d(e.arg))
        else:
            raise TypeError("unknown node %r" % (e,))
        memo[id(e)] = got
        return got

    return [d(e) for e in exprs]


def postorder_apply_reference(roots, fn, memo=None) -> list:
    """expr._postorder_apply as it was before a node's children were
    fetched once per node: a node stays on the stack while its pending
    children are computed, and on its next visit it fetches its children
    again, scans them again for pending ones, and then gathers their
    results. It takes the memo argument of expr._postorder_apply and
    ignores it, keeping a fresh memo of its own: under it diff_all reads
    no derivative a node keeps and differentiates from scratch."""
    results = {}
    work = list(roots)
    while work:
        node = work[-1]
        nid = id(node)
        if nid in results:
            work.pop()
            continue
        pending = [c for c in node.children() if id(c) not in results]
        if pending:
            work.extend(pending)
            continue
        work.pop()
        results[nid] = fn(node, [results[id(c)] for c in node.children()])
    return [results[id(r)] for r in roots]


# ---------------------------------------------------------------------------
# Verbatim copies of the per-type section generators, pair completion and
# trace-free projectors that one slot table per section type replaced.

def rand_field_reference(rng, dim, p, q, sym=None):
    """cli._rand_field with its own sym/skew mirror loop."""
    from protract.cli import _rand_poly
    from protract.expr import parse
    from protract.tensor import TensorField

    size = dim ** (p + q)
    comps = [_rand_poly(rng, dim) for _ in range(size)]
    if sym and p + q == 2:
        for b in range(dim):
            for c in range(b, dim):
                if sym == "sym":
                    comps[c * dim + b] = comps[b * dim + c]
                else:
                    comps[b * dim + b] = parse("0", dim)
                    if c > b:
                        comps[c * dim + b] = parse("0", dim) - comps[b * dim + c]
    return TensorField(dim, p, q, comps)


def rand_tractor_reference(rng, dim):
    from protract.cli import _rand_poly
    from protract.tractor import TractorSection

    return TractorSection(rand_field_reference(rng, dim, 1, 0),
                          _rand_poly(rng, dim), validate=False)


def rand_cotractor_reference(rng, dim):
    from protract.cli import _rand_poly
    from protract.tractor import CotractorSection

    return CotractorSection(_rand_poly(rng, dim),
                            rand_field_reference(rng, dim, 0, 1),
                            validate=False)


def rand_s2tractor_reference(rng, dim):
    from protract.cli import _rand_poly
    from protract.tractor import S2TractorSection

    return S2TractorSection(rand_field_reference(rng, dim, 2, 0, "sym"),
                            rand_field_reference(rng, dim, 1, 0),
                            _rand_poly(rng, dim), validate=False)


def rand_s2cotractor_reference(rng, dim):
    from protract.cli import _rand_poly
    from protract.tractor import S2CotractorSection

    return S2CotractorSection(rand_field_reference(rng, dim, 0, 2, "sym"),
                              rand_field_reference(rng, dim, 0, 1),
                              _rand_poly(rng, dim), validate=False)


def skew_section_reference(rng, dim):
    """gen.skew_section."""
    from protract.cli import _rand_poly
    from protract.tractor import SkewTractorSection

    return SkewTractorSection(rand_field_reference(rng, dim, 2, 0, "skew"),
                              rand_field_reference(rng, dim, 1, 0),
                              _rand_poly(rng, dim), validate=False)


def tf_11_reference(M):
    """transport._tf_11: the trace-free part of a (1,1) tensor."""
    from fractions import Fraction

    n = M.dim
    tr = 0
    for d in range(n):
        tr = tr + M.components[M.flat((d, d))]
    k = Fraction(1, n)
    out = []
    for c in range(n):
        for a in range(n):
            val = M.components[M.flat((c, a))]
            if a == c:
                val = val - k * tr
            out.append(val)
    return M._with(1, 1, out)


def trace_free_21_reference(U, k):
    """tensor._trace_free for (2,1) tensors only, storage [b][c][a]."""
    import itertools

    n = U.dim
    t_first = []   # U_d^{dc}, indexed by c
    t_second = []  # U_d^{bd}, indexed by b
    for c in range(n):
        total = 0
        for d in range(n):
            total = total + U.components[U.flat((d, c, d))]
        t_first.append(total)
    for b in range(n):
        total = 0
        for d in range(n):
            total = total + U.components[U.flat((b, d, d))]
        t_second.append(total)
    out = []
    for b, c, a in itertools.product(range(n), repeat=3):
        val = U.components[U.flat((b, c, a))]
        if a == b:
            val = val - k * t_first[c]
        if a == c:
            val = val - k * t_second[b]
        out.append(val)
    return U._with(2, 1, out)


def sampled_pde_residual_reference(bundle, sampler, points, h=1e-4):
    """transport.sampled_pde_residual with one branch per section type;
    its trace-free projectors are the two references above."""
    from protract.tensor import (PointTensor, max_magnitude,
                                 skew_trace_coefficient,
                                 sym_trace_coefficient)
    from protract.tractor import (S2TractorSection, SkewTractorSection,
                                  TractorSection)

    n = bundle.dim
    gamma = bundle.geom.connection().gamma
    cls = bundle.section_cls
    lead = cls.SLOT_SPEC[0][0]
    values = []
    for pt in points:
        centre = bundle.unflatten_point(sampler(pt))[lead]
        grads = []
        for a in range(n):
            hi = [float(c) for c in pt]; hi[a] += h
            lo = [float(c) for c in pt]; lo[a] -= h
            plus = bundle.unflatten_point(sampler(hi))[lead]
            minus = bundle.unflatten_point(sampler(lo))[lead]
            grads.append([(x - y) / (2 * h) for x, y in
                          zip(plus.components, minus.components)])
        gpt = gamma.at(pt)
        if cls is S2TractorSection or cls is SkewTractorSection:
            comps = []
            for b in range(n):
                for c in range(n):
                    for a in range(n):
                        val = grads[a][b * n + c]
                        for d in range(n):
                            val += float(gpt[b, a, d]) * float(centre[d, c])
                            val += float(gpt[c, a, d]) * float(centre[b, d])
                        comps.append(val)
            U = PointTensor(n, 2, 1, comps)
            k = sym_trace_coefficient(n) if cls is S2TractorSection \
                else skew_trace_coefficient(n)
            values.extend(trace_free_21_reference(U, k).components)
        elif cls is TractorSection:
            comps = []
            for c in range(n):
                for a in range(n):
                    val = grads[a][c]
                    for d in range(n):
                        val += float(gpt[c, a, d]) * float(centre[d])
                    comps.append(val)
            values.extend(tf_11_reference(PointTensor(n, 1, 1, comps))
                          .components)
        else:
            raise ValueError(
                "sampled residual covers the prolongation bundles only")
    return max_magnitude(values)


# ---------------------------------------------------------------------------
# Verbatim copies of the seven hand-written connection bodies that the one
# Leibniz rule over the placement table replaced (tractor.py): the
# cotractor, tractor, projective-prolongation, metrisability, S2T* and S2T
# connections and the shared top slot of the two S2T connections; and the
# curvature action with its one branch per section type and the obstruction
# with its own copy of the W and C terms.


def cotractor_nabla_reference(geom: ChartGeometry, s: CotractorSection):
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


def tractor_nabla_reference(geom: ChartGeometry, s: TractorSection):
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


def proj_prolong_nabla_reference(geom: ChartGeometry, s: TractorSection):
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


def metrisability_prolong_nabla_reference(geom: ChartGeometry, s: S2TractorSection):
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
        family.append(S2TractorSection(s2_top_slot_reference(dt, s.nu, a),
                                       TensorField(n, 1, 0, slot2),
                                       _scalar(n, val3), validate=False))
    return family


def s2_top_slot_reference(dt: TensorField, nu: TensorField, a: int) -> TensorField:
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


def s2_dual_nabla_reference(geom: ChartGeometry, s: S2CotractorSection):
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


def s2_tractor_nabla_reference(geom: ChartGeometry, s: S2TractorSection):
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
        family.append(S2TractorSection(s2_top_slot_reference(dt, s.nu, e),
                                       TensorField(n, 1, 0, slot2),
                                       _scalar(n, val3), validate=False))
    return family


def tractor_curvature_reference(geom: ChartGeometry, s: Section):
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


def metrisability_obstruction_reference(geom: ChartGeometry, t: TensorField):
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
