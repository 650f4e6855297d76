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
The other sections keep one verbatim snapshot per replaced concept,
which the differential tests compare the library against: the per-type
section code that one slot table per section type replaced (random
sections, the (1,1) and (2,1) trace-free projectors, the sampled
source-equation residual); the seven hand-written connection bodies that
the one Leibniz rule over tractor.py's placement table replaced, with the
curvature action and the metrisability obstruction it also rewrote;
max_residual as it was when each family of fields compiled its own
table; the flat skew system with its rho slot that the Lambda^2 T
placement row replaced; CurveSegment.reversed as it was when it
substituted into the curve's DAG; the Cotton-Weyl field as it was when
it built the whole nabla W; holonomy_dimension with its per-bundle RK4
batches as it was before bundles shared one coefficient table;
levi_civita, riemann, _weyl and _cotton as they were when each built
every component, before a mirrored entry was the same node or its Neg;
_second_bianchi_field as it was when it read the whole nabla R;
_first_bianchi_field as it was when it built every component;
_propagators, _loop_matrices and holonomy_dimensions as they were when
each loop and each lasso connector was one batch with chains of its
own; the batch plan of _propagators as it was when it counted the
jobs still stepping at every step anew; check_invertible_at and the
per-point screen loop of _eval_points as they were before the sample
points were screened in one batch; and _suite_duality, _suite_einstein,
_suite_prolong and the holonomy suite's curvature grids as they were
when they checked the connections on seeded random sections; and
Mul._deriv, _Partials.__setitem__ and program._op_arg as they were
before a product-rule term was built directly, the derivative store
appended the next coordinate and _op_arg dispatched by type.
antisymmetrize_reference builds each entry of a skew part anew, with no
cache.

A snapshot is deleted when a later one, or an independent oracle,
checks every behaviour its tests checked at the same strength (bitwise,
the same node, or exactly equal); its tests then compare against that
one. Holonomy keeps two: holonomy_dimension_reference, the per-bundle
batches, and holonomy_dimensions_reference, one batch per loop and
connector, which the batch-bound and NaN tests need.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from protract.expr import (ZERO, Add, Call, Const, Mul, Neg, Pow, Var, add,
                           mul)
from protract.geometry import (AffineConnection, GeometryError,
                               covariant_derivative, partial_derivative)
from protract.kernel import eval_table
from protract.program import (OP_ADD, OP_CONST, OP_MUL, OP_NEG, OP_POW,
                              OP_VAR, _CALL_OPS)
from protract.tensor import (TensorField, _is_rational_point, is_symmetric_pair,
                             max_magnitude)
from protract.tractor import (
    CotractorSection,
    S2CotractorSection,
    S2TractorSection,
    Section,
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
# Verbatim copies of Mul._deriv and _Partials.__setitem__ (expr.py) and of
# program._op_arg, as they were before the product rule built a term's
# node directly, the derivative store appended the next coordinate, and
# _op_arg dispatched sums, products and negations by type. The two
# methods are functions of self here; a test sets them on their classes.

def mul_deriv_reference(self, derivs, coord):
    # a factor with derivative ZERO gives a ZERO term, which add drops
    fs = self.factors
    terms = []
    for i, d in enumerate(derivs):
        if d is not ZERO:
            terms.append(mul(*fs[:i], d, *fs[i + 1:]))
    return add(*terms)


def partials_setitem_reference(self, node, deriv):
    # the children are done first, so each has its store or its None
    if isinstance(node, Call) or any(
            c._partials is None for c in node.children()):
        object.__setattr__(node, "_partials", None)
        self.unkept[node] = deriv
        return
    known, c = node._partials, self.coord
    if len(known) <= c:
        known += (None,) * (c + 1 - len(known))
    object.__setattr__(node, "_partials",
                       known[:c] + (deriv,) + known[c + 1:])


def op_arg_reference(node):
    if isinstance(node, Const):
        return OP_CONST, node.value
    if isinstance(node, Var):
        return OP_VAR, node.index
    if isinstance(node, Add):
        return OP_ADD, 0
    if isinstance(node, Mul):
        return OP_MUL, 0
    if isinstance(node, Pow):
        return OP_POW, node.exponent
    if isinstance(node, Neg):
        return OP_NEG, 0
    if isinstance(node, Call):
        return _CALL_OPS[node.name], 0
    raise TypeError("cannot compile %r" % node)


# ---------------------------------------------------------------------------
# Verbatim copies of the per-type section generators, pair completion and
# trace-free projectors that one slot table per section type replaced.

def rand_field_reference(rng, dim, p, q, sym=None):
    """gen.poly_field with its own sym/skew mirror loop."""
    from gen import poly
    from protract.expr import parse
    from protract.tensor import TensorField

    size = dim ** (p + q)
    comps = [poly(rng, dim) for _ in range(size)]
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
    from gen import poly
    from protract.tractor import TractorSection

    return TractorSection(rand_field_reference(rng, dim, 1, 0),
                          poly(rng, dim), validate=False)


def rand_cotractor_reference(rng, dim):
    from gen import poly
    from protract.tractor import CotractorSection

    return CotractorSection(poly(rng, dim),
                            rand_field_reference(rng, dim, 0, 1),
                            validate=False)


def rand_s2tractor_reference(rng, dim):
    from gen import poly
    from protract.tractor import S2TractorSection

    return S2TractorSection(rand_field_reference(rng, dim, 2, 0, "sym"),
                            rand_field_reference(rng, dim, 1, 0),
                            poly(rng, dim), validate=False)


def rand_s2cotractor_reference(rng, dim):
    from gen import poly
    from protract.tractor import S2CotractorSection

    return S2CotractorSection(rand_field_reference(rng, dim, 0, 2, "sym"),
                              rand_field_reference(rng, dim, 0, 1),
                              poly(rng, dim), validate=False)


def skew_section_reference(rng, dim):
    """gen.skew_section, without the rho slot Lambda^2 T does not have."""
    from protract.tractor import SkewTractorSection

    return SkewTractorSection(rand_field_reference(rng, dim, 2, 0, "skew"),
                              rand_field_reference(rng, dim, 1, 0),
                              validate=False)


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


# ---------------------------------------------------------------------------
# Verbatim copy of the residual reduction that compiled one table per
# family of fields (tensor.py), before one table served every family of
# a check; only its imports are absolute.

def max_residual_reference(fields, points):
    """max_magnitude of every component of the TensorFields and tractor
    sections in fields, over a sequence of points.

    All the components go into one compiled table, run once over the
    rational points (exact Fractions) and once over the float points.
    """
    from protract.kernel import eval_table
    from protract.program import compile_table

    comps = [c for f in fields
             for t in ([f] if isinstance(f, TensorField)
                       else [g for _, g in f.slots()])
             for c in t.components]
    exact = [p for p in points if _is_rational_point(p)]
    floats = [p for p in points if not _is_rational_point(p)]
    table = compile_table(comps)
    return max_magnitude(itertools.chain.from_iterable(
        eval_table(table, batch).ravel().tolist()
        for batch in (exact, floats) if batch))


# ---------------------------------------------------------------------------
# Verbatim copy of the hand-written flat skew system (tractor.py) that the
# Lambda^2 T placement row replaced, with the section type it acted on:
# beta^bc, nu^b and an extra scalar rho that integrability forces to
# zero. Only the section type's name differs.

class SkewRhoSection(Section):
    """SkewTractorSection as it was, with its rho slot."""

    SLOT_SPEC = (("beta", (2, 0)), ("nu", (1, 0)), ("rho", (0, 0)))
    SLOT_SYM = {"beta": "skew"}


def flat_skew_prolong_nabla_reference(s: SkewRhoSection, conn: AffineConnection):
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
        family.append(SkewRhoSection(TensorField(n, 2, 0, slot1),
                                     TensorField(n, 1, 0, slot2),
                                     _scalar(n, drho[a]), validate=False))
    return family


# ---------------------------------------------------------------------------
# Verbatim copy of CurveSegment.reversed (transport.py) as it was before a
# reversed segment read its own table backwards: it substituted
# u0 + u1 - x0 for x0 in every component and compiled the result anew.

def reversed_segment_reference(self):
    """CurveSegment.reversed: a new segment built from the substituted DAG."""
    from protract.expr import as_expr, var
    from protract.transport import CurveSegment

    u = var(0)
    total = as_expr(self.u0) + as_expr(self.u1)
    flipped = [_substitute_param(c, total - u) for c in self.components]
    return CurveSegment(flipped, self.u0, self.u1)


def _substitute_param(e, replacement):
    from protract.expr import (Add, Call, Const, Mul, Neg, Pow, Var,
                               _postorder_apply, add, mul, neg, power)

    def rebuild(node, ch):
        if isinstance(node, Var):
            return replacement if node.index == 0 else node
        if isinstance(node, Const):
            return node
        if isinstance(node, Add):
            return add(*ch)
        if isinstance(node, Mul):
            return mul(*ch)
        if isinstance(node, Pow):
            return power(ch[0], node.exponent)
        if isinstance(node, Neg):
            return neg(ch[0])
        if isinstance(node, Call):
            return Call(node.name, ch[0])
        return node

    return _postorder_apply([e], rebuild)[0]


# ---------------------------------------------------------------------------
# tensor.antisymmetrize as the sequential loop: every entry built anew,
# with no cache (tensor._permute_projector's signed cache never hit).

def antisymmetrize_reference(T, slots):
    """Signed average over permutations of the given slots, entry by entry."""
    from protract.tensor import _perm_sign, _ranges

    slots = tuple(slots)
    k = len(slots)
    weight = Fraction(1, 1)
    for i in range(2, k + 1):
        weight /= i
    out = []
    for multi in _ranges(T.dim, T.rank):
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = _perm_sign(perm)
            idx = list(multi)
            vals = [multi[s] for s in slots]
            for pos, s in enumerate(slots):
                idx[s] = vals[perm[pos]]
            term = T.components[T.flat(idx)]
            total = total + (term if sign > 0 else -term)
        out.append(weight * total)
    return out


# ---------------------------------------------------------------------------
# Verbatim copy of _cotton_weyl_field (geometry.py) as it was when it built
# the whole nabla W, all n^5 components, and read only the n^4 with c = e.

def cotton_weyl_field_reference(pack, conn):
    """(n-2) C_abd - nabla_c W_ab{}^c{}_d, stored as [a][b][d]."""
    W = pack.weyl
    C = pack.cotton
    n = W.dim
    dW = covariant_derivative(conn, W)  # [c][e][a][b][d] = nabla_e W_ab^c_d
    return TensorField(n, 0, 3, [(n - 2) * C[a, b, d]
                                 - add(*[dW[c, c, a, b, d] for c in range(n)])
                                 for a, b, d in itertools.product(
                                     range(n), repeat=3)])


# ---------------------------------------------------------------------------
# Verbatim copy of holonomy_dimension and _propagators (transport.py) as
# they were when each bundle compiled, sampled and evaluated on its own:
# every loop and lasso connector one batch per bundle, its coefficients
# from the bundle's own coefficient table, as TransportBundle.coefficients_at
# read them before it was deleted. loop_matrix and _segment_matrix
# are copied with them, as the callers holonomy_dimension went through.
# The report has no seed, as HolonomyReport no longer takes one.

def propagators_reference(bundle, jobs) -> list:
    """RK4 propagators, acting on coordinate vectors, of the segments of
    (segment, steps) jobs.

    The curves are sampled per segment at their 2*steps + 1 RK4 nodes;
    the connection coefficients and the node matrices -v^a A_a are then
    formed once for the nodes of all jobs, and the step propagators of
    each job in one batch. Only the product of the step propagators runs
    step by step.
    """
    r = bundle.rank
    eye = np.eye(r)
    hs, xs, vs = [], [], []
    for seg, steps in jobs:
        u0, u1 = float(seg.u0), float(seg.u1)
        h = (u1 - u0) / steps
        # node 2k is the start of step k (the end of step k-1), node 2k+1
        # its midpoint
        nodes = [u0]
        for k in range(steps):
            u = u0 + k * h
            nodes += (u + 0.5 * h, u + h)
        pos, vel = seg.sample_many(nodes)
        hs.append(h)
        xs.append(pos)
        vs.append(vel)
    v = np.concatenate(vs)
    N, dim = v.shape
    A = eval_table(bundle.coefficient_table(),
                   np.concatenate(xs)).reshape(N, dim, r * r)
    # non-finite coefficients propagate as NaN, like the kernel's numerics
    with np.errstate(all="ignore"):
        M = -(v[:, None, :] @ A).reshape(N, r, r)

    out = []
    start = 0
    for h, vel in zip(hs, vs):
        Mj = M[start:start + len(vel)]
        start += len(vel)
        k1 = Mj[0:-1:2]
        m_mid = Mj[1::2]
        k2 = m_mid @ (eye + 0.5 * h * k1)
        k3 = m_mid @ (eye + 0.5 * h * k2)
        k4 = Mj[2::2] @ (eye + h * k3)
        S = eye
        for P in eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4):
            S = P @ S
        out.append(S)
    return out


def _segment_matrix_reference(bundle, seg, steps):
    """RK4 propagator for one segment: the one-job case of _propagators."""
    return propagators_reference(bundle, [(seg, steps)])[0]


def _loop_matrix_reference(bundle, curve, steps=None, check_closed=False):
    from protract.transport import _as_loop, _check_closed, _split_steps

    loop = _as_loop(curve)
    if check_closed:
        _check_closed(loop)
    S = np.eye(bundle.rank)
    for P in propagators_reference(bundle,
                                   zip(loop, _split_steps(loop, steps))):
        S = P @ S
    return S


def holonomy_dimension_reference(bundle, loops, steps=1000, sv_tol=1e-6):
    """Fixed-subspace dimension of sampled loop holonomy.

    Transports the identity frame around each loop, stacks Hol_i - I,
    and counts singular values below sv_tol; that number upper-bounds
    the dimension of the parallel-section space.

    A parallel section is fixed by holonomy based at its own point, so
    loops starting elsewhere are lassoed: each holonomy is conjugated
    to the first loop's start point by transport along the straight
    connector. Without this the stacked fixed space would mix frames
    at unrelated points and the upper-bound property would be lost.
    """
    from protract.transport import (HolonomyReport, _as_loop, _endpoints,
                                    line_segment)

    loop_list = [_as_loop(lp) for lp in loops]
    base = _endpoints(loop_list[0][0])[0].tolist()
    mats = []
    for loop in loop_list:
        hol = _loop_matrix_reference(bundle, loop, steps, check_closed=True)
        start = _endpoints(loop[0])[0].tolist()
        if max(abs(a - b) for a, b in zip(base, start)) > 1e-12:
            seg = line_segment(base, start)
            conn_steps = max(50, round((steps or 1000) * seg.length))
            T = _segment_matrix_reference(bundle, seg, conn_steps)
            hol = np.linalg.solve(T, hol @ T)
        mats.append(hol)
    stacked = np.vstack([m - np.eye(bundle.rank) for m in mats])
    # No rank can be read off a non-finite holonomy (svd would raise);
    # NaN singular values let the caller fail the check they decide.
    sv = np.linalg.svd(stacked, compute_uv=False) \
        if np.isfinite(stacked).all() else np.full(bundle.rank, np.nan)
    fixed = int(np.sum(sv < sv_tol))
    return HolonomyReport(bundle.rank, mats, sv.tolist(), fixed)


# ---------------------------------------------------------------------------
# Verbatim copies of levi_civita, riemann, _weyl and _cotton (geometry.py)
# as they were when each built every component on its own: gamma^c_ba a
# separate sum from gamma^c_ab, and the zero diagonal and mirrored half of
# R, W and C full sums. Only their names differ.

def levi_civita_reference(geom) -> AffineConnection:
    """Koszul formula: gamma^c_ab = g^cd(d_a g_db + d_b g_da - d_d g_ab)/2."""
    n = geom.dim
    ginv = geom.metric_inverse()
    dg = partial_derivative(geom.metric)  # [a][d][b] = d_a g_db
    half = Fraction(1, 2)
    comps = [half * add(*[ginv[c, d] * (dg[a, d, b] + dg[b, d, a]
                                        - dg[d, a, b])
                          for d in range(n)])
             for c in range(n) for a in range(n) for b in range(n)]
    return AffineConnection(TensorField(n, 1, 2, comps), validate=False)


def riemann_reference(conn: AffineConnection) -> TensorField:
    """Curvature of the connection, stored as [c][a][b][d]."""
    n = conn.dim
    gamma = conn.gamma
    dgamma = partial_derivative(gamma)  # [c][a][b][d] = d_a gamma^c_bd
    comps = []
    for c, a, b, d in itertools.product(range(n), repeat=4):
        terms = [dgamma[c, a, b, d], -dgamma[c, b, a, d]]
        for e in range(n):
            terms.append(gamma[c, a, e] * gamma[e, b, d])
            terms.append(-(gamma[c, b, e] * gamma[e, a, d]))
        comps.append(add(*terms))
    return TensorField(n, 1, 3, comps)


def weyl_reference(riem: TensorField, schouten: TensorField) -> TensorField:
    n = riem.dim
    comps = []
    for c in range(n):
        for a in range(n):
            for b in range(n):
                for d in range(n):
                    val = riem[c, a, b, d]
                    if a == c:
                        val = val - schouten[b, d]
                    if b == c:
                        val = val + schouten[a, d]
                    comps.append(val)
    return TensorField(n, 1, 3, comps)


def cotton_reference(conn: AffineConnection,
                     schouten: TensorField) -> TensorField:
    dP = covariant_derivative(conn, schouten)  # [a][b][c] = nabla_a P_bc
    n = conn.dim
    comps = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                comps.append(dP[a, b, c] - dP[b, a, c])
    return TensorField(n, 0, 3, comps)


# ---------------------------------------------------------------------------
# Verbatim copy of _second_bianchi_field (geometry.py) as it was when it
# read the whole nabla R: the mirrored half in ab and the zero diagonal
# full sums of their own. Only its name differs.

def second_bianchi_field_reference(conn: AffineConnection,
                                   R: TensorField) -> TensorField:
    """nabla_e R_ab{}^c{}_d + nabla_b R_ea{}^c{}_d + nabla_a R_be{}^c{}_d,
    stored as [c][e][a][b][d]."""
    n = R.dim
    dR = covariant_derivative(conn, R)  # [c][e][a][b][d] = nabla_e R_ab^c_d
    return TensorField(n, 1, 4, [dR[c, e, a, b, d] + dR[c, b, e, a, d]
                                 + dR[c, a, b, e, d]
                                 for c, e, a, b, d in itertools.product(
                                     range(n), repeat=5)])


# ---------------------------------------------------------------------------
# Verbatim copy of _first_bianchi_field (geometry.py) as it was when it
# built every component of its field: the cyclic sum at every index. Only
# its name differs.

def first_bianchi_whole_reference(R: TensorField) -> TensorField:
    """R_ab{}^c{}_d + R_da{}^c{}_b + R_bd{}^c{}_a, stored as [c][a][b][d]."""
    n = R.dim
    return TensorField(n, 1, 3, [R[c, a, b, d] + R[c, d, a, b] + R[c, b, d, a]
                                 for c, a, b, d in itertools.product(
                                     range(n), repeat=4)])


# ---------------------------------------------------------------------------
# Verbatim copies of _propagators, _loop_matrices and holonomy_dimensions
# (transport.py) as they were when every loop and every lasso connector
# was one coefficient batch of its own, each job's step propagators were
# multiplied in a chain of its own, and the RK4 nodes came from a Python
# loop. Only their names differ, the helpers they call are imported, and
# the reports have no seed, as HolonomyReport no longer takes one.

def propagators_rank_chain_reference(bundles, table, jobs) -> list:
    """RK4 propagators, acting on coordinate vectors, of the segments of
    (segment, steps) jobs: per job, one propagator per bundle, in bundle
    order.

    The curves are sampled per segment at their 2*steps + 1 RK4 nodes,
    and the shared coefficient table is evaluated once at the nodes of
    all jobs. Per bundle, the node matrices -v^a A_a are then formed from
    its column block. The bundles of one rank run one RK4 chain: their
    node matrices stack, the step propagators of each job are formed in
    one batch, and only the product of the step propagators runs step by
    step, one stacked matrix product per step for the whole rank.
    """
    hs, xs, vs = [], [], []
    for seg, steps in jobs:
        u0, u1 = float(seg.u0), float(seg.u1)
        h = (u1 - u0) / steps
        # node 2k is the start of step k (the end of step k-1), node 2k+1
        # its midpoint
        nodes = [u0]
        for k in range(steps):
            u = u0 + k * h
            nodes += (u + 0.5 * h, u + h)
        pos, vel = seg.sample_many(nodes)
        hs.append(h)
        xs.append(pos)
        vs.append(vel)
    v = np.concatenate(vs)
    N, dim = v.shape
    flat = eval_table(table, np.concatenate(xs))

    # each bundle's column block starts where the previous one ends
    offsets = list(itertools.accumulate(
        (dim * b.rank ** 2 for b in bundles), initial=0))
    by_rank = {}
    for k, bundle in enumerate(bundles):
        by_rank.setdefault(bundle.rank, []).append(k)
    out = [[None] * len(bundles) for _ in hs]
    for r, group in by_rank.items():
        eye = np.eye(r)
        # (N, bundles, r, r): each matrix product acts on the last two
        # axes, so every bundle's products are the ones it would get alone
        M = np.empty((N, len(group), r, r))
        for j, k in enumerate(group):
            # a contiguous copy: the matrix products see the layout a
            # table of the bundle's own entries gives
            A = np.ascontiguousarray(
                flat[:, offsets[k]:offsets[k + 1]]).reshape(N, dim, r * r)
            # non-finite coefficients propagate as NaN, like the kernel's
            # numerics
            with np.errstate(all="ignore"):
                M[:, j] = -(v[:, None, :] @ A).reshape(N, r, r)
        start = 0
        for props, h, vel in zip(out, hs, vs):
            Mj = M[start:start + len(vel)]
            start += len(vel)
            k1 = Mj[0:-1:2]
            m_mid = Mj[1::2]
            k2 = m_mid @ (eye + 0.5 * h * k1)
            k3 = m_mid @ (eye + 0.5 * h * k2)
            k4 = Mj[2::2] @ (eye + h * k3)
            S = eye
            for P in eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4):
                S = P @ S
            for k, Sk in zip(group, S):
                props[k] = Sk
    return out


def loop_matrices_reference(bundles, table, loop: tuple, steps: int) -> list:
    """Per bundle, the product of the propagators of a loop's segments,
    all from one batch."""
    from protract.transport import _split_steps

    mats = [np.eye(b.rank) for b in bundles]
    jobs = zip(loop, _split_steps(loop, steps))
    for props in propagators_rank_chain_reference(bundles, table, jobs):
        mats = [P @ S for P, S in zip(props, mats)]
    return mats


def holonomy_dimensions_reference(bundles, loops,
                                  steps: int = 1000) -> list:
    """Fixed-subspace dimension of sampled loop holonomy, one
    HolonomyReport per bundle; the bundles share one geometry.

    Transports the identity frame around each loop, stacks Hol_i - I,
    and counts singular values below _SV_TOL; that number upper-bounds
    the dimension of the parallel-section space.

    A parallel section is fixed by holonomy based at its own point, so
    loops starting elsewhere are lassoed: each holonomy is conjugated
    to the first loop's start point by transport along the straight
    connector. Without this the stacked fixed space would mix frames
    at unrelated points and the upper-bound property would be lost.

    The bundles' coefficients are one compiled table, and each loop and
    each connector is one batch for all of them: its curve is sampled
    once and the table evaluated once at its RK4 nodes.
    """
    from protract.transport import (_SV_TOL, HolonomyReport, _as_loop,
                                    _check_closed, _endpoints, _shared_table,
                                    line_segment)

    bundles = list(bundles)
    table = _shared_table(bundles)
    loop_list = [_as_loop(lp) for lp in loops]
    base = _endpoints(loop_list[0][0])[0].tolist()
    mats = [[] for _ in bundles]
    for loop in loop_list:
        _check_closed(loop)
        hols = loop_matrices_reference(bundles, table, loop, steps)
        start = _endpoints(loop[0])[0].tolist()
        if max(abs(a - b) for a, b in zip(base, start)) > 1e-12:
            seg = line_segment(base, start)
            conn_steps = max(50, round(steps * seg.length))
            Ts = propagators_rank_chain_reference(bundles, table,
                                                  [(seg, conn_steps)])[0]
            hols = [np.linalg.solve(T, hol @ T) for T, hol in zip(Ts, hols)]
        for got, hol in zip(mats, hols):
            got.append(hol)
    reports = []
    for bundle, got in zip(bundles, mats):
        stacked = np.vstack([m - np.eye(bundle.rank) for m in got])
        # No rank can be read off a non-finite holonomy (svd would raise);
        # NaN singular values let the caller fail the check they decide.
        sv = np.linalg.svd(stacked, compute_uv=False) \
            if np.isfinite(stacked).all() else np.full(bundle.rank, np.nan)
        fixed = int(np.sum(sv < _SV_TOL))
        reports.append(HolonomyReport(bundle.rank, got, sv.tolist(), fixed))
    return reports


# ---------------------------------------------------------------------------
# Verbatim copy of the batch-planning loop of _propagators (transport.py) as
# it was when it counted the jobs still stepping anew at every step. Only
# its body is a function of its own, whose advance records each batch,
# (lo, hi, j0, j1), instead of running it.

def propagator_batches_reference(steps, rows) -> list:
    batches = []
    advance = lambda *batch: batches.append(batch)

    lo = 0
    while lo < steps[0]:
        # a batch holds each job's node at lo and two more per step
        live = int(np.count_nonzero(steps > lo))
        hi, used = lo + 1, 3 * live
        while hi < steps[0] and used + 2 * np.sum(steps > hi) <= rows:
            used += 2 * np.sum(steps > hi)
            hi += 1
        # when one step of every job is too many, slices of the jobs
        width = live if used <= rows else rows // 3
        for j0 in range(0, live, width):
            advance(lo, hi, j0, min(live, j0 + width))
        lo = hi
    return batches


# ---------------------------------------------------------------------------
# Verbatim copies of ChartGeometry.check_invertible_at (geometry.py) and of
# the per-point screen loop of _eval_points (cli.py) as they were before
# the sample points were screened in one batch. Only their names differ,
# the method is a function of the geometry, and the loop calls it.

def check_invertible_at_reference(self, point) -> None:
    """Raise SingularMetricError when det g is negligible at the point.

    The threshold is relative: 1e-12 times the Hadamard row bound of
    the evaluated metric (or exact zero in rational mode). A
    non-finite determinant or metric entry counts as singular.
    """
    import math

    from protract.geometry import SingularMetricError

    self.metric_inverse()
    d = self._cache["det"].at(point).components[0]
    if isinstance(d, Fraction):
        if d == 0:
            raise SingularMetricError("metric is singular at the point")
        return
    g_pt = self.metric.at(point)
    bound = 1.0
    for i in range(self.dim):
        bound *= max_magnitude(g_pt[i, j] for j in range(self.dim))
    if not (math.isfinite(d) and math.isfinite(bound)) \
            or abs(d) < 1e-12 * max(1.0, bound):
        raise SingularMetricError("metric is singular at the point")


def screen_points_reference(geom, points) -> list:
    """The points at which the metric is invertible, one at a time."""
    from protract.expr import EvalDomainError

    ok = []
    for p in points:
        try:
            check_invertible_at_reference(geom, p)
        except (GeometryError, EvalDomainError):
            continue
        ok.append(p)
    return ok


# ---------------------------------------------------------------------------
# Verbatim copies of _suite_duality, _suite_einstein and _suite_prolong
# (cli.py), and of the holonomy suite's curvature grids, as they were when
# they checked the connections on seeded random sections, before the
# identities were checked on the coefficient matrices. Only their names
# and imports differ, _rand_section is gen.section, the grid code is the
# body of a function of its own that returns the two curvatures, and
# _eval_points, which takes no count, reads the seed and, in the duality
# suite, the spec with ten samples.

def suite_duality_reference(spec, report, seed: int, steps: int):
    import random
    from dataclasses import replace

    from protract.cli import _eval_points
    from protract.expr import diff
    from protract.tensor import max_residual
    from protract.tractor import (cotractor_nabla,
                                  metrisability_prolong_nabla,
                                  s2_cotractor_dual_pairing, s2_dual_nabla,
                                  tractor_cotractor_pairing, tractor_nabla)
    from gen import section as _rand_section

    geom = spec.geom
    n = spec.dim
    rng = random.Random(seed ^ 0xD0A1)
    pts = _eval_points(replace(spec, sample_count=10), seed)
    # the samples are the first 200 (section pair, coordinate, point)
    # triples in that order: 200 // m residuals at all m points, then
    # one more at the first 200 % m points
    full, rest = divmod(200, len(pts))

    def leibniz(cls_u, cls_v, nab_u, nab_v, pairing):
        """Leibniz-rule residuals of random section pairs, as scalar
        fields, enough of them for the samples."""
        resids = []
        while len(resids) * len(pts) < 200:
            u = _rand_section(rng, cls_u, n)
            v = _rand_section(rng, cls_v, n)
            fu = nab_u(geom, u)
            fv = nab_v(geom, v)
            pair = pairing(u, v)
            for a in range(n):
                resid = diff(pair, a) - pairing(fu[a], v) - pairing(u, fv[a])
                resids.append(TensorField(n, 0, 0, [resid]))
        return resids

    for check, *bundle_pair in (
        ("duality_tractor", TractorSection, CotractorSection,
         tractor_nabla, cotractor_nabla, tractor_cotractor_pairing),
        ("duality_s2", S2TractorSection, S2CotractorSection,
         metrisability_prolong_nabla, s2_dual_nabla,
         s2_cotractor_dual_pairing),
    ):
        resids = leibniz(*bundle_pair)
        worst = max_residual(resids[:full], pts)
        if rest:
            worst = max_magnitude([worst, max_residual(resids[full:full + 1],
                                                       pts[:rest])])
        report.add(check, worst, 1e-10)
    report.metrics["duality_samples"] = 200


def suite_einstein_reference(spec, report, seed: int, steps: int):
    import math
    import random

    from protract.cli import _eval_points, _unless_nonfinite
    from protract.projective import einstein_deviation
    from protract.tensor import max_residual, max_residuals
    from protract.tractor import (metrisability_obstruction,
                                  metrisability_prolong_nabla,
                                  s2_tractor_nabla)
    from gen import section as _rand_section

    geom = spec.geom
    n = spec.dim
    pts = _eval_points(spec, spec.sample_seed)
    dev, obs = map(float, max_residuals(
        [[einstein_deviation(geom)],
         metrisability_obstruction(geom, geom.metric_inverse())], pts))
    small = 1e-8
    report.metrics["einstein_deviation_max"] = dev
    report.metrics["obstruction_max"] = obs
    report.metrics["connections_differ"] = bool(obs >= small)
    if dev < small:
        report.add("obstruction_vanishes", obs, small)
    else:
        # iff-theorem, contrapositive side: deviation big forces a
        # clearly nonzero obstruction
        report.add("obstruction_detects_non_einstein",
                   _unless_nonfinite(1e-3 / obs if obs > 0 else math.inf,
                                     dev, obs), 1.0)

    rng = random.Random(seed ^ 0x315)

    def gaps():
        for _ in range(10):
            s = _rand_section(rng, S2TractorSection, n)
            direct = s2_tractor_nabla(geom, s)
            prolong = metrisability_prolong_nabla(geom, s)
            ob_vec, ob_scal = metrisability_obstruction(geom, s.t)
            for a in range(n):
                dnu = direct[a].nu - prolong[a].nu
                drho = direct[a].rho - prolong[a].rho
                yield direct[a].t - prolong[a].t
                yield TensorField(n, 1, 0,
                                  [dnu[c] - ob_vec[c, a] for c in range(n)])
                yield TensorField(n, 0, 0, [drho.components[0] - ob_scal[a]])

    report.add("obstruction_identity", max_residual(gaps(), pts[:3]), 1e-12)


def suite_prolong_reference(spec, report, seed: int, steps: int):
    import random

    from protract.cli import _eval_points
    from protract.tensor import max_residual
    from protract.tractor import (metric_lift, metrisability_prolong_nabla,
                                  s2_tractor_nabla, s2_tractor_nabla_expanded)
    from protract.transport import s2_tractor_bundle, solution_correspondence
    from gen import section as _rand_section

    geom = spec.geom
    pts = _eval_points(spec, spec.sample_seed)
    lift = metric_lift(geom)
    report.add("metric_lift_parallel",
               max_residual(metrisability_prolong_nabla(geom, lift), pts),
               1e-7)
    bundle = s2_tractor_bundle(geom)
    res = solution_correspondence(bundle, lift, pts[:5])
    report.add("metrisability_residual", res, 1e-7)

    rng = random.Random(seed ^ 0x97)
    s = _rand_section(rng, S2TractorSection, spec.dim)
    direct = s2_tractor_nabla(geom, s)
    expanded = s2_tractor_nabla_expanded(geom, s)
    report.add("expansion_matches_direct",
               max_residual((d - e for d, e in zip(direct, expanded)),
                            pts[:3]), 1e-12)


def holonomy_curvatures_reference(spec, seed: int) -> list:
    """The cotractor and tractor curvature maxima of the holonomy suite,
    from the tractor_curvature grid of one seeded random section each."""
    import random

    from protract.cli import _eval_points
    from protract.tensor import max_residuals
    from protract.tractor import tractor_curvature
    from protract.transport import cotractor_bundle, tractor_bundle
    from gen import section as _rand_section

    geom = spec.geom
    pts = _eval_points(spec, spec.sample_seed)
    bundles = [make(geom) for make in (cotractor_bundle, tractor_bundle)]
    # the cotractor and tractor curvature grids reduce from one table
    grids = [tractor_curvature(geom, _rand_section(
        random.Random(seed), bundle.section_cls, spec.dim))
        for bundle in bundles[:2]]
    curvs = max_residuals([[member for row in grid for member in row]
                           for grid in grids], pts[:4])
    return list(map(float, curvs))
