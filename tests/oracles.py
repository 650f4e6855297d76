"""Independent numerical oracles used to validate symbolic results.

Everything here recomputes quantities from first principles with plain
float arithmetic and central differences, or with Fraction row
reduction, deliberately avoiding the library's symbolic derivative,
Christoffel, and curvature code paths. The exceptions are references
for a symbolic construction: structural_key compares expressions
without interning, covariant_derivative_sequential builds the
connection derivative from the expression constructors term by term,
add_fold_reference and mul_fold_reference fold every constant by
Fraction arithmetic, and diff_reference differentiates with them and
without skipping zero terms.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


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
