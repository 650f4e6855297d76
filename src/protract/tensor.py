"""Dense component tensors on a single chart.

A tensor of valence (p, q) on an n-dimensional chart stores n**(p+q)
components in one flat tuple, all contravariant slots first, then all
covariant slots, each block row-major. TensorField components are Expr,
PointTensor components are numbers (Fraction or float); the algebra
below works on either because both support +, -, *.

Slot arguments are global positions 0..p+q-1 over that storage order
unless an operation says otherwise (contract takes per-block positions).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .expr import (EvalDomainError, Call, Const, ZERO, _walk_unique, add,
                   as_expr, neg, power)

__all__ = [
    "Tensor", "TensorField", "PointTensor",
    "contract", "symmetrize", "antisymmetrize",
    "trace_free_11", "trace_free_sym", "trace_free_skew",
    "sym_trace_coefficient", "skew_trace_coefficient",
    "matrix_inverse_exprs",
    "zero_field", "pair_field", "is_symmetric_pair", "is_skew_pair",
    "max_magnitude", "max_residual", "max_residuals",
]


class Tensor:
    __slots__ = ("dim", "p", "q", "components", "_table")

    def __init__(self, dim: int, p: int, q: int, components: Sequence):
        if dim < 1:
            raise ValueError("dimension must be positive")
        need = dim ** (p + q)
        comps = tuple(components)
        if len(comps) != need:
            raise ValueError("expected %d components, got %d" % (need, len(comps)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_table", None)

    @property
    def rank(self) -> int:
        return self.p + self.q

    def flat(self, multi: Sequence[int]) -> int:
        i = 0
        for k in multi:
            i = i * self.dim + k
        return i

    def __getitem__(self, multi):
        if isinstance(multi, int):
            multi = (multi,)
        return self.components[self.flat(multi)]

    def _with(self, p, q, components):
        return type(self)(self.dim, p, q, components)

    def __add__(self, other):
        self._check_like(other)
        return self._with(self.p, self.q,
                          [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        self._check_like(other)
        return self._with(self.p, self.q,
                          [a - b for a, b in zip(self.components, other.components)])

    def scaled(self, factor):
        return self._with(self.p, self.q, [factor * c for c in self.components])

    def _check_like(self, other):
        if (not isinstance(other, Tensor) or other.dim != self.dim
                or other.p != self.p or other.q != self.q):
            raise ValueError("tensor shape mismatch")

    def __repr__(self):
        return "<%s dim=%d valence=(%d,%d)>" % (
            type(self).__name__, self.dim, self.p, self.q)


class TensorField(Tensor):
    """Valence-(p,q) array of Expr components on an n-dimensional chart."""

    def __init__(self, dim, p, q, components):
        super().__init__(dim, p, q, [as_expr(c) for c in components])

    def at(self, point) -> "PointTensor":
        """Every component at one point: one row of at_many, exact
        Fractions at a point of int/Fraction coordinates, floats
        otherwise."""
        return PointTensor(self.dim, self.p, self.q,
                           self.at_many([point])[0].tolist())

    def at_many(self, points):
        """Every component at N points, as an (N, components) array, from
        one batched run of a compiled table cached on first use; see
        kernel.eval_table for the two arithmetic modes."""
        table = self._table
        if table is None:
            from .program import compile_table
            table = compile_table(self.components)
            object.__setattr__(self, "_table", table)
        from .kernel import eval_table
        return eval_table(table, points)


def _is_rational_point(point) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in point)


class PointTensor(Tensor):
    """Same shape as TensorField with numeric components at one point."""

    def max_abs(self):
        return max_magnitude(self.components)

    def to_json(self) -> dict:
        comps = []
        for c in self.components:
            if isinstance(c, Fraction):
                comps.append(int(c) if c.denominator == 1 else "%d/%d"
                             % (c.numerator, c.denominator))
            else:
                comps.append(float(c))
        return {"valence": [self.p, self.q], "dim": self.dim, "components": comps}


def max_magnitude(values):
    """Largest absolute value: the one fold behind every check residual.

    NaN if any value is NaN, else inf if any is infinite, so a non-finite
    residual fails its threshold; else the exact maximum (ints and
    Fractions stay exact), and 0 when there are no values.
    """
    worst = 0
    for v in values:
        a = abs(v)
        if a != a:   # NaN; math.isnan would overflow on a huge Fraction
            return a
        if a > worst:
            worst = a
    return worst


def max_residuals(families, points) -> list:
    """max_residual of each family of fields, over the same points.

    The components of every family go into one compiled table, so a
    subtree the families share is one instruction, run once over the
    rational points (exact Fractions) and once over the float points.
    Each family then folds its own columns, so a NaN fails only the
    families whose fields hold it.
    """
    from .kernel import eval_table
    from .program import compile_table

    comps, bounds = [], [0]
    for fields in families:
        comps.extend(c for f in fields
                     for t in ([f] if isinstance(f, TensorField)
                               else [g for _, g in f.slots()])
                     for c in t.components)
        bounds.append(len(comps))
    exact = [p for p in points if _is_rational_point(p)]
    floats = [p for p in points if not _is_rational_point(p)]
    table = compile_table(comps)
    outs = [eval_table(table, batch) for batch in (exact, floats) if batch]
    return [max_magnitude(itertools.chain.from_iterable(
                out[:, lo:hi].ravel().tolist() for out in outs))
            for lo, hi in zip(bounds, bounds[1:])]


def max_residual(fields, points):
    """max_magnitude of every component of the TensorFields and tractor
    sections in fields, over a sequence of points: one family of
    max_residuals."""
    return max_residuals([fields], points)[0]


def zero_field(dim: int, p: int, q: int) -> TensorField:
    return TensorField(dim, p, q, [ZERO] * dim ** (p + q))


def pair_field(dim: int, p: int, q: int, slots, sign: int,
               build) -> TensorField:
    """Field symmetric (sign 1) in a pair of slots i < j, or totally skew
    (sign -1) in an increasing tuple of two or more slots, built once
    per orbit of their permutations: build(*multi) runs where the slot
    values increase, strictly when skew. Any other entry is the entry
    with its slot values sorted, the same node or, skew and by an odd
    permutation, its Neg; a skew entry with a repeated slot value is
    ZERO. So the values are exactly symmetric or skew, in float
    arithmetic too."""
    width = p + q
    comps = []
    for k, multi in enumerate(_ranges(dim, width)):
        vals = [multi[s] for s in slots]
        ordered = sorted(vals)
        distinct = len(set(vals)) == len(vals)
        if vals == ordered and (distinct or sign > 0):
            comps.append(build(*multi))
        elif not distinct and sign < 0:
            comps.append(ZERO)
        else:
            # sorting lowers the first slot value it moves, so the sorted
            # entry lies before k
            rep = comps[k - sum((v - o) * dim ** (width - 1 - s)
                                for s, v, o in zip(slots, vals, ordered))]
            odd = sum(x > y for x, y in itertools.combinations(vals, 2)) % 2
            comps.append(neg(rep) if odd and sign < 0 else rep)
    return TensorField(dim, p, q, comps)


def _ranges(dim, count):
    return itertools.product(range(dim), repeat=count)


def contract(T: Tensor, upper_slot: int, lower_slot: int) -> Tensor:
    """Sum over one upper and one lower slot; valence drops to (p-1, q-1).

    upper_slot counts within the contravariant block, lower_slot within
    the covariant block.
    """
    if not 0 <= upper_slot < T.p:
        raise ValueError("upper slot out of range")
    if not 0 <= lower_slot < T.q:
        raise ValueError("lower slot out of range")
    n = T.dim
    p, q = T.p - 1, T.q - 1
    out = []
    for multi in _ranges(n, p + q):
        up = list(multi[:p])
        lo = list(multi[p:])
        total = 0
        for d in range(n):
            full = up[:upper_slot] + [d] + up[upper_slot:] \
                + lo[:lower_slot] + [d] + lo[lower_slot:]
            total = total + T.components[T.flat(full)]
        out.append(total)
    return T._with(p, q, out)


def _check_slot_block(T: Tensor, slots):
    slots = tuple(slots)
    if len(slots) < 2 or len(set(slots)) != len(slots):
        raise ValueError("need at least two distinct slots")
    uppers = all(s < T.p for s in slots)
    lowers = all(T.p <= s < T.p + T.q for s in slots)
    if not (uppers or lowers):
        raise ValueError("slots must share variance")
    return slots


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _permute_projector(T: Tensor, slots, signed: bool) -> Tensor:
    slots = _check_slot_block(T, slots)
    n = T.dim
    k = len(slots)
    weight = Fraction(1, 1)
    for i in range(2, k + 1):
        weight /= i
    perms = [(p, _perm_sign(p) if signed else 1)
             for p in itertools.permutations(range(k))]
    cache: dict[tuple, object] = {}
    out = []
    for multi in _ranges(n, T.rank):
        # symmetric: one object per orbit, reused at each of its positions
        key = None if signed else tuple(sorted(multi[s] for s in slots)) \
            + tuple(multi[i] for i in range(T.rank) if i not in slots)
        canon = cache.get(key)
        if canon is None:
            total = 0
            for perm, sign in perms:
                idx = list(multi)
                vals = [multi[s] for s in slots]
                for pos, s in enumerate(slots):
                    idx[s] = vals[perm[pos]]
                term = T.components[T.flat(idx)]
                total = total + (term if sign > 0 else -term)
            canon = weight * total
            if key is not None:
                cache[key] = canon
        out.append(canon)
    return T._with(T.p, T.q, out)


def symmetrize(T: Tensor, slots) -> Tensor:
    """Average over permutations of the given same-variance slots."""
    return _permute_projector(T, slots, signed=False)


def antisymmetrize(T: Tensor, slots) -> Tensor:
    """Signed average over permutations of the given same-variance slots."""
    return _permute_projector(T, slots, signed=True)


def sym_trace_coefficient(n: int) -> Fraction:
    """Weight removing both traces of a symmetric-pair (2,1) tensor."""
    return Fraction(1, n + 1)


def skew_trace_coefficient(n: int) -> Fraction:
    """Weight removing both traces of a skew-pair (2,1) tensor."""
    if n < 2:
        raise ValueError("needs dimension at least 2")
    return Fraction(1, n - 1)


def _trace_free(U: Tensor, k: Fraction) -> Tensor:
    """U_a^{b_1..b_p} less k delta_a^{b_i} times its trace over (b_i, a),
    for each upper slot i in turn; storage [b_1]..[b_p][a]."""
    n = U.dim
    out = []
    for *upper, a in _ranges(n, U.p + 1):
        val = U[(*upper, a)]
        for i, b in enumerate(upper):
            if a == b:
                total = 0
                for d in range(n):
                    total = total + U[(*upper[:i], d, *upper[i + 1:], d)]
                val = val - k * total
        out.append(val)
    return U._with(U.p, 1, out)


def trace_free_11(U: Tensor) -> Tensor:
    """Trace-free part of a (1,1) tensor."""
    if (U.p, U.q) != (1, 1):
        raise ValueError("expected valence (1,1)")
    return _trace_free(U, Fraction(1, U.dim))


def trace_free_sym(U: Tensor) -> Tensor:
    """Trace-free part of a (2,1) tensor whose upper pair is symmetric."""
    if (U.p, U.q) != (2, 1):
        raise ValueError("expected valence (2,1)")
    if not is_symmetric_pair(U, 0, 1):
        raise ValueError("upper pair is not symmetric")
    return _trace_free(U, sym_trace_coefficient(U.dim))


def trace_free_skew(U: Tensor) -> Tensor:
    """Trace-free part of a (2,1) tensor whose upper pair is skew."""
    if (U.p, U.q) != (2, 1):
        raise ValueError("expected valence (2,1)")
    if not is_skew_pair(U, 0, 1):
        raise ValueError("upper pair is not skew")
    return _trace_free(U, skew_trace_coefficient(U.dim))


_PROBE_SEEDS = (Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3),
                Fraction(5, 11), Fraction(-4, 9))


def _probe_points(components, dim: int, count: int = 3):
    """count fixed probe points: exact Fractions when no component has a
    sin, cos or exp node, floats otherwise."""
    rational = not any(isinstance(node, Call)
                       for node in _walk_unique(components))
    pts = []
    for k in range(count):
        pt = [_PROBE_SEEDS[(k + i) % len(_PROBE_SEEDS)] + Fraction(i - k, 13)
              for i in range(dim)]
        pts.append(pt if rational else [float(x) for x in pt])
    return pts


def _pair_relation(T: Tensor, slot_i: int, slot_j: int, sign: int,
                   count: int = 3) -> bool:
    """Check T[.. i .. j ..] == sign * T[.. j .. i ..] by evaluation."""
    n = T.dim
    if isinstance(T, TensorField):
        rows = T.at_many(_probe_points(T.components, n, count)).tolist()
    else:
        rows = [T.components]
    for comps in rows:
        for multi in _ranges(n, T.rank):
            if multi[slot_i] > multi[slot_j]:
                continue
            if multi[slot_i] == multi[slot_j] and sign == 1:
                continue
            swapped = list(multi)
            swapped[slot_i], swapped[slot_j] = multi[slot_j], multi[slot_i]
            a = comps[T.flat(multi)]
            b = comps[T.flat(swapped)]
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                if a != sign * b:
                    return False
            elif abs(a - sign * b) > 1e-12 * (1 + abs(a) + abs(b)):
                return False
    return True


def is_symmetric_pair(T: Tensor, slot_i: int, slot_j: int, count: int = 3) -> bool:
    return _pair_relation(T, slot_i, slot_j, 1, count)


def is_skew_pair(T: Tensor, slot_i: int, slot_j: int, count: int = 3) -> bool:
    return _pair_relation(T, slot_i, slot_j, -1, count)


# ---------------------------------------------------------------------------
# exact matrix inversion

def matrix_inverse_exprs(rows):
    """Adjugate-over-determinant inverse of a matrix of Expr.

    Exact in rational mode; singularity shows up at evaluation points,
    not here. Returns (inverse rows, determinant).
    """
    n = len(rows)
    det = _plain_det(rows, tuple(range(n)))
    inv = [[None] * n for _ in range(n)]
    if isinstance(det, Const):
        if det.value == 0:
            raise EvalDomainError("singular matrix")
        det_inv = as_expr(Fraction(1) / det.value)
    else:
        det_inv = power(det, -1)
    for i in range(n):
        for j in range(n):
            # cofactor expansion of the (j, i) minor gives the adjugate entry
            cols = tuple(c for c in range(n) if c != i)
            sub_rows = [rows[r] for r in range(n) if r != j]
            minor = _plain_det(sub_rows, cols)
            sign = 1 if (i + j) % 2 == 0 else -1
            adj = minor if sign > 0 else -minor
            inv[i][j] = adj * det_inv
    return inv, det


def _plain_det(rows, cols: tuple):
    if not cols:
        return as_expr(1)
    terms = []
    for pos, c in enumerate(cols):
        term = rows[0][c] * _plain_det(rows[1:], cols[:pos] + cols[pos + 1:])
        terms.append(term if pos % 2 == 0 else -term)
    return add(*terms)
