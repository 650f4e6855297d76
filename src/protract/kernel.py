"""Batched evaluation of compiled tables, exact or float.

eval_table runs a table's register tape with one walker for both
arithmetic modes: every instruction reads its operand registers and
writes its own register, through the arithmetic the mode passes in. A
register is dropped at its last reader, so only the values still to be
read stay alive; the entries are copied out at the end. The arithmetic
follows the batch, by the rule expr.evaluate uses: when every coordinate
is an int or a Fraction the batch is exact, otherwise it is float.

An exact batch is walked once per row. Its registers are plain
(numerator, denominator) int pairs in lowest terms with a positive
denominator, and only the entries become Fractions, at the end:

- MUL cross-cancels before it multiplies: gcd(n1, d2) and gcd(n2, d1);
- ADD adds the numerators over an equal denominator and reduces by one
  gcd; otherwise it adds over lcm(d1, d2) and reduces by the gcd of the
  new numerator with gcd(d1, d2) alone, as fractions.Fraction does;
- POW inverts the base for a negative exponent, keeping the denominator
  positive, and 0**negative raises EvalDomainError;
- NEG flips the numerator's sign;
- a table with SIN, COS or EXP raises ExactModeError.

Every step keeps its result in lowest terms, so every row equals
expr.evaluate at that point.

A float batch is walked once over float64 columns of N values (or
constants), so the per-instruction interpreter cost is paid once per
batch instead of once per point. Each row of the result is bitwise the
value a scalar IEEE evaluation of the same tape gives at that point:

- ADD and MUL fold their operands left to right;
- POW is binary powering on the (inverted, for negative exponents)
  base, and 0**negative gives nan;
- SIN and COS give nan for a non-finite argument;
- EXP is math.exp per element, saturating to inf on overflow
  (numpy's exp differs from it in the last bit on some inputs);
- CONST saturates to +-inf when the exact constant is beyond the float
  range.

Nothing raises on bad float numerics: nonfinite values propagate and
callers inspect finiteness where they care.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

from .expr import EvalDomainError, ExactModeError
from .program import OP_VAR, _CALL_OPS, CompiledTable

__all__ = ["BACKEND", "eval_table"]

BACKEND = "numpy"   # names the evaluator in benchmark run records


def eval_table(table: CompiledTable, points) -> np.ndarray:
    """Evaluate every entry of a table at N points.

    points is an (N, dim) array-like. The result is an (N, n_out) array
    whose row i holds the entries at point i: an object array of
    Fractions when every coordinate is an int or a Fraction, otherwise
    a float64 array.
    """
    pts = points if isinstance(points, np.ndarray) and points.dtype != object \
        else np.asarray(points, dtype=object)
    if pts.ndim != 2:
        raise ValueError("points must be an (N, dim) array")
    if table.max_var >= pts.shape[1]:
        raise ValueError("point has %d coordinates, table needs %d"
                         % (pts.shape[1], table.max_var + 1))
    if pts.dtype == object and all(isinstance(x, (int, Fraction))
                                   for x in pts.flat):
        if not _CALL_NAMES.keys().isdisjoint(table.ops):
            name = next(_CALL_NAMES[op] for op in table.ops
                        if op in _CALL_NAMES)
            raise ExactModeError("%s is not rational-closed" % name)
        out = np.empty((pts.shape[0], table.n_out), dtype=object)
        for k, row in enumerate(pts.tolist()):
            pairs = [(x.numerator, x.denominator) for x in row]
            out[k] = [Fraction(n, d)
                      for n, d in _walk(table, pairs.__getitem__, _PAIRS)]
        return out
    cols = np.ascontiguousarray(pts.T, dtype=np.float64)
    out = np.empty((pts.shape[0], table.n_out))
    with np.errstate(all="ignore"):
        values = _walk(table, cols.__getitem__, _FLOAT)
    for k, v in enumerate(values):
        out[:, k] = v
    return out


def _walk(table: CompiledTable, load, steps) -> list:
    """Run the tape once and return the entries' values.

    load(k) gives coordinate k. steps[op](regs, operands, arg) gives the
    value of any other instruction from the registers it reads."""
    regs = [None] * len(table)
    operands, starts, last_read = table.operands, table.starts, table.last_read
    for i, (op, a) in enumerate(zip(table.ops, table.args)):
        xs = operands[starts[i]:starts[i + 1]]
        regs[i] = load(a) if op == OP_VAR else steps[op](regs, xs, a)
        for r in xs:
            if last_read[r] == i:
                regs[r] = None
    return [regs[r] for r in table.outputs]


# ---------------------------------------------------------------------------
# float64 columns

def _float_const(regs, xs, c) -> np.float64:
    try:
        return np.float64(float(c))
    except OverflowError:   # an exact constant beyond the float range
        return np.float64(math.inf if c > 0 else -math.inf)


def _float_add(regs, xs, a):
    # a fresh accumulator, so the in-place fold never touches a column,
    # constant or register still in use
    v = regs[xs[0]] + regs[xs[1]]
    for r in xs[2:]:
        v += regs[r]
    return v


def _float_mul(regs, xs, a):
    v = regs[xs[0]] * regs[xs[1]]
    for r in xs[2:]:
        v *= regs[r]
    return v


def _float_pow(regs, xs, e: int):
    base = regs[xs[0]]
    if e < 0:
        base = np.where(base == 0.0, np.nan, 1.0 / base)
        e = -e
    result = np.float64(1.0)   # 1.0 * x == x, so the first product is exact
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _float_neg(regs, xs, a):
    return -regs[xs[0]]


def _float_call(fn):
    return lambda regs, xs, a: fn(regs[xs[0]])


def _exp(x):
    x = np.asarray(x)
    return np.fromiter(map(_exp1, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


def _exp1(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# exact (numerator, denominator) pairs in lowest terms, denominator > 0

def _pair_const(regs, xs, c: Fraction):
    return c.numerator, c.denominator


def _pair_add(regs, xs, a):
    n, d = regs[xs[0]]
    for r in xs[1:]:
        n2, d2 = regs[r]
        if d == d2:
            n += n2
            if d != 1:
                g = gcd(n, d)
                if g != 1:
                    n //= g
                    d //= g
            continue
        # over the divisor g = gcd(d, d2): n/d + n2/d2 = t / (s * d2)
        # with s = d/g, and a common factor of t and s * d2 divides g
        g = gcd(d, d2)
        if g == 1:
            n = n * d2 + d * n2
            d *= d2
            continue
        s = d // g
        t = n * (d2 // g) + n2 * s
        g = gcd(t, g)
        n, d = t // g, s * (d2 // g)
    return n, d


def _pair_mul(regs, xs, a):
    n, d = regs[xs[0]]
    for r in xs[1:]:
        n2, d2 = regs[r]
        g1 = gcd(n, d2)
        g2 = gcd(n2, d)
        n = (n // g1) * (n2 // g2)
        d = (d // g2) * (d2 // g1)
    return n, d


def _pair_pow(regs, xs, e: int):
    n, d = regs[xs[0]]
    if e < 0:
        if n == 0:
            raise EvalDomainError("zero base with negative exponent")
        n, d, e = (d, n, -e) if n > 0 else (-d, -n, -e)
    return n ** e, d ** e


def _pair_neg(regs, xs, a):
    n, d = regs[xs[0]]
    return -n, d


_CALL_NAMES = {op: name for name, op in _CALL_OPS.items()}

# indexed by op code: CONST, VAR (loaded by the walker), ADD, MUL, POW,
# NEG, then SIN, COS, EXP
_FLOAT = (_float_const, None, _float_add, _float_mul, _float_pow,
          _float_neg, _float_call(np.sin), _float_call(np.cos),
          _float_call(_exp))
_PAIRS = (_pair_const, None, _pair_add, _pair_mul, _pair_pow,
          _pair_neg)
