"""Batched evaluation of compiled tables, exact or float.

eval_table runs a table's register tape once over a whole batch of
points: every instruction reads its operand registers and writes its own
register, a column of N values (or a constant), so the per-instruction
interpreter cost is paid once per batch instead of once per point. A
register is dropped at its last reader, so only the values still to be
read stay alive; the entries are copied out at the end. The arithmetic
follows the batch, by the rule expr.evaluate uses: when every coordinate
is an int or a Fraction the batch is exact, otherwise it is float.

An exact batch runs over numpy object columns of Fractions and returns
Fractions:

- ADD, MUL and NEG are Fraction arithmetic, so every row equals
  expr.evaluate at that point;
- POW is Fraction powering, and 0**negative raises EvalDomainError;
- SIN, COS and EXP raise ExactModeError.

A float batch runs over float64 columns. Each row of the result is
bitwise the value a scalar IEEE evaluation of the same tape gives at
that point:

- ADD and MUL fold their operands left to right;
- POW is binary powering on the (inverted, for negative exponents)
  base, and 0**negative gives nan;
- SIN and COS give nan for a non-finite argument;
- EXP is math.exp per element, saturating to inf on overflow
  (numpy's exp differs from it in the last bit on some inputs).

Nothing raises on bad float numerics: nonfinite values propagate and
callers inspect finiteness where they care.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .expr import EvalDomainError, ExactModeError
from .program import (OP_ADD, OP_CONST, OP_COS, OP_EXP, OP_MUL, OP_NEG,
                      OP_POW, OP_SIN, OP_VAR, _CALL_OPS, CompiledTable)

__all__ = ["BACKEND", "eval_table"]

BACKEND = "numpy"   # names the evaluator in benchmark run records

_FOLDS = {OP_ADD: (operator.add, operator.iadd),
          OP_MUL: (operator.mul, operator.imul)}


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
        cols = [np.array([Fraction(x) for x in col], dtype=object)
                for col in pts.T]
        const = _exact_const
        out = np.empty((pts.shape[0], table.n_out), dtype=object)
        power, calls = _exact_pow, _EXACT_CALLS
    else:
        cols = np.ascontiguousarray(pts.T, dtype=np.float64)
        const = _float_const
        out = np.empty((pts.shape[0], table.n_out))
        power, calls = _ipow, _FLOAT_CALLS
    regs = [None] * len(table)
    operands, starts, last_read = table.operands, table.starts, table.last_read
    with np.errstate(all="ignore"):
        for i, (op, a) in enumerate(zip(table.ops, table.args)):
            xs = operands[starts[i]:starts[i + 1]]
            if op == OP_CONST:
                v = const(a)
            elif op == OP_VAR:
                v = cols[a]
            elif op == OP_ADD or op == OP_MUL:
                first, fold = _FOLDS[op]
                # a fresh accumulator, so the in-place folds never touch
                # a column, constant or register still in use
                v = first(regs[xs[0]], regs[xs[1]])
                for r in xs[2:]:
                    v = fold(v, regs[r])
            elif op == OP_POW:
                v = power(regs[xs[0]], a)
            elif op == OP_NEG:
                v = -regs[xs[0]]
            else:   # SIN, COS, EXP
                v = calls[op](regs[xs[0]])
            regs[i] = v
            for r in xs:
                if last_read[r] == i:
                    regs[r] = None
    for k, r in enumerate(table.outputs):
        out[:, k] = regs[r]
    return out


def _exact_const(c):
    return c


def _float_const(c) -> np.float64:
    return np.float64(float(c))


def _exp(x):
    x = np.asarray(x)
    return np.fromiter(map(_exp1, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


def _exp1(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _not_rational(name: str):
    def call(x):
        raise ExactModeError("%s is not rational-closed" % name)
    return call


_FLOAT_CALLS = {OP_SIN: np.sin, OP_COS: np.cos, OP_EXP: _exp}
_EXACT_CALLS = {op: _not_rational(name) for name, op in _CALL_OPS.items()}


def _ipow(base, e: int):
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


def _exact_pow(base, e: int):
    try:
        return base ** e
    except ZeroDivisionError:
        raise EvalDomainError("zero base with negative exponent") from None
