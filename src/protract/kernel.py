"""Batched float evaluation of compiled tables.

eval_table runs a table's tape once over a whole batch of points: every
opcode acts on a column of N values at a time, so the per-op interpreter
cost is paid once per batch instead of once per point. Each row of the
result is bitwise the value a scalar IEEE evaluation of the same tape
gives at that point:

- ADD and MUL fold their operands left to right;
- POW is binary powering on the (inverted, for negative exponents)
  base, and 0**negative gives nan;
- SIN and COS give nan for a non-finite argument;
- EXP is math.exp per element, saturating to inf on overflow
  (numpy's exp differs from it in the last bit on some inputs).

Nothing raises on bad numerics: nonfinite values propagate and callers
inspect finiteness where they care.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .program import (OP_ADD, OP_CONST, OP_COS, OP_EXP, OP_LOAD, OP_MUL,
                      OP_NEG, OP_POW, OP_SIN, OP_STORE, OP_TAKE, OP_VAR,
                      CompiledTable)

__all__ = ["BACKEND", "eval_table"]

BACKEND = "numpy"   # names the evaluator in benchmark run records

_FOLDS = {OP_ADD: (operator.add, operator.iadd),
          OP_MUL: (operator.mul, operator.imul)}


def eval_table(table: CompiledTable, points) -> np.ndarray:
    """Evaluate every entry of a table at N points.

    points is an (N, dim) array-like of floats; the result is an
    (N, n_out) float64 array whose row i holds the entries at point i.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be an (N, dim) array")
    if table.max_var >= pts.shape[1]:
        raise ValueError("point has %d coordinates, table needs %d"
                         % (pts.shape[1], table.max_var + 1))
    cols = np.ascontiguousarray(pts.T)
    consts = [np.float64(c) for c in table.consts]
    out = np.empty((pts.shape[0], table.n_out))
    slots = [None] * table.n_slots
    st = []
    push, pop = st.append, st.pop
    with np.errstate(all="ignore"):
        for op, a in zip(table.ops, table.args):
            if op == OP_CONST:
                push(consts[a])
            elif op == OP_VAR:
                push(cols[a])
            elif op == OP_LOAD:
                push(slots[a])
            elif op == OP_TAKE:
                push(slots[a])
                slots[a] = None
            elif op == OP_STORE:
                slots[a] = st[-1]
            elif op == OP_ADD or op == OP_MUL:
                first, fold = _FOLDS[op]
                terms = st[-a:]
                del st[-a:]
                # a fresh accumulator, so the in-place folds never touch
                # a column, slot or constant still in use
                acc = first(terms[0], terms[1])
                for t in terms[2:]:
                    acc = fold(acc, t)
                push(acc)
            elif op == OP_POW:
                push(_ipow(pop(), a))
            elif op == OP_NEG:
                push(-pop())
            elif op == OP_SIN:
                push(np.sin(pop()))
            elif op == OP_COS:
                push(np.cos(pop()))
            elif op == OP_EXP:
                x = np.asarray(pop())
                push(np.fromiter(map(_exp, x.ravel().tolist()), np.float64,
                                 x.size).reshape(x.shape))
            else:  # OUT
                out[:, a] = pop()
    return out


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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
