"""Batched evaluation of compiled tables, exact or float.

eval_table runs a table's register tape with one walker for both
arithmetic modes (a shared table's float batches run a program lowered
from it instead, see below): every instruction reads its operand
registers and writes its own register, through the arithmetic the mode
passes in. A register is dropped at its last reader, so only the values
still to be read stay alive; the entries are copied out at the end. The
arithmetic follows the batch, by the rule expr.evaluate uses: when every
coordinate is an int or a Fraction the batch is exact, otherwise it is
float.

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

The walk pays Python overhead per instruction: it slices the operands,
loops over a fold, allocates a fresh array for every result and drops
registers. So a table that program.share_fold_prefixes made, which is
walked many times (transport's coefficient tables, once per RK4
batch), also carries a float program, lowered once from its tape when
the table is made, and eval_table runs that program for a float batch
instead. Each step is one numpy call that writes a row of N floats in
place: a sum or product of k operands is k - 1 binary steps into one
row, and a row is reused once its register is past its last reader.
Lowering costs about one walk, so it repays only a tape that is walked
again: every other table, and every exact batch, is walked. The
program's floats are bitwise the walk's, down to the NaN an operation
keeps of two: a register that reads no coordinate is the walk's own
float64 scalar, and every step runs the walk's numpy loop on the same
kinds of operand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

from .expr import EvalDomainError, ExactModeError
from .program import (OP_ADD, OP_MUL, OP_POW, OP_VAR, _CALL_OPS,
                      CompiledTable)

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
    if table.program is not None:
        with np.errstate(all="ignore"):
            return _run(table.program, cols)
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
# float programs: a shared table as in-place steps over rows of N floats

_RECIP, _COPY = 9, 10   # step codes past the tape's: 1/x (nan at 0), x


class _Program:
    """A table lowered to in-place steps over float rows, run by _run.

    Rows 0 to n_out - 1 are the columns of the (N, n_out) result, one per
    entry. Then come the coordinate columns 0 to n_coords - 1, the
    float64 scalars consts, and n_work rows of N floats that each
    register borrows when it is written and gives back after its last
    reader. Step (op, a, b, d) writes op of rows a and b into row d; a
    one-operand step reads row a only.
    """

    __slots__ = ("n_out", "n_coords", "consts", "n_work", "steps")

    def __init__(self, n_out, n_coords, consts, n_work, steps):
        self.n_out = n_out
        self.n_coords = n_coords
        self.consts = consts
        self.n_work = n_work
        self.steps = steps


def _lower(table: CompiledTable) -> _Program:
    """The program that gives every entry of the table bitwise as the
    float walk does.

    Bitwise down to the NaN that an operation keeps of two, which
    depends on the numpy loop it runs: so every operation runs the
    walk's loop, on the same kinds of operand. The walk holds a register
    that reads no coordinate as a float64 scalar; the lowering computes
    it once, by the walk's own steps, and so the scalars that a sum or
    product folds first. Every other register is a row, written in
    place where the walk writes in place: a sum or product folds into
    its row left to right, one binary step per operand. POW is the
    walk's binary powering: for a negative exponent a RECIP step first
    inverts the base, each product is a MUL step into a row of its own
    (the first factor, 1.0 times the base, is the base itself), and the
    last step writes the power's row, or a COPY does for x**1. Each entry
    is a COPY of its register into its column, which is exact; a step
    that wrote the strided column would run another numpy loop.
    """
    ops, args = table.ops, table.args
    operands, starts = table.operands, table.starts
    n, n_out, n_coords = len(ops), table.n_out, table.max_var + 1
    scalar = [None] * n
    row = [-1] * n
    last = [-1] * n      # the last instruction that reads each register
    # the scalars a sum or product that reads a coordinate folds first:
    # the row of their fold, and their count
    prefix = {}
    consts = []
    with np.errstate(all="ignore"):
        for i, op in enumerate(ops):
            xs = operands[starts[i]:starts[i + 1]]
            for r in xs:
                last[r] = i
            if op == OP_VAR:
                row[i] = n_out + args[i]
            elif all(scalar[r] is not None for r in xs):
                scalar[i] = _FLOAT[op](scalar, xs, args[i])
                row[i] = n_out + n_coords + len(consts)
                consts.append(scalar[i])
            elif op == OP_ADD or op == OP_MUL:
                j = 0
                while scalar[xs[j]] is not None:
                    j += 1
                if j > 1:
                    prefix[i] = (n_out + n_coords + len(consts), j)
                    consts.append(_FLOAT[op](scalar, xs[:j], 0))
    work = n_out + n_coords + len(consts)
    columns = {}
    for k, r in enumerate(table.outputs):
        columns.setdefault(r, []).append(k)
    free, steps = [], []
    n_rows = work

    def take():
        nonlocal n_rows
        if free:
            return free.pop()
        n_rows += 1
        return n_rows - 1

    for i in range(n):
        regs = operands[starts[i]:starts[i + 1]]
        if row[i] < 0:
            op = ops[i]
            xs = [row[r] for r in regs]
            # a row that no operand shares
            d = row[i] = take()
            if op == OP_ADD or op == OP_MUL:
                acc, j = prefix.get(i, (xs[0], 1))
                for x in xs[j:]:
                    steps.append((op, acc, x, d))
                    acc = d
            elif op == OP_POW:
                free.extend(_lower_pow(steps, take, xs[0], args[i], d))
            else:
                steps.append((op, xs[0], xs[0], d))
        steps.extend((_COPY, row[i], row[i], k) for k in columns.get(i, ()))
        for r in set(regs):
            if last[r] == i and row[r] >= work:
                free.append(row[r])
        if last[i] < 0 and row[i] >= work:   # an entry that no step reads
            free.append(row[i])
    return _Program(n_out, n_coords, consts, n_rows - work, steps)


def _lower_pow(steps, take, base: int, e: int, d: int) -> list:
    """Append the steps of row base to the power e (not 0) into row d;
    return the rows they borrowed."""
    temps = []

    def step(op, a, b):
        temps.append(take())
        steps.append((op, a, b, temps[-1]))
        return temps[-1]

    if e < 0:
        base, e = step(_RECIP, base, base), -e
    result = None
    while e:
        if e & 1:
            result = base if result is None else step(OP_MUL, result, base)
        e >>= 1
        if e:
            base = step(OP_MUL, base, base)
    if temps and steps[-1][3] == result:
        steps[-1] = steps[-1][:3] + (d,)   # the last product is the power
    else:
        steps.append((_COPY, result, result, d))
    return temps


def _run(prog: _Program, cols: np.ndarray) -> np.ndarray:
    """Run a program over the coordinate columns; the (N, n_out) entries.

    Every row is an array of N floats of its own: arrays that small come
    from the allocator's free lists, where one (rows, N) buffer would be
    mapped afresh, and fault in its pages, on every run."""
    n = cols.shape[1]
    out = np.empty((n, prog.n_out))
    rows = [*out.T, *cols[:prog.n_coords], *prog.consts]
    rows += [np.empty(n) for _ in range(prog.n_work)]
    for op, a, b, d in prog.steps:
        _STEPS[op](rows[a], rows[b], rows[d])
    return out


def _neg_into(x, _, out):
    np.negative(x, out)


def _sin_into(x, _, out):
    np.sin(x, out)


def _cos_into(x, _, out):
    np.cos(x, out)


def _exp_into(x, _, out):
    out[:] = _exp(x)


def _recip_into(x, _, out):
    np.divide(1.0, x, out)
    out[x == 0.0] = np.nan


def _copy_into(x, _, out):
    np.copyto(out, x)


# indexed by step code: the tape's ADD, MUL, NEG, SIN, COS and EXP,
# then RECIP and COPY
_STEPS = (None, None, np.add, np.multiply, None, _neg_into, _sin_into,
          _cos_into, _exp_into, _recip_into, _copy_into)


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
