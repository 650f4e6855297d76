"""Expression DSL for scalar functions of chart coordinates.

An Expr is an immutable AST over: rational constants, coordinate
variables x0..x(n-1), n-ary sums and products, integer powers, negation,
and sin/cos/exp. Construction goes through the small-constructor
functions below, which apply local constant folding only (zero sums,
one products, power 0) and never any deeper rewriting; correctness is
checked by evaluation, not by normal forms.

Nodes are interned (hash-consed): constructing a node equal in kind,
payload and children to a live one returns that node, so structurally
equal expressions are the same object, == is identity and hashing is
O(1). The table is a plain dict from (class, fields, field types) to a
weakref.KeyedRef of the node, and one shared callback removes the entry
when its node dies, so a hit costs one C-level dict lookup. In the
constant folds of add and mul, a lone Fraction constant is its own
fold: the interned node is reused, with no Fraction arithmetic. Every
walk that memoises by identity (evaluate, diff, to_text,
program.compile_table) therefore shares equal subtrees. The walks take a
family of roots and memoise across it: diff_all differentiates every
component of a tensor in one walk, so a subtree the components share is
differentiated once, and since a derivative depends only on its node the
results are the very objects one diff per component would build. No memo
outlives its call. An interned node is shared by every expression that
contains it, so nodes are immutable: setting or deleting an attribute
raises.

Two arithmetic modes exist and are never mixed inside one computation:
rational mode evaluates with fractions.Fraction exactly and refuses
transcendental nodes, float mode uses 64-bit floats. Grammar accepted
by parse():

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' ['-'] integer)?
    atom   := number | 'x'index | func '(' expr ')' | '(' expr ')' | '-' atom
    number := integer | integer '/' integer | decimal
    func   := 'sin' | 'cos' | 'exp'

Whitespace is insignificant. Division builds product(a, power(b, -1)),
so "1/4" folds to the exact rational 1/4; decimals are exact Fractions.
Note the grammar binds a leading minus inside the atom, so "-x0^2"
parses as (-x0)^2.
"""

from __future__ import annotations

import math
import re
import weakref
from fractions import Fraction
from typing import Iterable, Sequence, Union

Number = Union[int, float, Fraction]

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Neg", "Call",
    "const", "var", "add", "mul", "power", "neg", "sub", "divide",
    "sin", "cos", "exp",
    "parse", "diff", "diff_all", "evaluate", "to_text",
    "max_var_index", "is_rational_closed",
    "ExprError", "ExprSyntaxError", "VariableRangeError",
    "EvalDomainError", "ExactModeError",
]


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    """Malformed input text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class VariableRangeError(ExprSyntaxError):
    """Coordinate index at or beyond the chart dimension."""


class EvalDomainError(ExprError):
    """Evaluation left the function's domain (zero base, negative power)."""


class ExactModeError(ExprError):
    """Exact rational evaluation requested through sin/cos/exp."""


# (class, fields, field types) -> weakref.KeyedRef to the live node; an
# entry leaves with its node, through the one shared callback _forget
_INTERNED = {}


def _forget(ref):
    # a node built after this ref's node died may hold the key already
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


class Expr:
    """Base node. A subclass lists its fields in __slots__, in constructor
    order; children are Expr fields, or a tuple of Expr for Add and Mul."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError("%s takes %d fields" % (cls.__name__, len(cls.__slots__)))
        # equal payloads of other types (1 and True, Fraction(1, 2) and
        # 0.5) hash alike, so the types keep their nodes apart
        key = (cls, fields, tuple(map(type, fields)))
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            _INTERNED[key] = weakref.KeyedRef(node, _forget, key)
        return node

    def __setattr__(self, name, value):
        raise AttributeError("expression nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("expression nodes are immutable")

    def children(self) -> tuple:
        return ()

    # subclasses: _value(child_values, point, rational) -> number
    # subclasses: _deriv(child_derivs, coord) -> Expr

    def __repr__(self):
        return "<Expr %s>" % to_text(self)

    def __add__(self, other):
        return add(self, as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, as_expr(other))

    def __rtruediv__(self, other):
        return divide(as_expr(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)


class Const(Expr):
    __slots__ = ("value",)

    def _value(self, vals, point, rational):
        return self.value if rational else float(self.value)

    def _deriv(self, derivs, coord):
        return ZERO


class Var(Expr):
    __slots__ = ("index",)

    def _value(self, vals, point, rational):
        x = point[self.index]
        return Fraction(x) if rational else float(x)

    def _deriv(self, derivs, coord):
        return ONE if coord == self.index else ZERO


class Add(Expr):
    __slots__ = ("terms",)

    def children(self):
        return self.terms

    def _value(self, vals, point, rational):
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        return total

    def _deriv(self, derivs, coord):
        return add(*derivs)


class Mul(Expr):
    __slots__ = ("factors",)

    def children(self):
        return self.factors

    def _value(self, vals, point, rational):
        total = vals[0]
        for v in vals[1:]:
            total = total * v
        return total

    def _deriv(self, derivs, coord):
        # a factor with derivative ZERO gives a ZERO term, which add drops
        fs = self.factors
        terms = []
        for i, d in enumerate(derivs):
            if d is not ZERO:
                terms.append(mul(*fs[:i], d, *fs[i + 1:]))
        return add(*terms)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def children(self):
        return (self.base,)

    def _value(self, vals, point, rational):
        b = vals[0]
        e = self.exponent
        if e < 0 and b == 0:
            raise EvalDomainError("zero base with negative exponent")
        try:
            return b ** e
        except OverflowError:
            raise EvalDomainError("power overflow") from None

    def _deriv(self, derivs, coord):
        return mul(const(self.exponent), power(self.base, self.exponent - 1), derivs[0])


class Neg(Expr):
    __slots__ = ("arg",)

    def children(self):
        return (self.arg,)

    def _value(self, vals, point, rational):
        return -vals[0]

    def _deriv(self, derivs, coord):
        return neg(derivs[0])


_FLOAT_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


class Call(Expr):
    __slots__ = ("name", "arg")

    def children(self):
        return (self.arg,)

    def _value(self, vals, point, rational):
        if rational:
            raise ExactModeError("%s is not rational-closed" % self.name)
        try:
            return _FLOAT_FUNCS[self.name](vals[0])
        except OverflowError:
            raise EvalDomainError("%s overflow" % self.name) from None

    def _deriv(self, derivs, coord):
        if self.name == "sin":
            return mul(Call("cos", self.arg), derivs[0])
        if self.name == "cos":
            return neg(mul(Call("sin", self.arg), derivs[0]))
        return mul(self, derivs[0])


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    raise TypeError("cannot treat %r as an expression" % (x,))


def const(value: Number) -> Expr:
    """Rational constant. Floats are converted exactly (binary expansion)."""
    # a Fraction (as add and mul fold them) needs no copy: the node is the
    # same interned object either way
    return Const(value if type(value) is Fraction else Fraction(value))


def var(index: int) -> Expr:
    if index < 0:
        raise ExprError("negative coordinate index")
    return Var(index)


def add(*terms: Expr) -> Expr:
    """Sum with local folding: flatten, combine constants, drop zeros."""
    flat = []
    consts = []
    for t in terms:
        if isinstance(t, Add):
            items: Iterable[Expr] = t.terms
        else:
            items = (t,)
        for item in items:
            if isinstance(item, Const):
                consts.append(item)
            else:
                flat.append(item)
    if len(consts) == 1 and type(consts[0].value) is Fraction:
        # a lone interned Fraction constant is its own fold
        if consts[0] is not ZERO:
            flat.append(consts[0])
    elif consts:
        c = 0
        for item in consts:
            c += item.value
        if c != 0:
            flat.append(const(c))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Expr) -> Expr:
    """Product with local folding: flatten, combine constants, short-circuit zero."""
    flat = []
    consts = []
    for f in factors:
        if isinstance(f, Mul):
            items: Iterable[Expr] = f.factors
        else:
            items = (f,)
        for item in items:
            if isinstance(item, Const):
                consts.append(item)
            else:
                flat.append(item)
    if len(consts) == 1 and type(consts[0].value) is Fraction:
        # a lone interned Fraction constant is its own fold
        k = consts[0]
        if k is ZERO or not flat:
            return k
        if k is not ONE:
            flat.insert(0, k)
    elif consts:
        c = 1
        for item in consts:
            c *= item.value
            if c == 0:
                return ZERO
        if not flat:
            return const(c)
        if c != 1:
            flat.insert(0, const(c))
    elif not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def power(base: Expr, exponent: int) -> Expr:
    """Integer power; exponent 0 folds to 1, nested powers multiply out."""
    if not isinstance(exponent, int):
        raise ExprError("exponent must be an integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise EvalDomainError("zero base with negative exponent")
        return const(base.value ** exponent)
    if isinstance(base, Pow):
        return power(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def divide(a: Expr, b: Expr) -> Expr:
    return mul(a, power(b, -1))


def sin(e: Expr) -> Expr:
    return Call("sin", e)


def cos(e: Expr) -> Expr:
    return Call("cos", e)


def exp(e: Expr) -> Expr:
    return Call("exp", e)


def _walk_unique(roots: Sequence[Expr]):
    """Yield each node of the DAG under roots exactly once (by identity)."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        nid = id(node)
        if nid in seen:
            continue
        seen.add(nid)
        yield node
        stack.extend(node.children())


def _postorder_apply(roots: Sequence[Expr], fn) -> list:
    """fn(node, child_results) over the union DAG of roots, one result
    per root; memoized by identity across the roots, no recursion."""
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


def max_var_index(e: Expr) -> int:
    """Largest coordinate index used, or -1 for a constant expression."""
    top = -1
    for node in _walk_unique([e]):
        if isinstance(node, Var) and node.index > top:
            top = node.index
    return top


def is_rational_closed(e: Expr) -> bool:
    """True when the expression contains no sin/cos/exp node."""
    return all(not isinstance(node, Call) for node in _walk_unique([e]))


def evaluate(e: Expr, point: Sequence[Number], mode: str | None = None):
    """Evaluate at a point.

    mode None infers from the point: all int/Fraction entries select
    exact rational evaluation, any float selects float evaluation.
    Rational mode through sin/cos/exp raises ExactModeError; zero base
    to a negative power raises EvalDomainError in either mode.
    """
    if mode is None:
        rational = all(isinstance(x, (int, Fraction)) for x in point)
    elif mode == "rational":
        rational = True
        for x in point:
            if not isinstance(x, (int, Fraction)):
                raise ExactModeError("rational mode needs exact coordinates")
    elif mode == "float":
        rational = False
    else:
        raise ExprError("unknown mode %r" % mode)
    return _postorder_apply(
        [e], lambda n, vals: n._value(vals, point, rational))[0]


def diff_all(exprs: Sequence[Expr], coord: int) -> list:
    """Exact partial derivatives of a family with respect to coordinate
    `coord`, in one walk: a subtree the family shares is differentiated
    once."""
    if coord < 0:
        raise ExprError("negative coordinate index")
    return _postorder_apply(exprs, lambda n, derivs: n._deriv(derivs, coord))


def diff(e: Expr, coord: int) -> Expr:
    """Exact partial derivative with respect to coordinate `coord`."""
    return diff_all([e], coord)[0]


def gradient(e: Expr, dimension: int) -> list:
    return [diff(e, a) for a in range(dimension)]


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")
_VAR_RE = re.compile(r"^x(\d+)$")
_FUNCS = ("sin", "cos", "exp")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, offset)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                # skip whitespace-only tail
                if text[pos:].strip() == "":
                    break
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ExprSyntaxError("unexpected character %r" % text[bad], bad)
            num, ident, op = m.groups()
            off = m.end() - len(m.group().lstrip())
            if num is not None:
                self.items.append(("num", num, off))
            elif ident is not None:
                self.items.append(("ident", ident, off))
            else:
                self.items.append(("op", op, off))
            pos = m.end()
        self.items.append(("end", "", len(text)))
        self.at = 0

    def peek(self):
        return self.items[self.at]

    def next(self):
        tok = self.items[self.at]
        self.at += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, off = self.next()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError("expected %r" % symbol, off)


def parse(text: str, dimension: int) -> Expr:
    """Parse the grammar above; coordinate indices must be < dimension."""
    toks = _Tokens(text)
    e = _parse_expr(toks, dimension)
    kind, value, off = toks.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input %r" % value, off)
    return e


def _parse_expr(toks: _Tokens, dim: int) -> Expr:
    e = _parse_term(toks, dim)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            rhs = _parse_term(toks, dim)
            e = add(e, rhs) if value == "+" else sub(e, rhs)
        else:
            return e


def _parse_term(toks: _Tokens, dim: int) -> Expr:
    e = _parse_factor(toks, dim)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "*/":
            toks.next()
            rhs = _parse_factor(toks, dim)
            e = mul(e, rhs) if value == "*" else divide(e, rhs)
        else:
            return e


def _parse_factor(toks: _Tokens, dim: int) -> Expr:
    e = _parse_atom(toks, dim)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        sign = 1
        kind, value, off = toks.peek()
        if kind == "op" and value == "-":
            toks.next()
            sign = -1
        kind, value, off = toks.next()
        if kind != "num" or "." in value:
            raise ExprSyntaxError("exponent must be an integer", off)
        e = power(e, sign * int(value))
    return e


def _parse_atom(toks: _Tokens, dim: int) -> Expr:
    kind, value, off = toks.next()
    if kind == "num":
        return const(Fraction(value))
    if kind == "ident":
        m = _VAR_RE.match(value)
        if m:
            index = int(m.group(1))
            if index >= dim:
                raise VariableRangeError(
                    "coordinate x%d out of range for dimension %d" % (index, dim), off)
            return var(index)
        if value in _FUNCS:
            toks.expect_op("(")
            inner = _parse_expr(toks, dim)
            toks.expect_op(")")
            return Call(value, inner)
        raise ExprSyntaxError("unknown name %r" % value, off)
    if kind == "op" and value == "(":
        inner = _parse_expr(toks, dim)
        toks.expect_op(")")
        return inner
    if kind == "op" and value == "-":
        return neg(_parse_atom(toks, dim))
    raise ExprSyntaxError("expected a value", off)


# ---------------------------------------------------------------------------
# printing

_ATOMIC = (Const, Var, Call)


def to_text(e: Expr) -> str:
    """Render to the grammar; parse(to_text(e)) is evaluation-equivalent."""
    return _postorder_apply([e], _print_node)[0]


def _print_node(node: Expr, ch: list) -> str:
    if isinstance(node, Const):
        v = node.value
        if v.denominator == 1:
            return str(v.numerator) if v >= 0 else "(-%d)" % -v.numerator
        if v >= 0:
            return "%d/%d" % (v.numerator, v.denominator)
        return "(-%d/%d)" % (-v.numerator, v.denominator)
    if isinstance(node, Var):
        return "x%d" % node.index
    if isinstance(node, Call):
        return "%s(%s)" % (node.name, ch[0])
    if isinstance(node, Neg):
        inner = ch[0] if isinstance(node.arg, _ATOMIC) else "(%s)" % ch[0]
        return "-%s" % inner
    if isinstance(node, Pow):
        base = node.base
        btxt = ch[0] if isinstance(base, (Var, Call)) else "(%s)" % ch[0]
        return "%s^%d" % (btxt, node.exponent)
    if isinstance(node, Mul):
        parts = []
        for child, text in zip(node.factors, ch):
            parts.append("(%s)" % text if isinstance(child, (Add, Neg)) else text)
        return " * ".join(parts)
    if isinstance(node, Add):
        out = []
        for child, text in zip(node.terms, ch):
            if out and isinstance(child, Neg):
                out.append(" - ")
                out.append(text[1:] if not text.startswith("-(") else "(%s)" % text[2:-1])
            elif out and isinstance(child, Const) and child.value < 0:
                out.append(" - ")
                out.append(text.strip("()").lstrip("-"))
            else:
                if out:
                    out.append(" + ")
                out.append(text)
        return "".join(out)
    raise TypeError("unknown node %r" % node)
