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
O(1). The table is a plain dict from a node's key to a weak reference
to the node that also holds the key: a slotted weakref.ref subclass
that weakref.ref's C constructor builds, with the key set after it. One
shared callback reads the key and removes the entry when its node dies.
So a hit costs one C-level dict lookup, and a miss builds its reference
with no Python-level constructor. A key has one of two forms:

    (class, *fields)                      Add, Mul, Neg
    (class, fields, field types)          Const, Var, Pow, Call

The fields of Add, Mul and Neg are nodes (a tuple of them for Add and
Mul), and nodes compare and hash by identity, so equal fields are the
same children and need no types beside them. Const, Var, Pow and Call
hold payloads, and equal payloads of other types (1 and True,
Fraction(1, 2) and 0.5) compare and hash alike, so their types keep
their nodes apart. The lean key makes the key of a sum or product one
small tuple.

In the constant folds of add and mul, a lone Fraction constant is its
own fold: the interned node is reused, with no Fraction arithmetic. Every
walk that memoises by identity (evaluate, diff, to_text,
program.compile_table) therefore shares equal subtrees. The walks take a
family of roots and memoise across it. evaluate, to_text and
compile_table keep a memo for the length of one call. A derivative
depends only on its node and coordinate, so diff_all keeps it on the
node: each node holds its partial derivatives by coordinate for as long
as it lives, and a walk stops at every node already differentiated, by
this call or an earlier one. So a node is differentiated by a coordinate
once per process, and the results are the very objects a walk from
scratch would build. A node with sin, cos or exp in it keeps no
derivatives, because they can contain the node itself (see _Partials).
An interned node is shared by every expression that
contains it, so nodes are immutable: setting or deleting an attribute
raises (the derivative store is written through object.__setattr__,
like the fields).

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


# (class, *fields) for Add, Mul and Neg, (class, fields, field types)
# for the other nodes -> _Ref to the live node, holding its key; an entry
# leaves with its node, through the one shared callback _forget
_INTERNED = {}


class _Ref(weakref.ref):
    """A weak reference to an interned node that holds the node's key,
    for _forget. It defines no __new__ or __init__, so weakref.ref's C
    constructor builds it, and Expr.__new__ sets the key after."""

    __slots__ = ("key",)


def _forget(ref):
    # a node built after this ref's node died may hold the key already
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


_set_field = object.__setattr__   # past the immutable __setattr__


class Expr:
    """Base node. A subclass lists its fields in __slots__, in constructor
    order; children are Expr fields, or a tuple of Expr for Add and Mul.
    _partials holds the node's partial derivatives known so far, indexed
    by coordinate (see _Partials)."""

    __slots__ = ("__weakref__", "_partials")
    _node_fields = False    # True where every field is a node or nodes

    def __new__(cls, *fields):
        if cls._node_fields:
            # nodes compare by identity, so their fields are the key
            key = (cls, *fields)
        else:
            # equal payloads of other types (1 and True, Fraction(1, 2)
            # and 0.5) hash alike, so the types keep their nodes apart
            key = (cls, fields, tuple(map(type, fields)))
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            # only a miss can have the wrong arity: every key in the table
            # holds the fields of a node built here
            if len(fields) != len(cls.__slots__):
                raise TypeError("%s takes %d fields"
                                % (cls.__name__, len(cls.__slots__)))
            node = object.__new__(cls)
            if len(fields) == 1:
                _set_field(node, cls.__slots__[0], fields[0])
            else:
                for name, value in zip(cls.__slots__, fields):
                    _set_field(node, name, value)
            _set_field(node, "_partials", ())
            ref = _INTERNED[key] = _Ref(node, _forget)
            ref.key = key
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
        try:
            return self.value if rational else float(self.value)
        except OverflowError:
            raise EvalDomainError("constant overflow") from None

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
    _node_fields = True

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
    _node_fields = True

    def children(self):
        return self.factors

    def _value(self, vals, point, rational):
        total = vals[0]
        for v in vals[1:]:
            total = total * v
        return total

    def _deriv(self, derivs, coord):
        # a factor with derivative ZERO gives a ZERO term, which add drops.
        # The factors are folded (at most one constant, first, and no
        # product), so a derivative that is neither a constant nor a
        # product leaves them folded: its term is the node mul would
        # return, built directly
        fs = self.factors
        terms = []
        for i, d in enumerate(derivs):
            if d is ZERO:
                continue
            if isinstance(d, (Const, Mul)):
                terms.append(mul(*fs[:i], d, *fs[i + 1:]))
            else:
                terms.append(Mul(fs[:i] + (d,) + fs[i + 1:]))
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
    _node_fields = True

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
    """Sum with local folding: flatten, combine constants, drop zeros.

    One add(*terms) is the same interned node as the left fold
    ZERO + t1 + t2 + ..., because a nested Add is flattened and every
    constant is combined into one trailing term; so a formula builds each
    component with one call, not with a running sum.
    """
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
        c = consts[0].value
        for item in consts[1:]:
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
        c = consts[0].value
        for item in consts[1:]:
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


def _postorder_apply(roots: Sequence[Expr], fn, memo=None) -> list:
    """fn(node, child_results) over the union DAG of roots, one result
    per root, no recursion. memo maps a node to its result, which is
    never None and compares unequal to it: the walk stops at every node
    memo.get finds and stores each result it computes with memo[node] =
    result. The default is a fresh dict, so nothing outlives the call.
    A node's children are looked up once, and once more after its
    pending ones are computed, if it had any."""
    if memo is None:
        memo = {}
    get = memo.get
    work = list(roots)
    while work:
        node = work.pop()
        if type(node) is tuple:
            # a node whose pending children are done: everything pushed
            # above it has been popped, and popped only once computed
            node, children = node
            vals = [get(c) for c in children]
        elif get(node) is not None:
            continue
        else:
            children = node.children()
            vals = [get(c) for c in children]
            if None in vals:
                work.append((node, children))
                work.extend([c for c, v in zip(children, vals) if v is None])
                continue
        memo[node] = fn(node, vals)
    return [get(r) for r in roots]


class _Partials:
    """The derivatives by one coordinate that the nodes keep, as the memo
    of a diff walk. A node's _partials tuple holds its derivative by
    coordinate c at index c; None there, or a tuple too short to reach
    c, means not yet known. The tuple grows only as far as the highest
    coordinate asked for, and a node keeps it for as long as it lives.

    A node with sin, cos or exp in it keeps none: its _partials is None,
    and the walk holds its derivatives for the one call. d exp(u) =
    exp(u) * u' contains its node, and so can the derivative of a node
    over exp(u) (d(x0 * exp(x0)) = exp(x0) + x0 * exp(x0)). The intern
    table's keys hold their children, so such a cycle would outlive
    every expression that uses it. No rule for a rational node passes
    the node itself, and a rational derivative is rational."""

    __slots__ = ("coord", "unkept")

    def __init__(self, coord: int):
        self.coord = coord
        self.unkept = {}

    def get(self, node):
        known = node._partials
        if known is None:
            return self.unkept.get(node)
        return known[self.coord] if self.coord < len(known) else None

    def __setitem__(self, node, deriv):
        # the children are done first, so each has its store or its None
        unkept = isinstance(node, Call)
        if not unkept:
            for child in node.children():
                if child._partials is None:
                    unkept = True
                    break
        if unkept:
            _set_field(node, "_partials", None)
            self.unkept[node] = deriv
            return
        known, c = node._partials, self.coord
        if len(known) == c:
            known += (deriv,)
        elif len(known) < c:
            known += (None,) * (c - len(known)) + (deriv,)
        else:
            known = known[:c] + (deriv,) + known[c + 1:]
        _set_field(node, "_partials", known)


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
    `coord`. Every node keeps its derivatives for as long as it lives, so
    a node is differentiated by a coordinate once per process: the walk
    stops at each node an earlier call or an earlier member of the
    family has differentiated."""
    if coord < 0:
        raise ExprError("negative coordinate index")
    return _postorder_apply(exprs, lambda n, derivs: n._deriv(derivs, coord),
                            _Partials(coord))


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
