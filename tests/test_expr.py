"""Parser, differentiation, and evaluation of coordinate expressions."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from protract.expr import (
    Add,
    Call,
    Const,
    EvalDomainError,
    ExactModeError,
    ExprError,
    ExprSyntaxError,
    Mul,
    Neg,
    Pow,
    VariableRangeError,
    Var,
    add,
    const,
    diff,
    diff_all,
    evaluate,
    mul,
    parse,
    power,
    to_text,
    var,
)
from protract.expr import (ONE, ZERO, _INTERNED, _forget, _postorder_apply,
                           _print_node, _walk_unique, neg)

from gen import rng_for


class TestParse:
    def test_square_plus_one(self):
        e = parse("x0^2 + 1", 2)
        assert isinstance(e, Add)
        assert evaluate(e, (Fraction(2), Fraction(0))) == 5

    def test_rational_coefficient_with_call(self):
        e = parse("1/4 * sin(x1)", 2)
        assert isinstance(e, Mul)
        v = evaluate(e, (0.0, 0.5))
        assert v == pytest.approx(0.25 * __import__("math").sin(0.5))

    def test_variable_out_of_range(self):
        with pytest.raises(VariableRangeError) as exc:
            parse("x3", 2)
        assert "offset" in str(exc.value)

    def test_out_of_range_offset_points_at_token(self):
        with pytest.raises(VariableRangeError) as exc:
            parse("x0 + x7", 3)
        assert "offset 5" in str(exc.value)

    def test_dangling_operator(self):
        with pytest.raises(ExprSyntaxError):
            parse("x0 +", 2)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x0 + 1", 2)

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("tan(x0)", 1)

    def test_exponent_must_be_integer_literal(self):
        with pytest.raises(ExprSyntaxError):
            parse("x0^x1", 2)
        with pytest.raises(ExprSyntaxError):
            parse("x0^(2)", 1)

    def test_subtraction_left_associative(self):
        assert evaluate(parse("2 - 3 - 4", 1), (Fraction(0),)) == -5

    def test_division_left_associative(self):
        assert evaluate(parse("2/3/4", 1), (Fraction(0),)) == Fraction(1, 6)

    def test_product_binds_tighter_than_sum(self):
        p = (Fraction(5),)
        assert evaluate(parse("2*x0 + 1", 1), p) == 11
        assert evaluate(parse("2*(x0 + 1)", 1), p) == 12

    def test_unary_minus_is_an_atom(self):
        # '-' atom sits inside factor, so the exponent applies to the
        # negated atom: -x0^2 reads as (-x0)^2.
        assert evaluate(parse("-x0^2", 1), (Fraction(3),)) == 9

    def test_decimal_number_is_exact(self):
        assert evaluate(parse("0.5*x0", 1), (Fraction(2),)) == 1
        assert evaluate(parse("0.25", 1), (Fraction(0),)) == Fraction(1, 4)

    def test_whitespace_insignificant(self):
        a = parse("x0 ^ 2   +   sin( x1 )", 2)
        b = parse("x0^2+sin(x1)", 2)
        assert evaluate(a, (0.3, 0.7)) == pytest.approx(evaluate(b, (0.3, 0.7)))


class TestDiff:
    def test_power_rule(self):
        d = diff(parse("x0^3", 1), 0)
        assert evaluate(d, (Fraction(2),)) == 12
        assert to_text(d) == "3 * x0^2"

    def test_chain_rule(self):
        d = diff(parse("sin(x0^2)", 1), 0)
        import math

        x = 0.7
        assert evaluate(d, (x,)) == pytest.approx(2 * x * math.cos(x * x))

    def test_constant_derivative_is_zero(self):
        d = diff(parse("7/3", 1), 0)
        assert isinstance(d, Const)
        assert d.value == 0

    def test_other_variable_derivative_is_zero(self):
        d = diff(parse("x0^2", 3), 1)
        assert evaluate(d, (Fraction(5), Fraction(1), Fraction(2))) == 0

    def test_product_rule(self):
        d = diff(parse("x0 * x1", 2), 0)
        assert evaluate(d, (Fraction(3), Fraction(11))) == 11

    def test_negative_exponent(self):
        d = diff(parse("x0^-1", 1), 0)
        assert evaluate(d, (Fraction(2),)) == Fraction(-1, 4)

    def test_exp_and_cos(self):
        import math

        assert evaluate(diff(parse("exp(x0)", 1), 0), (0.3,)) == pytest.approx(math.exp(0.3))
        assert evaluate(diff(parse("cos(x0)", 1), 0), (0.3,)) == pytest.approx(-math.sin(0.3))

    def test_linearity_on_random_rational_expressions(self):
        rng = rng_for("diff-linear")
        for _ in range(20):
            f = _random_rational_expr(rng, 2, depth=3)
            g = _random_rational_expr(rng, 2, depth=3)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            combo = add(mul(const(a), f), mul(const(b), g))
            d_combo = diff(combo, 0)
            d_parts = add(mul(const(a), diff(f, 0)), mul(const(b), diff(g, 0)))
            for _ in range(20):
                p = (Fraction(rng.randint(-20, 20), 41), Fraction(rng.randint(-20, 20), 41))
                assert evaluate(d_combo, p) == evaluate(d_parts, p)


class TestEvaluate:
    def test_rational_inputs_give_fraction(self):
        v = evaluate(parse("x0^2 + 1", 2), (Fraction(2), Fraction(0)))
        assert isinstance(v, Fraction) and v == 5

    def test_float_inputs_give_float(self):
        v = evaluate(parse("x0^2", 1), (1.5,))
        assert isinstance(v, float) and v == 2.25

    def test_zero_base_negative_exponent(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x0^-1", 1), (Fraction(0),))

    def test_constant_beyond_float_range(self):
        e = parse("10^400 + x0", 1)
        assert evaluate(e, (Fraction(1),)) == Fraction(10) ** 400 + 1
        with pytest.raises(EvalDomainError):
            evaluate(e, (1.0,))

    def test_sin_rejected_in_rational_mode(self):
        with pytest.raises(ExactModeError):
            evaluate(parse("sin(x0)", 1), (Fraction(1),), mode="rational")

    def test_calls_fine_in_float_mode(self):
        import math

        v = evaluate(parse("exp(x0)*cos(x1)", 2), (0.0, 0.0))
        assert v == pytest.approx(1.0)
        assert math.isfinite(v)

    def test_exact_decimal_is_rational_closed(self):
        e = parse("0.5*x0", 1)
        assert not any(isinstance(n, Call) for n in _walk_unique([e]))
        assert evaluate(e, (Fraction(2),), mode="rational") == 1

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ExactModeError):
            evaluate(parse("sin(x0)", 1), (Fraction(1), ), mode="rational")


class TestUtilities:
    def test_constructor_normalisation(self):
        assert isinstance(add(const(0), var(0)), Var)
        assert isinstance(mul(const(1), var(0)), Var)
        assert isinstance(mul(const(0), var(0)), Const)
        assert isinstance(power(var(0), 1), Var)
        p = power(const(Fraction(2)), 3)
        assert isinstance(p, Const) and p.value == 8


def _random_rational_expr(rng, dim, depth):
    """Rational-closed expression tree with small coefficients."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return const(Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
        return var(rng.randrange(dim))
    kind = rng.choice(("add", "mul", "pow", "neg"))
    if kind == "add":
        return add(_random_rational_expr(rng, dim, depth - 1),
                   _random_rational_expr(rng, dim, depth - 1))
    if kind == "mul":
        return mul(_random_rational_expr(rng, dim, depth - 1),
                   _random_rational_expr(rng, dim, depth - 1))
    if kind == "pow":
        return power(_random_rational_expr(rng, dim, depth - 1), rng.randint(0, 3))
    return mul(const(Fraction(-1)), _random_rational_expr(rng, dim, depth - 1))


def _random_smooth_expr(rng, dim, depth):
    """Expression that may also use sin/cos/exp, kept small near the origin."""
    from protract.expr import sin as sin_, cos as cos_, exp as exp_

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return const(Fraction(rng.randint(-4, 4), rng.randint(2, 8)))
        return var(rng.randrange(dim))
    kind = rng.choice(("add", "mul", "pow", "sin", "cos", "exp"))
    child = _random_smooth_expr(rng, dim, depth - 1)
    if kind == "add":
        return add(child, _random_smooth_expr(rng, dim, depth - 1))
    if kind == "mul":
        return mul(child, _random_smooth_expr(rng, dim, depth - 1))
    if kind == "pow":
        return power(child, rng.randint(0, 2))
    if kind == "sin":
        return sin_(child)
    if kind == "cos":
        return cos_(child)
    return exp_(mul(const(Fraction(1, 4)), child))


class TestDerivativeOracle:
    def test_central_difference_agreement_100_cases(self):
        from oracles import central_diff

        rng = rng_for("fd-agreement")
        checked = 0
        while checked < 100:
            dim = rng.randint(1, 3)
            e = _random_smooth_expr(rng, dim, depth=3)
            i = rng.randrange(dim)
            x = [rng.uniform(-0.5, 0.5) for _ in range(dim)]
            want = evaluate(diff(e, i), tuple(x))
            got = central_diff(lambda p: evaluate(e, tuple(p)), x, i, h=1e-5)
            assert abs(got - want) <= 1e-6 * (1 + abs(want))
            checked += 1

    def test_round_trip_evaluation_equivalent(self):
        rng = rng_for("round-trip")
        for _ in range(20):
            e = _random_rational_expr(rng, 2, depth=4)
            back = parse(to_text(e), 2)
            for _ in range(20):
                p = (Fraction(rng.randint(-30, 30), 31), Fraction(rng.randint(-30, 30), 31))
                assert evaluate(e, p) == evaluate(back, p)


def _sharing_families(name, count=60):
    """Families of random rational DAGs in which several members contain
    the same subtrees, and one member appears twice."""
    rng = rng_for(name)
    for _ in range(count):
        dim = rng.randint(1, 3)
        shared = [_random_rational_expr(rng, dim, 3) for _ in range(3)]
        family = [rng.choice((add, mul))(_random_rational_expr(rng, dim, 2),
                                         rng.choice(shared))
                  for _ in range(rng.randint(1, 6))]
        yield dim, family + shared + [family[0]]


class TestFamilyWalk:
    """One memoised walk over a family against one walk per member."""

    def test_diff_all_is_diff_per_member(self):
        for dim, family in _sharing_families("diff-all"):
            for a in range(dim + 1):
                got = diff_all(family, a)
                assert len(got) == len(family)
                for e, d in zip(family, got):
                    assert d is diff(e, a)

    def test_diff_all_empty_and_negative(self):
        assert diff_all([], 0) == []
        with pytest.raises(ExprError):
            diff_all([var(0)], -1)

    def test_several_roots_equal_single_roots(self):
        p = (Fraction(2, 3), Fraction(-1, 5), Fraction(3, 7))
        for dim, family in _sharing_families("postorder-roots"):
            calls = []

            def value(node, vals):
                calls.append(node)
                return node._value(vals, p, True)

            assert _postorder_apply(family, value) == [
                _postorder_apply([e], value)[0] for e in family]
            assert _postorder_apply(family, _print_node) == [
                to_text(e) for e in family]
            # the family walk visits each distinct node once
            calls.clear()
            _postorder_apply(family, value)
            assert len(calls) == len({id(n) for n in calls}) \
                == len(list(_walk_unique(family)))


class TestWalkOrder:
    """_postorder_apply against oracles.postorder_apply_reference, the
    walk that fetches and scans a node's children again on its revisit."""

    @staticmethod
    def _families():
        x = var(0)
        # repeated children and a root that is a child of another root
        yield [Add((x, x)), Mul((x, Add((x, x)), x)), x]
        yield from (family for _, family in _sharing_families("walk-order"))

    def test_same_calls_in_the_same_order(self):
        from oracles import postorder_apply_reference

        for family in self._families():
            logs = ([], [])

            def recorder(log):
                def fn(node, vals):
                    log.append((node, vals))
                    return len(log)
                return fn

            got = _postorder_apply(family, recorder(logs[0]))
            want = postorder_apply_reference(family, recorder(logs[1]))
            assert got == want
            assert len(logs[0]) == len(logs[1])
            for (n0, v0), (n1, v1) in zip(*logs):
                assert n0 is n1 and v0 == v1

    def test_outputs_under_the_reference_walk(self, monkeypatch):
        import protract.expr as expr_mod
        import protract.program as program_mod
        from oracles import postorder_apply_reference
        from protract.program import compile_table

        def snapshot(family):
            table = compile_table(family)
            return ([diff_all(family, a) for a in range(3)],
                    [to_text(e) for e in family],
                    [getattr(table, k) for k in type(table).__slots__])

        families = list(self._families())
        got = [snapshot(f) for f in families]
        with monkeypatch.context() as m:
            m.setattr(expr_mod, "_postorder_apply", postorder_apply_reference)
            m.setattr(program_mod, "_postorder_apply",
                      postorder_apply_reference)
            want = [snapshot(f) for f in families]
        for (d0, t0, c0), (d1, t1, c1) in zip(got, want):
            assert all(a is b for da, db in zip(d0, d1)
                       for a, b in zip(da, db))
            assert t0 == t1 and c0 == c1


# Hypothesis strategies mirror the seeded corpora above so shrinking can
# find minimal counterexamples if a rewrite breaks an identity.

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def _expr_strategy(dim):
    base = st.one_of(
        _fractions.map(const),
        st.integers(min_value=0, max_value=dim - 1).map(var),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: add(*t)),
            st.tuples(inner, inner).map(lambda t: mul(*t)),
            st.tuples(inner, st.integers(min_value=0, max_value=3)).map(lambda t: power(*t)),
        ),
        max_leaves=12,
    )


@settings(max_examples=60, deadline=None)
@given(e=_expr_strategy(2), data=st.data())
def test_property_round_trip(e, data):
    back = parse(to_text(e), 2)
    p = (
        data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=16)),
        data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=16)),
    )
    assert evaluate(e, p) == evaluate(back, p)


@settings(max_examples=60, deadline=None)
@given(e=_expr_strategy(2), data=st.data())
def test_property_sum_rule(e, data):
    g = data.draw(_expr_strategy(2))
    p = (Fraction(1, 3), Fraction(-2, 5))
    lhs = evaluate(diff(add(e, g), 0), p)
    rhs = evaluate(diff(e, 0), p) + evaluate(diff(g, 0), p)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(e=_expr_strategy(2))
def test_property_product_rule(e):
    g = power(add(var(0), const(Fraction(1, 7))), 2)
    p = (Fraction(2, 7), Fraction(1, 2))
    lhs = evaluate(diff(mul(e, g), 0), p)
    rhs = evaluate(diff(e, 0), p) * evaluate(g, p) + evaluate(e, p) * evaluate(diff(g, 0), p)
    assert lhs == rhs


class TestInterning:
    def test_equal_constructions_are_one_object(self):
        text = "x0^2*exp(x1/3) - 5/2*sin(x0 + x1)"
        assert parse(text, 2) is parse(text, 2)
        assert diff(parse(text, 2), 1) is diff(parse(text, 2), 1)
        assert const(Fraction(1, 2)) is Const(Fraction(1, 2))
        assert const(0.5) is const(Fraction(1, 2))

    def test_payload_type_is_part_of_the_key(self):
        assert Var(True) is not Var(1)
        assert type(Var(1).index) is int
        assert Const(0.5) is not Const(Fraction(1, 2))

    def test_node_fields_are_the_key_of_sums_products_negations(self):
        x, y = var(0), var(1)
        for cls, fields in ((Add, ((x, y),)), (Mul, ((x, y),)), (Neg, (x,))):
            node = cls(*fields)
            assert cls(*fields) is node
            assert _INTERNED[(cls, *fields)]() is node
        assert add(x, y) is Add((x, y)) and mul(x, y) is Mul((x, y))
        assert _INTERNED[(Var, (1,), (int,))]() is y
        # children of equal payloads but other types are other nodes, so
        # the nodes over them stay apart with no types in their key
        half, half_float = Const(Fraction(1, 2)), Const(0.5)
        assert Add((x, half)) is not Add((x, half_float))
        assert Mul((half, x)) is not Mul((half_float, x))
        assert Neg(Var(1)) is not Neg(Var(True))
        assert Neg(half) is not Neg(half_float)

    def test_identity_matches_structural_equality(self):
        from oracles import structural_key

        rng = rng_for("intern-structural")
        roots = []
        for _ in range(400):
            make = rng.choice((_random_rational_expr, _random_smooth_expr))
            roots.append(make(rng, rng.randint(1, 2), rng.randint(0, 3)))
        memo = {}
        node_of_key = {}
        for node in _walk_unique(roots):
            key = structural_key(node, memo)
            assert node_of_key.setdefault(key, node) is node
        # a is b exactly when the keys are equal, and the draws are small
        # enough that equal roots were built more than once
        root_keys = [structural_key(r, memo) for r in roots]
        assert len({id(r) for r in roots}) == len(set(root_keys)) < len(roots) // 2

    def test_dropped_expression_leaves_the_table(self):
        gc.collect()
        before = len(_INTERNED)
        e = parse(" + ".join("%d/7919*x0^%d" % (k, k) for k in range(2, 200)), 1)
        inner = weakref.ref(e.terms[0])
        assert len(_INTERNED) > before + 300
        del e
        gc.collect()
        assert inner() is None
        assert len(_INTERNED) <= before

    def test_late_callback_leaves_a_newer_entry(self):
        key = (Var, (7919,), (int,))
        old = Var(7919)
        stale = _INTERNED[key]
        del old
        gc.collect()
        assert stale() is None and key not in _INTERNED
        node = Var(7919)
        newer = _INTERNED[key]
        # the dead node's callback arrives after its key was taken again
        _forget(stale)
        assert _INTERNED[key] is newer
        assert Var(7919) is node

    def test_nodes_are_immutable(self):
        e = parse("x0*x1 + 1", 2)
        with pytest.raises(AttributeError):
            e.terms = (var(0),)
        with pytest.raises(AttributeError):
            del e.terms
        with pytest.raises(AttributeError):
            var(0).index = 1
        assert evaluate(e, (Fraction(2), Fraction(3))) == 7
        # every attribute, the derivative store too, once it holds some
        d = diff(e, 1)
        for node in (e, e.terms[0], var(0), e.terms[1], parse("exp(x0)^3", 1)):
            for name in (*type(node).__slots__, "_partials", "other"):
                with pytest.raises(AttributeError):
                    setattr(node, name, ZERO)
                with pytest.raises(AttributeError):
                    delattr(node, name)
        assert diff(e, 1) is d

    def test_wrong_arity_raises_also_beside_a_live_node(self):
        x = var(0)
        live = (Pow(x, 2), Call("sin", x), Add((x, ONE)))
        # the wrong-arity fields are a prefix of a live node's fields
        for cls, fields in ((Pow, (x,)), (Call, ("sin",)), (Add, ()),
                            (Pow, (x, 2, 3)), (Var, ())):
            with pytest.raises(TypeError, match="takes %d fields"
                               % len(cls.__slots__)):
                cls(*fields)
        assert live == (Pow(x, 2), Call("sin", x), Add((x, ONE)))


def _fold_arguments(rng):
    """A random argument list for add and mul: variables, Fraction
    constants, ZERO and ONE, Const(0.5) and Const(2) payloads, constant
    pairs whose sum is 0 or whose product is 1, and nested sums and
    products, some of them holding constants."""
    args = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(8)
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        if kind == 0:
            args.append(var(rng.randrange(3)))
        elif kind == 1:
            args.append(rng.choice((ZERO, ONE)))
        elif kind == 2:
            args.append(const(q))
        elif kind == 3:
            args.append(rng.choice((Const(0.5), Const(2))))
        elif kind == 4:
            args.extend((const(q), const(-q)))
        elif kind == 5:
            args.extend((const(q), const(1 / q)))
        elif kind == 6:
            args.append(rng.choice((add, mul))(*_fold_arguments(rng)))
        else:
            inner = (rng.choice((const(q), Const(0.5), Const(2))),
                     var(rng.randrange(3)))
            args.append(rng.choice((Add, Mul))(inner))
    rng.shuffle(args)
    return args


class TestConstantFolds:
    """add and mul against the folds that combine every constant by
    Fraction arithmetic (oracles.add_fold_reference and
    mul_fold_reference)."""

    def test_folds_are_the_reference_folds(self):
        from oracles import add_fold_reference, mul_fold_reference

        rng = rng_for("constant-folds")
        for _ in range(2500):
            args = _fold_arguments(rng)
            assert add(*args) is add_fold_reference(*args)
            assert mul(*args) is mul_fold_reference(*args)

    def test_lone_constant_needs_no_fraction_arithmetic(self, monkeypatch):
        x0, x1 = var(0), var(1)
        k = const(Fraction(3, 7))
        product, total = Mul((k, x0, x1)), Add((x0, k))

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in a lone-constant fold")

        with monkeypatch.context() as m:
            for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                         "__eq__", "__hash__"):
                m.setattr(Fraction, name, refuse)
            got = [mul(k, x0, x1), add(x0, k), mul(ZERO, x0), mul(ONE, x0),
                   add(ZERO, x0)]
        assert got[0] is product
        assert got[1] is total
        assert got[2] is ZERO
        assert got[3] is x0
        assert got[4] is x0

    def test_constant_fold_starts_from_the_first_constant(self, monkeypatch):
        from oracles import add_fold_reference, mul_fold_reference

        x0 = var(0)
        a, b = const(Fraction(3, 7)), const(Fraction(-5, 2))
        want = [add_fold_reference(x0, a, b), mul_fold_reference(a, x0, b)]

        def refuse(*args):
            raise AssertionError("a reflected int-Fraction operation")

        with monkeypatch.context() as m:
            for name in ("__radd__", "__rmul__"):
                m.setattr(Fraction, name, refuse)
            got = [add(x0, a, b), mul(a, x0, b)]
        assert got[0] is want[0]
        assert got[1] is want[1]


def _signed_terms(rng):
    """0-8 (term, plus) pairs: variables, ZERO and ONE, Fraction
    constants, constant pairs that cancel, nested Add, Mul, Neg and Pow
    terms, and sums that carry a constant."""
    length = rng.randint(0, 8)
    terms = []
    while len(terms) < length:
        kind = rng.randrange(8)
        plus = rng.random() < 0.5
        q = const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                           rng.randint(1, 5)))
        sub = _random_rational_expr(rng, 2, 2)
        if kind == 0:
            term = var(rng.randrange(2))
        elif kind == 1:
            term = rng.choice((ZERO, ONE))
        elif kind == 2:
            # a constant and a later term that cancels it
            terms.append((q, plus))
            term, plus = rng.choice(((q, not plus), (neg(q), plus)))
        elif kind == 3:
            term = add(sub, _random_rational_expr(rng, 2, 2))
        elif kind == 4:
            term = mul(var(0), sub)
        elif kind == 5:
            term = neg(add(var(1), sub))
        elif kind == 6:
            term = power(add(var(0), q), rng.randint(2, 3))
        else:
            term = add(var(rng.randrange(2)), q)
        terms.append((term, plus))
    return terms[:length]


class TestOneAddPerComponent:
    """The lemma the formula code rests on: one add(*terms), with a
    subtracted term written neg(t), is the node the running sum
    ZERO + t1 - t2 ... builds."""

    def test_one_add_is_the_left_fold(self):
        rng = rng_for("one-add")
        for _ in range(2500):
            terms = _signed_terms(rng)
            fold = ZERO
            for t, plus in terms:
                fold = fold + t if plus else fold - t
            assert add(*[t if plus else -t for t, plus in terms]) is fold


class TestDerivativeReference:
    """diff_all against oracles.diff_reference, which keeps a product's
    terms whose factor derivative is zero and folds with the reference
    folds."""

    @staticmethod
    def _assert_same(family, coord):
        from oracles import diff_reference

        got = diff_all(family, coord)
        want = diff_reference(family, coord)
        assert len(got) == len(want) == len(family)
        for g, w in zip(got, want):
            assert g is w
        return got

    def test_random_families(self):
        rng = rng_for("diff-reference")
        for _ in range(150):
            dim = rng.randint(1, 3)
            make = rng.choice((_random_rational_expr, _random_smooth_expr))
            family = [make(rng, dim, rng.randint(1, 4))
                      for _ in range(rng.randint(1, 5))]
            for a in range(dim + 1):
                first = self._assert_same(family, a)
                self._assert_same(first, rng.randrange(dim))

    def test_sphere3_metric_and_riemann(self, sphere3):
        for field in (sphere3.metric, sphere3.pack().riemann):
            for a in range(3):
                self._assert_same(list(field.components), a)


def _differentiated_family_over_exp():
    """Weak references to the nodes of a differentiated family whose
    derivatives contain their nodes: d exp(u) = exp(u) * u', and
    d(x1 * exp(u)) / dx1 = exp(u) + x1 * exp(u)."""
    u = parse("x0^2/7883 + x1", 2)
    family = [Call("exp", u), mul(var(1), Call("exp", u)),
              mul(Call("sin", u), var(1))]
    for a in (1, 0):
        diff_all(family, a)
    assert family[0] in diff(family[0], 0).factors
    assert family[1] in diff(family[1], 1).terms
    return [weakref.ref(n) for n in (*family, u, Call("sin", u))]


class TestDerivativeStore:
    """Each node without sin, cos or exp keeps its derivatives: diff_all
    differentiates it by a coordinate once per process, with the results
    of a walk from scratch (oracles.diff_reference)."""

    def test_shuffled_coordinates_highest_first(self):
        rng = rng_for("diff-store-order")
        for _ in range(150):
            dim = rng.randint(1, 4)
            make = rng.choice((_random_rational_expr, _random_smooth_expr))
            family = [make(rng, dim, rng.randint(1, 4))
                      for _ in range(rng.randint(1, 5))]
            coords = list(range(dim))
            rng.shuffle(coords)
            # a coordinate no member uses comes first, past every gap
            for a in [dim] + coords + coords[:2]:
                TestDerivativeReference._assert_same(family, a)

    def test_repeated_walk_differentiates_nothing(self, deriv_calls):
        rng = rng_for("diff-store-repeat")
        families = [[_random_rational_expr(rng, 3, 5) for _ in range(4)]
                    for _ in range(20)]
        first = [[diff_all(f, a) for a in (2, 0, 1)] for f in families]
        deriv_calls.clear()
        again = [[diff_all(f, a) for a in (2, 0, 1)] for f in families]
        assert deriv_calls == []
        assert all(x is y for fa, fb in zip(first, again)
                   for da, db in zip(fa, fb) for x, y in zip(da, db))
        # new nodes over differentiated ones cost one call each
        root = Neg(Add((var(2), *[f[0] for f in families])))
        diff(root, 1)
        assert deriv_calls == [(root.arg, 1), (root, 1)]

    def test_transcendental_nodes_keep_no_derivatives(self, deriv_calls):
        rng = rng_for("diff-store-smooth")
        families = [[_random_smooth_expr(rng, 2, 4) for _ in range(4)]
                    for _ in range(30)]
        for f in families:
            diff_all(f, 1)
        for f in families:
            deriv_calls.clear()
            TestDerivativeReference._assert_same(f, 1)
            # only nodes over sin, cos or exp are differentiated again,
            # each once in the walk
            again = [n for n, _ in deriv_calls]
            assert len({id(n) for n in again}) == len(again)
            over_calls = {id(n) for n in _walk_unique(f)
                          if any(isinstance(m, Call)
                                 for m in _walk_unique([n]))}
            assert {id(n) for n in again} == over_calls

    def test_dropped_family_over_exp_leaves_the_table(self):
        gc.collect()
        before = len(_INTERNED)
        refs = _differentiated_family_over_exp()
        gc.collect()
        assert all(r() is None for r in refs)
        assert len(_INTERNED) <= before
