"""Parser, differentiation, and evaluation of coordinate expressions."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from protract.expr import (
    Add,
    Const,
    EvalDomainError,
    ExactModeError,
    ExprError,
    ExprSyntaxError,
    Mul,
    Pow,
    VariableRangeError,
    Var,
    add,
    const,
    diff,
    diff_all,
    evaluate,
    is_rational_closed,
    max_var_index,
    mul,
    parse,
    power,
    to_text,
    var,
)
from protract.expr import (ONE, ZERO, _INTERNED, _forget, _postorder_apply,
                           _print_node, _walk_unique)

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
        assert is_rational_closed(e)
        assert evaluate(e, (Fraction(2),), mode="rational") == 1

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ExactModeError):
            evaluate(parse("sin(x0)", 1), (Fraction(1), ), mode="rational")


class TestUtilities:
    def test_max_var_index(self):
        assert max_var_index(parse("x0 + x4^2", 5)) == 4
        assert max_var_index(parse("3/2", 1)) == -1

    def test_is_rational_closed(self):
        assert is_rational_closed(parse("x0^2/3 - x1", 2))
        assert not is_rational_closed(parse("sin(x0)", 1))

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
