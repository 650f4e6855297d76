"""Multi-index arrays: contractions, projectors."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from protract.cli import load_geometry_spec
from protract.expr import ONE, ZERO, const, evaluate, neg, parse, power, var
from protract.geometry import (_cotton_weyl_field, _first_bianchi_field,
                               _second_bianchi_field, partial_derivative,
                               verify_bianchi)
from protract.projective import (_invariance_fields, einstein_deviation,
                                 gradient_upsilon)
from protract.tensor import (
    PointTensor,
    TensorField,
    _perm_sign,
    antisymmetrize,
    contract,
    is_skew_pair,
    is_symmetric_pair,
    matrix_inverse_exprs,
    max_magnitude,
    max_residual,
    max_residuals,
    pair_field,
    skew_trace_coefficient,
    sym_trace_coefficient,
    symmetrize,
    trace_free_11,
    trace_free_skew,
    trace_free_sym,
    zero_field,
)

from protract.tractor import TractorSection, metrisability_obstruction

from gen import (float_points, invertible, poly_field, rational_points,
                 rng_for, section)
from oracles import (antisymmetrize_reference, fraction_gauss_inverse,
                     max_residual_reference, solve_projector_coefficient,
                     tf_11_reference, trace_free_21_reference)


def _vec(values):
    return PointTensor(len(values), 1, 0, [Fraction(v) for v in values])


def _covec(values):
    return PointTensor(len(values), 0, 1, [Fraction(v) for v in values])


def _rand_point_tensor(rng, dim, p, q, span=12):
    comps = [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(dim ** (p + q))]
    return PointTensor(dim, p, q, comps)


def _outer(s, t):
    """Every component of s times every one of t, row-major: the outer
    product when s has no lower slot or t no upper one."""
    return type(s)(s.dim, s.p + t.p, s.q + t.q,
                   [x * y for x in s.components for y in t.components])


class TestConstruction:
    def test_size_validated(self):
        with pytest.raises(ValueError):
            PointTensor(2, 1, 1, [1, 2, 3])
        with pytest.raises(ValueError):
            TensorField(3, 0, 2, [parse("x0", 3)] * 8)

    def test_rank_and_shape(self):
        t = PointTensor(3, 1, 2, [Fraction(0)] * 27)
        assert t.rank == 3 and t.dim == 3 and (t.p, t.q) == (1, 2)

    def test_field_at_point(self):
        f = TensorField(2, 0, 0, [parse("x0*x1", 2)])
        assert f.at([Fraction(2), Fraction(3)]).components[0] == 6

    def test_json_round_trip(self):
        # whole Fractions as ints, others as "p/q" text, floats as floats
        t = PointTensor(3, 1, 0, [Fraction(-2), Fraction(3, 4), 0.5])
        assert json.dumps(t.to_json()) == (
            '{"valence": [1, 0], "dim": 3, "components": [-2, "3/4", 0.5]}')


class TestContraction:
    def test_orthogonal_pairing(self):
        u = _vec([1, 0])
        v = _covec([0, 1])
        assert contract(_outer(u, v), 0, 0).components[0] == 0

    def test_dot_product_oracle_50_random(self):
        rng = rng_for("dot-oracle")
        for _ in range(50):
            n = rng.randint(2, 5)
            u = _rand_point_tensor(rng, n, 1, 0)
            v = _rand_point_tensor(rng, n, 0, 1)
            got = contract(_outer(u, v), 0, 0).components[0]
            want = sum(u.components[i] * v.components[i] for i in range(n))
            assert got == want

    def test_ricci_slot_convention(self):
        # Contracting a (1,3) curvature-shaped tensor over (upper, first
        # lower) sums the c = a diagonal.
        n = 2
        comps = [Fraction(k) for k in range(n ** 4)]
        r = PointTensor(n, 1, 3, comps)
        out = contract(r, 0, 0)
        # upper slot index c, lower slots (a, b, d); entry [b][d] = sum_c r[c][c][b][d]
        for b in range(n):
            for d in range(n):
                want = sum(comps[((c * n + c) * n + b) * n + d] for c in range(n))
                assert out.components[b * n + d] == want

    def test_bad_slot_pairs_rejected(self):
        t = _rand_point_tensor(rng_for("slots"), 2, 1, 1)
        with pytest.raises((IndexError, ValueError)):
            contract(t, 1, 0)
        with pytest.raises((IndexError, ValueError)):
            contract(t, 0, 1)


class TestSymmetrization:
    def test_antisymmetrize_square_vanishes(self):
        u = _vec([2, 5, -3])
        out = antisymmetrize(_outer(u, u), (0, 1))
        assert all(c == 0 for c in out.components)

    def test_sym_plus_skew_recovers(self):
        rng = rng_for("sym-skew")
        for _ in range(50):
            n = rng.randint(2, 4)
            t = _rand_point_tensor(rng, n, 0, 2)
            s = symmetrize(t, (0, 1))
            a = antisymmetrize(t, (0, 1))
            for i in range(n * n):
                assert s.components[i] + a.components[i] == t.components[i]
        # on Expr fields every entry of the skew part is the very node the
        # sequential loop builds, for two slots and for three
        for n in (2, 3):
            t = poly_field(rng, n, 0, 3)
            for slots in ((0, 1), (1, 2), (0, 2), (0, 1, 2)):
                got = antisymmetrize(t, slots).components
                want = antisymmetrize_reference(t, slots)
                assert len(got) == len(want)
                assert all(x is y for x, y in zip(got, want))

    def test_predicates(self):
        u = _vec([1, 4])
        sym = symmetrize(_outer(u, u), (0, 1))
        assert is_symmetric_pair(sym, 0, 1)
        skew = antisymmetrize(_outer(_vec([1, 0]), _vec([0, 1])), (0, 1))
        assert is_skew_pair(skew, 0, 1)
        assert not is_skew_pair(sym, 0, 1) or all(c == 0 for c in sym.components)


class TestPairField:
    @pytest.mark.parametrize("sign", [1, -1], ids=["symmetric", "skew"])
    @pytest.mark.parametrize("p,q,slots", [(1, 2, (1, 2)), (1, 3, (1, 2)),
                                           (0, 3, (0, 1)), (0, 3, (0, 2)),
                                           (2, 1, (0, 1))])
    def test_builds_once_per_orbit(self, p, q, slots, sign):
        n = 3
        calls = []

        def build(*multi):
            calls.append(multi)
            return var(0) * len(calls)   # a new node per call

        T = pair_field(n, p, q, slots, sign, build)
        assert (T.dim, T.p, T.q) == (n, p, q)
        i, j = slots
        multis = list(itertools.product(range(n), repeat=p + q))
        assert calls == [m for m in multis
                         if m[i] < m[j] or (m[i] == m[j] and sign > 0)]
        for m in multis:
            mirror = list(m)
            mirror[i], mirror[j] = m[j], m[i]
            if m[i] == m[j]:
                assert (T[m] is ZERO) == (sign < 0)
            elif m[i] < m[j]:
                assert T[mirror] is (T[m] if sign > 0 else neg(T[m]))
        assert (is_symmetric_pair if sign > 0 else is_skew_pair)(T, i, j)

    @pytest.mark.parametrize("n,p,q,slots", [(3, 1, 3, (1, 2, 3)),
                                             (3, 1, 4, (1, 2, 3)),
                                             (4, 0, 3, (0, 1, 2)),
                                             (4, 0, 4, (0, 2, 3)),
                                             (4, 0, 4, (0, 1, 2, 3))])
    def test_skew_in_more_slots_builds_once_per_increasing_tuple(
            self, n, p, q, slots):
        calls = []

        def build(*multi):
            calls.append(multi)
            return var(0) * len(calls)   # a new node per call

        T = pair_field(n, p, q, slots, -1, build)
        multis = list(itertools.product(range(n), repeat=p + q))
        assert calls == [m for m in multis
                         if all(m[s] < m[t] for s, t in zip(slots, slots[1:]))]
        for m in multis:
            vals = [m[s] for s in slots]
            if len(set(vals)) < len(vals):
                assert T[m] is ZERO
                continue
            # the sign of the permutation that sorts the values
            order = sorted(range(len(vals)), key=vals.__getitem__)
            rep = list(m)
            for s, k in zip(slots, order):
                rep[s] = vals[k]
            node = T[tuple(rep)]
            assert T[m] is (node if _perm_sign(order) > 0 else neg(node))
        for s, t in itertools.combinations(slots, 2):
            assert is_skew_pair(T, s, t)


class TestMetricActions:
    def test_matrix_inverse_exprs_on_constants_matches_oracle(self):
        rng = rng_for("frac-inv")
        for _ in range(20):
            n = rng.randint(2, 4)
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)]
            for i in range(n):
                rows[i][i] += 10
            # on constant entries the adjugate inverse folds to constants
            inv, _ = matrix_inverse_exprs([[const(x) for x in row]
                                           for row in rows])
            assert [[e.value for e in row] for row in inv] \
                == fraction_gauss_inverse(rows)

    def test_singular_matrix_rejected(self):
        rows = [[const(1), const(2)], [const(2), const(4)]]
        with pytest.raises(ValueError):
            matrix_inverse_exprs(rows)

    def test_matrix_inverse_exprs_field(self):
        # symbolic inverse of diag(1, 1 + x0^2) evaluates to the pointwise inverse
        rows = [[parse("1", 2), parse("0", 2)], [parse("0", 2), parse("1 + x0^2", 2)]]
        inv_rows, det = matrix_inverse_exprs(rows)
        pt = (Fraction(1, 2), Fraction(0))
        assert evaluate(det, pt) == Fraction(5, 4)
        vals = [[evaluate(e, pt) for e in r] for r in inv_rows]
        assert vals == [[1, 0], [0, Fraction(4, 5)]]


class TestTraceFreeProjectors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sym_coefficient_solves_trace_equation(self, n):
        rng = rng_for(f"sym-coef-{n}")
        u = [[[Fraction(rng.randint(-9, 9), 5) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
        # oracle reads u[b][c][a]; mirror the first two slots for symmetry
        for b in range(n):
            for c in range(b + 1, n):
                for a in range(n):
                    u[c][b][a] = u[b][c][a]
        k = solve_projector_coefficient(n, u)
        assert k == sym_trace_coefficient(n) == Fraction(1, n + 1)
        assert 1 - n * k - k == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_skew_coefficient(self, n):
        assert skew_trace_coefficient(n) == Fraction(1, n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sym_projector_traces_vanish_50_random(self, n):
        rng = rng_for(f"tf-sym-{n}")
        for _ in range(50):
            raw = _rand_point_tensor(rng, n, 2, 1)
            u = symmetrize(raw, (0, 1))  # upper pair symmetric, shape nabla_a t^{bc}
            out = trace_free_sym(u)
            for a in range(n):
                for c in range(n):
                    tr1 = sum(out.components[((d * n) + c) * n + d] for d in range(n))
                    tr2 = sum(out.components[((c * n) + d) * n + d] for d in range(n))
                    assert tr1 == 0 and tr2 == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_skew_projector_traces_vanish_50_random(self, n):
        rng = rng_for(f"tf-skew-{n}")
        for _ in range(50):
            raw = _rand_point_tensor(rng, n, 2, 1)
            u = antisymmetrize(raw, (0, 1))
            out = trace_free_skew(u)
            for c in range(n):
                tr1 = sum(out.components[((d * n) + c) * n + d] for d in range(n))
                tr2 = sum(out.components[((c * n) + d) * n + d] for d in range(n))
                assert tr1 == 0 and tr2 == 0

    def test_sym_projector_fixes_trace_free_input(self):
        # delta-free symmetric data passes through unchanged
        n = 3
        rng = rng_for("tf-fixed")
        raw = _rand_point_tensor(rng, n, 2, 1)
        u = symmetrize(raw, (0, 1))
        once = trace_free_sym(u)
        twice = trace_free_sym(once)
        assert once.components == twice.components

    def test_skew_projector_idempotent(self):
        n = 4
        raw = _rand_point_tensor(rng_for("tf-skew-fixed"), n, 2, 1)
        u = antisymmetrize(raw, (0, 1))
        once = trace_free_skew(u)
        twice = trace_free_skew(once)
        assert once.components == twice.components

    def test_skew_epsilon_n2(self):
        # In two dimensions every skew pair is a multiple of epsilon and the
        # projected trace data is removed entirely.
        n = 2
        eps = PointTensor(n, 2, 0, [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)])
        x = _covec([3, 5])
        # storage is upper slots first: component [b][c][a]
        comps = []
        for b in range(n):
            for c in range(n):
                for a in range(n):
                    comps.append(eps.components[b * n + c] * x.components[a])
        u = PointTensor(n, 2, 1, comps)
        out = trace_free_skew(u)
        for c in range(n):
            tr = sum(out.components[((d * n) + c) * n + d] for d in range(n))
            assert tr == 0


class TestTraceFreeReference:
    """The one trace-free projector, over any number of upper slots,
    against the (1,1) and (2,1) code it replaced."""

    @staticmethod
    def _cases(rng, n, field):
        """(projected, reference) pairs: a (1,1), a sym (2,1) and a skew
        (2,1) tensor, random Expr fields or float point tensors."""
        def rand(p):
            if field:
                return poly_field(rng, n, p, 1)
            return PointTensor(n, p, 1, [rng.uniform(-2, 2)
                                         for _ in range(n ** (p + 1))])

        m = rand(1)
        sym = symmetrize(rand(2), (0, 1))
        skew = antisymmetrize(rand(2), (0, 1))
        return [
            (trace_free_11(m), tf_11_reference(m)),
            (trace_free_sym(sym),
             trace_free_21_reference(sym, sym_trace_coefficient(n))),
            (trace_free_skew(skew),
             trace_free_21_reference(skew, skew_trace_coefficient(n))),
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fields_are_identical(self, n):
        rng = rng_for(f"tf-generic-field-{n}")
        for _ in range(4):
            for got, want in self._cases(rng, n, field=True):
                assert type(got) is type(want) is TensorField
                assert (got.p, got.q) == (want.p, want.q)
                assert all(a is b for a, b in
                           zip(got.components, want.components))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_float_point_tensors_are_equal(self, n):
        rng = rng_for(f"tf-generic-point-{n}")
        for _ in range(20):
            for got, want in self._cases(rng, n, field=False):
                assert type(got) is type(want) is PointTensor
                assert (got.p, got.q) == (want.p, want.q)
                assert got.components == want.components

    def test_valence_checked(self):
        with pytest.raises(ValueError, match="valence"):
            trace_free_11(PointTensor(2, 2, 1, [0.0] * 8))


class TestZeroField:
    def test_zero_field_evaluates_to_zero(self):
        z = zero_field(3, 1, 1)
        pt = z.at([Fraction(1), Fraction(2), Fraction(3)])
        assert all(c == 0 for c in pt.components)
        assert pt.max_abs() == 0


class TestMaxMagnitude:
    @pytest.mark.parametrize("values", [
        [1.0, math.nan], [math.nan, 1.0], [math.inf, math.nan],
        [math.nan, -math.inf], [Fraction(10 ** 400), math.nan]])
    def test_nan_wins(self, values):
        assert math.isnan(max_magnitude(values))
        assert math.isnan(PointTensor(2, 1, 0, values).max_abs())

    @pytest.mark.parametrize("values", [
        [1.0, math.inf], [-math.inf, 2.0], [Fraction(10 ** 400), -math.inf]])
    def test_inf_without_nan_gives_inf(self, values):
        assert max_magnitude(values) == math.inf
        assert PointTensor(2, 1, 0, values).max_abs() == math.inf

    def test_exact_values_stay_exact(self):
        got = max_magnitude([Fraction(1, 3), Fraction(-3, 7), 0])
        assert got == Fraction(3, 7) and isinstance(got, Fraction)
        huge = Fraction(10 ** 400, 3)
        assert max_magnitude([1, -huge]) == huge
        assert max_magnitude([-2, 1]) == 2

    def test_nothing_to_fold_gives_zero(self):
        f = TensorField(2, 0, 1, [parse("x0", 2), parse("x1", 2)])
        assert max_magnitude([]) == 0
        assert max_residual([f], []) == 0

    def test_residual_over_fields_sections_and_points(self):
        from protract.tractor import TractorSection
        f = TensorField(2, 0, 1, [parse("x0", 2), parse("x1", 2)])
        s = TractorSection(TensorField(2, 1, 0, [parse("x0*x1", 2),
                                                 parse("1", 2)]),
                           parse("-3*x1", 2), validate=False)
        pts = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2), Fraction(1)]]
        assert max_residual([f], pts) == 2
        got = max_residual([f, s], pts)
        assert got == 3 and isinstance(got, (int, Fraction))
        assert max_residual([s], [[0.5, math.nan]]) != max_residual(
            [s], [[0.5, math.nan]])

    def test_mixed_points_keep_their_own_arithmetic(self):
        from protract.tractor import TractorSection
        f = TensorField(2, 0, 1, [parse("x0^2 - 1/3", 2), parse("x1/x0", 2)])
        s = TractorSection(TensorField(2, 1, 0, [parse("x0*x1", 2),
                                                 parse("1", 2)]),
                           parse("-3*x1", 2), validate=False)
        exact = [[Fraction(1, 3), Fraction(-5, 7)], [2, Fraction(1, 9)]]
        floats = [[0.1, 0.7], [-0.3, 2.5]]
        for fields in ([f], [f, s]):
            mixed = [exact[0], floats[0], exact[1], floats[1]]
            assert max_residual(fields, mixed) == max(
                max_residual(fields, exact), max_residual(fields, floats))
        assert max_residual([f], exact) == Fraction(11, 3)
        assert isinstance(max_residual([f], exact), Fraction)
        got = max_residual([f, s], floats)
        assert isinstance(got, float) and got == pytest.approx(25 / 3)


def _assert_same_residual(got, want):
    """Equal Fractions (or ints) from rational points, bitwise-equal
    floats otherwise."""
    assert type(got) is type(want)
    if isinstance(got, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


class TestMaxResiduals:
    """One table for the families of a check gives every family the value
    of the old path, which compiled a table per family."""

    def test_random_families_match_a_table_per_family(self):
        rng = rng_for("max-residuals")
        for _ in range(12):
            n = rng.choice((2, 3))
            base = [poly_field(rng, n, rng.randint(0, 1), rng.randint(0, 2))
                    for _ in range(4)]
            recip = power(ONE + var(0) * var(0), -1)
            families = [[]]
            for _ in range(rng.randint(2, 4)):
                family = []
                for _ in range(rng.randint(1, 3)):
                    a, b = rng.sample(base, 2)
                    family.append(rng.choice((
                        a, _outer(a, b), a.scaled(recip),
                        partial_derivative(_outer(a, b)),
                        section(rng, TractorSection, n))))
                families.append(family)
            rng.shuffle(families)
            exact = rational_points(rng, n, 2)
            floats = float_points(rng, n, 2)
            for pts in (exact, floats, exact[:1] + floats + exact[1:], []):
                got = max_residuals(families, pts)
                assert len(got) == len(families)
                for family, value in zip(families, got):
                    _assert_same_residual(
                        value, max_residual_reference(family, pts))

    @pytest.mark.parametrize("name", ["flat2", "flat3", "sphere2", "sphere3",
                                      "nonEinstein2", "nonEinstein3"])
    def test_suite_families_of_bundled_specs(self, name):
        spec = load_geometry_spec(name)
        geom = spec.geom
        pack, conn = geom.pack(), geom.connection()
        rng = rng_for("max-residuals-" + name)
        exact = [p for p in rational_points(rng, spec.dim, 2)
                 if invertible(geom, p)]
        floats = [[float(x) for x in p] for p in exact]
        bianchi = [[_first_bianchi_field(pack.riemann)],
                   [_second_bianchi_field(conn, pack.riemann)],
                   [_cotton_weyl_field(pack, conn)]]
        invariance = [[f] for f in _invariance_fields(
            geom, gradient_upsilon(spec.phi, spec.dim))]
        einstein = [[einstein_deviation(geom)],
                    metrisability_obstruction(geom, geom.metric_inverse())]
        for pts in (exact, floats):
            for families in (bianchi, invariance, einstein):
                want = [max_residual_reference(f, pts) for f in families]
                for got, value in zip(max_residuals(families, pts), want):
                    _assert_same_residual(got, value)
            # verify_bianchi reports its three families from the one table
            out = verify_bianchi(pack, conn, pts)
            for key, family in zip(("first", "second", "cotton_weyl"),
                                   bianchi):
                _assert_same_residual(out[key],
                                      max_residual_reference(family, pts))

    @pytest.mark.parametrize("place", ["first", "last"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nan_stays_in_its_family(self, k, place):
        x0, x1 = var(0), var(1)
        families = [[TensorField(2, 0, 1, [const(j + 1) * x1, x0 + j * x1])]
                    for j in range(3)]
        # x1/x0 is NaN at x0 = 0.0: the family's first component at the
        # first point, or its last component at the last point
        comps = list(families[k][0].components)
        comps[0 if place == "first" else -1] = x1 * power(x0, -1)
        families[k] = [TensorField(2, 0, 1, comps)]
        pts = [[0.5, 0.25], [-0.75, 1.5]]
        pts.insert(0 if place == "first" else 2, [0.0, 0.5])
        got = max_residuals(families, pts)
        for j, (family, value) in enumerate(zip(families, got)):
            want = max_residual_reference(family, pts)
            assert math.isnan(value) is math.isnan(want) is (j == k)
            _assert_same_residual(value, want)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_symmetrize_idempotent(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    comps = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=n * n, max_size=n * n))
    t = PointTensor(n, 0, 2, comps)
    s1 = symmetrize(t, (0, 1))
    s2 = symmetrize(s1, (0, 1))
    assert s1.components == s2.components


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_contract_linear(data):
    n = data.draw(st.integers(min_value=2, max_value=3))
    f = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    comps_a = data.draw(st.lists(f, min_size=n * n, max_size=n * n))
    comps_b = data.draw(st.lists(f, min_size=n * n, max_size=n * n))
    lam = data.draw(f)
    a = PointTensor(n, 1, 1, comps_a)
    b = PointTensor(n, 1, 1, comps_b)
    summed = PointTensor(n, 1, 1, [x + lam * y for x, y in zip(comps_a, comps_b)])
    lhs = contract(summed, 0, 0).components[0]
    rhs = contract(a, 0, 0).components[0] + lam * contract(b, 0, 0).components[0]
    assert lhs == rhs
