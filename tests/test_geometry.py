"""Connections, curvature, and the differential identities tying them together."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from protract.cli import BUNDLED, load_geometry_spec
from protract.expr import ZERO, EvalDomainError, diff, evaluate, neg, parse
from protract.geometry import (
    AffineConnection,
    ChartGeometry,
    SingularMetricError,
    _cotton_weyl_field,
    _first_bianchi_field,
    _ricci,
    _second_bianchi_field,
    connection_pack,
    covariant_derivative,
    derive_pack,
    levi_civita,
    partial_derivative,
    riemann,
    torsion,
    verify_bianchi,
)
from protract.kernel import eval_table
from protract.program import compile_table
from protract.projective import gradient_upsilon, projective_change
from protract.tensor import TensorField, symmetrize

from gen import invertible, poly_field, random_metric, rational_points, rng_for
from oracles import (commutator_family, cotton_reference,
                     cotton_weyl_field_reference,
                     covariant_derivative_sequential, fd_christoffel,
                     fd_curvature_stack, first_bianchi_whole_reference,
                     levi_civita_reference, riemann_reference,
                     second_bianchi_field_reference, weyl_reference)


def _flat(n):
    comps = [parse("1" if i == j else "0", n) for i in range(n) for j in range(n)]
    return ChartGeometry(TensorField(n, 0, 2, comps))


def _np_at(field, x, shape):
    pt = field.at(x)
    return np.array([float(c) for c in pt.components]).reshape(shape)


def _tensor_nabla(conn, field):
    """Adapter giving commutator_family per-direction tensor slices."""
    import itertools

    d = covariant_derivative(conn, field)
    n, p, q = field.dim, field.p, field.q
    out = []
    for a in range(n):
        comps = []
        for idx in itertools.product(range(n), repeat=p + q):
            comps.append(d[idx[:p] + (a,) + idx[p:]])
        out.append(TensorField(n, p, q, comps))
    return out


def _assert_same_nodes(got, want):
    assert (got.dim, got.p, got.q) == (want.dim, want.p, want.q)
    assert all(g is w for g, w in zip(got.components, want.components))


def _assert_skew_orbits(got, slots, want):
    """got is totally skew in slots by construction: where their values
    strictly increase it holds want's node, where one repeats ZERO, and
    elsewhere the entry with the values sorted, or its Neg when sorting
    takes an odd number of swaps."""
    assert (got.dim, got.p, got.q) == (want.dim, want.p, want.q)
    for multi in itertools.product(range(got.dim), repeat=got.rank):
        vals = [multi[s] for s in slots]
        if len(set(vals)) < len(vals):
            assert got[multi] is ZERO
            continue
        swaps = 0
        for i in range(len(vals)):           # bubble sort, counting swaps
            for j in range(len(vals) - 1 - i):
                if vals[j] > vals[j + 1]:
                    vals[j], vals[j + 1] = vals[j + 1], vals[j]
                    swaps += 1
        rep = list(multi)
        for s, v in zip(slots, vals):
            rep[s] = v
        node = want[tuple(rep)]
        assert got[multi] is (neg(node) if swaps % 2 else node)


class TestLeviCivita:
    def test_identity_metric_gamma_zero(self):
        conn = levi_civita(_flat(3))
        pt = conn.gamma.at([Fraction(1), Fraction(2), Fraction(3)])
        assert all(c == 0 for c in pt.components)

    def test_flat_covariant_derivative_is_partial(self):
        geom = _flat(2)
        conn = geom.connection()
        v = TensorField(2, 1, 0, [parse("x0^2", 2), parse("x0*x1", 2)])
        dv = covariant_derivative(conn, v)
        p = (Fraction(3), Fraction(5))
        # storage [b][a] = nabla_a v^b; at p: d(x0^2)/dx0 = 6
        assert evaluate(dv[0, 0], p) == 6
        assert evaluate(dv[0, 1], p) == 0
        assert evaluate(dv[1, 0], p) == 5
        assert evaluate(dv[1, 1], p) == 3

    def test_metric_compatibility_random_polynomial_metrics(self):
        rng = rng_for("nabla-g")
        for trial in range(10):
            n = rng.choice((2, 3))
            geom = random_metric(rng, n)
            dg = covariant_derivative(geom.connection(), geom.metric)
            for pt in rational_points(rng, n, 20):
                if not invertible(geom, pt):
                    continue
                vals = dg.at(pt)
                assert all(c == 0 for c in vals.components)

    def test_sphere_christoffel_against_finite_differences(self, sphere2):
        conn = sphere2.connection()

        def metric_fn(p):
            pt = sphere2.metric.at([float(c) for c in p])
            return np.array([float(c) for c in pt.components]).reshape(2, 2)

        rng = rng_for("koszul-fd")
        for _ in range(5):
            x = [rng.uniform(-0.7, 0.7) for _ in range(2)]
            sym = _np_at(conn.gamma, x, (2, 2, 2))
            fd = fd_christoffel(metric_fn, x, h=1e-4)
            assert np.max(np.abs(sym - fd)) < 1e-6

    def test_singular_metric_raises(self):
        g = TensorField(2, 0, 2, [parse("x0", 2), parse("0", 2),
                                  parse("0", 2), parse("1", 2)])
        geom = ChartGeometry(g)
        with pytest.raises(SingularMetricError):
            geom.check_invertible_at((Fraction(0), Fraction(1)))
        geom.check_invertible_at((Fraction(1), Fraction(1)))

    @pytest.mark.parametrize("x0", [float("nan"), float("inf")])
    def test_nonfinite_metric_is_singular(self, x0):
        g = TensorField(2, 0, 2, [parse("1 + x0^2", 2), parse("0", 2),
                                  parse("0", 2), parse("1", 2)])
        geom = ChartGeometry(g)
        with pytest.raises(SingularMetricError):
            geom.check_invertible_at((x0, 0.5))
        assert not invertible(geom, (x0, 0.5))
        geom.check_invertible_at((0.5, 0.5))

    def test_pole_is_singular_at_a_float_point(self):
        # a float 0**-k evaluates to NaN, so the determinant is non-finite
        g = TensorField(2, 0, 2, [parse("x0^-1", 2), parse("0", 2),
                                  parse("0", 2), parse("1", 2)])
        geom = ChartGeometry(g)
        with pytest.raises(SingularMetricError):
            geom.check_invertible_at((0.0, 0.5))
        with pytest.raises(EvalDomainError):
            geom.check_invertible_at((Fraction(0), Fraction(1, 2)))
        geom.check_invertible_at((0.5, 0.5))

    def test_asymmetric_metric_rejected(self):
        comps = [parse(s, 2) for s in ("1", "x0", "0", "1")]
        with pytest.raises(ValueError):
            ChartGeometry(TensorField(2, 0, 2, comps))


class TestPartialDerivative:
    @pytest.mark.parametrize("name", ["nonEinstein3", "sphere2"])
    def test_is_diff_per_component(self, name):
        # one diff_all walk per coordinate against one diff per component
        import itertools

        geom = load_geometry_spec(name).geom
        conn = geom.connection()
        for T in (geom.metric, conn.gamma, riemann(conn)):
            dT = partial_derivative(T)
            n, p, q = T.dim, T.p, T.q
            assert (dT.dim, dT.p, dT.q) == (n, p, q + 1)
            for multi in itertools.product(range(n), repeat=p + q + 1):
                up, a, lo = multi[:p], multi[p], multi[p + 1:]
                assert dT[multi] is diff(T[up + lo], a)

    def test_scalar_field_is_its_gradient(self):
        f = TensorField(2, 0, 0, [parse("x0^2*x1", 2)])
        assert partial_derivative(f).components == (parse("2*x0*x1", 2),
                                                     parse("x0^2", 2))


class TestCovariantDerivative:
    def test_scalar_gradient(self, sphere2):
        conn = sphere2.connection()
        f = TensorField(2, 0, 0, [parse("x0^2*x1", 2)])
        df = covariant_derivative(conn, f)
        p = (0.3, -0.4)
        assert evaluate(df[0], p) == pytest.approx(2 * 0.3 * -0.4)
        assert evaluate(df[1], p) == pytest.approx(0.09)

    def test_leibniz_rule_exact(self):
        rng = rng_for("leibniz")
        geom = random_metric(rng, 2)
        conn = geom.connection()
        u = poly_field(rng, 2, 1, 0)
        w = poly_field(rng, 2, 0, 1)
        uw = TensorField(2, 1, 1, [x * y for x in u.components
                                   for y in w.components])
        left = covariant_derivative(conn, uw)
        # product rule: nabla_a (u^b w_c) = (nabla_a u^b) w_c + u^b (nabla_a w_c)
        du = covariant_derivative(conn, u)
        dw = covariant_derivative(conn, w)
        n = 2
        for pt in rational_points(rng, n, 10):
            if not invertible(geom, pt):
                continue
            lv = left.at(pt)
            duv, uv = du.at(pt), u.at(pt)
            dwv, wv = dw.at(pt), w.at(pt)
            for b in range(n):
                for a in range(n):
                    for c in range(n):
                        # left storage [b][a][c]: derivative slot first among lowers
                        got = lv.components[(b * n + a) * n + c]
                        want = (duv.components[b * n + a] * wv.components[c]
                                + uv.components[b] * dwv.components[a * n + c])
                        assert got == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_components_are_the_sequential_sums(self, n):
        # one add per component builds the very nodes the running sum
        # val = val +- G*T built, on metrics, random fields and curvature
        from protract.transport import BUNDLES

        rng = rng_for("nabla-sequential-%d" % n)
        geom = random_metric(rng, n)
        conn = geom.connection()
        fields = [geom.metric, poly_field(rng, n, 1, 0),
                  poly_field(rng, n, 1, 1), poly_field(rng, n, 0, 2)]
        if n < 4:
            fields.append(riemann(conn))
        # sparse fields, where the ZERO terms are skipped: the slot fields
        # of each basis section (one ONE, the rest ZERO), and random
        # fields with about half their entries ZERO
        for name in ("cotractor", "tractor", "metrisability", "s2dual"):
            bundle = BUNDLES[name](geom)
            for j in range(bundle.rank):
                fields.extend(f for _, f in bundle.basis_section(j).slots())
        for p, q in ((1, 0), (1, 1), (0, 2)):
            comps = [ZERO if rng.random() < 0.5 else c
                     for c in poly_field(rng, n, p, q).components]
            fields.append(TensorField(n, p, q, comps))
        for field in fields:
            _assert_same_nodes(covariant_derivative(conn, field),
                               covariant_derivative_sequential(conn, field))

    def test_components_are_the_sequential_sums_on_sphere3(self, sphere3):
        conn = sphere3.connection()
        pack = sphere3.pack()
        for field in (sphere3.metric, pack.schouten, pack.riemann):
            _assert_same_nodes(covariant_derivative(conn, field),
                               covariant_derivative_sequential(conn, field))

    def test_new_slot_is_first_covariant(self):
        geom = _flat(2)
        v = TensorField(2, 0, 1, [parse("x1^3", 2), parse("0", 2)])
        dv = covariant_derivative(geom.connection(), v)
        assert (dv.p, dv.q) == (0, 2)
        p = (Fraction(2), Fraction(1))
        # [a][c] = nabla_a v_c: derivative index is the first lower slot
        assert evaluate(dv[1, 0], p) == 3
        assert evaluate(dv[0, 1], p) == 0


class TestRiemann:
    def test_flat_riemann_zero(self):
        R = riemann(_flat(3).connection())
        pt = R.at([Fraction(1), Fraction(-2), Fraction(5)])
        assert all(c == 0 for c in pt.components)

    def test_commutator_identity_on_sphere(self, sphere2):
        # (nabla_a nabla_b - nabla_b nabla_a) nu^c = R_ab^c_d nu^d
        conn = sphere2.connection()
        R = sphere2.pack().riemann
        rng = rng_for("commutator")
        n = 2
        for _ in range(20):
            nu = poly_field(rng, n, 1, 0)
            grid = commutator_family(_tensor_nabla, conn, nu, n)
            x = [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)]
            Rv = _np_at(R, x, (n, n, n, n))
            nuv = _np_at(nu, x, (n,))
            for a in range(n):
                for b in range(n):
                    lhs = grid[a][b].at(x)
                    for c in range(n):
                        want = sum(Rv[c, a, b, d] * nuv[d] for d in range(n))
                        assert abs(float(lhs.components[c]) - want) < 1e-9

    def test_first_pair_skew_exact(self):
        rng = rng_for("skew-pair")
        geom = random_metric(rng, 3)
        R = riemann(geom.connection())
        n = 3
        pts = [p for p in rational_points(rng, n, 5) if invertible(geom, p)]
        for pt in pts:
            v = R.at(pt)
            for c in range(n):
                for a in range(n):
                    for b in range(n):
                        for d in range(n):
                            x = v.components[((c * n + a) * n + b) * n + d]
                            y = v.components[((c * n + b) * n + a) * n + d]
                            assert x + y == 0


class TestCurvaturePack:
    def test_sphere_scalar_curvature_two(self, sphere2):
        pack = sphere2.pack()
        for x in ([0.0, 0.0], [0.5, -0.3], [0.9, 0.9]):
            assert float(pack.scalar.at(x).components[0]) == pytest.approx(2.0, abs=1e-12)

    def test_sphere_ricci_equals_metric(self, sphere2):
        # round 2-sphere of curvature 1: R_ab = (n-1) g_ab = g_ab
        pack = sphere2.pack()
        x = [0.4, 0.1]
        ric = _np_at(pack.ricci, x, (2, 2))
        g = _np_at(sphere2.metric, x, (2, 2))
        assert np.max(np.abs(ric - g)) < 1e-12

    def test_weyl_vanishes_in_two_and_three_flat(self, flat3):
        pack = flat3.pack()
        pt = pack.weyl.at([Fraction(1), Fraction(2), Fraction(3)])
        assert all(c == 0 for c in pt.components)

    def test_sphere3_against_finite_difference_stack(self, sphere3):
        pack = sphere3.pack()
        conn = sphere3.connection()

        def metric_fn(p):
            pt = sphere3.metric.at([float(c) for c in p])
            return np.array([float(c) for c in pt.components]).reshape(3, 3)

        rng = rng_for("fd-stack")
        for _ in range(3):
            x = [rng.uniform(-0.6, 0.6) for _ in range(3)]
            fd = fd_curvature_stack(metric_fn, x, h=1e-3)
            for name, field, shape in (
                ("riemann", pack.riemann, (3, 3, 3, 3)),
                ("ricci", pack.ricci, (3, 3)),
                ("schouten", pack.schouten, (3, 3)),
                ("weyl", pack.weyl, (3, 3, 3, 3)),
                ("cotton", pack.cotton, (3, 3, 3)),
            ):
                sym = _np_at(field, x, shape)
                assert np.max(np.abs(sym - fd[name])) < 5e-5, name
            assert abs(float(pack.scalar.at(x).components[0]) - fd["scalar"]) < 5e-5

    def test_weyl_first_upper_trace_zero_exact(self, non_einstein3):
        pack = non_einstein3.pack()
        W = pack.weyl
        n = 3
        rng = rng_for("weyl-trace")
        for pt in rational_points(rng, n, 5):
            v = W.at(pt)
            for b in range(n):
                for d in range(n):
                    tr = sum(v.components[((c * n + c) * n + b) * n + d] for c in range(n))
                    assert tr == 0

    def test_connection_pack_matches_derive_pack(self, non_einstein3):
        via_conn = connection_pack(non_einstein3.connection())
        via_geom = non_einstein3.pack()
        pt = [Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
        a = via_conn.riemann.at(pt)
        b = via_geom.riemann.at(pt)
        assert a.components == b.components


def _reference_stack(conn, symmetric_ricci):
    """(R, W, C) of a connection from the copies of the constructors that
    built every component; the Ricci tensor is symmetrized as
    connection_pack does when symmetric_ricci."""
    R = riemann_reference(conn)
    ricci = _ricci(R)
    if symmetric_ricci:
        ricci = symmetrize(ricci, (0, 1))
    P = ricci.scaled(Fraction(1, conn.dim - 1))
    return R, weyl_reference(R, P), cotton_reference(conn, P)


def _assert_equal_at(got, want, pts):
    # every component of every field, exactly, from one table per side
    assert [(f.p, f.q) for f in got] == [(f.p, f.q) for f in want]
    values = [eval_table(compile_table([c for f in fields
                                        for c in f.components]), pts)
              .tolist() for fields in (got, want)]
    assert values[0] == values[1]


def _orbit_geometry(name):
    """(geometry, phi) of a bundled spec, or of a random metric "randomN"
    with a random polynomial phi."""
    if name in BUNDLED:
        spec = load_geometry_spec(name)
        return spec.geom, spec.phi
    n = int(name[-1])
    rng = rng_for("orbit-%d" % n)
    return random_metric(rng, n), poly_field(rng, n, 0, 0).components[0]


class TestSymmetryOrbits:
    """Gamma, R, W, C and the nabla R of the second Bianchi identity are
    built once per orbit of their symmetric or skew pair; the copies of
    the constructors that built every component check the Koszul
    formula, the curvature sums and the Bianchi sums."""

    @pytest.mark.parametrize("name", [*BUNDLED, "random2", "random3"])
    def test_equals_every_component_construction(self, name):
        geom, phi = _orbit_geometry(name)
        n = geom.dim
        pts = [p for p in rational_points(rng_for("orbit-pts-" + name), n, 4)
               if invertible(geom, p)][:2]
        assert pts
        conn = levi_civita(geom)
        ref = levi_civita_reference(geom)
        pack = derive_pack(geom)
        _assert_equal_at([conn.gamma, pack.riemann, pack.weyl, pack.cotton],
                         [ref.gamma, *_reference_stack(ref, False)], pts)
        ups = gradient_upsilon(phi, n)
        changed = connection_pack(projective_change(conn, ups))
        want = _reference_stack(projective_change(ref, ups), True)
        _assert_equal_at([changed.riemann, changed.weyl, changed.cotton],
                         list(want), pts)

    @pytest.mark.parametrize("name", [*BUNDLED, "random2", "random3"])
    def test_mirror_is_the_same_node_or_its_neg(self, name):
        geom, phi = _orbit_geometry(name)
        n = geom.dim
        gamma = geom.connection().gamma
        pack = geom.pack()
        changed = connection_pack(projective_change(
            geom.connection(), gradient_upsilon(phi, n)))
        for c, a, b in itertools.product(range(n), repeat=3):
            assert gamma[c, a, b] is gamma[c, b, a]
        for T in (pack.riemann, pack.weyl, changed.riemann, changed.weyl):
            for c, a, b, d in itertools.product(range(n), repeat=4):
                if a == b:
                    assert T[c, a, b, d] is ZERO
                elif a < b:
                    assert T[c, b, a, d] is neg(T[c, a, b, d])
        for C in (pack.cotton, changed.cotton):
            for a, b, c in itertools.product(range(n), repeat=3):
                if a == b:
                    assert C[a, b, c] is ZERO
                elif a < b:
                    assert C[b, a, c] is neg(C[a, b, c])

    @pytest.mark.parametrize("name",
                             [*BUNDLED, "random2", "random3", "random4"])
    def test_second_bianchi_reads_nabla_r_once_per_orbit(self, name):
        # where e < a < b the field holds the cyclic sum of a nabla R
        # whose a < b entries are covariant_derivative's nodes, a > b
        # entries their Neg and a = b entries ZERO; its other entries
        # follow by total skew symmetry in eab
        geom, _ = _orbit_geometry(name)
        n = geom.dim
        conn, R = geom.connection(), geom.pack().riemann
        whole = covariant_derivative(conn, R)

        def dR(c, e, a, b, d):
            if a == b:
                return ZERO
            if a > b:
                return neg(whole[c, e, b, a, d])
            return whole[c, e, a, b, d]
        want = TensorField(n, 1, 4, [
            dR(c, e, a, b, d) + dR(c, b, e, a, d) + dR(c, a, b, e, d)
            for c, e, a, b, d in itertools.product(range(n), repeat=5)])
        _assert_skew_orbits(_second_bianchi_field(conn, R), (1, 2, 3), want)


class TestIdentityOrbits:
    """The first and second Bianchi fields are built once per increasing
    triple of their cyclic slots, the Cotton-Weyl field once per a < b
    and Cotton from nabla_a P_bc at a != b only; the copies that built
    every component of each field check them."""

    @pytest.mark.parametrize("name",
                             [*BUNDLED, "random2", "random3", "random4"])
    def test_equal_to_the_whole_fields(self, name):
        geom, phi = _orbit_geometry(name)
        n = geom.dim
        pts = [p for p in rational_points(rng_for("identity-pts-" + name),
                                          n, 4) if invertible(geom, p)][:2]
        assert len(pts) == 2
        conn, pack = geom.connection(), geom.pack()
        R = pack.riemann
        moved = projective_change(conn, gradient_upsilon(phi, n))
        changed = connection_pack(moved)
        _assert_equal_at(
            [_first_bianchi_field(R), _second_bianchi_field(conn, R),
             _cotton_weyl_field(pack, conn), pack.cotton, changed.cotton],
            [first_bianchi_whole_reference(R),
             second_bianchi_field_reference(conn, R),
             cotton_weyl_field_reference(pack, conn),
             cotton_reference(conn, pack.schouten),
             cotton_reference(moved, changed.schouten)], pts)

    @pytest.mark.parametrize("name",
                             [*BUNDLED, "random2", "random3", "random4"])
    def test_each_orbit_is_the_whole_fields_node(self, name):
        geom, phi = _orbit_geometry(name)
        n = geom.dim
        conn, pack = geom.connection(), geom.pack()
        R = pack.riemann
        first = _first_bianchi_field(R)
        second = _second_bianchi_field(conn, R)
        _assert_skew_orbits(first, (1, 2, 3),
                            first_bianchi_whole_reference(R))
        _assert_skew_orbits(_cotton_weyl_field(pack, conn), (0, 1),
                            cotton_weyl_field_reference(pack, conn))
        if n == 2:   # no three distinct slot values: both are vacuous
            assert all(c is ZERO for f in (first, second)
                       for c in f.components)
        moved = projective_change(conn, gradient_upsilon(phi, n))
        changed = connection_pack(moved)
        _assert_skew_orbits(pack.cotton, (0, 1),
                            cotton_reference(conn, pack.schouten))
        _assert_skew_orbits(changed.cotton, (0, 1),
                            cotton_reference(moved, changed.schouten))


class TestBianchi:
    def test_flat_exact_zero(self, flat3):
        pack = flat3.pack()
        res = verify_bianchi(pack, flat3.connection(),
                             [[Fraction(1), Fraction(2), Fraction(-1)]])
        assert res["first"] == 0 and res["second"] == 0

    def test_sphere_small_residual(self, sphere2):
        rng = rng_for("bianchi-s2")
        pts = [[rng.uniform(-0.8, 0.8) for _ in range(2)] for _ in range(20)]
        res = verify_bianchi(sphere2.pack(), sphere2.connection(), pts)
        assert res["first"] < 1e-8 and res["second"] < 1e-8
        assert res["points"] == 20

    def test_random_polynomial_metrics_rational_exact(self):
        rng = rng_for("bianchi-poly")
        for _ in range(2):
            geom = random_metric(rng, 3)
            pts = [p for p in rational_points(rng, 3, 4) if invertible(geom, p)]
            res = verify_bianchi(geom.pack(), geom.connection(), pts)
            assert res["first"] == 0
            assert res["second"] == 0


class TestCottonWeylRelation:
    def test_exact_on_polynomial_metric(self, non_einstein3):
        rng = rng_for("cw-ne3")
        pts = [p for p in rational_points(rng, 3, 6)
               if invertible(non_einstein3, p)]
        res = verify_bianchi(non_einstein3.pack(), non_einstein3.connection(),
                             pts)["cotton_weyl"]
        assert res == 0

    def test_random_metric_n4(self):
        rng = rng_for("cw-n4")
        geom = random_metric(rng, 4)
        pts = [p for p in rational_points(rng, 4, 3) if invertible(geom, p)]
        res = verify_bianchi(geom.pack(), geom.connection(),
                             pts)["cotton_weyl"]
        assert res < 1e-7

    def test_two_dimensions_identically_zero(self, non_einstein2):
        rng = rng_for("cw-n2")
        pts = [p for p in rational_points(rng, 2, 6)
               if invertible(non_einstein2, p)]
        res = verify_bianchi(non_einstein2.pack(), non_einstein2.connection(),
                             pts)["cotton_weyl"]
        assert res == 0


    @pytest.mark.parametrize("name", ["flat2", "flat3", "sphere2", "sphere3",
                                      "nonEinstein2", "nonEinstein3"])
    def test_field_nodes_are_the_full_divergence(self, name):
        # where a < b the contracted divergence builds the very nodes
        # read off the whole nabla W; the rest is skew in ab
        geom = load_geometry_spec(name).geom
        args = (geom.pack(), geom.connection())
        _assert_skew_orbits(_cotton_weyl_field(*args), (0, 1),
                            cotton_weyl_field_reference(*args))

    @pytest.mark.parametrize("n", [3, 4])
    def test_field_nodes_are_the_full_divergence_random(self, n):
        geom = random_metric(rng_for("cw-nodes-%d" % n), n)
        args = (geom.pack(), geom.connection())
        _assert_skew_orbits(_cotton_weyl_field(*args), (0, 1),
                            cotton_weyl_field_reference(*args))


class TestDerivativeWork:
    def test_each_node_differentiated_once_per_coordinate(self, deriv_calls):
        """The curvature stack, both Bianchi identities and the
        Cotton-Weyl relation differentiate each (node, coordinate) pair
        once, though each prolongation walks the nodes of the last."""
        rng = rng_for("deriv-work")
        geom = random_metric(rng, 3)
        pt = next(p for p in rational_points(rng, 3, 8) if invertible(geom, p))
        deriv_calls.clear()
        pack = derive_pack(geom)
        conn = geom.connection()
        res = verify_bianchi(pack, conn, [pt])
        assert res["first"] == 0 and res["second"] == 0
        assert res["cotton_weyl"] == 0
        pairs = {(id(n), a) for n, a in deriv_calls}
        assert len(deriv_calls) == len(pairs) > 1000


class TestTorsion:
    def test_levi_civita_torsion_free(self, non_einstein3):
        # structural: gamma^c_ba is the node gamma^c_ab; TestSymmetryOrbits
        # checks the Koszul formula against the every-component copy
        t = torsion(non_einstein3.connection())
        pt = t.at([Fraction(1), Fraction(2), Fraction(3)])
        assert all(c == 0 for c in pt.components)

    def test_hand_built_asymmetric_connection(self):
        n = 2
        comps = [parse("0", n) for _ in range(n ** 3)]
        comps[(0 * n + 0) * n + 1] = parse("1", n)  # gamma^0_{01} = 1
        conn = AffineConnection(TensorField(n, 1, 2, comps), validate=False)
        t = torsion(conn)
        pt = t.at([Fraction(0), Fraction(0)])
        # T^0_{01} = gamma^0_{01} - gamma^0_{10} = 1
        assert pt.components[(0 * n + 0) * n + 1] == 1
        assert pt.components[(0 * n + 1) * n + 0] == -1

    def test_symmetric_validation(self):
        n = 2
        comps = [parse("0", n) for _ in range(n ** 3)]
        comps[(0 * n + 0) * n + 1] = parse("x0", n)
        with pytest.raises(ValueError):
            AffineConnection(TensorField(n, 1, 2, comps))
