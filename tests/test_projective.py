"""Projective changes of connection and what survives them."""

from fractions import Fraction

import pytest

from protract.expr import evaluate, parse
from protract.geometry import (
    GeometryError,
    connection_pack,
    covariant_derivative,
    torsion,
)
from protract.projective import (
    check_weyl_cotton_invariance,
    einstein_deviation,
    gradient_upsilon,
    projective_change,
)
from protract.tensor import TensorField, contract

from gen import invertible, poly, poly_field, random_metric, rational_points, rng_for


def _zero_upsilon(n):
    return TensorField(n, 0, 1, [parse("0", n) for _ in range(n)])


class TestProjectiveChange:
    def test_zero_upsilon_is_identity(self, non_einstein3):
        conn = non_einstein3.connection()
        changed = projective_change(conn, _zero_upsilon(3))
        pt = [Fraction(1, 3), Fraction(1, 5), Fraction(-1, 7)]
        assert changed.gamma.at(pt).components == conn.gamma.at(pt).components

    def test_gamma_shift_formula(self, flat2):
        # barred Gamma^c_ab = Gamma^c_ab + delta_a^c Ups_b + delta_b^c Ups_a
        ups = gradient_upsilon(parse("x0*x1", 2), 2)
        changed = projective_change(flat2.connection(), ups)
        p = (Fraction(2), Fraction(3))
        upv = [evaluate(e, p) for e in ups.components]
        n = 2
        got = changed.gamma.at(p)
        for c in range(n):
            for a in range(n):
                for b in range(n):
                    want = (upv[b] if a == c else 0) + (upv[a] if b == c else 0)
                    assert got.components[(c * n + a) * n + b] == want

    def test_composition_adds_upsilons(self, non_einstein2):
        rng = rng_for("ups-compose")
        n = 2
        u1 = poly_field(rng, n, 0, 1)
        u2 = poly_field(rng, n, 0, 1)
        conn = non_einstein2.connection()
        step = projective_change(projective_change(conn, u1), u2)
        summed = TensorField(n, 0, 1, [u1.components[i] + u2.components[i]
                                       for i in range(n)])
        once = projective_change(conn, summed)
        pt = [Fraction(1, 2), Fraction(-1, 3)]
        assert step.gamma.at(pt).components == once.gamma.at(pt).components

    def test_torsion_preserved(self, non_einstein3):
        rng = rng_for("ups-torsion")
        ups = poly_field(rng, 3, 0, 1)
        changed = projective_change(non_einstein3.connection(), ups)
        t = torsion(changed)
        pt = [Fraction(1), Fraction(2), Fraction(-1)]
        assert all(c == 0 for c in t.at(pt).components)

    def test_one_form_transformation_law(self, non_einstein2):
        # nabla-bar_a omega_b = nabla_a omega_b - Ups_a omega_b - Ups_b omega_a
        rng = rng_for("one-form-law")
        n = 2
        conn = non_einstein2.connection()
        ups = poly_field(rng, n, 0, 1)
        omega = poly_field(rng, n, 0, 1)
        barred = covariant_derivative(projective_change(conn, ups), omega)
        plain = covariant_derivative(conn, omega)
        for pt in rational_points(rng, n, 10):
            bv = barred.at(pt)
            pv = plain.at(pt)
            uv = ups.at(pt)
            ov = omega.at(pt)
            for a in range(n):
                for b in range(n):
                    want = (pv.components[a * n + b]
                            - uv.components[a] * ov.components[b]
                            - uv.components[b] * ov.components[a])
                    assert bv.components[a * n + b] == want

    def test_scalar_differential_connection_independent(self, non_einstein3):
        # omega_b nu^b is a scalar; its covariant derivative has no Gamma
        rng = rng_for("scalar-diff")
        n = 3
        conn = non_einstein3.connection()
        ups = poly_field(rng, n, 0, 1)
        omega = poly_field(rng, n, 0, 1)
        nu = poly_field(rng, n, 1, 0)
        s = contract(TensorField(n, 1, 1, [x * y for x in nu.components
                                           for y in omega.components]), 0, 0)
        d1 = covariant_derivative(conn, s)
        d2 = covariant_derivative(projective_change(conn, ups), s)
        pt = [Fraction(1, 4), Fraction(1, 6), Fraction(-1, 3)]
        assert d1.at(pt).components == d2.at(pt).components


class TestGradientUpsilon:
    def test_components_are_partials(self):
        ups = gradient_upsilon(parse("x0^2 + x1/3", 2), 2)
        p = (Fraction(5), Fraction(0))
        assert evaluate(ups.components[0], p) == 10
        assert evaluate(ups.components[1], p) == Fraction(1, 3)

    def test_dimension_mismatch_rejected(self, flat2):
        # a vector is no one-form, nor is a one-form of another dimension
        conn = flat2.connection()
        for ups in (TensorField(2, 1, 0, [parse("0", 2), parse("0", 2)]),
                    _zero_upsilon(3)):
            with pytest.raises(GeometryError):
                projective_change(conn, ups)


class TestWeylCottonInvariance:
    def test_sphere_gradient_change(self, sphere2):
        ups = gradient_upsilon(parse("x0/3 + x1^2/5", 2), 2)
        rng = rng_for("inv-s2")
        pts = [[rng.uniform(-0.8, 0.8) for _ in range(2)] for _ in range(8)]
        res = check_weyl_cotton_invariance(sphere2, ups, pts)
        assert res["weyl"] < 1e-8
        assert res["cotton"] < 1e-7

    def test_polynomial_metrics_weyl_exact(self):
        rng = rng_for("inv-poly")
        for _ in range(2):
            geom = random_metric(rng, 3)
            phi = poly(rng, 3)
            ups = gradient_upsilon(phi, 3)
            pts = [p for p in rational_points(rng, 3, 4) if invertible(geom, p)]
            res = check_weyl_cotton_invariance(geom, ups, pts)
            assert res["weyl"] == 0

    def test_cotton_shift_by_weyl_contraction(self, non_einstein3):
        # In three and more dimensions Cotton picks up Ups_d W_ab^d_c under a
        # projective change; the exact shifted comparison must close to zero.
        rng = rng_for("cotton-shift")
        n = 3
        geom = non_einstein3
        ups = gradient_upsilon(poly(rng, n), n)
        pack = geom.pack()
        barred = connection_pack(projective_change(geom.connection(), ups))
        pts = [p for p in rational_points(rng, n, 5) if invertible(geom, p)]
        for pt in pts:
            c0 = pack.cotton.at(pt)
            c1 = barred.cotton.at(pt)
            w = pack.weyl.at(pt)
            u = ups.at(pt)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        shift = sum(u.components[d]
                                    * w.components[((d * n + a) * n + b) * n + c]
                                    for d in range(n))
                        got = c1.components[(a * n + b) * n + c]
                        want = c0.components[(a * n + b) * n + c] + shift
                        assert got == want

    def test_cotton_not_invariant_in_three_dimensions(self, non_einstein3):
        # the shift term above is generically nonzero, so the raw difference
        # must not be treated as an invariance residual for n >= 3
        rng = rng_for("cotton-noninv")
        ups = gradient_upsilon(poly(rng, 3), 3)
        pts = [p for p in rational_points(rng, 3, 5) if invertible(non_einstein3, p)]
        res = check_weyl_cotton_invariance(non_einstein3, ups, pts)
        assert res["weyl"] == 0
        assert res["cotton"] > 1e-3


class TestEinsteinDeviation:
    def test_flat_zero(self, flat3):
        dev = einstein_deviation(flat3)
        assert all(c == 0 for c in dev.at([Fraction(1), Fraction(2), Fraction(3)]).components)

    def test_sphere_einstein(self, sphere3):
        dev = einstein_deviation(sphere3)
        x = [0.3, -0.2, 0.5]
        assert max(abs(float(c)) for c in dev.at(x).components) < 1e-12

    def test_non_einstein_detected(self, non_einstein3):
        dev = einstein_deviation(non_einstein3)
        pt = [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4)]
        assert max(abs(c) for c in dev.at(pt).components) > Fraction(1, 1000)

    def test_weyl_metric_trace_identity(self, non_einstein3):
        # W_ab^c_d g^bd = (n/(n-1)) g^cd E_ad for the Levi-Civita pack
        geom = non_einstein3
        n = 3
        pack = geom.pack()
        dev = einstein_deviation(geom)
        ginv = geom.metric_inverse()
        rng = rng_for("weyl-einstein")
        for pt in (p for p in rational_points(rng, n, 5) if invertible(geom, p)):
            w = pack.weyl.at(pt)
            gi = ginv.at(pt)
            e = dev.at(pt)
            for a in range(n):
                for c in range(n):
                    lhs = sum(w.components[((c * n + a) * n + b) * n + d]
                              * gi.components[b * n + d]
                              for b in range(n) for d in range(n))
                    rhs = Fraction(n, n - 1) * sum(
                        gi.components[c * n + d] * e.components[a * n + d]
                        for d in range(n))
                    assert lhs == rhs
