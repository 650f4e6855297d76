"""Prolongation connections on composite bundles and their pairings."""

from fractions import Fraction

import pytest

from protract.cli import load_geometry_spec
from protract.expr import ZERO, const, diff, evaluate, parse
from protract.geometry import GeometryError, covariant_derivative
from protract.projective import gradient_upsilon
from protract.tensor import TensorField, max_residual, trace_free_skew
from protract.tractor import (
    CotractorSection,
    S2CotractorSection,
    S2TractorSection,
    SkewTractorSection,
    TractorSection,
    complete_pair,
    cotractor_nabla,
    flat_skew_prolong_nabla,
    induced_s2_section,
    metric_lift,
    metrisability_obstruction,
    metrisability_prolong_nabla,
    proj_prolong_nabla,
    s2_cotractor_dual_pairing,
    s2_dual_nabla,
    s2_tractor_nabla,
    s2_tractor_nabla_expanded,
    skew_induced_parts,
    splitting_transform,
    tractor_cotractor_pairing,
    tractor_curvature,
    tractor_nabla,
    _leibniz,
)
from protract.transport import BUNDLES, pde_residual_field, skew_bundle

from gen import (
    float_points,
    invertible,
    poly,
    poly_field,
    random_metric,
    rational_points,
    rng_for,
    section,
)
import oracles
from oracles import commutator_family


def _zero_field(n, p, q):
    return TensorField(n, p, q, [parse("0", n)] * n ** (p + q))


def _const_vec(n, values):
    return TensorField(n, 1, 0, [parse(str(v), n) for v in values])


def _families_equal(fam_a, fam_b, pts) -> bool:
    """Every slot component of two direction families equal exactly at
    the rational points."""
    return max_residual([a - b for a, b in zip(fam_a, fam_b)], pts) == 0


def _leibniz_gaps(pairing, u, v, fam_u, fam_v):
    """d_a <u, v> - <nabla_a u, v> - <u, nabla_a v>, one scalar field per
    direction a."""
    n = u.dim
    pair = pairing(u, v)
    return [TensorField(n, 0, 0, [diff(pair, a) - pairing(fam_u[a], v)
                                  - pairing(u, fam_v[a])])
            for a in range(n)]


@pytest.fixture(scope="module")
def differential_cases():
    """(geometry, rational points where its metric is invertible) for the
    six bundled specs and a random polynomial 3- and 4-metric: where the
    one Leibniz rule is compared with the hand-written connection bodies
    that oracles.py keeps."""
    rng = rng_for("leibniz-differential")
    geoms = [load_geometry_spec(name).geom for name in
             ("flat2", "flat3", "sphere2", "sphere3", "nonEinstein2",
              "nonEinstein3")]
    geoms += [random_metric(rng, 3), random_metric(rng, 4)]
    return [(g, [p for p in rational_points(rng, g.dim, 2)
                 if invertible(g, p)]) for g in geoms]


class TestSectionValidation:
    def test_scalar_slot_accepts_expr(self):
        s = CotractorSection(parse("x0", 2), _zero_field(2, 0, 1))
        assert s.sigma.components[0] is not None
        assert s.dim == 2

    def test_wrong_valence_rejected(self):
        with pytest.raises(ValueError):
            TractorSection(_zero_field(2, 0, 1), parse("0", 2))

    def test_symmetry_validated(self):
        comps = [parse(s, 2) for s in ("0", "1", "0", "0")]
        with pytest.raises(ValueError, match="^slot t must be symmetric$"):
            S2TractorSection(TensorField(2, 2, 0, comps), _zero_field(2, 1, 0),
                             parse("0", 2))
        with pytest.raises(ValueError, match="^slot beta must be symmetric$"):
            S2CotractorSection(TensorField(2, 0, 2, comps),
                               _zero_field(2, 0, 1), parse("0", 2))

    def test_skew_validated(self):
        comps = [parse(s, 2) for s in ("1", "0", "0", "0")]
        with pytest.raises(ValueError, match="^slot beta must be skew$"):
            SkewTractorSection(TensorField(2, 2, 0, comps), _zero_field(2, 1, 0))

    def test_arithmetic(self):
        rng = rng_for("section-arith")
        a = section(rng, TractorSection, 2)
        b = section(rng, TractorSection, 2)
        pt = [Fraction(1, 3), Fraction(2, 5)]
        s = a + b
        d = s - b
        assert d.nu.at(pt).components == a.nu.at(pt).components
        assert d.rho.at(pt).components == a.rho.at(pt).components


class TestSlotTable:
    """Random sections and pair completion read off SLOT_SPEC and
    SLOT_SYM, against the per-type code they replaced."""

    @pytest.mark.parametrize("cls, reference", [
        (TractorSection, oracles.rand_tractor_reference),
        (CotractorSection, oracles.rand_cotractor_reference),
        (S2TractorSection, oracles.rand_s2tractor_reference),
        (S2CotractorSection, oracles.rand_s2cotractor_reference),
        (SkewTractorSection, oracles.skew_section_reference),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_random_section_is_the_per_type_one(self, cls, reference):
        for dim in (2, 3, 4):
            for seed in range(20):
                rng, ref_rng = rng_for(seed), rng_for(seed)
                got, want = section(rng, cls, dim), reference(ref_rng, dim)
                assert type(got) is type(want)
                for (name, f), (_, g) in zip(got.slots(), want.slots()):
                    assert (f.dim, f.p, f.q) == (g.dim, g.p, g.q), name
                    assert len(f.components) == len(g.components)
                    assert all(a is b for a, b in
                               zip(f.components, g.components)), name
                # the same draws, in the same order
                assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("zero", [ZERO, 0.0], ids=["expr", "float"])
    def test_complete_pair(self, zero):
        n = 3
        if zero is ZERO:
            entries = [parse("x0 + %d" % k, n) for k in range(1, n * n + 1)]
        else:
            entries = [float(k) for k in range(1, n * n + 1)]
        upper = [(b, c) for b in range(n) for c in range(b + 1, n)]

        comps = list(entries)
        complete_pair(comps, n, None, zero)
        assert comps == entries

        comps = list(entries)
        complete_pair(comps, n, "sym", zero)
        for b, c in upper:
            assert comps[b * n + c] is entries[b * n + c]
            assert comps[c * n + b] is entries[b * n + c]
        assert all(comps[b * n + b] is entries[b * n + b] for b in range(n))

        comps = list(entries)
        complete_pair(comps, n, "skew", zero)
        for b, c in upper:
            assert comps[b * n + c] is entries[b * n + c]
            if zero is ZERO:
                assert comps[c * n + b] is -entries[b * n + c]
            else:
                assert comps[c * n + b] == -entries[b * n + c]
        assert all(comps[b * n + b] is zero for b in range(n))


class TestCotractorNabla:
    def test_flat_gradient_section_parallel(self, flat2):
        # sigma linear and mu its gradient: both slots of the family vanish
        sigma = parse("2*x0 - 3*x1 + 1", 2)
        mu = TensorField(2, 0, 1, [diff(sigma, 0), diff(sigma, 1)])
        fam = cotractor_nabla(flat2, CotractorSection(sigma, mu))
        pt = [Fraction(4), Fraction(-7)]
        assert max_residual(fam, [pt]) == 0

    def test_flat_family_formula(self, flat2):
        rng = rng_for("cotr-flat")
        s = section(rng, CotractorSection, 2)
        fam = cotractor_nabla(flat2, s)
        dsig = covariant_derivative(flat2.connection(), s.sigma)
        dmu = covariant_derivative(flat2.connection(), s.mu)
        pt = [Fraction(1, 2), Fraction(1, 5)]
        for a in range(2):
            slots = fam[a].at(pt)
            assert slots["sigma"].components[0] == evaluate(
                dsig[a] - s.mu[a], tuple(pt))
            for b in range(2):
                # flat Schouten vanishes: bottom is the plain derivative
                assert slots["mu"].components[b] == evaluate(dmu[a, b], tuple(pt))

    def test_schouten_term_on_sphere(self, sphere2):
        # with sigma = 1, mu = 0 the bottom slot reduces to P_ab
        s = CotractorSection(parse("1", 2), _zero_field(2, 0, 1))
        fam = cotractor_nabla(sphere2, s)
        pack = sphere2.pack()
        x = [0.3, -0.6]
        pv = pack.schouten.at(x)
        for a in range(2):
            slots = fam[a].at(x)
            assert slots["sigma"].components[0] == 0
            for b in range(2):
                got = float(slots["mu"].components[b])
                assert got == pytest.approx(float(pv.components[a * 2 + b]), abs=1e-12)


class TestTractorNabla:
    def test_flat_linear_section_parallel(self, flat3):
        # nu^b = -x^b c with rho = c makes the top slot cancel by the delta term
        c = Fraction(5, 3)
        nu = TensorField(3, 1, 0, [parse(f"-{c} * x{i}", 3) for i in range(3)])
        s = TractorSection(nu, const(c))
        fam = tractor_nabla(flat3, s)
        pt = [Fraction(1), Fraction(-2), Fraction(4)]
        assert max_residual(fam, [pt]) == 0

    def test_proj_prolong_dictionary(self, differential_cases):
        # proj_prolong on (nu, mu) is tractor_nabla on (nu, -mu) with the
        # bottom slot negated; Schouten equals Ricci/(n-1) for Levi-Civita.
        # proj_prolong_nabla is built that way now, so the hand-written
        # prolongation and tractor bodies of oracles.py are checked too
        rng = rng_for("prolong-dict")
        cases = []
        for n in (2, 3):
            geom = random_metric(rng, n)
            s = section(rng, TractorSection, n)
            cases.append((geom, s, rational_points(rng, n, 3)))
        cases += [(geom, section(rng, TractorSection, geom.dim), pts)
                  for geom, pts in differential_cases]
        for geom, s, pts in cases:
            n = geom.dim
            neg = TractorSection(s.nu, TensorField(n, 0, 0,
                                                   [ZERO - s.rho.components[0]]))
            for prolong, tractor in (
                    (proj_prolong_nabla, tractor_nabla),
                    (oracles.proj_prolong_nabla_reference, tractor_nabla),
                    (proj_prolong_nabla, oracles.tractor_nabla_reference)):
                fam_p = prolong(geom, s)
                fam_t = tractor(geom, neg)
                for pt in pts:
                    if not invertible(geom, pt):
                        continue
                    for a in range(n):
                        p_slots = fam_p[a].at(pt)
                        t_slots = fam_t[a].at(pt)
                        assert p_slots["nu"].components == t_slots["nu"].components
                        assert p_slots["rho"].components[0] == -t_slots["rho"].components[0]

    def test_position_field_parallel_for_prolong(self, flat2):
        # nu = x * c with mu = c solves the prolonged system on a flat chart
        c = Fraction(7, 2)
        nu = TensorField(2, 1, 0, [parse(f"{c} * x{i}", 2) for i in range(2)])
        s = TractorSection(nu, const(c))
        fam = proj_prolong_nabla(flat2, s)
        pt = [Fraction(3), Fraction(-1)]
        assert max_residual(fam, [pt]) == 0


class TestSplitting:
    def test_documented_example(self, flat2):
        s = CotractorSection(parse("1", 2), _zero_field(2, 0, 1))
        ups = gradient_upsilon(parse("x0", 2), 2)
        out = splitting_transform(s, ups)
        pt = [Fraction(2), Fraction(9)]
        slots = out.at(pt)
        assert slots["sigma"].components[0] == 1
        assert list(slots["mu"].components) == [1, 0]

    def test_inverse_composition(self):
        rng = rng_for("splitting-inverse")
        n = 3
        s = section(rng, CotractorSection, n)
        u = poly_field(rng, n, 0, 1)
        neg = TensorField(n, 0, 1, [ZERO - c for c in u.components])
        back = splitting_transform(splitting_transform(s, u), neg)
        pt = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        assert max_residual([back - s], [pt]) == 0

    def test_sigma_untouched(self):
        rng = rng_for("splitting-sigma")
        s = section(rng, CotractorSection, 2)
        out = splitting_transform(s, gradient_upsilon(poly(rng, 2), 2))
        assert out.sigma.components == s.sigma.components

    def test_only_a_one_form_of_its_dimension_moves_it(self):
        s = CotractorSection(parse("1", 2), _zero_field(2, 0, 1))
        for ups in (_zero_field(2, 1, 0), _zero_field(3, 0, 1)):
            with pytest.raises(GeometryError):
                splitting_transform(s, ups)


class TestTractorCurvature:
    def test_flat_zero_both_variants(self, flat2):
        rng = rng_for("curv-flat")
        pt = [Fraction(1), Fraction(2)]
        for s in (section(rng, CotractorSection, 2),
                  section(rng, TractorSection, 2)):
            grid = tractor_curvature(flat2, s)
            assert max_residual([m for row in grid for m in row], [pt]) == 0

    def test_sphere_projectively_flat(self, sphere2):
        rng = rng_for("curv-s2")
        s = section(rng, CotractorSection, 2)
        grid = tractor_curvature(sphere2, s)
        for x in float_points(rng, 2, 5):
            assert max_residual([m for row in grid for m in row], [x]) < 1e-8

    def test_matches_commutator_oracle_cotractor(self, non_einstein2):
        rng = rng_for("curv-comm-c")
        s = section(rng, CotractorSection, 2)
        grid = tractor_curvature(non_einstein2, s)
        comm = commutator_family(cotractor_nabla, non_einstein2, s, 2)
        pt = [Fraction(1, 3), Fraction(1, 7)]
        worst = max_residual([grid[a][b] - comm[a][b]
                              for a in range(2) for b in range(2)], [pt])
        assert worst == 0

    def test_matches_commutator_oracle_tractor(self, non_einstein3):
        rng = rng_for("curv-comm-t")
        s = section(rng, TractorSection, 3)
        grid = tractor_curvature(non_einstein3, s)
        comm = commutator_family(tractor_nabla, non_einstein3, s, 3)
        pt = [Fraction(1, 3), Fraction(1, 7), Fraction(-1, 2)]
        worst = max_residual([grid[a][b] - comm[a][b]
                              for a in range(3) for b in range(3)], [pt])
        assert worst == 0

    def test_antisymmetric_grid(self, non_einstein2):
        rng = rng_for("curv-anti")
        s = section(rng, CotractorSection, 2)
        grid = tractor_curvature(non_einstein2, s)
        pt = [Fraction(2, 5), Fraction(-1, 5)]
        # a == b reads 2 Omega_aa
        assert max_residual([grid[a][b] + grid[b][a] for a in range(2)
                             for b in range(2)], [pt]) == 0


class TestMetrisability:
    def test_metric_lift_parallel_rational(self, non_einstein3):
        lift = metric_lift(non_einstein3)
        fam = metrisability_prolong_nabla(non_einstein3, lift)
        rng = rng_for("lift-ne3")
        for pt in rational_points(rng, 3, 5):
            if invertible(non_einstein3, pt):
                assert max_residual(fam, [pt]) == 0

    def test_metric_lift_parallel_sphere(self, sphere3):
        lift = metric_lift(sphere3)
        fam = metrisability_prolong_nabla(sphere3, lift)
        rng = rng_for("lift-s3")
        for x in float_points(rng, 3, 5):
            assert max_residual(fam, [x]) < 1e-7

    def test_constant_section_parallel_on_flat(self, flat3):
        t = TensorField(3, 2, 0, [parse(v, 3) for v in
                                  ("2", "1", "0", "1", "3", "0", "0", "0", "1")])
        s = induced_s2_section(flat3, t)
        fam = metrisability_prolong_nabla(flat3, s)
        pt = [Fraction(1), Fraction(2), Fraction(-1)]
        assert max_residual(fam, [pt]) == 0

    def test_expanded_equals_direct(self, non_einstein3, differential_cases):
        # the Leibniz table and the hand-written S2T body of oracles.py
        # against the formal expansion
        rng = rng_for("s2t-expand")
        cases = [(non_einstein3, section(rng, S2TractorSection, 3),
                  rational_points(rng, 3, 3))]
        cases += [(geom, section(rng, S2TractorSection, geom.dim), pts)
                  for geom, pts in differential_cases]
        for geom, s, pts in cases:
            n = geom.dim
            pts = [pt for pt in pts if invertible(geom, pt)]
            fam_b = s2_tractor_nabla_expanded(geom, s)
            for direct in (s2_tractor_nabla, oracles.s2_tractor_nabla_reference):
                assert _families_equal(direct(geom, s), fam_b, pts)
            # the E.B collection of the mixed slot equals the B.E one
            assert max_residual([fam_b[a]._expansion_eb - fam_b[a].nu
                                 for a in range(n)], pts) == 0

    def test_obstruction_identity_50_random_sections(self, non_einstein3,
                                                     differential_cases):
        # the obstruction is exactly the gap between the two connections.
        # The metrisability connection is the S2T one plus K by
        # construction, so the independent side is the hand-written
        # metrisability body of oracles.py
        rng = rng_for("obstruction-id")
        pts = [p for p in rational_points(rng, 3, 3) if invertible(non_einstein3, p)]
        cases = [(non_einstein3, pts, 50)]
        cases += [(geom, pts, 2) for geom, pts in differential_cases]
        for geom, pts, count in cases:
            n = geom.dim
            for _ in range(count):
                s = section(rng, S2TractorSection, n)
                fam_t = s2_tractor_nabla(geom, s)
                wv, cv = metrisability_obstruction(geom, s.t)
                for metrisability in (oracles.metrisability_prolong_nabla_reference,
                                      metrisability_prolong_nabla):
                    fam_m = metrisability(geom, s)
                    gaps = []
                    for a in range(n):
                        gap = fam_t[a] - fam_m[a]
                        gaps += [gap.t,
                                 TensorField(n, 1, 0, [gap.nu[c] - wv[c, a]
                                                       for c in range(n)]),
                                 TensorField(n, 0, 0, [gap.rho.components[0]
                                                       - cv[a]])]
                    assert max_residual(gaps, pts) == 0

    def test_obstruction_vanishes_flat(self, flat3):
        wv, cv = metrisability_obstruction(flat3, flat3.metric_inverse())
        pt = [Fraction(1), Fraction(0), Fraction(2)]
        assert wv.at(pt).max_abs() == 0 and cv.at(pt).max_abs() == 0

    def test_obstruction_vanishes_sphere(self, sphere3):
        wv, cv = metrisability_obstruction(sphere3, sphere3.metric_inverse())
        rng = rng_for("obstruction-s3")
        for x in float_points(rng, 3, 5):
            assert wv.at(x).max_abs() < 1e-8 and cv.at(x).max_abs() < 1e-8

    def test_obstruction_detects_non_einstein(self, non_einstein3):
        wv, cv = metrisability_obstruction(non_einstein3, non_einstein3.metric_inverse())
        pt = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        worst = max(wv.at(pt).max_abs(), cv.at(pt).max_abs())
        assert worst > Fraction(1, 1000)

    def test_induced_section_slots(self, non_einstein3):
        rng = rng_for("induced")
        t = poly_field(rng, 3, 2, 0, sym="sym")
        s = induced_s2_section(non_einstein3, t)
        assert s.t.components == t.components
        # nu is the scaled divergence of t; rho closes the system
        n = 3
        conn = non_einstein3.connection()
        dt = covariant_derivative(conn, t)
        pt = [Fraction(1, 4), Fraction(1, 6), Fraction(-1, 3)]
        nu_pt = s.nu.at(pt)
        for c in range(n):
            div = sum(evaluate(dt[d, c, d], tuple(pt)) for d in range(n))
            assert nu_pt.components[c] == Fraction(-1, n + 1) * div


class TestS2Dual:
    def test_flat_quadratic_solution_parallel(self, flat3):
        # sigma quadratic, mu its gradient, beta half the second derivative:
        # third derivatives vanish so the family is exactly zero
        n = 3
        sigma = parse("x0^2 + 2*x0*x1 - x2^2 + x1 - 3", n)
        mu = TensorField(n, 0, 1, [diff(sigma, a) for a in range(n)])
        half = Fraction(1, 2)
        beta = TensorField(n, 0, 2, [const(half) * diff(diff(sigma, a), c)
                                     for a in range(n) for c in range(n)])
        s = S2CotractorSection(beta, mu, sigma)
        fam = s2_dual_nabla(flat3, s)
        pt = [Fraction(2), Fraction(-1), Fraction(3)]
        assert max_residual(fam, [pt]) == 0

    def test_dual_pairing_leibniz_exact(self, differential_cases):
        # the pairing differentiates by the Leibniz rule for the
        # metrisability pair (either side also the hand-written body of
        # oracles.py) and for the normal pair, which carries no K
        rng = rng_for("dual-pair")
        n = 3
        geom = random_metric(rng, n)
        u = section(rng, S2TractorSection, n)
        v = section(rng, S2CotractorSection, n)
        cases = [(geom, u, v, rational_points(rng, n, 4))]
        cases += [(g, section(rng, S2TractorSection, g.dim),
                   section(rng, S2CotractorSection, g.dim), pts)
                  for g, pts in differential_cases]
        for geom, u, v, pts in cases:
            pts = [p for p in pts if invertible(geom, p)]
            # the pairing cannot see the skew part of beta's output
            assert _families_equal(s2_dual_nabla(geom, v),
                                   oracles.s2_dual_nabla_reference(geom, v), pts)
            for nabla_u, nabla_v in (
                    (metrisability_prolong_nabla, s2_dual_nabla),
                    (oracles.metrisability_prolong_nabla_reference, s2_dual_nabla),
                    (metrisability_prolong_nabla, oracles.s2_dual_nabla_reference),
                    (s2_tractor_nabla, _leibniz)):
                gaps = _leibniz_gaps(s2_cotractor_dual_pairing, u, v,
                                     nabla_u(geom, u), nabla_v(geom, v))
                assert max_residual(gaps, pts) == 0


class TestLeibnizRule:
    @pytest.mark.parametrize("name", ["flat2", "flat3", "sphere2", "sphere3",
                                      "nonEinstein2", "nonEinstein3"])
    def test_cotractor_and_tractor_are_the_old_nodes(self, name):
        # the connection coefficients of both bundles (the connection on
        # each basis section), the curvature grid of a random section and
        # the obstruction are the very nodes the hand-written bodies of
        # oracles.py build
        geom = load_geometry_spec(name).geom
        rng = rng_for("leibniz-nodes")

        def comps(family):
            return [c for s in family for _, f in s.slots()
                    for c in f.components]

        for bundle_name, nabla, reference in (
                ("cotractor", cotractor_nabla, oracles.cotractor_nabla_reference),
                ("tractor", tractor_nabla, oracles.tractor_nabla_reference)):
            bundle = BUNDLES[bundle_name](geom)
            for j in range(bundle.rank):
                s = bundle.basis_section(j)
                new, old = comps(nabla(geom, s)), comps(reference(geom, s))
                assert len(new) == len(old)
                assert all(x is y for x, y in zip(new, old))
            s = section(rng, bundle.section_cls, geom.dim)
            new = comps(m for row in tractor_curvature(geom, s) for m in row)
            old = comps(m for row in oracles.tractor_curvature_reference(geom, s)
                        for m in row)
            assert len(new) == len(old)
            assert all(x is y for x, y in zip(new, old))
        # the obstruction, now -K t with K written once, on the inverse
        # metric and on a random symmetric t
        for t in (geom.metric_inverse(), poly_field(rng, geom.dim, 2, 0, "sym")):
            for x, y in zip(metrisability_obstruction(geom, t),
                            oracles.metrisability_obstruction_reference(geom, t)):
                assert all(u is v for u, v in zip(x.components, y.components))


class TestTractorDuality:
    def test_pairing_leibniz_exact(self):
        rng = rng_for("tr-pair")
        for n in (2, 3):
            geom = random_metric(rng, n)
            u = section(rng, TractorSection, n)
            v = section(rng, CotractorSection, n)
            pair = tractor_cotractor_pairing(u, v)
            pts = [p for p in rational_points(rng, n, 4) if invertible(geom, p)]
            # either side also the hand-written body of oracles.py
            for nabla_u, nabla_v in (
                    (tractor_nabla, cotractor_nabla),
                    (oracles.tractor_nabla_reference, cotractor_nabla),
                    (tractor_nabla, oracles.cotractor_nabla_reference)):
                fam_u = nabla_u(geom, u)
                fam_v = nabla_v(geom, v)
                for pt in pts:
                    for a in range(n):
                        lhs = evaluate(diff(pair, a), tuple(pt))
                        rhs = (evaluate(tractor_cotractor_pairing(fam_u[a], v), tuple(pt))
                               + evaluate(tractor_cotractor_pairing(u, fam_v[a]), tuple(pt)))
                        assert lhs == rhs

    def test_pairing_float_samples(self, sphere2):
        rng = rng_for("tr-pair-float")
        u = section(rng, TractorSection, 2)
        v = section(rng, CotractorSection, 2)
        pair = tractor_cotractor_pairing(u, v)
        fam_u = tractor_nabla(sphere2, u)
        fam_v = cotractor_nabla(sphere2, v)
        for x in float_points(rng, 2, 200):
            for a in range(2):
                lhs = evaluate(diff(pair, a), tuple(x))
                rhs = (evaluate(tractor_cotractor_pairing(fam_u[a], v), tuple(x))
                       + evaluate(tractor_cotractor_pairing(u, fam_v[a]), tuple(x)))
                assert abs(lhs - rhs) < 1e-10


class TestSkew:
    @staticmethod
    def _wedge_solution():
        """beta = A + x wedge w with nu = w: a solution of tf(nabla beta) = 0
        on a chart with zero Christoffel symbols, and parallel there."""
        n = 3
        w = [Fraction(2), Fraction(-1), Fraction(3)]
        a_const = [[0, 1, -2], [-1, 0, 4], [2, -4, 0]]
        comps = []
        for b in range(n):
            for c in range(n):
                comps.append(parse(
                    f"{a_const[b][c]} + x{b}*{w[c]} - x{c}*{w[b]}", n))
        return SkewTractorSection(TensorField(n, 2, 0, comps), _const_vec(n, w))

    def test_constant_beta_parallel(self, flat3):
        comps = [parse(v, 3) for v in ("0", "2", "-1", "-2", "0", "3", "1", "-3", "0")]
        beta = TensorField(3, 2, 0, comps)
        s = SkewTractorSection(beta, _zero_field(3, 1, 0))
        fam = flat_skew_prolong_nabla(flat3, s)
        pt = [Fraction(1), Fraction(5), Fraction(-2)]
        assert max_residual(fam, [pt]) == 0

    def test_wedge_solution_parallel_and_trace_free(self, flat3):
        s = self._wedge_solution()
        fam = flat_skew_prolong_nabla(flat3, s)
        pt = [Fraction(4), Fraction(1), Fraction(-3)]
        assert max_residual(fam, [pt]) == 0
        # and the underlying trace-free equation holds for beta itself
        residual = trace_free_skew(covariant_derivative(flat3.connection(),
                                                        s.beta))
        assert residual.at(pt).max_abs() == 0

    def test_wedge_solution_correspondence(self, flat3):
        s = self._wedge_solution()
        pts = rational_points(rng_for("skew-wedge"), 3, 4)
        assert max_residual(skew_bundle(flat3).nabla(flat3, s), pts) == 0
        assert max_residual([pde_residual_field(flat3, s)], pts) == 0

    def test_curved_connection_refused(self, sphere3):
        from protract.geometry import GeometryError

        s = SkewTractorSection(_zero_field(3, 2, 0), _zero_field(3, 1, 0))
        # the decision is kept on the connection; every call still refuses
        for _ in range(2):
            with pytest.raises(GeometryError, match="connection is not flat"):
                flat_skew_prolong_nabla(sphere3, s)

    def test_induced_parts(self, flat3):
        n = 3
        w = [Fraction(1), Fraction(2), Fraction(-2)]
        comps = []
        for b in range(n):
            for c in range(n):
                comps.append(parse(f"x{b}*{w[c]} - x{c}*{w[b]}", n))
        beta = TensorField(n, 2, 0, comps)
        nu = skew_induced_parts(flat3.connection(), beta)
        pt = [Fraction(1), Fraction(1), Fraction(1)]
        assert list(nu.at(pt).components) == w

    @pytest.mark.parametrize("chart", ["flat3", "flat_pulled3"])
    def test_is_the_old_system_at_rho_zero(self, chart, request):
        # the Leibniz rule on Lambda^2 T against the hand-written system of
        # oracles.py with its rho slot at zero: equal slot by slot, and
        # the old system's rho slot stays zero, at rational points of a
        # chart with zero and one with nonzero Christoffel symbols
        geom = request.getfixturevalue(chart)
        conn = geom.connection()
        rng = rng_for("skew-differential-" + chart)
        pts = rational_points(rng, 3, 3)
        zero = _zero_field(3, 0, 0)
        for _ in range(5):
            s = section(rng, SkewTractorSection, 3)
            old_s = oracles.SkewRhoSection(s.beta, s.nu, zero)
            new = flat_skew_prolong_nabla(geom, s)
            old = oracles.flat_skew_prolong_nabla_reference(old_s, conn)
            gaps = [f for u, v in zip(new, old)
                    for f in (u.beta - v.beta, u.nu - v.nu, v.rho)]
            assert max_residual(gaps, pts) == 0

    @pytest.mark.parametrize("chart, flat", [
        ("flat3", True), ("sphere3", True), ("non_einstein3", False)])
    def test_curvature_vanishes_where_w_and_c_do(self, chart, flat, request):
        # the placement row gives Lambda^2 T its curvature action too:
        # zero where W = C = 0, and not zero on a non-Einstein chart
        geom = request.getfixturevalue(chart)
        rng = rng_for("skew-curvature")
        s = section(rng, SkewTractorSection, 3)
        grid = tractor_curvature(geom, s)
        pts = [p for p in rational_points(rng, 3, 3) if invertible(geom, p)]
        worst = max_residual([m for row in grid for m in row], pts)
        assert (worst == 0) is flat
