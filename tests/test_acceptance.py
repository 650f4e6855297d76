"""End-to-end verification gate: ten numbered criteria, one test each.

Every test prints a one-line PASS/FAIL summary (visible under -s, or in
captured output when a test fails) and then asserts the stated bounds
verbatim, including the runtime budgets. Nothing here is loosened to
make a red criterion green, and every criterion asserts a statement
that holds mathematically: where a quantity is invariant only in a
pair, as Cotton is with Weyl under a projective change, the pair is
what is asserted.
"""

from fractions import Fraction
from math import isfinite
from time import perf_counter

import numpy as np

from protract.expr import diff, evaluate, parse
from protract.geometry import (
    verify_bianchi,
)
from protract.projective import check_weyl_cotton_invariance, gradient_upsilon
from protract.tensor import (
    PointTensor,
    antisymmetrize,
    max_residual,
    skew_trace_coefficient,
    sym_trace_coefficient,
    symmetrize,
    trace_free_skew,
    trace_free_sym,
)
from protract.tractor import (
    CotractorSection,
    S2CotractorSection,
    S2TractorSection,
    TractorSection,
    cotractor_nabla,
    metrisability_obstruction,
    metrisability_prolong_nabla,
    s2_cotractor_dual_pairing,
    s2_dual_nabla,
    s2_tractor_nabla,
    tractor_cotractor_pairing,
    tractor_curvature,
    tractor_nabla,
)
from protract.transport import (
    circle_loop,
    cotractor_bundle,
    holonomy_dimension,
    loop_matrix,
    reverse_loop,
    s2_tractor_bundle,
    sampled_pde_residual,
    seeded_loops,
    tractor_bundle,
    transported_sampler,
)

from gen import (
    float_points,
    invertible,
    poly,
    random_metric,
    rational_points,
    rng_for,
    section,
)
from oracles import (
    fd_christoffel,
    fd_curvature_stack,
    richardson_order,
    solve_projector_coefficient,
)


def _line(num, ok, detail):
    print("criterion %02d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))


def _field_at(field, x, shape=None):
    vals = [float(evaluate(c, list(x))) for c in field.components]
    return np.array(vals).reshape(shape) if shape else np.array(vals)


def _metric_fn(geom):
    n = geom.dim
    def fn(x):
        return np.array([[float(evaluate(geom.metric[i, j], list(x)))
                          for j in range(n)] for i in range(n)])
    return fn


def test_criterion_01_flat_baseline(flat2, flat3):
    started = perf_counter()
    rng = rng_for("criterion-1")
    for geom in (flat2, flat3):
        n = geom.dim
        pack = geom.pack()
        pts = rational_points(rng, n, 3)
        for field in (pack.riemann, pack.ricci, pack.weyl, pack.cotton):
            for pt in pts:
                assert field.at(pt).max_abs() == 0
        for sec in (section(rng, TractorSection, n),
                    section(rng, CotractorSection, n)):
            grid = tractor_curvature(geom, sec)
            assert max_residual([m for row in grid for m in row], pts) == 0
        wv, cv = metrisability_obstruction(
            geom, section(rng, S2TractorSection, n).t)
        for pt in pts:
            assert wv.at(pt).max_abs() == 0 and cv.at(pt).max_abs() == 0
    elapsed = perf_counter() - started
    ok = elapsed < 5.0
    _line(1, ok, "curvature, tractor curvatures, obstruction exactly zero "
                 "on flat charts (%.1fs)" % elapsed)
    assert ok, "flat baseline exceeded 5 s: %.1fs" % elapsed


def test_criterion_02_sphere3_curvature_stack(sphere3):
    started = perf_counter()
    n = 3
    pack = sphere3.pack()
    conn = sphere3.connection()
    pts = float_points(rng_for("criterion-2"), n, 20)
    worst = 0.0
    for x in pts:
        g = _field_at(sphere3.metric, x, (n, n))
        worst = max(worst, float(np.max(np.abs(
            _field_at(pack.ricci, x, (n, n)) - 2 * g))))
        worst = max(worst, abs(float(evaluate(pack.scalar.components[0],
                                              list(x))) - 6.0))
        worst = max(worst, float(np.max(np.abs(
            _field_at(pack.schouten, x, (n, n)) - g))))
        worst = max(worst, float(np.max(np.abs(_field_at(pack.weyl, x)))))
        worst = max(worst, float(np.max(np.abs(_field_at(pack.cotton, x)))))
    metric_fn = _metric_fn(sphere3)
    fd_worst = 0.0
    for x in pts:
        gamma = np.array([float(evaluate(conn.gamma[(c * n + a) * n + b],
                                         list(x)))
                          for c in range(n) for a in range(n)
                          for b in range(n)]).reshape((n, n, n))
        fd_worst = max(fd_worst, float(np.max(np.abs(
            gamma - fd_christoffel(metric_fn, list(x))))))
        fd = fd_curvature_stack(metric_fn, list(x), h=3e-4)
        for name, shape in (("riemann", (n,) * 4), ("ricci", (n, n)),
                            ("schouten", (n, n)), ("weyl", (n,) * 4),
                            ("cotton", (n,) * 3)):
            fd_worst = max(fd_worst, float(np.max(np.abs(
                _field_at(getattr(pack, name), x, shape) - fd[name]))))
        fd_worst = max(fd_worst, abs(float(evaluate(
            pack.scalar.components[0], list(x))) - fd["scalar"]))
    elapsed = perf_counter() - started
    ok = worst < 1e-8 and fd_worst < 1e-5 and elapsed < 30.0
    _line(2, ok, "round-sphere values off by %.1e, finite differences "
                 "agree to %.1e (%.1fs)" % (worst, fd_worst, elapsed))
    assert worst < 1e-8, "curvature stack error %.3e" % worst
    assert fd_worst < 1e-5, "finite-difference disagreement %.3e" % fd_worst
    assert elapsed < 30.0, "exceeded 30 s: %.1fs" % elapsed


def test_criterion_03_bianchi_and_cotton_weyl(sphere3, non_einstein3):
    rng = rng_for("criterion-3")
    for _ in range(2):
        geom = random_metric(rng, 3)
        pts = [p for p in rational_points(rng, 3, 3) if invertible(geom, p)]
        res = verify_bianchi(geom.pack(), geom.connection(), pts)
        assert res["first"] == 0, "first identity residual %r" % res["first"]
        assert res["second"] == 0, "second identity residual %r" % res["second"]
    fpts = float_points(rng, 3, 6)
    res = verify_bianchi(sphere3.pack(), sphere3.connection(), fpts)
    second, cw_float = res["second"], res["cotton_weyl"]
    assert second < 1e-7, "second identity float residual %.3e" % second
    cw_exact = verify_bianchi(
        non_einstein3.pack(), non_einstein3.connection(),
        rational_points(rng, 3, 4))["cotton_weyl"]
    assert cw_exact < 1e-7 and cw_float < 1e-7
    _line(3, True, "cycle identities exact on polynomial charts, "
                   "divergence relation residual %.1e" % max(cw_exact,
                                                             float(cw_float)))


def test_criterion_04_leibniz_duality(sphere2, non_einstein3):
    rng = rng_for("criterion-4")
    worst_pairs = {}
    for label, cls_u, cls_v, nab_u, nab_v, pairing in (
        ("tractor", TractorSection, CotractorSection,
         tractor_nabla, cotractor_nabla, tractor_cotractor_pairing),
        ("s2", S2TractorSection, S2CotractorSection,
         metrisability_prolong_nabla, s2_dual_nabla,
         s2_cotractor_dual_pairing),
    ):
        # 200 float samples on the sphere: 2 sections x 50 points x 2 dirs
        worst = 0.0
        for _ in range(2):
            u, v = section(rng, cls_u, 2), section(rng, cls_v, 2)
            pair = pairing(u, v)
            fam_u, fam_v = nab_u(sphere2, u), nab_v(sphere2, v)
            for x in float_points(rng, 2, 50):
                for a in range(2):
                    got = (evaluate(diff(pair, a), tuple(x))
                           - evaluate(pairing(fam_u[a], v), tuple(x))
                           - evaluate(pairing(u, fam_v[a]), tuple(x)))
                    worst = max(worst, abs(got))
        worst_pairs[label] = worst
        assert worst < 1e-10, "%s pair float residual %.3e" % (label, worst)
        # exact arithmetic on a curved polynomial chart
        u, v = section(rng, cls_u, 3), section(rng, cls_v, 3)
        pair = pairing(u, v)
        fam_u = nab_u(non_einstein3, u)
        fam_v = nab_v(non_einstein3, v)
        for pt in rational_points(rng, 3, 4):
            for a in range(3):
                got = (evaluate(diff(pair, a), tuple(pt))
                       - evaluate(pairing(fam_u[a], v), tuple(pt))
                       - evaluate(pairing(u, fam_v[a]), tuple(pt)))
                assert got == 0, "%s pair rational residual %r" % (label, got)
    _line(4, True, "both pairings Leibniz-exact; float residuals "
                   "tractor %.1e, s2 %.1e" % (worst_pairs["tractor"],
                                              worst_pairs["s2"]))


def test_criterion_05_projective_invariance(sphere2):
    rng = rng_for("criterion-5")
    spts = [[rng.uniform(-0.8, 0.8) for _ in range(2)] for _ in range(8)]
    s_res = check_weyl_cotton_invariance(
        sphere2, gradient_upsilon(parse("x0/3 + x1^2/5", 2), 2), spts)
    results = [("sphere", s_res, len(spts))]
    for i in range(2):
        geom = random_metric(rng, 3)
        ups = gradient_upsilon(poly(rng, 3), 3)
        pts = [p for p in rational_points(rng, 3, 4) if invertible(geom, p)]
        results.append(("poly3-%d" % i,
                        check_weyl_cotton_invariance(geom, ups, pts),
                        len(pts)))
    keys = ("weyl", "cotton", "cotton_pair")
    worst = {key: max(float(r[key]) for _, r, _ in results) for key in keys}
    poly3 = results[1:]
    ok = (all(r["points"] == n for _, r, n in results)
          and all(isfinite(r[key]) for _, r, _ in results for key in keys)
          and s_res["weyl"] < 1e-8 and s_res["cotton"] < 1e-7
          and all(r["weyl"] == 0 and r["cotton_pair"] == 0
                  and r["cotton"] > 0 for _, r, _ in poly3))
    _line(5, ok, "Weyl residual %.1e, Cotton residual %.1e raw and %.1e "
                 "after the Weyl shift, across %s"
          % (worst["weyl"], worst["cotton"], worst["cotton_pair"],
             [name for name, _, _ in results]))
    for name, res, npts in results:
        assert res["points"] == npts, "%s checked %d of %d points" % (
            name, res["points"], npts)
        for key in keys:
            assert isfinite(res[key]), "%s %s residual %r" % (
                name, key, res[key])
    # Weyl vanishes identically in dimension 2, so on the sphere the raw
    # Cotton tensor is itself invariant.
    assert s_res["weyl"] < 1e-8, "sphere Weyl changed by %.3e" % s_res["weyl"]
    assert s_res["cotton"] < 1e-7, (
        "sphere Cotton changed by %.3e" % s_res["cotton"])
    # In dimension 3 the Cotton tensor shifts by the one-form contracted
    # into Weyl, C_bar_abc = C_abc + Y_d W_ab^d_c, so the invariant is the
    # pair (W, C - Y.W). A nonzero raw Cotton change shows the shift is
    # exercised, so the exact pair residual cannot pass vacuously.
    for name, res, _ in poly3:
        assert res["weyl"] == 0, "%s Weyl residual %r" % (name, res["weyl"])
        assert res["cotton_pair"] == 0, (
            "%s Cotton minus Weyl shift residual %r" % (name,
                                                        res["cotton_pair"]))
        assert res["cotton"] > 0, (
            "%s raw Cotton change is zero: the Weyl shift is not "
            "exercised" % name)


def test_criterion_06_einstein_obstruction(flat2, flat3, sphere2, sphere3,
                                           non_einstein3):
    rng = rng_for("criterion-6")
    for geom in (flat2, flat3):
        wv, cv = metrisability_obstruction(geom, geom.metric_inverse())
        for pt in rational_points(rng, geom.dim, 3):
            assert wv.at(pt).max_abs() == 0 and cv.at(pt).max_abs() == 0
    vanish_worst = 0.0
    for geom in (sphere2, sphere3):
        wv, cv = metrisability_obstruction(geom, geom.metric_inverse())
        for x in float_points(rng, geom.dim, 8):
            vanish_worst = max(vanish_worst,
                               float(np.max(np.abs(_field_at(wv, x)))),
                               float(np.max(np.abs(_field_at(cv, x)))))
    assert vanish_worst < 1e-8, "sphere obstruction %.3e" % vanish_worst
    wv, cv = metrisability_obstruction(non_einstein3,
                                       non_einstein3.metric_inverse())
    detect = 0.0
    for x in float_points(rng, 3, 8):
        detect = max(detect, float(np.max(np.abs(_field_at(wv, x)))),
                     float(np.max(np.abs(_field_at(cv, x)))))
    assert detect > 1e-3, "non-Einstein chart not detected: %.3e" % detect
    n = 3
    pts = [p for p in rational_points(rng, n, 3)
           if invertible(non_einstein3, p)]
    for _ in range(50):
        s = section(rng, S2TractorSection, n)
        fam_m = metrisability_prolong_nabla(non_einstein3, s)
        fam_t = s2_tractor_nabla(non_einstein3, s)
        wv, cv = metrisability_obstruction(non_einstein3, s.t)
        for pt in pts:
            wpt, cpt = wv.at(pt), cv.at(pt)
            for a in range(n):
                slots = (fam_t[a] - fam_m[a]).at(pt)
                assert all(c == 0 for c in slots["t"].components)
                for c in range(n):
                    assert slots["nu"].components[c] == \
                        wpt.components[c * n + a]
                assert slots["rho"].components[0] == cpt.components[a]
    _line(6, True, "obstruction zero on Einstein charts, %.1e on the "
                   "non-Einstein chart, gap identity exact for 50 sections"
          % detect)


def test_criterion_07_projector_coefficients():
    for n in range(2, 6):
        rng = rng_for("criterion-7-sym-%d" % n)
        u = [[[Fraction(rng.randint(-9, 9), 5) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
        for b in range(n):
            for c in range(b + 1, n):
                for a in range(n):
                    u[c][b][a] = u[b][c][a]
        assert solve_projector_coefficient(n, u) == \
            sym_trace_coefficient(n) == Fraction(1, n + 1)
        for _ in range(50):
            comps = [Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                     for _ in range(n ** 3)]
            out = trace_free_sym(symmetrize(PointTensor(n, 2, 1, comps),
                                            (0, 1)))
            for c in range(n):
                assert sum(out.components[((d * n) + c) * n + d]
                           for d in range(n)) == 0
                assert sum(out.components[((c * n) + d) * n + d]
                           for d in range(n)) == 0
    for n in range(3, 6):
        rng = rng_for("criterion-7-skew-%d" % n)
        assert skew_trace_coefficient(n) == Fraction(1, n - 1)
        for _ in range(50):
            comps = [Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                     for _ in range(n ** 3)]
            out = trace_free_skew(antisymmetrize(PointTensor(n, 2, 1, comps),
                                                 (0, 1)))
            for c in range(n):
                assert sum(out.components[((d * n) + c) * n + d]
                           for d in range(n)) == 0
                assert sum(out.components[((c * n) + d) * n + d]
                           for d in range(n)) == 0
    _line(7, True, "trace-free projectors exact, coefficients 1/(n+1) "
                   "and 1/(n-1) reproduced for n=2..5 / n=3..5")


def test_criterion_08_holonomy_dimensions(flat2, sphere2, non_einstein2):
    started = perf_counter()
    box = [[-1, 1], [-1, 1]]
    flat_rep = holonomy_dimension(cotractor_bundle(flat2),
                                  seeded_loops(box, 5, seed=11),
                                  steps=1000)
    sphere_rep = holonomy_dimension(tractor_bundle(sphere2),
                                    seeded_loops(box, 5, seed=12),
                                    steps=1000)
    ne_rep = holonomy_dimension(s2_tractor_bundle(non_einstein2),
                                seeded_loops(box, 5, seed=13),
                                steps=1000)
    elapsed = perf_counter() - started
    ok = (flat_rep.fixed_dim == 3 and sphere_rep.fixed_dim == 3
          and ne_rep.fixed_dim < 6 and elapsed < 60.0)
    _line(8, ok, "fixed dimensions %d / %d / %d (rank %d) in %.1fs"
          % (flat_rep.fixed_dim, sphere_rep.fixed_dim, ne_rep.fixed_dim,
             ne_rep.rank, elapsed))
    assert flat_rep.fixed_dim == 3
    assert sphere_rep.fixed_dim == 3
    assert ne_rep.fixed_dim < 6
    assert elapsed < 60.0, "exceeded 60 s: %.1fs" % elapsed


def test_criterion_09_transported_solution(flat3):
    rng = rng_for("criterion-9")
    bundle = s2_tractor_bundle(flat3)
    init = np.array([rng.uniform(-1, 1) for _ in range(bundle.rank)])
    sampler = transported_sampler(bundle, [0.0, 0.0, 0.0], init,
                                  steps_per_unit=300)
    direction = np.array([0.5, 0.35, -0.4])
    pts = [list(u * direction) for u in np.linspace(0.08, 0.8, 10)]
    res = sampled_pde_residual(bundle, sampler, pts, h=1e-4)
    ok = res < 1e-6
    _line(9, ok, "trace-free derivative residual %.1e at 10 on-path points"
          % res)
    assert ok, "transported section violates the equation: %.3e" % res


def test_criterion_10_integrator_health(sphere2):
    bundle = tractor_bundle(sphere2)
    loop = circle_loop([0.15, -0.1], 0.5)
    fwd = loop_matrix(bundle, loop, steps=600)
    rev = loop_matrix(bundle, reverse_loop(loop), steps=600)
    rev_err = float(np.max(np.abs(rev @ fwd - np.eye(bundle.rank))))
    ref = loop_matrix(bundle, loop, steps=2048)
    errs = [float(np.max(np.abs(loop_matrix(bundle, loop, steps=s) - ref)))
            for s in (64, 128)]
    order = richardson_order(errs[0], errs[1])
    ok = rev_err < 1e-8 and 3.7 <= order <= 4.3
    _line(10, ok, "reverse-transport error %.1e, observed order %.2f"
          % (rev_err, order))
    assert rev_err < 1e-8, "reverse transport error %.3e" % rev_err
    assert 3.7 <= order <= 4.3, "observed order %.3f" % order
