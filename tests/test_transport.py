"""Parallel transport, holonomy counting, and the solution correspondence."""

import types
from fractions import Fraction

import numpy as np
import pytest

from protract.cli import BUNDLED, load_geometry_spec
from protract.expr import add, diff, parse
from protract.kernel import eval_table
from protract.tensor import TensorField, max_residual
from protract.tractor import (
    CotractorSection,
    metric_lift,
    tractor_curvature,
)
from protract.transport import (
    BUNDLES,
    CurveSegment,
    NonClosedLoopError,
    NotParallelError,
    TransportError,
    circle_loop,
    cotractor_bundle,
    holonomy_dimension,
    holonomy_dimensions,
    line_segment,
    loop_matrix,
    rectangle_loop,
    reverse_loop,
    s2_cotractor_bundle,
    s2_tractor_bundle,
    sampled_pde_residual,
    seeded_loops,
    skew_bundle,
    solution_correspondence,
    tangent_bundle,
    tractor_bundle,
    transport,
    transported_sampler,
)

from gen import (invertible, random_metric, rational_points, rng_for,
                 section)
import oracles
from oracles import (central_diff, richardson_order,
                     sampled_pde_residual_reference)


def _rk4_reference(bundle, seg, steps):
    """Per-node RK4 propagator of one segment: each node matrix -v^a A_a
    from its own tensordot, each step formed alone."""
    eye = np.eye(bundle.rank)
    u0, u1 = float(seg.u0), float(seg.u1)
    h = (u1 - u0) / steps
    nodes = [u0]
    for k in range(steps):
        u = u0 + k * h
        nodes += (u + 0.5 * h, u + h)
    xs, vs = seg.sample_many(nodes)
    As = eval_table(bundle.coefficient_table(), xs).reshape(
        len(xs), bundle.dim, bundle.rank, bundle.rank)
    M = [-np.tensordot(v, A, axes=1) for v, A in zip(vs, As)]
    S = eye
    for k in range(steps):
        k1, m_mid = M[2 * k], M[2 * k + 1]
        k2 = m_mid @ (eye + 0.5 * h * k1)
        k3 = m_mid @ (eye + 0.5 * h * k2)
        k4 = M[2 * k + 2] @ (eye + h * k3)
        S = (eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)) @ S
    return S


def _assert_same_report(got, want):
    assert (got.rank, got.fixed_dim) == (want.rank, want.fixed_dim)
    assert got.singular_values == want.singular_values
    assert len(got.matrices) == len(want.matrices)
    for g, w in zip(got.matrices, want.matrices):
        assert g.tobytes() == w.tobytes()


class TestCurves:
    def test_line_segment_endpoints(self):
        seg = line_segment([0, 0], [1, 2])
        pos, _ = seg.sample_many([0.0, 1.0])
        assert np.allclose(pos, [[0, 0], [1, 2]])

    def test_velocity_matches_central_difference(self):
        seg = CurveSegment([parse("x0^2", 1), parse("x0^3 - x0", 1)])
        us = [0.2, 0.5, 0.9]
        for u, vel in zip(us, seg.sample_many(us)[1]):
            for i in range(2):
                fd = central_diff(lambda p: seg.sample_many(p)[0][0, i],
                                  [u], 0, h=1e-6)
                assert abs(vel[i] - fd) < 1e-8

    def test_circle_closes(self):
        loop = circle_loop([0.2, -0.1], 0.4)
        (start,), _ = loop[0].sample_many([loop[0].u0])
        (end,), _ = loop[-1].sample_many([loop[-1].u1])
        assert np.allclose(start, end, atol=1e-12)

    def test_rectangle_chains_and_closes(self):
        loop = rectangle_loop([0.0, 0.0], 0.5, 0.3)
        assert len(loop) == 4
        for a, b in zip(loop, loop[1:]):
            (end,), _ = a.sample_many([a.u1])
            (nxt,), _ = b.sample_many([b.u0])
            assert np.allclose(end, nxt, atol=1e-12)
        (first,), _ = loop[0].sample_many([loop[0].u0])
        (last,), _ = loop[-1].sample_many([loop[-1].u1])
        assert np.allclose(first, last, atol=1e-12)

    def test_reversed_segment(self):
        seg = line_segment([0, 1], [2, 5])
        rev = seg.reversed()
        (fwd_start,), (fwd_v,) = seg.sample_many([0.25])
        (rev_end,), (rev_v,) = rev.sample_many([0.75])
        assert np.allclose(fwd_start, rev_end)
        assert np.allclose(fwd_v, -rev_v)

    @pytest.mark.parametrize("steps", [1, 7, 64])
    def test_reversed_segment_reads_its_table_backwards(self, steps):
        # the same floats, bit for bit, as the segment compiled from the
        # substituted DAG, at every RK4 node, u0 and u1 included; and
        # reversing twice gives the original samples
        loops = [circle_loop([0.2, 0.1], 0.55), circle_loop([0, 0, 0], 0.4),
                 rectangle_loop([0.1, -0.3], 0.2, 0.45),
                 (line_segment([0, 1], [2, 5]),
                  line_segment([0.25, -1 / 3, 1], [-0.7, 0.1, 3]))]
        for seg in (seg for loop in loops for seg in loop):
            u0, h = float(seg.u0), seg.length / steps
            nodes = [u0] + [u0 + (k + f) * h for k in range(steps)
                            for f in (0.5, 1)]
            assert nodes[-1] == float(seg.u1)
            old = oracles.reversed_segment_reference(seg).sample_many(nodes)
            rev = seg.reversed()
            for new, want in ((rev.sample_many(nodes), old),
                              (rev.reversed().sample_many(nodes),
                               seg.sample_many(nodes))):
                for x, y in zip(new, want):
                    assert [v.hex() for v in x.ravel().tolist()] \
                        == [v.hex() for v in y.ravel().tolist()]

    def test_reverse_loop_order(self):
        loop = rectangle_loop([0.1, 0.1], 0.2, 0.2)
        rev = reverse_loop(loop)
        (a_end,), _ = loop[-1].sample_many([loop[-1].u1])
        (r_start,), _ = rev[0].sample_many([rev[0].u0])
        assert np.allclose(a_end, r_start)

    def test_seeded_loops_deterministic_and_closed(self):
        box = [[-1.0, 1.0], [-1.0, 1.0]]
        a = seeded_loops(box, 5, seed=42)
        b = seeded_loops(box, 5, seed=42)
        assert len(a) == 5
        for la, lb in zip(a, b):
            for sa, sb in zip(la, lb):
                pa, va = sa.sample_many([0.3])
                pb, vb = sb.sample_many([0.3])
                assert np.allclose(pa, pb) and np.allclose(va, vb)
        for loop in a:
            (start,), _ = loop[0].sample_many([loop[0].u0])
            (end,), _ = loop[-1].sample_many([loop[-1].u1])
            assert np.allclose(start, end, atol=1e-10)

    def test_seeded_loops_stay_inside_box(self):
        box = [[-1.0, 1.0], [-1.0, 1.0]]
        for loop in seeded_loops(box, 6, seed=7):
            for seg in loop:
                pos, _ = seg.sample_many(np.linspace(seg.u0, seg.u1, 9))
                assert np.all(pos >= -1.0 - 1e-9) and np.all(pos <= 1.0 + 1e-9)


class TestBundleMachinery:
    def test_rank_and_layout(self, flat2, sphere2, flat3):
        assert cotractor_bundle(flat2).rank == 3
        assert tractor_bundle(sphere2).rank == 3
        assert s2_tractor_bundle(flat3).rank == 10  # 6 sym + 3 + 1
        assert skew_bundle(flat3).rank == 6  # 3 skew + 3
        assert tangent_bundle(sphere2).rank == 2

    def test_basis_round_trip(self, flat2):
        bundle = cotractor_bundle(flat2)
        for j in range(bundle.rank):
            vec = np.zeros(bundle.rank)
            vec[j] = 1.0
            sec = bundle.basis_section(j)
            point = [Fraction(0), Fraction(0)]
            flat_vec = bundle.flatten_point(sec.at(point))
            assert np.allclose(flat_vec, vec)

    def test_unflatten_inverts_flatten(self, flat3):
        bundle = s2_tractor_bundle(flat3)
        rng = rng_for("flatten")
        vec = np.array([rng.uniform(-2, 2) for _ in range(bundle.rank)])
        pt_tensors = bundle.unflatten_point(vec)
        back = bundle.flatten_point(pt_tensors)
        assert np.allclose(back, vec)

    def test_flat_cotractor_coefficients_nilpotent(self, flat2):
        # only the sigma slot couples (to -mu_a); products of the direction
        # matrices vanish, which is why flat loops transport trivially
        bundle = cotractor_bundle(flat2)
        stacked = eval_table(bundle.coefficient_table(),
                             [[0.3, -0.4], [1.5, 2.0]]).reshape(2, 2, 3, 3)
        assert np.array_equal(stacked[0], stacked[1])
        A = stacked[0]
        for a in range(2):
            expected = np.zeros((3, 3))
            expected[0, 1 + a] = -1.0
            assert np.allclose(A[a], expected)
            for b in range(2):
                assert np.max(np.abs(A[a] @ A[b])) == 0.0


def _scalar_max(dim, exprs, pts):
    return max_residual([TensorField(dim, 0, 0, [e]) for e in exprs], pts)


def _rational_pts(geom, label):
    return [p for p in rational_points(rng_for(label), geom.dim, 4)
            if invertible(geom, p)]


class TestCoefficientMatrices:
    """The facts the suites' checks on the coefficient matrices assume."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_connection_is_d_plus_A(self, name):
        # nabla_a s = d_a s + A_a s in slot coordinates, for every bundle:
        # so an identity of the matrices A holds for every section
        geom = load_geometry_spec(name).geom
        n = geom.dim
        rng = rng_for("d+A " + name)
        pts = _rational_pts(geom, "d+A points " + name)
        assert pts
        for label, make in BUNDLES.items():
            if label == "skew" and name != "flat3":
                continue
            bundle = make(geom)
            r = bundle.rank
            A = bundle.coefficient_entries()
            s = section(rng, bundle.section_cls, n)
            x = bundle.flatten_fields(s)
            family = bundle.nabla(geom, s)
            gaps = [got - diff(x[i], a)
                    - add(*[A[(a * r + i) * r + j] * x[j] for j in range(r)])
                    for a in range(n)
                    for i, got in enumerate(bundle.flatten_fields(family[a]))]
            assert _scalar_max(n, gaps, pts) == 0, label

    @pytest.mark.parametrize("name", ["flat2", "flat3", "nonEinstein2",
                                      "nonEinstein3", "random3"])
    def test_curvature_of_A_is_omega(self, name):
        # F_ab = d_a A_b - d_b A_a + [A_a, A_b] is the matrix of the
        # tractor_curvature action on the basis sections, whose entries
        # are +-W and +-C: the holonomy suite reads those directly
        geom = random_metric(rng_for("F(A)"), 3) if name == "random3" \
            else load_geometry_spec(name).geom
        n = geom.dim
        pts = _rational_pts(geom, "F(A) points " + name)
        assert pts
        for bundle in (cotractor_bundle(geom), tractor_bundle(geom)):
            r = bundle.rank
            A = bundle.coefficient_entries()

            def at(a, i, j):
                return A[(a * r + i) * r + j]
            grids = [tractor_curvature(geom, bundle.basis_section(j))
                     for j in range(r)]
            F = [diff(at(b, i, j), a) - diff(at(a, i, j), b)
                 + add(*[at(a, i, k) * at(b, k, j) - at(b, i, k) * at(a, k, j)
                         for k in range(r)])
                 for a in range(n) for b in range(n)
                 for i in range(r) for j in range(r)]
            omega = [bundle.flatten_fields(grids[j][a][b])[i]
                     for a in range(n) for b in range(n)
                     for i in range(r) for j in range(r)]
            assert _scalar_max(n, [f - o for f, o in zip(F, omega)],
                               pts) == 0, bundle.name
            if name.startswith("flat"):
                assert _scalar_max(n, F, pts) == 0, bundle.name
            else:
                assert _scalar_max(n, F, pts) > 0, bundle.name


class TestTransport:
    def test_flat_loop_is_identity(self, flat2):
        bundle = cotractor_bundle(flat2)
        hol = loop_matrix(bundle, circle_loop([0.0, 0.0], 0.5), steps=200)
        assert np.allclose(hol, np.eye(3), atol=1e-12)

    def test_transport_linear_in_initial_value(self, sphere2):
        bundle = tractor_bundle(sphere2)
        curve = (line_segment([0.0, 0.0], [0.4, 0.3]),)
        u = np.array([1.0, 0.0, 0.5])
        v = np.array([0.0, 2.0, -1.0])
        tu = transport(bundle, curve, u, steps=200)
        tv = transport(bundle, curve, v, steps=200)
        tsum = transport(bundle, curve, 2 * u - 3 * v, steps=200)
        assert np.allclose(tsum, 2 * tu - 3 * tv, atol=1e-10)

    def test_transport_accepts_section_values(self, flat2):
        bundle = cotractor_bundle(flat2)
        sec = CotractorSection(parse("1", 2),
                               TensorField(2, 0, 1, [parse("2", 2), parse("-1", 2)]))
        curve = (line_segment([0.0, 0.0], [0.5, 0.5]),)
        out = transport(bundle, curve, sec.at([Fraction(0), Fraction(0)]), steps=100)
        # dict input comes back as a dict of point tensors; on a flat chart a
        # parallel cotractor keeps mu constant while sigma grows by mu . dx
        assert isinstance(out, dict)
        flat_vec = bundle.flatten_point(out)
        assert np.allclose(flat_vec, [1.5, 2.0, -1.0], atol=1e-10)

    def test_open_curve_rejected_for_loop_matrix(self, flat2):
        bundle = cotractor_bundle(flat2)
        open_curve = (line_segment([0.0, 0.0], [0.5, 0.0]),)
        with pytest.raises(NonClosedLoopError):
            loop_matrix(bundle, open_curve, steps=50, check_closed=True)

    def test_reverse_transport_inverts(self, sphere2):
        bundle = tractor_bundle(sphere2)
        loop = circle_loop([0.1, 0.2], 0.45)
        fwd = loop_matrix(bundle, loop, steps=600)
        rev = loop_matrix(bundle, reverse_loop(loop), steps=600)
        assert np.max(np.abs(rev @ fwd - np.eye(3))) < 1e-8

    @pytest.mark.parametrize("make", [tractor_bundle, s2_tractor_bundle])
    def test_segment_matrix_is_per_node_rk4_bitwise(self, sphere2, make):
        from protract.transport import _segment_matrix

        bundle = make(sphere2)
        steps = 40
        for seg in circle_loop([0.1, 0.2], 0.45) + (
                line_segment([0.0, 0.0], [0.4, 0.3]),):
            S = _rk4_reference(bundle, seg, steps)
            assert _segment_matrix(bundle, seg, steps).tobytes() == S.tobytes()

    @pytest.mark.parametrize("make", [tractor_bundle, s2_tractor_bundle])
    def test_loop_matrix_is_per_node_rk4_bitwise(self, sphere2, make):
        # the whole loop is one batch; its product must still equal the
        # per-node reference applied segment by segment
        from protract.transport import _split_steps

        bundle = make(sphere2)
        steps = 60
        for loop in (rectangle_loop([-0.2, 0.1], 0.5, 0.3),
                     circle_loop([0.1, 0.2], 0.45)):
            S = np.eye(bundle.rank)
            for seg, s in zip(loop, _split_steps(loop, steps)):
                S = _rk4_reference(bundle, seg, s) @ S
            assert loop_matrix(bundle, loop, steps).tobytes() == S.tobytes()

    def test_one_coefficient_batch_per_loop(self, sphere2, monkeypatch):
        import protract.transport as transport
        from protract.transport import _endpoints, _rk4_nodes, _split_steps

        calls = []
        inner = transport.eval_table

        def counted(table, points):
            calls.append((table.n_out, np.array(points)))
            return inner(table, points)

        monkeypatch.setattr(transport, "eval_table", counted)

        def coefficient_batches(n_out):
            # curve tables have 2 * dim entries; every other evaluation
            # is of the coefficient table
            assert {m for m, _ in calls} <= {2 * 2, n_out}
            return [pts for m, pts in calls if m == n_out]

        def loop_rows(loop):
            return sum(2 * s + 1 for s in _split_steps(loop, steps))

        bundle = tractor_bundle(sphere2)
        steps = 80
        rect = rectangle_loop([-0.2, 0.1], 0.5, 0.3)
        circle = circle_loop([0.1, 0.2], 0.45)
        for loop in (rect, circle):
            calls.clear()
            loop_matrix(bundle, loop, steps)
            assert [len(p) for p in coefficient_batches(2 * 3 ** 2)] \
                == [loop_rows(loop)]

        # holonomy: every segment of every loop and every lasso connector
        # from the first loop's start is a job of one RK4 chain
        loops = seeded_loops([[-1, 1], [-1, 1]], 4, seed=12)
        base = _endpoints(loops[0][0])[0]
        jobs = []
        for loop in loops:
            jobs += zip(loop, _split_steps(loop, steps))
            start = _endpoints(loop[0])[0]
            if np.max(np.abs(start - base)) > 1e-12:
                seg = line_segment(base.tolist(), start.tolist())
                jobs.append((seg, max(50, round(steps * seg.length))))
        assert len(jobs) > sum(map(len, loops))
        nodes = np.concatenate([seg.sample_many(_rk4_nodes(seg, s)[1])[0]
                                for seg, s in jobs])
        # three bundles share each batch: still one evaluation per batch,
        # of their one table, not three
        for bundles in ([bundle], [cotractor_bundle(sphere2), bundle,
                                   s2_tractor_bundle(sphere2)]):
            calls.clear()
            if len(bundles) == 1:
                holonomy_dimension(bundle, loops, steps=steps)
            else:
                holonomy_dimensions(bundles, loops, steps=steps)
            batches = coefficient_batches(
                2 * sum(b.rank ** 2 for b in bundles))
            # no batch is larger than one loop's nodes: the memory bound
            assert max(map(len, batches)) <= max(map(loop_rows, loops))
            assert len(batches) > 1
            # every node of every job is evaluated
            seen = {tuple(p) for pts in batches for p in pts.tolist()}
            assert {tuple(p) for p in nodes.tolist()} <= seen

    def test_rk4_observed_order(self, sphere2):
        bundle = tangent_bundle(sphere2)
        loop = circle_loop([0.15, -0.1], 0.5)
        ref = loop_matrix(bundle, loop, steps=2048)
        errs = []
        for steps in (64, 128):
            hol = loop_matrix(bundle, loop, steps=steps)
            errs.append(np.max(np.abs(hol - ref)))
        order = richardson_order(errs[0], errs[1])
        assert 3.7 < order < 4.3


class TestHolonomy:
    def test_flat_cotractor_full_fixed_space(self, flat2):
        loops = seeded_loops([[-1, 1], [-1, 1]], 5, seed=11)
        rep = holonomy_dimension(cotractor_bundle(flat2), loops, steps=400)
        assert rep.rank == 3
        assert rep.fixed_dim == 3

    def test_sphere_tractor_projectively_flat(self, sphere2):
        loops = seeded_loops([[-1, 1], [-1, 1]], 5, seed=12)
        rep = holonomy_dimension(tractor_bundle(sphere2), loops, steps=800)
        assert rep.fixed_dim == 3

    def test_non_einstein_metrisability_dimension_two(self, non_einstein2):
        loops = seeded_loops([[-1, 1], [-1, 1]], 5, seed=13)
        rep = holonomy_dimension(s2_tractor_bundle(non_einstein2), loops,
                                 steps=800)
        assert rep.rank == 6
        # the metric lift is always parallel and a second, independent
        # parallel section exists for this metric; curvature blocks the rest
        assert rep.fixed_dim == 2

    def test_flat_skew_dimension_six(self, flat3):
        # Lambda^2 T over a flat chart is flat: every direction of the
        # rank-6 bundle is the value of a parallel section
        loops = seeded_loops([[-1, 1], [-1, 1], [-1, 1]], 5, seed=14)
        rep = holonomy_dimension(skew_bundle(flat3), loops,
                                 steps=400)
        assert rep.rank == 6
        assert rep.fixed_dim == 6

    def test_skew_build_decides_flatness_once(self, flat3, monkeypatch):
        import protract.geometry as geometry

        calls = []

        def counted(conn, _riemann=geometry.riemann):
            calls.append(conn)
            return _riemann(conn)

        monkeypatch.setattr(geometry, "riemann", counted)
        # a geometry of its own, so no earlier test decided its flatness
        bundle = skew_bundle(geometry.ChartGeometry(flat3.metric))
        assert eval_table(bundle.coefficient_table(),
                          [[0.1, 0.2, 0.3]]).shape == (1, 3 * 6 * 6)
        assert len(calls) == 1

    @pytest.mark.parametrize("name,steps", [
        ("flat2", 60), ("sphere2", 60), ("nonEinstein2", 60),
        ("nonEinstein3", 30), ("sphere3", 12)])
    def test_shared_table_matches_per_bundle_reference(self, name, steps):
        # the three bundles of the holonomy suite through one coefficient
        # table give bitwise the holonomy each gave through its own
        spec = load_geometry_spec(name)
        bundles = [make(spec.geom) for make in (
            cotractor_bundle, tractor_bundle, s2_tractor_bundle)]
        loops = seeded_loops(spec.box, 5, seed=7)
        reps = holonomy_dimensions(bundles, loops, steps=steps)
        for bundle, rep in zip(bundles, reps):
            _assert_same_report(rep, oracles.holonomy_dimension_reference(
                bundle, loops, steps=steps))

    @pytest.mark.parametrize("name,steps", [("sphere3", 12),
                                            ("nonEinstein3", 16)])
    def test_rank_chains_match_per_bundle_reference(self, name, steps):
        # interleaved ranks: each rank runs one stacked RK4 chain, and
        # every propagator is bitwise the one the reference chain of its
        # rank gave, in bundle order
        from protract.transport import (_propagators, _shared_table,
                                        _split_steps)

        spec = load_geometry_spec(name)
        bundles = [make(spec.geom) for make in (
            s2_tractor_bundle, cotractor_bundle, s2_cotractor_bundle,
            tractor_bundle)]
        assert [b.rank for b in bundles] == [10, 4, 10, 4]
        table = _shared_table(bundles)
        for loop in (rectangle_loop([-0.2, 0.1, 0.3], 0.5, 0.3),
                     circle_loop([0.1, 0.2, -0.1], 0.45)):
            jobs = list(zip(loop, _split_steps(loop, steps)))
            got = _propagators(bundles, table, jobs)
            want = oracles.propagators_rank_chain_reference(bundles, table,
                                                            jobs)
            assert len(got) == len(want) == len(loop)
            for props, refs in zip(got, want):
                assert [p.shape for p in props] == [(b.rank, b.rank)
                                                    for b in bundles]
                assert [p.tobytes() for p in props] == [
                    p.tobytes() for p in refs]

    @pytest.mark.parametrize("make,name", [(s2_cotractor_bundle, "sphere2"),
                                           (skew_bundle, "flat3")])
    def test_single_bundle_matches_reference(self, make, name):
        spec = load_geometry_spec(name)
        bundle = make(spec.geom)
        loops = seeded_loops(spec.box, 5, seed=8)
        rep, = holonomy_dimensions([bundle], loops, steps=40)
        _assert_same_report(rep, oracles.holonomy_dimension_reference(
            bundle, loops, steps=40))

    def test_bundles_must_share_one_geometry(self, flat2, sphere2):
        loops = seeded_loops([[-1, 1], [-1, 1]], 2, seed=9)
        with pytest.raises(TransportError, match="one geometry"):
            holonomy_dimensions([cotractor_bundle(flat2),
                                 cotractor_bundle(sphere2)], loops, steps=20)


class TestOneChain:
    """Every loop segment and lasso connector of a holonomy_dimensions
    call steps in one RK4 chain per rank, from bounded coefficient
    batches: bitwise the holonomy of one batch and one chain per loop
    and connector (oracles.holonomy_dimensions_reference)."""

    @staticmethod
    def _coefficient_rows(monkeypatch, n_out):
        import protract.transport as transport

        rows = []
        inner = transport.eval_table

        def counted(table, points):
            if table.n_out == n_out:
                rows.append(len(points))
            return inner(table, points)

        monkeypatch.setattr(transport, "eval_table", counted)
        monkeypatch.setattr(oracles, "eval_table", counted)
        return rows

    @pytest.mark.parametrize("steps", [12, 60])
    @pytest.mark.parametrize("name", ["flat2", "flat3", "sphere2", "sphere3",
                                      "nonEinstein2", "nonEinstein3"])
    def test_bundled_specs_match_reference(self, name, steps):
        spec = load_geometry_spec(name)
        bundles = [make(spec.geom) for make in (
            cotractor_bundle, tractor_bundle, s2_tractor_bundle)]
        loops = seeded_loops(spec.box, 5, seed=steps)
        got = holonomy_dimensions(bundles, loops, steps=steps)
        want = oracles.holonomy_dimensions_reference(bundles, loops,
                                                     steps=steps)
        for g, w in zip(got, want, strict=True):
            _assert_same_report(g, w)

    @pytest.mark.parametrize("name", ["sphere3", "nonEinstein3"])
    def test_mixed_ranks_match_reference(self, name):
        spec = load_geometry_spec(name)
        bundles = [make(spec.geom) for make in (
            s2_tractor_bundle, cotractor_bundle, s2_cotractor_bundle,
            tractor_bundle)]
        assert [b.rank for b in bundles] == [10, 4, 10, 4]
        loops = seeded_loops(spec.box, 5, seed=4)
        got = holonomy_dimensions(bundles, loops, steps=16)
        want = oracles.holonomy_dimensions_reference(bundles, loops, steps=16)
        for g, w in zip(got, want, strict=True):
            _assert_same_report(g, w)

    def test_batch_bound_binds_on_a_long_connector(self, sphere2,
                                                   monkeypatch):
        # small loops in opposite corners: each lasso connector has 101
        # nodes, a loop 25, so the connector sets the batch bound
        bundles = [tractor_bundle(sphere2), s2_tractor_bundle(sphere2)]
        loops = [circle_loop([-0.7, -0.7], 0.05),
                 rectangle_loop([0.6, 0.6], 0.1, 0.05),
                 circle_loop([0.7, -0.6], 0.04)]
        n_out = 2 * (3 ** 2 + 6 ** 2)
        rows = self._coefficient_rows(monkeypatch, n_out)
        want = oracles.holonomy_dimensions_reference(bundles, loops,
                                                     steps=12)
        parent = list(rows)
        assert max(parent) == 101 and sorted(parent)[-3] < 101
        rows.clear()
        got = holonomy_dimensions(bundles, loops, steps=12)
        for g, w in zip(got, want, strict=True):
            _assert_same_report(g, w)
        # the bound binds: more than one batch, none above it
        assert len(rows) > 1 and max(rows) <= max(parent)
        assert sum(rows) >= sum(parent)

    def test_nan_row_fails_the_same_propagators(self, sphere2, monkeypatch):
        import protract.transport as transport
        from protract.transport import _propagators, _rk4_nodes, _shared_table

        bundles = [cotractor_bundle(sphere2), tractor_bundle(sphere2),
                   s2_tractor_bundle(sphere2)]
        table = _shared_table(bundles)
        loop = rectangle_loop([-0.2, 0.1], 0.5, 0.3)
        jobs = list(zip(loop, [7, 3, 7, 3])) + [
            (line_segment([0.0, 0.0], [0.4, 0.3]), 20)]
        seg, steps = jobs[2]
        bad = seg.sample_many(_rk4_nodes(seg, steps)[1])[0][5]
        inner = transport.eval_table

        def poisoned(tab, points):
            out = inner(tab, points)
            if tab is table:
                out[np.all(np.asarray(points) == bad, axis=1)] = np.nan
            return out

        monkeypatch.setattr(transport, "eval_table", poisoned)
        monkeypatch.setattr(oracles, "eval_table", poisoned)
        want = oracles.propagators_rank_chain_reference(bundles, table, jobs)
        # one batch; batches of several steps of every job still
        # stepping; and single steps of two jobs at a time
        for rows in (None, 15, 6):
            got = _propagators(bundles, table, jobs, rows)
            finite = [[np.isfinite(p).all() for p in props] for props in got]
            assert finite == [[np.isfinite(p).all() for p in props]
                              for props in want]
            assert finite[2] == [False] * 3 and sum(map(all, finite)) == 4
            for props, refs in zip(got, want):
                for p, w in zip(props, refs):
                    np.testing.assert_array_equal(p, w)

    def test_batches_are_the_step_by_step_plan(self):
        # the (lo, hi, j0, j1) batches of random step lists, longest job
        # first, under bounds from below one step of every job (slices
        # of rows // 3 jobs) to all the nodes (one batch)
        from protract.transport import _batches

        rng = rng_for("propagator-batches")
        sliced = 0
        for trial in range(300):
            jobs = rng.randint(1, 12)
            steps = np.array(sorted((rng.randint(1, 40) for _ in range(jobs)),
                                    reverse=True))
            nodes = int(np.sum(2 * steps + 1))
            rows = rng.choice([rng.randint(3, 3 * jobs + 2),
                               rng.randint(3 * jobs, nodes), nodes,
                               nodes + rng.randint(1, 50)])
            want = oracles.propagator_batches_reference(steps, rows)
            assert list(_batches(steps, rows)) == want
            sliced += any(j1 - j0 < jobs and lo == 0
                          for lo, hi, j0, j1 in want)
        assert sliced > 30

    @pytest.mark.parametrize("steps", [1, 7, 200])
    @pytest.mark.parametrize("ends", [(Fraction(1, 3), Fraction(7, 5)),
                                      (0.1, 0.75)])
    def test_rk4_nodes_are_the_loop_formula(self, steps, ends):
        from protract.transport import _rk4_nodes

        seg = CurveSegment([parse("x0", 1), parse("2*x0", 1)], *ends)
        u0, u1 = float(seg.u0), float(seg.u1)
        h = (u1 - u0) / steps
        nodes = [u0]
        for k in range(steps):
            u = u0 + k * h
            nodes += (u + 0.5 * h, u + h)
        got_h, got = _rk4_nodes(seg, steps)
        assert got_h == h
        assert got.tobytes() == np.array(nodes).tobytes()


class TestCorrespondence:
    def test_flat_gradient_cotractor_exact(self, flat2):
        sigma = parse("3*x0 - x1 + 2", 2)
        mu = TensorField(2, 0, 1, [diff(sigma, 0), diff(sigma, 1)])
        sec = CotractorSection(sigma, mu)
        res = solution_correspondence(cotractor_bundle(flat2), sec,
                                      [[0.0, 0.0], [0.5, -0.5], [0.25, 0.75]])
        assert res == 0.0

    def test_metric_lift_on_sphere3(self, sphere3):
        lift = metric_lift(sphere3)
        res = solution_correspondence(s2_tractor_bundle(sphere3), lift,
                                      [[0.0, 0.0, 0.0], [0.3, -0.2, 0.4]])
        assert res < 1e-7

    def test_non_parallel_section_rejected(self, flat2):
        sigma = parse("x0^2", 2)
        mu = TensorField(2, 0, 1, [parse("0", 2), parse("0", 2)])
        sec = CotractorSection(sigma, mu)
        with pytest.raises(NotParallelError):
            solution_correspondence(cotractor_bundle(flat2), sec, [[0.4, 0.2]])


class TestTransportedSolutions:
    def test_sampler_reproduces_metric_lift(self, non_einstein2):
        bundle = s2_tractor_bundle(non_einstein2)
        lift = metric_lift(non_einstein2)
        base = [0.0, 0.0]
        init = bundle.flatten_point(lift.at([Fraction(0), Fraction(0)]))
        sampler = transported_sampler(bundle, base, init, steps_per_unit=400)
        for target in ([0.4, 0.1], [-0.3, 0.5]):
            got = sampler(target)
            want = bundle.flatten_point(lift.at(target))
            assert np.max(np.abs(np.asarray(got) - want)) < 1e-9

    def test_transported_section_solves_pde(self, flat3):
        # transport a non-lift initial value and check the projected
        # derivative of the leading slot by finite differences
        bundle = s2_tractor_bundle(flat3)
        rng = rng_for("pde-residual")
        init = np.zeros(bundle.rank)
        init[0] = 1.0
        init[3] = 0.5
        init[7] = -0.25
        sampler = transported_sampler(bundle, [0.0, 0.0, 0.0], init,
                                      steps_per_unit=300)
        pts = [[rng.uniform(-0.4, 0.4) for _ in range(3)] for _ in range(4)]
        res = sampled_pde_residual(bundle, sampler, pts, h=1e-4)
        assert res < 1e-6

    @pytest.mark.parametrize("make_bundle", [tractor_bundle,
                                             s2_tractor_bundle])
    @pytest.mark.parametrize("geom_name", ["sphere2", "non_einstein2"])
    def test_sampled_residual_is_the_per_type_one(self, request, monkeypatch,
                                                  make_bundle, geom_name):
        # curved charts, so the Christoffel terms are not all zero; every
        # residual component is compared, not only their maximum
        import protract.tensor
        import protract.transport

        for module in (protract.tensor, protract.transport):
            monkeypatch.setattr(module, "max_magnitude", tuple)
        bundle = make_bundle(request.getfixturevalue(geom_name))
        rng = rng_for("sampled-%s-%s" % (bundle.name, geom_name))
        init = [rng.uniform(-1, 1) for _ in range(bundle.rank)]
        sampler = transported_sampler(bundle, [0.0, 0.0], init,
                                      steps_per_unit=100)
        pts = [[rng.uniform(-0.4, 0.4) for _ in range(2)] for _ in range(3)]
        got = np.asarray(sampled_pde_residual(bundle, sampler, pts))
        want = np.asarray(sampled_pde_residual_reference(bundle, sampler,
                                                         pts))
        assert got.shape == want.shape == (len(pts) * 2 ** (
            bundle.section_cls.SLOT_SPEC[0][1][0] + 1),)
        assert np.isfinite(got).all() and np.max(np.abs(got)) > 0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_package_attribute_is_the_transport_module():
    from protract import transport as module

    assert isinstance(module, types.ModuleType)
    assert module.transport is transport
