"""Parallel transport, loop holonomy, and PDE-solution correspondence.

A bundle connection acting on sections with constant coefficients has no
derivative terms left, so applying it to a basis of frozen constant
sections reads off the coefficient matrices A_a(x) directly. Transport
then solves s'(u) = -v^a(u) A_a(c(u)) s(u) with classical fixed-step
RK4; since the right side is linear, whole frames transport as matrices,
and each RK4 step is one propagator matrix. The bundles of one
holonomy_dimensions call share one compiled coefficient table, and every
segment of every loop and every lasso connector is a job of one RK4
chain per rank: the jobs still stepping at step k take one stacked
matrix product. The table is evaluated in batches of consecutive steps,
none larger than the largest loop or connector, each bundle forms its
node matrices from its own block of columns, and a batch's step
propagators come from stacked matrix products at once. A coefficient
table is walked once per batch, so it computes each shared sum and
product prefix once (program.share_fold_prefixes).

Curves are expression vectors in the single parameter x0; loops are
tuples of curve segments chained end to end.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .expr import Expr, ZERO, as_expr, const, cos, diff_all, sin, var
from .geometry import ChartGeometry, covariant_derivative
from .kernel import eval_table
from .program import compile_table, share_fold_prefixes
from .tensor import (
    PointTensor,
    TensorField,
    max_magnitude,
    max_residual,
    trace_free_11,
    trace_free_skew,
    trace_free_sym,
)
from .tractor import (
    CotractorSection,
    S2CotractorSection,
    S2TractorSection,
    Section,
    SkewTractorSection,
    TractorSection,
    complete_pair,
    cotractor_nabla,
    flat_skew_prolong_nabla,
    metrisability_prolong_nabla,
    s2_dual_nabla,
    tractor_nabla,
)

__all__ = [
    "TransportError", "NotParallelError", "NonClosedLoopError",
    "CurveSegment", "line_segment", "circle_loop", "rectangle_loop",
    "seeded_loops", "reverse_loop", "TangentSection", "TransportBundle",
    "cotractor_bundle", "tractor_bundle", "s2_tractor_bundle",
    "s2_cotractor_bundle", "skew_bundle", "tangent_bundle", "BUNDLES",
    "transport", "holonomy_dimension", "holonomy_dimensions",
    "HolonomyReport",
    "solution_correspondence", "transported_sampler", "sampled_pde_residual",
]


class TransportError(ValueError):
    pass


def _coef(x) -> Expr:
    """Accept floats for curve data by passing through exact Fractions."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, float):
        return const(Fraction(x))
    return as_expr(x)


class NotParallelError(TransportError):
    pass


class NonClosedLoopError(TransportError):
    pass


# ---------------------------------------------------------------------------
# curves

class CurveSegment:
    """Chart curve c(u) with Expr components in the parameter x0.

    A reversed segment shares its table with the segment it reverses: it
    reads the components at u0 + u1 - u (that sum taken exactly and
    rounded once) and negates the velocity.
    """

    __slots__ = ("dim", "components", "u0", "u1", "_table", "_flip")

    def __init__(self, components: Sequence, u0=0, u1=1):
        comps = tuple(as_expr(c) for c in components)
        self.dim = len(comps)
        self.components = comps
        self.u0 = u0
        self.u1 = u1
        if not float(u1) > float(u0):
            raise TransportError("segment needs u1 > u0")
        self._table = compile_table(list(comps) + diff_all(comps, 0))
        self._flip = None

    @property
    def length(self) -> float:
        return float(self.u1) - float(self.u0)

    def sample_many(self, us):
        """Position and velocity arrays, (N, dim) each, at N parameters."""
        # float parameters: an int or Fraction u0/u1 would select exact
        # arithmetic, which has no sin, cos or exp
        us = np.asarray(us, dtype=float)
        if self._flip is not None:
            us = self._flip - us
        out = eval_table(self._table, us[:, None])
        pos, vel = out[:, :self.dim], out[:, self.dim:]
        # 0.0 - vel, not -vel: a velocity component that is constantly
        # zero stays +0.0, as the derivative of the reversed curve reads
        return (pos, vel) if self._flip is None else (pos, 0.0 - vel)

    def reversed(self) -> "CurveSegment":
        rev = copy.copy(self)
        rev._flip = float(Fraction(self.u0) + Fraction(self.u1)) \
            if self._flip is None else None
        return rev


def reverse_loop(curve) -> tuple:
    loop = _as_loop(curve)
    return tuple(seg.reversed() for seg in reversed(loop))


def _as_loop(curve) -> tuple:
    if isinstance(curve, CurveSegment):
        return (curve,)
    return tuple(curve)


def _endpoints(seg: CurveSegment) -> np.ndarray:
    """The start and end points of a segment, as the rows of one batch."""
    return seg.sample_many([float(seg.u0), float(seg.u1)])[0]


def _check_closed(loop: tuple) -> list:
    """The start point of a loop; NonClosedLoopError if it has a gap."""
    pts = [_endpoints(seg) for seg in loop]
    for i, (_, end) in enumerate(pts):
        nxt = pts[(i + 1) % len(pts)][0]
        if float(np.max(np.abs(end - nxt))) > 1e-12:
            raise NonClosedLoopError("loop is not closed (segment %d)" % i)
    return pts[0][0].tolist()


def line_segment(start, end) -> CurveSegment:
    u = var(0)
    comps = []
    for a, b in zip(start, end):
        comps.append(_coef(a) + u * (_coef(b) - _coef(a)))
    return CurveSegment(comps, 0, 1)


_TAU = Fraction(math.tau)


def circle_loop(center, radius) -> tuple:
    """Single-segment circle of given center and radius in the (0, 1)
    coordinate plane, parametrised over [0, 1]."""
    u = var(0)
    comps = [_coef(c) for c in center]
    comps[0] = comps[0] + _coef(radius) * cos(const(_TAU) * u)
    comps[1] = comps[1] + _coef(radius) * sin(const(_TAU) * u)
    return (CurveSegment(comps, 0, 1),)


def rectangle_loop(corner, width, height) -> tuple:
    """Four linear segments tracing an axis-aligned rectangle in the
    (0, 1) coordinate plane."""
    c0 = list(corner)
    c1 = list(corner); c1[0] += width
    c2 = list(corner); c2[0] += width; c2[1] += height
    c3 = list(corner); c3[1] += height
    return (line_segment(c0, c1), line_segment(c1, c2),
            line_segment(c2, c3), line_segment(c3, c0))


def seeded_loops(box, count: int, seed: int) -> list:
    """Reproducible loops inside an evaluation box.

    box: per-coordinate [lo, hi] pairs. Circles and rectangles alternate,
    a circle first, in the (0,1) plane; remaining coordinates sit at the
    box centre jittered by the same generator.
    """
    rng = random.Random(seed)
    loops = []
    lows = [float(b[0]) for b in box]
    highs = [float(b[1]) for b in box]
    for k in range(count):
        centre = [lo + (hi - lo) * (0.35 + 0.3 * rng.random())
                  for lo, hi in zip(lows, highs)]
        span = min(highs[0] - lows[0], highs[1] - lows[1])
        if k % 2 == 0:
            radius = span * (0.08 + 0.12 * rng.random())
            loops.append(circle_loop(centre, radius))
        else:
            w = span * (0.1 + 0.15 * rng.random())
            h = span * (0.1 + 0.15 * rng.random())
            corner = list(centre)
            corner[0] -= w / 2
            corner[1] -= h / 2
            loops.append(rectangle_loop(corner, w, h))
    return loops


# ---------------------------------------------------------------------------
# bundles

class TangentSection(Section):
    SLOT_SPEC = (("v", (1, 0)),)


def _tangent_nabla(geom: ChartGeometry, s: TangentSection):
    dv = covariant_derivative(geom.connection(), s.v)  # [b][a]
    n = geom.dim
    return [TangentSection(TensorField(n, 1, 0, [dv[b, a] for b in range(n)]),
                           validate=False) for a in range(n)]


def _slot_layout(section_cls, dim: int):
    """Independent-component layout: list of (slot index, flat index)."""
    layout = []
    for si, (name, (p, q)) in enumerate(section_cls.SLOT_SPEC):
        sym = section_cls.SLOT_SYM.get(name)
        rank = p + q
        if rank == 0:
            layout.append((si, 0))
        elif rank == 1:
            layout.extend((si, i) for i in range(dim))
        elif rank == 2:
            for b in range(dim):
                for c in range(dim):
                    if sym == "sym" and b > c:
                        continue
                    if sym == "skew" and b >= c:
                        continue
                    layout.append((si, b * dim + c))
        else:
            raise TransportError("unsupported slot rank %d" % rank)
    return layout


class TransportBundle:
    """A section type plus its connection over a chart geometry,
    flattened for numeric work."""

    def __init__(self, name: str, section_cls, nabla: Callable,
                 geom: ChartGeometry):
        self.name = name
        self.section_cls = section_cls
        self.nabla = nabla
        self.geom = geom
        self.dim = geom.dim
        self.layout = _slot_layout(section_cls, self.dim)
        self.rank = len(self.layout)
        self._A_table = None

    # --- section <-> coordinate vector ---

    def basis_section(self, j: int) -> Section:
        """Constant section with coordinate j set to one."""
        vec = [Fraction(0)] * self.rank
        vec[j] = Fraction(1)
        return self.constant_section(vec)

    def _expand(self, vec, zero) -> list:
        """Per slot, the full component list of the coordinate vector
        vec: each entry at its layout place, completed to its symmetric
        or skew partner by complete_pair; the places vec does not set
        hold zero."""
        dim = self.dim
        spec = self.section_cls.SLOT_SPEC
        slots = [[zero] * dim ** (p + q) for _, (p, q) in spec]
        for (si, flat), val in zip(self.layout, vec):
            slots[si][flat] = val
        for comps, (name, _) in zip(slots, spec):
            complete_pair(comps, dim, self.section_cls.SLOT_SYM.get(name),
                          zero)
        return slots

    def constant_section(self, vec) -> Section:
        slots = self._expand([as_expr(v) for v in vec], ZERO)
        return self.section_cls(*[
            TensorField(self.dim, p, q, comps) for comps, (_, (p, q))
            in zip(slots, self.section_cls.SLOT_SPEC)], validate=False)

    def flatten_fields(self, section: Section) -> list:
        out = []
        fields = [f for _, f in section.slots()]
        for si, flat in self.layout:
            out.append(fields[si].components[flat])
        return out

    def flatten_point(self, point_section: dict) -> np.ndarray:
        names = [name for name, _ in self.section_cls.SLOT_SPEC]
        out = np.empty(self.rank)
        for idx, (si, flat) in enumerate(self.layout):
            out[idx] = float(point_section[names[si]].components[flat])
        return out

    def unflatten_point(self, vec) -> dict:
        slots = self._expand([float(v) for v in vec], 0.0)
        return {name: PointTensor(self.dim, p, q, comps)
                for comps, (name, (p, q))
                in zip(slots, self.section_cls.SLOT_SPEC)}

    # --- connection coefficients ---

    def coefficient_entries(self) -> list:
        """The n * rank * rank entries of the coefficient matrices A_a, at
        (a * rank + i) * rank + j the entry A_a[i][j]: component i of
        nabla_a of basis section j."""
        n, r = self.dim, self.rank
        entries = [ZERO] * (n * r * r)
        for j in range(r):
            family = self.nabla(self.geom, self.basis_section(j))
            for a in range(n):
                col = self.flatten_fields(family[a])
                for i in range(r):
                    entries[(a * r + i) * r + j] = col[i]
        return entries

    def coefficient_table(self):
        """The compiled coefficient entries, built once per bundle."""
        if self._A_table is None:
            self._A_table = share_fold_prefixes(
                compile_table(self.coefficient_entries()))
        return self._A_table


def cotractor_bundle(geom: ChartGeometry) -> TransportBundle:
    return TransportBundle("cotractor", CotractorSection, cotractor_nabla,
                           geom)


def tractor_bundle(geom: ChartGeometry) -> TransportBundle:
    return TransportBundle("tractor", TractorSection, tractor_nabla, geom)


def s2_tractor_bundle(geom: ChartGeometry) -> TransportBundle:
    return TransportBundle("metrisability", S2TractorSection,
                           metrisability_prolong_nabla, geom)


def s2_cotractor_bundle(geom: ChartGeometry) -> TransportBundle:
    return TransportBundle("s2dual", S2CotractorSection, s2_dual_nabla, geom)


def skew_bundle(geom: ChartGeometry) -> TransportBundle:
    return TransportBundle("skew", SkewTractorSection,
                           flat_skew_prolong_nabla, geom)


def tangent_bundle(geom: ChartGeometry) -> TransportBundle:
    return TransportBundle("tangent", TangentSection, _tangent_nabla, geom)


# Every bundle factory by the name of the bundle it builds.
BUNDLES = {
    "cotractor": cotractor_bundle,
    "tractor": tractor_bundle,
    "metrisability": s2_tractor_bundle,
    "s2dual": s2_cotractor_bundle,
    "skew": skew_bundle,
    "tangent": tangent_bundle,
}


# ---------------------------------------------------------------------------
# transport

def _shared_table(bundles: Sequence[TransportBundle]):
    """One compiled table of the coefficient entries of bundles over one
    geometry, each bundle's entries a column block in bundle order. A
    single bundle keeps its own table."""
    if any(b.geom is not bundles[0].geom for b in bundles):
        raise TransportError("bundles must share one geometry")
    if len(bundles) == 1:
        return bundles[0].coefficient_table()
    return share_fold_prefixes(compile_table(
        [e for b in bundles for e in b.coefficient_entries()]))


def _rk4_nodes(seg: CurveSegment, steps: int):
    """The step h and the 2*steps + 1 RK4 nodes of a segment: step k
    starts at node 2k, u = u0 + k*h, then u + 0.5*h and u + h."""
    u0 = float(seg.u0)
    h = (float(seg.u1) - u0) / steps
    u = u0 + np.arange(steps) * h
    nodes = np.empty(2 * steps + 1)
    nodes[0] = u0
    nodes[1::2] = u + 0.5 * h
    nodes[2::2] = u + h
    return h, nodes


def _propagators(bundles: Sequence[TransportBundle], table, jobs,
                 batch_rows: int | None = None) -> list:
    """RK4 propagators, acting on coordinate vectors, of the segments of
    (segment, steps) jobs: per job, one propagator per bundle, in bundle
    order.

    The bundles of one rank run one RK4 chain for all the jobs. These go
    longest first, so the jobs still stepping at step k are a prefix and
    step k is one stacked matrix product for all of them. The curves are
    sampled at all their RK4 nodes; the shared coefficient table is
    evaluated in batches of consecutive steps of the jobs still stepping,
    of at most batch_rows nodes (by default all of them, one batch).
    """
    jobs = list(jobs)
    order = sorted(range(len(jobs)), key=lambda j: -jobs[j][1])
    steps = np.array([jobs[j][1] for j in order])
    hs, nodes = zip(*(_rk4_nodes(*jobs[j]) for j in order))
    x, v = (np.concatenate(s) for s in zip(*(
        jobs[j][0].sample_many(u) for j, u in zip(order, nodes))))
    hs, first = np.array(hs), np.cumsum(2 * steps + 1) - (2 * steps + 1)
    del nodes
    # each bundle's column block starts where the previous one ends
    offsets = list(itertools.accumulate(
        (x.shape[1] * b.rank ** 2 for b in bundles), initial=0))
    ranks = {b.rank: [k for k, c in enumerate(bundles) if c.rank == b.rank]
             for b in bundles}
    # per rank, every job's (bundles, r, r) product of the step
    # propagators so far
    chains = {r: np.tile(np.eye(r), (len(jobs), len(group), 1, 1))
              for r, group in ranks.items()}

    def advance(lo, hi, j0, j1):
        """Steps lo..hi-1 of the jobs j0..j1-1, each still stepping at
        lo; what a batch forms is freed when it returns."""
        ends = np.minimum(steps[j0:j1], hi)
        idx = np.concatenate([np.arange(f + 2 * lo, f + 2 * e + 1)
                              for f, e in zip(first[j0:j1], ends)])
        flat, vb = eval_table(table, x[idx]), v[idx]
        N, dim = vb.shape
        mats = []
        for r, group in ranks.items():
            # (N, bundles, r, r): each matrix product acts on the last two
            # axes and reads one node's (dim, r * r) block, so every bundle
            # gets the products a table of its own entries gives
            M = np.empty((N, len(group), r, r))
            for g, k in enumerate(group):
                A = flat[:, offsets[k]:offsets[k + 1]].reshape(N, dim, r * r)
                # non-finite coefficients propagate as NaN, as in the kernel
                with np.errstate(all="ignore"):
                    M[:, g] = -(vb[:, None, :] @ A).reshape(N, r, r)
            mats.append(M)
        del flat, A
        # the batch's rows step by step, each step's jobs a prefix: per
        # row the batch place of the node its step starts at, and its h
        lens = 2 * (ends - lo) + 1
        ks = np.arange(lo, hi)[:, None]
        live = steps[j0:j1] > ks
        start = (np.cumsum(lens) - lens + 2 * (ks - lo))[live]
        h = np.broadcast_to(hs[j0:j1], live.shape)[live][:, None, None, None]
        counts = live.sum(axis=1)
        for (r, S), M in zip(chains.items(), mats):
            eye = np.eye(r)
            k1, m_mid = M[start], M[start + 1]
            k2 = m_mid @ (eye + 0.5 * h * k1)
            k3 = m_mid @ (eye + 0.5 * h * k2)
            k4 = M[start + 2] @ (eye + h * k3)
            P = eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            for m, row in zip(counts, np.cumsum(counts) - counts):
                S[j0:j0 + m] = P[row:row + m] @ S[j0:j0 + m]

    for batch in _batches(steps, len(x) if batch_rows is None else batch_rows):
        advance(*batch)
    return [[chains[b.rank][i, ranks[b.rank].index(k)]
             for k, b in enumerate(bundles)] for i in np.argsort(order)]


def _batches(steps: np.ndarray, rows: int):
    """The (lo, hi, j0, j1) batches of _propagators: steps lo..hi-1 of
    the jobs j0..j1-1, for jobs of steps RK4 steps, longest first, in
    batches of at most rows nodes where one step of every job fits.

    A batch holds each job's node at lo and two more per step, so it
    grows while live[lo] + cum[hi] - cum[lo] <= rows, with live[k] the
    jobs still stepping at step k and cum[k] twice their sum below k.
    When one step of every job is too many, it takes slices of the
    jobs, of rows // 3 jobs each."""
    live = np.searchsorted(-steps, -np.arange(steps[0]))
    cum = np.concatenate(([0], np.cumsum(2 * live)))
    lo = 0
    while lo < steps[0]:
        n = int(live[lo])
        hi = max(lo + 1, int(np.searchsorted(cum, rows - n + cum[lo],
                                             side="right")) - 1)
        width = n if n + cum[hi] - cum[lo] <= rows else rows // 3
        for j0 in range(0, n, width):
            yield lo, hi, j0, min(n, j0 + width)
        lo = hi


def _segment_matrix(bundle: TransportBundle, seg: CurveSegment,
                    steps: int) -> np.ndarray:
    """RK4 propagator for one segment: the one-job case of _propagators."""
    return _propagators([bundle], bundle.coefficient_table(),
                        [(seg, steps)])[0][0]


def _split_steps(loop: tuple, steps: int) -> list:
    lengths = [seg.length for seg in loop]
    total = sum(lengths)
    out = []
    assigned = 0
    for i, L in enumerate(lengths):
        if i == len(lengths) - 1:
            out.append(max(1, steps - assigned))
        else:
            s = max(1, round(steps * L / total))
            out.append(s)
            assigned += s
    return out


def _product(bundles, props) -> list:
    """Per bundle, the product of the propagators props, in order."""
    mats = [np.eye(b.rank) for b in bundles]
    for ps in props:
        mats = [P @ S for P, S in zip(ps, mats)]
    return mats


def loop_matrix(bundle: TransportBundle, curve, steps: int,
                check_closed: bool = False) -> np.ndarray:
    """The RK4 propagator of a curve or loop: steps RK4 steps in all,
    split over its segments by parameter length, all from one batch."""
    loop = _as_loop(curve)
    if check_closed:
        _check_closed(loop)
    jobs = zip(loop, _split_steps(loop, steps))
    return _product([bundle], _propagators(
        [bundle], bundle.coefficient_table(), jobs))[0]


def transport(bundle: TransportBundle, curve, initial, steps: int):
    """Transport an initial section value along a curve in steps RK4 steps.

    initial: dict of PointTensors keyed by slot name (returned form), or
    a flat coordinate vector (a flat vector is returned then).
    """
    S = loop_matrix(bundle, curve, steps)
    if isinstance(initial, dict):
        return bundle.unflatten_point(S @ bundle.flatten_point(initial))
    return S @ np.asarray(initial, dtype=float)


class HolonomyReport:
    def __init__(self, rank: int, matrices: list, singular_values,
                 fixed_dim: int):
        self.rank = rank
        self.matrices = matrices
        self.singular_values = [float(s) for s in singular_values]
        self.fixed_dim = fixed_dim


# Singular values of the stacked Hol - I below this count as zero.
_SV_TOL = 1e-6


def holonomy_dimensions(bundles, loops, steps: int = 1000) -> list:
    """Fixed-subspace dimension of sampled loop holonomy, one
    HolonomyReport per bundle; the bundles share one geometry.

    Transports the identity frame around each loop, stacks Hol_i - I,
    and counts singular values below _SV_TOL; that number upper-bounds
    the dimension of the parallel-section space.

    A parallel section is fixed by holonomy based at its own point, so
    loops starting elsewhere are lassoed: each holonomy is conjugated
    to the first loop's start point by transport along the straight
    connector. Without this the stacked fixed space would mix frames
    at unrelated points and the upper-bound property would be lost.

    The bundles' coefficients are one compiled table, and every loop
    segment and connector is a job of one _propagators call: its RK4
    chains step all of them at once, and no coefficient batch has more
    nodes than the largest loop or connector.
    """
    bundles = list(bundles)
    table = _shared_table(bundles)
    loop_list = [_as_loop(lp) for lp in loops]
    starts = [_check_closed(loop) for loop in loop_list]
    parts = []   # per loop, the jobs of its segments and of its connector
    for loop, start in zip(loop_list, starts):
        conn = []
        if max(abs(a - b) for a, b in zip(starts[0], start)) > 1e-12:
            seg = line_segment(starts[0], start)
            conn = [(seg, max(50, round(steps * seg.length)))]
        parts += [list(zip(loop, _split_steps(loop, steps))), conn]
    rows = max(sum(2 * s + 1 for _, s in part) for part in parts)
    props = iter(_propagators(bundles, table, itertools.chain(*parts), rows))
    mats = [[] for _ in bundles]
    for segs, conn in zip(parts[::2], parts[1::2]):
        hols = _product(bundles, itertools.islice(props, len(segs)))
        if conn:
            Ts = next(props)
            hols = [np.linalg.solve(T, hol @ T) for T, hol in zip(Ts, hols)]
        for got, hol in zip(mats, hols):
            got.append(hol)
    reports = []
    for bundle, got in zip(bundles, mats):
        stacked = np.vstack([m - np.eye(bundle.rank) for m in got])
        # No rank can be read off a non-finite holonomy (svd would raise);
        # NaN singular values let the caller fail the check they decide.
        sv = np.linalg.svd(stacked, compute_uv=False) \
            if np.isfinite(stacked).all() else np.full(bundle.rank, np.nan)
        fixed = int(np.sum(sv < _SV_TOL))
        reports.append(HolonomyReport(bundle.rank, got, sv.tolist(), fixed))
    return reports


def holonomy_dimension(bundle: TransportBundle, loops,
                       steps: int = 1000) -> HolonomyReport:
    """holonomy_dimensions of a single bundle."""
    return holonomy_dimensions([bundle], loops, steps)[0]


# ---------------------------------------------------------------------------
# correspondence with the original PDEs

# The source equation of each prolongation bundle, by section type: the
# trace-free part of nabla of the leading slot (nu, t, beta) vanishes,
# under this projector. Both the symbolic and the sampled residual read it.
_TRACE_FREE = {
    TractorSection: trace_free_11,
    S2TractorSection: trace_free_sym,
    SkewTractorSection: trace_free_skew,
}


def _pde_residual_field(bundle: TransportBundle, section: Section):
    """Symbolic residual field of the source equation for the bundle."""
    geom = bundle.geom
    conn = geom.connection()
    cls = bundle.section_cls
    if cls is CotractorSection:
        d1 = covariant_derivative(conn, section.sigma)
        d2 = covariant_derivative(conn, d1)           # [a][b]
        P = geom.pack().schouten
        n = bundle.dim
        sigma = section.sigma.components[0]
        comps = [d2[a, b] + P[a, b] * sigma
                 for a in range(n) for b in range(n)]
        return TensorField(n, 0, 2, comps)
    if cls not in _TRACE_FREE:
        raise TransportError("no source equation for bundle %r" % bundle.name)
    return _TRACE_FREE[cls](covariant_derivative(conn, section.slots()[0][1]))


def solution_correspondence(bundle: TransportBundle, section: Section,
                            points) -> float:
    """Max-abs residual of the source PDE for a parallel section.

    Raises NotParallelError when the connection applied to the section
    exceeds 1e-7 at any sample point, and returns NaN when that
    parallel residual is NaN.
    """
    pts = list(points)
    parallel = max_residual(bundle.nabla(bundle.geom, section), pts)
    if parallel > 1e-7:
        raise NotParallelError(
            "section is not parallel: residual %.3e" % parallel)
    if parallel != parallel:
        return parallel   # NaN: not shown parallel, so no residual passes
    return max_residual([_pde_residual_field(bundle, section)], pts)


def transported_sampler(bundle: TransportBundle, base_point, initial_vec,
                        steps_per_unit: int = 200) -> Callable:
    """Extend an initial value to a function of x by straight-line
    transport from the base point; on a flat chart the result is the
    unique parallel section through the data."""
    base = [float(c) for c in base_point]
    init = np.asarray(initial_vec, dtype=float)

    def sample(x) -> np.ndarray:
        tgt = [float(c) for c in x]
        if max(abs(a - b) for a, b in zip(base, tgt)) < 1e-15:
            return init.copy()
        seg = line_segment(base, tgt)
        steps = max(20, round(steps_per_unit * _euclid(base, tgt)))
        return transport(bundle, seg, init, steps)

    return sample


def _euclid(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def sampled_pde_residual(bundle: TransportBundle, sampler: Callable,
                         points, h: float = 1e-4) -> float:
    """Source-PDE residual of a numerically sampled section.

    Partial derivatives of the leading slot come from central
    differences of the sampler; connection terms use the Christoffel
    symbols of the bundle's geometry at each point.
    """
    n = bundle.dim
    gamma = bundle.geom.connection().gamma
    cls = bundle.section_cls
    if cls not in _TRACE_FREE:
        raise TransportError(
            "sampled residual covers the prolongation bundles only")
    lead, (p, _) = cls.SLOT_SPEC[0]
    values = []
    for pt in points:
        centre = bundle.unflatten_point(sampler(pt))[lead]
        grads = []
        for a in range(n):
            hi = [float(c) for c in pt]; hi[a] += h
            lo = [float(c) for c in pt]; lo[a] -= h
            plus = bundle.unflatten_point(sampler(hi))[lead]
            minus = bundle.unflatten_point(sampler(lo))[lead]
            grads.append([(x - y) / (2 * h) for x, y in
                          zip(plus.components, minus.components)])
        gpt = gamma.at(pt)
        # nabla_a s^{b_1..b_p}, stored [b_1]..[b_p][a]
        comps = []
        for *upper, a in itertools.product(range(n), repeat=p + 1):
            val = grads[a][centre.flat(upper)]
            for d in range(n):
                for i, b in enumerate(upper):
                    moved = (*upper[:i], d, *upper[i + 1:])
                    val += float(gpt[b, a, d]) * float(centre[moved])
            comps.append(val)
        values.extend(_TRACE_FREE[cls](PointTensor(n, p, 1, comps))
                      .components)
    return max_magnitude(values)
