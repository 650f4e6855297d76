"""Parallel transport, loop holonomy, and PDE-solution correspondence.

A bundle connection acting on sections with constant coefficients has no
derivative terms left, so applying it to a basis of frozen constant
sections reads off the coefficient matrices A_a(x) directly. Transport
then solves s'(u) = -v^a(u) A_a(c(u)) s(u) with classical fixed-step
RK4; since the right side is linear, whole frames transport as matrices,
and each RK4 step is one propagator matrix. A loop is transported as one
batch: the coefficients at the RK4 nodes of all its segments come from
one evaluation, and every step propagator from stacked matrix products;
only the product of the propagators runs step by step.

Curves are expression vectors in the single parameter x0; loops are
tuples of curve segments chained end to end.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .expr import Expr, ZERO, as_expr, const, cos, diff_all, sin, var
from .geometry import ChartGeometry, covariant_derivative
from .kernel import eval_table
from .program import compile_table
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
    "transport", "holonomy_dimension", "HolonomyReport",
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
    """Chart curve c(u) with Expr components in the parameter x0."""

    __slots__ = ("dim", "components", "velocity", "u0", "u1", "_table")

    def __init__(self, components: Sequence, u0=0, u1=1):
        comps = tuple(as_expr(c) for c in components)
        self.dim = len(comps)
        self.components = comps
        self.velocity = tuple(diff_all(comps, 0))
        self.u0 = u0
        self.u1 = u1
        if not float(u1) > float(u0):
            raise TransportError("segment needs u1 > u0")
        self._table = compile_table(list(comps) + list(self.velocity))

    @property
    def length(self) -> float:
        return float(self.u1) - float(self.u0)

    def sample(self, u: float):
        """Position and velocity arrays at parameter u."""
        pos, vel = self.sample_many([u])
        return pos[0], vel[0]

    def sample_many(self, us):
        """Position and velocity arrays, (N, dim) each, at N parameters."""
        # float parameters: an int or Fraction u0/u1 would select exact
        # arithmetic, which has no sin, cos or exp
        out = eval_table(self._table, np.asarray(us, dtype=float)[:, None])
        return out[:, :self.dim], out[:, self.dim:]

    def reversed(self) -> "CurveSegment":
        u = var(0)
        total = as_expr(self.u0) + as_expr(self.u1)
        flipped = [_substitute_param(c, total - u) for c in self.components]
        return CurveSegment(flipped, self.u0, self.u1)


def _substitute_param(e: Expr, replacement: Expr) -> Expr:
    from .expr import (Add, Call, Const, Mul, Neg, Pow, Var,
                       _postorder_apply, add, mul, neg, power)

    def rebuild(node, ch):
        if isinstance(node, Var):
            return replacement if node.index == 0 else node
        if isinstance(node, Const):
            return node
        if isinstance(node, Add):
            return add(*ch)
        if isinstance(node, Mul):
            return mul(*ch)
        if isinstance(node, Pow):
            return power(ch[0], node.exponent)
        if isinstance(node, Neg):
            return neg(ch[0])
        if isinstance(node, Call):
            return Call(node.name, ch[0])
        return node

    return _postorder_apply([e], rebuild)[0]


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


def _check_closed(loop: tuple, tol: float = 1e-12):
    pts = [_endpoints(seg) for seg in loop]
    for i, (_, end) in enumerate(pts):
        nxt = pts[(i + 1) % len(pts)][0]
        if float(np.max(np.abs(end - nxt))) > tol:
            raise NonClosedLoopError("loop is not closed (segment %d)" % i)


def line_segment(start, end) -> CurveSegment:
    u = var(0)
    comps = []
    for a, b in zip(start, end):
        comps.append(_coef(a) + u * (_coef(b) - _coef(a)))
    return CurveSegment(comps, 0, 1)


_TAU = Fraction(math.tau)


def circle_loop(center, radius, plane=(0, 1)) -> tuple:
    """Single-segment circle of given center and radius in a coordinate
    plane, parametrised over [0, 1]."""
    u = var(0)
    i, j = plane
    comps = [_coef(c) for c in center]
    comps[i] = comps[i] + _coef(radius) * cos(const(_TAU) * u)
    comps[j] = comps[j] + _coef(radius) * sin(const(_TAU) * u)
    return (CurveSegment(comps, 0, 1),)


def rectangle_loop(corner, width, height, plane=(0, 1)) -> tuple:
    """Four linear segments tracing an axis-aligned rectangle."""
    i, j = plane
    c0 = list(corner)
    c1 = list(corner); c1[i] += width
    c2 = list(corner); c2[i] += width; c2[j] += height
    c3 = list(corner); c3[j] += height
    return (line_segment(c0, c1), line_segment(c1, c2),
            line_segment(c2, c3), line_segment(c3, c0))


def seeded_loops(box, count: int, seed: int, kinds=("circle", "rect")) -> list:
    """Reproducible loops inside an evaluation box.

    box: per-coordinate [lo, hi] pairs. Circles and rectangles alternate
    (as available) in the (0,1) plane; remaining coordinates sit at the
    box centre jittered by the same generator.
    """
    rng = random.Random(seed)
    loops = []
    lows = [float(b[0]) for b in box]
    highs = [float(b[1]) for b in box]
    for k in range(count):
        kind = kinds[k % len(kinds)]
        centre = [lo + (hi - lo) * (0.35 + 0.3 * rng.random())
                  for lo, hi in zip(lows, highs)]
        span = min(highs[0] - lows[0], highs[1] - lows[1])
        if kind == "circle":
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

    def _build_A(self):
        n, r = self.dim, self.rank
        entries = [ZERO] * (n * r * r)
        for j in range(r):
            family = self.nabla(self.geom, self.basis_section(j))
            for a in range(n):
                col = self.flatten_fields(family[a])
                for i in range(r):
                    entries[(a * r + i) * r + j] = col[i]
        self._A_table = compile_table(entries)

    def coefficients_at(self, points) -> np.ndarray:
        """Connection coefficients at N points, as an (N, n, rank, rank)
        array: one stack of n coefficient matrices per point."""
        if self._A_table is None:
            self._build_A()
        flat = eval_table(self._A_table, points)
        return flat.reshape(len(flat), self.dim, self.rank, self.rank)


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
    def nabla(g, s):
        return flat_skew_prolong_nabla(s, g.connection())
    return TransportBundle("skew", SkewTractorSection, nabla, geom)


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

def _propagators(bundle: TransportBundle, jobs) -> list:
    """RK4 propagators, acting on coordinate vectors, of the segments of
    (segment, steps) jobs.

    The curves are sampled per segment at their 2*steps + 1 RK4 nodes;
    the connection coefficients and the node matrices -v^a A_a are then
    formed once for the nodes of all jobs, and the step propagators of
    each job in one batch. Only the product of the step propagators runs
    step by step.
    """
    r = bundle.rank
    eye = np.eye(r)
    hs, xs, vs = [], [], []
    for seg, steps in jobs:
        u0, u1 = float(seg.u0), float(seg.u1)
        h = (u1 - u0) / steps
        # node 2k is the start of step k (the end of step k-1), node 2k+1
        # its midpoint
        nodes = [u0]
        for k in range(steps):
            u = u0 + k * h
            nodes += (u + 0.5 * h, u + h)
        pos, vel = seg.sample_many(nodes)
        hs.append(h)
        xs.append(pos)
        vs.append(vel)
    v = np.concatenate(vs)
    N, dim = v.shape
    A = bundle.coefficients_at(np.concatenate(xs)).reshape(N, dim, r * r)
    # non-finite coefficients propagate as NaN, like the kernel's numerics
    with np.errstate(all="ignore"):
        M = -(v[:, None, :] @ A).reshape(N, r, r)

    out = []
    start = 0
    for h, vel in zip(hs, vs):
        Mj = M[start:start + len(vel)]
        start += len(vel)
        k1 = Mj[0:-1:2]
        m_mid = Mj[1::2]
        k2 = m_mid @ (eye + 0.5 * h * k1)
        k3 = m_mid @ (eye + 0.5 * h * k2)
        k4 = Mj[2::2] @ (eye + h * k3)
        S = eye
        for P in eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4):
            S = P @ S
        out.append(S)
    return out


def _segment_matrix(bundle: TransportBundle, seg: CurveSegment,
                    steps: int) -> np.ndarray:
    """RK4 propagator for one segment: the one-job case of _propagators."""
    return _propagators(bundle, [(seg, steps)])[0]


def _split_steps(loop: tuple, steps: int | None) -> list:
    lengths = [seg.length for seg in loop]
    total = sum(lengths)
    if steps is None:
        steps = max(1, round(1000 * total))
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


def loop_matrix(bundle: TransportBundle, curve, steps: int | None = None,
                check_closed: bool = False) -> np.ndarray:
    loop = _as_loop(curve)
    if check_closed:
        _check_closed(loop)
    S = np.eye(bundle.rank)
    for P in _propagators(bundle, zip(loop, _split_steps(loop, steps))):
        S = P @ S
    return S


def transport(bundle: TransportBundle, curve, initial,
              steps: int | None = None):
    """Transport an initial section value along a curve.

    initial: dict of PointTensors keyed by slot name (returned form), or
    a flat coordinate vector (a flat vector is returned then).
    """
    S = loop_matrix(bundle, curve, steps)
    if isinstance(initial, dict):
        return bundle.unflatten_point(S @ bundle.flatten_point(initial))
    return S @ np.asarray(initial, dtype=float)


class HolonomyReport:
    def __init__(self, rank: int, matrices: list, singular_values,
                 fixed_dim: int, seed):
        self.rank = rank
        self.matrices = matrices
        self.singular_values = [float(s) for s in singular_values]
        self.fixed_dim = fixed_dim
        self.seed = seed

    @property
    def loop_count(self) -> int:
        return len(self.matrices)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "loops": self.loop_count,
            "singular_values": self.singular_values,
            "fixed_dim": self.fixed_dim,
            "seed": self.seed,
        }


def holonomy_dimension(bundle: TransportBundle, loops, steps: int = 1000,
                       seed=None, sv_tol: float = 1e-6) -> HolonomyReport:
    """Fixed-subspace dimension of sampled loop holonomy.

    Transports the identity frame around each loop, stacks Hol_i - I,
    and counts singular values below sv_tol; that number upper-bounds
    the dimension of the parallel-section space.

    A parallel section is fixed by holonomy based at its own point, so
    loops starting elsewhere are lassoed: each holonomy is conjugated
    to the first loop's start point by transport along the straight
    connector. Without this the stacked fixed space would mix frames
    at unrelated points and the upper-bound property would be lost.
    """
    loop_list = [_as_loop(lp) for lp in loops]
    base = _endpoints(loop_list[0][0])[0].tolist()
    mats = []
    for loop in loop_list:
        hol = loop_matrix(bundle, loop, steps, check_closed=True)
        start = _endpoints(loop[0])[0].tolist()
        if max(abs(a - b) for a, b in zip(base, start)) > 1e-12:
            seg = line_segment(base, start)
            conn_steps = max(50, round((steps or 1000) * seg.length))
            T = _segment_matrix(bundle, seg, conn_steps)
            hol = np.linalg.solve(T, hol @ T)
        mats.append(hol)
    stacked = np.vstack([m - np.eye(bundle.rank) for m in mats])
    # No rank can be read off a non-finite holonomy (svd would raise);
    # NaN singular values let the caller fail the check they decide.
    sv = np.linalg.svd(stacked, compute_uv=False) \
        if np.isfinite(stacked).all() else np.full(bundle.rank, np.nan)
    fixed = int(np.sum(sv < sv_tol))
    return HolonomyReport(bundle.rank, mats, sv.tolist(), fixed, seed)


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
                            points, parallel_tol: float = 1e-7) -> float:
    """Max-abs residual of the source PDE for a parallel section.

    Raises NotParallelError when the connection applied to the section
    exceeds parallel_tol at any sample point, and returns NaN when that
    parallel residual is NaN.
    """
    pts = list(points)
    parallel = max_residual(bundle.nabla(bundle.geom, section), pts)
    if parallel > parallel_tol:
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
