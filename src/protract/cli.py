"""Command-line front end: geometry-spec files, check suites, reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
input (bad spec, unknown suite, missing data for a suite).

Reports are deterministic for a given (spec, seed): JSON output carries
no timing and is dumped with sorted keys, so repeated runs are
byte-identical. Wall-clock timing goes to the human-readable stream
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .expr import ZERO, EvalDomainError, Expr, ExprError, parse
from .geometry import (
    ChartGeometry,
    GeometryError,
    cotton_weyl_relation,
    verify_bianchi,
)
from .projective import (
    Upsilon,
    check_weyl_cotton_invariance,
    einstein_deviation,
    gradient_upsilon,
)
from .tensor import TensorField, max_magnitude, max_residual
from .tractor import (
    CotractorSection,
    S2CotractorSection,
    S2TractorSection,
    Section,
    TractorSection,
    complete_pair,
    cotractor_nabla,
    metric_lift,
    metrisability_obstruction,
    metrisability_prolong_nabla,
    s2_cotractor_dual_pairing,
    s2_dual_nabla,
    s2_tractor_nabla,
    s2_tractor_nabla_expanded,
    tractor_cotractor_pairing,
    tractor_curvature,
    tractor_nabla,
)
from .transport import (
    BUNDLES,
    TransportError,
    circle_loop,
    cotractor_bundle,
    holonomy_dimension,
    line_segment,
    loop_matrix,
    rectangle_loop,
    reverse_loop,
    s2_tractor_bundle,
    seeded_loops,
    solution_correspondence,
    tractor_bundle,
)

BUNDLED = ("flat2", "flat3", "sphere2", "sphere3", "nonEinstein2",
           "nonEinstein3")


class SpecError(ValueError):
    pass


@dataclass
class GeometrySpec:
    dim: int
    coords: list
    geom: ChartGeometry
    phi: Expr | None
    upsilon: list | None
    box: list
    sample_count: int
    sample_seed: int
    fixed_points: list | None
    mode: str
    digest: str
    name: str


@dataclass
class Check:
    name: str
    residual: float
    threshold: float
    passed: bool


@dataclass
class Report:
    command: str
    spec_digest: str
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def add(self, name: str, residual, threshold) -> Check:
        c = Check(name, float(residual), float(threshold),
                  float(residual) < float(threshold))
        self.checks.append(c)
        return c

    @property
    def status(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "spec_digest": self.spec_digest,
            "checks": [
                {"name": c.name, "residual": c.residual,
                 "threshold": c.threshold, "pass": c.passed}
                for c in self.checks
            ],
            "metrics": self.metrics,
            "status": self.status,
        }


def load_geometry_spec(source: str) -> GeometrySpec:
    """Load a spec from a file path or a bundled name (flat2, sphere3, ...)."""
    if source in BUNDLED:
        raw = (resources.files("protract") / "data" / (source + ".json")) \
            .read_bytes()
        name = source
    else:
        try:
            with open(source, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise SpecError("cannot read spec %r: %s" % (source, e)) from e
        name = source
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SpecError("spec %r is not valid JSON: %s" % (source, e)) from e
    digest = hashlib.sha256(raw).hexdigest()
    return _build_spec(data, digest, name)


def _build_spec(data: dict, digest: str, name: str) -> GeometrySpec:
    try:
        dim = int(data["dim"])
        coords = list(data["coords"])
        rows = data["metric"]
        box = [list(map(float, pair)) for pair in data["box"]]
        mode = data.get("mode", "float")
    except (KeyError, TypeError, ValueError) as e:
        raise SpecError("spec missing or malformed field: %s" % e) from e
    if dim < 2:
        raise SpecError("dim must be at least 2")
    if len(coords) != dim:
        raise SpecError("coords length != dim")
    if len(box) != dim or any(not lo < hi for lo, hi in box):
        raise SpecError("box needs %d nonempty [lo, hi] pairs" % dim)
    if mode not in ("rational", "float"):
        raise SpecError("mode must be rational or float")
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise SpecError("metric must be a %dx%d grid" % (dim, dim))
    try:
        entries = [parse(str(rows[i][j]), dim)
                   for i in range(dim) for j in range(dim)]
    except ExprError as e:
        raise SpecError("metric entry failed to parse: %s" % e) from e
    try:
        geom = ChartGeometry(TensorField(dim, 0, 2, entries))
    except GeometryError as e:
        raise SpecError("metric validation failed: %s" % e) from e

    phi = None
    if data.get("phi") is not None:
        try:
            phi = parse(str(data["phi"]), dim)
        except ExprError as e:
            raise SpecError("phi failed to parse: %s" % e) from e
    upsilon = None
    if data.get("upsilon") is not None:
        try:
            upsilon = [parse(str(u), dim) for u in data["upsilon"]]
        except ExprError as e:
            raise SpecError("upsilon failed to parse: %s" % e) from e
        if len(upsilon) != dim:
            raise SpecError("upsilon needs %d entries" % dim)

    samples = data.get("samples", {})
    fixed = None
    count, seed = 20, 0
    if "points" in samples:
        fixed = [list(p) for p in samples["points"]]
        count = len(fixed)
    else:
        count = int(samples.get("count", 20))
        seed = int(samples.get("seed", 0))
    return GeometrySpec(dim, coords, geom, phi, upsilon, box, count, seed,
                        fixed, mode, digest, name)


def sample_points(spec: GeometrySpec, seed: int | None = None,
                  count: int | None = None) -> list:
    """Seeded points inside the box; Fractions in rational mode."""
    if spec.fixed_points is not None and seed is None and count is None:
        if spec.mode == "rational":
            return [[Fraction(c).limit_denominator(10**6) for c in p]
                    for p in spec.fixed_points]
        return [[float(c) for c in p] for p in spec.fixed_points]
    rng = random.Random(spec.sample_seed if seed is None else seed)
    n = count if count is not None else spec.sample_count
    pts = []
    for _ in range(n):
        pt = []
        for lo, hi in spec.box:
            if spec.mode == "rational":
                frac = Fraction(rng.randint(5, 59), 64)
                pt.append(Fraction(lo) + (Fraction(hi) - Fraction(lo)) * frac)
            else:
                pt.append(lo + (hi - lo) * rng.uniform(0.08, 0.92))
        pts.append(pt)
    return pts


def _eval_points(spec: GeometrySpec, seed=None, count=None) -> list:
    pts = sample_points(spec, seed, count)
    ok = []
    for p in pts:
        try:
            spec.geom.check_invertible_at(p)
        except (GeometryError, EvalDomainError):
            continue
        ok.append(p)
    if not ok:
        raise SpecError("no usable sample points inside the box")
    return ok


def _unless_nonfinite(residual, *evidence) -> float:
    """The residual of a check chosen by a branch on evidence; NaN when
    any evidence is not finite, so a decision made on it cannot pass."""
    return residual if all(map(math.isfinite, evidence)) else math.nan


# ---------------------------------------------------------------------------
# seeded random test data

def _rand_poly(rng: random.Random, dim: int) -> Expr:
    names = ["1"] + ["x%d" % i for i in range(dim)]
    terms = []
    for _ in range(3):
        c = rng.randint(-4, 4)
        if c == 0:
            continue
        terms.append("%d/4*%s*%s" % (c, rng.choice(names), rng.choice(names)))
    return parse("+".join(terms) if terms else "0", dim)


def _rand_field(rng, dim, p, q, sym=None) -> TensorField:
    comps = [_rand_poly(rng, dim) for _ in range(dim ** (p + q))]
    complete_pair(comps, dim, sym, ZERO)
    return TensorField(dim, p, q, comps)


def _rand_section(rng, cls, dim) -> Section:
    """A random section of type cls: one random field per slot, drawn in
    SLOT_SPEC order, each rank-2 slot completed as SLOT_SYM says."""
    return cls(*[_rand_field(rng, dim, p, q, cls.SLOT_SYM.get(name))
                 for name, (p, q) in cls.SLOT_SPEC], validate=False)


# ---------------------------------------------------------------------------
# suites

def _suite_duality(spec: GeometrySpec, report: Report, seed: int,
                   tol: float | None, steps: int):
    from .expr import diff

    geom = spec.geom
    n = spec.dim
    rng = random.Random(seed ^ 0xD0A1)
    pts = _eval_points(spec, seed=seed, count=10)
    threshold = tol if tol is not None else 1e-10
    # the samples are the first 200 (section pair, coordinate, point)
    # triples in that order: 200 // m residuals at all m points, then
    # one more at the first 200 % m points
    full, rest = divmod(200, len(pts))

    def leibniz(cls_u, cls_v, nab_u, nab_v, pairing):
        """Leibniz-rule residuals of random section pairs, as scalar
        fields, enough of them for the samples."""
        resids = []
        while len(resids) * len(pts) < 200:
            u = _rand_section(rng, cls_u, n)
            v = _rand_section(rng, cls_v, n)
            fu = nab_u(geom, u)
            fv = nab_v(geom, v)
            pair = pairing(u, v)
            for a in range(n):
                resid = diff(pair, a) - pairing(fu[a], v) - pairing(u, fv[a])
                resids.append(TensorField(n, 0, 0, [resid]))
        return resids

    for check, *bundle_pair in (
        ("duality_tractor", TractorSection, CotractorSection,
         tractor_nabla, cotractor_nabla, tractor_cotractor_pairing),
        ("duality_s2", S2TractorSection, S2CotractorSection,
         metrisability_prolong_nabla, s2_dual_nabla,
         s2_cotractor_dual_pairing),
    ):
        resids = leibniz(*bundle_pair)
        worst = max_residual(resids[:full], pts)
        if rest:
            worst = max_magnitude([worst, max_residual(resids[full:full + 1],
                                                       pts[:rest])])
        report.add(check, worst, threshold)
    report.metrics["duality_samples"] = 200


def _suite_invariance(spec: GeometrySpec, report: Report, seed: int,
                      tol: float | None, steps: int):
    if spec.phi is None and spec.upsilon is None:
        raise SpecError("invariance suite needs phi or upsilon in the spec")
    if spec.phi is not None:
        ups = gradient_upsilon(spec.phi, spec.dim)
    else:
        ups = Upsilon(TensorField(spec.dim, 0, 1, spec.upsilon))
    pts = _eval_points(spec)
    out = check_weyl_cotton_invariance(spec.geom, ups, pts)
    report.add("weyl_invariance", out["weyl"],
               tol if tol is not None else 1e-8)
    report.add("cotton_invariance", out["cotton"],
               tol if tol is not None else 1e-7)
    report.metrics["cotton_weyl_shift_identity"] = float(out["cotton_pair"])
    report.metrics["points"] = out["points"]


def _suite_einstein(spec: GeometrySpec, report: Report, seed: int,
                    tol: float | None, steps: int):
    geom = spec.geom
    n = spec.dim
    pts = _eval_points(spec)
    dev = float(max_residual([einstein_deviation(geom)], pts))
    obs = float(max_residual(
        metrisability_obstruction(geom, geom.metric_inverse()), pts))
    small = tol if tol is not None else 1e-8
    report.metrics["einstein_deviation_max"] = dev
    report.metrics["obstruction_max"] = obs
    report.metrics["connections_differ"] = bool(obs >= small)
    if dev < small:
        report.add("obstruction_vanishes", obs, small)
    else:
        # iff-theorem, contrapositive side: deviation big forces a
        # clearly nonzero obstruction
        report.add("obstruction_detects_non_einstein",
                   _unless_nonfinite(1e-3 / obs if obs > 0 else math.inf,
                                     dev, obs), 1.0)

    rng = random.Random(seed ^ 0x315)

    def gaps():
        for _ in range(10):
            s = _rand_section(rng, S2TractorSection, n)
            direct = s2_tractor_nabla(geom, s)
            prolong = metrisability_prolong_nabla(geom, s)
            ob_vec, ob_scal = metrisability_obstruction(geom, s.t)
            for a in range(n):
                dnu = direct[a].nu - prolong[a].nu
                drho = direct[a].rho - prolong[a].rho
                yield direct[a].t - prolong[a].t
                yield TensorField(n, 1, 0,
                                  [dnu[c] - ob_vec[c, a] for c in range(n)])
                yield TensorField(n, 0, 0, [drho.components[0] - ob_scal[a]])

    report.add("obstruction_identity", max_residual(gaps(), pts[:3]), 1e-12)


def _suite_prolong(spec: GeometrySpec, report: Report, seed: int,
                   tol: float | None, steps: int):
    geom = spec.geom
    pts = _eval_points(spec)
    lift = metric_lift(geom)
    report.add("metric_lift_parallel",
               max_residual(metrisability_prolong_nabla(geom, lift), pts),
               tol if tol is not None else 1e-7)
    bundle = s2_tractor_bundle(geom)
    res = solution_correspondence(bundle, lift, pts[:5])
    report.add("metrisability_residual", res,
               tol if tol is not None else 1e-7)

    rng = random.Random(seed ^ 0x97)
    s = _rand_section(rng, S2TractorSection, spec.dim)
    direct = s2_tractor_nabla(geom, s)
    expanded = s2_tractor_nabla_expanded(geom, s)
    report.add("expansion_matches_direct",
               max_residual((d - e for d, e in zip(direct, expanded)),
                            pts[:3]), 1e-12)


def _suite_holonomy(spec: GeometrySpec, report: Report, seed: int,
                    tol: float | None, steps: int):
    geom = spec.geom
    pts = _eval_points(spec)
    loops = seeded_loops(spec.box, 5, seed)
    sv_tol = tol if tol is not None else 1e-6
    for make_bundle in (cotractor_bundle, tractor_bundle):
        bundle = make_bundle(geom)
        label = bundle.name
        rep = holonomy_dimension(bundle, loops, steps=steps, seed=seed,
                                 sv_tol=sv_tol)
        grid = tractor_curvature(geom, _rand_section(
            random.Random(seed), bundle.section_cls, spec.dim))
        curv = float(max_residual(
            (member for row in grid for member in row), pts[:4]))
        report.metrics["%s_fixed_dim" % label] = rep.fixed_dim
        report.metrics["%s_curvature_max" % label] = curv
        if curv < 1e-10:
            name = "%s_dim_attains_rank"
            resid = abs(rep.fixed_dim - bundle.rank)
        else:
            name = "%s_dim_below_rank"
            resid = 0.0 if rep.fixed_dim < bundle.rank else 1.0
        report.add(name % label,
                   _unless_nonfinite(resid, curv, *rep.singular_values), 0.5)
    mb = s2_tractor_bundle(geom)
    mrep = holonomy_dimension(mb, loops, steps=steps, seed=seed,
                              sv_tol=sv_tol)
    report.metrics["%s_fixed_dim" % mb.name] = mrep.fixed_dim
    report.metrics["%s_rank" % mb.name] = mb.rank
    report.metrics["holonomy_singular_values"] = mrep.singular_values
    report.add("%s_dim_within_rank" % mb.name,
               _unless_nonfinite(0.0 if mrep.fixed_dim <= mb.rank else 1.0,
                                 *mrep.singular_values), 0.5)


def _suite_bianchi(spec: GeometrySpec, report: Report, seed: int,
                   tol: float | None, steps: int):
    pts = _eval_points(spec)
    _add_bianchi_checks(spec, report, spec.geom.pack(), pts, tol)


def _add_bianchi_checks(spec: GeometrySpec, report: Report, pack, pts,
                        tol: float | None):
    conn = spec.geom.connection()
    out = verify_bianchi(pack, conn, pts)
    exact = spec.mode == "rational"
    report.add("bianchi_first", out["first"],
               tol if tol is not None else (1e-30 if exact else 1e-10))
    report.add("bianchi_second", out["second"],
               tol if tol is not None else 1e-7)
    report.add("cotton_weyl_relation", cotton_weyl_relation(pack, conn, pts),
               tol if tol is not None else 1e-7)


# Every suite by name, in the order "all" runs them.
_SUITES = {
    "bianchi": _suite_bianchi,
    "duality": _suite_duality,
    "invariance": _suite_invariance,
    "einstein": _suite_einstein,
    "prolong": _suite_prolong,
    "holonomy": _suite_holonomy,
}
SUITES = (*_SUITES, "all")


def run_suite(spec: GeometrySpec, suite: str, report: Report, seed: int,
              tol: float | None, steps: int):
    if suite not in SUITES:
        raise SpecError("unknown suite %r (choose from %s)"
                        % (suite, ", ".join(SUITES)))
    for name in (_SUITES if suite == "all" else (suite,)):
        _SUITES[name](spec, report, seed, tol, steps)


# ---------------------------------------------------------------------------
# commands

def _value_json(pt_tensor) -> list:
    return [float(c) for c in pt_tensor.components]


def cmd_curvature(spec: GeometrySpec, point, tol: float | None,
                  seed: int | None) -> Report:
    report = Report("curvature", spec.digest)
    if point is not None:
        try:
            spec.geom.check_invertible_at(point)
        except (GeometryError, EvalDomainError) as e:
            raise SpecError("--point: %s" % e) from e
    pack = spec.geom.pack()
    pts = _eval_points(spec, seed=seed)
    show = [point] if point is not None else pts[:1]
    values = {}
    for name, fieldlike in (("riemann", pack.riemann), ("ricci", pack.ricci),
                            ("scalar", pack.scalar),
                            ("schouten", pack.schouten), ("weyl", pack.weyl),
                            ("cotton", pack.cotton)):
        values[name] = _value_json(fieldlike.at(show[0]))
    report.metrics["values_at"] = [float(c) for c in show[0]]
    report.metrics["values"] = values
    _add_bianchi_checks(spec, report, pack, pts, tol)
    return report


def cmd_check(spec: GeometrySpec, suite: str, tol: float | None,
              seed: int | None, steps: int) -> Report:
    report = Report("check", spec.digest)
    report.metrics["suite"] = suite
    use_seed = spec.sample_seed if seed is None else seed
    run_suite(spec, suite, report, use_seed, tol, steps)
    return report


_CURVE_KINDS = ("circle", "rect", "line")


def parse_curve(text: str, box):
    """circle:cx,cy,r | rect:x,y,w,h | line:x0,x1,...;y0,y1,..."""
    kind, _, rest = text.partition(":")
    if kind not in _CURVE_KINDS:
        raise SpecError("unknown curve kind %r (choose from %s)"
                        % (kind, ", ".join(_CURVE_KINDS)))
    pad = [0.0] * (len(box) - 2)
    try:
        groups = [[float(v) for v in part.split(",")]
                  for part in rest.split(";")]
        if not all(math.isfinite(v) for g in groups for v in g):
            raise ValueError("coordinates must be finite")
        if kind == "circle":
            (cx, cy, r), = groups
            return circle_loop([cx, cy] + pad, r), True
        if kind == "rect":
            (x, y, w, h), = groups
            if not (math.isfinite(x + w) and math.isfinite(y + h)):
                raise ValueError("corners must be finite")
            return rectangle_loop([x, y] + pad, w, h), True
        a, b = groups
        if len(a) != len(box) or len(b) != len(box):
            raise ValueError("line endpoints need %d coordinates each"
                             % len(box))
        return (line_segment(a, b),), False
    except ValueError as e:
        raise SpecError("bad curve %r: %s" % (text, e)) from e


def cmd_transport(spec: GeometrySpec, bundle_name: str, curve_text,
                  steps: int, seed: int | None, loop_mode: bool,
                  tol: float | None) -> Report:
    import numpy as np

    report = Report("transport", spec.digest)
    bundle = BUNDLES[bundle_name](spec.geom)
    use_seed = spec.sample_seed if seed is None else seed
    if curve_text is not None:
        curve, closed = parse_curve(curve_text, spec.box)
    else:
        curve, closed = seeded_loops(spec.box, 1, use_seed)[0], True
    if loop_mode and not closed:
        raise SpecError("--loop needs a closed curve")

    rng = random.Random(use_seed ^ 0x7A11)
    initial = [rng.uniform(-1, 1) for _ in range(bundle.rank)]
    forward = loop_matrix(bundle, curve, steps, check_closed=loop_mode)
    final = forward @ np.asarray(initial, dtype=float)
    back = loop_matrix(bundle, reverse_loop(curve), steps) @ final
    rev_err = float(np.max(np.abs(back - np.asarray(initial))))
    report.add("reverse_transport", rev_err,
               tol if tol is not None else 1e-8)

    coarse = max(2, steps // 4)
    ref = loop_matrix(bundle, curve, steps * 4)
    e1 = float(np.max(np.abs(loop_matrix(bundle, curve, coarse) - ref)))
    e2 = float(np.max(np.abs(loop_matrix(bundle, curve, coarse * 2) - ref)))
    # On charts where transport is polynomially exact both errors sit at
    # round-off and the Richardson quotient is noise, not an order.
    if e2 > 1e-13 and e1 > 1e-13:
        order = math.log2(e1 / e2)
    else:
        order = 4.0
    order = _unless_nonfinite(order, e1, e2)
    # One-sided: flat-chart bundles with nilpotent coefficients can
    # superconverge (observed order 5); only a deficit is a failure.
    report.add("rk4_order", _unless_nonfinite(max(0.0, 4.0 - order), order),
               0.3)
    report.metrics["observed_order"] = order
    report.metrics["steps"] = steps
    report.metrics["bundle"] = bundle_name
    report.metrics["rank"] = bundle.rank
    report.metrics["initial"] = list(initial)
    report.metrics["final_section"] = {
        name: v.to_json() for name, v in bundle.unflatten_point(final).items()
    }
    if loop_mode:
        report.metrics["loop_deviation"] = float(
            np.max(np.abs(final - np.asarray(initial))))
    return report


# ---------------------------------------------------------------------------
# entry point

def _emit(report: Report, json_path, started: float):
    elapsed = time.perf_counter() - started
    print("command: %s   spec: %s" % (report.command,
                                      report.spec_digest[:12]))
    for c in report.checks:
        print("  [%s] %-34s residual %.3e  (threshold %.0e)"
              % ("PASS" if c.passed else "FAIL", c.name, c.residual,
                 c.threshold))
    for key in sorted(report.metrics):
        val = report.metrics[key]
        if isinstance(val, float):
            print("  %-41s %.6g" % (key, val))
        elif isinstance(val, (int, bool, str)):
            print("  %-41s %s" % (key, val))
    print("status: %s   (%.2fs)" % (report.status, elapsed))
    if json_path:
        payload = json.dumps(report.to_json(), sort_keys=True, indent=2)
        with open(json_path, "w") as fh:
            fh.write(payload + "\n")


def _step_count(text: str) -> int:
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r"
                                         % text) from None
    if steps < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % steps)
    return steps


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="protract",
        description="Chart geometry checks: curvature stacks, prolonged "
                    "connections, parallel transport.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True,
                       help="spec file path or bundled name (%s)"
                            % ", ".join(BUNDLED))
        p.add_argument("--json", help="write the report as JSON here")
        p.add_argument("--seed", type=int, help="override the spec's seed")
        p.add_argument("--mode", choices=("rational", "float"),
                       help="override the spec's arithmetic mode")
        p.add_argument("--tol", type=float,
                       help="override default thresholds")

    pc = sub.add_parser("curvature", help="curvature stack and identities")
    common(pc)
    pc.add_argument("--point", help="evaluation point v0,v1,...")

    pk = sub.add_parser("check", help="run a verification suite")
    common(pk)
    pk.add_argument("--suite", required=True, choices=SUITES)
    pk.add_argument("--steps", type=_step_count, default=1000,
                    help="RK4 steps per loop for holonomy")

    pt = sub.add_parser("transport", help="transport a section along a curve")
    common(pt)
    pt.add_argument("bundle", choices=tuple(BUNDLES))
    pt.add_argument("curve", nargs="?",
                    help="circle:cx,cy,r | rect:x,y,w,h | "
                         "line:x0,..;y0,.. (default: seeded circle)")
    pt.add_argument("--steps", type=_step_count, default=1000)
    pt.add_argument("--loop", action="store_true",
                    help="require a closed curve and report loop deviation")

    return top


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_geometry_spec(args.spec)
        if args.mode:
            spec.mode = args.mode
        if args.command == "curvature":
            point = None
            if args.point:
                vals = [float(v) for v in args.point.split(",")]
                if len(vals) != spec.dim:
                    raise SpecError("--point needs %d coordinates" % spec.dim)
                if not all(map(math.isfinite, vals)):
                    raise SpecError("--point coordinates must be finite")
                point = [Fraction(v).limit_denominator(10**6)
                         for v in vals] if spec.mode == "rational" else vals
            report = cmd_curvature(spec, point, args.tol, args.seed)
        elif args.command == "check":
            report = cmd_check(spec, args.suite, args.tol, args.seed,
                               args.steps)
        else:
            report = cmd_transport(spec, args.bundle, args.curve, args.steps,
                                   args.seed, args.loop, args.tol)
    except (SpecError, ExprError, GeometryError, TransportError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(report, args.json, started)
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
