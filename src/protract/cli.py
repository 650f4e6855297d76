"""Command-line front end: geometry-spec files, check suites, reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
input, reported as one ``error:`` line: a bad spec (among them a box pair
that is not two finite floats, and a ``samples`` that is not an object
with integer ``count`` and ``seed`` only, or whose count is below 1), an
unknown suite, missing data for a suite, a ``--point`` that is not
``dim`` finite floats, a bad curve.

Every check compares its residual with one fixed threshold, which the
report records.

Every bundle connection is d + A_a in slot coordinates, with A_a the
matrices TransportBundle.coefficient_entries builds, so the identities
about connections are checked on those matrices, and so for every
section at once: Leibniz duality of a pairing, the obstruction between
the two S2T connections, the formal expansion of the S2T connection,
and, as the curvature of the cotractor and tractor connections has the
entries +-W and +-C, the holonomy suite's curvature read.

Reports are deterministic for a given (spec, seed): JSON output carries
no timing and is dumped with sorted keys, so repeated runs are
byte-identical. Wall-clock timing goes to the human-readable stream
only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .expr import EvalDomainError, Expr, ExprError, add, parse
from .geometry import (
    ChartGeometry,
    GeometryError,
    verify_bianchi,
)
from .projective import (
    Upsilon,
    check_weyl_cotton_invariance,
    einstein_deviation,
    gradient_upsilon,
)
from .tensor import TensorField, max_residual, max_residuals, zero_field
from .tractor import (
    S2TractorSection,
    metric_lift,
    metrisability_obstruction,
    metrisability_prolong_nabla,
    s2_cotractor_dual_pairing,
    s2_tractor_nabla,
    s2_tractor_nabla_expanded,
    tractor_cotractor_pairing,
)
from .transport import (
    BUNDLES,
    TransportBundle,
    TransportError,
    circle_loop,
    cotractor_bundle,
    holonomy_dimensions,
    line_segment,
    loop_matrix,
    rectangle_loop,
    reverse_loop,
    s2_cotractor_bundle,
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
    geom: ChartGeometry
    phi: Expr | None
    upsilon: list | None
    box: list
    sample_count: int
    sample_seed: int
    mode: str
    digest: str
    # screened sample points by seed; see _eval_points
    screened: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)


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
    else:
        try:
            with open(source, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise SpecError("cannot read spec %r: %s" % (source, e)) from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise SpecError("spec %r is not valid JSON: %s" % (source, e)) from e
    digest = hashlib.sha256(raw).hexdigest()
    return _build_spec(data, digest)


def _finite_floats(values, count: int, what: str) -> list:
    """values as count finite floats, or a SpecError naming what."""
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError) as e:
        raise SpecError("%s: %s" % (what, e)) from e
    if len(out) != count:
        raise SpecError("%s needs %d coordinates" % (what, count))
    if not all(map(math.isfinite, out)):
        raise SpecError("%s coordinates must be finite" % what)
    return out


def _build_spec(data: dict, digest: str) -> GeometrySpec:
    try:
        dim = int(data["dim"])
        coords = list(data["coords"])
        rows = data["metric"]
        pairs = list(data["box"])
        mode = data.get("mode", "float")
        samples = data.get("samples", {})
        if not isinstance(samples, dict):
            raise TypeError("samples must be an object")
        count, seed = samples.get("count", 20), samples.get("seed", 0)
        if not all(type(v) is int for v in (count, seed)):
            raise TypeError("samples count and seed must be integers")
    except (KeyError, TypeError, ValueError) as e:
        raise SpecError("spec missing or malformed field: %s" % e) from e
    if dim < 2:
        raise SpecError("dim must be at least 2")
    if len(coords) != dim:
        raise SpecError("coords length != dim")
    extra = sorted(set(samples) - {"count", "seed"})
    if extra:
        raise SpecError("samples takes count and seed only, not %s"
                        % ", ".join(map(repr, extra)))
    if count < 1:
        raise SpecError("samples.count must be at least 1, not %d" % count)
    box = [_finite_floats(pair, 2, "box pair %r" % (pair,)) for pair in pairs]
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
    return GeometrySpec(dim, geom, phi, upsilon, box, count, seed, mode,
                        digest)


def sample_points(spec: GeometrySpec, seed: int) -> list:
    """Seeded points inside the box; Fractions in rational mode."""
    rng = random.Random(seed)
    pts = []
    for _ in range(spec.sample_count):
        pt = []
        for lo, hi in spec.box:
            if spec.mode == "rational":
                frac = Fraction(rng.randint(5, 59), 64)
                pt.append(Fraction(lo) + (Fraction(hi) - Fraction(lo)) * frac)
            else:
                pt.append(lo + (hi - lo) * rng.uniform(0.08, 0.92))
        pts.append(pt)
    return pts


def _eval_points(spec: GeometrySpec, seed: int) -> list:
    """The sample points at which the metric is invertible, screened in
    one batch (ChartGeometry.invertible_at) per spec and seed."""
    ok = spec.screened.get(seed)
    if ok is None:
        pts = sample_points(spec, seed)
        ok = list(itertools.compress(pts, spec.geom.invertible_at(pts)))
        spec.screened[seed] = ok
    if not ok:
        raise SpecError("no usable sample points inside the box")
    return list(ok)


def _unless_nonfinite(residual, *evidence) -> float:
    """The residual of a check chosen by a branch on evidence; NaN when
    any evidence is not finite, so a decision made on it cannot pass."""
    return residual if all(map(math.isfinite, evidence)) else math.nan


# ---------------------------------------------------------------------------
# suites

def _scalars(dim: int, entries) -> list:
    """Each expression as a scalar field, for max_residuals."""
    return [TensorField(dim, 0, 0, [e]) for e in entries]


def _leibniz_defect(u: TransportBundle, v: TransportBundle, pairing) -> list:
    """The entries of A_u,a^T G + G A_v,a in every direction a, G the
    constant matrix G_ij = pairing(u basis i, v basis j). As the
    connections are d + A, the pairing obeys the Leibniz rule for all
    sections of u and v exactly when every entry vanishes."""
    ru, rv = u.rank, v.rank
    Au, Av = u.coefficient_entries(), v.coefficient_entries()
    G = [[pairing(u.basis_section(i), v.basis_section(j))
          for j in range(rv)] for i in range(ru)]
    return [add(*[Au[(a * ru + k) * ru + i] * G[k][j] for k in range(ru)],
                *[G[i][k] * Av[(a * rv + k) * rv + j] for k in range(rv)])
            for a in range(u.dim) for i in range(ru) for j in range(rv)]


def _suite_duality(spec: GeometrySpec, report: Report, seed: int,
                   steps: int):
    geom = spec.geom
    pairs = ((tractor_bundle, cotractor_bundle, tractor_cotractor_pairing),
             (s2_tractor_bundle, s2_cotractor_bundle,
              s2_cotractor_dual_pairing))
    worst = max_residuals([
        _scalars(spec.dim, _leibniz_defect(u(geom), v(geom), pairing))
        for u, v, pairing in pairs], _eval_points(spec, seed))
    report.add("duality_tractor", worst[0], 1e-10)
    report.add("duality_s2", worst[1], 1e-10)


def _suite_invariance(spec: GeometrySpec, report: Report, seed: int,
                      steps: int):
    if spec.phi is None and spec.upsilon is None:
        raise SpecError("invariance suite needs phi or upsilon in the spec")
    if spec.phi is not None:
        ups = gradient_upsilon(spec.phi, spec.dim)
    else:
        ups = Upsilon(TensorField(spec.dim, 0, 1, spec.upsilon))
    pts = _eval_points(spec, seed)
    out = check_weyl_cotton_invariance(spec.geom, ups, pts)
    report.add("weyl_invariance", out["weyl"], 1e-8)
    report.add("cotton_invariance", out["cotton"], 1e-7)
    report.metrics["cotton_weyl_shift_identity"] = float(out["cotton_pair"])
    report.metrics["points"] = out["points"]


def _s2_bundle(geom: ChartGeometry, nabla) -> TransportBundle:
    """A connection on S2T sections as a bundle, for its coefficients."""
    return TransportBundle("s2", S2TractorSection, nabla, geom)


def _obstruction_family(geom: ChartGeometry, s: S2TractorSection) -> list:
    """metrisability_obstruction of s.t as a direction family of S2T
    sections with t slot zero, so that it has coefficient entries."""
    n = geom.dim
    vec, scal = metrisability_obstruction(geom, s.t)
    return [S2TractorSection(zero_field(n, 2, 0),
                             TensorField(n, 1, 0, [vec[c, a]
                                                   for c in range(n)]),
                             scal[a], validate=False) for a in range(n)]


def _suite_einstein(spec: GeometrySpec, report: Report, seed: int,
                    steps: int):
    geom = spec.geom
    direct, prolong, obstruction = (
        _s2_bundle(geom, nabla).coefficient_entries()
        for nabla in (s2_tractor_nabla, metrisability_prolong_nabla,
                      _obstruction_family))
    dev, obs, gap = map(float, max_residuals(
        [[einstein_deviation(geom)],
         metrisability_obstruction(geom, geom.metric_inverse()),
         _scalars(spec.dim, (d - p - o for d, p, o
                             in zip(direct, prolong, obstruction)))],
        _eval_points(spec, seed)))
    small = 1e-8
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
    report.add("obstruction_identity", gap, 1e-12)


def _suite_prolong(spec: GeometrySpec, report: Report, seed: int,
                   steps: int):
    geom = spec.geom
    pts = _eval_points(spec, seed)
    lift = metric_lift(geom)
    direct, expanded = (_s2_bundle(geom, nabla).coefficient_entries()
                        for nabla in (s2_tractor_nabla,
                                      s2_tractor_nabla_expanded))
    parallel, expansion = max_residuals(
        [metrisability_prolong_nabla(geom, lift),
         _scalars(spec.dim, (d - e for d, e in zip(direct, expanded)))],
        pts)
    report.add("metric_lift_parallel", parallel, 1e-7)
    bundle = s2_tractor_bundle(geom)
    res = solution_correspondence(bundle, lift, pts[:5])
    report.add("metrisability_residual", res, 1e-7)
    report.add("expansion_matches_direct", expansion, 1e-12)


def _suite_holonomy(spec: GeometrySpec, report: Report, seed: int,
                    steps: int):
    geom = spec.geom
    pts = _eval_points(spec, seed)
    loops = seeded_loops(spec.box, 5, seed)
    bundles = [make(geom) for make in (cotractor_bundle, tractor_bundle,
                                       s2_tractor_bundle)]
    reps = holonomy_dimensions(bundles, loops, steps=steps)
    # the entries of the cotractor and tractor curvature Omega_ab are
    # +-W and +-C, so both read max |W|, |C|
    pack = geom.pack()
    curv = float(max_residual([pack.weyl, pack.cotton], pts))
    for bundle, rep in zip(bundles[:2], reps):
        label = bundle.name
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
    mb, mrep = bundles[2], reps[2]
    report.metrics["%s_fixed_dim" % mb.name] = mrep.fixed_dim
    report.metrics["%s_rank" % mb.name] = mb.rank
    report.metrics["holonomy_singular_values"] = mrep.singular_values
    report.add("%s_dim_within_rank" % mb.name,
               _unless_nonfinite(0.0 if mrep.fixed_dim <= mb.rank else 1.0,
                                 *mrep.singular_values), 0.5)


def _suite_bianchi(spec: GeometrySpec, report: Report, seed: int,
                   steps: int):
    pts = _eval_points(spec, seed)
    _add_bianchi_checks(spec, report, spec.geom.pack(), pts)


def _add_bianchi_checks(spec: GeometrySpec, report: Report, pack, pts):
    out = verify_bianchi(pack, spec.geom.connection(), pts)
    report.add("bianchi_first", out["first"],
               1e-30 if spec.mode == "rational" else 1e-10)
    report.add("bianchi_second", out["second"], 1e-7)
    report.add("cotton_weyl_relation", out["cotton_weyl"], 1e-7)


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
              steps: int):
    if suite not in SUITES:
        raise SpecError("unknown suite %r (choose from %s)"
                        % (suite, ", ".join(SUITES)))
    for name in (_SUITES if suite == "all" else (suite,)):
        _SUITES[name](spec, report, seed, steps)


# ---------------------------------------------------------------------------
# commands

def _value_json(pt_tensor) -> list:
    return [float(c) for c in pt_tensor.components]


def cmd_curvature(spec: GeometrySpec, point, seed: int) -> Report:
    report = Report("curvature", spec.digest)
    if point is not None:
        try:
            spec.geom.check_invertible_at(point)
        except (GeometryError, EvalDomainError) as e:
            raise SpecError("--point: %s" % e) from e
    pack = spec.geom.pack()
    pts = _eval_points(spec, seed)
    show = [point] if point is not None else pts[:1]
    values = {}
    for name, fieldlike in (("riemann", pack.riemann), ("ricci", pack.ricci),
                            ("scalar", pack.scalar),
                            ("schouten", pack.schouten), ("weyl", pack.weyl),
                            ("cotton", pack.cotton)):
        values[name] = _value_json(fieldlike.at(show[0]))
    report.metrics["values_at"] = [float(c) for c in show[0]]
    report.metrics["values"] = values
    _add_bianchi_checks(spec, report, pack, pts)
    return report


def cmd_check(spec: GeometrySpec, suite: str, seed: int,
              steps: int) -> Report:
    report = Report("check", spec.digest)
    report.metrics["suite"] = suite
    run_suite(spec, suite, report, seed, steps)
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
                  steps: int, seed: int, loop_mode: bool) -> Report:
    import numpy as np

    report = Report("transport", spec.digest)
    bundle = BUNDLES[bundle_name](spec.geom)
    if curve_text is not None:
        curve, closed = parse_curve(curve_text, spec.box)
    else:
        curve, closed = seeded_loops(spec.box, 1, seed)[0], True
    if loop_mode and not closed:
        raise SpecError("--loop needs a closed curve")

    rng = random.Random(seed ^ 0x7A11)
    initial = [rng.uniform(-1, 1) for _ in range(bundle.rank)]
    forward = loop_matrix(bundle, curve, steps, check_closed=loop_mode)
    final = forward @ np.asarray(initial, dtype=float)
    back = loop_matrix(bundle, reverse_loop(curve), steps) @ final
    rev_err = float(np.max(np.abs(back - np.asarray(initial))))
    report.add("reverse_transport", rev_err, 1e-8)

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
        seed = spec.sample_seed if args.seed is None else args.seed
        if args.command == "curvature":
            point = None
            if args.point:
                vals = _finite_floats(args.point.split(","), spec.dim,
                                      "--point")
                point = [Fraction(v).limit_denominator(10**6)
                         for v in vals] if spec.mode == "rational" else vals
            report = cmd_curvature(spec, point, seed)
        elif args.command == "check":
            report = cmd_check(spec, args.suite, seed, args.steps)
        else:
            report = cmd_transport(spec, args.bundle, args.curve, args.steps,
                                   seed, args.loop)
    except (SpecError, ExprError, GeometryError, TransportError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(report, args.json, started)
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
