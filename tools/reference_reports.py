"""Write the reference ``--json`` reports of this checkout to a directory.

Usage:
    python3 tools/reference_reports.py OUTDIR

Run it from any directory; it runs the checkout it lives in (its
``src/``), one ``protract`` subprocess per report, and writes each report
to ``OUTDIR/<name>.json`` and every exit code to ``OUTDIR/exits.txt``.
The reports are the nine reference reports of ROADMAP.md, three more
holonomy runs at other step counts, one ``transport --loop`` run per
bundle (the skew bundle on flat3, every other one on sphere2), and both
benchmark invocations on seeds 0-3. The benchmark specs are built by
``perfbench/workloads.py`` (read only) and written to ``OUTDIR/specs/``
as ``perfbench/run.py`` writes them, so their digests match the
benchmark's.

A change that should move no report is compared with its parent by
running this script in both checkouts and ``diff -r`` on the two
directories. Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SPEC, WORKLOADS  # noqa: E402

BUNDLED = ("flat2", "flat3", "sphere2", "sphere3", "nonEinstein2",
           "nonEinstein3")
SEEDS = range(4)
# (bundle, spec, closed curve); the skew bundle needs dimension 3
LOOP_TRANSPORTS = tuple(
    (bundle, "sphere2", "circle:0.2,0.1,0.55")
    for bundle in ("cotractor", "tractor", "metrisability", "s2dual",
                   "tangent")) + (("skew", "flat3", "circle:0,0,0.4"),)


def reports(spec_dir: Path) -> list:
    """(name, argv) per report; writes the benchmark specs to spec_dir."""
    out = [("check-all-%s" % s,
            ["check", "--suite", "all", "--steps", "200", "--spec", s])
           for s in BUNDLED]
    out += [
        ("holonomy-200-sphere3",
         ["check", "--suite", "holonomy", "--steps", "200",
          "--spec", "sphere3"]),
        ("curvature-sphere2", ["curvature", "--spec", "sphere2"]),
        ("transport-tractor-sphere2",
         ["transport", "tractor", "circle:0.2,0.1,0.55", "--spec",
          "sphere2", "--steps", "16"]),
        ("holonomy-100-sphere2",
         ["check", "--suite", "holonomy", "--steps", "100",
          "--spec", "sphere2"]),
        ("holonomy-50-nonEinstein3",
         ["check", "--suite", "holonomy", "--steps", "50",
          "--spec", "nonEinstein3"]),
        ("holonomy-default-flat3",
         ["check", "--suite", "holonomy", "--spec", "flat3"]),
    ]
    out += [("transport-loop-%s-%s" % (bundle, spec),
             ["transport", bundle, curve, "--spec", spec, "--steps", "64",
              "--loop"])
            for bundle, spec, curve in LOOP_TRANSPORTS]
    spec_dir.mkdir(parents=True, exist_ok=True)
    for workload, build in WORKLOADS.items():
        for seed in SEEDS:
            plan = build(seed, False)
            spec_path = spec_dir / ("%s-%d.json" % (workload, seed))
            spec_path.write_text(json.dumps(plan.spec, indent=1))
            for i, call in enumerate(plan.calls):
                argv = [str(spec_path) if a == SPEC else a
                        for a in call.argv]
                out.append(("%s-%d-%d" % (workload, seed, i), argv))
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/reference_reports.py OUTDIR",
              file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    exits = []
    for name, cli_args in reports(outdir / "specs"):
        code = subprocess.call(
            [sys.executable, "-m", "protract.cli", *cli_args,
             "--json", str(outdir / (name + ".json"))],
            cwd=str(outdir), env=env, stdout=subprocess.DEVNULL)
        exits.append("%s %d\n" % (name, code))
        print("%-34s exit %d" % (name, code))
    (outdir / "exits.txt").write_text("".join(exits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
