"""One table of every end-to-end metric, per workload.

For each workload this makes one untraced and one traced run with the
same seed, and prints verdict_rel, verdict_s, setup_s, peak_rss_mb, the
failed ratio, and the tracing overhead: how much longer a traced pass
took than an untraced one.

Usage: python3 perfbench/summary.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import sys

from run import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    args = ap.parse_args(argv)
    print("%-22s %11s %10s %9s %12s %13s %15s" % (
        "workload", "verdict_rel", "verdict_s", "setup_s", "peak_rss_mb",
        "failed_ratio", "trace_overhead"))
    for name in WORKLOADS:
        out = run(name, args.seed, args.seconds, trace=False)
        plain = out["result"]
        traced = run(name, args.seed, args.seconds, trace=True)["result"]
        m = plain["metrics"]
        verdict_s = out["context"]["verdict_s"]
        failed = plain["failed"] + traced["failed"]
        attempted = plain["attempted"] + traced["attempted"]
        overhead = traced["metrics"]["trace.verdict_s"]["value"] \
            / verdict_s - 1
        print("%-22s %11.2f %10.3f %9.3f %12.1f %13.4g %14.1f%%" % (
            name, m["verdict_rel"]["value"], verdict_s, m["setup_s"]["value"],
            m["peak_rss_mb"]["value"], failed / attempted, 100 * overhead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
