"""Small-size smoke test of the benchmark.

Runs every workload at its small size once untraced and twice traced,
and checks that:

- no operation fails;
- the untraced run emits exactly the end-to-end metrics of
  BENCHMARK.json and the traced run exactly its per-layer metrics, each
  by name with its unit;
- every count, the exact counters among them, repeats exactly between
  the two traced runs.

Usage: python3 perfbench/smoke.py   (exit code 0 when every check holds)
"""

from __future__ import annotations

import json
import sys

from run import ROOT, run
from workloads import WORKLOADS

EXACT_COUNTERS = ("expr.dag_nodes", "program.tape_ops",
                  "kernel.ops_interpreted", "transport.rk4_steps",
                  "cli.exact_zero_checks")


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    bad = ["%s is not a per-layer count" % name for name in EXACT_COUNTERS
           if per_layer.get(name) != "count"]
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in WORKLOADS:
        plain = run(name, 1, 0, trace=False, small=True)["result"]
        traced = [run(name, 1, 0, trace=True, small=True)["result"]
                  for _ in range(2)]
        for res in [plain] + traced:
            if not res["correct"] or res["failed"]:
                bad.append("%s: %d of %d operations failed"
                           % (name, res["failed"], res["attempted"]))
        if _units(plain) != end_to_end:
            bad.append("%s: end-to-end metrics %s" % (name, _units(plain)))
        for res in traced:
            if _units(res) != per_layer:
                bad.append("%s: per-layer metrics %s" % (name, _units(res)))
        a, b = (res["metrics"] for res in traced)
        for key, unit in per_layer.items():
            va, vb = (r.get(key, {}).get("value") for r in (a, b))
            if unit == "count" and va != vb:
                bad.append("%s: %s read %r then %r" % (name, key, va, vb))
        print("%s: %s" % (name, ", ".join(
            "%s=%s" % (k, a.get(k, {}).get("value")) for k in EXACT_COUNTERS)))
    for line in bad:
        print("FAIL %s" % line)
    print("smoke: %s" % ("FAIL" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
