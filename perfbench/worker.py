"""One benchmark pass: a fresh interpreter running a list of CLI calls.

Usage: python3 worker.py PLAN.json RESULT.json

PLAN.json holds {"invocations": [[argv...], ...], "trace": bool}. The
worker prints "ready" as soon as ``protract.cli`` is imported, so the
parent can time interpreter set-up, then runs every invocation through
``protract.cli.main`` in order with the CLI's own output discarded, and
writes exit codes, the pass time, peak memory and (when tracing) the per-layer
record to RESULT.json.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def _run(cli, argv):
    try:
        return cli.main(argv), None
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2, None
    except Exception:
        return None, traceback.format_exc()


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    from protract import cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    codes, errors, snapshots = [], [], []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        started = time.perf_counter()
        for argv in plan["invocations"]:
            code, error = _run(cli, argv)
            codes.append(code)
            errors.append(error)
            if tracer is not None:
                snapshots.append(tracer.snapshot())
        verdict_s = time.perf_counter() - started

    import numpy
    from protract.kernel import BACKEND
    result = {
        "exit_codes": codes,
        "errors": errors,
        "verdict_s": verdict_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = {
            "calls": tracer.calls,
            "incl_s": tracer.incl,
            "self_s": tracer.self_time,
            "counters": tracer.counters,
            "sv_margins": tracer.sv_margins,
            "per_invocation": snapshots,
        }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
