"""Time-to-verdict benchmark for the protract CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a protract checkout. A pass runs the workload's list
of ``protract.cli.main`` invocations, one after another, in a fresh
interpreter (perfbench/worker.py), so no protract state carries from one
pass to the next. The run repeats passes until ``--seconds`` is used up,
with at least two passes so that report hashes and exact counters can be
compared between passes.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics: the time to verdict (``verdict_rel``), the median
interpreter start-up up to ``import protract.cli`` (``setup_s``, also
sampled by extra empty passes) and the median peak resident memory of a
pass (``peak_rss_mb``). With ``--trace 1`` every pass runs with the
per-layer tracer of perfbench/tracer.py and the last line carries the
per-layer metrics instead. The lines before it give a human summary,
with the failed ratio, and the run context (kernel backend, Python and
numpy versions, CPU count, workload seed).

``verdict_rel`` is the median over passes of the pass time divided by
the mean CPU time of a small fixed task (``reference``, about 2 ms) that
this process runs every 50 ms while the pass runs, on the same CPU: the
run pins itself, and with it every worker, to one CPU. On a shared host
the speed of a core changes by a quarter and more within seconds, the
two cores independently, and pass times in seconds change with it; the
reference, timed in the same seconds on the same core, changes alike,
so the ratio holds still where seconds do not. The reference takes
about 4% of the CPU from the pass. The median pass time in seconds
(``verdict_s``) is printed on the summary line.

An operation is one invocation in one pass. It fails when its report
misses the workload's known answer, holds a non-finite residual, hashes
differently from the same invocation in the first pass, or (traced)
moves an exact counter differently from the first pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SPEC, WORKLOADS  # noqa: E402

MIN_PASSES = 2
REFERENCE_ROUNDS = 150
REFERENCE_EVERY_S = 0.05
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0

LAYER_TIMES = (
    ("expr.evaluate.self_s", "self_s", "expr.evaluate"),
    ("expr.diff.self_s", "self_s", "expr.diff"),
    ("program.compile_table.self_s", "self_s", "program.compile_table"),
    ("kernel.eval_table.self_s", "self_s", "kernel.eval_table"),
    ("tensor.at.self_s", "self_s", "tensor.at"),
    ("geometry.derive_pack.incl_s", "incl_s", "geometry.derive_pack"),
    ("geometry.verify_bianchi.incl_s", "incl_s", "geometry.verify_bianchi"),
    ("transport.loop_matrix.self_s", "self_s", "transport.loop_matrix"),
    ("transport.holonomy_dimension.self_s", "self_s",
     "transport.holonomy_dimension"),
    ("cli.load_geometry_spec.incl_s", "incl_s", "cli.load_geometry_spec"),
)
LAYER_CALLS = ("expr.evaluate", "expr.diff", "program.compile_table",
               "kernel.eval_table", "tensor.at")
LAYER_COUNTERS = ("expr.dag_nodes", "program.tape_ops", "program.tape_slots",
                  "kernel.ops_interpreted", "tensor.at.rational_calls",
                  "transport.rk4_steps")


class BenchError(RuntimeError):
    pass


@dataclass
class Pass:
    """What one worker process reported, plus its set-up time."""
    setup_s: float | None
    result: dict | None
    reports: list       # per invocation: (raw bytes, parsed report) or None
    stderr: str
    refs: list          # seconds of each reference run while the pass ran


def reference(rounds: int = REFERENCE_ROUNDS) -> float:
    """CPU seconds that a fixed standard-library task takes here and now.

    The task mixes the two kinds of work the workloads do: exact
    Fraction arithmetic with dict stores, and a float stack-machine
    loop. It runs in this process, whose heap is small and the same
    for every version of the program, with the collector off. It is
    timed in this thread's CPU time, not in wall time, so that a slice
    in which the worker took the CPU back in the middle of it does not
    count.
    """
    ops = [i % 4 for i in range(64)]
    stack = [0.0] * 64
    memo = {}
    x = Fraction(1, 3)
    gc.disable()
    try:
        started = time.thread_time()
        for i in range(rounds):
            x = x * Fraction(i % 50 + 2, i % 37 + 3) + Fraction(1, i % 11 + 7)
            if x.denominator > 10 ** 12:
                x = Fraction(1, 3)
            memo[i % 97] = x
            acc = 0.5
            for j, op in enumerate(ops):
                if op == 0:
                    acc += stack[j]
                elif op == 1:
                    acc *= 0.999
                elif op == 2:
                    stack[j] = acc
                else:
                    acc -= 0.25 * stack[j]
        return time.thread_time() - started
    finally:
        gc.enable()


def _pin_to_one_cpu() -> None:
    """Keep this process and the workers it starts on a single CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _spawn(plan: dict, work: Path, tag: str, deadline: float) -> Pass:
    plan_path = work / ("%s.plan.json" % tag)
    result_path = work / ("%s.result.json" % tag)
    err_path = work / ("%s.stderr" % tag)
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path),
             str(result_path)],
            cwd=str(work), env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(0.0, deadline - t0))
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - t0 if line == b"ready\n" else None
            # Wait for the worker to close its output, draining it, and
            # time the reference task on the CPU the worker shares with
            # this process every REFERENCE_EVERY_S meanwhile.
            refs = []
            while True:
                left = deadline - time.perf_counter()
                ready, _, _ = select.select(
                    [proc.stdout], [], [],
                    max(0.0, min(REFERENCE_EVERY_S, left)))
                if ready:
                    if not os.read(proc.stdout.fileno(), 65536):
                        break
                elif left <= 0:
                    break
                elif setup_s is not None:
                    refs.append(reference())
            proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    result = None
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    reports = []
    for argv in plan["invocations"]:
        path = Path(argv[argv.index("--json") + 1])
        if path.is_file():
            raw = path.read_bytes()
            reports.append((raw, json.loads(raw)))
        else:
            reports.append(None)
    return Pass(setup_s, result, reports, err_path.read_text(),
                refs or [reference()])


def _invocations(plan, work: Path, tag: str) -> list:
    spec_path = str(work / "spec.json")
    return [[spec_path if a == SPEC else a for a in call.argv]
            + ["--json", str(work / ("%s.report%d.json" % (tag, i)))]
            for i, call in enumerate(plan.calls)]


def _check_pass(plan, p: Pass, first: Pass | None) -> list:
    """Problems per invocation of one pass (an empty list means it held)."""
    out = []
    for i, call in enumerate(plan.calls):
        problems = []
        if p.result is None:
            problems.append("worker failed: %s" % p.stderr.strip()[-400:])
        elif p.result["errors"][i]:
            problems.append("raised: %s" % p.result["errors"][i][-400:])
        if p.reports[i] is None:
            problems.append("no report written")
        elif p.result is not None:
            raw, report = p.reports[i]
            problems += call.check(p.result["exit_codes"][i], report)
            if first is not None and first.reports[i] is not None and \
                    raw != first.reports[i][0]:
                problems.append("report differs from the first pass")
        if p.result is not None and first is not None and \
                first.result is not None and "trace" in p.result:
            if p.result["trace"]["per_invocation"][i] != \
                    first.result["trace"]["per_invocation"][i]:
                problems.append("exact counters differ from the first pass")
        out.append(problems)
    return out


def _trimmed_mean(xs: list) -> float:
    """Mean of the middle 80%, so that a few outlying reference runs do
    not move it."""
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


def _margins(reports) -> list:
    out = []
    for _, report in reports:
        for c in report.get("checks", []):
            r = c["residual"]
            if r != 0.0 and math.isfinite(r):
                out.append(math.log10(c["threshold"] / abs(r)))
    return out


def _layer_metrics(passes: list) -> dict:
    traces = [p.result["trace"] for p in passes]
    first = traces[0]
    m = {}
    for name, kind, span in LAYER_TIMES:
        m[name] = (statistics.median(t[kind][span] for t in traces), "s")
    for span in LAYER_CALLS:
        m[span + ".calls"] = (first["calls"][span], "count")
    for name in LAYER_COUNTERS:
        m[name] = (first["counters"].get(name, 0), "count")
    calls = first["calls"]["kernel.eval_table"]
    points = first["counters"].get("kernel.points", 0)
    m["kernel.points_per_call"] = (points / calls if calls else 0.0,
                                   "points/call")
    # Margins read 0 when nothing was measured: no metrisability holonomy
    # ran, or every check residual is exactly zero.
    m["transport.sv_margin"] = (min(first["sv_margins"], default=0.0),
                                "log10")
    reports = [r for r in passes[0].reports if r is not None]
    m["cli.min_margin"] = (min(_margins(reports), default=0.0), "log10")
    m["cli.exact_zero_checks"] = (
        sum(1 for _, rep in reports for c in rep.get("checks", [])
            if c["residual"] == 0.0), "count")
    m["trace.verdict_s"] = (
        statistics.median(p.result["verdict_s"] for p in passes), "s")
    return m


def run(name: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """Measure one workload; returns the result and the run context."""
    plan = WORKLOADS[name](seed, small)
    _pin_to_one_cpu()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / ("%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "spec.json").write_text(json.dumps(plan.spec, indent=1))
        setups = []
        # the first probe warms the byte-code cache and is not counted
        for k in range(SETUP_PROBES + 1):
            probe = _spawn({"invocations": [], "trace": False}, work,
                           "probe%d" % k, deadline)
            if probe.setup_s is None:
                raise BenchError("worker did not start: %s"
                                 % probe.stderr.strip()[-400:])
            if k:
                setups.append(probe.setup_s)
        measure_from = time.perf_counter()
        passes, problems = [], []
        durations = []
        while True:
            tag = "pass%d" % len(passes)
            t0 = time.perf_counter()
            p = _spawn({"invocations": _invocations(plan, work, tag),
                        "trace": trace}, work, tag, deadline)
            durations.append(time.perf_counter() - t0)
            problems += _check_pass(plan, p, passes[0] if passes else None)
            passes.append(p)
            if p.setup_s is not None:
                setups.append(p.setup_s)
            elapsed = time.perf_counter() - measure_from
            if len(passes) >= MIN_PASSES and \
                    elapsed + statistics.median(durations) > seconds:
                break
            if time.perf_counter() + max(durations) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    good = [p for p in passes if p.result is not None]
    if not good:
        raise BenchError("no pass completed: %s"
                         % passes[0].stderr.strip()[-400:])
    verdict_s = statistics.median(p.result["verdict_s"] for p in good)
    rels = [p.result["verdict_s"] / _trimmed_mean(p.refs) for p in good]
    if trace:
        metrics = _layer_metrics(good)
    else:
        metrics = {
            "verdict_rel": (statistics.median(rels), "refs"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(
                p.result["peak_rss_kb"] / 1024.0 for p in good), "MB"),
        }
    failed = sum(1 for pr in problems if pr)
    first = good[0].result
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(problems),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
        "context": {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "verdict_s": verdict_s,
            "pass_verdict_s": [p.result["verdict_s"] for p in good],
            "pass_verdict_rel": rels,
            "reference_s": statistics.median(
                _trimmed_mean(p.refs) for p in good),
            "setup_s": setups,
            "backend": first["backend"],
            "python": first["python"],
            "numpy": first["numpy"],
            "nproc": os.cpu_count(),
        },
        "problems": sorted({q for pr in problems for q in pr}),
    }


def _terminate(signum, frame):
    # Unwind through the finally blocks that stop the worker and remove
    # the work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "protract" / "cli.py").is_file():
        print("error: no protract sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    res = out["result"]
    for problem in out["problems"]:
        print("problem: %s" % problem)
    summary = ["%s=%.6g%s" % (k, v["value"], v["unit"])
               for k, v in res["metrics"].items() if not args.trace]
    summary.append("verdict_s=%.6gs" % out["context"]["verdict_s"])
    print("%s: %s failed_ratio=%d/%d=%.6g" % (
        args.workload, " ".join(summary), res["failed"], res["attempted"],
        res["failed"] / res["attempted"]))
    print("context: %s" % json.dumps(out["context"], sort_keys=True))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
