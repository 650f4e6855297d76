"""tools/report_delta.py: floats that moved, and every other difference."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_delta.py"
_SPEC = importlib.util.spec_from_file_location("report_delta", TOOL)
report_delta = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_delta)


def _reports(root, name, exits, **reports):
    d = root / name
    d.mkdir()
    (d / "exits.txt").write_text(exits)
    for key, data in reports.items():
        (d / (key + ".json")).write_text(json.dumps(data))
    return d


def _check(residual, passed=True, name="bianchi_first"):
    return {"checks": [{"name": name, "pass": passed, "residual": residual}],
            "metrics": {"fixed_dim": 3, "sv": [1.0, math.nan]}}


def test_moved_floats_exit_0(tmp_path, capsys):
    old = _reports(tmp_path, "old", "a 0\n", a=_check(1e-15), b=_check(2.0))
    new = _reports(tmp_path, "new", "a 0\n", a=_check(3e-15), b=_check(2.0))
    assert report_delta.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a.checks[0].residual: 1e-15 -> 3e-15 (+2.000e+00)",
                   "1 floats moved, 0 other differences"]


def test_any_other_difference_exits_1(tmp_path):
    old = _reports(tmp_path, "old", "a 0\n", a=_check(1.0))
    for i, (exits, report) in enumerate([
            ("a 1\n", _check(1.0)),
            ("a 0\n", _check(1.0, passed=False)),
            ("a 0\n", _check(1.0, name="bianchi_second")),
            ("a 0\n", dict(_check(1.0), metrics={"fixed_dim": 2,
                                                 "sv": [1.0, math.nan]})),
            ("a 0\n", dict(_check(1.0), metrics={"fixed_dim": 3.0,
                                                 "sv": [1.0, math.nan]})),
            ("a 0\n", dict(_check(1.0), metrics={"fixed_dim": 3,
                                                 "sv": [1.0]}))]):
        new = _reports(tmp_path, "new%d" % i, exits, a=report)
        moved, broken = report_delta.delta(old, new)
        assert moved == [] and len(broken) == 1, broken
        assert report_delta.main([str(old), str(new)]) == 1
    extra = _reports(tmp_path, "extra", "a 0\n", a=_check(1.0), b=_check(1.0))
    assert report_delta.delta(old, extra) == ([], ["b: only in NEW"])
    assert report_delta.main([str(old)]) == 2
