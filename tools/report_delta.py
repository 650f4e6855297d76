"""List what moved between two directories of reference reports.

Usage:
    python3 tools/report_delta.py OLD NEW

OLD and NEW are directories written by ``tools/reference_reports.py``.
Every report (``*.json``) of either directory is walked key by key
beside its namesake, and each float that moved is printed on one line:
the report, the key path, the old value, the new value and the relative
change (new - old) / |old|. A NaN equals a NaN.

The exit code is 1 if anything other than a float differs: a report or
key on one side only, a list of another length, a value of another
type, or any int, string, bool or null, so every exit code in
``exits.txt``, every check name, every ``pass`` flag and every fixed
dimension or rank must agree. It is 0 when only floats moved, or none
did, and 2 on a usage error. Only the standard library is used.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _rel(old: float, new: float) -> str:
    if old == 0 or not (math.isfinite(old) and math.isfinite(new)):
        return "n/a"
    return "%+.3e" % ((new - old) / abs(old))


def _walk(old, new, path: str, moved: list, broken: list) -> None:
    if type(old) is not type(new):
        broken.append("%s: %r -> %r (type)" % (path, old, new))
    elif isinstance(old, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = "%s.%s" % (path, key)
            if key not in old or key not in new:
                broken.append("%s: only in %s" % (
                    sub, "OLD" if key in old else "NEW"))
            else:
                _walk(old[key], new[key], sub, moved, broken)
    elif isinstance(old, list):
        if len(old) != len(new):
            broken.append("%s: %d -> %d entries" % (path, len(old), len(new)))
        else:
            for i, (a, b) in enumerate(zip(old, new)):
                _walk(a, b, "%s[%d]" % (path, i), moved, broken)
    elif isinstance(old, float):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            moved.append("%s: %r -> %r (%s)" % (path, old, new,
                                                _rel(old, new)))
    elif old != new:
        broken.append("%s: %r -> %r" % (path, old, new))


def delta(old_dir: Path, new_dir: Path) -> tuple:
    """(moved, broken) lines: floats that moved, and every other
    difference of the reports and exits.txt of the two directories."""
    moved, broken = [], []
    old_exits = (old_dir / "exits.txt").read_text().splitlines()
    new_exits = (new_dir / "exits.txt").read_text().splitlines()
    if old_exits != new_exits:
        broken += ["exits.txt: %s -> %s" % (a, b) for a, b in
                   zip(old_exits, new_exits) if a != b]
        if len(old_exits) != len(new_exits):
            broken.append("exits.txt: %d -> %d lines"
                          % (len(old_exits), len(new_exits)))
    names = sorted({p.stem for d in (old_dir, new_dir)
                    for p in d.glob("*.json")})
    for name in names:
        a, b = old_dir / (name + ".json"), new_dir / (name + ".json")
        if not (a.exists() and b.exists()):
            broken.append("%s: only in %s" % (name,
                                              "OLD" if a.exists() else "NEW"))
            continue
        _walk(json.loads(a.read_text()), json.loads(b.read_text()), name,
              moved, broken)
    return moved, broken


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/report_delta.py OLD NEW", file=sys.stderr)
        return 2
    moved, broken = delta(Path(args[0]), Path(args[1]))
    for line in moved:
        print(line)
    for line in broken:
        print("NOT FLOAT " + line)
    print("%d floats moved, %d other differences" % (len(moved), len(broken)))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
