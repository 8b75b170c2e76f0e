#!/usr/bin/env python3
"""Print every JSON field and CSV cell that differs between two output
directories of `scripts/output_digests.py`, with its relative change.

    python3 scripts/output_digests.py OUT_A > a.txt   # in checkout A
    python3 scripts/output_digests.py OUT_B > b.txt   # in checkout B
    python3 scripts/output_diff.py OUT_A OUT_B

Each line is `file:path  old -> new`, followed by `(+1.23%)` when both
values are numbers and the old one is not zero. A JSON path names dict
keys and list indices joined by dots; a CSV path is the data row's index
and the column's header. A field or file present on one side only is
one line, with its other side `(absent)`, and so is a list or CSV whose
length changed. Other files are compared as bytes. Exits 1 if anything
differs, as diff does.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

ABSENT = object()


def _number(v):
    """`v` as a float if it is a JSON number or a numeric CSV cell."""
    if isinstance(v, (bool, bytes)):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _show(v) -> str:
    if v is ABSENT:
        return "(absent)"
    if isinstance(v, dict):
        return f"{{{len(v)} keys}}"
    if isinstance(v, list):
        return f"[{len(v)} items]"
    if isinstance(v, bytes):
        return f"{len(v)} bytes"
    return v if isinstance(v, str) else json.dumps(v)


def _diff(where: str, path: tuple, a, b, out: list) -> None:
    """Append a line for each leaf under `path` where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            _diff(where, path + (str(k),), a.get(k, ABSENT),
                  b.get(k, ABSENT), out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(where, path + (str(i),), x, y, out)
    elif a != b or type(a) is not type(b):
        line = f"{where}:{'.'.join(path)}" if path else where
        line += f"  {_show(a)} -> {_show(b)}"
        x, y = _number(a), _number(b)
        if x is not None and y is not None and x != 0:
            line += f"  ({(y - x) / abs(x):+.2%})"
        out.append(line)


def _load(path: Path):
    if not path.is_file():
        return ABSENT
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    return path.read_bytes()


def diff_dirs(a: Path, b: Path) -> list:
    """One line for each difference between output directories a and b,
    in file order."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    out: list = []
    for name in names:
        _diff(name, (), _load(a / name), _load(b / name), out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="output directory A")
    ap.add_argument("new", type=Path, help="output directory B")
    args = ap.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    lines = diff_dirs(args.old, args.new)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
