"""Which reports, and which JSON fields, differ between two report dumps.

    python3 tools/report_bytes.py --src A/src --dump dumpA --seed 7 --seed 11 > /dev/null
    python3 tools/report_bytes.py --src B/src --dump dumpB --seed 7 --seed 11 > /dev/null
    python3 tools/report_diff.py dumpA dumpB

Reads each dump's index.txt (`name rc sha256` per report) and prints the
reports present in only one dump, those whose exit codes differ, the
non-JSON reports whose bytes differ, and, over the JSON reports that
differ, each field path whose values differ (list indices shown as [])
with the number of values, the number of reports, and the largest relative
difference.  A number's difference is taken relative to the largest
magnitude in the list of numbers it sits in (itself, for a scalar), so a
component of F near 0 is measured on F's scale; a difference in anything
but a number counts as relative difference inf.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import defaultdict


def read_index(dump: str) -> dict[str, tuple[str, str]]:
    """name -> (rc, sha256) from dump/index.txt."""
    with open(os.path.join(dump, "index.txt"), encoding="utf-8") as fh:
        return {name: (rc, sha) for name, rc, sha in (line.split() for line in fh if line.strip())}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_diffs(a, b, path: str = "", scale: float | None = None):
    """(path, relative difference) for every value that differs between a and b."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from json_diffs(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        numbers = [abs(v) for v in a + b if _is_number(v)]
        inner = max(numbers) if len(numbers) == len(a) + len(b) and numbers else None
        for x, y in zip(a, b):
            yield from json_diffs(x, y, path + "[]", inner)
    elif _is_number(a) and _is_number(b):
        if a != b:
            size = scale if scale is not None else max(abs(a), abs(b))
            yield path, abs(a - b) / size if math.isfinite(size) and size > 0 else math.inf
    elif a != b:
        yield path, math.inf


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="reports and JSON fields that differ between two report dumps")
    p.add_argument("a", help="first dump directory (tools/report_bytes.py --dump)")
    p.add_argument("b", help="second dump directory")
    args = p.parse_args(argv)
    index_a, index_b = read_index(args.a), read_index(args.b)
    only = sorted(set(index_a) ^ set(index_b))
    both = [name for name in index_a if name in index_b]
    differ = [name for name in both if index_a[name] != index_b[name]]
    rc_differ = [name for name in differ if index_a[name][0] != index_b[name][0]]
    json_names = [name for name in differ if name.endswith("/json")]
    other = [name for name in differ if not name.endswith("/json")]
    n_json = sum(name.endswith("/json") for name in both)

    fields: dict[str, list] = defaultdict(lambda: [0, set(), 0.0])
    for name in list(json_names):
        try:
            docs = [_load_json(os.path.join(dump, name)) for dump in (args.a, args.b)]
        except ValueError:  # an empty or failed report is compared as text
            json_names.remove(name)
            other.append(name)
            continue
        for path, rel in json_diffs(*docs):
            entry = fields[path]
            entry[0] += 1
            entry[1].add(name)
            entry[2] = max(entry[2], rel)

    print(f"reports: {len(index_a)} in A, {len(index_b)} in B, {len(differ)} differ")
    print(f"only in one dump: {', '.join(only) or 'none'}")
    print(f"exit codes differ: {', '.join(rc_differ) or 'none'}")
    print(f"non-JSON reports that differ: {len(other)}")
    for name in other:
        print(f"  {name}")
    print(f"JSON reports that differ: {len(json_names)} of {n_json}")
    if fields:
        print("  field  values  reports  max_rel")
    for path in sorted(fields):
        values, names, rel = fields[path]
        print(f"  {path}  {values}  {len(names)}  {rel:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
