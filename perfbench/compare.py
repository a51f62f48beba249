"""Diff the outputs and metrics of two benchmark records.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Records are the files ``run.py`` writes to ``perfbench/results``.  Results
(Z, d(theta), normality, every residual) must agree: integers, flags and
strings exactly, floats to ``TOL`` (1e-13) absolute.  Exits 1 on any difference,
and prints the metrics of both records side by side.
"""

from __future__ import annotations

import argparse
import json
import sys

TOL = 1e-13


def differences(a, b, path: str = "") -> list:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in a for d in differences(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{path}[{i}]")]
    if isinstance(a, float) or isinstance(b, float):
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        same = numbers and abs(a - b) <= TOL
    else:
        same = a == b
    return [] if same else [f"{path}: {a!r} != {b!r}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Diff two benchmark records.")
    p.add_argument("before")
    p.add_argument("after")
    args = p.parse_args(argv)
    with open(args.before) as f:
        a = json.load(f)
    with open(args.after) as f:
        b = json.load(f)
    for k in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(k, {}).get("value")
        vb = b["metrics"].get(k, {}).get("value")
        print(f"{k:32s} {va!s:>24} {vb!s:>24}")
    diffs = differences(a["results"], b["results"], "results")
    for d in diffs:
        print("DIFF", d)
    print(f"results {'differ' if diffs else 'agree'} to {TOL:g}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
