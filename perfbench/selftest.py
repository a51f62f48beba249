"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs the quick items of each workload in-process and checks that they
match their references, and that the traced stage calls give the same
summaries as the package's ``validate_category`` and ``build_ctps``.  Then
checks that every wrong reference (a changed Z entry, d(theta), normality
verdict, control flag, enumeration count) and every out-of-tolerance
residual is caught as a failed operation.  Also
checks that ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.
Exits 1 on the first problem.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

QUICK = {"coherence": ("fibonacci", "ising", "z4"),
         "ctps": ("fibonacci/fibtau(+,-)", "ising/isingpsi(+,-)", "z4/z4fermion(+,-)")}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def caught(workload, summary, refs=None) -> bool:
    return bool(references.mismatches(workload, summary, refs))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")

    workloads.import_package()
    got = {}
    for workload, names in QUICK.items():
        # untraced items call the package's validate_category/build_ctps; traced items
        # call its stage functions, on freshly loaded inputs, and must give equal summaries
        for traced in (False, True):
            tr = workloads.Tracer(enabled=traced)
            for name, inputs in workloads.setup(workload, ROOT, tr):
                if name not in names:
                    continue
                summary, _ = workloads.run_item(workload, name, inputs, tr, seed=0)
                if traced:
                    expect(summary == got[name], f"{name}: staged calls equal the package's")
                else:
                    expect(not references.mismatches(workload, summary), f"{name} matches")
                    got[name] = summary

    # iterations that computed different numbers make the run incorrect
    s = copy.deepcopy(got["ising"])
    s["residuals"]["pentagon"] += 1e-15
    recs = [{"items": [{"summary": got["ising"]}]}, {"items": [{"summary": s}]}]
    expect(run.results_identical(recs[:1] * 2) and not run.results_identical(recs),
           "iterations with different results are caught")

    # a wrong reference is caught
    for name in QUICK["ctps"]:
        for field, wrong in (("Z", lambda z: [[v + (i == j == 0) for j, v in enumerate(row)]
                                              for i, row in enumerate(z)]),
                             ("d_theta", lambda d: d + 1e-6),
                             ("normality", lambda n: {**n, "n3": not n["n3"]}),
                             ("control", lambda c: not c)):
            refs = copy.deepcopy(references.CTPS)
            refs[name][field] = wrong(refs[name][field])
            expect(caught("ctps", got[name], refs), f"wrong {field} of {name} is caught")

    # a residual above its tolerance is caught
    s = copy.deepcopy(got["ising"])
    s["residuals"]["pentagon"] = 2e-9
    expect(caught("coherence", s), "pentagon residual above 1e-9 is caught")
    s = copy.deepcopy(got["fibonacci/fibtau(+,-)"])
    s["residuals"]["frobenius"] = 2e-8
    expect(caught("ctps", s), "Frobenius residual above 1e-8 is caught")

    # a negative control that passes chiral locality is caught
    s = copy.deepcopy(got["fibonacci/fibtau(+,-)"])
    ref = references.CTPS["su2k4/z2(+,+)"]
    s.update(name="su2k4/z2(+,+)", Z=ref["Z"], d_theta=ref["d_theta"], normality=ref["normality"])
    expect(caught("ctps", s), "a control passing chiral locality is caught")

    # invariants: a summary written from the reference passes, each wrong field fails
    ref = references.INVARIANTS["su2k10/E6"]
    s = {"name": "su2k10/E6", "Z": ref["Z"], "algebra_d": ref["algebra_d"],
         "algebra_residuals": {"unit_left": 1e-15}, "modular_data": True,
         "modular_residuals": {"ZS_SZ": 1e-15, "ZT_TZ": 1e-15}, "e3": 1e-14,
         "normality": ref["normality"], "found": ref["found"],
         "in_enumeration": ref["in_enumeration"]}
    expect(not caught("invariants", s), "su2k10/E6 reference summary matches")
    for field, wrong in (("found", 2), ("in_enumeration", False), ("algebra_d", 4.0),
                         ("e3", 1e-6), ("modular_data", False)):
        expect(caught("invariants", {**s, field: wrong}), f"wrong E6 {field} is caught")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
