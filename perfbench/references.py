"""Pinned references and the pass/fail checks of every benchmark item.

An item is one verified construction and counts as one operation.  Its
summary (built in ``workloads.py``) is compared here against a reference
written down from the mathematics, not from a previous run: coupling
matrices as sums of |x_a + x_b|^2 blocks, d(theta) from the closed-form
quantum dimensions, and the normality verdicts.  Any mismatch makes the
operation fail.

Tolerances are the ones the ``qsys`` command line applies: 1e-9 for
category coherence and modular checks, 1e-8 for Q-system relations, and
10 times that for chiral locality and commutativity.
"""

from __future__ import annotations

import math

TOL_CATEGORY = 1e-9
TOL_MODULAR = 1e-9
TOL_QSYSTEM = 1e-8
TOL_LOCALITY = 10 * TOL_QSYSTEM
RESIDUAL_FLOOR = 1e-16  # residuals below this read as exact in margin_digits

QSYSTEM_KEYS = ("unit_left", "unit_right", "coassociativity", "frobenius",
                "isometry", "w_isometry")
# every coherence input is braided, so hexagon and R unitarity are checked too
BRAIDED_KEYS = ("pentagon", "f_unitarity", "conjugate_equations", "hexagon", "r_unitarity")


def su2_dims(k: int) -> list:
    """Quantum dimensions of SU(2)_k, doubled-spin labels 0..k."""
    return [math.sin((j + 1) * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))
            for j in range(k + 1)]


def coupling(n: int, pairs=(), diagonal=()) -> list:
    """Z = sum over pairs of |x_a + x_b|^2, plus m |x_j|^2 per (j, m) in diagonal."""
    Z = [[0] * n for _ in range(n)]
    for block in pairs:
        for a in block:
            for b in block:
                Z[a][b] += 1
    for j, m in diagonal:
        Z[j][j] += m
    return Z


def d_theta(Z, dims) -> float:
    """d(theta) = sum Z[l, m] d(l) d(m) of theta = (+) Z[l, m] l (x) m-op."""
    return sum(z * dims[l] * dims[m] for l, row in enumerate(Z) for m, z in enumerate(row))


def _normal(pi):
    return {"n2": True, "n3": True, "pi": list(pi)}


NOT_NORMAL = {"n2": False, "n3": False, "pi": None}
GOLDEN = (1 + math.sqrt(5)) / 2
D4_PLUS_MINUS = coupling(5, [(0, 4)], [(2, 2)])
D4_PLUS_PLUS = coupling(5, [(0, 4), (1, 3)], [(2, 2)])
D6 = coupling(9, [(0, 8), (2, 6)], [(4, 2)])
E6 = coupling(11, [(0, 6), (3, 7), (4, 10)])

# ctps items: build_ctps on a bundled algebra, one sign pair each.
CTPS = {
    "su2k4/z2(+,-)": {"Z": D4_PLUS_MINUS, "d_theta": d_theta(D4_PLUS_MINUS, su2_dims(4)),
                      "normality": NOT_NORMAL, "control": False},
    # negative control: alpha^+ against alpha^+ is not chirally local
    "su2k4/z2(+,+)": {"Z": D4_PLUS_PLUS, "d_theta": d_theta(D4_PLUS_PLUS, su2_dims(4)),
                      "normality": NOT_NORMAL, "control": True},
    "fibonacci/fibtau(+,-)": {"Z": coupling(2, diagonal=[(0, 1), (1, 1)]),
                              "d_theta": 1 + GOLDEN ** 2,
                              "normality": _normal([0, 1]), "control": False},
    "ising/isingpsi(+,-)": {"Z": coupling(3, diagonal=[(0, 1), (1, 1), (2, 1)]),
                            "d_theta": 4.0, "normality": _normal([0, 1, 2]), "control": False},
    "z4/z4fermion(+,-)": {"Z": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                          "d_theta": 4.0, "normality": _normal([0, 3, 2, 1]), "control": False},
}
# The control's chiral-locality residual is the distance between two
# opposite-sign lifts of one braiding: exactly 2.
CONTROL_LOCALITY = 2.0

# invariants items: alpha-induction classification at levels past the bundles.
# The enumeration runs at bound 1, so D6 (entry 2 at (4, 4)) is out of its
# reach and only the diagonal invariant is found at k = 8.
INVARIANTS = {
    "su2k8/D6": {"Z": D6, "algebra_d": 1 + su2_dims(8)[8], "normality": NOT_NORMAL,
                 "found": 1, "in_enumeration": False},
    "su2k10/E6": {"Z": E6, "algebra_d": 1 + su2_dims(10)[6], "normality": NOT_NORMAL,
                  "found": 3, "in_enumeration": True},
}


def reference(workload: str, name: str, refs=None):
    """The pinned reference of one item (None for coherence, which pins no values)."""
    if workload == "coherence":
        return None
    return (refs or (CTPS if workload == "ctps" else INVARIANTS))[name]


def checks(workload: str, s: dict, ref) -> list:
    """The pass/fail threshold checks of one item, as (name, residual, tol).

    The negative control's chiral locality is left out: it is meant to fail.
    """
    if workload == "coherence":
        return [(k, v, TOL_CATEGORY) for k, v in s["residuals"].items()]
    out = [("algebra." + k, v, TOL_QSYSTEM) for k, v in s["algebra_residuals"].items()]
    if workload == "ctps":
        r = s["residuals"]
        out += [(k, r[k], TOL_QSYSTEM) for k in QSYSTEM_KEYS + ("dim_identity",)]
        if not ref["control"]:
            out.append(("chiral_locality", r["chiral_locality"], TOL_LOCALITY))
        if r["commutativity"] is not None:
            out.append(("commutativity", r["commutativity"], TOL_LOCALITY))
    else:
        out += [(k, v, TOL_MODULAR) for k, v in s["modular_residuals"].items()]
        out.append(("chiral_locality", s["e3"], TOL_LOCALITY))
    return out


def margin_digits(item_checks) -> float:
    """min over checks of log10(tol / max(residual, 1e-16)); 0 when no item produced checks."""
    return min((math.log10(tol / max(r, RESIDUAL_FLOOR)) for _, r, tol in item_checks),
               default=0.0)


def mismatches(workload: str, s: dict, refs=None) -> list:
    """Every way the item summary disagrees with its reference; empty when correct."""
    ref = reference(workload, s["name"], refs)
    bad = [f"{k} = {r:.3e} not below {tol:g}" for k, r, tol in checks(workload, s, ref)
           if not r < tol]
    if workload == "coherence":
        if not s["fusion_ok"]:
            bad.append("fusion axioms violated")
        if sorted(s["residuals"]) != sorted(BRAIDED_KEYS):
            bad.append(f"residuals {sorted(s['residuals'])}, expected {sorted(BRAIDED_KEYS)}")
        return bad
    if s["Z"] != ref["Z"]:
        bad.append(f"Z = {s['Z']}, expected {ref['Z']}")
    if s["normality"] != ref["normality"]:
        bad.append(f"normality {s['normality']}, expected {ref['normality']}")
    if workload == "ctps":
        if not abs(s["d_theta"] - ref["d_theta"]) < 1e-9:
            bad.append(f"d(theta) = {s['d_theta']!r}, expected {ref['d_theta']!r}")
        if not (s["irreducible"] and s["qsystem_ok"]):
            bad.append("Q-system relations or irreducibility fail")
        r = s["residuals"]
        if ref["control"]:
            if not abs(r["chiral_locality"] - CONTROL_LOCALITY) < 1e-9:
                bad.append(f"control chiral locality {r['chiral_locality']!r}, expected 2")
            if r["commutativity"] is not None:
                bad.append("control ran commutativity; it must be skipped")
            if s["ok"]:
                bad.append("control passed; it must fail")
        elif not s["ok"]:
            bad.append("construction failed")
    else:
        if not abs(s["algebra_d"] - ref["algebra_d"]) < 1e-9:
            bad.append(f"d(Theta) = {s['algebra_d']!r}, expected {ref['algebra_d']!r}")
        if not s["modular_data"]:
            bad.append("no modular data")
        if s["found"] != ref["found"]:
            bad.append(f"{s['found']} invariants enumerated, expected {ref['found']}")
        if s["in_enumeration"] != ref["in_enumeration"]:
            bad.append(f"Z in enumeration: {s['in_enumeration']}, "
                       f"expected {ref['in_enumeration']}")
    return bad
