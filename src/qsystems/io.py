"""Bundle file formats and machine-readable reports.

Category bundles and algebra bundles are JSON documents; complex numbers are
stored as [re, im] pairs of decimal doubles and tree bases are addressed by
explicit (channel, multiplicity...) index triples, so files are unambiguous
and diff friendly.  Multiplicity indices are 0-based throughout.

Canonical form: entries are sorted, zero entries and the identity-sector
recouplings (implied by the unital gauge) are omitted; a parse -> serialize
-> parse round trip is the identity on models.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .fusion import FusionData
from .induction import AlgebraObject, algebra_from_coefficients
from .morphisms import CategoryModel, _f_blocks, _tree_pos, _tree_rows
from .qsystem import ThetaSpec

__all__ = [
    "BundleError",
    "save_category",
    "load_category",
    "save_algebra",
    "load_algebra",
    "read_matrix",
    "write_matrix",
    "write_report",
]

CATEGORY_FORMAT = "fusion-category-bundle-v1"
ALGEBRA_FORMAT = "algebra-bundle-v1"


def _dump_doc(doc: dict) -> str:
    """Top-level keys one per line, list entries one per line (diff friendly)."""
    lines = ["{"]
    for i, key in enumerate(sorted(doc)):
        val = doc[key]
        sep = "," if i < len(doc) - 1 else ""
        if isinstance(val, list) and val and isinstance(val[0], (list, tuple)):
            lines.append(json.dumps(key) + ": [")
            for j, entry in enumerate(val):
                tail = "," if j < len(val) - 1 else ""
                lines.append(" " + json.dumps(entry, separators=(", ", ": ")) + tail)
            lines.append("]" + sep)
        else:
            lines.append(json.dumps(key) + ": " + json.dumps(val, separators=(", ", ": ")) + sep)
    lines.append("}")
    return "\n".join(lines) + "\n"


class BundleError(ValueError):
    """Malformed or inconsistent bundle file."""


def _c2j(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _once(entries: list, width: int, what: str) -> None:
    """Refuse two entries that agree in their first ``width`` items: the
    second would silently replace the first."""
    seen = set()
    for entry in entries:
        key = str(entry[:width])
        if key in seen:
            raise BundleError(f"duplicate {what} entry {key}")
        seen.add(key)


def _j2c(v) -> complex:
    re, im = float(v[0]), float(v[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise BundleError(f"number {v!r} is not finite")
    return complex(re, im)


# ---------------------------------------------------------------------------
# category bundles


def save_category(model: CategoryModel, path, provenance: str = "") -> None:
    n = model.rank
    doc = {
        "format": CATEGORY_FORMAT,
        "name": model.name,
        "provenance": provenance,
        "labels": list(model.fusion.names),
        "dual": [int(x) for x in model.dual],
        "N": [[a, b, c, int(model.N[a, b, c])]
              for a in range(n) for b in range(n) for c in range(n)
              if model.N[a, b, c]],
        "qdim": [float(x) for x in model.qdim],
        "unitary": True,
        "braided": bool(model.braided),
        "F": [],
        "R": [],
    }
    quads, fl, start, left, right = _f_blocks(model)
    for q, (a, b, c, d) in enumerate(quads.tolist()):
        if 0 in (a, b, c):
            continue
        F = fl.view((a, b, c, d))
        lo, hi = start[q], start[q + 1]
        for i, lt in enumerate(left[lo:hi].tolist()):
            for j, rt in enumerate(right[lo:hi].tolist()):
                if abs(F[i, j]) > 1e-15:
                    doc["F"].append([a, b, c, d, lt, rt, _c2j(F[i, j])])
    if model.braided:
        for a in range(1, n):
            for b in range(1, n):
                for c in range(n):
                    R = model.R(a, b, c)
                    for f in range(R.shape[0]):
                        for e in range(R.shape[1]):
                            if abs(R[f, e]) > 1e-15:
                                doc["R"].append([a, b, c, f, e, _c2j(R[f, e])])
    Path(path).write_text(_dump_doc(doc))


def load_category(path) -> CategoryModel:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot parse category bundle {path}: {exc}") from exc
    try:
        if doc["format"] != CATEGORY_FORMAT:
            raise BundleError(f"unexpected format field {doc.get('format')!r}")
        names = doc["labels"]
        n = len(names)

        def labels(*xs):
            # numpy would wrap a negative label and never look up a large one
            for x in xs:
                if not (isinstance(x, int) and 0 <= x < n):
                    raise BundleError(f"label {x!r} is not one of 0..{n - 1}")

        _once(doc["N"], 3, "N")
        _once(doc["F"], 6, "F")
        _once(doc.get("R", []), 5, "R")
        N = np.zeros((n, n, n), dtype=int)
        for a, b, c, v in doc["N"]:
            labels(a, b, c)
            if not (isinstance(v, int) and v >= 0):
                raise BundleError(f"N entry {[a, b, c, v]} is not a nonnegative integer")
            N[a, b, c] = v
        qdim = doc.get("qdim")
        if qdim is not None and not np.all(np.isfinite(np.asarray(qdim, dtype=float))):
            raise BundleError(f"qdim {qdim!r} is not finite")
        fus = FusionData(names, doc["dual"], N, qdim)

        def vertices(*pairs):
            """True when each (i, count) has an int index i with 0 <= i < count."""
            return all(isinstance(i, int) and 0 <= i < count for i, count in pairs)

        # the model never reads an entry at an identity label (the unital
        # gauge fixes those) or off the tree bases, so such entries are errors
        entries = []
        for a, b, c, d, lt, rt, v in doc["F"]:
            labels(a, b, c, d, lt[0], rt[0])
            if 0 in (a, b, c):
                raise BundleError(f"F entry {(a, b, c, d)} has the identity label in a, b or c")
            (s, e, f), (t, g, h) = lt, rt
            if not vertices((e, N[a, b, s]), (f, N[s, c, d]), (g, N[b, c, t]), (h, N[a, t, d])):
                raise BundleError(f"F entry {(a, b, c, d, lt, rt)} is not fusion compatible")
            entries.append(((a, b, c, d, s, e, f, t, g, h), _j2c(v)))
        # an entry's row and column are the positions of its trees in the
        # block's tree order
        keys = np.array([key for key, _ in entries], dtype=int).reshape(-1, 10)
        at = np.arange(len(keys))
        left, right = _tree_rows(N, *keys[:, :4].T)
        rows = _tree_pos(*left, at, *keys[:, 4:7].T).tolist()
        cols = _tree_pos(*right, at, *keys[:, 7:].T).tolist()
        f_entries = {}
        for (key, v), row, col in zip(entries, rows, cols):
            f_entries.setdefault(key[:4], []).append((row, col, v))
        r_entries = {}
        for a, b, c, f, e, v in doc.get("R", []):
            labels(a, b, c)
            if 0 in (a, b):
                raise BundleError(f"R entry {(a, b, c)} has the identity label in a or b")
            if not vertices((f, N[b, a, c]), (e, N[a, b, c])):
                raise BundleError(f"R entry {(a, b, c, f, e)} is not fusion compatible")
            r_entries.setdefault((a, b, c), []).append((f, e, _j2c(v)))
        braided = bool(doc.get("braided", False))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, BundleError):
            raise
        raise BundleError(f"malformed category bundle {path}: {exc}") from exc

    def f_provider(a, b, c, d):
        M = np.zeros((int(N[a, b] @ N[:, c, d]), int(N[b, c] @ N[a, :, d])), dtype=complex)
        for row, col, v in f_entries.get((a, b, c, d), []):
            M[row, col] = v
        return M

    def r_provider(a, b, c):
        M = np.zeros((int(N[b, a, c]), int(N[a, b, c])), dtype=complex)
        for f, e, v in r_entries.get((a, b, c), []):
            M[f, e] = v
        return M

    return CategoryModel(fus, f_provider, r_provider if braided else None,
                         name=doc.get("name", Path(path).stem))


# ---------------------------------------------------------------------------
# algebra bundles


def save_algebra(alg: AlgebraObject, path, name: str = "", provenance: str = "") -> None:
    model = alg.model
    mult_vec = [int(alg.theta.multiplicities.get(lam, 0)) for lam in range(model.rank)]
    coeffs = {key: alg.coeffs.get(key, 0.0) for key in alg.theta.slots}
    entries = [[l, m, n, e, _c2j(v)] for (n, l, m, e), v in coeffs.items() if abs(v) > 1e-15]
    doc = {
        "format": ALGEBRA_FORMAT,
        "name": name or "algebra",
        "provenance": provenance,
        "category": model.name,
        "multiplicity": mult_vec,
        "coefficients": entries,
    }
    Path(path).write_text(_dump_doc(doc))


def load_algebra(path, model: CategoryModel) -> AlgebraObject:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot parse algebra bundle {path}: {exc}") from exc
    try:
        if doc["format"] != ALGEBRA_FORMAT:
            raise BundleError(f"unexpected format field {doc.get('format')!r}")
        mult_vec = doc["multiplicity"]
        if len(mult_vec) != model.rank:
            raise BundleError(f"multiplicity vector has length {len(mult_vec)}, "
                              f"category has {model.rank} sectors")
        theta = ThetaSpec(model, {lam: v for lam, v in enumerate(mult_vec) if v})
        if 0 not in theta.multiplicities:
            raise BundleError(f"multiplicity of the identity sector is {mult_vec[0]}; "
                              "an algebra needs a unit summand")
        _once(doc["coefficients"], 4, "coefficient")
        coeffs = {}
        for l, m, n, e, v in doc["coefficients"]:
            if (n, l, m, e) not in theta.slots:
                raise BundleError(f"coefficient entry {[l, m, n, e]} is not fusion compatible")
            coeffs[(n, l, m, e)] = _j2c(v)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, BundleError):
            raise
        raise BundleError(f"malformed algebra bundle {path}: {exc}") from exc
    return algebra_from_coefficients(theta, coeffs)


# ---------------------------------------------------------------------------
# integer matrices and reports


def read_matrix(path) -> np.ndarray:
    try:
        rows = []
        for line in Path(path).read_text().splitlines():
            line = line.split("#")[0].strip()
            if line:
                rows.append([int(x) for x in line.split()])
        Z = np.array(rows, dtype=int)
        if Z.ndim != 2:
            raise ValueError("not a 2d grid")
        return Z
    except (OSError, ValueError) as exc:
        raise BundleError(f"cannot read integer matrix {path}: {exc}") from exc


def write_matrix(Z, path) -> None:
    lines = [" ".join(str(int(v)) for v in row) for row in np.asarray(Z)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(report: dict, path) -> None:
    def default(o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serializable: {type(o)}")

    Path(path).write_text(json.dumps(report, indent=1, sort_keys=True, default=default) + "\n")
