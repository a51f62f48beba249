"""Built-in category data at desk scale.

Standard unitary gauge data for the small categories shipped with the
package: trivial, Fibonacci, Ising, SU(2) level k, and pointed Z2 / Z4
models.  All models are certified by :func:`qsystems.morphisms.validate_category`
(pentagon, hexagon, unitarity, conjugate equations) in the test suite; the
SU(2)_k recoupling uses the symmetrized q-deformed Racah formula.
"""

from __future__ import annotations

import math

import numpy as np

from .fusion import FusionData
from .morphisms import CategoryModel

__all__ = ["trivial", "fibonacci", "ising", "su2_level", "pointed_z2", "semion",
           "pointed_z4", "CATALOG", "build"]

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def trivial() -> CategoryModel:
    fus = FusionData(["1"], [0], np.ones((1, 1, 1), dtype=int), [1.0])
    return CategoryModel(fus, None, lambda a, b, c: np.eye(1, dtype=complex), name="trivial")


def fibonacci() -> CategoryModel:
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    fus = FusionData(["1", "tau"], [0, 1], N, [1.0, _PHI])
    Ftt = np.array([[1.0 / _PHI, 1.0 / np.sqrt(_PHI)],
                    [1.0 / np.sqrt(_PHI), -1.0 / _PHI]], dtype=complex)

    def f(a, b, c, d):
        if (a, b, c, d) == (1, 1, 1, 1):
            return Ftt
        # remaining non-unital combinations are one dimensional and trivial
        return np.eye(1, dtype=complex)

    r_vals = {0: np.exp(-4j * np.pi / 5.0), 1: np.exp(3j * np.pi / 5.0)}

    def r(a, b, c):
        return np.array([[r_vals[c]]]) if a == b == 1 else np.eye(1, dtype=complex)

    return CategoryModel(fus, f, r, name="fibonacci")


def ising() -> CategoryModel:
    """Ising anyons, with Frobenius-Schur indicator +1 and theta(s) = exp(i pi / 8)."""
    N = np.zeros((3, 3, 3), dtype=int)
    for a in range(3):
        N[a, 0, a] = N[0, a, a] = 1
    N[1, 1, 0] = N[1, 1, 2] = 1  # s*s = 1 + p
    N[1, 2, 1] = N[2, 1, 1] = 1  # s*p = p*s = s
    N[2, 2, 0] = 1               # p*p = 1
    fus = FusionData(["1", "s", "p"], [0, 1, 2], N, [1.0, np.sqrt(2.0), 1.0])
    Fsss = 1 / np.sqrt(2.0) * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

    def f(a, b, c, d):
        if (a, b, c, d) == (1, 1, 1, 1):
            return Fsss
        if (a, b, c, d) in ((2, 1, 2, 1), (1, 2, 1, 2)):
            return -np.eye(1, dtype=complex)
        return np.eye(1, dtype=complex)

    def r(a, b, c):
        if a == b == 1:
            return np.array([[np.exp(-1j * np.pi / 8.0) if c == 0 else np.exp(3j * np.pi / 8.0)]])
        if a == b == 2:
            return -np.eye(1, dtype=complex)
        if {a, b} == {1, 2}:
            return -1j * np.eye(1, dtype=complex)
        return np.eye(1, dtype=complex)

    return CategoryModel(fus, f, r, name="ising")


# -- SU(2) level k -----------------------------------------------------------


def _qnum(k: int, n: int) -> float:
    return np.sin(n * np.pi / (k + 2)) / np.sin(np.pi / (k + 2))


def _qfactorials(k: int, top: int) -> list:
    """[m]_q! for m = 0..top at level k, as one running product over [1]_q, [2]_q, ..."""
    out = [1.0]
    for i in range(1, top + 1):
        out.append(out[-1] * _qnum(k, i))
    return out


def _qdeltas(fac: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Triangle coefficients Delta(a, b, c) of the admissible triples (the nonzero N), 0 elsewhere."""
    a, b, c = np.nonzero(N)
    out = np.zeros(N.shape)
    out[a, b, c] = np.sqrt(fac[(-a + b + c) // 2] * fac[(a - b + c) // 2]
                           * fac[(a + b - c) // 2] / fac[(a + b + c) // 2 + 1])
    return out


def _admissible(k, a, b, c) -> bool:
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= min(a + b, 2 * k - a - b)


def _racah(fac, delta, qd, a, b, s, c, d, t) -> np.ndarray:
    """F(a, b, c, d)[s, t] = +-sqrt(d_s d_t) {a b s; c d t}_q for arrays of admissible labels.

    The q-Racah series is summed in z, one pass per offset from its first
    term, and every product is formed in the order of the per-entry formula,
    so each entry is the same double the scalar sum gives.
    """
    lo = ((a + b + s) // 2, (s + c + d) // 2, (b + c + t) // 2, (a + t + d) // 2)
    hi = ((a + b + c + d) // 2, (a + s + c + t) // 2, (b + s + d + t) // 2)
    start = np.maximum.reduce(lo)
    span = np.minimum.reduce(hi) - start  # the series has span + 1 terms
    res = np.zeros(start.shape)
    for o in range(int(span.max()) + 1):
        i = np.flatnonzero(span >= o)
        z = start[i] + o
        den = (fac[z - lo[0][i]] * fac[z - lo[1][i]] * fac[z - lo[2][i]] * fac[z - lo[3][i]]
               * fac[hi[0][i] - z] * fac[hi[1][i] - z] * fac[hi[2][i] - z])
        res[i] += np.where(z % 2, -1.0, 1.0) * fac[z + 1] / den
    sixj = res * (delta[a, b, s] * delta[s, c, d] * delta[b, c, t] * delta[a, t, d])
    sign = 1 - 2 * ((a + b + c + d) // 2 % 2)
    return sign * np.sqrt(qd[s] * qd[t]) * sixj


# F entries per vectorised Racah pass: bounds the working memory of the F fill
_RACAH_BATCH = 1 << 10


def _entries(has: np.ndarray, size: int):
    """Labels (a, b, s, c, d, t) of the F entries with a, b, c != 0, in table order,
    in batches of at least ``size`` entries (the last may be smaller)."""
    n = len(has)
    sct = has.transpose(1, 2, 0)
    parts, count = [], 0
    for a in range(1, n):
        for b in range(1, n):
            # entry (c, d, s, t) of F(a, b, c, d): N[a, b, s] N[s, c, d] N[b, c, t] N[a, t, d]
            left = has[a, b] & sct                 # (c, d, s)
            right = has[b][:, None, :] & has[a].T  # (c, d, t)
            c, d, s, t = np.nonzero(left[1:, :, :, None] & right[1:, :, None, :])
            parts.append(np.stack([np.full(len(c), a), np.full(len(c), b), s, c + 1, d, t]))
            count += len(c)
            if count >= size:
                yield np.concatenate(parts, axis=1)
                parts, count = [], 0
    if parts:
        yield np.concatenate(parts, axis=1)


def _f_table(k: int, N: np.ndarray, qd: np.ndarray):
    """Every F entry of su(2)_k with a, b, c != 0, flat, and the offset of each block.

    F(a, b, c, d) is entries off[q]:off[q + 1], q = ((a n + b) n + c) n + d,
    row-major in its left trees s and right trees t, each in ascending order
    (su(2)_k has no multiplicities).
    """
    n = k + 1
    # labels are at most k, so a 6j symbol needs [m]_q! up to m = 2k + 1
    fac = np.array(_qfactorials(k, 2 * k + 1))
    delta = _qdeltas(fac, N)
    size = np.tensordot(N, N, axes=(2, 0))  # dim Hom(d, abc), then its square
    size[0] = size[:, 0] = size[:, :, 0] = 0
    size **= 2
    # the offsets are kept as long as the table, in the smallest type that holds them
    off = np.concatenate([[0], np.cumsum(size.ravel())])
    off = off.astype(np.min_scalar_type(off[-1]))
    del size
    out = np.empty(off[-1], dtype=complex)
    pos = 0
    for labels in _entries(N > 0, _RACAH_BATCH):
        vals = _racah(fac, delta, qd, *labels)
        out[pos:pos + len(vals)] = vals
        pos += len(vals)
    return out, off


def su2_level(k: int) -> CategoryModel:
    """SU(2)_k anyons, labels are doubled spins 0..k.

    The F table is filled in one pass on the model's first F read, which
    copies it into the model's own table and then drops it.
    """
    n = k + 1
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if _admissible(k, a, b, c):
                    N[a, b, c] = 1
    qd = np.array([_qnum(k, a + 1) for a in range(n)])
    fus = FusionData([str(a) for a in range(n)], list(range(n)), N, qd)
    table = None

    def f(a, b, c, d):
        nonlocal table
        if table is None:
            table = _f_table(k, N, qd)
        vals, off = table
        q = ((a * n + b) * n + c) * n + d
        lo, hi = off[q], off[q + 1]
        m = math.isqrt(hi - lo)
        return vals[lo:hi].reshape(m, m)

    def r(a, b, c):
        phase = (-1) ** (((c - a - b) // 2) % 2) * np.exp(
            2j * np.pi * (c * (c + 2) - a * (a + 2) - b * (b + 2)) / (8.0 * (k + 2)))
        return phase * np.eye(1, dtype=complex)

    return CategoryModel(fus, f, r, name=f"su2k{k}")


# -- pointed models ----------------------------------------------------------


def _cyclic_fusion(n: int, names=None) -> FusionData:
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
    dual = [(-a) % n for a in range(n)]
    return FusionData(names or [str(a) for a in range(n)], dual, N, np.ones(n))


def pointed_z2() -> CategoryModel:
    """Z2 bosons: trivial associator, symmetric (degenerate) braiding."""
    fus = _cyclic_fusion(2, ["1", "b"])
    one = lambda *args: np.eye(1, dtype=complex)
    return CategoryModel(fus, one, one, name="z2boson")


def semion() -> CategoryModel:
    fus = _cyclic_fusion(2, ["1", "s"])

    def f(a, b, c, d):
        return -np.eye(1, dtype=complex) if (a, b, c) == (1, 1, 1) else np.eye(1, dtype=complex)

    def r(a, b, c):
        return 1j * np.eye(1, dtype=complex) if (a, b) == (1, 1) else np.eye(1, dtype=complex)

    return CategoryModel(fus, f, r, name="semion")


def pointed_z4() -> CategoryModel:
    """Z4 anyons with twists theta_a = zeta_8^(a^2) (nondegenerate braiding).

    Associator from the standard cocycle (-1)^(a * floor((b+c)/4)), braiding
    R(a,b) = zeta_8^(ab); the hexagon identities fix the pairing.
    """
    fus = _cyclic_fusion(4)
    z8 = np.exp(1j * np.pi / 4.0)

    def f(a, b, c, d):
        val = -1.0 if (a % 2) * ((b + c) // 4) % 2 else 1.0
        return val * np.eye(1, dtype=complex)

    def r(a, b, c):
        return (z8 ** (a * b)) * np.eye(1, dtype=complex)

    return CategoryModel(fus, f, r, name="z4")


def rep_a4() -> CategoryModel:
    """Unitary representation category of the alternating group on 4 letters.

    Carries a genuine fusion multiplicity (3 x 3 contains 3 twice), which
    exercises every multiplicity index in the engine.  The braiding is the
    symmetric flip, so the S matrix is degenerate on purpose.  Recoupling
    data is computed from explicit irreps by averaging projectors; bases are
    orthonormalized deterministically.
    """
    import itertools

    elements = [p for p in itertools.permutations(range(4))
                if sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 == 0]
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def pairing_index(pr):
        return pairings.index(tuple(sorted(map(tuple, map(sorted, pr)))))

    def quotient_value(p):
        # image of p in the cyclic quotient of order three
        img = [pairing_index([[p[a], p[b]] for a, b in pr]) for pr in pairings]
        if img == [0, 1, 2]:
            return 0
        return 1 if img == [1, 2, 0] else 2

    omega = np.exp(2j * np.pi / 3.0)
    basis3 = np.linalg.qr(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                                   dtype=float))[0]

    def rep(label, p):
        if label == 0:
            return np.eye(1, dtype=complex)
        if label in (1, 2):
            return (omega ** (label * quotient_value(p))) * np.eye(1, dtype=complex)
        P = np.zeros((4, 4))
        for i in range(4):
            P[p[i], i] = 1.0
        return (basis3.T @ P @ basis3).astype(complex)

    dims = [1, 1, 1, 3]
    nlab = 4

    hom_cache = {}

    def hom_vertices(a, b, c):
        """Orthonormal isometries V_c -> V_a (x) V_b, deterministic gauge."""
        key = (a, b, c)
        if key in hom_cache:
            return hom_cache[key]
        da, db, dc = dims[a], dims[b], dims[c]
        if a == 0:
            out = [np.eye(dc, dtype=complex)] if b == c else []
        elif b == 0:
            out = [np.eye(dc, dtype=complex)] if a == c else []
        else:
            P = np.zeros((da * db * dc, da * db * dc), dtype=complex)
            for p in elements:
                P += np.kron(np.kron(rep(a, p), rep(b, p)), rep(c, p).conj())
            P /= len(elements)
            w, v = np.linalg.eigh(P)
            cols = [v[:, i] for i in range(len(w)) if w[i] > 0.5]
            out = []
            for col in cols:
                X = col.reshape(da * db, dc)
                for Y in out:
                    X = X - np.trace(Y.conj().T @ X) / dc * Y
                nrm = np.sqrt(np.trace(X.conj().T @ X).real / dc)
                if nrm < 1e-9:
                    continue
                X = X / nrm
                flat = X.ravel()
                piv = np.flatnonzero(np.abs(flat) > 1e-9)[0]
                X = X * np.conj(flat[piv] / abs(flat[piv]))
                out.append(X)
        hom_cache[key] = out
        return out

    N = np.zeros((nlab, nlab, nlab), dtype=int)
    for a in range(nlab):
        for b in range(nlab):
            for c in range(nlab):
                N[a, b, c] = len(hom_vertices(a, b, c))
    fus = FusionData(["1", "w", "w*", "3"], [0, 2, 1, 3], N, [1.0, 1.0, 1.0, 3.0])

    def f(a, b, c, d):
        dd = dims[d]
        left = []
        for sig in range(nlab):
            for te in hom_vertices(a, b, sig):
                for tf in hom_vertices(sig, c, d):
                    left.append(np.kron(te, np.eye(dims[c])) @ tf)
        right = []
        for tau in range(nlab):
            for tg in hom_vertices(b, c, tau):
                for th in hom_vertices(a, tau, d):
                    right.append(np.kron(np.eye(dims[a]), tg) @ th)
        M = np.zeros((len(left), len(right)), dtype=complex)
        for i, L in enumerate(left):
            for j, R in enumerate(right):
                M[i, j] = np.trace(L.conj().T @ R) / dd
        return M

    def flip(a, b):
        da, db = dims[a], dims[b]
        S = np.zeros((db * da, da * db))
        for i in range(da):
            for j in range(db):
                S[j * da + i, i * db + j] = 1.0
        return S

    def r(a, b, c):
        ta = hom_vertices(a, b, c)
        tb = hom_vertices(b, a, c)
        M = np.zeros((len(tb), len(ta)), dtype=complex)
        for i, Y in enumerate(tb):
            for j, X in enumerate(ta):
                M[i, j] = np.trace(Y.conj().T @ flip(a, b) @ X) / dims[c]
        return M

    return CategoryModel(fus, f, r, name="rep_a4")


CATALOG = {
    "trivial": trivial,
    "fibonacci": fibonacci,
    "ising": ising,
    "su2k4": lambda: su2_level(4),
    "z2boson": pointed_z2,
    "semion": semion,
    "z4": pointed_z4,
    "rep_a4": rep_a4,
}


def build(name: str) -> CategoryModel:
    try:
        return CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; have {sorted(CATALOG)}") from None
