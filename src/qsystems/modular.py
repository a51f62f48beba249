"""Modular data of a braided model and invariance checks for coupling matrices.

S is computed from the monodromy trace, T from the twists; both exist for
any braided model, but S is unitary only when the braiding is nondegenerate.
Degenerate inputs are flagged (``ModularPair.modular`` is False) and the
invariance checks refuse to run on them; callers are expected to skip with a
warning rather than fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .morphisms import CategoryModel, UnsupportedOperationError, twist

__all__ = ["ModularPair", "compute_st", "modular_residuals", "verlinde_fusion",
           "check_modular_invariant", "enumerate_commutant"]

# most candidates enumerate_commutant tests at once; larger chunks cost peak
# memory for no measurable speed
_CHUNK = 512


@dataclass
class ModularPair:
    """S matrix and diagonal twist vector of a braided model."""

    S: np.ndarray
    T: np.ndarray  # diagonal entries
    modular: bool

    @property
    def rank(self) -> int:
        return len(self.T)


def compute_st(model: CategoryModel, tol: float = 1e-9) -> ModularPair:
    """S from the monodromy trace, T from the twists (T[0] = 1 by construction)."""
    if not model.braided:
        raise UnsupportedOperationError("modular data needs a braiding")
    n = model.rank
    D = np.sqrt(model.fusion.global_dim)
    S = np.zeros((n, n), dtype=complex)
    for lam in range(n):
        for mu in range(n):
            acc = 0.0 + 0.0j
            for c in range(n):
                R1 = model.R(lam, mu, c)
                R2 = model.R(mu, lam, c)
                if R1.size:
                    acc += model.qdim[c] * np.trace(R2 @ R1)
            # Hopf link with the orientation matching the twist convention
            # (so that (ST)^3 is proportional to S^2)
            S[lam, mu] = np.conj(acc) / D
    T = np.array([twist(model, lam) for lam in range(n)])
    modular = bool(np.max(np.abs(S @ S.conj().T - np.eye(n))) < max(tol, 1e-7))
    return ModularPair(S=S, T=T, modular=modular)


def modular_residuals(pair: ModularPair, dual) -> dict:
    """Structural identities: symmetry, unitarity, S^2 = conjugation, (ST)^3 ~ S^2."""
    S, T = pair.S, np.diag(pair.T)
    n = pair.rank
    C = np.zeros((n, n))
    for lam in range(n):
        C[lam, int(dual[lam])] = 1.0
    st3 = np.linalg.matrix_power(S @ T, 3)
    s2 = S @ S
    # remove the central-charge phase before comparing
    num = np.vdot(s2, st3)
    phase = num / abs(num) if abs(num) > 1e-12 else 1.0
    return {
        "symmetric": float(np.max(np.abs(S - S.T))),
        "unitary": float(np.max(np.abs(S @ S.conj().T - np.eye(n)))),
        "charge_conjugation": float(np.max(np.abs(s2 - C))),
        "st_cubed": float(np.max(np.abs(st3 - phase * s2))),
        "s_row_positive": float(-min(np.min(S[0].real), 0.0) + np.max(np.abs(S[0].imag))),
    }


def verlinde_fusion(pair: ModularPair, tol: float = 1e-6) -> np.ndarray:
    """Integer fusion tensor recomputed from S; raises if entries are not integral."""
    S = pair.S
    n = pair.rank
    N = np.einsum("ls,ms,ns,s->lmn", S, S, S.conj(), 1.0 / S[0])
    if np.max(np.abs(N.imag)) > tol or np.max(np.abs(N.real - np.round(N.real))) > tol:
        raise ValueError("Verlinde numbers are not integral; S is not modular fusion data")
    return np.round(N.real).astype(int)


def check_modular_invariant(Z: np.ndarray, pair: ModularPair) -> dict:
    """Operator-norm commutators of Z with S and T."""
    if not pair.modular:
        raise UnsupportedOperationError("degenerate braiding: modular checks unavailable")
    Z = np.asarray(Z, dtype=complex)
    T = np.diag(pair.T)
    return {
        "ZS_SZ": float(np.linalg.norm(Z @ pair.S - pair.S @ Z, 2)),
        "ZT_TZ": float(np.linalg.norm(Z @ T - T @ Z, 2)),
    }


def enumerate_commutant(pair: ModularPair, bound: int, tol: float = 1e-9,
                        limit: int = 2_000_000) -> list:
    """All nonnegative-integer matrices with entries <= bound, Z[0,0] = 1,
    commuting with S and T within `tol`.

    T-commutation restricts the support to equal-twist pairs, which keeps the
    brute force small at desk scale; `limit` guards against blowups.

    [Z, S] is linear in the free entries: with E_lm the matrix units,
    [Z, S] = [E_00, S] + sum_(l,m) Z[l, m] [E_lm, S].  The commutators are
    stacked once as real/imaginary rows and candidates are tested by
    superposing them, comparing every entry's squared modulus with tol^2.
    A candidate's entries are the base-(bound+1) digits of its number in
    `itertools.product` order, the first support entry most significant, and
    matrices are returned in that order.  The last digits span a chunk of at
    most _CHUNK candidates whose superposed commutators are built once; each
    chunk then adds the superposition of its leading digits.
    """
    if not pair.modular:
        raise UnsupportedOperationError("degenerate braiding: commutant enumeration unavailable")
    n = pair.rank
    support = [(l, m) for l in range(n) for m in range(n)
               if abs(pair.T[l] - pair.T[m]) < 1e-9 and (l, m) != (0, 0)]
    k = len(support)
    values = max(bound + 1, 0)  # choices per free entry
    count = values ** k
    if count > limit:
        raise ValueError(f"enumeration over {k} entries exceeds limit ({count:.2e})")
    if count == 0:
        return []
    S = pair.S

    def commutator(l, m):
        E = np.zeros((n, n))
        E[l, m] = 1.0
        C = (E @ S - S @ E).ravel()
        return np.concatenate([C.real, C.imag])

    def digits(index, width):
        return np.asarray(index)[..., None] // values ** np.arange(width - 1, -1, -1) % values

    rows = np.array([commutator(l, m) for l, m in support]).reshape(k, 2 * n * n)
    nlow = 0
    while nlow < k and values ** (nlow + 1) <= _CHUNK:
        nlow += 1
    low = digits(np.arange(values ** nlow), nlow)
    low_res = commutator(0, 0) + low @ rows[k - nlow:]
    out = []
    for h in range(count // len(low)):
        high = digits(h, k - nlow)
        res = low_res + high @ rows[:k - nlow]
        sq = res[:, :n * n] ** 2 + res[:, n * n:] ** 2
        for d in low[np.all(sq < tol * tol, axis=1)]:
            Z = np.zeros((n, n), dtype=int)
            Z[0, 0] = 1
            for (l, m), v in zip(support, np.concatenate([high, d])):
                Z[l, m] = v
            out.append(Z)
    return out
