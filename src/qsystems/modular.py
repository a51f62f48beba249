"""Modular data of a braided model and invariance checks for coupling matrices.

S is computed from the monodromy trace, T from the twists; both exist for
any braided model, but S is unitary only when the braiding is nondegenerate.
Degenerate inputs are flagged (``ModularPair.modular`` is False) and the
invariance checks refuse to run on them; callers are expected to skip with a
warning rather than fail.

:func:`enumerate_commutant` solves [Z, S] = 0 as one affine system on the
support [Z, T] = 0 allows, and searches only the entries its null space frees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .morphisms import CategoryModel, UnsupportedOperationError, twist

__all__ = ["ModularPair", "compute_st", "modular_residuals", "check_modular_invariant",
           "enumerate_commutant"]


@dataclass
class ModularPair:
    """S matrix and diagonal twist vector of a braided model."""

    S: np.ndarray
    T: np.ndarray  # diagonal entries
    modular: bool

    @property
    def rank(self) -> int:
        return len(self.T)


def compute_st(model: CategoryModel) -> ModularPair:
    """S from the monodromy trace, T from the twists (T[0] = 1 by construction);
    ``modular`` says whether S is unitary within 1e-7."""
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
    modular = bool(np.max(np.abs(S @ S.conj().T - np.eye(n))) < 1e-7)
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

    T-commutation restricts the support to equal-twist pairs.  On it, with
    E_lm the matrix units, [Z, S] = [E_00, S] + sum_(l,m) Z[l, m] [E_lm, S]
    reads A z + b, stacked as real/imaginary rows.  The SVD of A gives a
    particular solution z0 and a null-space basis N of r columns.  Each of
    the (bound+1)^r settings of r pivot entries (independent rows of N),
    at most `limit` of them, is completed to z0 + N N[piv]^-1 (vals -
    z0[piv]), rounded, and kept if it lies in [0, bound] and every entry of
    [Z, S] has modulus < tol.  Matrices come in `itertools.product` order.

    Nothing is missed: a passing integer z has |A z + b| < n tol, so it is
    within n tol / s_min of the null space through z0 (s_min the smallest
    singular value kept), and the completion of its own pivot values within
    (1 + |N[piv]^-1|) times that.  A ValueError is raised unless this is < 1/2.
    """
    if not pair.modular:
        raise UnsupportedOperationError("degenerate braiding: commutant enumeration unavailable")
    n = pair.rank
    support = [(l, m) for l in range(n) for m in range(n)
               if abs(pair.T[l] - pair.T[m]) < 1e-9 and (l, m) != (0, 0)]
    S = pair.S

    def commutator(l, m):
        E = np.zeros((n, n))
        E[l, m] = 1.0
        C = (E @ S - S @ E).ravel()
        return np.concatenate([C.real, C.imag])

    A = np.array([commutator(l, m) for l, m in support]).reshape(len(support), 2 * n * n).T
    U, s, vh = np.linalg.svd(A, full_matrices=False)
    # numpy's matrix_rank cut; the guard below holds for whichever split it makes
    rank = int(np.sum(s > s.max(initial=0.0) * max(A.shape) * np.finfo(float).eps))
    z0 = -vh[:rank].T @ ((U[:, :rank].T @ commutator(0, 0)) / s[:rank])
    N = vh[rank:].T
    r = N.shape[1]
    count = max(bound + 1, 0) ** r
    if count > limit:
        raise ValueError(f"enumeration over {r} pivot entries exceeds limit ({count:.2e})")

    # pivoted Gram-Schmidt on the rows of N picks well-conditioned pivots
    piv, R = [], N.copy()
    for _ in range(r):
        i = int(np.argmax(np.einsum("ij,ij->i", R, R)))
        piv.append(i)
        q = R[i] / np.linalg.norm(R[i])
        R -= np.outer(R @ q, q)
    inv = np.linalg.inv(N[piv])
    if rank and n * tol / s[rank - 1] * (1 + np.linalg.norm(inv, 2)) >= 0.5:
        raise ValueError(f"tolerance {tol:g} is too loose to single out integer matrices")

    complete = N @ inv
    out = []
    for vals in itertools.product(range(bound + 1), repeat=r):
        z = np.rint(z0 + complete @ (np.array(vals) - z0[piv]))
        if np.any(z < 0) or np.any(z > bound):
            continue
        Z = np.zeros((n, n), dtype=int)
        Z[0, 0] = 1
        for (l, m), v in zip(support, z.astype(int)):
            Z[l, m] = v
        if np.all(np.abs(Z @ S - S @ Z) < tol):
            out.append(Z)
    out.sort(key=lambda Z: [Z[l, m] for l, m in support])
    return out
