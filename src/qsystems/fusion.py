"""Combinatorial fusion data of a finite sector system.

A finite system of sectors is stored skeletally: labels ``0 .. n-1`` with
``0`` the identity sector, an involution ``dual`` (conjugate sectors), the
fusion multiplicities ``N[l, m, n] = dim Hom(n, l*m)`` and the quantum
dimensions.  The closure axioms (identity, conjugates, associativity,
Frobenius reciprocity) are integer identities and are checked exactly; the
quantum-dimension equations are checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StructureError",
    "FusionData",
    "FusionReport",
    "validate_fusion",
    "compute_qdims",
]


class StructureError(ValueError):
    """Malformed fusion data (wrong shapes / dtypes), as opposed to a violated axiom."""


@dataclass
class FusionReport:
    """Outcome of :func:`validate_fusion`: one entry per violated axiom."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, where, message: str):
        self.violations.append((code, tuple(where), message))

    def __str__(self):
        if self.ok:
            return "fusion data valid"
        lines = [f"{code} at {where}: {msg}" for code, where, msg in self.violations]
        return "\n".join(lines)


class FusionData:
    """Fusion ring of a finite sector system.

    Parameters
    ----------
    names : sequence of str
        Display names, ``names[0]`` is the identity sector.
    dual : sequence of int
        Involution ``lam -> dual[lam]`` giving the conjugate sector.
    N : array, shape (n, n, n)
        Nonnegative integers ``N[lam, mu, nu] = dim Hom(nu, lam*mu)``.
    qdim : sequence of float, optional
        Quantum dimensions.  If omitted they are computed as the
        Perron-Frobenius solution of the fusion equations.
    """

    def __init__(self, names, dual, N, qdim=None):
        self.names = [str(x) for x in names]
        n = len(self.names)
        if n == 0:
            raise StructureError("empty label list")
        self.dual = np.asarray(dual, dtype=int)
        if self.dual.shape != (n,):
            raise StructureError(f"dual map has shape {self.dual.shape}, expected ({n},)")
        if np.any((self.dual < 0) | (self.dual >= n)):
            raise StructureError(f"dual map {self.dual.tolist()} names a label outside 0..{n - 1}")
        N = np.asarray(N)
        if N.shape != (n, n, n):
            raise StructureError(f"fusion tensor has shape {N.shape}, expected {(n, n, n)}")
        if not np.issubdtype(N.dtype, np.integer):
            if not np.all(N == np.round(N)):
                raise StructureError("fusion tensor entries must be integers")
            N = np.round(N).astype(int)
        if np.any(N < 0):
            raise StructureError("fusion tensor entries must be nonnegative")
        self.N = N
        self.rank = n
        if qdim is not None:
            qdim = np.asarray(qdim, dtype=float)
            if qdim.shape != (n,):
                raise StructureError(f"qdim has shape {qdim.shape}, expected ({n},)")
            self.qdim = qdim
        else:
            self.qdim = compute_qdims(self)

    # -- convenience -------------------------------------------------------

    @property
    def global_dim(self) -> float:
        """Sum of squared quantum dimensions."""
        return float(np.sum(self.qdim**2))

    def __repr__(self):
        return f"FusionData({self.names})"


def compute_qdims(data: FusionData) -> np.ndarray:
    """Unique positive solution of ``d(lam) d(mu) = sum_nu N[lam,mu,nu] d(nu)``.

    The quantum dimensions form the common Perron-Frobenius eigenvector of all
    fusion matrices; it is extracted from the total fusion matrix
    ``K = sum_lam N_lam`` and normalized to ``d(0) = 1``.
    """
    K = np.sum(data.N, axis=0)  # K[mu, nu] = sum_lam N^nu_{lam mu}
    evals, evecs = np.linalg.eig(K.astype(float))
    # Perron-Frobenius: eigenvalue of largest real part, positive eigenvector
    i = int(np.argmax(evals.real))
    v = evecs[:, i]
    if abs(v[0]) < 1e-10:
        raise StructureError("degenerate fusion data: Perron-Frobenius vector vanishes at the identity")
    v = v / v[0]
    if np.max(np.abs(v.imag)) > 1e-10:
        raise StructureError("fusion data has no real Perron-Frobenius eigenvector")
    d = v.real
    if np.any(d <= 0):
        raise StructureError("Perron-Frobenius eigenvector is not strictly positive; fusion data invalid")
    # residual of the defining equations
    lhs = d[:, None] * d[None, :]
    rhs = np.einsum("lmn,n->lm", data.N, d)
    if np.max(np.abs(lhs - rhs)) > 1e-8 * max(1.0, np.max(np.abs(lhs))):
        raise StructureError("fusion equations admit no consistent dimension vector")
    return d


def validate_fusion(data: FusionData) -> FusionReport:
    """Check the closure axioms of the fusion data.

    Integer axioms (identity sector, conjugates, associativity, Frobenius
    reciprocity, dual involution) are checked exactly; the quantum-dimension
    equations within 1e-9.
    """
    n = data.rank
    N = data.N
    rep = FusionReport()

    if sorted(data.dual.tolist()) != list(range(n)):
        rep.add("dual-bijection", (), "dual map is not a bijection on labels")
    else:
        for lam in range(n):
            if data.dual[data.dual[lam]] != lam:
                rep.add("dual-involution", (lam,), "dual map is not an involution")
        if data.dual[0] != 0:
            rep.add("dual-identity", (0,), "identity sector must be self-dual")

    # identity axiom: N^nu_{lam,0} = N^nu_{0,lam} = delta
    eye = np.eye(n, dtype=int)
    if not np.array_equal(N[:, 0, :], eye):
        for lam, nu in zip(*np.nonzero(N[:, 0, :] != eye)):
            rep.add("identity-right", (int(lam), int(nu)),
                    f"N[{lam},0,{nu}] = {N[lam, 0, nu]}, expected {eye[lam, nu]}")
    if not np.array_equal(N[0, :, :], eye):
        for mu, nu in zip(*np.nonzero(N[0, :, :] != eye)):
            rep.add("identity-left", (int(mu), int(nu)),
                    f"N[0,{mu},{nu}] = {N[0, mu, nu]}, expected {eye[mu, nu]}")

    # conjugates: N^0_{lam mu} = delta_{mu, dual(lam)}
    want = np.zeros((n, n), dtype=int)
    for lam in range(n):
        want[lam, data.dual[lam]] = 1
    if not np.array_equal(N[:, :, 0], want):
        for lam, mu in zip(*np.nonzero(N[:, :, 0] != want)):
            rep.add("conjugates", (int(lam), int(mu)),
                    f"N[{lam},{mu},0] = {N[lam, mu, 0]}, expected {want[lam, mu]}")

    # associativity: sum_s N^s_{lm} N^n_{sk} = sum_s N^n_{ls} N^s_{mk}
    lhs = np.einsum("lms,skn->lmkn", N, N)
    rhs = np.einsum("mks,lsn->lmkn", N, N)
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)
        for idx in bad[:20]:
            rep.add("associativity", tuple(int(x) for x in idx),
                    f"associativity fails at (lam,mu,kap,nu)={tuple(int(x) for x in idx)}")

    # Frobenius reciprocity: N^nu_{lam mu} = N^mu_{dual(lam) nu} = N^lam_{nu dual(mu)}
    Nf1 = N[data.dual][:, :, :]  # N[dual(lam), nu, mu]
    if not np.array_equal(N, np.transpose(Nf1, (0, 2, 1))):
        bad = np.argwhere(N != np.transpose(Nf1, (0, 2, 1)))
        for idx in bad[:20]:
            rep.add("frobenius-left", tuple(int(x) for x in idx),
                    "Frobenius reciprocity N^nu_(lam mu) = N^mu_(conj(lam) nu) fails")
    Nf2 = np.transpose(N, (2, 1, 0))[:, data.dual, :]  # Nf2[lam,mu,nu] = N^lam_{nu dual(mu)}
    if not np.array_equal(N, Nf2):
        bad = np.argwhere(N != Nf2)
        for idx in bad[:20]:
            rep.add("frobenius-right", tuple(int(x) for x in idx),
                    "Frobenius reciprocity N^nu_(lam mu) = N^lam_(nu conj(mu)) fails")

    # quantum dimensions
    d = data.qdim
    if d[0] != 1.0 and abs(d[0] - 1.0) > 1e-9:
        rep.add("qdim-identity", (0,), f"d(0) = {d[0]}, expected 1")
    if np.any(d <= 0):
        rep.add("qdim-positive", (), "quantum dimensions must be positive")
    resid = np.abs(d[:, None] * d[None, :] - np.einsum("lmn,n->lm", N, d))
    if np.max(resid) > 1e-9 * max(1.0, float(np.max(d) ** 2)):
        lam, mu = np.unravel_index(int(np.argmax(resid)), resid.shape)
        rep.add("qdim-fusion", (int(lam), int(mu)),
                f"dimension equation residual {resid[lam, mu]:.3e} at ({lam},{mu})")
    dd = np.abs(d - d[data.dual])
    if np.max(dd) > 1e-9:
        rep.add("qdim-dual", (int(np.argmax(dd)),), "d(conj(lam)) != d(lam)")

    return rep
