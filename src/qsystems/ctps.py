"""Canonical tensor product subfactor construction.

Starting from a pair of extensions of one braided system (the two chiral
inductions alpha^+ / alpha^- of an algebra object, or the trivial pair),
this module computes the coupling matrix, the comultiplication coefficient
tensor, and assembles the Q-system

    theta = sum_(lam1, lam2) Z[lam1, lam2] lam1 (x) lam2-op

over the Deligne product of the category with its antilinear opposite.  The
coefficient of the summand triple (l, m, n) on the tree-basis pair (e1, e2)
is

    sqrt(d(lam2) d(mu2) / (d(theta) d(nu2)))
        * Phi_nu[ lift1(T_e1)* (phi_l* x phi_m*) lift2(T_e2) phi_n ]

with phi_l the orthonormal bases of the induced hom spaces and Phi the
induced (normalized-trace) left inverse.  The relative tensor products
phi_l x phi_m are built once per ordered pair of summands and kept on the
:class:`ExtensionPair`, and both chiral locality and zeta read them as they
are: since (phi_l x phi_m)* = phi_l* x phi_m* (the split map is
mult* / d(Theta)), the trace above is the induced pairing of phi_l x phi_m
with lift2(T_e2) phi_n lift1(T_e1)*, which needs no adjoint of the product.
A lifted tree vertex 1_Theta x T_e is a set of columns of the F blocks
F(theta_s, lam, mu; c), so zeta reads it from the F table.
Everything downstream is checked, not trusted: the Q-system relations,
isometry, chiral locality, the braiding fixed-point identity, and the
normality predicates on Z.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .morphisms import (CategoryModel, _run_starts, _tree_rows, _trees, braid, deligne_product, distance,
                        mirror, word_obj)
from .qsystem import QReport, QSystem, ThetaSpec, assemble_qsystem, check_commutativity, validate_qsystem
from .induction import (
    AlgebraObject,
    Bimod,
    BimodMap,
    bim_compose,
    bimodule_hom,
    lift,
    mtimes,
    trivial_algebra,
)

__all__ = [
    "ExtensionPair",
    "alpha_pair",
    "trivial_pair",
    "SummandIndex",
    "zeta_tensor",
    "build_theta",
    "assemble_w1",
    "ctps_braiding",
    "check_e3",
    "NormalityResult",
    "check_normality",
    "CtpsResult",
    "build_ctps",
]


@dataclass(frozen=True)
class SummandIndex:
    """Multi-index of a theta summand: factor sectors plus a copy index."""

    lam1: int
    lam2: int
    copy: int


class ExtensionPair:
    """Two extensions of one braided system into the same algebra extension.

    Realized as the (sign1, sign2) pair of chiral inductions of a single
    algebra object; the trivial algebra gives the pair of trivial
    extensions.  Solves and stores the orthonormal hom-space bases phi and
    the coupling matrix Z, and keeps the relative tensor products of the
    basis maps that :meth:`product` has built.
    """

    def __init__(self, algebra: AlgebraObject, sign1: int = +1, sign2: int = -1):
        self.algebra = algebra
        self.model = algebra.model
        self.sign1 = sign1
        self.sign2 = sign2
        n = self.model.rank
        self.phi = {}
        Z = np.zeros((n, n), dtype=int)
        for lam1 in range(n):
            for lam2 in range(n):
                basis = bimodule_hom(algebra, Bimod((lam1,), (sign1,)), Bimod((lam2,), (sign2,)))
                self.phi[(lam1, lam2)] = basis
                Z[lam1, lam2] = len(basis)
        self.Z = Z
        self.summands = [SummandIndex(l1, l2, copy)
                         for l1 in range(n) for l2 in range(n)
                         for copy in range(1, Z[l1, l2] + 1)]
        self._products = {}

    def phi_of(self, s: SummandIndex) -> BimodMap:
        return self.phi[(s.lam1, s.lam2)][s.copy - 1]

    def product(self, i: int, j: int) -> BimodMap:
        """mtimes(phi_i, phi_j) for the summands at positions i and j, built once.

        :func:`check_e3` composes it with the lifted braidings, and
        :func:`zeta_tensor` pairs it with the lifted trees.  An entry keeps
        its two operands and is rebuilt when either is no longer the pair's
        basis map, so replacing ``phi`` entries (a gauge move) never serves a
        stale product.
        """
        f, g = self.phi_of(self.summands[i]), self.phi_of(self.summands[j])
        entry = self._products.get((i, j))
        if entry is None or entry[0] is not f or entry[1] is not g:
            entry = self._products[(i, j)] = (f, g, mtimes(f, g))
        return entry[2]


def alpha_pair(algebra: AlgebraObject, sign1: int = +1, sign2: int = -1) -> ExtensionPair:
    return ExtensionPair(algebra, sign1, sign2)


def trivial_pair(model: CategoryModel) -> ExtensionPair:
    return ExtensionPair(trivial_algebra(model), +1, -1)


def _lifted_trees(model: CategoryModel, th: np.ndarray, lam: int, mu: int):
    """(L, rows): every tree vertex of every Hom(t, lam mu), lifted to
    1_Theta x T, where ``th`` holds the labels of the summands of Theta.

    L[c, t, g] is block c of the lift of vertex g of Hom(t, lam mu), padded
    with zeros.  Its rows are the basis of Theta lam mu at c: the left trees
    of F(th_s, lam, mu; c), summand by summand.  Its columns are the basis of
    Theta t at c: (s, h) with h < N[th_s, t, c].  On summand s the block is
    the columns (t, g, h) of F(th_s, lam, mu; c), gathered by
    :meth:`~qsystems.morphisms.CategoryModel.f_stack` one block size at a
    time.  rows[c] counts the rows at c.
    """
    N, rank = model.N, model.rank
    # one block (c, s) per sector and summand of Theta, sector by sector
    c, s = np.divmod(np.arange(rank * len(th)), len(th))
    quad = np.stack([th[s], np.full_like(s, lam), np.full_like(s, mu), c], axis=1)
    left, right = _tree_rows(N, *quad.T)
    size = np.bincount(_trees(*left)[0], minlength=len(quad))
    _, t, g, h = _trees(*right)
    rows = np.bincount(c, weights=size, minlength=rank).astype(np.int64)
    k = N[th].transpose(2, 0, 1)  # k[c, s, t] = N[th_s, t, c]
    col = np.cumsum(k, axis=1) - k  # column of (s, 0) in the basis of Theta t
    row = _run_starts(size) - _run_starts(rows)[c]  # the row of left tree 0 of each block
    L = np.zeros((rank, rank, int(N.max()), int(rows.max()), int(k.sum(axis=1).max())), dtype=complex)
    # entry (i, j) of every block of n trees: left tree i, right tree j
    for n in set(size.tolist()) - {0}:
        at = np.flatnonzero(size == n)
        b = np.repeat(at, n * n)
        i, j = np.divmod(np.tile(np.arange(n * n), len(at)), n)
        j += _run_starts(size)[b]
        L[c[b], t[j], g[j], i + row[b], col[c[b], s[b], t[j]] + h[j]] = model.f_stack(quad[at]).ravel()
    return L, rows


def zeta_tensor(pair: ExtensionPair, d_theta: float) -> np.ndarray:
    """The coefficient array zeta[n, l, m, e] of theta's w1.

    n, l and m are the positions of the summands in ``pair.summands``, which
    runs in the summand order of :func:`build_theta`, and e = e1 * N2 + e2 is
    the product tree vertex of the factor vertices e1 and e2, with N2 the
    second factor's multiplicity; the e axis is theta's (the most tree
    vertices of a summand triple).  Exact zeros are stored as +0.  Each
    coefficient is the trace formula of the module docstring.  By
    cyclicity, Phi_nu[T1* Q* T2 phi_n] = <Q, Y> / (d(Theta) d(nu1)) with
    Q = ``pair.product(l, m)`` (which :func:`check_e3` reads too),
    Y = L2 phi_n L1*, Lk the lift 1_Theta x T_ek of the tree vertex T_ek, and
    <Q, Y> the pairing sum_c d_c tr(Q_c* Y_c).  Each lifted vertex is a set of
    F columns (:func:`_lifted_trees`), so the Y of every summand n and vertex
    pair (e1, e2) are one batched product per sector, the rows of one matrix
    per pair of summand labels, and each summand pair (l, m) takes one
    matrix-vector product.
    """
    model = pair.model
    a = pair.algebra
    N, qdim, rank = model.N, model.qdim, model.rank
    th = a.theta.labels
    n1, n2 = (np.array([getattr(n, f) for n in pair.summands]) for f in ("lam1", "lam2"))
    vertices = N[np.ix_(n1, n1, n1)] * N[np.ix_(n2, n2, n2)]
    lifted = {}

    def lifts(lam, mu):
        if (lam, mu) not in lifted:
            lifted[lam, mu] = _lifted_trees(model, th, lam, mu)
        return lifted[lam, mu]

    # phi[c, n]: block c of the basis map of summand n, padded as the lifts' columns
    k = int(N[th].sum(axis=0).max())
    phi = np.zeros((rank, len(pair.summands), k, k), dtype=complex)
    for n, s in enumerate(pair.summands):
        for c, B in pair.phi_of(s).mor.blocks.items():
            phi[c, n, :B.shape[0], :B.shape[1]] = B
    out = np.zeros((len(n1),) * 3 + (max(1, int(vertices.max(initial=0))),), dtype=complex)

    def pairing_rows(l, m):
        """(kn, e, Y) for the labels of the summands l and m: row r of Y is the
        weighted Y of the summand and vertex (kn[r], e[r]), times its prefactor."""
        c1, c2 = N[l.lam1, m.lam1, n1], N[l.lam2, m.lam2, n2]
        kn = np.repeat(np.arange(len(n1)), c1 * c2)
        e = np.arange(len(kn)) - np.repeat(_run_starts(c1 * c2), c1 * c2)
        e1, e2 = np.divmod(e, c2[kn])
        (L1, r1), (L2, r2) = lifts(l.lam1, m.lam1), lifts(l.lam2, m.lam2)
        Y = L2[:, n2[kn], e2] @ phi[:, kn] @ L1[:, n1[kn], e1].conj().swapaxes(2, 3)
        Y *= qdim[:, None, None, None]
        live = ((np.arange(Y.shape[2]) < r2[:, None])[:, :, None]
                & (np.arange(Y.shape[3]) < r1[:, None])[:, None, :])
        pref = (np.sqrt(qdim[l.lam2] * qdim[m.lam2] / (d_theta * qdim[n2[kn]]))
                / (a.d * qdim[n1[kn]]))
        return kn, e, pref[:, None] * Y.transpose(1, 0, 2, 3)[:, live]

    groups = {}
    for i, s in enumerate(pair.summands):
        groups.setdefault((s.lam1, s.lam2), []).append(i)
    for li, mi in itertools.product(groups.values(), repeat=2):
        kn, e, Y = pairing_rows(pair.summands[li[0]], pair.summands[mi[0]])
        if not len(kn):
            continue
        for i, j in itertools.product(li, mi):
            Q = pair.product(i, j).mor
            out[kn, i, j, e] = Y @ np.concatenate([B.ravel() for B in Q.blocks.values()]).conj()
    out[out == 0] = 0
    return out


def build_theta(D, Z: np.ndarray) -> ThetaSpec:
    """Theta over the product category with multiplicities Z; requires Z[0,0] = 1."""
    Z = np.asarray(Z)
    if Z[0, 0] != 1:
        raise ValueError("coupling matrix must have Z[0, 0] = 1 (irreducibility)")
    mult = {}
    n1, n2 = Z.shape
    for lam1 in range(n1):
        for lam2 in range(n2):
            if Z[lam1, lam2]:
                mult[D.pack(lam1, lam2)] = int(Z[lam1, lam2])
    return ThetaSpec(D, mult)


def assemble_w1(D, theta: ThetaSpec, zeta: np.ndarray, pair: ExtensionPair) -> QSystem:
    """QSystem over the product category from the coefficients of :func:`zeta_tensor`.

    ``zeta`` is laid out as theta's coefficient array already, so neither
    ``D`` nor ``pair`` is read.
    """
    return assemble_qsystem(theta, zeta)


def ctps_braiding(D, theta: ThetaSpec) -> np.ndarray:
    """The braiding eps(theta, theta) on theta^2, as coefficients.

    eps[n, l, m] = R_D(lam_l, lam_m; lam_n), the braiding of the summand pair
    (l, m) in sector lam_n, zero-padded to the e axis of theta's coefficient
    array; :func:`~qsystems.qsystem.check_commutativity` reads it.  On the product of a category with its antilinear opposite
    this is the faithful model's braiding.
    """
    lab = theta.labels.tolist()
    ns, ne = len(lab), theta.live.shape[3]
    eps = np.zeros((ns, ns, ns, ne, ne), dtype=complex)
    for l, m, n in zip(*np.nonzero(D.N[np.ix_(lab, lab, lab)])):
        B = D.R(lab[l], lab[m], lab[n])
        eps[n, l, m, :B.shape[0], :B.shape[1]] = B
    return eps


def check_e3(pair: ExtensionPair) -> float:
    """Max residual of the braided-transition identity over all basis pairs.

    (psi x phi) lift1(eps(lam1, mu1)) = lift2(eps(lam2, mu2)) (phi x psi)
    for phi in Hom(alpha1_lam1, alpha2_lam2), psi in Hom(alpha1_mu1, alpha2_mu2),
    with the products taken from :meth:`ExtensionPair.product`.
    """
    model = pair.model
    a = pair.algebra

    def eps(lam, mu, sign):
        """lift(eps(lam, mu), sign), kept on the algebra for every pair on it."""
        return a._memo(("braid", lam, mu, sign),
                       lambda: lift(a, braid(model, word_obj((lam,)), word_obj((mu,))), sign))

    def residual(i, j):
        """The identity for phi = phi_i and psi = phi_j, on the shared products."""
        s, t = pair.summands[i], pair.summands[j]
        lhs = bim_compose(pair.product(j, i), eps(s.lam1, t.lam1, pair.sign1))
        rhs = bim_compose(eps(s.lam2, t.lam2, pair.sign2), pair.product(i, j))
        return distance(lhs.mor, rhs.mor)

    worst = 0.0
    for i, j in itertools.product(range(len(pair.summands)), repeat=2):
        worst = max(worst, residual(i, j))
    return worst


@dataclass
class NormalityResult:
    """The coupling-matrix normality predicates and the witnessing bijection."""

    n2: bool
    n3: bool
    pi: list | None

    def as_dict(self):
        return {"n2": self.n2, "n3": self.n3, "pi": self.pi}


def check_normality(Z: np.ndarray, fus1, fus2) -> NormalityResult:
    """Evaluate the two combinatorial normality criteria on a coupling matrix.

    n2: no nontrivial sector couples to the trivial one on either side.
    n3: Z is the permutation matrix of a fusion-rule-preserving bijection.
    """
    Z = np.asarray(Z)
    n2 = bool(np.array_equal(Z[:, 0], np.eye(Z.shape[0], dtype=int)[0])
              and np.array_equal(Z[0, :], np.eye(Z.shape[1], dtype=int)[0]))
    if Z.shape[0] == Z.shape[1] and np.array_equal(Z @ Z.T, np.eye(Z.shape[0], dtype=Z.dtype)):
        pi = np.argmax(Z, axis=1)
        # permutation found; it must preserve dimensions and the fusion tensor
        if (np.allclose(fus1.qdim, fus2.qdim[pi], atol=1e-9)
                and np.array_equal(fus1.N, fus2.N[np.ix_(pi, pi, pi)])):
            return NormalityResult(n2=n2, n3=True, pi=pi.tolist())
    return NormalityResult(n2=n2, n3=False, pi=None)


@dataclass
class CtpsResult:
    """Everything the construction produced, plus its validation residuals."""

    pair: ExtensionPair
    product_model: object
    Z: np.ndarray
    theta: ThetaSpec
    qsystem: QSystem
    zeta: np.ndarray
    report: QReport
    e3_residual: float
    commutativity: float | None
    normality: NormalityResult
    dim_identity_residual: float
    tol: float

    @staticmethod
    def limit(name: str, tol: float) -> float:
        """Bound the residual `name` must stay below: 10 * tol for chiral
        locality and commutativity, tol for every other check."""
        return tol * 10 if name in ("chiral_locality", "commutativity") else tol

    @property
    def ok(self) -> bool:
        return self.report.irreducible and all(
            v < self.limit(k, self.tol) for k, v in self.residuals().items() if v is not None)

    def residuals(self) -> dict:
        out = dict(self.report.residuals)
        out["chiral_locality"] = self.e3_residual
        out["commutativity"] = self.commutativity
        out["dim_identity"] = self.dim_identity_residual
        return out


def build_ctps(pair: ExtensionPair, tol: float = 1e-8) -> CtpsResult:
    """Full pipeline: hom spaces -> Z -> coefficients -> (theta, w, w1) -> checks."""
    model = pair.model
    D = deligne_product(model, mirror(model))
    Z = pair.Z
    theta = build_theta(D, Z)
    zeta = zeta_tensor(pair, theta.d_theta)
    q = assemble_w1(D, theta, zeta, pair)
    report = validate_qsystem(q, tol=tol)
    dims = np.array([model.qdim[l1] * model.qdim[l2]
                     for l1 in range(model.rank) for l2 in range(model.rank)])
    dim_resid = abs(float((Z.reshape(-1) * dims).sum()) - theta.d_theta)
    e3 = check_e3(pair)
    comm = None
    if model.braided:
        if e3 < CtpsResult.limit("chiral_locality", tol):
            eps = ctps_braiding(D, theta)
            comm = check_commutativity(q, eps)
    norm = check_normality(Z, model.fusion, model.fusion)
    return CtpsResult(pair=pair, product_model=D, Z=Z, theta=theta, qsystem=q,
                      zeta=zeta, report=report, e3_residual=e3, commutativity=comm,
                      normality=norm, dim_identity_residual=dim_resid, tol=tol)
