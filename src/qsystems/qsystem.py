"""Canonical triples (theta, w, w1) and their defining relations.

A Q-system over a category model is an object theta (a direct sum of simple
sectors with multiplicities), an isometry w in Hom(id, theta) and an isometry
w1 in Hom(theta, theta^2) subject to

* unit law:        w* w1 = theta(w*) w1 = d(theta)^(-1/2) 1
* coassociativity: w1 w1 = theta(w1) w1
* Frobenius:       w1 w1* = theta(w1*) w1

where theta(x) = 1_theta x x (left monoidal multiplication).  The validator
reports the operator-norm residual of each relation; residual norms are the
largest singular value across sector blocks.

Every summand of theta is simple, so w1 is its coefficient tensor
zeta[n; l, m, e] (:attr:`ThetaSpec.slots`) and w is a vector w_p over the
summands labelled 0.  :func:`validate_qsystem` forms each sector block c of
each defect from these numbers and one F-move per summand triple, without
building theta^3.  Write lam_i for the label of summand i; n' runs over the
summands labelled c, and sums over p or q run over summands with a given
label, so repeated labels add up on one tree:

* unit laws: entry (n, n') is sum_{p: lam_p = 0} conj(w_p) zeta[n'; p, n, 0]
  (left) or conj(w_p) zeta[n'; n, p, 0] (right), minus d(theta)^(-1/2) 1.
* isometries: B_c^H B_c - 1 on the block B_c of w1, and w^H w - 1.
* coassociativity: on the left trees (sig, e1, e2) of Hom(c, lam_l lam_m
  lam_k), the route (w1 x 1) w1 is L = sum_{p: lam_p = sig} zeta[p; l, m, e1]
  zeta[n'; p, k, e2]; the route (1 x w1) w1 is F(lam_l, lam_m, lam_k; c) R
  with R[(tau, g, h)] = sum_{q: lam_q = tau} zeta[q; m, k, g] zeta[n'; l, q, h]
  on the right trees.  The rows of all triples stack to the theta^3 block.
* Frobenius: B_c B_c^H against the theta^2 x theta^2 block whose entry at
  row (l, q; h) and column (p, k; e2) is sum_m sum_{e1, g}
  conj(zeta[q; m, k, g]) conj(F[(lam_p, e1, e2), (lam_q, g, h)]) zeta[p; l, m, e1].

Triples (l, m, k; c) with no tree in Hom(c, lam_l lam_m lam_k) are skipped.
:func:`_defects` forms these blocks; the validator takes their operator
norms, and :func:`~qsystems.induction.solve_haploid_algebra` drives three
of them to zero by Newton iteration while max |r| falls.  Its Jacobian is
exact: every entry is real-quadratic in (Re, Im) of the coefficients, so
column j is (r(x + e_j) - r(x - e_j)) / 2 up to rounding.

The braiding fixed-point identity eps(theta, theta) w1 = w1 is read from the
same coefficients: :func:`check_commutativity` applies R(lam_l, lam_m; lam_n)
to zeta[n; l, m, .] and compares the result with zeta[n; m, l, .].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .morphisms import (
    CategoryModel,
    Morphism,
    SumObject,
    _trees,
    deligne_product,
    mirror,
    sum_product,
)

__all__ = ["ThetaSpec", "QSystem", "QReport", "validate_qsystem",
           "assemble_qsystem", "lr_zeta", "lr_qsystem", "check_commutativity"]


class ThetaSpec:
    """Direct sum of simple sectors with multiplicities, as a Q-system carrier.

    Summands are enumerated as (label, copy) pairs, lexicographically; the
    copy index runs from 1 to the multiplicity, which must be a nonnegative
    integer (zero entries are dropped).  Tags on the underlying
    :class:`SumObject` are those pairs; ``square`` is theta^2, whose summand
    l * len(theta) + m is the word of summand l followed by that of m.

    Since every summand is simple, a map in Hom(theta, theta^2) is its
    coefficient tensor zeta[n, l, m, e]: the entry on the tree vertex e of
    Hom(nu, lam mu), for the summands n, l, m with labels nu, lam, mu.
    :attr:`slots` is the one place that says where each coefficient sits.
    """

    def __init__(self, model: CategoryModel, multiplicities: dict):
        for k, v in multiplicities.items():
            if not (v >= 0 and float(v).is_integer()):
                raise ValueError(f"multiplicity {v!r} of sector {k} is not a nonnegative integer")
        self.model = model
        self.multiplicities = {int(k): int(v) for k, v in multiplicities.items() if v > 0}
        self.summands = [(lam, copy)
                         for lam in sorted(self.multiplicities)
                         for copy in range(1, self.multiplicities[lam] + 1)]
        self.object = SumObject(tuple((lam,) for lam, _ in self.summands))
        self.square = sum_product(self.object, self.object)
        self.d_theta = float(sum(model.qdim[lam] for lam, _ in self.summands))

    @cached_property
    def slots(self) -> dict:
        """Position of each coefficient in Hom(theta, theta^2).

        Maps (n, l, m, e), for every e < N[lam, mu, nu], to (c, row, col):
        the sector c = nu, the theta^2 basis index of tree e in summand
        (l, m), and the theta basis index of summand n.  Keys run in sorted
        order; a key outside this dict names no coefficient.
        """
        N = self.model.N
        offs = self.model.sector_offsets(self.object)
        offs2 = self.model.sector_offsets(self.square)
        ns = len(self.summands)
        out = {}
        for n, (nu, _) in enumerate(self.summands):
            for l, (lam, _) in enumerate(self.summands):
                for m, (mu, _) in enumerate(self.summands):
                    row = offs2[nu][l * ns + m]
                    for e in range(int(N[lam, mu, nu])):
                        out[(n, l, m, e)] = (nu, row + e, offs[nu][n])
        return out

    def coefficient_blocks(self, zeta: np.ndarray) -> dict:
        """Sector blocks of the map in Hom(theta, theta^2) with coefficients ``zeta``,
        laid out as :meth:`dense` lays them out."""
        offs = self.model.sector_offsets(self.object)
        offs2 = self.model.sector_offsets(self.square)
        blocks = {c: np.zeros((offs2[c][-1], offs[c][-1]), dtype=complex)
                  for c in range(self.model.rank)}
        for key, (c, row, col) in self.slots.items():
            blocks[c][row, col] = zeta[key]
        return blocks

    @cached_property
    def vertices(self) -> int:
        """Length of the e axis of :meth:`dense`: the most tree vertices of a summand triple."""
        return 1 + max((e for *_, e in self.slots), default=0)

    def dense(self, zeta) -> np.ndarray:
        """``zeta``, keyed as :attr:`slots`, as the array zeta[n, l, m, e]; zero off the slots."""
        out = np.zeros((len(self),) * 3 + (self.vertices,), dtype=complex)
        for key, val in zeta.items():
            out[key] = val
        return out

    def index(self, lam: int, copy: int = 1) -> int:
        return self.summands.index((lam, copy))

    def __len__(self):
        return len(self.summands)

    def __repr__(self):
        terms = [f"{v}*{self.model.fusion.names[k]}" for k, v in sorted(self.multiplicities.items())]
        return "ThetaSpec(" + " + ".join(terms) + ")"


@dataclass
class QSystem:
    """Canonical triple (theta, w, w1), held as the coefficients of w and w1.

    ``zeta`` is w1 in Hom(theta, theta^2) as :meth:`ThetaSpec.dense` lays it
    out, and ``w`` is w in Hom(id, theta) as a vector over the summands, zero
    off the label 0.  :attr:`w1` is the same map as a :class:`Morphism`.
    """

    theta: ThetaSpec
    zeta: np.ndarray
    w: np.ndarray

    @property
    def model(self) -> CategoryModel:
        return self.theta.model

    @cached_property
    def w1(self) -> Morphism:
        """w1 as a :class:`Morphism`, built from ``zeta`` when first read."""
        theta = self.theta
        return Morphism(self.model, theta.object, theta.square, theta.coefficient_blocks(self.zeta))


@dataclass
class QReport:
    """Residuals of the Q-system relations, with a pass flag at `tol`."""

    residuals: dict
    irreducible: bool
    tol: float

    @property
    def ok(self) -> bool:
        return self.irreducible and all(v < self.tol for v in self.residuals.values())

    def worst(self) -> float:
        return max(self.residuals.values())

    def __str__(self):
        lines = [f"  {k:16s} {v: .3e}" for k, v in self.residuals.items()]
        lines.append(f"  irreducible      {self.irreducible}")
        lines.append(f"  pass             {self.ok} (tol {self.tol:g})")
        return "\n".join(lines)


def _norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


_RELATIONS = ("unit_left", "unit_right", "coassociativity", "frobenius", "isometry", "w_isometry")


def _defects(theta: ThetaSpec, zeta: np.ndarray, w: np.ndarray, names=_RELATIONS) -> dict:
    """lhs - rhs of each relation in ``names``: a list of sector blocks each.

    ``zeta`` is w1 as :meth:`ThetaSpec.dense` lays it out and ``w`` is w over
    the summands, zero off the label 0.  Blocks follow the module docstring;
    w_isometry has one 1 x 1 block.
    """
    model = theta.model
    N, ns, rank = model.N, len(theta), model.rank
    lab = np.array([lam for lam, _ in theta.summands], dtype=np.int64)
    ne = zeta.shape[3]
    member = np.zeros((rank, ns))  # member[s, p] = 1 if lam_p = s
    member[lab, np.arange(ns)] = 1.0
    # N[lam_l, lam_m, s], N[s, lam_k, c] at [c, k, s] and N[lam_l, s, c] at
    # [c, l, s]: each sector reads contiguous rows
    n_lm = N[np.ix_(lab, lab)]
    n_kc = np.ascontiguousarray(N[:, lab, :].transpose(2, 1, 0))
    n_lc = np.ascontiguousarray(N[lab].transpose(2, 0, 1))
    # trees[l, m, c, k] = dim Hom(c, lam_l lam_m lam_k)
    trees = (n_lm.reshape(ns * ns, rank).astype(float)
             @ n_kc.reshape(rank * ns, rank).T).reshape(ns, ns, rank, ns)
    frobenius = "frobenius" in names

    out = {name: [] for name in _RELATIONS}
    for c in range(rank):
        P = np.flatnonzero(lab == c)
        if not len(P) and not frobenius:
            continue  # every other block has a column per summand labelled c
        zc = zeta[P]
        # the sector block of w1: theta^2 rows (l, m, e) with e a tree vertex
        basis = np.flatnonzero(np.arange(ne) < n_lm[:, :, c, None])
        B = zc.reshape(len(P), ns * ns * ne)[:, basis].T
        one = theta.d_theta ** -0.5 * np.eye(len(P))
        out["unit_left"].append(np.einsum("p,apb->ba", w.conj(), zc[:, :, P, 0]) - one)
        out["unit_right"].append(np.einsum("p,abp->ba", w.conj(), zc[:, P, :, 0]) - one)
        out["isometry"].append(B.conj().T @ B - np.eye(len(P)))
        l, k, m = np.nonzero(trees[:, :, c].transpose(0, 2, 1))
        quads = np.stack([lab[l], lab[m], lab[k], np.full(len(l), c)], axis=1)
        # every left tree (sig, e1, e2) and right tree (tau, g, h) of every
        # triple, triple by triple; U and V are (w1 x 1) and (1 x w1) on the
        # theta^2 columns (p, k; e2) and (l, q; h), which give L and R
        ti, sig, e1, e2 = _trees(n_lm[l, m], n_kc[c, k])
        tj, tau, g, h = _trees(n_lm[m, k], n_lc[c, l])
        u = zeta[:, l[ti], m[ti], e1].T * member[sig]
        v = zeta[:, m[tj], k[tj], g].T * member[tau]
        L = np.einsum("tp,npt->tn", u, zc[:, :, k[ti], e2])
        R = np.einsum("tq,tnq->tn", v, zc[:, l[tj], :, h])
        if frobenius:
            U = np.zeros((len(ti), ns, ne), dtype=complex)
            U[np.arange(len(ti)), :, e2] = u
            V = np.zeros((len(tj), ns, ne), dtype=complex)
            V[np.arange(len(tj)), :, h] = v
            # Frobenius terms, summed over m into frob[(l, k), (q, h), (p, e2)]
            frob = np.zeros((ns * ns, ns * ne, ns * ne), dtype=complex)
        # one F-move per triple whose (1 x w1) rows are not all zero, batched
        # over triples with the same number of trees (a triple has as many
        # right trees as left trees, so both run from start)
        size = np.bincount(ti, minlength=len(l))
        start = np.cumsum(size) - size
        moved = np.bincount(tj, weights=v.any(axis=1), minlength=len(l)) > 0
        for n in sorted(set(size[moved].tolist())):
            batch = np.flatnonzero(moved & (size == n))
            F = model.f_stack(quads[batch])
            rows = start[batch][:, None] + np.arange(n)
            L[rows] -= F @ R[rows]
            if frobenius:
                Ub, Vb = U[rows].reshape(len(batch), n, -1), V[rows].reshape(len(batch), n, -1)
                terms = Vb.conj().transpose(0, 2, 1) @ (F.conj().transpose(0, 2, 1) @ Ub)
                # batch keeps the (l, k, m) order, so each (l, k) is one run
                lk = l[batch] * ns + k[batch]
                first = np.flatnonzero(np.r_[True, lk[1:] != lk[:-1]])
                frob[lk[first]] += np.add.reduceat(terms, first, axis=0)
        out["coassociativity"].append(L)
        if frobenius:
            # back to theta^2 basis order (l, q, h) x (p, k, e2), dropping padded slots
            frob = frob.reshape(ns, ns, ns, ne, ns, ne).transpose(0, 2, 3, 4, 1, 5)
            frob = frob.reshape(ns * ns * ne, -1)[np.ix_(basis, basis)]
            out["frobenius"].append(B @ B.conj().T - frob)
    out["w_isometry"].append(np.array([[np.vdot(w, w) - 1.0]]))
    return {name: out[name] for name in names}


def validate_qsystem(q: QSystem, tol: float = 1e-8) -> QReport:
    """Check the unit, coassociativity, Frobenius and isometry relations.

    Each residual is the operator norm of the defect, computed from the
    coefficients of w and w1 by the formulas of the module docstring.
    """
    res = {name: max(map(_norm, blocks))
           for name, blocks in _defects(q.theta, q.zeta, q.w).items()}
    irreducible = q.model.obj_dim(0, q.theta.object) == 1
    return QReport(residuals=res, irreducible=irreducible, tol=tol)


def assemble_qsystem(theta: ThetaSpec, zeta) -> QSystem:
    """Assemble (theta, w, w1) from comultiplication coefficients.

    ``zeta`` maps ``(n, l, m, e) -> complex`` over summand indices n, l, m of
    theta and the multiplicity index e of Hom(nu, lam mu); missing keys are
    zero (see :attr:`ThetaSpec.slots`).  w is the injection of the identity
    summand, and

        w1 = sum (W_l x W_m) T^n_lm W_n*,
        T^n_lm = sum_e zeta[n,l,m,e] T_e.
    """
    if theta.model.obj_dim(0, theta.object) != 1:
        raise ValueError("theta must contain the identity sector exactly once")
    return QSystem(theta=theta, zeta=theta.dense(zeta), w=np.eye(len(theta))[theta.index(0)])


def lr_zeta(theta: ThetaSpec) -> dict:
    """Closed-form coefficients for the identity coupling matrix.

    With both extensions trivial the coefficient formula collapses to
    sqrt(d(lam) d(mu) / (d(theta) d(nu))) delta_{e1 e2} on the diagonal
    summands lam x lam-op of theta over a Deligne product.
    """
    D = theta.model
    m1, m2 = D.factors
    pairs = [D.unpack(lam) for lam, _ in theta.summands]
    dth = theta.d_theta
    zeta = {}
    for n, (nu, _) in enumerate(theta.summands):
        nu1, nu2 = pairs[n]
        for l, (lam, _) in enumerate(theta.summands):
            lam1, lam2 = pairs[l]
            for m, (mu, _) in enumerate(theta.summands):
                mu1, mu2 = pairs[m]
                if D.N[lam, mu, nu] == 0:
                    continue
                val = np.sqrt(m1.qdim[lam1] * m1.qdim[mu1] / (dth * m1.qdim[nu1]))
                n2 = int(m2.N[lam2, mu2, nu2])
                for e1 in range(int(m1.N[lam1, mu1, nu1])):
                    for e2 in range(n2):
                        if e1 == e2:
                            zeta[(n, l, m, e1 * n2 + e2)] = val
    return zeta


def lr_qsystem(model: CategoryModel):
    """Q-system of the diagonal (identity coupling matrix) construction.

    Builds theta = sum of lam x lam-op over the Deligne product of the
    category with its antilinear opposite, with the collapsed coefficient
    formula.  Returns (qsystem, product_model).
    """
    D = deligne_product(model, mirror(model))
    theta = ThetaSpec(D, {D.pack(lam, lam): 1 for lam in range(model.rank)})
    return assemble_qsystem(theta, lr_zeta(theta)), D


def check_commutativity(q: QSystem, eps: np.ndarray) -> float:
    """Residual of eps(theta, theta) w1 = w1, from the coefficients of w1.

    ``eps[n, l, m]`` is the braiding R(lam_l, lam_m; lam_n) of the summand
    pair (l, m), zero-padded to the e axis of :meth:`ThetaSpec.dense` (see
    :func:`~qsystems.ctps.ctps_braiding`).  The braided w1 has the
    coefficients (eps w1)[n; m, l, f] = sum_e eps[n, l, m][f, e] zeta[n; l, m, e].
    The residual is the largest operator norm, over the sectors c, of the
    block of (eps w1 - w1) whose columns are the summands n labelled c.
    """
    defect = (eps @ q.zeta[..., None])[..., 0].transpose(0, 2, 1, 3) - q.zeta
    lab = np.array([lam for lam, _ in q.theta.summands])
    # a set, not np.unique(lab): on numpy 2.4 that imports numpy.ma (1.6 MB of peak RSS)
    return max(_norm(defect[lab == c].reshape(np.count_nonzero(lab == c), -1).T)
               for c in set(lab.tolist()))
