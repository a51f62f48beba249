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

Every summand of theta is simple, so w1 is its coefficient array
zeta[n; l, m, e] (zero off :attr:`ThetaSpec.live`) and w is a vector w_p over
the summands labelled 0.  :func:`validate_qsystem` forms each sector block c of
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
  conj(zeta[q; m, k, g]) conj(F[(lam_p, e1, e2), (lam_q, g, h)]) zeta[p; l, m, e1],
  formed on the basis rows of sector c by scattering the term of each pair
  of trees.  A sector that holds no summand carries only this block.

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
    _pairs,
    _run_starts,
    _trees,
    deligne_product,
    mirror,
    sum_product,
)

__all__ = ["ThetaSpec", "QSystem", "QReport", "validate_qsystem",
           "assemble_qsystem", "lr_zeta", "lr_qsystem", "check_commutativity"]

# Cells of the coefficient array zeta[n, l, m, e] of the largest theta a
# ThetaSpec takes: ns^3 ne for ns summands and ne tree vertices.  The largest
# theta the tests and CI build, E7's (17 summands, one vertex), has 4,913.
_THETA_CELLS = 1 << 22


class ThetaSpec:
    """Direct sum of simple sectors with multiplicities, as a Q-system carrier.

    Summands are enumerated as (label, copy) pairs, lexicographically; the
    copy index runs from 1 to the multiplicity, which must be a nonnegative
    integer (zero entries are dropped).  Tags on the underlying
    :class:`SumObject` are those pairs; ``square`` is theta^2, whose summand
    l * len(theta) + m is the word of summand l followed by that of m.

    Since every summand is simple, a map in Hom(theta, theta^2) is its
    coefficient array zeta[n, l, m, e]: the entry on the tree vertex e of
    Hom(nu, lam mu), for the summands n, l, m with labels nu, lam, mu.
    ``live`` says where a coefficient sits: live[n, l, m, e] is e < N[lam,
    mu, nu], and the e axis is as long as the most tree vertices of any
    summand triple.  A theta whose array would pass ``_THETA_CELLS`` cells is
    refused before its summands are listed.
    """

    def __init__(self, model: CategoryModel, multiplicities: dict):
        for k, v in multiplicities.items():
            if not (v >= 0 and float(v).is_integer()):
                raise ValueError(f"multiplicity {v!r} of sector {k} is not a nonnegative integer")
        self.model = model
        self.multiplicities = {int(k): int(v) for k, v in multiplicities.items() if v > 0}
        present = sorted(self.multiplicities)
        ns = sum(self.multiplicities.values())
        ne = max(1, int(model.N[np.ix_(present, present, present)].max(initial=0)))
        if ns ** 3 * ne > _THETA_CELLS:
            raise ValueError(f"theta with {ns} summands and {ne} tree vertices has more than "
                             f"{_THETA_CELLS} coefficient cells")
        self.summands = [(lam, copy) for lam in present for copy in range(1, self.multiplicities[lam] + 1)]
        lab = self.labels = np.array([lam for lam, _ in self.summands], dtype=np.intp)
        self.live = np.arange(ne) < model.N[np.ix_(lab, lab, lab)].transpose(2, 0, 1)[..., None]
        self.object = SumObject(tuple((lam,) for lam, _ in self.summands))
        self.square = sum_product(self.object, self.object)
        self.d_theta = float(sum(model.qdim[lam] for lam, _ in self.summands))

    def coefficient_blocks(self, zeta: np.ndarray) -> dict:
        """Sector blocks of the map in Hom(theta, theta^2) with coefficients ``zeta``.

        The coefficient at (n, l, m, e) sits in block c = nu, at the theta^2
        basis row of tree e in summand (l, m) and the theta basis column of
        summand n; the blocks are views of one array.
        """
        model = self.model
        offs = np.array(model.sector_offsets(self.object))
        offs2 = np.array(model.sector_offsets(self.square))
        dim, size = offs[:, -1], offs[:, -1] * offs2[:, -1]
        at = _run_starts(size)
        n, l, m, e = np.nonzero(self.live)
        c = self.labels[n]
        flat = np.zeros(size.sum(), dtype=complex)
        flat[at[c] + (offs2[c, l * len(self) + m] + e) * dim[c] + offs[c, n]] = zeta[n, l, m, e]
        return {c: flat[at[c]:at[c] + size[c]].reshape(offs2[c, -1], dim[c]) for c in range(model.rank)}

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

    ``zeta`` is w1 in Hom(theta, theta^2) as its coefficient array
    zeta[n, l, m, e] (see :class:`ThetaSpec`), and ``w`` is w in Hom(id, theta)
    as a vector over the summands, zero off the label 0.  :attr:`w1` is the
    same map as a :class:`Morphism`.
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


def _worst(blocks) -> float:
    """The largest operator norm of the blocks (0 if none has an entry): one
    batched SVD per block shape and dtype, as np.linalg.norm(B, 2) takes it."""
    like = {}
    for B in blocks:
        if B.size:
            like.setdefault((B.shape, B.dtype), []).append(B)
    return max((float(np.linalg.svd(np.stack(bs), compute_uv=False)[:, 0].max())
                for bs in like.values()), default=0.0)


_RELATIONS = ("unit_left", "unit_right", "coassociativity", "frobenius", "isometry", "w_isometry")
# Cells (8-byte words) in one batch of the tree pass of _defects.  A triple
# with n trees counts 64 for its labels and its F gather, n ns (4 + 2 P) for
# its u and v rows and coassociativity operands, and n^2 (2 + 12 P^2) for its
# F block and its Frobenius terms, with P the most summands of one label.
# It bounds that pass's working memory at any size.
_RELATION_CELLS = 1 << 18


def _defects(theta: ThetaSpec, zeta: np.ndarray, w: np.ndarray, names=_RELATIONS) -> dict:
    """lhs - rhs of each relation in ``names``: a list of sector blocks each.

    ``zeta`` is the coefficient array of w1 and ``w`` is w over the
    summands, zero off the label 0.  Blocks follow the module docstring;
    w_isometry has one 1 x 1 block.  The unit, isometry and coassociativity
    blocks are formed in the sectors that hold a summand, the only ones where
    they have a nonzero size; the Frobenius block in every sector, on its
    theta^2 basis rows, by scattering the term of each pair of trees.

    The triples of all sectors are taken in batches of one tree count and at
    most ``_RELATION_CELLS`` cells.  Each batch enumerates its trees once and
    gathers F once, for the triples whose (1 x w1) rows are not all zero, and
    serves both coassociativity and the Frobenius blocks.
    """
    model = theta.model
    N, ns, rank = model.N, len(theta), model.rank
    lab = theta.labels
    member = np.zeros((rank, ns))  # member[s, p] = 1 if lam_p = s
    member[lab, np.arange(ns)] = 1.0
    count = np.bincount(lab, minlength=rank)
    # N[lam_l, lam_m, s], N[s, lam_k, c] at [c, k, s] and N[lam_l, s, c] at
    # [c, l, s]: each triple reads contiguous rows
    n_lm = N[np.ix_(lab, lab)]
    n_kc = np.ascontiguousarray(N[:, lab, :].transpose(2, 1, 0))
    n_lc = np.ascontiguousarray(N[lab].transpose(2, 0, 1))
    # the labels s with N[lam_l, lam_m, s] > 0, those of (l, m) at
    # start[l ns + m]:start[l ns + m] + span[l ns + m]
    pair, label = np.divmod(np.flatnonzero(n_lm), rank)
    span = np.bincount(pair, minlength=ns * ns)
    start = np.cumsum(span) - span
    frobenius = "frobenius" in names
    # the triples (c; l, k, m) with trees, sector by sector: in every sector
    # for the Frobenius block, else in those with a summand; trees[l, m, c, k]
    # = dim Hom(c, lam_l lam_m lam_k)
    trees = (n_lm.reshape(ns * ns, rank).astype(float)
             @ n_kc.reshape(rank * ns, rank).T).reshape(ns, ns, rank, ns)
    c, l, k, m = np.nonzero(trees.transpose(2, 0, 3, 1))
    if not frobenius:
        c, l, k, m = (x[count[c] > 0] for x in (c, l, k, m))
    size = trees[l, m, c, k].astype(np.int64)
    del trees
    # the first row of each triple in the coassociativity block of its sector
    lo = np.searchsorted(c, np.arange(rank + 1))  # sector c holds triples lo[c]:lo[c + 1]
    first = np.cumsum(size) - size
    first -= first[lo[c]]
    out = {name: [] for name in _RELATIONS}
    coassociativity, isometry_rows = {}, {}
    for s in np.flatnonzero(count).tolist():
        P = np.flatnonzero(lab == s)
        zc = zeta[P]
        # the sector block of w1: theta^2 rows (l, m, e) with e a tree vertex
        B = isometry_rows[s] = zc.reshape(len(P), -1)[:, np.flatnonzero(theta.live[P[0]])].T
        one = theta.d_theta ** -0.5 * np.eye(len(P))
        out["unit_left"].append(np.einsum("p,apb->ba", w.conj(), zc[:, :, P, 0]) - one)
        out["unit_right"].append(np.einsum("p,abp->ba", w.conj(), zc[:, P, :, 0]) - one)
        out["isometry"].append(B.conj().T @ B - np.eye(len(P)))
        coassociativity[s] = np.zeros((int(size[lo[s]:lo[s + 1]].sum()), len(P)), dtype=complex)
    if frobenius:
        # row (l, m, e) of the theta^2 basis of sector c is pos[c, l ns + m] + e,
        # and the block of c is frob[at[c]:at[c + 1]], row-major
        dim = n_lm.sum(axis=(0, 1))
        flat = n_lm.reshape(ns * ns, rank).T
        pos = np.cumsum(flat, axis=1) - flat
        at = np.append(0, np.cumsum(dim * dim))
        frob = np.zeros(at[-1], dtype=complex)

    def trees(a, b, outer, cs, x):
        """The trees (i, s, e, f) of the triples i, e < N[lam_a, lam_b, s] and
        f < outer[c, x, s], read on the labels s of (a, b) only."""
        i, at = _pairs(start[a * ns + b], span[a * ns + b])
        s = label[at]
        return _trees(n_lm[a[i], b[i], s], outer[cs[i], x[i], s], i, s)

    def batch(part, n):
        """The trees of the triples ``part``, each with n trees: their rows
        of the coassociativity blocks, with one F-move per triple whose
        (1 x w1) rows are not all zero, and their Frobenius terms."""
        cp, lp, kp, mp = c[part], l[part], k[part], m[part]
        # every left tree (sig, e1, e2) and right tree (tau, g, h) of every
        # triple, triple by triple (n of each); u and v are (w1 x 1) and
        # (1 x w1) on them, over the summands
        ti, sig, e1, e2 = trees(lp, mp, n_kc, cp, kp)
        u = zeta[:, lp[ti], mp[ti], e1].T * member[sig]
        tj, tau, g, h = trees(mp, kp, n_lc, cp, lp)
        v = zeta[:, mp[tj], kp[tj], g].T * member[tau]
        del sig, e1, tau, g
        live = np.bincount(tj, weights=v.any(axis=1), minlength=len(part)) > 0
        if live.any():
            F = model.f_stack(np.stack([lab[lp], lab[mp], lab[kp], cp], axis=1)[live])
        at_f = np.cumsum(live) - 1  # the position in F of each live triple
        # the triples of one sector are a run of part
        edges = np.flatnonzero(np.r_[True, cp[1:] != cp[:-1], True]).tolist()
        for a, b in zip(edges[:-1], edges[1:]):
            block = coassociativity.get(int(cp[a]))
            if block is None:
                continue
            zc = zeta[lab == cp[a]]
            rows = slice(a * n, b * n)
            L = np.einsum("tp,npt->tn", u[rows], zc[:, :, kp[ti[rows]], e2[rows]])
            R = np.einsum("tq,tnq->tn", v[rows], zc[:, lp[tj[rows]], :, h[rows]])
            on = np.flatnonzero(live[a:b])
            if len(on):
                moved = (on * n)[:, None] + np.arange(n)
                L[moved] -= F[at_f[a + on]] @ R[moved]
            block[(first[part[a:b]][:, None] + np.arange(n)).ravel()] = L
        if frobenius and live.any():
            # each nonzero u and v of one live triple make a cell: the term
            # conj(v) conj(F[a, b]) u at row (l, q, h) and column (p, k, e2)
            x, p = np.nonzero(u * live[ti, None])
            y, q = np.nonzero(v * live[tj, None])
            nu = np.bincount(ti[x], minlength=len(part))
            nv = np.bincount(tj[y], minlength=len(part))
            i, xi = _pairs(np.cumsum(nu) - nu, nu)
            j, yi = _pairs((np.cumsum(nv) - nv)[i], nv[i])
            i, x, p, y, q = i[j], x[xi[j]], p[xi[j]], y[yi], q[yi]
            cs = cp[i]
            cell = at[cs] + (pos[cs, lp[i] * ns + q] + h[y]) * dim[cs] + pos[cs, p * ns + kp[i]] + e2[x]
            np.add.at(frob, cell, np.conj(v[y, q] * F.reshape(-1)[(at_f[i] * n + x % n) * n + y % n]) * u[x, p])

    # the triples, in batches of one tree count (a triple has as many right
    # trees as left trees, so both run from its first tree) and of about
    # _RELATION_CELLS cells
    most = int(count.max())
    for n in sorted(set(size.tolist())):
        one = np.flatnonzero(size == n)
        cells = 64 + n * ns * (4 + 2 * most) + n * n * (2 + 12 * frobenius * most ** 2)
        per = max(1, _RELATION_CELLS // cells)
        for a in range(0, len(one), per):
            batch(one[a:a + per], n)
    out["coassociativity"] = list(coassociativity.values())
    for s in np.flatnonzero(dim).tolist() if frobenius else []:
        B = isometry_rows.get(s, np.zeros((dim[s], 0)))
        out["frobenius"].append(B @ B.conj().T - frob[at[s]:at[s + 1]].reshape(dim[s], dim[s]))
    out["w_isometry"].append(np.array([[np.vdot(w, w) - 1.0]]))
    return {name: out[name] for name in names}


def validate_qsystem(q: QSystem, tol: float = 1e-8) -> QReport:
    """Check the unit, coassociativity, Frobenius and isometry relations.

    Each residual is the operator norm of the defect, computed from the
    coefficients of w and w1 by the formulas of the module docstring.
    """
    res = {name: _worst(blocks)
           for name, blocks in _defects(q.theta, q.zeta, q.w).items()}
    irreducible = q.model.obj_dim(0, q.theta.object) == 1
    return QReport(residuals=res, irreducible=irreducible, tol=tol)


def assemble_qsystem(theta: ThetaSpec, zeta: np.ndarray) -> QSystem:
    """Assemble (theta, w, w1) from comultiplication coefficients.

    ``zeta[n, l, m, e]`` is the coefficient on the summands n, l, m of theta
    and the tree vertex e of Hom(nu, lam mu), zero off ``theta.live``.  w is
    the injection of the identity summand, and

        w1 = sum (W_l x W_m) T^n_lm W_n*,
        T^n_lm = sum_e zeta[n,l,m,e] T_e.
    """
    if theta.model.obj_dim(0, theta.object) != 1:
        raise ValueError("theta must contain the identity sector exactly once")
    return QSystem(theta=theta, zeta=np.asarray(zeta, dtype=complex), w=np.eye(len(theta))[theta.index(0)])


def lr_zeta(theta: ThetaSpec) -> np.ndarray:
    """Closed-form coefficients for the identity coupling matrix.

    With both extensions trivial the coefficient formula collapses to
    sqrt(d(lam) d(mu) / (d(theta) d(nu))) delta_{e1 e2} on the diagonal
    summands lam x lam-op of theta over a Deligne product; the product
    vertex of (e1, e2) is e1 N2 + e2, with N2 the second factor's count.
    """
    D = theta.model
    m1, m2 = D.factors
    p1, p2 = D.unpack(theta.labels)
    n1, n2 = (f.N[np.ix_(p, p, p)].transpose(2, 0, 1) for f, p in ((m1, p1), (m2, p2)))
    q = m1.qdim[p1]
    n, l, m, e1 = np.nonzero(np.arange(theta.live.shape[3]) < np.minimum(n1, n2)[..., None])
    zeta = np.zeros(theta.live.shape, dtype=complex)
    zeta[n, l, m, e1 * (n2[n, l, m] + 1)] = np.sqrt(q[l] * q[m] / (theta.d_theta * q[n]))
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
    pair (l, m), zero-padded to the e axis of ``zeta`` (see
    :func:`~qsystems.ctps.ctps_braiding`).  The braided w1 has the
    coefficients (eps w1)[n; m, l, f] = sum_e eps[n, l, m][f, e] zeta[n; l, m, e].
    The residual is the largest operator norm, over the sectors c, of the
    block of (eps w1 - w1) whose columns are the summands n labelled c.
    """
    defect = (eps @ q.zeta[..., None])[..., 0].transpose(0, 2, 1, 3) - q.zeta
    lab = q.theta.labels
    # a set, not np.unique(lab): on numpy 2.4 that imports numpy.ma (1.6 MB of peak RSS)
    return _worst(defect[lab == c].reshape(np.count_nonzero(lab == c), -1).T for c in set(lab.tolist()))
