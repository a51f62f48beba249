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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .morphisms import (
    CategoryModel,
    Morphism,
    SumObject,
    adjoint,
    compose,
    deligne_product,
    distance,
    identity_morphism,
    lmul,
    mirror,
    op_norm,
    rmul,
    sum_product,
    unit_intro,
)

__all__ = ["ThetaSpec", "QSystem", "QReport", "relation_defects", "validate_qsystem",
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
        self.object = SumObject(tuple((lam,) for lam, _ in self.summands),
                                tuple(self.summands))
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

    def coefficient_blocks(self, zeta) -> dict:
        """Sector blocks of the map in Hom(theta, theta^2) with coefficients ``zeta``.

        ``zeta`` maps keys of :attr:`slots` to complex values; missing keys
        are zero and keys outside :attr:`slots` are ignored.
        """
        offs = self.model.sector_offsets(self.object)
        offs2 = self.model.sector_offsets(self.square)
        blocks = {c: np.zeros((offs2[c][-1], offs[c][-1]), dtype=complex)
                  for c in range(self.model.rank)}
        for key, (c, row, col) in self.slots.items():
            val = zeta.get(key)
            if val:
                blocks[c][row, col] = val
        return blocks

    def coefficients(self, blocks) -> dict:
        """Inverse of :meth:`coefficient_blocks`: every slot's entry, keyed as :attr:`slots`."""
        return {key: blocks[c][row, col] for key, (c, row, col) in self.slots.items()}

    def index(self, lam: int, copy: int = 1) -> int:
        return self.summands.index((lam, copy))

    def __len__(self):
        return len(self.summands)

    def __repr__(self):
        terms = [f"{v}*{self.model.fusion.names[k]}" for k, v in sorted(self.multiplicities.items())]
        return "ThetaSpec(" + " + ".join(terms) + ")"


@dataclass
class QSystem:
    """Canonical triple: theta with w in Hom(id, theta), w1 in Hom(theta, theta^2)."""

    theta: ThetaSpec
    w: Morphism
    w1: Morphism

    @property
    def model(self) -> CategoryModel:
        return self.theta.model


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


def relation_defects(q: QSystem, names=None) -> dict:
    """lhs - rhs of each relation, as a morphism, in the order of `names`.

    Without `names`, every relation in the order :func:`validate_qsystem`
    reports them (the operator norm of each defect);
    :func:`~qsystems.induction.solve_haploid_algebra` drives three of them
    to zero.
    """
    model = q.model
    th = q.theta.object
    c = q.theta.d_theta ** -0.5
    id_th = identity_morphism(model, th)
    w_star = adjoint(q.w)
    w1_star = adjoint(q.w1)
    defects = {
        "unit_left": lambda: compose(rmul(w_star, th), q.w1) - c * id_th,
        "unit_right": lambda: compose(lmul(th, w_star), q.w1) - c * id_th,
        "coassociativity": lambda: (compose(rmul(q.w1, th), q.w1)
                                    - compose(lmul(th, q.w1), q.w1)),
        "frobenius": lambda: (compose(q.w1, w1_star)
                              - compose(lmul(th, w1_star), rmul(q.w1, th))),
        "isometry": lambda: compose(w1_star, q.w1) - id_th,
        "w_isometry": lambda: (compose(w_star, q.w)
                               - identity_morphism(model, q.w.source)),
    }
    return {name: defects[name]() for name in names or defects}


def validate_qsystem(q: QSystem, tol: float = 1e-8) -> QReport:
    """Check the unit, coassociativity, Frobenius and isometry relations."""
    residuals = {name: op_norm(d) for name, d in relation_defects(q).items()}
    irreducible = q.model.obj_dim(0, q.theta.object) == 1
    return QReport(residuals=residuals, irreducible=irreducible, tol=tol)


def assemble_qsystem(theta: ThetaSpec, zeta) -> QSystem:
    """Assemble (theta, w, w1) from comultiplication coefficients.

    ``zeta`` maps ``(n, l, m, e) -> complex`` over summand indices n, l, m of
    theta and the multiplicity index e of Hom(nu, lam mu); missing keys are
    zero (see :attr:`ThetaSpec.slots`).  w is the injection of the identity
    summand, and

        w1 = sum (W_l x W_m) T^n_lm W_n*,
        T^n_lm = sum_e zeta[n,l,m,e] T_e.
    """
    model = theta.model
    th = theta.object
    if model.obj_dim(0, th) != 1:
        raise ValueError("theta must contain the identity sector exactly once")
    w = unit_intro(model, th, 0)
    w1 = Morphism(model, th, theta.square, theta.coefficient_blocks(zeta))
    return QSystem(theta=theta, w=w, w1=w1)


def lr_zeta(D, theta: ThetaSpec, pairs: list) -> dict:
    """Closed-form coefficients for the identity coupling matrix.

    With both extensions trivial the coefficient formula collapses to
    sqrt(d(lam) d(mu) / (d(theta) d(nu))) delta_{e1 e2} on the diagonal
    summands lam x lam-op; `pairs` lists the factor pair of each summand.
    """
    m1, m2 = D.factors
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
    mult = {D.pack(lam, lam): 1 for lam in range(model.rank)}
    theta = ThetaSpec(D, mult)
    pairs = [D.unpack(lam) for lam, _ in theta.summands]
    q = assemble_qsystem(theta, lr_zeta(D, theta, pairs))
    return q, D


def check_commutativity(q: QSystem, eps_theta: Morphism) -> float:
    """Residual of eps(theta, theta) w1 = w1 for a given braiding operator."""
    return distance(compose(eps_theta, q.w1), q.w1)
