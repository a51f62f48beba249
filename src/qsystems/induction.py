"""Algebra objects and alpha-induction over a braided category model.

An algebra object Theta (a Q-system in Frobenius normalization: unit
isometry u, multiplication m with m m* = d(Theta) and m(u x 1) = 1) induces,
for every sector lam and sign, a Theta-Theta bimodule on the object
Theta x lam: the left action is multiplication, the right action threads
Theta past lam through the braiding (over- or under-crossing according to
the sign).  Morphism spaces between induced bimodules are solved inside the
plain category: by free-module reciprocity a map out of Theta x lam is fixed
by its restriction in Hom(lam, Theta x word), and the right-module constraint
cuts out a null space there.  Their dimensions assemble into the coupling
matrix

    Z[lam, mu] = dim Hom(alpha^+_lam, alpha^-_mu).

Products of bimodule maps are relative tensor products over Theta, evaluated
through the canonical multiplication / splitting pair, so the whole operator
calculus of the extension happens at the level of category morphisms.  The
splitting map is the adjoint of the multiplication map over d(Theta).

Each algebra keeps the maps that depend only on signed words
(:meth:`AlgebraObject._memo`): the left and right actions of each induced
bimodule, the multiplication map of each (signed word, plain word) pair,
which serves as a splitting map too, and the lifted braidings that
chiral locality reads.  Pairs of extensions on one algebra share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .morphisms import (
    CategoryModel,
    Morphism,
    SumObject,
    UnsupportedOperationError,
    adjoint,
    braid,
    categorical_trace,
    compose,
    hom_basis,
    identity_morphism,
    lmul,
    mono_product,
    rmul,
    sum_product,
    word_obj,
)
from .qsystem import QReport, QSystem, ThetaSpec, _defects, validate_qsystem

__all__ = [
    "AlgebraObject",
    "trivial_algebra",
    "to_qsystem",
    "verify_algebra",
    "algebra_from_coefficients",
    "solve_haploid_algebra",
    "Bimod",
    "BimodMap",
    "bim_object",
    "left_action",
    "right_action",
    "lift",
    "mtimes",
    "trace_ip",
    "bimodule_hom",
]


@dataclass
class AlgebraObject:
    """Haploid Frobenius algebra: object with unit and multiplication.

    ``unit`` is the isometry in Hom(id, Theta) as a vector over the summands,
    zero off the label 0, and ``coeffs`` are the coefficients of mult in
    Hom(Theta^2, Theta) as the array coeffs[n, l, m, e] of :class:`ThetaSpec`
    (zero off ``theta.live``).  mult is normalized so that mult (unit x 1) = 1
    and mult mult* = d(Theta); equivalently mult = sqrt(d) w1* for the
    Q-system isometry w1.
    """

    theta: ThetaSpec
    unit: np.ndarray
    coeffs: np.ndarray
    # maps built from (unit, mult) that depend only on signed words, see
    # _memo: ("actions", Bimod), ("mult", Bimod, word) and the lifted
    # braidings ("braid", lam, mu, sign)
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _memo(self, key, build):
        out = self._maps.get(key)
        if out is None:
            out = self._maps[key] = build()
        return out

    @property
    def model(self) -> CategoryModel:
        return self.theta.model

    @property
    def object(self) -> SumObject:
        return self.theta.object

    @property
    def d(self) -> float:
        return self.theta.d_theta

    @cached_property
    def mult(self) -> Morphism:
        """mult in Hom(Theta^2, Theta), built once: its blocks are the
        transposes of those that ``coeffs`` has in Hom(Theta, Theta^2)."""
        blocks = self.theta.coefficient_blocks(self.coeffs)
        return Morphism(self.model, self.theta.square, self.object,
                        {c: np.ascontiguousarray(B.T) for c, B in blocks.items()})


def trivial_algebra(model: CategoryModel) -> AlgebraObject:
    return algebra_from_coefficients(ThetaSpec(model, {0: 1}), np.ones((1, 1, 1, 1)))


def to_qsystem(a: AlgebraObject) -> QSystem:
    """(theta, w, w1) of ``a``: w is the unit and w1 = mult* / sqrt(d(Theta)),
    so zeta = conj(coeff) d(Theta)^(-1/2).  The Newton solver's residual reads
    the same zeta."""
    return QSystem(theta=a.theta, zeta=a.coeffs.conj() * a.d ** -0.5, w=a.unit)


def verify_algebra(a: AlgebraObject, tol: float = 1e-8) -> QReport:
    """Unit / associativity / Frobenius checks via the Q-system relations."""
    return validate_qsystem(to_qsystem(a), tol=tol)


def algebra_from_coefficients(theta: ThetaSpec, coeffs: np.ndarray) -> AlgebraObject:
    """The algebra on theta whose multiplication has coefficients ``coeffs``.

    ``coeffs`` is theta's coefficient array, zero off ``theta.live``; the
    unit is the identity summand.
    """
    return AlgebraObject(theta, np.eye(len(theta))[theta.index(0)], np.asarray(coeffs, dtype=complex))


def solve_haploid_algebra(model: CategoryModel, multiplicities: dict,
                          rng=None, attempts: int = 20) -> AlgebraObject:
    """Solve multiplication coefficients making Theta a Q-system.

    Newton iteration on the validator's unit_left, coassociativity and
    isometry defects of :func:`to_qsystem`, over the coefficient space of
    Hom(Theta^2, Theta), with the unit channels pinned by the unit law.  The
    defects are real-quadratic in the unknowns, so column j of the Jacobian
    is exactly (r(x + e_j) - r(x - e_j)) / 2.  Each random start iterates
    while max |r| falls and is kept if it passes :func:`verify_algebra` at
    1e-9.  Intended for small algebras (simple-current and two-summand
    cases); raises if no start succeeds.
    """
    rng = rng or np.random.default_rng(0)
    theta = ThetaSpec(model, multiplicities)
    if model.obj_dim(0, theta.object) != 1:
        raise ValueError("algebra must be haploid (identity multiplicity 1)")

    # the unknowns keep (l, m, n, e) order, so a seeded start always means the
    # same coefficients; channels with a unit factor are pinned by the unit law
    unit = theta.labels == 0
    pinned = theta.live & (unit[:, None] | unit)[..., None]
    free = np.nonzero((theta.live & ~pinned).transpose(1, 2, 0, 3))

    def algebra(x):
        coeffs = pinned.astype(complex)
        coeffs.transpose(1, 2, 0, 3)[free] = x[0::2] + 1j * x[1::2]
        return algebra_from_coefficients(theta, coeffs)

    def residual(x):
        q = to_qsystem(algebra(x))
        blocks = _defects(theta, q.zeta, q.w, ("unit_left", "coassociativity", "isometry"))
        r = np.concatenate([B.ravel() for bs in blocks.values() for B in bs])
        return np.concatenate([r.real, r.imag])

    for attempt in range(attempts):
        x = rng.standard_normal(2 * len(free[0]))
        r = residual(x)
        for _ in range(60):
            J = np.array([residual(x + e) - residual(x - e) for e in np.eye(len(x))])
            step, *_ = np.linalg.lstsq(J.reshape(len(x), len(r)).T / 2, -r, rcond=None)
            r_next = residual(x + step)
            if not np.max(np.abs(r_next)) < np.max(np.abs(r)):
                break
            x, r = x + step, r_next
        a = algebra(x)
        if verify_algebra(a, tol=1e-9).ok:
            return a
    raise ValueError("no Q-system structure found for the given multiplicities")


# ---------------------------------------------------------------------------
# induced bimodules


@dataclass(frozen=True)
class Bimod:
    """Signed word: the induced bimodule on Theta x word, one sign per letter."""

    word: tuple
    signs: tuple

    def __post_init__(self):
        if len(self.word) != len(self.signs):
            raise ValueError("one sign per letter")
        if any(s not in (+1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass
class BimodMap:
    """Morphism of induced bimodules, carried by a category morphism."""

    algebra: AlgebraObject
    src: Bimod
    tgt: Bimod
    mor: Morphism

    def __add__(self, other):
        return BimodMap(self.algebra, self.src, self.tgt, self.mor + other.mor)

    def __sub__(self, other):
        return BimodMap(self.algebra, self.src, self.tgt, self.mor - other.mor)

    def __mul__(self, z):
        return BimodMap(self.algebra, self.src, self.tgt, z * self.mor)

    __rmul__ = __mul__

    @property
    def H(self):
        return BimodMap(self.algebra, self.tgt, self.src, adjoint(self.mor))


def bim_object(a: AlgebraObject, b: Bimod) -> SumObject:
    return sum_product(a.object, word_obj(b.word))


def bim_compose(f: BimodMap, g: BimodMap) -> BimodMap:
    if f.src != g.tgt:
        raise ValueError(f"bimodule maps do not compose: {g.tgt} != {f.src}")
    return BimodMap(f.algebra, g.src, f.tgt, compose(f.mor, g.mor))


def _eps_signed(a: AlgebraObject, b: Bimod) -> Morphism:
    """Crossing of Theta left past the signed word: Hom(word Theta, Theta word)."""
    model = a.model
    if not b.word:
        return identity_morphism(model, a.object)
    x, s = b.word[0], b.signs[0]
    rest = Bimod(b.word[1:], b.signs[1:])
    if s == +1:
        head = braid(model, word_obj((x,)), a.object)
    else:
        head = adjoint(braid(model, a.object, word_obj((x,))))
    step = rmul(head, word_obj(rest.word))
    return compose(step, lmul(word_obj((x,)), _eps_signed(a, rest)))


def left_action(a: AlgebraObject, b: Bimod) -> Morphism:
    """Hom(Theta Theta word, Theta word): multiply on the left factor."""
    return rmul(a.mult, word_obj(b.word))


def right_action(a: AlgebraObject, b: Bimod) -> Morphism:
    """Hom(Theta word Theta, Theta word): braid Theta past the word, then multiply."""
    if b.word and not a.model.braided:
        raise UnsupportedOperationError("induced right action needs a braiding")
    move = lmul(a.object, _eps_signed(a, b))
    return compose(rmul(a.mult, word_obj(b.word)), move)


def lift(a: AlgebraObject, n: Morphism, sign: int) -> BimodMap:
    """Extension homomorphism applied to a category intertwiner: 1_Theta x n.

    Maps Hom(word, word') into the bimodule maps of the sign-induced
    modules; this is the monoidal-functor image of the plain intertwiner.
    """
    srcw = n.source.words[0]
    tgtw = n.target.words[0]
    if len(n.source.words) != 1 or len(n.target.words) != 1:
        raise ValueError("lift expects word-to-word intertwiners")
    return BimodMap(
        a,
        Bimod(srcw, (sign,) * len(srcw)),
        Bimod(tgtw, (sign,) * len(tgtw)),
        lmul(a.object, n),
    )


def _mult_map(a: AlgebraObject, x: Bimod, word: tuple) -> Morphism:
    """Hom(Theta x Theta word, Theta x word): multiply through the signed crossing of x.

    The signs of the second word are never read, so one map serves them all.
    """
    move = lmul(a.object, rmul(_eps_signed(a, x), word_obj(word)))
    return compose(rmul(a.mult, word_obj(x.word + word)), move)


def mtimes(f: BimodMap, g: BimodMap) -> BimodMap:
    """Monoidal product of bimodule maps (relative tensor product over Theta).

    The product is mult (f x g) split, where the splitting map is the
    adjoint of the multiplication map of the sources over d(Theta).  Each
    multiplication map is built once per algebra, signed first word and
    plain second word, and serves both roles.
    """
    a = f.algebra
    src = Bimod(f.src.word + g.src.word, f.src.signs + g.src.signs)
    tgt = Bimod(f.tgt.word + g.tgt.word, f.tgt.signs + g.tgt.signs)

    def mult(x, y):
        return a._memo(("mult", x, y.word), lambda: _mult_map(a, x, y.word))

    mor = compose(mult(f.tgt, g.tgt), compose(mono_product(f.mor, g.mor), adjoint(mult(f.src, g.src))))
    return BimodMap(a, src, tgt, (1.0 / a.d) * mor)


def trace_ip(f: BimodMap, g: BimodMap) -> complex:
    """(f, g) = Tr(f* g) / (d(Theta) d(word)): the induced left-inverse pairing."""
    a = f.algebra
    val = categorical_trace(compose(adjoint(f.mor), g.mor))
    return complex(val / (a.d * a.model.word_dim(f.src.word)))


# ---------------------------------------------------------------------------
# hom-space solver


def _actions(a: AlgebraObject, b: Bimod) -> tuple:
    """(left_action, right_action) of b, built once per algebra and bimodule."""
    return a._memo(("actions", b), lambda: (left_action(a, b), right_action(a, b)))


def bimodule_hom(a: AlgebraObject, src: Bimod, tgt: Bimod):
    """Orthonormal basis of the bimodule maps src -> tgt, for a one-letter src.

    Theta lam is the free left Theta-module on lam, so every left-module map
    is (m x 1)(1_Theta x g) for exactly one g in Hom(lam, Theta tgt).  Only
    the right-action constraint is solved, as a null space over g (SVD with
    relative rank cutoff); the maps are then orthonormalized in the induced
    scalar product and phased so the first nonvanishing coefficient is
    positive real.
    """
    if len(src.word) != 1:
        raise ValueError("bimodule_hom needs a one-letter source")
    (_, ar_s), (al_t, ar_t) = _actions(a, src), _actions(a, tgt)
    cands = [compose(al_t, lmul(a.object, g))
             for g in hom_basis(a.model, src.word[0], bim_object(a, tgt))]
    if not cands:
        return []
    cols = []
    for f in cands:
        res = compose(f, ar_s) - compose(ar_t, rmul(f, a.object))
        cols.append(np.concatenate([B.ravel() for B in res.blocks.values()]))
    _, s, vh = np.linalg.svd(np.array(cols).T)
    rank = int(np.sum(s > 1e-8 * max(s[0], 1.0)))
    maps = [BimodMap(a, src, tgt, sum((z * f for z, f in zip(v, cands)), start=0.0 * cands[0]))
            for v in vh[rank:].conj()]
    # Gram-Schmidt in the induced scalar product
    ortho = []
    for f in maps:
        for g in ortho:
            f = f - trace_ip(g, f) * g
        nrm = np.sqrt(trace_ip(f, f).real)
        if nrm < 1e-10:
            continue
        f = (1.0 / nrm) * f
        vec = np.concatenate([B.ravel() for B in f.mor.blocks.values()])
        piv = np.flatnonzero(np.abs(vec) > 1e-9)
        if len(piv):
            ph = vec[piv[0]] / abs(vec[piv[0]])
            f = np.conj(ph) * f
        ortho.append(f)
    return ortho

