"""Reference forms the tests compare the package against.

These are the direct, morphism-level forms of identities the package
computes another way (standard inverses, module constraints, the braiding
of theta^2), the conversions between those forms and the coefficients that
QSystem and AlgebraObject hold, plus helpers that only tests need.  Nothing
in the package imports this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from qsystems import catalog
from qsystems.induction import (
    AlgebraObject,
    Bimod,
    BimodMap,
    bim_compose,
    bim_object,
    left_action,
    lift,
    mtimes,
    phi_scalar,
    right_action,
)
from qsystems.morphisms import (
    CategoryModel,
    ConjugatePair,
    Morphism,
    ObjectMismatchError,
    SumObject,
    adjoint,
    as_obj,
    braid,
    categorical_trace,
    compose,
    conjugate_pair,
    deligne_product,
    distance,
    hom_basis,
    identity_morphism,
    lmul,
    rmul,
    unit_obj,
    word_obj,
)
from qsystems.qsystem import QSystem, ThetaSpec

# -- su(2)_k recoupling and duality, entry by entry -----------------------------


def _qdeltas(fac, N) -> dict:
    """Triangle coefficients Delta(a, b, c) of the admissible triples (the nonzero N)."""
    return {(a, b, c): np.sqrt(fac[(-a + b + c) // 2] * fac[(a - b + c) // 2]
                               * fac[(a + b - c) // 2] / fac[(a + b + c) // 2 + 1])
            for a, b, c in np.argwhere(N).tolist()}


def _sixj(fac, delta, a, b, ab, c, d, bc) -> float:
    """q-deformed 6j symbol in doubled-spin labels, from the tables `fac` of
    ``catalog._qfactorials`` and `delta` of :func:`_qdeltas` (so the four triples
    must be admissible at the level)."""
    for (x, y, z) in [(a, b, ab), (ab, c, d), (b, c, bc), (a, bc, d)]:
        if (x + y + z) % 2 != 0 or z > x + y or z < abs(x - y):
            return 0.0
    start = max(a + b + ab, ab + c + d, b + c + bc, a + bc + d) // 2
    stop = min(a + b + c + d, a + ab + c + bc, b + ab + d + bc) // 2
    res = 0.0
    for z in range(start, stop + 1):
        den = (fac[z - (a + b + ab) // 2] * fac[z - (ab + c + d) // 2]
               * fac[z - (b + c + bc) // 2] * fac[z - (a + bc + d) // 2]
               * fac[(a + b + c + d) // 2 - z]
               * fac[(a + ab + c + bc) // 2 - z]
               * fac[(b + ab + d + bc) // 2 - z])
        res += (-1) ** z * fac[z + 1] / den
    return res * (delta[a, b, ab] * delta[ab, c, d] * delta[b, c, bc] * delta[a, bc, d])


def su2_f_oracle(k: int):
    """F provider of ``catalog.su2_level(k)`` that sums the Racah series of each
    entry on its own: the oracle of the level's one-pass F table."""
    model = catalog.su2_level(k)
    N, qd, n = model.N, model.qdim, model.rank
    fac = catalog._qfactorials(k, 2 * k + 1)
    delta = _qdeltas(fac, N)

    def f(a, b, c, d):
        left = [sig for sig in range(n) if N[a, b, sig] and N[sig, c, d]]
        right = [tau for tau in range(n) if N[b, c, tau] and N[a, tau, d]]
        M = np.zeros((len(left), len(right)), dtype=complex)
        sign = (-1) ** (((a + b + c + d) // 2) % 2)
        for i, sig in enumerate(left):
            for j, tau in enumerate(right):
                M[i, j] = sign * np.sqrt(qd[sig] * qd[tau]) * _sixj(fac, delta, a, b, sig, c, d, tau)
        return M

    return f


def conjugate_oracle(model: CategoryModel) -> float:
    """Both conjugate equations of ``conjugate_pair`` on the morphisms: the oracle
    of ``conjugate_residual``."""
    worst = 0.0
    for lam in range(model.rank):
        lamd = int(model.dual[lam])
        pair = conjugate_pair(model, lam)
        wl, wld = word_obj((lam,)), word_obj((lamd,))
        lhs1 = compose(lmul(wl, adjoint(pair.r)), rmul(pair.rbar, wl))
        want1 = (1.0 / model.qdim[lam]) * identity_morphism(model, wl)
        worst = max(worst, distance(lhs1, want1))
        lhs2 = compose(lmul(wld, adjoint(pair.rbar)), rmul(pair.r, wld))
        want2 = (1.0 / model.qdim[lam]) * identity_morphism(model, wld)
        worst = max(worst, distance(lhs2, want2))
    return worst


# -- coefficients and morphisms ------------------------------------------------


def slot_coefficients(theta: ThetaSpec, blocks: dict) -> dict:
    """Every slot's entry of the sector blocks of a map in Hom(theta, theta^2),
    keyed as ``theta.slots``: the inverse of ``ThetaSpec.coefficient_blocks``."""
    return {key: blocks[c][row, col] for key, (c, row, col) in theta.slots.items()}


def _identity_summands(theta: ThetaSpec) -> np.ndarray:
    return np.array([lam == 0 for lam, _ in theta.summands])


def unit_vector(theta: ThetaSpec, w: Morphism) -> np.ndarray:
    """w in Hom(id, theta) as the vector over the summands that QSystem and AlgebraObject hold."""
    out = np.zeros(len(theta), dtype=complex)
    out[_identity_summands(theta)] = w.blocks[0][:, 0]
    return out


def unit_morphism(theta: ThetaSpec, w: np.ndarray) -> Morphism:
    """The vector ``w`` over the summands as a morphism in Hom(id, theta)."""
    return Morphism(theta.model, unit_obj(), theta.object, {0: w[_identity_summands(theta), None]})


def qsystem_of(theta: ThetaSpec, w: Morphism, w1: Morphism) -> QSystem:
    """The QSystem whose w and w1 are the morphisms ``w`` and ``w1``."""
    zeta = theta.dense(slot_coefficients(theta, w1.blocks))
    return QSystem(theta=theta, zeta=zeta, w=unit_vector(theta, w))


def algebra_of(theta: ThetaSpec, unit: Morphism, mult: Morphism) -> AlgebraObject:
    """The AlgebraObject whose unit and mult are the morphisms ``unit`` and ``mult``.

    mult in Hom(theta^2, theta) holds each coefficient at the transpose of its slot.
    """
    coeffs = slot_coefficients(theta, {c: B.T for c, B in mult.blocks.items()})
    return AlgebraObject(theta=theta, unit=unit_vector(theta, unit), coeffs=coeffs)


def random_qsystem(theta: ThetaSpec, rng) -> QSystem:
    """Random complex coefficients on every slot of w1, and a random w."""

    def noise(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    zeta = theta.dense({key: complex(noise()) for key in theta.slots})
    w = np.zeros(len(theta), dtype=complex)
    w[_identity_summands(theta)] = noise(theta.model.obj_dim(0, theta.object))
    return QSystem(theta=theta, zeta=zeta, w=w)


# -- morphisms -----------------------------------------------------------------


def random_morphism(model: CategoryModel, source, target, rng) -> Morphism:
    source, target = as_obj(source), as_obj(target)
    blocks = {}
    for c in range(model.rank):
        dt, ds = model.obj_dim(c, target), model.obj_dim(c, source)
        blocks[c] = rng.standard_normal((dt, ds)) + 1j * rng.standard_normal((dt, ds))
    return Morphism(model, source, target, blocks)


def dim_word(model: CategoryModel, c: int, word) -> int:
    """dim Hom(c, word): the number of fusion trees of ``word`` ending in c."""
    return len(model.tails(0, word, c))


def injection(model: CategoryModel, obj: SumObject, k: int) -> Morphism:
    """Isometry of the k-th summand into `obj` (the W_k of a direct sum)."""
    src = SumObject((obj.words[k],), (obj.tags[k],))
    blocks = {}
    for c in range(model.rank):
        offs = model.obj_offsets(c, obj)
        B = np.zeros((offs[-1], offs[k + 1] - offs[k]), dtype=complex)
        B[offs[k]:offs[k + 1], :] = np.eye(offs[k + 1] - offs[k])
        blocks[c] = B
    return Morphism(model, src, obj, blocks)


def word_dual(model: CategoryModel, word) -> tuple:
    return tuple(int(model.dual[x]) for x in reversed(word))


def word_conjugate_pair(model: CategoryModel, word) -> ConjugatePair:
    """Conjugate solution for a tensor word, built iteratively from letters."""
    word = tuple(word)
    if not word:
        one = identity_morphism(model, unit_obj())
        return ConjugatePair(r=one, rbar=one)
    v, x = word[:-1], word[-1]
    px = conjugate_pair(model, x)
    if not v:
        return px
    pv = word_conjugate_pair(model, v)
    xd = (int(model.dual[x]),)
    r = compose(lmul(word_obj(xd), rmul(pv.r, word_obj((x,)))), px.r)
    rbar = compose(lmul(word_obj(v), rmul(px.rbar, word_obj(word_dual(model, v)))), pv.rbar)
    return ConjugatePair(r=r, rbar=rbar)


def _strip_prefix(obj: SumObject, word) -> SumObject:
    k = len(word)
    for w in obj.words:
        if w[:k] != word:
            raise ObjectMismatchError(f"object {obj!r} is not left divisible by {word}")
    return SumObject(tuple(w[k:] for w in obj.words), obj.tags)


def _strip_suffix(obj: SumObject, word) -> SumObject:
    k = len(word)
    for w in obj.words:
        if k and w[-k:] != word:
            raise ObjectMismatchError(f"object {obj!r} is not right divisible by {word}")
    return SumObject(tuple(w[:len(w) - k] for w in obj.words), obj.tags)


def left_inverse(model: CategoryModel, word, f: Morphism) -> Morphism:
    """Standard left inverse: strips the word prefix of an intertwiner.

    For f in Hom(word A, word B) returns
    (r* x 1_B)(1_conj(word) x f)(r x 1_A) in Hom(A, B).
    """
    word = tuple(word) if not isinstance(word, int) else (word,)
    a = _strip_prefix(f.source, word)
    b = _strip_prefix(f.target, word)
    pair = word_conjugate_pair(model, word)
    wd = word_obj(word_dual(model, word))
    lo = compose(rmul(adjoint(pair.r), b), compose(lmul(wd, f), rmul(pair.r, a)))
    return Morphism(model, a, b, lo.blocks)


def right_inverse(model: CategoryModel, word, f: Morphism) -> Morphism:
    """Standard right inverse: strips the word suffix of an intertwiner."""
    word = tuple(word) if not isinstance(word, int) else (word,)
    a = _strip_suffix(f.source, word)
    b = _strip_suffix(f.target, word)
    pair = word_conjugate_pair(model, word)
    wd = word_obj(word_dual(model, word))
    lo = compose(lmul(b, adjoint(pair.rbar)), compose(rmul(f, wd), lmul(a, pair.rbar)))
    return Morphism(model, a, b, lo.blocks)


# -- induced bimodules ---------------------------------------------------------


def bim_identity(a: AlgebraObject, b: Bimod) -> BimodMap:
    return BimodMap(a, b, b, identity_morphism(a.model, bim_object(a, b)))


def module_residual(f: BimodMap) -> float:
    """Violation of the left and right module-intertwining constraints."""
    a = f.algebra
    lhs_l = compose(f.mor, left_action(a, f.src))
    rhs_l = compose(left_action(a, f.tgt), lmul(a.object, f.mor))
    lhs_r = compose(f.mor, right_action(a, f.src))
    rhs_r = compose(right_action(a, f.tgt), rmul(f.mor, a.object))
    return max(distance(lhs_l, rhs_l), distance(lhs_r, rhs_r))


def induced_left_inverse_scalar(x: BimodMap) -> complex:
    """Left inverse of an induced endomorphism via the lifted duality isometry.

    Evaluates iota(R)* (1_conj x X) iota(R) and extracts the scalar; by the
    uniqueness of standard inverses this must equal
    :func:`~qsystems.induction.phi_scalar`.
    """
    a = x.algebra
    model = a.model
    if len(x.src.word) != 1 or x.src != x.tgt:
        raise ValueError("expected an endomorphism of a single induced sector")
    lam = x.src.word[0]
    sign = x.src.signs[0]
    pair = conjugate_pair(model, lam)
    r_lift = lift(a, pair.r, sign)
    lamd_id = bim_identity(a, Bimod((int(model.dual[lam]),), (sign,)))
    inner = mtimes(lamd_id, x)
    total = bim_compose(r_lift.H, bim_compose(inner, r_lift))
    return complex(categorical_trace(total.mor) / a.d)


def alpha_dimension(a: AlgebraObject, lam: int, sign: int) -> float:
    """Dimension of alpha^sign_lam: d(Theta lam) / d(Theta)."""
    obj = bim_object(a, Bimod((int(lam),), (sign,)))
    return float(categorical_trace(identity_morphism(a.model, obj)).real / a.d)


# -- extension pairs -----------------------------------------------------------


def rotate_bases(pair, rng) -> None:
    """Apply a random unitary to each hom-space basis of ``pair`` (a gauge move).

    The identity space (0, 0) is left untouched: its phase is pinned by
    the unit-law convention of the construction.
    """
    for key, basis in pair.phi.items():
        k = len(basis)
        if k == 0 or key == (0, 0):
            continue
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        u, _ = np.linalg.qr(a)
        pair.phi[key] = [sum((u[i, j] * basis[i] for i in range(k)),
                             start=0.0 * basis[0]) for j in range(k)]


def zeta_oracle(pair, d_theta: float) -> dict:
    """zeta with mtimes(phi_l*, phi_m*) built afresh for each summand pair
    (l, m): the oracle of ``zeta_tensor``, which reads the adjoint of the
    shared ``pair.product(l, m)``."""
    model = pair.model
    a = pair.algebra
    out = {}
    lift_cache = {}

    def lifted(nu, lam, mu, sign, adjoints):
        key = (nu, lam, mu, sign, adjoints)
        if key not in lift_cache:
            trees = hom_basis(model, nu, word_obj((lam, mu)))
            lift_cache[key] = [lift(a, adjoint(t) if adjoints else t, sign) for t in trees]
        return lift_cache[key]

    summands = list(enumerate(pair.summands))
    for (i, l), (j, m) in itertools.product(summands, repeat=2):
        phi_lm = None
        for k, n in summands:
            if model.N[l.lam1, m.lam1, n.lam1] == 0 or model.N[l.lam2, m.lam2, n.lam2] == 0:
                continue
            if phi_lm is None:
                phi_lm = mtimes(pair.phi_of(l).H, pair.phi_of(m).H)
            phi_n = pair.phi_of(n)
            pref = np.sqrt(model.qdim[l.lam2] * model.qdim[m.lam2]
                           / (d_theta * model.qdim[n.lam2]))
            second = lifted(n.lam2, l.lam2, m.lam2, pair.sign2, False)
            for e1, t1 in enumerate(lifted(n.lam1, l.lam1, m.lam1, pair.sign1, True)):
                for e2, t2 in enumerate(second):
                    x = bim_compose(t1, bim_compose(phi_lm, bim_compose(t2, phi_n)))
                    val = complex(pref * phi_scalar(x))
                    if val != 0.0:
                        out[(k, i, j, e1 * len(second) + e2)] = val
    return out


# -- the braiding fixed-point identity -----------------------------------------


def braiding_morphism(D, theta: ThetaSpec, convention: str = "opposite") -> Morphism:
    """eps(theta, theta) as a morphism on theta^2: the oracle of ``ctps_braiding``.

    ``"unconjugated"`` rebuilds the product with the second factor's R
    conjugated back, so the second factor braids with the unmirrored R.
    """
    if convention == "opposite":
        return braid(D, theta.object, theta.object)
    if convention != "unconjugated":
        raise ValueError("convention must be 'opposite' or 'unconjugated'")
    m1, m2 = D.factors
    bad_second = CategoryModel(m2.fusion,
                               lambda a, b, c, d: m2.F(a, b, c, d),
                               lambda a, b, c: np.conj(m2.R(a, b, c)),
                               name="unconjugated")
    Dbad = deligne_product(m1, bad_second)
    th_bad = ThetaSpec(Dbad, theta.multiplicities)
    eps = braid(Dbad, th_bad.object, th_bad.object)
    src, tgt = eps.source, eps.target
    return Morphism(D, SumObject(src.words, src.tags), SumObject(tgt.words, tgt.tags), eps.blocks)


def commutativity_oracle(q: QSystem, eps: Morphism) -> float:
    """Residual of eps(theta, theta) w1 = w1, on the morphisms: the oracle of
    ``check_commutativity``."""
    return distance(compose(eps, q.w1), q.w1)
