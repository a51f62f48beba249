import itertools

import numpy as np
import pytest

from qsystems import catalog
from qsystems.ctps import alpha_pair
from qsystems.induction import (
    Bimod,
    BimodMap,
    bim_compose,
    bim_object,
    bimodule_hom,
    left_action,
    lift,
    mtimes,
    right_action,
    solve_haploid_algebra,
    to_qsystem,
    trace_ip,
    trivial_algebra,
    verify_algebra,
)
from qsystems.morphisms import (
    Morphism,
    adjoint,
    compose,
    distance,
    hom_basis,
    identity_morphism,
    lmul,
    rmul,
    word_obj,
)

from oracles import (
    algebra_of,
    alpha_dimension,
    bim_identity,
    induced_left_inverse_scalar,
    injection,
    module_residual,
    phi_scalar,
    unit_morphism,
)


def test_trivial_algebra_valid(models):
    for name in ["fibonacci", "su2k4"]:
        a = trivial_algebra(models[name])
        assert verify_algebra(a, tol=1e-12).ok


def test_bundled_algebras_valid(algebras):
    for name, alg in algebras.items():
        rep = verify_algebra(alg, tol=1e-9)
        assert rep.ok, (name, rep.residuals)


def _channel_coeff(alg, l, m, n, e=0):
    """Multiplication coefficient on summand channel (l, m) -> n, vertex e."""
    from qsystems.morphisms import mono_product

    model = alg.model
    th = alg.object
    lam, mu, nu = th.words[l][0], th.words[m][0], th.words[n][0]
    t = hom_basis(model, nu, word_obj((lam, mu)))[e]
    wl, wm, wn = injection(model, th, l), injection(model, th, m), injection(model, th, n)
    val = compose(adjoint(wn), compose(alg.mult, compose(mono_product(wl, wm), t)))
    return val.blocks[nu][0, 0]


def test_fibtau_coefficients_are_golden(algebras):
    # gauge-invariant moduli of the two nontrivial channels: specialness
    # (m m* = d) forces |c_(tt->1)|^2 = d - 1 = phi and |c_(tt->t)|^2 =
    # d - 2 = phi - 1, with d = 1 + phi
    alg = algebras["fibtau"]
    phi = (1 + np.sqrt(5)) / 2
    assert alg.d == pytest.approx(1 + phi, abs=1e-10)
    assert abs(_channel_coeff(alg, 1, 1, 0)) ** 2 == pytest.approx(phi, abs=1e-9)
    assert abs(_channel_coeff(alg, 1, 1, 1)) ** 2 == pytest.approx(phi - 1.0, abs=1e-9)
    assert abs(_channel_coeff(alg, 0, 1, 1)) == pytest.approx(1.0, abs=1e-9)


def test_induced_dimensions_match_sectors(models, algebras):
    su = models["su2k4"]
    alg = algebras["z2"]
    for lam in range(su.rank):
        for sign in (+1, -1):
            assert alpha_dimension(alg, lam, sign) == pytest.approx(su.qdim[lam], abs=1e-9)
            # underlying object has dimension d(Theta) d(lam)
            from qsystems.morphisms import categorical_trace
            raw = categorical_trace(identity_morphism(su, bim_object(alg, Bimod((lam,), (sign,))))).real
            assert raw == pytest.approx(alg.d * su.qdim[lam], abs=1e-9)


def induced_hom(a, lam, mu, sign1=+1, sign2=-1):
    """Orthonormal basis of Hom(alpha^sign1_lam, alpha^sign2_mu)."""
    return bimodule_hom(a, Bimod((lam,), (sign1,)), Bimod((mu,), (sign2,)))


def test_trivial_algebra_hom_spaces(models):
    fib = models["fibonacci"]
    a = trivial_algebra(fib)
    for lam in range(2):
        for mu in range(2):
            assert len(induced_hom(a, lam, mu)) == (1 if lam == mu else 0)
    basis = induced_hom(a, 1, 1)
    # basis is the identity map of the underlying object, up to phase
    assert distance(basis[0].mor, identity_morphism(fib, basis[0].mor.source)) < 1e-9


def test_identity_hom_space_both_plus(algebras):
    assert len(induced_hom(algebras["z2"], 0, 0, +1, +1)) == 1


def test_su2k4_hom_dimension_two(algebras):
    basis = induced_hom(algebras["z2"], 2, 2, +1, -1)
    assert len(basis) == 2
    gram = np.array([[trace_ip(f, g) for g in basis] for f in basis])
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_coupling_matrices(models, algebras):
    fib = models["fibonacci"]
    assert np.array_equal(alpha_pair(trivial_algebra(fib)).Z, np.eye(2, dtype=int))
    d4 = np.zeros((5, 5), dtype=int)
    d4[0, 0] = d4[0, 4] = d4[4, 0] = d4[4, 4] = 1
    d4[2, 2] = 2
    assert np.array_equal(alpha_pair(algebras["z2"]).Z, d4)
    conj = np.zeros((4, 4), dtype=int)
    for a in range(4):
        conj[a, (-a) % 4] = 1
    assert np.array_equal(alpha_pair(algebras["z4fermion"]).Z, conj)
    assert np.array_equal(alpha_pair(algebras["fibtau"]).Z, np.eye(2, dtype=int))
    assert np.array_equal(alpha_pair(algebras["isingpsi"]).Z, np.eye(3, dtype=int))


def test_e2_lifts_are_bimodule_maps(models, algebras):
    su = models["su2k4"]
    alg = algebras["z2"]
    worst = 0.0
    for nu in range(su.rank):
        for lam in range(su.rank):
            for mu in range(su.rank):
                for t in hom_basis(su, nu, word_obj((lam, mu))):
                    for sign in (+1, -1):
                        worst = max(worst, module_residual(lift(alg, t, sign)))
    assert worst < 1e-9


def test_fusion_rules_preserved(models, algebras):
    # dim Hom(alpha_nu, alpha_lam alpha_mu) >= N^nu_(lam mu); equality if trivial
    su = models["su2k4"]
    alg = algebras["z2"]
    triv = trivial_algebra(su)
    for sign in (+1, -1):
        for lam, mu, nu in [(1, 1, 2), (2, 2, 0), (2, 2, 2), (1, 2, 1)]:
            pair_word = Bimod((lam, mu), (sign, sign))
            single = Bimod((nu,), (sign,))
            dim_alg = len(bimodule_hom(alg, single, pair_word))
            dim_triv = len(bimodule_hom(triv, single, pair_word))
            assert dim_alg >= su.N[lam, mu, nu]
            assert dim_triv == su.N[lam, mu, nu]


def test_coupling_dimension_sum(models, algebras):
    # sum Z d d equals d(theta) of the assembled double
    su = models["su2k4"]
    Z = alpha_pair(algebras["z2"]).Z
    total = sum(Z[l, m] * su.qdim[l] * su.qdim[m]
                for l in range(5) for m in range(5))
    assert total == pytest.approx(12.0, abs=1e-9)


def test_verify_algebra_checks_the_newton_zeta(monkeypatch, models, algebras):
    # the zeta verify_algebra validates is bitwise the zeta of the Newton
    # residual at the same coefficients: the returned start's last accepted
    # residual was formed at the algebra's coefficients
    import qsystems.induction as induction
    import qsystems.qsystem as qsystem

    newton, validated = set(), []

    def spy(record, defects):
        def wrapped(theta, zeta, w, *names):
            record(zeta.tobytes())
            return defects(theta, zeta, w, *names)
        return wrapped

    monkeypatch.setattr(induction, "_defects", spy(newton.add, induction._defects))
    monkeypatch.setattr(qsystem, "_defects", spy(validated.append, qsystem._defects))

    def solved_zeta_is_validated(model, mult, rng=None):
        newton.clear()
        a = solve_haploid_algebra(model, mult, rng=rng)
        verify_algebra(a)
        assert validated[-1] in newton, mult
        return validated[-1]

    # the bundles' solves, in the order and from the seed of scripts/build_bundles.py
    rng = np.random.default_rng(2024)
    for name, cat, mult in [("z2", "su2k4", {0: 1, 4: 1}), ("fibtau", "fibonacci", {0: 1, 1: 1}),
                            ("isingpsi", "ising", {0: 1, 2: 1}), ("z4fermion", "z4", {0: 1, 2: 1})]:
        zeta = solved_zeta_is_validated(models[cat], mult, rng)
        verify_algebra(algebras[name])  # the bundle holds the solved coefficients exactly
        assert validated[-1] == zeta, name
    solved_zeta_is_validated(catalog.su2_level(8), {0: 1, 8: 1})  # D6
    solved_zeta_is_validated(catalog.su2_level(10), {0: 1, 6: 1})  # E6


def _regauged(alg, rng):
    """The algebra conjugated by a random unitary on Theta."""
    model = alg.model
    th = alg.object
    blocks = {}
    for c in range(model.rank):
        n = model.obj_dim(c, th)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(h)
        blocks[c] = q
    u = Morphism(model, th, th, blocks)
    from qsystems.morphisms import mono_product
    mult2 = compose(u, compose(alg.mult, mono_product(adjoint(u), adjoint(u))))
    unit2 = compose(u, unit_morphism(alg.theta, alg.unit))
    return algebra_of(alg.theta, unit2, mult2)


def test_coupling_invariant_under_algebra_gauge(algebras, rng):
    # re-gauge the multiplication by a unitary on Theta; Z is unchanged
    alg = algebras["z2"]
    alg2 = _regauged(alg, rng)
    assert verify_algebra(alg2, tol=1e-9).ok
    assert np.array_equal(alpha_pair(alg2).Z, alpha_pair(alg).Z)


def test_product_maps_are_per_algebra(algebras, rng):
    # two algebras on one model share no memoised action or product map:
    # alg2's products must use alg2's multiplication
    alg = algebras["z2"]
    alg2 = _regauged(alg, rng)
    for a in (alg, alg2):
        f, h = induced_hom(a, 2, 2)[0], induced_hom(a, 4, 4)[0]
        assert module_residual(mtimes(f, h)) < 1e-12
        assert module_residual(mtimes(h, f)) < 1e-12
    shared = alg._maps.keys() & alg2._maps.keys()
    assert shared
    for key in shared:
        mine, theirs = alg._maps[key], alg2._maps[key]
        if isinstance(mine, tuple):
            assert all(x is not y for x, y in zip(mine, theirs))
        else:
            assert mine is not theirs
            assert distance(mine, theirs) > 1e-3


def test_product_calculus(algebras, rng):
    alg = algebras["z2"]
    f, g = induced_hom(alg, 2, 2)
    h = induced_hom(alg, 4, 4)[0]
    one = bim_identity(alg, Bimod((), ()))
    assert distance(mtimes(one, f).mor, f.mor) < 1e-12
    assert distance(mtimes(f, one).mor, f.mor) < 1e-12
    assert distance(mtimes(mtimes(f, g), h).mor, mtimes(f, mtimes(g, h)).mor) < 1e-12
    assert module_residual(mtimes(f, h)) < 1e-12
    assert module_residual(f.H) < 1e-12


def test_induced_left_inverse_is_standard(algebras):
    # the inverse implemented by the lifted duality isometry equals the
    # normalized trace on endomorphisms of the induced sectors
    alg = algebras["z2"]
    for lam in [0, 2, 4]:
        for b in induced_hom(alg, lam, lam, +1, +1):
            assert abs(induced_left_inverse_scalar(b) - phi_scalar(b)) < 1e-10


def oracle_bimodule_maps(a, src, tgt):
    """Bimodule maps src -> tgt as the null space of both module constraints.

    Every matrix entry of a map Theta src -> Theta tgt is an unknown.  Each
    unit vector is pushed through the left and the right intertwining
    constraint, and the null space of the stacked images is returned, with
    the solver's relative SVD cutoff; the maps are not orthonormalized.
    """
    model = a.model
    so, to = bim_object(a, src), bim_object(a, tgt)
    shapes = {c: (model.obj_dim(c, to), model.obj_dim(c, so)) for c in range(model.rank)}
    coords = [(c, i, j) for c, (dt, ds) in shapes.items() for i in range(dt) for j in range(ds)]

    def mor(v):
        blocks = {c: np.zeros(shape, dtype=complex) for c, shape in shapes.items()}
        for (c, i, j), val in zip(coords, v):
            blocks[c][i, j] = val
        return Morphism(model, so, to, blocks)

    al_s, ar_s = left_action(a, src), right_action(a, src)
    al_t, ar_t = left_action(a, tgt), right_action(a, tgt)
    cols = []
    for v in np.eye(len(coords)):
        f = mor(v)
        lres = compose(f, al_s) - compose(al_t, lmul(a.object, f))
        rres = compose(f, ar_s) - compose(ar_t, rmul(f, a.object))
        cols.append(np.concatenate([B.ravel() for r in (lres, rres) for B in r.blocks.values()]))
    if not cols:
        return []
    _, s, vh = np.linalg.svd(np.array(cols).T)
    rank = int(np.sum(s > 1e-8 * max(s[0] if len(s) else 0.0, 1.0)))
    return [BimodMap(a, src, tgt, mor(v)) for v in vh[rank:].conj()]


def _assert_hom_spaces_match_oracle(a, sign1, sign2):
    # same dimension, and each basis map inside the oracle's span in trace_ip
    labels = range(a.model.rank)
    for lam, mu in itertools.product(labels, repeat=2):
        src, tgt = Bimod((lam,), (sign1,)), Bimod((mu,), (sign2,))
        basis, oracle = bimodule_hom(a, src, tgt), oracle_bimodule_maps(a, src, tgt)
        assert len(basis) == len(oracle), (lam, mu)
        if not oracle:
            continue
        gram = np.array([[trace_ip(g, h) for h in oracle] for g in oracle])
        for f in basis:
            x = np.linalg.solve(gram, [trace_ip(g, f) for g in oracle])
            rest = f - sum((z * g for z, g in zip(x, oracle)), start=0.0 * f)
            assert np.sqrt(abs(trace_ip(rest, rest))) < 1e-10, (lam, mu)


def test_hom_spaces_match_oracle_on_bundles(models, algebras):
    cases = dict(algebras, **{f"trivial_{n}": trivial_algebra(m) for n, m in models.items()})
    for a in cases.values():
        for sign1, sign2 in [(+1, -1), (+1, +1), (-1, -1)]:
            _assert_hom_spaces_match_oracle(a, sign1, sign2)


def test_hom_spaces_match_oracle_on_d_series():
    for k in (6, 8):  # D5 and D6
        a = solve_haploid_algebra(catalog.su2_level(k), {0: 1, k: 1})
        _assert_hom_spaces_match_oracle(a, +1, -1)


def test_solved_algebras_at_rounding_level(algebras, d5_result, e6_result):
    # the exact Jacobian takes every relation to rounding level, with no threshold
    d6 = solve_haploid_algebra(catalog.su2_level(8), {0: 1, 8: 1}, rng=np.random.default_rng(5))
    for a in [*algebras.values(), d5_result.pair.algebra, e6_result.pair.algebra, d6]:
        rep = verify_algebra(a)
        assert max(rep.residuals.values()) < 1e-14, (a.theta, rep.residuals)


def test_hom_solver_needs_one_letter_source(algebras):
    with pytest.raises(ValueError):
        bimodule_hom(algebras["z2"], Bimod((2, 2), (+1, +1)), Bimod((0,), (+1,)))


def test_solver_rejects_impossible_multiplicities(models):
    # 1 (+) s in the Ising model admits no associative structure
    with pytest.raises(ValueError):
        solve_haploid_algebra(models["ising"], {0: 1, 1: 1}, attempts=3)


def test_trivial_algebra_alpha_is_the_sector(models):
    fib = models["fibonacci"]
    a = trivial_algebra(fib)
    for lam in range(2):
        for sign in (+1, -1):
            # underlying object is the sector padded by the identity letter
            assert bim_object(a, Bimod((lam,), (sign,))).words == ((0, lam),)
            assert alpha_dimension(a, lam, sign) == pytest.approx(fib.qdim[lam], abs=1e-12)
