import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsystems.ctps import (
    alpha_pair,
    assemble_w1,
    build_ctps,
    build_theta,
    check_e3,
    check_normality,
    ctps_braiding,
    trivial_pair,
    zeta_tensor,
)
from qsystems import catalog, induction
from qsystems.induction import Bimod, _mult_map, lift, solve_haploid_algebra, verify_algebra
from qsystems.io import load_algebra
from qsystems.modular import check_modular_invariant, compute_st
from qsystems.morphisms import (adjoint, braid, compose, deligne_product, distance, mirror, mono_product,
                                validate_category, word_obj)
from qsystems.qsystem import check_commutativity, lr_qsystem, validate_qsystem

from oracles import (gauged, pointed, pointed_coupling, rotate_bases, slot_coefficients, split_map,
                     subgroup_algebra, unconjugated, zeta_oracle)

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def test_build_theta_dimensions(models):
    fib = models["fibonacci"]
    D = deligne_product(fib, mirror(fib))
    assert build_theta(D, np.eye(1, dtype=int)).d_theta == 1.0
    th = build_theta(D, np.eye(2, dtype=int))
    assert th.d_theta == pytest.approx(1 + PHI**2, abs=1e-10)
    su = models["su2k4"]
    Dsu = deligne_product(su, mirror(su))
    d4 = np.zeros((5, 5), dtype=int)
    d4[0, 0] = d4[0, 4] = d4[4, 0] = d4[4, 4] = 1
    d4[2, 2] = 2
    assert build_theta(Dsu, d4).d_theta == pytest.approx(12.0, abs=1e-9)


def test_build_theta_requires_unit_multiplicity(models):
    fib = models["fibonacci"]
    D = deligne_product(fib, mirror(fib))
    Z = np.eye(2, dtype=int)
    Z[0, 0] = 2
    with pytest.raises(ValueError):
        build_theta(D, Z)


def test_pair_summands_run_in_theta_order(d4_result, d5_result, e6_result):
    # zeta_tensor keys summands by their position in pair.summands
    for res in (d4_result, d5_result, e6_result):
        D = res.product_model
        assert [(D.pack(s.lam1, s.lam2), s.copy) for s in res.pair.summands] == res.theta.summands
        assert set(res.zeta) <= set(res.theta.slots)


def test_derived_w1_holds_the_stored_zeta(d4_result, d5_result, e6_result):
    # q.w1 is built from q.zeta when first read: its blocks read back to that
    # zeta bitwise, and its nonzero entries are the coefficients of res.zeta
    for res in (d4_result, d5_result, e6_result):
        q, theta = res.qsystem, res.theta
        assert q.zeta.tobytes() == theta.dense(res.zeta).tobytes()
        blocks = q.w1.blocks
        assert theta.dense(slot_coefficients(theta, blocks)).tobytes() == q.zeta.tobytes()
        assert sum(int(np.count_nonzero(B)) for B in blocks.values()) == len(res.zeta)


def test_zeta_values_diagonal_fibonacci(lr_pairs):
    # collapsed formula: sqrt(d(lam) d(mu) / (d(theta) d(nu)))
    pair = lr_pairs["fibonacci"]
    dth = 1 + PHI**2
    zeta = zeta_tensor(pair, dth)
    # summand 0 is 1 x 1-op and summand 1 is tau x tau-op
    tt1 = zeta.get((0, 1, 1, 0), 0.0)
    ttt = zeta.get((1, 1, 1, 0), 0.0)
    assert tt1 == pytest.approx(np.sqrt(PHI**2 / dth), abs=1e-10)       # 0.85065...
    assert abs(tt1) == pytest.approx(0.8506508083, abs=1e-9)
    assert ttt == pytest.approx(np.sqrt(PHI / dth), abs=1e-10)           # 0.66874...
    assert abs(ttt) == pytest.approx(0.6687403050, abs=1e-9)


def test_zeta_identity_row_is_kronecker(lr_pairs, d4_pair):
    # sqrt(d(theta)) zeta^n_(0 m) = delta_(m n), exactly positive real
    for pair, dth in [(lr_pairs["fibonacci"], 1 + PHI**2), (d4_pair, 12.0)]:
        zeta = zeta_tensor(pair, dth)
        # summand 0 is the identity
        for n in range(len(pair.summands)):
            for m in range(len(pair.summands)):
                got = zeta.get((n, 0, m, 0), 0.0)
                want = (1.0 / np.sqrt(dth)) if m == n else 0.0
                assert got == pytest.approx(want, abs=1e-10), (n, m)


def test_zeta_fusion_incompatible_is_zero(lr_pairs):
    pair = lr_pairs["ising"]
    zeta = zeta_tensor(pair, 4.0)
    # (s, s) -> s is forbidden in the Ising rules
    # summand 1 is s x s-op
    assert zeta.get((1, 1, 1, 0), 0.0) == 0.0


def test_generic_pipeline_matches_closed_form(models, lr_pairs):
    # the trivial-extension pipeline reproduces the collapsed construction
    for name in ["fibonacci", "ising"]:
        res = build_ctps(lr_pairs[name], tol=1e-9)
        q_direct, _ = lr_qsystem(models[name])
        assert np.array_equal(res.Z, np.eye(models[name].rank, dtype=int))
        assert distance(res.qsystem.w1, q_direct.w1) < 1e-10
        assert res.ok


def test_d4_ctps_end_to_end(d4_result):
    res = d4_result
    assert res.theta.d_theta == pytest.approx(12.0, abs=1e-8)
    assert res.report.ok
    assert res.report.worst() < 1e-8
    assert res.e3_residual < 1e-8
    assert res.commutativity is not None and res.commutativity < 1e-8
    assert res.dim_identity_residual < 1e-9
    assert not res.normality.n2 and not res.normality.n3


def test_isometry_weight_identity(d4_result):
    # sum_(lam1 lam2) d d Z / d(theta) = 1 exactly as built
    model = d4_result.pair.model
    Z = d4_result.Z
    total = sum(Z[l, m] * model.qdim[l] * model.qdim[m]
                for l in range(5) for m in range(5))
    assert total / d4_result.theta.d_theta == pytest.approx(1.0, abs=1e-12)


def test_e3_controls(models, algebras, d4_pair):
    assert check_e3(trivial_pair(models["fibonacci"])) < 1e-12
    assert check_e3(d4_pair) < 1e-8
    bad = alpha_pair(algebras["z2"], +1, +1)
    assert check_e3(bad) > 0.1


def _check_e3_ordered_pairs(pair, split=None):
    """Reference: every ordered pair of basis maps, products built afresh each time.

    ``split(a, x, y)`` gives the splitting map of the products; without it
    they are formed as mtimes forms them, from the multiplication map alone.
    """
    model, a = pair.model, pair.algebra

    def times(f, g):
        mid = mono_product(f.mor, g.mor)
        mult = _mult_map(a, f.tgt, g.tgt.word)
        if split is None:
            return (1.0 / a.d) * compose(mult, compose(mid, adjoint(_mult_map(a, f.src, g.src.word))))
        return compose(mult, compose(mid, split(a, f.src, g.src)))

    worst = 0.0
    keys = [k for k, b in pair.phi.items() if b]
    for (lam1, lam2) in keys:
        for (mu1, mu2) in keys:
            eps1 = lift(a, braid(model, word_obj((lam1,)), word_obj((mu1,))), pair.sign1)
            eps2 = lift(a, braid(model, word_obj((lam2,)), word_obj((mu2,))), pair.sign2)
            for phi in pair.phi[(lam1, lam2)]:
                for psi in pair.phi[(mu1, mu2)]:
                    lhs = compose(times(psi, phi), eps1.mor)
                    rhs = compose(eps2.mor, times(phi, psi))
                    worst = max(worst, distance(lhs, rhs))
    return worst


def _assert_zeta_matches_oracle(res):
    want = zeta_oracle(res.pair, res.theta.d_theta)
    assert set(res.zeta) == set(want)
    assert max(abs(res.zeta[k] - want[k]) for k in want) <= 1e-13


@pytest.mark.parametrize("name, signs", [
    ("fibtau", (+1, -1)), ("isingpsi", (+1, -1)), ("z4fermion", (+1, -1)),
    ("z2", (+1, +1)), ("z2", (-1, -1)),
], ids=["fibtau", "isingpsi", "z4fermion", "z2(+,+)", "z2(-,-)"])
def test_zeta_matches_per_pair_oracle(algebras, name, signs):
    _assert_zeta_matches_oracle(build_ctps(alpha_pair(algebras[name], *signs), tol=1e-8))


def test_zeta_matches_per_pair_oracle_on_pinned_cases(d4_result, d5_result, e6_result):
    for res in (d4_result, d5_result, e6_result):
        _assert_zeta_matches_oracle(res)


def test_product_table_follows_replaced_bases(algebras):
    # rotate_bases replaces pair.phi entries, so a filled table must rebuild
    # every product whose operands are no longer the pair's bases
    filled, fresh = alpha_pair(algebras["z2"], +1, -1), alpha_pair(algebras["z2"], +1, -1)
    check_e3(filled)
    rotate_bases(filled, np.random.default_rng(7))
    rotate_bases(fresh, np.random.default_rng(7))
    got, want = build_ctps(filled, tol=1e-8), build_ctps(fresh, tol=1e-8)
    assert got.zeta == want.zeta
    assert got.e3_residual == want.e3_residual
    assert got.commutativity == want.commutativity
    assert got.report.residuals == want.report.residuals
    assert (got.ok, got.report.ok, got.normality) == (want.ok, want.report.ok, want.normality)


def test_e3_matches_ordered_pair_loop(algebras, d4_pair):
    pairs = [d4_pair, alpha_pair(algebras["z2"], +1, +1),
             alpha_pair(algebras["fibtau"]), alpha_pair(algebras["isingpsi"])]
    for pair in pairs:
        assert check_e3(pair) == _check_e3_ordered_pairs(pair)


def test_e3_matches_ordered_pairs_with_the_reference_split(algebras, d4_pair):
    pairs = [d4_pair, alpha_pair(algebras["z2"], +1, +1),
             alpha_pair(algebras["fibtau"]), alpha_pair(algebras["isingpsi"])]
    for pair in pairs:
        got = check_e3(pair)
        assert abs(got - _check_e3_ordered_pairs(pair, split_map)) <= 1e-15 * max(1.0, got)


@pytest.mark.parametrize("name", ["z2", "isingpsi"])
def test_split_map_is_the_adjoint_of_the_multiplication_map(algebras, name):
    # mtimes reads the splitting map of (x, y) as mult(x, y)* / d(Theta)
    a = algebras[name]
    labels = range(a.model.rank)
    for signs in [(+1, -1), (+1, +1), (-1, -1)]:
        for l, m in itertools.product(labels, repeat=2):
            x, y = Bimod((l,), signs[:1]), Bimod((m,), signs[1:])
            got = (1.0 / a.d) * adjoint(_mult_map(a, x, y.word))
            assert distance(got, split_map(a, x, y)) <= 1e-15, (signs, l, m)


def test_each_multiplication_map_is_built_once(models, data_dir, monkeypatch):
    # one map per signed first word and plain second word serves mtimes as
    # multiplication and as splitting map, for every pair on the algebra
    built = collections.Counter()
    real = induction._mult_map

    def counted(a, x, word):
        built[x, word] += 1
        return real(a, x, word)

    monkeypatch.setattr(induction, "_mult_map", counted)

    def z2():
        return load_algebra(data_dir / "z2.alg", models["su2k4"])

    fresh = build_ctps(alpha_pair(z2(), +1, +1), tol=1e-8)
    plus_plus = set(built)
    assert set(built.values()) == {1}
    built.clear()
    a = z2()
    build_ctps(alpha_pair(a, +1, -1), tol=1e-8)
    first = set(built)
    built.clear()
    shared = build_ctps(alpha_pair(a, +1, +1), tol=1e-8)
    assert set(built) == plus_plus - first and set(built.values()) <= {1}
    assert first & plus_plus
    assert set(shared.zeta) == set(fresh.zeta)
    assert max(abs(shared.zeta[k] - v) for k, v in fresh.zeta.items()) <= 1e-15
    assert abs(shared.e3_residual - fresh.e3_residual) <= 1e-15 * fresh.e3_residual


def test_prop1_implication(d4_result, lr_pairs, models):
    # whenever chiral locality holds, the braiding fixes w1
    for res in [d4_result, build_ctps(lr_pairs["fibonacci"], tol=1e-9)]:
        if res.e3_residual < 1e-8:
            assert res.commutativity < 1e-7


def test_wrong_opposite_braiding_control(d4_result):
    eps_bad = ctps_braiding(unconjugated(d4_result.product_model), d4_result.theta)
    assert check_commutativity(d4_result.qsystem, eps_bad) > 0.1


def test_plus_plus_pair_still_a_qsystem(algebras):
    # both-over extensions still satisfy the algebra relations; only the
    # locality checks fail
    pair = alpha_pair(algebras["z2"], +1, +1)
    res = build_ctps(pair, tol=1e-8)
    assert res.report.ok
    assert res.e3_residual > 0.1
    assert res.commutativity is None
    assert not res.ok


@pytest.fixture(scope="session")
def bundle_results(algebras):
    """build_ctps on the (+,-) pair of the bundled fibonacci, ising and z4 algebras."""
    return {name: build_ctps(alpha_pair(algebras[name]), tol=1e-8)
            for name in ["fibtau", "isingpsi", "z4fermion"]}


def test_z4_fermion_ctps_normal_permutation(bundle_results):
    res = bundle_results["z4fermion"]
    conj = np.zeros((4, 4), dtype=int)
    for a in range(4):
        conj[a, (-a) % 4] = 1
    assert np.array_equal(res.Z, conj)
    assert res.report.ok
    assert res.normality.n2 and res.normality.n3
    assert res.normality.pi == [0, 3, 2, 1]


def test_normality_predicates(models):
    fib = models["fibonacci"]
    r = check_normality(np.eye(2, dtype=int), fib.fusion, fib.fusion)
    assert r.n2 and r.n3 and r.pi == [0, 1]
    d4 = np.zeros((5, 5), dtype=int)
    d4[0, 0] = d4[0, 4] = d4[4, 0] = d4[4, 4] = 1
    d4[2, 2] = 2
    su = models["su2k4"]
    r = check_normality(d4, su.fusion, su.fusion)
    assert not r.n2 and not r.n3 and r.pi is None
    # a permutation whose bijection maps across different dimensions fails n3
    isg = models["ising"]
    perm = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=int)  # swaps s <-> p
    r = check_normality(perm, isg.fusion, isg.fusion)
    assert r.n2 and not r.n3


def test_n2_equals_n3_on_constructed_doubles(d4_result, lr_pairs, bundle_results):
    results = [d4_result,
               build_ctps(lr_pairs["fibonacci"], tol=1e-9),
               build_ctps(lr_pairs["ising"], tol=1e-9),
               *bundle_results.values()]
    for res in results:
        assert res.normality.n2 == res.normality.n3


def test_gauge_independence(algebras, rng):
    pair = alpha_pair(algebras["z2"], +1, -1)
    rotate_bases(pair, rng)
    res = build_ctps(pair, tol=1e-8)
    assert res.report.ok
    assert res.report.worst() < 1e-10
    assert res.e3_residual < 1e-10
    assert res.commutativity < 1e-10


def test_zeta_perturbation_flips_pass(lr_pairs):
    pair = lr_pairs["fibonacci"]
    res = build_ctps(pair, tol=1e-9)
    assert res.report.ok
    for key in list(res.zeta):
        z2 = dict(res.zeta)
        z2[key] += 1e-3
        q2 = assemble_w1(res.product_model, res.theta, z2, pair)
        assert not validate_qsystem(q2, tol=1e-8).ok, key


def test_nonlocal_algebra_doubles_have_identity_coupling(bundle_results):
    # oracle for Z = 1l: the only commutant matrix with Z00 = 1 at small bound
    for name in ["fibtau", "isingpsi"]:
        res = bundle_results[name]
        assert np.array_equal(res.Z, np.eye(res.Z.shape[0], dtype=int))
        assert res.report.ok


def test_modular_certificates(bundle_results, d4_result, d5_result, e6_result, d6_result, d7_result,
                              d8_result, pointed_results):
    # Z commutes with S and T (Boeckenhauer-Evans-Kawahigashi), and on a
    # modular input d(theta) is the global dimension sum_lam d_lam^2 (the full
    # centre is Lagrangian), which is N on the pointed C(Z_N, p); dim_identity
    # only compares two orders of sum Z d d
    pointed_modular = [res for (n, p, _), (*_, res) in pointed_results.items() if np.gcd(2 * p, n) == 1]
    assert len(pointed_modular) == 4
    for res in [*bundle_results.values(), d4_result, d5_result, e6_result, d6_result, d7_result,
                d8_result, *pointed_modular]:
        model = res.pair.model
        st_pair = compute_st(model)
        assert st_pair.modular, model.name
        assert max(check_modular_invariant(res.Z, st_pair).values()) <= 1e-12, model.name
        assert abs(res.theta.d_theta - float(np.sum(model.qdim ** 2))) <= 1e-12, model.name


@settings(max_examples=4, deadline=None)
@given(case=st.sampled_from([("su2k4", 4), ("z4", 2)]), angle=st.floats(0.2, 2.9))
def test_ctps_holds_in_a_complex_vertex_gauge(models, d4_pair, bundle_results, case, angle):
    # a phase on the vertex of Hom(0, lam lam) that the algebra's product reads
    # makes F complex on the algebra's summands; the algebra {0, lam} is
    # solved again on the gauged model.  Z is gauge invariant, and zeta still
    # matches the per-pair oracle, so a conjugate dropped in zeta's pairing
    # shows here
    name, lam = case
    m = gauged(models[name], {(lam, lam, 0): np.array([[np.exp(1j * angle)]])})
    assert abs(m.F(lam, lam, 1, 1)[0, 0].imag) > 0.1
    res = build_ctps(alpha_pair(solve_haploid_algebra(m, {0: 1, lam: 1})), tol=1e-8)
    want = d4_pair.Z if name == "su2k4" else bundle_results["z4fermion"].Z
    assert np.array_equal(res.Z, want)
    assert res.ok, res.residuals()
    _assert_zeta_matches_oracle(res)


def _d_theta_from_z(res):
    qd = res.pair.model.qdim
    return float(sum(res.Z[lam, mu] * qd[lam] * qd[mu]
                     for lam in range(len(qd)) for mu in range(len(qd))))


def test_d5_ctps_pinned(d5_result):
    # D5 at su2k6: the non-local simple current 0 + 6 gives the permutation
    # invariant that swaps 1 and 5
    pi = [0, 5, 2, 3, 4, 1, 6]
    res = d5_result
    assert np.array_equal(res.Z, np.eye(7, dtype=int)[pi])
    assert res.ok
    assert res.normality.n2 and res.normality.n3 and res.normality.pi == pi
    assert res.theta.d_theta == pytest.approx(_d_theta_from_z(res), abs=1e-9)


def test_d7_ctps_pinned(d7_result):
    # D7 at su2k10: the non-local simple current 0 + 10 gives the permutation
    # invariant that swaps 1 and 9, 3 and 7
    pi = [0, 9, 2, 7, 4, 5, 6, 3, 8, 1, 10]
    res = d7_result
    assert np.array_equal(res.Z, np.eye(11, dtype=int)[pi])
    assert res.ok
    assert res.normality.n2 and res.normality.n3 and res.normality.pi == pi
    assert res.theta.d_theta == pytest.approx(_d_theta_from_z(res), abs=1e-9)


def test_e6_ctps_pinned(e6_result):
    # E6 at su2k10 from the default Newton start: |x0+x6|^2 + |x3+x7|^2 + |x4+x10|^2
    res = e6_result
    Z = np.zeros((11, 11), dtype=int)
    for block in [(0, 6), (3, 7), (4, 10)]:
        Z[np.ix_(block, block)] = 1
    assert np.array_equal(res.Z, Z)
    assert res.ok
    assert not res.normality.n2 and not res.normality.n3
    assert res.theta.d_theta == pytest.approx(_d_theta_from_z(res), abs=1e-9)


def _simple_current_ctps(k):
    """The su2k(k) algebra {0:1, k:1} from the default Newton start, through build_ctps."""
    a = solve_haploid_algebra(catalog.su2_level(k), {0: 1, k: 1})
    return build_ctps(alpha_pair(a, +1, -1), tol=1e-8)


@pytest.fixture(scope="session")
def d6_result():
    return _simple_current_ctps(8)


@pytest.fixture(scope="session")
def d7_result():
    return _simple_current_ctps(10)


@pytest.fixture(scope="session")
def d8_result():
    return _simple_current_ctps(12)


# (N, p, g): C(Z_N, p) with the algebra of H = <g>, and the normality flags
# (n2, n3) of its Z.  Modular where 2p is prime to N, degenerate otherwise
POINTED = {(3, 1, 1): (True, True), (5, 2, 1): (True, True), (5, 1, 5): (True, True),
           (9, 1, 3): (False, False), (4, 1, 2): (False, False), (6, 1, 3): (True, True),
           (6, 1, 2): (True, True), (8, 1, 4): (False, False)}


@pytest.fixture(scope="session")
def pointed_results():
    """build_ctps of every POINTED case, with the validation of its inputs."""
    out = {}
    for n, p, g in POINTED:
        m = pointed(n, p)
        a = subgroup_algebra(m, g)
        out[n, p, g] = (validate_category(m), verify_algebra(a), build_ctps(alpha_pair(a), tol=1e-8))
    return out


@pytest.mark.parametrize("case", list(POINTED))
def test_pointed_ctps_closed_form(pointed_results, case):
    # C(Z_N, p) with the group algebra of a subgroup H: Z[lam, mu] is
    # [mu - lam in H] [lam + mu in H^perp], on modular and degenerate inputs
    cat, alg, res = pointed_results[case]
    assert cat.ok, cat.residuals()
    assert alg.ok, alg.residuals
    assert res.ok, res.residuals()
    assert np.array_equal(res.Z, pointed_coupling(*case))
    n2, n3 = POINTED[case]
    assert (res.normality.n2, res.normality.n3) == (n2, n3)
    if n3:
        assert np.array_equal(res.Z, np.eye(len(res.Z), dtype=int)[res.normality.pi])


def _d_series(k):
    """Z of D_{k/2+2}: |x_j + x_(k-j)|^2 over even j < k/2, and 2 |x_(k/2)|^2."""
    Z = np.zeros((k + 1, k + 1), dtype=int)
    for j in range(0, k // 2, 2):
        Z[np.ix_((j, k - j), (j, k - j))] = 1
    Z[k // 2, k // 2] = 2
    return Z


@pytest.mark.parametrize("name,k", [("d6_result", 8), ("d8_result", 12)])
def test_d_series_ctps_pinned(request, name, k):
    # D6 at su2k8 and D8 at su2k12: the simple current 0 + k is local, so the
    # fixed point k/2 splits and Z is the block-diagonal D invariant
    res = request.getfixturevalue(name)
    assert np.array_equal(res.Z, _d_series(k))
    assert res.ok
    assert res.theta.d_theta == pytest.approx(_d_theta_from_z(res), abs=1e-9)


def test_e6_ctps_residuals_at_rounding_level(e6_result):
    # the E6 algebra is exact, so its Q-system and chiral locality are too
    assert e6_result.report.worst() < 1e-13, e6_result.report.residuals
    assert e6_result.e3_residual < 1e-13
