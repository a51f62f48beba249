from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsystems.morphisms import (
    CategoryModel,
    Morphism,
    adjoint,
    categorical_trace,
    compose,
    deligne_product,
    distance,
    identity_morphism,
    lmul,
    mirror,
    op_norm,
    rmul,
)
from qsystems.qsystem import (
    QReport,
    QSystem,
    ThetaSpec,
    assemble_qsystem,
    check_commutativity,
    lr_qsystem,
    lr_zeta,
    validate_qsystem,
)
from qsystems.ctps import alpha_pair, assemble_w1, build_theta, ctps_braiding, zeta_tensor
from qsystems.induction import to_qsystem

from oracles import (
    braiding_morphism,
    commutativity_oracle,
    qsystem_of,
    random_qsystem,
    unconjugated,
    unit_morphism,
)

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def test_trivial_system_residuals_zero(lr_systems):
    q, D = lr_systems["trivial"]
    rep = validate_qsystem(q, tol=1e-12)
    assert rep.ok
    assert rep.worst() == 0.0
    assert q.theta.d_theta == 1.0


@pytest.mark.parametrize("name,dth", [("fibonacci", 1 + PHI**2), ("ising", 4.0)])
def test_diagonal_systems_valid(lr_systems, name, dth):
    q, D = lr_systems[name]
    rep = validate_qsystem(q, tol=1e-9)
    assert rep.ok, rep.residuals
    assert q.theta.d_theta == pytest.approx(dth, abs=1e-10)
    # unit multiplicity of the identity in theta
    assert D.obj_dim(0, q.theta.object) == 1


def test_d_theta_equals_trace(lr_systems):
    for name in ["fibonacci", "ising", "semion"]:
        q, D = lr_systems[name]
        tr = categorical_trace(identity_morphism(D, q.theta.object))
        assert tr.real == pytest.approx(q.theta.d_theta, abs=1e-9)


def test_unit_law_constant_is_dim_sqrt(lr_systems):
    # scaling w1 breaks the unit law with its sqrt(d(theta)) constant
    q, D = lr_systems["fibonacci"]
    bad = QSystem(theta=q.theta, zeta=1.01 * q.zeta, w=q.w)
    rep = validate_qsystem(bad, tol=1e-9)
    assert rep.residuals["unit_left"] > 1e-3
    assert rep.residuals["isometry"] > 1e-3


def test_zeta_perturbation_rejected(lr_systems):
    q, _ = lr_systems["fibonacci"]
    theta = q.theta
    base = lr_zeta(theta)
    for key in list(base):
        z = dict(base)
        z[key] = z[key] + 1e-3
        q2 = assemble_qsystem(theta, z)
        rep = validate_qsystem(q2, tol=1e-8)
        assert not rep.ok, key


def test_unitary_perturbation_of_w1_rejected(lr_systems, rng):
    q, D = lr_systems["ising"]
    th2 = q.w1.target
    blocks = {}
    for c in range(D.rank):
        n = D.obj_dim(c, th2)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
        w, v = np.linalg.eigh(h)
        blocks[c] = v @ np.diag(np.exp(1e-3j * w)) @ v.conj().T
    u = Morphism(D, th2, th2, blocks)
    q2 = qsystem_of(q.theta, unit_morphism(q.theta, q.w), compose(u, q.w1))
    rep = validate_qsystem(q2, tol=1e-8)
    assert rep.residuals["isometry"] < 1e-10  # unitary: still an isometry
    assert not rep.ok  # but the algebra relations fail


def test_commutativity_diagonal_systems(lr_systems):
    for name in ["fibonacci", "ising", "semion", "z4"]:
        q, D = lr_systems[name]
        eps = ctps_braiding(D, q.theta)
        assert check_commutativity(q, eps) < 1e-9, name


def test_commutativity_wrong_convention_breaks(lr_systems):
    # braiding the opposite factor without conjugating is off by O(1)
    for name in ["fibonacci", "ising"]:
        q, D = lr_systems[name]
        eps_bad = ctps_braiding(unconjugated(D), q.theta)
        assert check_commutativity(q, eps_bad) > 0.1, name


def test_theta_spec_indexing(models):
    m = models["su2k4"]
    spec = ThetaSpec(m, {0: 1, 2: 2, 4: 1})
    assert spec.summands == [(0, 1), (2, 1), (2, 2), (4, 1)]
    assert spec.index(2, 2) == 2
    assert spec.d_theta == pytest.approx(1 + 2 * m.qdim[2] + 1)


def test_multiplicity_two_diagonal_system(models):
    # Rep(A4) has N(3,3,3) = 2: the coefficient tensor carries genuine
    # multiplicity-index pairs and the construction must still close
    m = models["rep_a4"]
    assert m.N[3, 3, 3] == 2
    q, D = lr_qsystem(m)
    rep = validate_qsystem(q, tol=1e-9)
    assert rep.ok, rep.residuals
    assert q.theta.d_theta == pytest.approx(12.0, abs=1e-10)
    eps = ctps_braiding(D, q.theta)
    assert check_commutativity(q, eps) < 1e-9


# -- the coefficient validator against the theta^3 oracle ---------------------


def relation_defects(q: QSystem, names=None) -> dict:
    """lhs - rhs of each relation, as a morphism, in the order of `names`.

    Without `names`, every relation in the order :func:`validate_qsystem`
    reports them.  This is the oracle of :func:`validate_qsystem`: the
    operator norm of each defect is that relation's residual.  It builds
    theta^3.
    """
    model = q.model
    th = q.theta.object
    c = q.theta.d_theta ** -0.5
    id_th = identity_morphism(model, th)
    w = unit_morphism(q.theta, q.w)
    w_star = adjoint(w)
    w1_star = adjoint(q.w1)
    defects = {
        "unit_left": lambda: compose(rmul(w_star, th), q.w1) - c * id_th,
        "unit_right": lambda: compose(lmul(th, w_star), q.w1) - c * id_th,
        "coassociativity": lambda: (compose(rmul(q.w1, th), q.w1)
                                    - compose(lmul(th, q.w1), q.w1)),
        "frobenius": lambda: (compose(q.w1, w1_star)
                              - compose(lmul(th, w1_star), rmul(q.w1, th))),
        "isometry": lambda: compose(w1_star, q.w1) - id_th,
        "w_isometry": lambda: (compose(w_star, w)
                               - identity_morphism(model, w.source)),
    }
    return {name: defects[name]() for name in names or defects}


def assert_matches_oracle(q, tol=1e-8):
    """validate_qsystem equals the operator norms of relation_defects.

    Same keys in the same order, each residual within 1e-13 absolute plus
    1e-13 relative, and the same pass flag.
    """
    rep = validate_qsystem(q, tol=tol)
    want = {name: op_norm(d) for name, d in relation_defects(q).items()}
    assert list(rep.residuals) == list(want)
    for name, v in want.items():
        assert abs(rep.residuals[name] - v) <= 1e-13 + 1e-13 * v, (name, rep.residuals[name], v)
    assert rep.ok == QReport(want, rep.irreducible, tol).ok
    return rep


def ctps_qsystem(pair):
    """The Q-system build_ctps validates, without its other checks."""
    model = pair.model
    D = deligne_product(model, mirror(model))
    theta = build_theta(D, pair.Z)
    return assemble_w1(D, theta, zeta_tensor(pair, theta.d_theta), pair)


def broken(q):
    """1.01 w1, and w scaled by 2 and by a phase: each breaks a relation."""
    return [QSystem(theta=q.theta, zeta=1.01 * q.zeta, w=q.w),
            QSystem(theta=q.theta, zeta=q.zeta, w=2.0 * q.w),
            QSystem(theta=q.theta, zeta=q.zeta, w=np.exp(0.7j) * q.w)]


def test_validator_matches_oracle_on_bundled_algebras(algebras):
    for a in algebras.values():
        q = to_qsystem(a)
        assert assert_matches_oracle(q).ok
        for bad in broken(q):
            assert not assert_matches_oracle(bad).ok


def test_validator_matches_oracle_on_diagonal_systems(models):
    # rep_a4 carries the multiplicity-two vertex of Hom(3, 3 x 3)
    for name, m in models.items():
        q, _ = lr_qsystem(m)
        assert assert_matches_oracle(q, tol=1e-9).ok, name
    for bad in broken(lr_qsystem(models["fibonacci"])[0]):
        assert not assert_matches_oracle(bad).ok


def test_product_model_holds_no_f_blocks(models):
    # validation reads the product's F in batches from the factors' tables and
    # keeps none of it: su2k4 in Kronecker order, rep_a4 through F's index maps
    for name in ["su2k4", "rep_a4"]:
        q, D = lr_qsystem(models[name])
        assert validate_qsystem(q, tol=1e-9).ok, name
        blocks = [k for memo in vars(D).values() if isinstance(memo, dict) for k, v in memo.items()
                  if isinstance(k, tuple) and len(k) == 4 and isinstance(v, np.ndarray)]
        assert D._f is None and not blocks, name


def test_validator_matches_oracle_on_ctps(algebras):
    # D4 has Z[2, 2] = 2, so theta repeats the label (2, 2)
    for name, signs in [("z2", (+1, -1)), ("z2", (+1, +1)), ("z2", (-1, -1)),
                        ("fibtau", (+1, -1)), ("isingpsi", (+1, -1)), ("z4fermion", (+1, -1))]:
        q = ctps_qsystem(alpha_pair(algebras[name], *signs))
        assert assert_matches_oracle(q).ok, (name, signs)
        if signs == (+1, -1) and name == "z2":
            for bad in broken(q):
                assert not assert_matches_oracle(bad).ok


def test_validator_matches_oracle_on_d5(d5_result):
    assert assert_matches_oracle(to_qsystem(d5_result.pair.algebra)).ok
    assert assert_matches_oracle(d5_result.qsystem).ok


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["su2k4", "rep_a4"]),
       labels=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_validator_matches_oracle_on_random_coefficients(models, name, labels, seed):
    # random complex coefficients on every slot and a random w, over a theta
    # that may repeat labels or lack the identity
    model = models[name]
    theta = ThetaSpec(model, Counter(lam % model.rank for lam in labels))
    assert_matches_oracle(random_qsystem(theta, np.random.default_rng(seed)))


# -- commutativity on the coefficients against the theta^2 braiding -----------


def assert_commutativity_matches_oracle(q):
    """check_commutativity equals the morphism oracle, with the model's
    braiding and with the unconjugated control's.

    Each residual is within 1e-13 absolute plus 1e-13 relative of the
    operator norm of eps(theta, theta) w1 - w1, with eps built by braid on
    theta^2.  Returns the two residuals.
    """
    out = []
    for D in (q.model, unconjugated(q.model)):
        got = check_commutativity(q, ctps_braiding(D, q.theta))
        want = commutativity_oracle(q, braiding_morphism(D, q.theta))
        assert abs(got - want) <= 1e-13 + 1e-13 * want, (D.name, got, want)
        out.append(got)
    return out


def test_commutativity_matches_oracle_on_ctps(algebras, d4_result, d5_result, e6_result):
    qs = [ctps_qsystem(alpha_pair(algebras[name])) for name in ("fibtau", "isingpsi", "z4fermion")]
    for q in qs + [d4_result.qsystem, d5_result.qsystem, e6_result.qsystem]:
        good, bad = assert_commutativity_matches_oracle(q)
        assert good < 1e-9 and bad > 0.1


def test_commutativity_matches_oracle_on_diagonal_systems(models):
    # rep_a4 carries the multiplicity-two vertex of Hom(3, 3 x 3)
    for name, m in models.items():
        good, _ = assert_commutativity_matches_oracle(lr_qsystem(m)[0])
        assert good < 1e-9, name


def random_r(model: CategoryModel, rng) -> CategoryModel:
    """``model`` with random complex R blocks of the same shapes.

    Neither check_commutativity nor its oracle needs R to satisfy the
    hexagon, and the bundled R blocks are all symmetric (the one of size
    two, rep_a4's R(3, 3; 3), is diagonal), so only random R data shows a
    transposed block.
    """
    def r(a, b, c):
        rows, cols = int(model.N[b, a, c]), int(model.N[a, b, c])
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    return CategoryModel(model.fusion, model.F, r, name=model.name + "_random_r")


@pytest.fixture(scope="module")
def products(models):
    factors = {"su2k4": models["su2k4"], "rep_a4": models["rep_a4"],
               "rep_a4, random R": random_r(models["rep_a4"], np.random.default_rng(7))}
    return {name: deligne_product(m, mirror(m)) for name, m in factors.items()}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["su2k4", "rep_a4", "rep_a4, random R"]),
       labels=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
@example(name="rep_a4, random R", labels=[(0, 0), (3, 0)], seed=0)  # R(3, 3; 3) is 2 x 2
def test_commutativity_matches_oracle_on_random_coefficients(products, name, labels, seed):
    # random complex coefficients on every slot, so that no defect is about 0
    # (a real Q-system's would hide a transposed R); theta may repeat labels
    D = products[name]
    n = D.factors[0].rank
    theta = ThetaSpec(D, Counter(D.pack(a % n, b % n) for a, b in labels))
    assert_commutativity_matches_oracle(random_qsystem(theta, np.random.default_rng(seed)))
