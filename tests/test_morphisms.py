import collections
import itertools

import numpy as np
import pytest

from qsystems.morphisms import (
    CategoryModel,
    Morphism,
    SumObject,
    adjoint,
    as_obj,
    basis_vector,
    braid,
    categorical_trace,
    compose,
    conjugate_residual,
    deligne_product,
    distance,
    f_unitarity_residual,
    hexagon_residual,
    hom_basis,
    identity_morphism,
    lmul,
    mirror,
    mono_product,
    op_norm,
    pentagon_residual,
    r_unitarity_residual,
    rmul,
    sum_product,
    twist,
    unit_obj,
    validate_category,
    word_obj,
    UnsupportedOperationError,
    _f_blocks,
    _tree_counts,
    _tree_pos,
    _tree_rows,
    _trees,
)
from qsystems import catalog
from qsystems.fusion import FusionData, StructureError
from qsystems.io import load_algebra

from oracles import (conjugate_oracle, conjugate_pair, dim_word, f_left, f_right, f_right_pos,
                     gauged, left_inverse, random_morphism, right_inverse, stacked_hexagon_oracle,
                     stacked_pentagon_oracle, stacked_unitarity_oracle, su2_f_oracle,
                     twist_oracle, word_conjugate_pair, word_dual)

PHI = (1.0 + np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# coherence of the bundled data


def test_pentagon_all_bundles(models):
    for name, m in models.items():
        assert pentagon_residual(m) < 1e-9, name
        assert f_unitarity_residual(m) < 1e-9, name


def test_hexagon_all_braided_bundles(models):
    for name, m in models.items():
        if m.braided:
            assert hexagon_residual(m) < 1e-9, name
            assert r_unitarity_residual(m) < 1e-9, name


def test_conjugate_equations_all_bundles(models):
    for name, m in models.items():
        assert conjugate_residual(m) < 1e-9, name


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_su2_levels_coherent(k):
    rep = validate_category(catalog.su2_level(k))
    assert rep.ok, rep.residuals()


@pytest.mark.parametrize("k", range(1, 17))
def test_su2_f_table_matches_entry_loop(k):
    # the one-pass table against the Racah series summed entry by entry, on
    # every block the provider fills (F is the identity where a, b or c is 0)
    m, want = catalog.su2_level(k), su2_f_oracle(k)
    for quad in m._f_table().keys.tolist():
        if 0 in quad[:3]:
            continue
        got, ref = m.F(*quad), want(*quad)
        assert got.shape == ref.shape and got.dtype == ref.dtype, (k, quad)
        assert got.tobytes() == ref.tobytes(), (k, quad)


# ---------------------------------------------------------------------------
# compose / adjoint


def test_compose_identity(models, rng):
    m = models["fibonacci"]
    f = random_morphism(m, word_obj((1, 1)), word_obj((1, 0, 1)), rng)
    assert distance(compose(identity_morphism(m, f.target), f), f) == 0
    assert distance(compose(f, identity_morphism(m, f.source)), f) == 0


def test_tree_basis_orthonormal(models):
    m = models["su2k4"]
    for nu in range(m.rank):
        basis = hom_basis(m, nu, word_obj((2, 2)))
        for i, t in enumerate(basis):
            for j, s in enumerate(basis):
                prod = compose(adjoint(t), s)
                want = float(i == j) * identity_morphism(m, word_obj((nu,)))
                assert distance(prod, want) < 1e-12


def test_compose_matches_dense_blockwise_product(models, rng):
    m = models["ising"]
    A, B, C = word_obj((1, 2, 1)), word_obj((1, 1)), word_obj((2, 1, 1))
    g = random_morphism(m, A, B, rng)
    f = random_morphism(m, B, C, rng)
    got = compose(f, g)
    for c in range(m.rank):
        assert np.allclose(got.blocks[c], f.blocks[c] @ g.blocks[c])


def test_adjoint_involution_and_antimultiplicativity(models, rng):
    m = models["fibonacci"]
    A, B, C = word_obj((1,)), word_obj((1, 1)), word_obj((1, 1, 1))
    g = random_morphism(m, A, B, rng)
    f = random_morphism(m, B, C, rng)
    assert distance(adjoint(adjoint(f)), f) == 0
    assert distance(adjoint(compose(f, g)), compose(adjoint(g), adjoint(f))) < 1e-12


def test_isometry_adjoint(models):
    m = models["fibonacci"]
    t = hom_basis(m, 0, word_obj((1, 1)))[0]
    assert distance(compose(adjoint(t), t), identity_morphism(m, word_obj((0,)))) < 1e-12


# ---------------------------------------------------------------------------
# monoidal product


def test_mono_product_identities(models):
    m = models["ising"]
    X, Y = word_obj((1, 2)), word_obj((1,))
    idX, idY = identity_morphism(m, X), identity_morphism(m, Y)
    assert distance(mono_product(idX, idY),
                    identity_morphism(m, word_obj((1, 2, 1)))) < 1e-12


def test_interchange_law(models, rng):
    m = models["fibonacci"]
    X, Xp = word_obj((1, 0, 1)), word_obj((1, 1))
    Y, Yp = word_obj((1, 1)), word_obj((0, 1, 1))
    f = random_morphism(m, X, Xp, rng)
    g = random_morphism(m, Y, Yp, rng)
    fg = mono_product(f, g)
    assert distance(fg, compose(rmul(f, Yp), lmul(X, g))) < 1e-10
    assert distance(fg, compose(lmul(Xp, g), rmul(f, Y))) < 1e-10


def test_nested_left_insertion(models, rng):
    # 1_a x (1_b x f) computed by nested recouplings equals 1_(a,b) x f;
    # this exercises the pentagon through the engine
    m = models["su2k4"]
    f = random_morphism(m, word_obj((2,)), word_obj((2, 2)), rng)
    nested = lmul(word_obj((1,)), lmul(word_obj((2,)), f))
    flat = lmul(word_obj((1, 2)), f)
    assert distance(nested, flat) < 1e-10


def test_one_times_duality_lands_in_predicted_space(models):
    m = models["fibonacci"]
    pair = conjugate_pair(m, 1)
    f = lmul(word_obj((1,)), pair.r)  # 1_tau x R: Hom(tau, tau tau~ tau)
    assert f.source.words == ((1,),)
    assert f.target.words == ((1, 1, 1),)
    for c in range(m.rank):
        assert f.blocks[c].shape == (dim_word(m, c, (1, 1, 1)), dim_word(m, c, (1,)))


def test_hom_basis_dimensions(models):
    fib, isg = models["fibonacci"], models["ising"]
    assert len(hom_basis(fib, 1, word_obj((1, 1)))) == 1
    assert len(hom_basis(isg, 2, word_obj((1, 1)))) == 1
    assert len(hom_basis(isg, 1, word_obj((1, 1)))) == 0
    triv = hom_basis(fib, 0, unit_obj())
    assert len(triv) == 1
    assert distance(triv[0], identity_morphism(fib, unit_obj())) == 0


# ---------------------------------------------------------------------------
# duality and inverses


def test_conjugate_identity_sector(models):
    m = models["fibonacci"]
    pair = conjugate_pair(m, 0)
    val = compose(adjoint(pair.r), pair.r)
    assert distance(val, identity_morphism(m, unit_obj())) < 1e-12


@pytest.mark.parametrize("name,lam,dinv", [("fibonacci", 1, 1 / PHI),
                                           ("ising", 1, 1 / np.sqrt(2.0))])
def test_conjugate_equations_values(models, name, lam, dinv):
    m = models[name]
    pair = conjugate_pair(m, lam)
    wl = word_obj((lam,))
    lhs = compose(lmul(wl, adjoint(pair.r)), rmul(pair.rbar, wl))
    assert distance(lhs, dinv * identity_morphism(m, wl)) < 1e-9


def _conjugate_cases(models):
    yield from models.items()
    for name, m in models.items():
        yield f"mirror({name})", mirror(m)
        yield f"rep_a4(x){name}", deligne_product(models["rep_a4"], m)
        yield f"{name}(x)rep_a4", deligne_product(m, models["rep_a4"])


def test_conjugate_residual_matches_oracle(models):
    for name, m in _conjugate_cases(models):
        assert conjugate_residual(m) == conjugate_oracle(m), name


def _phased(model, quad, phase):
    """``model`` with F(quad) multiplied by ``phase``."""
    def f(*labels):
        return phase * model.F(*labels) if labels == quad else model.F(*labels)

    return CategoryModel(model.fusion, f, name=model.name + "_phased")


@pytest.mark.parametrize("name,lam", [("z4", 1), ("rep_a4", 1), ("fibonacci", 1), ("su2k4", 3)])
def test_conjugate_residual_sees_a_phase_on_the_second_equation(models, name, lam):
    # a phase on F(lamd, lam, lamd; lamd) breaks the second conjugate equation
    # by |phase - 1| / d (twice the phase if lam is self-dual, since that block
    # also holds the datum that fixes r); the morphism form takes a 1 x 1
    # operator norm by SVD, so it may differ from the absolute value in the
    # last digit
    m = models[name]
    lamd = int(m.dual[lam])
    bad = _phased(m, (lamd, lam, lamd, lamd), np.exp(0.3j))
    got = conjugate_residual(bad)
    assert got > 1e-3 and got >= abs(np.exp(0.3j) - 1) / m.qdim[lam] - 1e-15
    assert got == pytest.approx(conjugate_oracle(bad), rel=1e-15, abs=0)


@pytest.mark.parametrize("name,vertex", [("z4", (1, 3, 0)), ("z4", (3, 1, 0)), ("rep_a4", (1, 2, 0))])
def test_conjugate_equations_hold_in_a_complex_gauge(models, name, vertex):
    # a phase on the vertex of Hom(0, lam conj(lam)) of a sector that is not
    # self-dual makes F(lam, conj(lam), lam; lam) complex at the trees through
    # the unit; the conjugate equations still hold, in both forms
    m = gauged(models[name], {vertex: np.array([[np.exp(0.7j)]])})
    lam = vertex[0]
    assert abs(m.F(lam, int(m.dual[lam]), lam, lam)[0, 0].imag) > 0.1
    rep = validate_category(m)
    assert rep.ok and max(rep.residuals().values()) < 1e-13, rep.residuals()
    assert conjugate_residual(m) == conjugate_oracle(m)


def test_degenerate_duality_datum_is_refused(models):
    # F(1, 1, 1; 1) a swap, so its entry between the trees through the unit is 0
    m = models["fibonacci"]
    swap = CategoryModel(m.fusion, lambda *labels: np.array([[0.0, 1.0], [1.0, 0.0]])
                         if labels == (1, 1, 1, 1) else m.F(*labels))
    for check in (conjugate_residual, lambda x: conjugate_pair(x, 1)):
        with pytest.raises(StructureError, match="degenerate duality datum"):
            check(swap)
    # a dual map that is not the conjugation: 1 x 1 = 2 in Z4 has no unit
    z4 = models["z4"]
    fusion = FusionData(z4.fusion.names, [0, 1, 2, 3], z4.N, z4.qdim)
    with pytest.raises(StructureError, match="no unit"):
        conjugate_residual(CategoryModel(fusion, z4.F))


def test_word_conjugates(models):
    m = models["ising"]
    for word in [(1,), (1, 2), (2, 1, 1)]:
        pair = word_conjugate_pair(m, word)
        w = word_obj(word)
        wd = word_obj(word_dual(m, word))
        dinv = 1.0 / m.word_dim(word)
        lhs1 = compose(lmul(w, adjoint(pair.r)), rmul(pair.rbar, w))
        lhs2 = compose(lmul(wd, adjoint(pair.rbar)), rmul(pair.r, wd))
        assert distance(lhs1, dinv * identity_morphism(m, w)) < 1e-9
        assert distance(lhs2, dinv * identity_morphism(m, wd)) < 1e-9


def test_left_inverse_defining_property(models, rng):
    m = models["fibonacci"]
    Y = random_morphism(m, word_obj((1,)), word_obj((1, 1)), rng)
    assert distance(left_inverse(m, (1,), lmul(word_obj((1,)), Y)), Y) < 1e-10
    assert distance(right_inverse(m, (1,), rmul(Y, word_obj((1,)))), Y) < 1e-10


def test_trace_property(models, rng):
    m = models["ising"]
    rho, tau = (1, 1), (2, 0, 1, 1)
    S = random_morphism(m, word_obj(rho), word_obj(tau), rng)
    T = random_morphism(m, word_obj(rho), word_obj(tau), rng)
    lhs = m.word_dim(rho) * left_inverse(m, rho, compose(adjoint(S), T)).blocks[0][0, 0]
    rhs = m.word_dim(tau) * left_inverse(m, tau, compose(T, adjoint(S))).blocks[0][0, 0]
    assert abs(lhs - rhs) < 1e-9


def test_left_inverse_on_orthonormal_vertices(models):
    # Phi_nu(T_i* T_j) = delta_ij: the normalized inverse, no dimension factor
    m = models["su2k4"]
    for nu in range(m.rank):
        basis = hom_basis(m, nu, word_obj((2, 2)))
        for i, t in enumerate(basis):
            for j, s in enumerate(basis):
                val = left_inverse(m, (nu,), compose(adjoint(t), s))
                assert abs(val.blocks[0][0, 0] - float(i == j)) < 1e-9


def test_left_inverse_multiplicativity(models, rng):
    m = models["fibonacci"]
    XY = (1, 1)
    f = random_morphism(m, word_obj(XY + (1,)), word_obj(XY + (0, 1)), rng)
    whole = left_inverse(m, XY, f)
    nested = left_inverse(m, (1,), left_inverse(m, (1,), f))
    assert distance(whole, nested) < 1e-10


# ---------------------------------------------------------------------------
# braiding


def test_braiding_with_identity_is_trivial(models):
    m = models["fibonacci"]
    eps = braid(m, word_obj((0,)), word_obj((1,)))
    # blocks are identity permutations on the one-dimensional spaces
    for c in range(m.rank):
        B = eps.blocks[c]
        if B.size:
            assert np.allclose(B, np.eye(B.shape[0]))


def test_braiding_unitary_and_natural(models, rng):
    m = models["su2k4"]
    lam, lamp, mu = word_obj((2,)), word_obj((2, 2)), word_obj((1,))
    f = random_morphism(m, lam, lamp, rng)
    lhs = compose(braid(m, lamp, mu), rmul(f, mu))
    rhs = compose(lmul(mu, f), braid(m, lam, mu))
    assert distance(lhs, rhs) < 1e-10
    eps = braid(m, lamp, mu)
    assert distance(compose(adjoint(eps), eps),
                    identity_morphism(m, eps.source)) < 1e-10


def test_braiding_absent_raises(models):
    fus = models["fibonacci"].fusion
    unbraided = CategoryModel(fus, models["fibonacci"].F, None)
    with pytest.raises(UnsupportedOperationError):
        braid(unbraided, word_obj((1,)), word_obj((1,)))


# ---------------------------------------------------------------------------
# trace


def test_trace_values(models, rng):
    m = models["fibonacci"]
    assert categorical_trace(identity_morphism(m, word_obj((1,)))).real == pytest.approx(PHI)
    f = random_morphism(m, word_obj((1, 1)), word_obj((1, 1)), rng)
    g = random_morphism(m, word_obj((1, 1)), word_obj((1, 1)), rng)
    assert categorical_trace(compose(f, g)) == pytest.approx(categorical_trace(compose(g, f)))


def test_trace_of_diagonal_double_object(lr_systems):
    q, D = lr_systems["fibonacci"]
    val = categorical_trace(identity_morphism(D, q.theta.object))
    assert val.real == pytest.approx(3.6180339887, abs=1e-9)


def test_twists(models):
    assert twist(models["fibonacci"], 1) == pytest.approx(np.exp(4j * np.pi / 5.0))
    assert twist(models["ising"], 1) == pytest.approx(np.exp(1j * np.pi / 8.0))
    z8 = np.exp(1j * np.pi / 4.0)
    for a in range(4):
        assert twist(models["z4"], a) == pytest.approx(z8 ** (a * a))


def test_twist_matches_braid_trace_oracle(models):
    # twist reads sum_c d_c tr R(lam, lam; c) / d_lam from the R table; the
    # oracle traces the braiding morphism, and the two agree bit for bit
    cases = {name: m for name, m in models.items() if m.braided}
    cases.update(su2k8=catalog.su2_level(8), su2k10=catalog.su2_level(10))
    for name, m in cases.items():
        for lam in range(m.rank):
            got, want = twist(m, lam), twist_oracle(m, lam)
            assert type(got) is type(want) and repr(got) == repr(want), (name, lam)
    with pytest.raises(UnsupportedOperationError):
        twist(CategoryModel(models["fibonacci"].fusion, models["fibonacci"].F), 1)


# ---------------------------------------------------------------------------
# derived models


def test_mirror_conjugates_structure(models):
    m = models["fibonacci"]
    mb = mirror(m)
    assert pentagon_residual(mb) < 1e-12
    assert hexagon_residual(mb) < 1e-12
    assert twist(mb, 1) == pytest.approx(np.conj(twist(m, 1)))


def test_deligne_product_coherent(models):
    m = models["fibonacci"]
    D = deligne_product(m, mirror(m))
    assert D.rank == 4
    assert pentagon_residual(D) < 1e-12
    assert hexagon_residual(D) < 1e-12
    assert conjugate_residual(D) < 1e-12
    assert np.allclose(sorted(D.qdim), sorted([1.0, PHI, PHI, PHI * PHI]))


def test_mono_product_associative(models, rng):
    m = models["ising"]
    f = random_morphism(m, word_obj((1,)), word_obj((1, 2)), rng)
    g = random_morphism(m, word_obj((2,)), word_obj((1,)), rng)
    h = random_morphism(m, word_obj((1, 1)), word_obj((2,)), rng)
    lhs = mono_product(mono_product(f, g), h)
    rhs = mono_product(f, mono_product(g, h))
    assert distance(lhs, rhs) < 1e-10


# ---------------------------------------------------------------------------
# monoidal products against the entry-at-a-time definition


def _oracle_sub_blocks(f, ks, kt):
    model = f.model
    out = {}
    for c in range(model.rank):
        so = model.sector_offsets(f.source)[c]
        to = model.sector_offsets(f.target)[c]
        out[c] = f.blocks[c][to[kt]:to[kt + 1], so[ks]:so[ks + 1]]
    return out


def oracle_rmul(f, right):
    """f x 1_right, scattered one matrix entry at a time through the path lists."""
    model = f.model
    right = as_obj(right)
    src = sum_product(f.source, right)
    tgt = sum_product(f.target, right)
    nb = len(right)
    blocks = {c: np.zeros((model.obj_dim(c, tgt), model.obj_dim(c, src)), dtype=complex)
              for c in range(model.rank)}
    for ks, ws in enumerate(f.source.words):
        for kt, wt in enumerate(f.target.words):
            fsub = _oracle_sub_blocks(f, ks, kt)
            for kb, wb in enumerate(right.words):
                for c in range(model.rank):
                    roff = model.sector_offsets(tgt)[c][kt * nb + kb]
                    coff = model.sector_offsets(src)[c][ks * nb + kb]
                    row_pos = {p: i for i, p in enumerate(model.paths(c, wt + wb))}
                    col_pos = {p: i for i, p in enumerate(model.paths(c, ws + wb))}
                    for m in range(model.rank):
                        sub = fsub[m]
                        for j, py in enumerate(model.paths(m, wt)):
                            for i, px in enumerate(model.paths(m, ws)):
                                for t in model.tails(m, wb, c):
                                    blocks[c][roff + row_pos[py + t],
                                              coff + col_pos[px + t]] += sub[j, i]
    return Morphism(model, src, tgt, blocks)


def _oracle_detached_index(model, a, word, c):
    """Column labels (b, i, g) of lam_insert(a, word)[c]: (1_a x t^word_{b,i}) T^{ab->c}_g."""
    return [(b, i, g) for b in range(model.rank)
            for i in range(len(model.paths(b, word))) for g in range(model.N[a, b, c])]


def _oracle_letter_block(model, m, fsub, ws, wt, c):
    lam_s = model.lam_insert(m, ws)[c]
    lam_t = model.lam_insert(m, wt)[c]
    cols_s = _oracle_detached_index(model, m, ws, c)
    cols_t = _oracle_detached_index(model, m, wt, c)
    D = np.zeros((len(cols_t), len(cols_s)), dtype=complex)
    for jj, (b, j, g) in enumerate(cols_t):
        for ii, (b2, i, g2) in enumerate(cols_s):
            if b2 == b and g2 == g:
                D[jj, ii] = fsub[b][j, i]
    return lam_t @ D @ lam_s.conj().T


def oracle_lmul(left, f):
    """1_left x f, scattered one matrix entry at a time through the path lists."""
    model = f.model
    left = as_obj(left)
    src = sum_product(left, f.source)
    tgt = sum_product(left, f.target)
    ns, nt = len(f.source), len(f.target)
    blocks = {c: np.zeros((model.obj_dim(c, tgt), model.obj_dim(c, src)), dtype=complex)
              for c in range(model.rank)}
    for ks, ws in enumerate(f.source.words):
        for kt, wt in enumerate(f.target.words):
            fsub = _oracle_sub_blocks(f, ks, kt)
            for ka, wa in enumerate(left.words):
                for c in range(model.rank):
                    roff = model.sector_offsets(tgt)[c][ka * nt + kt]
                    coff = model.sector_offsets(src)[c][ka * ns + ks]
                    row_pos = {p: i for i, p in enumerate(model.paths(c, wa + wt))}
                    col_pos = {p: i for i, p in enumerate(model.paths(c, wa + ws))}
                    for m in range(model.rank):
                        B = _oracle_letter_block(model, m, fsub, ws, wt, c)
                        ts = model.tails(m, ws, c)
                        tt = model.tails(m, wt, c)
                        for px in model.paths(m, wa):
                            for j, tj in enumerate(tt):
                                for i, ti in enumerate(ts):
                                    blocks[c][roff + row_pos[px + tj],
                                              coff + col_pos[px + ti]] += B[j, i]
    return Morphism(model, src, tgt, blocks)


def _sum_obj(*words):
    return SumObject(tuple(tuple(w) for w in words))


def _assert_products_match_oracle(m, left, source, target, right, rng):
    f = random_morphism(m, source, target, rng)
    got, want = lmul(left, f), oracle_lmul(left, f)
    assert got.source.words == want.source.words and got.target.words == want.target.words
    assert distance(got, want) < 1e-12
    got, want = rmul(f, right), oracle_rmul(f, right)
    assert got.source.words == want.source.words and got.target.words == want.target.words
    assert distance(got, want) < 1e-12


def test_products_match_oracle_on_algebra_sums(models, data_dir, rng):
    m = models["su2k4"]
    th = load_algebra(data_dir / "z2.alg", m).object
    th2 = sum_product(th, th)
    # the paths of (2, 2, 2) end at 2, 0, 2, 4, 2 in path order: not sorted by end label
    left = _sum_obj((2, 2), (1, 3), (4,), (2, 2, 2))
    _assert_products_match_oracle(m, left, th, th2, th, rng)
    _assert_products_match_oracle(m, th, th2, th, left, rng)
    _assert_products_match_oracle(m, left, _sum_obj((2, 2, 2), (1,)), _sum_obj((1, 3, 2)), th, rng)
    _assert_products_match_oracle(m, left, _sum_obj((2,), (1, 1)), _sum_obj((2, 2), (0,)),
                                  _sum_obj((2, 2), (3,)), rng)


def test_products_match_oracle_with_multiplicity(models, rng):
    m = models["rep_a4"]  # Hom(3, 3 x 3) is two-dimensional
    left = _sum_obj((3, 3), (1, 3), (2,))
    _assert_products_match_oracle(m, left, _sum_obj((3,), (3, 1)), _sum_obj((3, 3), (2,)),
                                  _sum_obj((3, 3), (3,)), rng)
    _assert_products_match_oracle(m, _sum_obj((3,)), _sum_obj((3, 3)), _sum_obj((3,), (0,)),
                                  _sum_obj((3, 3)), rng)


def test_products_match_oracle_on_deligne_product(models, rng):
    D = deligne_product(models["fibonacci"], mirror(models["ising"]))
    a, b, c = D.pack(1, 1), D.pack(1, 2), D.pack(0, 1)
    left = _sum_obj((a, c), (b,), (a, b))
    _assert_products_match_oracle(D, left, _sum_obj((a,), (c, b)), _sum_obj((a, a), (b,)),
                                  _sum_obj((c,), (a, c)), rng)


def test_lam_insert_is_the_recoupling(models):
    # the lmul oracle itself calls lam_insert, so it is checked here against F:
    # on two letters it is F(a, x, y, c) (rows (sig, f1, f2) are the tails of
    # (x, y), columns (b, e, g) its detached basis); on longer words, unitary
    cases = dict(models, fib_fib=deligne_product(models["fibonacci"], mirror(models["fibonacci"])))
    for name, m in cases.items():
        labels = range(m.rank)
        for a, x, y, c in itertools.product(labels, repeat=4):
            got, want = m.lam_insert(a, (x, y))[c], m.F(a, x, y, c)
            assert got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-14), \
                (name, a, x, y, c)
        for word in itertools.chain(itertools.product(labels, repeat=3),
                                    itertools.product(labels, repeat=4)):
            for a in labels:
                for c, U in m.lam_insert(a, word).items():
                    assert U.shape[0] == U.shape[1], (name, a, word, c)
                    assert np.allclose(U.conj().T @ U, np.eye(U.shape[1]), rtol=0, atol=1e-13), \
                        (name, a, word, c)


def test_path_order_composes_over_prefixes(models):
    # paths(c, u + v) runs over the paths of u in lexicographic order, each
    # followed by the tails from its end label through v; the engine relies on it
    for name, m in models.items():
        labels = range(m.rank)
        words = [()] + [(x,) for x in labels] + [(x, y) for x in labels for y in labels]
        for u in words + [w + (x,) for w in words[m.rank + 1:] for x in labels]:
            prefix = sorted((p, b) for b in labels for p in m.paths(b, u))
            assert [b for _, b in prefix] == m.path_ends(u).tolist(), (name, u)
            for v in words:
                counts = m.tail_counts(v)
                for c in labels:
                    want = [p + t for p, b in prefix for t in m.tails(b, v, c)]
                    assert list(m.paths(c, u + v)) == want, (name, u, v, c)
                    for b in labels:
                        assert counts[b, c] == len(m.tails(b, v, c)), (name, v, b, c)


# ---------------------------------------------------------------------------
# coherence checks against their morphism-level definitions


def oracle_pentagon_residual(model):
    """Both recoupling routes of Hom(e, abcd), one label quintuple and one entry at a time."""
    n = model.rank
    N = model.N
    worst = 0.0
    for a, b, c, d, e in itertools.product(range(n), repeat=5):
        left = [(f, al, g, be, ga)
                for f in range(n) for al in range(N[a, b, f])
                for g in range(n) for be in range(N[f, c, g])
                for ga in range(N[g, d, e])]
        if not left:
            continue
        right = [(h, de, k, ep, ze)
                 for h in range(n) for de in range(N[c, d, h])
                 for k in range(n) for ep in range(N[b, h, k])
                 for ze in range(N[a, k, e])]
        lpos = {t: i for i, t in enumerate(left)}
        PA = np.zeros((len(left), len(right)), dtype=complex)
        PB = np.zeros_like(PA)
        for col, (h, de, k, ep, ze) in enumerate(right):
            # route A: three recouplings
            F1 = model.F(b, c, d, k)
            c1 = f_right_pos(model, b, c, d, k)[h, de, ep]
            for (m, mu, nu), v1 in zip(f_left(model, b, c, d, k), F1[:, c1]):
                if v1 == 0:
                    continue
                F2 = model.F(a, m, d, e)
                c2 = f_right_pos(model, a, m, d, e)[k, nu, ze]
                for (g, rho, sg), v2 in zip(f_left(model, a, m, d, e), F2[:, c2]):
                    if v2 == 0:
                        continue
                    F3 = model.F(a, b, c, g)
                    c3 = f_right_pos(model, a, b, c, g)[m, mu, rho]
                    for (f, al, be), v3 in zip(f_left(model, a, b, c, g), F3[:, c3]):
                        if v3 == 0:
                            continue
                        PA[lpos[(f, al, g, be, sg)], col] += v1 * v2 * v3
            # route B: two recouplings
            F4 = model.F(a, b, h, e)
            c4 = f_right_pos(model, a, b, h, e)[k, ep, ze]
            for (f, al, epp), v4 in zip(f_left(model, a, b, h, e), F4[:, c4]):
                if v4 == 0:
                    continue
                F5 = model.F(f, c, d, e)
                c5 = f_right_pos(model, f, c, d, e)[h, de, epp]
                for (g, be, ga), v5 in zip(f_left(model, f, c, d, e), F5[:, c5]):
                    if v5 == 0:
                        continue
                    PB[lpos[(f, al, g, be, ga)], col] += v4 * v5
        if PA.size:
            worst = max(worst, float(np.max(np.abs(PA - PB))))
    return worst


def oracle_hexagon_residual(model):
    """eps(a, y1 y2)(1_a x T) = (T x 1_a) eps(a, h) and its mirror, built as morphisms."""
    n = model.rank
    worst = 0.0
    for y1, y2 in itertools.product(range(n), repeat=2):
        pair = word_obj((y1, y2))
        for h in range(n):
            for g in range(model.N[y1, y2, h]):
                T = basis_vector(model, h, pair, model.paths(h, (y1, y2)).index(((y1, 0), (h, g))))
                for a in range(n):
                    aw = word_obj((a,))
                    lhs = compose(braid(model, aw, pair), lmul(aw, T))
                    rhs = compose(rmul(T, aw), braid(model, aw, word_obj((h,))))
                    worst = max(worst, distance(lhs, rhs))
                    lhs2 = compose(braid(model, pair, aw), rmul(T, aw))
                    rhs2 = compose(lmul(aw, T), braid(model, word_obj((h,)), aw))
                    worst = max(worst, distance(lhs2, rhs2))
    return worst


def _random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _scrambled(model, rng, f=True, r=True, where=lambda labels: True):
    """Copy of `model` whose F blocks and/or R blocks are multiplied by random unitaries.

    Only the blocks whose labels satisfy `where` change.  Every unitary is
    drawn up front, F in (a, b, c, d) order and then R in (a, b, c) order, so
    both residuals see the same data whatever order they read it in.
    """
    n = model.rank
    Fs, Rs = {}, {}
    for q in itertools.product(range(n), repeat=4):
        M = model.F(*q)
        if M.size and 0 not in q[:3]:
            Fs[q] = M @ _random_unitary(rng, len(M)) if f and where(q) else M
    for q in itertools.product(range(n), repeat=3):
        M = model.R(*q)
        if M.size and 0 not in q[:2]:
            Rs[q] = M @ _random_unitary(rng, len(M)) if r and where(q) else M
    return CategoryModel(model.fusion, lambda *q: Fs[q], lambda *q: Rs[q],
                         name=model.name + "_scrambled")


def _assert_close(got, want, what):
    assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (what, got, want)


def _assert_coherence_matches_oracle(model, name):
    # the oracles read F and R entry by entry, so they read them from a model
    # that holds the blocks once: a Deligne product makes a block on every
    # read, so its F blocks are taken from the table the checks read
    fl = model._f_table()
    held = CategoryModel(model.fusion, lambda *q: fl.view(q), model.R if model.braided else None)
    _assert_close(pentagon_residual(model), oracle_pentagon_residual(held), ("pentagon", name))
    if model.braided:
        _assert_close(hexagon_residual(model), oracle_hexagon_residual(held), ("hexagon", name))


def test_coherence_matches_oracle_on_bundles(models):
    for name, m in models.items():
        _assert_coherence_matches_oracle(m, name)


def test_coherence_matches_oracle_on_derived_models(models):
    _assert_coherence_matches_oracle(mirror(models["fibonacci"]), "mirror(fibonacci)")
    _assert_coherence_matches_oracle(deligne_product(models["ising"], mirror(models["z4"])),
                                     "ising(x)mirror(z4)")
    _assert_coherence_matches_oracle(deligne_product(models["rep_a4"], models["semion"]),
                                     "rep_a4(x)semion")


@pytest.mark.parametrize("name", ["ising", "su2k4", "rep_a4"])
@pytest.mark.parametrize("f,r", [(True, False), (False, True), (True, True)])
def test_coherence_matches_oracle_on_scrambled_data(models, rng, name, f, r):
    m = _scrambled(models[name], rng, f=f, r=r)
    _assert_coherence_matches_oracle(m, m.name)
    # random data is far from coherent: the comparison is not between zeros
    if f:
        assert pentagon_residual(m) > 1e-3
    assert hexagon_residual(m) > 1e-3


def test_coherence_matches_oracle_on_scrambled_multiplicity_blocks(models, rng):
    # only F(3,3,3,3) and the 2x2 R(3,3,3) of rep_a4 change, so every nonzero
    # residual involves the multiplicity-two vertex of Hom(3, 3 x 3)
    m = _scrambled(models["rep_a4"], rng, where=lambda labels: set(labels) == {3})
    _assert_coherence_matches_oracle(m, m.name)
    assert pentagon_residual(m) > 1e-3
    assert hexagon_residual(m) > 1e-3


@pytest.mark.parametrize("k", range(1, 11))
def test_pentagon_matches_stacked_oracle_on_su2_levels(k):
    # the block products add the terms of a cell in the order the joins did
    m = catalog.su2_level(k)
    assert repr(pentagon_residual(m)) == repr(stacked_pentagon_oracle(m))


def test_pentagon_matches_stacked_oracle_on_other_models(models, rng):
    cases = dict(models)
    cases["mirror(fibonacci)"] = mirror(models["fibonacci"])
    cases["ising(x)mirror(z4)"] = deligne_product(models["ising"], mirror(models["z4"]))
    cases["rep_a4(x)semion"] = deligne_product(models["rep_a4"], models["semion"])
    for name in ["ising", "su2k4", "rep_a4"]:
        cases[name + "_scrambled"] = _scrambled(models[name], rng, r=False)
    cases["rep_a4_scrambled_at_3"] = _scrambled(models["rep_a4"], rng, r=False,
                                                where=lambda labels: set(labels) == {3})
    for name, m in cases.items():
        got, want = pentagon_residual(m), stacked_pentagon_oracle(m)
        assert abs(got - want) <= 1e-16, (name, got, want)


def _assert_match_stacked_oracles(m, name):
    # the flat tables give the hexagon and unitarity of the stacked matrices, to the bit
    fl = m._f_table()
    want = {"f_unitarity": stacked_unitarity_oracle([fl.view(q) for q in map(tuple, fl.keys.tolist())])}
    if m.braided:
        want["hexagon"] = stacked_hexagon_oracle(m)
        want["r_unitarity"] = stacked_unitarity_oracle([m.R(*t) for t in np.argwhere(m.N).tolist()])
    got = {"f_unitarity": f_unitarity_residual(m)}
    if m.braided:
        got["hexagon"] = hexagon_residual(m)
        got["r_unitarity"] = r_unitarity_residual(m)
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}, name


@pytest.mark.parametrize("k", range(1, 13))
def test_hexagon_and_unitarity_match_stacked_oracles_on_su2_levels(k):
    _assert_match_stacked_oracles(catalog.su2_level(k), f"su2k{k}")


def test_hexagon_and_unitarity_match_stacked_oracles_on_other_models(models, rng):
    cases = dict(models)
    cases["mirror(fibonacci)"] = mirror(models["fibonacci"])
    cases["ising(x)mirror(z4)"] = deligne_product(models["ising"], mirror(models["z4"]))
    cases["rep_a4(x)semion"] = deligne_product(models["rep_a4"], models["semion"])
    for name in ["ising", "su2k4", "rep_a4"]:
        cases[name + "_scrambled"] = _scrambled(models[name], rng)
    for name, m in cases.items():
        _assert_match_stacked_oracles(m, name)
        # validate_category shares one F table and one R table between the checks
        rep = validate_category(m)
        want = {"f_unitarity": f_unitarity_residual(m)}
        if m.braided:
            want.update(hexagon=hexagon_residual(m), r_unitarity=r_unitarity_residual(m))
        assert {k: repr(rep.residuals()[k]) for k in want} == {k: repr(v) for k, v in want.items()}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_f_entry_fails_the_verdict(bad):
    # an unbraided su(2)_4 with one F entry not finite: the verdict is a
    # failure with non-finite residuals, not ok, not a traceback and no
    # arithmetic on the bad entry
    base = catalog.su2_level(4)

    def f(*labels):
        out = base.F(*labels)
        if labels == (2, 2, 2, 2):
            out = out.copy()
            out[0, 0] = bad
        return out

    m = CategoryModel(base.fusion, f, name="su2k4_non_finite_f")
    rep = validate_category(m)
    assert not rep.ok
    assert not np.isfinite(rep.pentagon) and not np.isfinite(rep.f_unitarity), rep.residuals()
    assert np.isnan(rep.conjugates), rep.residuals()
    # a product reads the verdict from its factors, without building its table
    assert np.isnan(conjugate_residual(deligne_product(catalog.semion(), m)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_r_entry_fails_the_verdict(bad):
    base = catalog.su2_level(4)

    def r(*labels):
        out = base.R(*labels)
        if labels == (1, 1, 2):
            out = out.copy()
            out[0, 0] = bad
        return out

    rep = validate_category(CategoryModel(base.fusion, base.F, r, name="su2k4_non_finite_r"))
    assert not rep.ok
    assert not np.isfinite(rep.hexagon) and not np.isfinite(rep.r_unitarity), rep.residuals()
    assert rep.pentagon < 1e-9 and rep.f_unitarity < 1e-9


@pytest.mark.parametrize("quad,entry", [((1, 1, 2, 0), (0, 0)), ((2, 2, 2, 2), (1, 2))])
def test_pentagon_sees_one_perturbed_entry(quad, entry):
    # one F entry of su2_level(6) moves by 1e-6, in a block with d = 0 or with
    # every label nonzero: the skipped quadruples (a unit among a, b, c) hide
    # no equation that sees it
    base = catalog.su2_level(6)

    def f(*labels):
        out = base.F(*labels)
        if labels == quad:
            out = out.copy()
            out[entry] += 1e-6
        return out

    m = CategoryModel(base.fusion, f, name="su2k6_perturbed")
    got = pentagon_residual(m)
    assert got > 1e-7
    assert got == stacked_pentagon_oracle(m)


def test_vertex_gauge_keeps_multiplicity_blocks_coherent(models, rng):
    # a U(2) on the vertex space of Hom(3, 3 x 3) makes the 2x2 R(3,3,3) of
    # rep_a4 neither real nor symmetric, so a transposed or unconjugated
    # block in the checks shows on data that is coherent
    m = gauged(models["rep_a4"], {(3, 3, 3): _random_unitary(rng, 2)})
    R = m.R(3, 3, 3)
    assert np.abs(R - R.T).max() > 0.1 and np.abs(m.F(3, 3, 3, 3).imag).max() > 0.1
    rep = validate_category(m)
    assert rep.ok and max(rep.residuals().values()) < 1e-13, rep.residuals()


def test_quadruple_with_right_trees_only_is_not_associative():
    # y x = x and y y has no summand: Hom(x, y y x) has the right tree y(yx)
    # but no left tree, and it is the only place where N is not associative
    N = np.zeros((3, 3, 3), dtype=int)
    for x in range(3):
        N[0, x, x] = N[x, 0, x] = 1
    N[2, 1, 1] = 1
    fusion = FusionData(["1", "x", "y"], [0, 1, 2], N, [1.0, 1.0, 1.0])
    m = CategoryModel(fusion, lambda a, b, c, d: np.eye(int(N[a, b] @ N[:, c, d])))
    with pytest.raises(StructureError, match="not associative"):
        validate_category(m)


def test_f_of_the_wrong_shape_is_refused(models):
    m = models["fibonacci"]
    bad = CategoryModel(m.fusion, lambda *labels: np.eye(1))
    with pytest.raises(StructureError, match=r"has shape \(1, 1\), expected \(2, 2\)"):
        bad.F(1, 1, 1, 1)
    with pytest.raises(StructureError, match="has shape"):
        validate_category(bad)


@pytest.mark.parametrize("build", [lambda: catalog.su2_level(4), catalog.rep_a4],
                         ids=["su2k4", "rep_a4"])
def test_each_f_and_r_block_is_requested_once(build):
    # the checks one by one, then all at once, then the engine, all read the
    # one table the model builds from its providers
    base = build()
    f_calls, r_calls = collections.Counter(), collections.Counter()

    def f(*labels):
        f_calls[labels] += 1
        return base.F(*labels)

    def r(*labels):
        r_calls[labels] += 1
        return base.R(*labels)

    m = CategoryModel(base.fusion, f, r, name=base.name + "_counted")
    for check in (pentagon_residual, hexagon_residual, f_unitarity_residual,
                  r_unitarity_residual, conjugate_residual):
        check(m)
    assert validate_category(m).ok
    lmul(word_obj((1,)), identity_morphism(m, word_obj((1, 1))))
    quads = [tuple(q) for q in _tree_counts(m.N)[0].tolist() if 0 not in q[:3]]
    triples = [tuple(t) for t in np.argwhere(m.N).tolist() if 0 not in t[:2]]
    assert f_calls == collections.Counter(quads)
    assert r_calls == collections.Counter(triples)


def test_validate_category_builds_a_product_table_once(models):
    # a product holds no F or R table, so validate_category builds each once
    # for all of its checks, and they read what the checks one by one read
    m = deligne_product(models["ising"], mirror(models["ising"]))
    calls = collections.Counter()

    def counted(name):
        build = getattr(m, name)

        def table():
            calls[name] += 1
            return build()
        return table

    for name in ("_f_table", "_r_table"):
        setattr(m, name, counted(name))
    rep = validate_category(m)
    assert calls == {"_f_table": 1, "_r_table": 1}
    assert rep.ok
    assert rep.residuals() == {
        "pentagon": pentagon_residual(m), "f_unitarity": f_unitarity_residual(m),
        "conjugate_equations": conjugate_residual(m), "hexagon": hexagon_residual(m),
        "r_unitarity": r_unitarity_residual(m)}


def test_braiding_on_noncommutative_fusion_is_refused():
    # the group S3 as a pointed category: associative, but g h != h g
    perms = list(itertools.permutations(range(3)))
    N = np.zeros((6, 6, 6), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            N[i, j, perms.index(tuple(p[x] for x in q))] = 1
    dual = [perms.index(tuple(np.argsort(p))) for p in perms]
    one = lambda *labels: np.eye(1)
    m = CategoryModel(FusionData([str(p) for p in perms], dual, N, np.ones(6)), one, one)
    with pytest.raises(StructureError, match="commutative"):
        validate_category(m)


# ---------------------------------------------------------------------------
# tree lists and product recoupling against their label-by-label definitions


def _f_product_loop(D, a, b, c, d):
    """F of a product model, filled entry by entry from the two factors' F."""
    m1, m2 = D.factors
    n2 = m2.rank
    (a1, a2), (b1, b2), (c1, c2), (d1, d2) = (divmod(x, n2) for x in (a, b, c, d))
    F1, F2 = m1.F(a1, b1, c1, d1), m2.F(a2, b2, c2, d2)
    l1 = {t: i for i, t in enumerate(f_left(m1, a1, b1, c1, d1))}
    l2 = {t: i for i, t in enumerate(f_left(m2, a2, b2, c2, d2))}
    r1, r2 = f_right_pos(m1, a1, b1, c1, d1), f_right_pos(m2, a2, b2, c2, d2)
    left, right = f_left(D, a, b, c, d), f_right(D, a, b, c, d)
    M = np.zeros((len(left), len(right)), dtype=complex)
    for i, (sig, e, f) in enumerate(left):
        s1, s2 = divmod(sig, n2)
        e1, e2 = divmod(e, int(m2.N[a2, b2, s2]))
        f1, f2 = divmod(f, int(m2.N[s2, c2, d2]))
        for j, (tau, g, h) in enumerate(right):
            t1, t2 = divmod(tau, n2)
            g1, g2 = divmod(g, int(m2.N[b2, c2, t2]))
            h1, h2 = divmod(h, int(m2.N[a2, t2, d2]))
            M[i, j] = F1[l1[s1, e1, f1], r1[t1, g1, h1]] * F2[l2[s2, e2, f2], r2[t2, g2, h2]]
    return M


def _tree_lists(quads: np.ndarray, i: np.ndarray, trees) -> list:
    """The trees (s, e, f) that :func:`_trees` gives, as one list per label row."""
    out = [[] for _ in quads]
    for k, t in zip(i.tolist(), zip(*(x.tolist() for x in trees))):
        out[k].append(t)
    return out


def test_tree_lists_match_full_label_loop(models):
    # _trees lists the trees of every quadruple in the order of the label
    # loops, and _tree_pos gives each tree's place in that list
    for name, m in models.items():
        quads = np.array(list(itertools.product(range(m.rank), repeat=4)))
        for rows, loop in zip(_tree_rows(m.N, *quads.T), (f_left, f_right)):
            i, *trees = _trees(*rows)
            assert _tree_lists(quads, i, trees) == [loop(m, *q) for q in quads.tolist()], name
            assert _tree_pos(*rows, i, *trees).tolist() == \
                (np.arange(len(i)) - np.searchsorted(i, i)).tolist(), name


def test_tree_arrays_match_tree_lists(models):
    cases = list(models.values()) + [deligne_product(models["rep_a4"], models["ising"])]
    for m in cases:
        quads, blocks, start, left, right = _f_blocks(m)
        labels = quads.tolist()
        want_left = [t for q in labels for t in f_left(m, *q)]
        want_right = [t for q in labels for t in f_right(m, *q)]
        assert left.dtype == right.dtype == np.int64, m.name
        assert left.tolist() == [list(t) for t in want_left], m.name
        assert right.tolist() == [list(t) for t in want_right], m.name
        assert start.tolist() == np.cumsum([0] + [len(f_left(m, *q)) for q in labels]).tolist()


def test_f_table_slices_are_the_f_blocks(models):
    # every block of the flat table, bitwise, against F; the product with
    # rep_a4 first fills F through its index maps, not in Kronecker order
    cases = dict(models)
    cases.update({f"su2k{k}": catalog.su2_level(k) for k in range(1, 9)})
    cases["mirror(su2k4)"] = mirror(models["su2k4"])
    cases["rep_a4(x)ising"] = deligne_product(models["rep_a4"], models["ising"])
    cases["rep_a4(x)mirror(rep_a4)"] = deligne_product(models["rep_a4"], mirror(models["rep_a4"]))
    for name, m in cases.items():
        quads, fl, start, left, right = _f_blocks(m)
        size = np.diff(start)
        assert fl.size.tolist() == size.tolist(), name
        assert len(fl.table) == int(np.sum(size * size)) + 1 and fl.table[-1] == 0, name
        for q, lo, k in zip(quads.tolist(), fl.off.tolist(), size.tolist()):
            got, want = fl.table[lo:lo + k * k].reshape(k, k), m.F(*q)
            assert got.dtype == want.dtype and got.shape == want.shape, (name, q)
            assert got.tobytes() == want.tobytes(), (name, q)


def test_f_product_matches_entry_loop(models, rng):
    # every product of two bundles, and of a bundle with a mirrored one; per
    # product the 40 largest blocks (where multiplicities sit) and 40 more at
    # random, over labels that are not the identity (where F is the identity).
    # The batched read takes the picks of each block size as one stack: in
    # Kronecker order from the factors' tables, with rep_a4 first through
    # F's index maps
    for m1 in models.values():
        for m2 in models.values():
            for D in (deligne_product(m1, m2), deligne_product(m1, mirror(m2))):
                dims = np.tensordot(D.N, D.N, axes=(2, 0))[1:, 1:, 1:]  # dim Hom(d, abc)
                quads = np.argwhere(dims) + [1, 1, 1, 0]
                order = np.argsort(-dims[dims > 0], kind="stable")
                pick = np.r_[order[:40], rng.choice(len(quads), min(len(quads), 40), replace=False)]
                want = {}
                for quad in quads[pick].tolist():
                    want[tuple(quad)] = _f_product_loop(D, *quad)
                    assert np.abs(D.F(*quad) - want[tuple(quad)]).max() <= 1e-15, \
                        (D.name, quad)
                for n in set(dims[dims > 0][pick].tolist()):
                    batch = quads[pick][dims[dims > 0][pick] == n]
                    got = D.f_stack(batch)
                    assert got.shape == (len(batch), n, n), (D.name, n)
                    for quad, F in zip(batch.tolist(), got):
                        assert np.abs(F - want[tuple(quad)]).max() <= 1e-15, (D.name, quad)
