import itertools

import numpy as np
import pytest

from qsystems import catalog
from qsystems.ctps import alpha_pair, trivial_pair
from qsystems.induction import trivial_algebra
from qsystems.modular import (
    check_modular_invariant,
    compute_st,
    enumerate_commutant,
    modular_residuals,
)
from qsystems.morphisms import UnsupportedOperationError

from oracles import verlinde_fusion

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def test_trivial_modular_data(models):
    p = compute_st(models["trivial"])
    assert np.allclose(p.S, [[1.0]])
    assert np.allclose(p.T, [1.0])


def test_fibonacci_s_matrix(models):
    p = compute_st(models["fibonacci"])
    assert p.S[0, 0] == pytest.approx(1.0 / np.sqrt(1 + PHI**2), abs=1e-10)
    assert p.S[0, 0] == pytest.approx(0.5257311121, abs=1e-9)
    assert p.modular


def test_structure_identities(models):
    for name in ["fibonacci", "ising", "semion", "z4", "su2k4"]:
        m = models[name]
        p = compute_st(m)
        res = modular_residuals(p, m.dual)
        assert max(res.values()) < 1e-9, (name, res)


def test_verlinde_consistency(models):
    for name in ["fibonacci", "ising", "semion", "z4", "su2k4"]:
        m = models[name]
        assert np.array_equal(verlinde_fusion(compute_st(m)), m.N), name


def test_invariant_identity_and_d4(models):
    su = models["su2k4"]
    p = compute_st(su)
    res = check_modular_invariant(np.eye(5, dtype=int), p)
    assert max(res.values()) < 1e-12
    d4 = np.zeros((5, 5), dtype=int)
    d4[0, 0] = d4[0, 4] = d4[4, 0] = d4[4, 4] = 1
    d4[2, 2] = 2
    res = check_modular_invariant(d4, p)
    assert max(res.values()) < 1e-9


def test_random_matrix_not_invariant(models, rng):
    su = models["su2k4"]
    p = compute_st(su)
    hits = 0
    for _ in range(5):
        Z = rng.integers(0, 2, size=(5, 5))
        Z[0, 0] = 1
        res = check_modular_invariant(Z, p)
        if max(res.values()) > 0.1:
            hits += 1
    assert hits >= 4  # generically O(1) commutators


def test_enumerations(models):
    fib = compute_st(models["fibonacci"])
    found = enumerate_commutant(fib, 3)
    assert len(found) == 1 and np.array_equal(found[0], np.eye(2, dtype=int))
    isg = compute_st(models["ising"])
    found = enumerate_commutant(isg, 3)
    assert len(found) == 1 and np.array_equal(found[0], np.eye(3, dtype=int))
    z4 = compute_st(models["z4"])
    found = enumerate_commutant(z4, 3)
    conj = np.zeros((4, 4), dtype=int)
    for a in range(4):
        conj[a, (-a) % 4] = 1
    assert len(found) == 2
    assert any(np.array_equal(Z, conj) for Z in found)
    assert any(np.array_equal(Z, np.eye(4, dtype=int)) for Z in found)
    su = compute_st(models["su2k4"])
    found = enumerate_commutant(su, 3)
    d4 = np.zeros((5, 5), dtype=int)
    d4[0, 0] = d4[0, 4] = d4[4, 0] = d4[4, 4] = 1
    d4[2, 2] = 2
    assert any(np.array_equal(Z, d4) for Z in found)


def _enumerate_commutant_loop(pair, bound, tol=1e-9):
    """Reference: build every candidate in itertools.product order and test it."""
    n = pair.rank
    support = [(l, m) for l in range(n) for m in range(n)
               if abs(pair.T[l] - pair.T[m]) < 1e-9 and (l, m) != (0, 0)]
    S = pair.S
    out = []
    for combo in itertools.product(range(bound + 1), repeat=len(support)):
        Z = np.zeros((n, n))
        Z[0, 0] = 1.0
        for (l, m), v in zip(support, combo):
            Z[l, m] = v
        if np.max(np.abs(Z @ S - S @ Z)) < tol:
            out.append(Z.astype(int))
    return out


def test_enumeration_matches_candidate_loop(models):
    # trivial has no free entries; su2k4 at bound 3 spans more than one chunk
    cases = [(compute_st(models[name]), 3)
             for name in ["trivial", "fibonacci", "ising", "z4", "su2k4"]]
    cases.append((compute_st(catalog.su2_level(8)), 1))
    # semion has one invariant; su2k6 has two, A7 and D5
    cases += [(compute_st(models["semion"]), 1), (compute_st(catalog.su2_level(6)), 1)]
    # a negative bound leaves no values for the free entries
    cases += [(compute_st(models[name]), -1) for name in ["trivial", "su2k4"]]
    for p, bound in cases:
        found = enumerate_commutant(p, bound)
        ref = _enumerate_commutant_loop(p, bound)
        assert len(found) == len(ref)
        for Z, W in zip(found, ref):
            assert Z.dtype == W.dtype and np.issubdtype(Z.dtype, np.integer)
            assert np.array_equal(Z, W)


def test_enumeration_limit_raises_before_search(models):
    p = compute_st(models["su2k4"])
    # su2k4 leaves one free direction: bound 3 has 4 pivot settings
    with pytest.raises(ValueError, match="exceeds limit"):
        enumerate_commutant(p, 3, limit=3)
    # a limit equal to the 2 settings of bound 1 still runs
    assert len(enumerate_commutant(p, 1, limit=2)) == 1


def _chi(n, *labels):
    v = np.zeros(n, dtype=int)
    v[list(labels)] = 1
    return v


def _squares(n, *groups):
    """sum over groups g of |sum_(j in g) chi_j|^2, as a coupling matrix."""
    return sum(np.outer(_chi(n, *g), _chi(n, *g)) for g in groups)


def test_enumeration_finds_su2_exceptionals():
    # the complete ADE lists (Cappelli-Itzykson-Zuber) at the first type I
    # and type II exceptionals
    d7 = np.zeros((11, 11), dtype=int)
    for j in range(11):
        d7[j, j if j % 2 == 0 else 10 - j] = 1
    e6 = _squares(11, (0, 6), (3, 7), (4, 10))
    d10 = _squares(17, *[(j, 16 - j) for j in (0, 2, 4, 6)]) + 2 * _squares(17, (8,))
    e7 = (_squares(17, (0, 16), (4, 12), (6, 10), (8,))
          + np.outer(_chi(17, 2, 14), _chi(17, 8)) + np.outer(_chi(17, 8), _chi(17, 2, 14)))
    for k, bound, expected in [(10, 1, [np.eye(11, dtype=int), d7, e6]),
                               (16, 2, [np.eye(17, dtype=int), d10, e7])]:
        found = enumerate_commutant(compute_st(catalog.su2_level(k)), bound)
        assert sorted(Z.tolist() for Z in found) == sorted(Z.tolist() for Z in expected), k


def test_coupling_matrices_appear_in_commutant(models, algebras):
    cases = [("fibonacci", trivial_algebra(models["fibonacci"])),
             ("su2k4", algebras["z2"]),
             ("z4", algebras["z4fermion"]),
             ("fibonacci", algebras["fibtau"]),
             ("ising", algebras["isingpsi"])]
    for name, alg in cases:
        Z = alpha_pair(alg).Z
        p = compute_st(models[name])
        found = enumerate_commutant(p, int(Z.max()) + 1)
        assert any(np.array_equal(Z, W) for W in found), name


def test_degenerate_braiding_flagged(models):
    p = compute_st(models["z2boson"])
    assert not p.modular
    with pytest.raises(UnsupportedOperationError):
        check_modular_invariant(np.eye(2, dtype=int), p)
    with pytest.raises(UnsupportedOperationError):
        enumerate_commutant(p, 2)
