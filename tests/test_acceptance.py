"""Acceptance suite: one test per criterion, printing a verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
All tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from qsystems.ctps import (
    alpha_pair,
    assemble_w1,
    build_ctps,
    check_e3,
    check_normality,
    ctps_braiding,
    trivial_pair,
)
from qsystems.induction import trivial_algebra
from qsystems.io import load_category
from qsystems.modular import check_modular_invariant, compute_st, enumerate_commutant
from qsystems.morphisms import validate_category
from qsystems.qsystem import check_commutativity, lr_qsystem, validate_qsystem

from oracles import alpha_dimension, unconjugated

D4 = np.zeros((5, 5), dtype=int)
D4[0, 0] = D4[0, 4] = D4[4, 0] = D4[4, 4] = 1
D4[2, 2] = 2

ALL_BUNDLES = ["trivial", "fibonacci", "ising", "su2k4", "z2boson", "semion", "z4", "rep_a4"]


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_category_integrity(data_dir):
    worst = 0.0
    slowest = 0.0
    for name in ALL_BUNDLES:
        t0 = time.time()
        model = load_category(data_dir / f"{name}.cat")
        rep = validate_category(model, tol=1e-9)
        dt = time.time() - t0
        slowest = max(slowest, dt)
        assert rep.fusion_ok, name
        worst = max(worst, max(rep.residuals().values()))
        assert dt < 5.0, (name, dt)
    verdict(1, worst < 1e-9,
            f"fusion axioms exact, pentagon/hexagon worst residual {worst:.2e}, "
            f"slowest category {slowest:.2f}s (< 5s)")


def test_criterion_2_diagonal_construction(data_dir):
    t0 = time.time()
    results = {}
    for name, want in [("fibonacci", 3.6180339887), ("ising", 4.0)]:
        model = load_category(data_dir / f"{name}.cat")
        q, D = lr_qsystem(model)
        rep = validate_qsystem(q, tol=1e-9)
        results[name] = (rep, q.theta.d_theta, want)
    dt = time.time() - t0
    ok = dt < 30.0
    worst = 0.0
    for name, (rep, dth, want) in results.items():
        worst = max(worst, rep.worst())
        ok = ok and rep.ok and abs(dth - want) < 1e-8
    verdict(2, ok,
            f"unit law at d^-1/2, coassociativity, Frobenius, isometry all "
            f"< 1e-9 (worst {worst:.2e}); d(theta) = "
            f"{results['fibonacci'][1]:.10f} / {results['ising'][1]:.10f}; {dt:.1f}s (< 30s)")


def test_criterion_3_braiding_fixes_w1(data_dir, d4_result, algebras):
    worst = 0.0
    for name in ["fibonacci", "ising"]:
        model = load_category(data_dir / f"{name}.cat")
        q, D = lr_qsystem(model)
        eps = ctps_braiding(D, q.theta)
        worst = max(worst, check_commutativity(q, eps))
    worst = max(worst, d4_result.commutativity)
    bad_e3 = check_e3(alpha_pair(algebras["z2"], +1, +1))
    ok = worst < 1e-8 and bad_e3 > 0.1
    verdict(3, ok,
            f"eps(theta,theta) w1 = w1 residual {worst:.2e} (< 1e-8) on the "
            f"diagonal systems and the D4 double; same-sign control E3 residual "
            f"{bad_e3:.2f} (> 0.1)")


def test_criterion_4_induced_dimensions(models, algebras):
    su = models["su2k4"]
    worst = 0.0
    for lam in range(su.rank):
        for sign in (+1, -1):
            worst = max(worst, abs(alpha_dimension(algebras["z2"], lam, sign) - su.qdim[lam]))
    verdict(4, worst < 1e-9,
            f"induced bimodule dimensions match sector dimensions, worst {worst:.2e}")


def test_criterion_5_coupling_matrix(models, algebras, d4_pair):
    fib = models["fibonacci"]
    z_triv = alpha_pair(trivial_algebra(fib)).Z
    exact_id = np.array_equal(z_triv, np.eye(2, dtype=int))
    z = d4_pair.Z
    exact_d4 = np.array_equal(z, D4)
    su = models["su2k4"]
    pair = compute_st(su)
    in_enum = any(np.array_equal(z, W) for W in enumerate_commutant(pair, 3))
    comm = check_modular_invariant(z, pair)
    ok = exact_id and exact_d4 and in_enum and max(comm.values()) < 1e-9
    verdict(5, ok,
            f"Z(id) = identity exactly, Z(0+4) = D4 exactly, found by the "
            f"bound-3 commutant enumeration, [Z,S]/[Z,T] = "
            f"{comm['ZS_SZ']:.2e}/{comm['ZT_TZ']:.2e} (< 1e-9)")


def test_criterion_6_theorem_end_to_end(d4_result, models):
    res = d4_result
    su = models["su2k4"]
    total = sum(res.Z[l, m] * su.qdim[l] * su.qdim[m]
                for l in range(5) for m in range(5))
    dim_exact = abs(total - res.theta.d_theta) < 1e-9
    ok = (res.report.ok and res.report.worst() < 1e-8
          and abs(res.theta.d_theta - 12.0) < 1e-8 and dim_exact)
    verdict(6, ok,
            f"D4 double passes all Q-system relations at 1e-8 "
            f"(worst {res.report.worst():.2e}), d(theta) = {res.theta.d_theta:.10f}, "
            f"sum Z d d - d(theta) = {abs(total - res.theta.d_theta):.2e}")


def test_criterion_7_normality(data_dir, d4_result, lr_pairs, algebras, models):
    constructed = [d4_result,
                   build_ctps(lr_pairs["fibonacci"], tol=1e-9),
                   build_ctps(lr_pairs["ising"], tol=1e-9),
                   build_ctps(alpha_pair(algebras["z4fermion"]), tol=1e-8),
                   build_ctps(alpha_pair(algebras["fibtau"]), tol=1e-8)]
    agree = all(r.normality.n2 == r.normality.n3 for r in constructed)
    lr_normal = all(r.normality.n2 and r.normality.pi is not None
                    for r in constructed[1:3])
    d4_abnormal = (not d4_result.normality.n2) and (not d4_result.normality.n3)
    # exhaustive agreement over all enumerated invariants of fib and ising
    exhaustive = True
    for name in ["fibonacci", "ising"]:
        model = models[name]
        for Z in enumerate_commutant(compute_st(model), 3):
            r = check_normality(Z, model.fusion, model.fusion)
            exhaustive = exhaustive and (r.n2 == r.n3)
    ok = agree and lr_normal and d4_abnormal and exhaustive
    verdict(7, ok,
            "n2 = n3 on every constructed double; diagonal systems normal with "
            "a fusion-preserving bijection; D4 double not normal (coupling to "
            "the trivial sector); agreement verified over all enumerated invariants")


def test_criterion_8_soundness_controls(lr_pairs, d4_result):
    pair = lr_pairs["fibonacci"]
    res = build_ctps(pair, tol=1e-9)
    flips = 0
    keys = list(zip(*np.nonzero(res.zeta)))
    for key in keys:
        z2 = res.zeta.copy()
        z2[key] += 1e-3
        q2 = assemble_w1(res.product_model, res.theta, z2, pair)
        if not validate_qsystem(q2, tol=1e-8).ok:
            flips += 1
    eps_bad = ctps_braiding(unconjugated(d4_result.product_model), d4_result.theta)
    swap_resid = check_commutativity(d4_result.qsystem, eps_bad)
    ok = flips == len(keys) and swap_resid > 0.1
    verdict(8, ok,
            f"every single-coefficient 1e-3 perturbation flips the pass flag "
            f"({flips}/{len(keys)}); unconjugated opposite braiding breaks the "
            f"fixed-point identity with residual {swap_resid:.2f} (> 0.1)")
