import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from qsystems import catalog
from qsystems.ctps import alpha_pair, build_ctps, trivial_pair
from qsystems.induction import solve_haploid_algebra
from qsystems.io import load_algebra, load_category
from qsystems.qsystem import lr_qsystem

DATA = ROOT / "data"

CATEGORY_FILES = ["trivial", "fibonacci", "ising", "su2k4", "z2boson", "semion", "z4", "rep_a4"]
BRAIDED_MODULAR = ["fibonacci", "ising", "su2k4", "semion", "z4"]


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def models():
    """All bundled categories, loaded from the shipped files."""
    return {name: load_category(DATA / f"{name}.cat") for name in CATEGORY_FILES}


@pytest.fixture(scope="session")
def algebras(models):
    return {
        "z2": load_algebra(DATA / "z2.alg", models["su2k4"]),
        "fibtau": load_algebra(DATA / "fibtau.alg", models["fibonacci"]),
        "isingpsi": load_algebra(DATA / "isingpsi.alg", models["ising"]),
        "z4fermion": load_algebra(DATA / "z4fermion.alg", models["z4"]),
    }


@pytest.fixture(scope="session")
def lr_systems(models):
    """Diagonal Q-systems (with their product models) for the braided bundles."""
    out = {}
    for name in ["fibonacci", "ising", "semion", "z4", "trivial"]:
        q, D = lr_qsystem(models[name])
        out[name] = (q, D)
    return out


@pytest.fixture(scope="session")
def d4_pair(algebras):
    return alpha_pair(algebras["z2"], +1, -1)


@pytest.fixture(scope="session")
def d4_result(d4_pair):
    return build_ctps(d4_pair, tol=1e-8)


@pytest.fixture(scope="session")
def d5_result():
    """D5: the su2k6 algebra {0:1, 6:1} from the default Newton start, through build_ctps."""
    a = solve_haploid_algebra(catalog.su2_level(6), {0: 1, 6: 1})
    return build_ctps(alpha_pair(a, +1, -1), tol=1e-8)


@pytest.fixture(scope="session")
def e6_result():
    """E6: the su2k10 algebra {0:1, 6:1} from the default Newton start, through build_ctps."""
    a = solve_haploid_algebra(catalog.su2_level(10), {0: 1, 6: 1})
    return build_ctps(alpha_pair(a, +1, -1), tol=1e-8)


@pytest.fixture(scope="session")
def lr_pairs(models):
    """Trivial extension pairs (generic pipeline route) for small categories."""
    return {name: trivial_pair(models[name]) for name in ["fibonacci", "ising"]}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240808)
