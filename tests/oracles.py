"""Reference forms the tests compare the package against.

These are the direct, morphism-level forms of identities the package
computes another way (standard inverses, module constraints, the braiding
of theta^2), the conversions between those forms and the coefficients that
QSystem and AlgebraObject hold, plus helpers that only tests need.  Nothing
in the package imports this module.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from qsystems import catalog
from qsystems.induction import (
    AlgebraObject,
    algebra_from_coefficients,
    Bimod,
    BimodMap,
    bim_compose,
    bim_object,
    left_action,
    lift,
    mtimes,
    right_action,
    _eps_signed,
)
from qsystems.morphisms import (
    CategoryModel,
    Morphism,
    ObjectMismatchError,
    SumObject,
    adjoint,
    as_obj,
    braid,
    categorical_trace,
    compose,
    deligne_product,
    distance,
    hom_basis,
    identity_morphism,
    lmul,
    rmul,
    unit_obj,
    word_obj,
    _HEXAGON_ENTRIES,
    _duality_coefficient,
    _f_blocks,
    _pairs,
    _run_starts,
)
from qsystems.fusion import FusionData
from qsystems.modular import ModularPair
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


# -- fusion-tree lists, label by label -----------------------------------------

# per model: (side, a, b, c, d) -> the tree list, or the position of each tree
_TREE_LISTS = weakref.WeakKeyDictionary()


def _memo(model: CategoryModel, key: tuple, make):
    memo = _TREE_LISTS.setdefault(model, {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


def f_left(model: CategoryModel, a, b, c, d) -> list:
    """Left trees [(s, e, f)] of Hom(d, abc), e < N[a, b, s], f < N[s, c, d]."""
    N = model.N
    return _memo(model, ("left", a, b, c, d), lambda: [
        (s, e, f) for s in range(model.rank) for e in range(N[a, b, s]) for f in range(N[s, c, d])])


def f_right(model: CategoryModel, a, b, c, d) -> list:
    """Right trees [(t, g, h)] of Hom(d, abc), g < N[b, c, t], h < N[a, t, d]."""
    N = model.N
    return _memo(model, ("right", a, b, c, d), lambda: [
        (t, g, h) for t in range(model.rank) for g in range(N[b, c, t]) for h in range(N[a, t, d])])


def f_right_pos(model: CategoryModel, a, b, c, d) -> dict:
    """Position of each right tree (t, g, h) in :func:`f_right`."""
    return _memo(model, ("right_pos", a, b, c, d),
                 lambda: {t: i for i, t in enumerate(f_right(model, a, b, c, d))})


# -- F blocks as a list of matrices ---------------------------------------------


def _f_block_list(model: CategoryModel):
    """(quads, blocks, start, left, right) as ``_f_blocks`` lays them out, but with
    ``blocks`` the list of the F blocks, block q for the labels ``quads[q]``."""
    quads, fl, start, left, right = _f_blocks(model)
    return quads, [fl.view(q) for q in map(tuple, quads.tolist())], start, left, right


# -- the pentagon as joins on a sorted table of F entries ----------------------

# right trees per batch of stacked_pentagon_oracle
_PENTAGON_BATCH = 512


def _f_table(fb, off: np.ndarray, pair, npairs: int):
    """Every nonzero F entry as (left vertex 1, left vertex 2, value), by right pair.

    Entry F(a, b, c, d)[(s, e, f), (t, g, h)] has the left vertices
    (a, b, s, e), (s, c, d, f) and the right vertices (b, c, t, g),
    (a, t, d, h); vertex (x, y, z, mu) has the number ``off[x, y, z] + mu``
    and a right pair (r1, r2) the number ``pair(r1, r2) < npairs``.  Entry k
    of the raveled block q of ``fb``, the output of ``_f_block_list``, of
    size m, has left tree start[q] + k // m and right tree start[q] + k % m.
    Returns (lo, l1, l2, val): the entries of right pair p are lo[p]:lo[p + 1],
    in left-tree order.
    """
    quads, blocks, start, left, right = fb
    size = np.diff(start)
    a, b, c, d = (np.repeat(lab, size) for lab in quads.T)  # labels of each tree
    l1 = off[a, b, left[:, 0]] + left[:, 1]
    l2 = off[left[:, 0], c, d] + left[:, 2]
    key = pair(off[b, c, right[:, 0]] + right[:, 1], off[a, right[:, 0], d] + right[:, 2])
    block = np.repeat(np.arange(len(blocks)), size * size)
    k = np.arange(len(block)) - np.repeat(_run_starts(size * size), size * size)
    row, col = start[block] + k // size[block], start[block] + k % size[block]
    val = np.concatenate([F.ravel() for F in blocks])
    keep = np.flatnonzero(val != 0)
    order = keep[np.argsort(key[col[keep]], kind="stable")]
    lo = np.searchsorted(key[col[order]], np.arange(npairs + 1))
    return lo, l1[row[order]], l2[row[order]], val[order]


def _recouple(table, keys: np.ndarray, vals: np.ndarray):
    """Apply F to the vertex pairs with the given right pair numbers.

    Returns, per resulting term, the index of its source term, the two
    left vertices that replace the pair and the product of the values.
    """
    lo, l1, l2, fval = table
    i, j = _pairs(lo[keys], lo[keys + 1] - lo[keys])
    return i, l1[j], l2[j], vals[i] * fval[j]


def stacked_pentagon_oracle(model: CategoryModel) -> float:
    """The pentagon residual with every F move a join on a table of F entries:
    the oracle of ``pentagon_residual``.

    Both routes take each right tree a(b(cd)), vertices (c d -> h; de),
    (b h -> k; ep), (a k -> e; ze), to the left trees ((ab)c)d through the
    F moves of the formulas in ``pentagon_residual``: each move joins the
    current terms with the nonzero F entries of the right vertex pair it
    replaces.  The terms of both routes are then sorted by (right tree, left
    tree) and summed per cell.  Right trees are enumerated one label a at a
    time, over all labels, and checked in batches of ``_PENTAGON_BATCH``.
    """
    fb = _f_block_list(model)
    n, N = model.rank, model.N
    counts = N.ravel()
    nv = int(counts.sum())
    off = (np.cumsum(counts) - counts).reshape(N.shape)
    reps = counts[counts > 0]
    vx, vy, vz = (np.repeat(lab, reps) for lab in np.nonzero(N))
    # vertices are numbered in (x, y, z, mu) order: [first[x], first[x + 1])
    # have first label x, and by_z[zfirst[z]:zfirst[z] + zcount[z]] third label z
    first = np.searchsorted(vx, np.arange(n + 1))
    by_z = np.argsort(vz, kind="stable")
    zcount = np.bincount(vz, minlength=n)
    zfirst = _run_starts(zcount)
    # a right pair (r1, r2) has vy[r2] == vz[r1]: number it by r1 and the
    # rank of r2 among the vertices with that second label
    ycount = np.bincount(vy, minlength=n)
    y_rank = np.empty(nv, dtype=np.int64)
    y_rank[np.argsort(vy, kind="stable")] = np.arange(nv) - np.repeat(_run_starts(ycount), ycount)
    ymax = int(ycount.max())
    pair = lambda r1, r2: r1 * ymax + y_rank[r2]
    table = _f_table(fb, off, pair, nv * ymax)
    # in one right tree, the left vertex (a b -> f; al) is fixed by (f c -> g) up to al
    mu, width = np.arange(nv) - np.repeat(off[np.nonzero(N)], reps), int(N.max())
    worst = 0.0
    for a in range(n):
        # right trees: (c d -> h) = v1, (b h -> k) = v2, (a k -> e) = v3
        v3 = np.arange(first[a], first[a + 1])
        i, j = _pairs(zfirst[vy[v3]], zcount[vy[v3]])
        v2, v3 = by_z[j], v3[i]
        i, j = _pairs(zfirst[vy[v2]], zcount[vy[v2]])
        v1, v2, v3 = by_z[j], v2[i], v3[i]
        for s in range(0, len(v1), _PENTAGON_BATCH):
            t1, t2, t3 = (v[s:s + _PENTAGON_BATCH] for v in (v1, v2, v3))
            one = np.ones(len(t1), dtype=complex)
            # route B: (t2, t3) -> (l1, w), then (t1, w) -> (l2, l3)
            col, l1, w, val = _recouple(table, pair(t2, t3), one)
            i, l2, l3, val_b = _recouple(table, pair(t1[col], w), val)
            key_b = ((col[i] * nv + l2) * nv + l3) * width + mu[l1[i]]
            # route A: (t1, t2) -> (x, y), then (y, t3) -> (z, l3), then (x, z) -> (l1, l2)
            col, x, y, val = _recouple(table, pair(t1, t2), one)
            i, z, l3, val = _recouple(table, pair(y, t3[col]), val)
            col, x = col[i], x[i]
            i, l1, l2, val_a = _recouple(table, pair(x, z), val)
            key_a = ((col[i] * nv + l2) * nv + l3[i]) * width + mu[l1]
            # sum each route's terms per (right tree, left tree), in the order
            # they came: the sort is stable and route A comes first
            key = np.concatenate([key_a, key_b])
            order = np.argsort(key, kind="stable")
            key, val, from_a = key[order], np.concatenate([val_a, val_b])[order], order < len(key_a)
            cells = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])[:len(key)]
            diff = (np.add.reduceat(np.where(from_a, val, 0), cells)
                    - np.add.reduceat(np.where(from_a, 0, val), cells))
            worst = max(worst, float(np.max(np.abs(diff), initial=0.0)))
    return worst


# -- the hexagon and unitarity on stacks of matrices ---------------------------


def stacked_unitarity_oracle(blocks: list) -> float:
    """max |B B^* - 1| over the square blocks, stacked by size from the list of
    matrices: the oracle of the flat-table ``_unitarity``."""
    worst = 0.0
    for m in sorted({len(B) for B in blocks}):
        S = np.array([B for B in blocks if len(B) == m])
        dev = np.abs(S @ S.conj().transpose(0, 2, 1) - np.eye(m)).max(axis=(1, 2))
        worst = max([worst] + dev.tolist())
    return worst


def _agree(rows: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """Mask [g, i, j]: the trees rows[g, i] and cols[g, j] agree outside position k."""
    other = [p for p in range(3) if p != k]
    return np.all(rows[:, :, None, other] == cols[:, None, :, other], axis=-1)


def _braid_stack(Rv, off, rows, cols, k, x, y, z) -> np.ndarray:
    """Stack with R(x, y, z)[rows[g, i, k], cols[g, j, k]] at [g, i, j] if the trees agree, else 0."""
    g, i, j = np.nonzero(_agree(rows, cols, k))
    x, y, z = (np.broadcast_to(lab, rows.shape[:2])[g, i] for lab in (x, y, z))
    out = np.zeros((rows.shape[0], rows.shape[1], cols.shape[1]), dtype=complex)
    out[g, i, j] = Rv[off[x, y, z] + cols[g, j, k], rows[g, i, k]]
    return out


def _group_norm(D: np.ndarray, cols: np.ndarray) -> float:
    """Largest spectral norm over the column groups of the stack D, by the trees cols[g, j][:2]."""
    gram = D.conj().transpose(0, 2, 1) @ D
    gram[~_agree(cols, cols, 2)] = 0
    return float(np.sqrt(max(float(np.linalg.eigvalsh(gram).max(initial=0.0)), 0.0)))


def stacked_hexagon_oracle(model: CategoryModel) -> float:
    """The hexagon residual with F stacked from the list of matrices and R filled
    block by block: the oracle of ``hexagon_residual``, whose products it makes
    in the same order."""
    quads, blocks, start, left, right = _f_block_list(model)
    N = model.N
    counts = N.ravel()
    off = (np.cumsum(counts) - counts).reshape(N.shape)
    Rv = np.zeros((int(counts.sum()), int(N.max())), dtype=complex)
    for x, y, z in np.argwhere(N).tolist():
        Rv[off[x, y, z]:off[x, y, z] + N[x, y, z]] = model.R(x, y, z).T
    index = np.zeros(N.shape + N.shape[:1], dtype=np.int64)
    index[tuple(quads.T)] = np.arange(len(quads))
    size = np.diff(start)
    worst = 0.0
    for m in sorted(set(size.tolist())):
        group = np.flatnonzero(size == m)
        step = max(1, _HEXAGON_ENTRIES // (m * m))
        for qa in (group[s:s + step] for s in range(0, len(group), step)):
            a, y1, y2, c = quads[qa].T
            qm, qr = index[y1, a, y2, c], index[y1, y2, a, c]
            FA, FM, FR = (np.array([blocks[q] for q in qs.tolist()]) for qs in (qa, qm, qr))
            A, Lm, Lr = (left[start[q][:, None] + np.arange(m)] for q in (qa, qm, qr))
            Ra, Rm, Rr = (right[start[q][:, None] + np.arange(m)] for q in (qa, qm, qr))
            a, y1, y2, c = a[:, None], y1[:, None], y2[:, None], c[:, None]
            B1 = _braid_stack(Rv, off, Lm, A, 1, a, y1, Lm[..., 0])
            B2 = _braid_stack(Rv, off, Rr, Rm, 1, a, y2, Rr[..., 0])
            rhs = _braid_stack(Rv, off, Lr, Ra, 2, a, Lr[..., 0], c)
            lhs = FR @ B2 @ FM.conj().transpose(0, 2, 1) @ B1 @ FA
            worst = max(worst, _group_norm(lhs - rhs, Ra))
            B1 = _braid_stack(Rv, off, A, Lm, 1, y1, a, A[..., 0])
            B2 = _braid_stack(Rv, off, Rm, Rr, 1, y2, a, Rm[..., 0])
            rhs = FA @ _braid_stack(Rv, off, Ra, Lr, 2, Ra[..., 0], a, c)
            lhs = B1 @ FM @ B2 @ FR.conj().transpose(0, 2, 1)
            worst = max(worst, _group_norm(lhs - rhs, Lr))
    return worst


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


def slots(theta: ThetaSpec) -> dict:
    """Position of each coefficient of Hom(theta, theta^2), one slot at a time:
    the reference layout of ``theta.live`` and ``ThetaSpec.coefficient_blocks``.

    Maps (n, l, m, e), for every e < N[lam, mu, nu], to (c, row, col): the
    sector c = nu, the theta^2 basis index of tree e in summand (l, m), and
    the theta basis index of summand n.  Keys run in sorted order.
    """
    model = theta.model
    N = model.N
    offs = model.sector_offsets(theta.object)
    offs2 = model.sector_offsets(theta.square)
    ns = len(theta.summands)
    out = {}
    for n, (nu, _) in enumerate(theta.summands):
        for l, (lam, _) in enumerate(theta.summands):
            for m, (mu, _) in enumerate(theta.summands):
                row = offs2[nu][l * ns + m]
                for e in range(int(N[lam, mu, nu])):
                    out[(n, l, m, e)] = (nu, row + e, offs[nu][n])
    return out


def slot_blocks(theta: ThetaSpec, zeta: np.ndarray, transpose: bool = False) -> dict:
    """The sector blocks of the map in Hom(theta, theta^2) with coefficients
    ``zeta``, filled slot by slot from :func:`slots`; with ``transpose``, the
    blocks in Hom(theta^2, theta) that hold each coefficient at the transpose
    of its slot, as ``AlgebraObject.mult`` does."""
    model = theta.model
    offs, offs2 = model.sector_offsets(theta.object), model.sector_offsets(theta.square)
    shape = {c: (offs2[c][-1], offs[c][-1]) for c in range(model.rank)}
    blocks = {c: np.zeros(s[::-1] if transpose else s, dtype=complex) for c, s in shape.items()}
    for key, (c, row, col) in slots(theta).items():
        blocks[c][(col, row) if transpose else (row, col)] = zeta[key]
    return blocks


def slot_coefficients(theta: ThetaSpec, blocks: dict) -> np.ndarray:
    """Every slot's entry of the sector blocks of a map in Hom(theta, theta^2),
    as theta's coefficient array: the inverse of ``ThetaSpec.coefficient_blocks``."""
    out = np.zeros(theta.live.shape, dtype=complex)
    for key, (c, row, col) in slots(theta).items():
        out[key] = blocks[c][row, col]
    return out


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
    return QSystem(theta=theta, zeta=slot_coefficients(theta, w1.blocks), w=unit_vector(theta, w))


def algebra_of(theta: ThetaSpec, unit: Morphism, mult: Morphism) -> AlgebraObject:
    """The AlgebraObject whose unit and mult are the morphisms ``unit`` and ``mult``.

    mult in Hom(theta^2, theta) holds each coefficient at the transpose of its slot.
    """
    coeffs = slot_coefficients(theta, {c: B.T for c, B in mult.blocks.items()})
    return AlgebraObject(theta=theta, unit=unit_vector(theta, unit), coeffs=coeffs)


def random_qsystem(theta: ThetaSpec, rng) -> QSystem:
    """Random complex coefficients on every slot of w1, and a random w: the
    real and imaginary part of one slot after another in (n, l, m, e) order,
    then those of w."""
    zeta = np.zeros(theta.live.shape, dtype=complex)
    z = rng.standard_normal((np.count_nonzero(theta.live), 2))
    zeta[theta.live] = z[:, 0] + 1j * z[:, 1]
    w = np.zeros(len(theta), dtype=complex)
    shape = theta.model.obj_dim(0, theta.object)
    w[_identity_summands(theta)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
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
    src = SumObject((obj.words[k],))
    blocks = {}
    for c in range(model.rank):
        offs = model.sector_offsets(obj)[c]
        B = np.zeros((offs[-1], offs[k + 1] - offs[k]), dtype=complex)
        B[offs[k]:offs[k + 1], :] = np.eye(offs[k + 1] - offs[k])
        blocks[c] = B
    return Morphism(model, src, obj, blocks)


def word_dual(model: CategoryModel, word) -> tuple:
    return tuple(int(model.dual[x]) for x in reversed(word))


def unit_intro(model: CategoryModel, obj, index: int = 0) -> Morphism:
    """The index-th tree-basis isometry in Hom(unit, obj), from the empty word."""
    obj = as_obj(obj)
    col = np.zeros((model.obj_dim(0, obj), 1), dtype=complex)
    col[index, 0] = 1.0
    return Morphism(model, unit_obj(), obj, {0: col})


@dataclass
class ConjugatePair:
    """Standard solution (r, rbar) of the conjugate equations for an object."""

    r: Morphism      # Hom(unit, conj(X) X)
    rbar: Morphism   # Hom(unit, X conj(X))


def conjugate_pair(model: CategoryModel, lam: int) -> ConjugatePair:
    """Duality isometries of a simple sector, derived from F.

    ``rbar`` is the canonical tree vector of Hom(id, lam conj(lam)); the
    coefficient of ``r`` is fixed by the conjugate equations and carries the
    Frobenius-Schur indicator for self-dual sectors.
    """
    lamd = int(model.dual[lam])
    rbar = unit_intro(model, word_obj((lam, lamd)))
    if lam == 0:
        return ConjugatePair(r=rbar, rbar=rbar)
    r = _duality_coefficient(model, lam)[1] * unit_intro(model, word_obj((lamd, lam)))
    return ConjugatePair(r=r, rbar=rbar)


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
    return SumObject(tuple(w[k:] for w in obj.words))


def _strip_suffix(obj: SumObject, word) -> SumObject:
    k = len(word)
    for w in obj.words:
        if k and w[-k:] != word:
            raise ObjectMismatchError(f"object {obj!r} is not right divisible by {word}")
    return SumObject(tuple(w[:len(w) - k] for w in obj.words))


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


def split_map(a: AlgebraObject, x: Bimod, y: Bimod) -> Morphism:
    """Right inverse of the multiplication map Hom(Theta x Theta y, Theta x y),
    built directly: comultiply, then cross Theta back over x.  The package
    reads it as the multiplication map's adjoint over d(Theta)."""
    out = rmul(adjoint(a.mult), word_obj(x.word + y.word))
    back = lmul(a.object, rmul(adjoint(_eps_signed(a, x)), word_obj(y.word)))
    return (1.0 / a.d) * compose(back, out)


def module_residual(f: BimodMap) -> float:
    """Violation of the left and right module-intertwining constraints."""
    a = f.algebra
    lhs_l = compose(f.mor, left_action(a, f.src))
    rhs_l = compose(left_action(a, f.tgt), lmul(a.object, f.mor))
    lhs_r = compose(f.mor, right_action(a, f.src))
    rhs_r = compose(right_action(a, f.tgt), rmul(f.mor, a.object))
    return max(distance(lhs_l, rhs_l), distance(lhs_r, rhs_r))


def phi_scalar(f: BimodMap) -> complex:
    """Induced standard left inverse on endomorphisms: normalized trace.  The
    coefficients of ``zeta_tensor`` are these scalars, taken as a pairing."""
    a = f.algebra
    return complex(categorical_trace(f.mor) / (a.d * a.model.word_dim(f.src.word)))


def induced_left_inverse_scalar(x: BimodMap) -> complex:
    """Left inverse of an induced endomorphism via the lifted duality isometry.

    Evaluates iota(R)* (1_conj x X) iota(R) and extracts the scalar; by the
    uniqueness of standard inverses this must equal
    :func:`phi_scalar`.
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


# -- gauge moves ---------------------------------------------------------------


def gauged(model: CategoryModel, u: dict) -> CategoryModel:
    """Copy of `model` in another basis of some vertex spaces: T'_e = sum_e2 T_e2 u[(a, b, c)][e2, e].

    Trees change by U[(s, e, f), (s, e2, f2)] = u(a, b, s)[e, e2] u(s, c, d)[f, f2]
    (left) and u(b, c, t)[g, g2] u(a, t, d)[h, h2] (right), so F becomes
    U_left^* F U_right and R(a, b; c) becomes u(b, a, c)^* R u(a, b, c).
    """
    def vertex(a, b, c):
        return u.get((a, b, c), np.eye(model.N[a, b, c]))

    def change(trees, inner, outer):
        """U of the trees (s, e, f) whose vertices are inner(s) and outer(s)."""
        U = np.zeros((len(trees), len(trees)), dtype=complex)
        for i, (s, e, f) in enumerate(trees):
            for j, (s2, e2, f2) in enumerate(trees):
                if s == s2:
                    U[i, j] = vertex(*inner(s))[e, e2] * vertex(*outer(s))[f, f2]
        return U

    def f(a, b, c, d):
        UL = change(f_left(model, a, b, c, d), lambda s: (a, b, s), lambda s: (s, c, d))
        UR = change(f_right(model, a, b, c, d), lambda t: (b, c, t), lambda t: (a, t, d))
        return UL.conj().T @ model.F(a, b, c, d) @ UR

    def r(a, b, c):
        return vertex(b, a, c).conj().T @ model.R(a, b, c) @ vertex(a, b, c)

    return CategoryModel(model.fusion, f, r, name=model.name + "_gauged")


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


def unconjugated(D) -> CategoryModel:
    """``D`` with the second factor's R conjugated back, so that factor braids
    with the unmirrored R symbols: a negative control that must break the w1
    fixed-point identity on a product of a category with its opposite."""
    m1, m2 = D.factors
    second = CategoryModel(m2.fusion, m2.F, lambda a, b, c: np.conj(m2.R(a, b, c)),
                           name="unconjugated")
    return deligne_product(m1, second)


def braiding_morphism(D, theta: ThetaSpec) -> Morphism:
    """eps(theta, theta) braided in ``D``, as a morphism on theta^2 over
    theta's model: the oracle of ``ctps_braiding(D, theta)``.  ``D`` has the
    fusion rules of theta's model, and may be :func:`unconjugated` of it."""
    th = ThetaSpec(D, theta.multiplicities)
    eps = braid(D, th.object, th.object)
    return Morphism(theta.model, eps.source, eps.target, eps.blocks)


def commutativity_oracle(q: QSystem, eps: Morphism) -> float:
    """Residual of eps(theta, theta) w1 = w1, on the morphisms: the oracle of
    ``check_commutativity``."""
    return distance(compose(eps, q.w1), q.w1)


# -- modular data --------------------------------------------------------------


def verlinde_fusion(pair: ModularPair, tol: float = 1e-6) -> np.ndarray:
    """Integer fusion tensor recomputed from S; raises if entries are not integral."""
    S = pair.S
    n = pair.rank
    N = np.einsum("ls,ms,ns,s->lmn", S, S, S.conj(), 1.0 / S[0])
    if np.max(np.abs(N.imag)) > tol or np.max(np.abs(N.real - np.round(N.real))) > tol:
        raise ValueError("Verlinde numbers are not integral; S is not modular fusion data")
    return np.round(N.real).astype(int)


def twist_oracle(model: CategoryModel, lam: int) -> complex:
    """theta(lam) as the categorical trace of the braiding morphism eps(lam, lam),
    over d(lam): the oracle of ``twist``, which reads the R table."""
    w = word_obj((lam,))
    return categorical_trace(braid(model, w, w)) / model.qdim[lam]


# -- pointed categories C(Z_n, p) ------------------------------------------------


def pointed(n: int, p: int) -> CategoryModel:
    """C(Z_n, p): labels a in Z_n with a x b = a + b, trivial F and
    R(a, b; a + b) = exp(2 pi i p a b / n).  The braiding is nondegenerate
    exactly when 2p is prime to n."""
    a = np.arange(n)
    N = np.zeros((n, n, n), dtype=int)
    N[a[:, None], a, (a[:, None] + a) % n] = 1
    fus = FusionData([str(x) for x in range(n)], (-a) % n, N, np.ones(n))
    return CategoryModel(fus, lambda *_: np.eye(1, dtype=complex),
                         lambda x, y, _: np.array([[np.exp(2j * np.pi * p * x * y / n)]]),
                         name=f"Z{n}_p{p}")


def subgroup_algebra(model: CategoryModel, g: int) -> AlgebraObject:
    """The group algebra of the subgroup H = <g> of Z_n (g divides n) in
    :func:`pointed`: one summand per element of H, every coefficient 1."""
    theta = ThetaSpec(model, {h: 1 for h in range(0, model.rank, g)})
    return algebra_from_coefficients(theta, theta.live.astype(complex))


def pointed_coupling(n: int, p: int, g: int) -> np.ndarray:
    """Z[lam, mu] = [mu - lam in H] [lam + mu in H^perp] for H = <g>, where
    H^perp = {x : p x h = 0 mod n for all h in H}."""
    a = np.arange(n)
    diff, total = (a[None, :] - a[:, None]) % n, (a[:, None] + a[None, :]) % n
    return ((diff % g == 0) & (p * total * g % n == 0)).astype(int)
