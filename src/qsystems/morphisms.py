"""Block-sparse intertwiner calculus over fusion-tree bases.

Objects are formal direct sums of tensor words in the simple sectors of a
skeletal category with unitary recoupling (F) and optionally braiding (R)
data.  A morphism X -> Y is stored sector-blockwise: for every simple c a
complex matrix from the canonical fusion-tree basis of Hom(c, X) to the one
of Hom(c, Y).  Tree bases are left parenthesized: a basis vector of
Hom(c, (x1, ..., xk)) is a fusion path ((a1, e1), ..., (ak, ek)) with
a1 = x1, ak = c and e_i a multiplicity index of Hom(a_i, a_{i-1} x_i);
paths are enumerated lexicographically.

All structural data enters through two unitary tensors:

* ``F(a, b, c; d)`` relates the two parenthesizations of Hom(d, abc).
  Columns are indexed by right trees (tau, g, h), rows by left trees
  (sig, e, f)::

      (1_a x T^{bc->tau}_g) T^{a tau->d}_h
          = sum_{sig,e,f} F[(sig,e,f),(tau,g,h)] (T^{ab->sig}_e x 1_c) T^{sig c->d}_f

* ``R(a, b; c)`` braids elementary pairs::

      eps(a, b) T^{ab->c}_e = sum_f R[f, e] T^{ba->c}_f

The gauge must be unital: F is the identity whenever one of a, b, c is the
identity sector (the model enforces this), and duality morphisms are derived
from F, so no separate cup/cap data is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import FusionData, StructureError, validate_fusion

__all__ = [
    "Word",
    "SumObject",
    "word_obj",
    "unit_obj",
    "sum_product",
    "CategoryModel",
    "Morphism",
    "ObjectMismatchError",
    "UnsupportedOperationError",
    "identity_morphism",
    "basis_vector",
    "hom_basis",
    "compose",
    "adjoint",
    "rmul",
    "lmul",
    "mono_product",
    "braid",
    "categorical_trace",
    "twist",
    "op_norm",
    "distance",
    "pentagon_residual",
    "hexagon_residual",
    "f_unitarity_residual",
    "r_unitarity_residual",
    "conjugate_residual",
    "CategoryReport",
    "validate_category",
    "mirror",
    "deligne_product",
]

Word = tuple  # tuple[int, ...]


class ObjectMismatchError(ValueError):
    """Morphisms composed or compared across different objects."""


class UnsupportedOperationError(RuntimeError):
    """Operation requires structure the model does not carry (e.g. braiding)."""


@dataclass(frozen=True)
class SumObject:
    """Formal finite direct sum of tensor words, with unique summand tags."""

    words: tuple
    tags: tuple

    def __post_init__(self):
        if len(self.words) != len(self.tags):
            raise StructureError("one tag per summand required")
        if len(set(self.tags)) != len(self.tags):
            raise StructureError("summand tags must be unique")

    def __len__(self):
        return len(self.words)

    def __repr__(self):
        return f"SumObject({list(self.words)})"


def word_obj(word, tag=None) -> SumObject:
    w = tuple(int(x) for x in word)
    return SumObject((w,), (tag if tag is not None else 0,))


def unit_obj() -> SumObject:
    return word_obj(())


def as_obj(x) -> SumObject:
    if isinstance(x, SumObject):
        return x
    return word_obj(tuple(x))


def sum_product(a: SumObject, b: SumObject) -> SumObject:
    words = tuple(wa + wb for wa in a.words for wb in b.words)
    tags = tuple((ta, tb) for ta in a.tags for tb in b.tags)
    return SumObject(words, tags)


def same_object(a: SumObject, b: SumObject) -> bool:
    return a.words == b.words


class CategoryModel:
    """Skeletal unitary fusion category with F (and optionally R) data.

    ``f_provider(a, b, c, d)`` must return the unitary recoupling matrix of
    Hom(d, abc): its rows are the left trees (s, e, f), e < N[a, b, s] and
    f < N[s, c, d], its columns the right trees (t, g, h), g < N[b, c, t] and
    h < N[a, t, d], each in lexicographic order (:func:`_trees`).  It is
    never called when one of a, b, c is the identity label (unital gauge is
    assumed there).  ``r_provider`` is
    optional; without it the category is unbraided and braiding operations
    raise :class:`UnsupportedOperationError`.

    The first read of F builds the model's F table: each block with trees is
    requested from the provider once, checked, and stored in one flat
    read-only table; the provider is then dropped.  R is held the same way.
    :meth:`F` and :meth:`R` return views into those tables, and the coherence
    checks read the tables themselves.  :class:`ProductModel` stays lazy
    instead, because its whole table grows quadratically with its factors'.

    The model memoizes tree bases and recoupling data per instance; all
    operations on it are pure, so instances can be shared across workers.
    """

    def __init__(self, fusion: FusionData, f_provider, r_provider=None, name: str = ""):
        self.fusion = fusion
        self.name = name or fusion.names[0]
        self._f_provider = f_provider
        self._r_provider = r_provider
        self.braided = r_provider is not None
        self._f = self._r = None
        self._tails = {}
        self._insert = {}
        self._offsets = {}
        self._counts = {}
        self._ends = {}

    # -- basic data --------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.fusion.rank

    @property
    def N(self) -> np.ndarray:
        return self.fusion.N

    @property
    def dual(self) -> np.ndarray:
        return self.fusion.dual

    @property
    def qdim(self) -> np.ndarray:
        return self.fusion.qdim

    def word_dim(self, word) -> float:
        d = 1.0
        for x in word:
            d *= self.qdim[x]
        return d

    # -- recoupling data ---------------------------------------------------

    def F(self, a, b, c, d) -> np.ndarray:
        return self._f_table().view((a, b, c, d))

    def f_stack(self, quads: np.ndarray) -> np.ndarray:
        """F at each label row (a, b, c, d) of ``quads``, as one stack; the
        blocks must share one size."""
        return np.stack([self.F(*q) for q in quads.tolist()])

    def _f_table(self) -> "_Blocks":
        """The model's F table, built on the first call."""
        if self._f is None:
            self._f = _build_f_table(self, self._f_provider)
            self._f_provider = None
        return self._f

    def _f_finite(self) -> bool:
        """Whether every F entry is finite."""
        return self._f_table().finite

    def R(self, a, b, c) -> np.ndarray:
        return self._r_table().view((a, b, c))

    def _r_table(self) -> "_Blocks":
        """The model's R table, built on the first call."""
        if not self.braided:
            raise UnsupportedOperationError("category carries no braiding")
        if self._r is None:
            self._r = _build_r_table(self, self._r_provider)
            self._r_provider = None
        return self._r

    def _held(self) -> "CategoryModel":
        """A model that holds its F and R tables: this one."""
        return self

    # -- tree bases --------------------------------------------------------

    def tails(self, b, word, c):
        """Fusion paths from charge b through `word` to total charge c."""
        key = (b, word, c)
        out = self._tails.get(key)
        if out is not None:
            return out
        if not word:
            out = ((),) if b == c else ()
        else:
            x, rest = word[0], word[1:]
            acc = []
            for a in range(self.rank):
                n = self.N[b, x, a]
                for e in range(n):
                    for t in self.tails(a, rest, c):
                        acc.append(((a, e),) + t)
            out = tuple(acc)
        self._tails[key] = out
        return out

    def paths(self, c, word):
        """Tree basis of Hom(c, word): fusion paths from the identity to c.

        The monoidal products rely on how these lists compose.  Take all
        paths of a word u, over every end label, in lexicographic order;
        then ``paths(c, u + v)`` is the concatenation, over those paths
        ``px`` (ending at m), of ``px + t`` for t in ``tails(m, v, c)``.
        The end labels of that order are :meth:`path_ends` of u, and each
        run has length ``tail_counts(v)[m, c]``.
        """
        return self.tails(0, word, c)

    def tail_counts(self, word) -> np.ndarray:
        """Matrix of ``len(tails(b, word, c))`` over (b, c): a product of fusion matrices."""
        out = self._counts.get(word)
        if out is None:
            out = np.eye(self.rank, dtype=np.int64)
            for x in word:
                out = out @ self.N[:, x, :]
            self._counts[word] = out
        return out

    def path_ends(self, word) -> np.ndarray:
        """End labels of all paths of `word`, in lexicographic path order."""
        out = self._ends.get(word)
        if out is None:
            if not word:
                out = np.zeros(1, dtype=np.int64)
            else:
                prev = self.path_ends(word[:-1])
                reps = self.N[prev, word[-1], :]
                out = np.repeat(np.tile(np.arange(self.rank), len(prev)), reps.ravel())
            self._ends[word] = out
        return out

    def obj_dim(self, c, obj: SumObject) -> int:
        return self.obj_offsets(c, obj)[-1]

    def obj_offsets(self, c, obj: SumObject):
        """Cumulative basis offsets of the summands of `obj` in sector c."""
        return self.sector_offsets(obj)[c]

    def sector_offsets(self, obj: SumObject):
        """:meth:`obj_offsets` of every sector, indexed by c, from one lookup."""
        out = self._offsets.get(obj.words)
        if out is None:
            dims = np.zeros((self.rank, len(obj.words) + 1), dtype=np.int64)
            for k, w in enumerate(obj.words):
                row = np.eye(1, self.rank, dtype=np.int64)[0]
                for x in w:
                    row = row @ self.N[:, x, :]
                dims[:, k + 1] = row
            out = tuple(tuple(r) for r in np.cumsum(dims, axis=1).tolist())
            self._offsets[obj.words] = out
        return out

    # -- left-insertion recoupling -----------------------------------------

    def lam_insert(self, a, word):
        """Unitaries expanding the detached basis in the left-tree basis.

        Returns a dict ``c -> matrix`` whose columns are the coordinates of
        ``(1_a x t^word_{b,i}) T^{ab->c}_g`` (column order ``(b, i, g)`` with b
        ascending) in the tail basis ``tails(a, word, c)``.
        """
        key = (a, word)
        out = self._insert.get(key)
        if out is not None:
            return out
        out = {}
        if len(word) == 0:
            for c in range(self.rank):
                out[c] = np.eye(1, dtype=complex) if c == a else np.zeros((0, 0), dtype=complex)
        elif len(word) == 1:
            x = word[0]
            for c in range(self.rank):
                n = self.N[a, x, c]
                out[c] = np.eye(n, dtype=complex)
        else:
            v, x = word[:-1], word[-1]
            lam_v = self.lam_insert(a, v)
            N = self.N
            pos_v = {p: i for b in range(self.rank) for i, p in enumerate(self.paths(b, v))}
            # detached column (b, i, g) of lam_v[sig] sits at start_v[b][sig] + i N[a, b, sig] + g
            widths = self.tail_counts(v)[0][:, None] * N[a]
            start_v = (np.cumsum(widths, axis=0) - widths).tolist()
            n_ab, n_xc = N[a].tolist(), N[:, x, :].T.tolist()
            for c in range(self.rank):
                rows = self.tails(a, word, c)
                row_pos = {p: i for i, p in enumerate(rows)}
                cols = [(b, pw, g) for b in range(self.rank)
                        for pw in self.paths(b, word) for g in range(N[a, b, c])]
                M = np.zeros((len(rows), len(cols)), dtype=complex)
                # the columns (b, pw, g) with pw = pv + ((b, e),), pv ending at bp,
                # are the right trees (b, e, g) of F(a, bp, x, c) in their order:
                # the j-th of them is column j of that F
                blocks, seen = {}, {}
                for col, (_, pw, _) in enumerate(cols):
                    pv = pw[:-1]
                    bp, iv, j = pv[-1][0], pos_v[pv], seen.get(pv, 0)
                    seen[pv] = j + 1
                    if bp not in blocks:
                        # its left trees (sig, f1, f2), f1 < N[a, bp, sig] and
                        # f2 < N[sig, x, c], in the order of _trees
                        left = [(sig, f1, f2) for sig, (n1, n2) in enumerate(zip(n_ab[bp], n_xc[c]))
                                for f1 in range(n1) for f2 in range(n2)]
                        blocks[bp] = left, self.F(a, bp, x, c)
                    left, Fm = blocks[bp]
                    for (sig, f1, f2), fval in zip(left, Fm[:, j]):
                        if fval == 0:
                            continue
                        lam_s = lam_v[sig]
                        if lam_s.shape[0] == 0:
                            continue
                        vec = lam_s[:, start_v[bp][sig] + iv * n_ab[bp][sig] + f1]
                        for qi, val in enumerate(vec):
                            if val != 0:
                                q = self.tails(a, v, sig)[qi]
                                M[row_pos[q + ((c, f2),)], col] += fval * val
                out[c] = M
        self._insert[key] = out
        return out

    def __repr__(self):
        return f"CategoryModel({self.name!r}, rank={self.rank}, braided={self.braided})"


# ---------------------------------------------------------------------------
# morphisms


class Morphism:
    """Sector-blockwise linear map between fusion-tree bases of hom spaces."""

    __slots__ = ("model", "source", "target", "blocks")

    def __init__(self, model: CategoryModel, source: SumObject, target: SumObject, blocks: dict):
        self.model = model
        self.source = source
        self.target = target
        self.blocks = {}
        src_offs, tgt_offs = model.sector_offsets(source), model.sector_offsets(target)
        for c in range(model.rank):
            dt, ds = tgt_offs[c][-1], src_offs[c][-1]
            B = blocks.get(c)
            if B is None:
                B = np.zeros((dt, ds), dtype=complex)
            else:
                B = np.asarray(B, dtype=complex)
                if B.shape != (dt, ds):
                    raise StructureError(f"block {c} has shape {B.shape}, expected {(dt, ds)}")
            self.blocks[c] = B

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Morphism") -> "Morphism":
        if not (same_object(self.source, other.source) and same_object(self.target, other.target)):
            raise ObjectMismatchError("sum of morphisms between different objects")
        return Morphism(self.model, self.source, self.target,
                        {c: self.blocks[c] + other.blocks[c] for c in self.blocks})

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-1.0) * other

    def __mul__(self, z) -> "Morphism":
        return Morphism(self.model, self.source, self.target,
                        {c: z * B for c, B in self.blocks.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g (blockwise matrix product)."""
    if f.model is not g.model and f.model.fusion is not g.model.fusion:
        raise ObjectMismatchError("morphisms live over different models")
    if not same_object(g.target, f.source):
        raise ObjectMismatchError(f"cannot compose: {g.target!r} != {f.source!r}")
    return Morphism(f.model, g.source, f.target,
                    {c: f.blocks[c] @ g.blocks[c] for c in f.blocks})


def adjoint(f: Morphism) -> Morphism:
    return Morphism(f.model, f.target, f.source, {c: B.conj().T for c, B in f.blocks.items()})


def identity_morphism(model: CategoryModel, obj) -> Morphism:
    obj = as_obj(obj)
    return Morphism(model, obj, obj, {c: np.eye(model.obj_dim(c, obj), dtype=complex)
                                      for c in range(model.rank)})


def basis_vector(model: CategoryModel, nu: int, obj, index: int) -> Morphism:
    """The index-th tree-basis isometry in Hom(nu, obj)."""
    obj = as_obj(obj)
    if obj.words == ((),):
        if nu != 0 or index != 0:
            raise ObjectMismatchError("Hom(nu, unit) vanishes for nu != 0")
        return identity_morphism(model, unit_obj())
    blocks = {}
    d = model.obj_dim(nu, obj)
    col = np.zeros((d, 1), dtype=complex)
    col[index, 0] = 1.0
    blocks[nu] = col
    return Morphism(model, word_obj((nu,)), obj, blocks)


def hom_basis(model: CategoryModel, nu: int, obj) -> list:
    """Orthonormal isometries spanning Hom(nu, obj); count is the tree dimension."""
    obj = as_obj(obj)
    return [basis_vector(model, nu, obj, i) for i in range(model.obj_dim(nu, obj))]


# ---------------------------------------------------------------------------
# monoidal products


def _word_sub_blocks(f: Morphism, ks: int, kt: int, src_offs, tgt_offs) -> dict:
    """Word-level sub-block of f between source summand ks and target summand kt."""
    return {c: B[tgt_offs[c][kt]:tgt_offs[c][kt + 1], src_offs[c][ks]:src_offs[c][ks + 1]]
            for c, B in f.blocks.items()}


def _live_pairs(f: Morphism, src_offs, tgt_offs) -> dict:
    """Summand pairs (ks, kt) of f with a nonzero sub-block, each with its sectors."""
    live = {}
    for c, B in f.blocks.items():
        if not B.any():
            continue
        if len(f.source) == len(f.target) == 1:
            pairs = [(0, 0)]
        else:
            rows, cols = np.nonzero(B)
            kt = np.searchsorted(tgt_offs[c], rows, side="right") - 1
            ks = np.searchsorted(src_offs[c], cols, side="right") - 1
            pairs = sorted(set(zip(ks.tolist(), kt.tolist())))
        for pair in pairs:
            live.setdefault(pair, []).append(c)
    return live


def _kron_eye(sub: np.ndarray, k: int) -> np.ndarray:
    """np.kron(sub, np.eye(k))."""
    if k == 1:
        return sub
    out = np.zeros((sub.shape[0], k, sub.shape[1], k), dtype=complex)
    for i in range(k):
        out[:, i, :, i] = sub
    return out.reshape(sub.shape[0] * k, sub.shape[1] * k)


def _run_starts(counts: np.ndarray) -> np.ndarray:
    """Start of each run in a concatenation of runs of the given lengths."""
    return np.cumsum(counts) - counts


def rmul(f: Morphism, right) -> Morphism:
    """f x 1_right.

    Block c maps the runs ``px + tails(m, wb, c)`` of the source to the runs
    ``py + tails(m, wb, c)`` of the target by ``f_m (x) 1``, where px and py
    are paths of the source and target words of f ending at m.
    """
    model = f.model
    right = as_obj(right)
    src = sum_product(f.source, right)
    tgt = sum_product(f.target, right)
    nb = len(right)
    src_offs, tgt_offs = model.sector_offsets(src), model.sector_offsets(tgt)
    f_src_offs, f_tgt_offs = model.sector_offsets(f.source), model.sector_offsets(f.target)
    blocks = {c: np.zeros((tgt_offs[c][-1], src_offs[c][-1]), dtype=complex)
              for c in range(model.rank)}
    counts = [model.tail_counts(wb) for wb in right.words]
    for (ks, kt), live in _live_pairs(f, f_src_offs, f_tgt_offs).items():
        fsub = _word_sub_blocks(f, ks, kt, f_src_offs, f_tgt_offs)
        ends_s = model.path_ends(f.source.words[ks])
        ends_t = model.path_ends(f.target.words[kt])
        at_s = {m: np.flatnonzero(ends_s == m) for m in live}
        at_t = {m: np.flatnonzero(ends_t == m) for m in live}
        for kb, cnt in enumerate(counts):
            ksrc = ks * nb + kb
            ktgt = kt * nb + kb
            for c in np.flatnonzero(cnt[live].any(axis=0)).tolist():
                run = cnt[:, c]
                rstart = tgt_offs[c][ktgt] + _run_starts(run[ends_t])
                cstart = src_offs[c][ksrc] + _run_starts(run[ends_s])
                for m in live:
                    k = int(run[m])
                    if k == 0:
                        continue
                    tail = np.arange(k)
                    rows = (rstart[at_t[m]][:, None] + tail).ravel()
                    cols = (cstart[at_s[m]][:, None] + tail).ravel()
                    blocks[c][np.ix_(rows, cols)] += _kron_eye(fsub[m], k)
    return Morphism(model, src, tgt, blocks)


def _letter_block(model, m, fsub, ws, wt, c) -> np.ndarray:
    """Block of (1_m x f_part) mapping tails(m, ws, c) -> tails(m, wt, c).

    In the detached bases of :meth:`CategoryModel.lam_insert` the map is
    block diagonal over the intermediate label b, with blocks f_b (x) 1 on
    the multiplicity space of Hom(c, m b).
    """
    lam_s = model.lam_insert(m, ws)[c]
    lam_t = model.lam_insert(m, wt)[c]
    D = np.zeros((lam_t.shape[1], lam_s.shape[1]), dtype=complex)
    r = q = 0
    for b, g in enumerate(model.N[m, :, c]):
        if g == 0:
            continue
        sub = fsub[b]
        nr, nc = sub.shape[0] * g, sub.shape[1] * g
        if sub.any():
            D[r:r + nr, q:q + nc] = _kron_eye(sub, g)
        r, q = r + nr, q + nc
    return lam_t @ D @ lam_s.conj().T


def lmul(left, f: Morphism) -> Morphism:
    """1_left x f.

    For each path px of a left word, ending at m, block c adds the letter
    block of 1_m x f on the runs ``px + tails(m, ws, c)`` and
    ``px + tails(m, wt, c)``.  The letter block depends on the left word
    only through m, so it is computed once per summand pair of f.
    """
    model = f.model
    left = as_obj(left)
    src = sum_product(left, f.source)
    tgt = sum_product(left, f.target)
    ns, nt = len(f.source), len(f.target)
    src_offs, tgt_offs = model.sector_offsets(src), model.sector_offsets(tgt)
    f_src_offs, f_tgt_offs = model.sector_offsets(f.source), model.sector_offsets(f.target)
    blocks = {c: np.zeros((tgt_offs[c][-1], src_offs[c][-1]), dtype=complex)
              for c in range(model.rank)}
    ends = [model.path_ends(wa) for wa in left.words]
    for ks, kt in _live_pairs(f, f_src_offs, f_tgt_offs):
        ws, wt = f.source.words[ks], f.target.words[kt]
        fsub = _word_sub_blocks(f, ks, kt, f_src_offs, f_tgt_offs)
        cnt_s, cnt_t = model.tail_counts(ws), model.tail_counts(wt)
        both = (cnt_s > 0) & (cnt_t > 0)
        letter = {}
        for ka, ends_a in enumerate(ends):
            for c in np.flatnonzero(both[ends_a].any(axis=0)).tolist():
                ns_a, nt_a = cnt_s[ends_a, c], cnt_t[ends_a, c]
                rstart = (tgt_offs[c][ka * nt + kt] + _run_starts(nt_a)).tolist()
                cstart = (src_offs[c][ka * ns + ks] + _run_starts(ns_a)).tolist()
                for m, dt, ds, r0, c0 in zip(ends_a.tolist(), nt_a.tolist(), ns_a.tolist(),
                                             rstart, cstart):
                    if dt == 0 or ds == 0:
                        continue
                    if (m, c) not in letter:
                        B = _letter_block(model, m, fsub, ws, wt, c)
                        letter[m, c] = B if B.any() else None
                    B = letter[m, c]
                    if B is not None:
                        blocks[c][r0:r0 + dt, c0:c0 + ds] += B
    return Morphism(model, src, tgt, blocks)


def mono_product(f: Morphism, g: Morphism) -> Morphism:
    """Monoidal product f x g = (f x 1) (1 x g)."""
    return compose(rmul(f, g.target), lmul(f.source, g))


# ---------------------------------------------------------------------------
# duality


def _duality_coefficient(model: CategoryModel, lam: int) -> tuple:
    """(f, coeff) for a sector lam != 0: f = F(lam, conj(lam), lam; lam) between the
    trees through the unit, and coeff = 1 / (d_lam f), which times the tree vector
    of Hom(id, conj(lam) lam) solves the conjugate equations.

    The tree (0, 0, 0) through the unit comes first in both tree lists.
    """
    lamd = int(model.dual[lam])
    if not (model.N[lam, lamd, 0] and model.N[lamd, lam, 0]):
        raise StructureError(f"{lam} x {lamd} has no unit: dual[{lam}] is not its conjugate")
    f = model.F(lam, lamd, lam, lam)[0, 0]
    if abs(f) < 1e-14:
        raise StructureError(f"degenerate duality datum F[{lam}]")
    return f, 1.0 / (model.qdim[lam] * f)


# ---------------------------------------------------------------------------
# braiding


def _braid_elementary(model: CategoryModel, x: int, y: int) -> Morphism:
    blocks = {c: model.R(x, y, c) for c in range(model.rank)}
    return Morphism(model, word_obj((x, y)), word_obj((y, x)), blocks)


def _braid_words(model: CategoryModel, xw, yw) -> Morphism:
    if len(xw) == 0 or len(yw) == 0:
        return identity_morphism(model, word_obj(xw + yw))
    if len(xw) == 1:
        if len(yw) == 1:
            return _braid_elementary(model, xw[0], yw[0])
        yv, yl = yw[:-1], yw[-1:]
        inner = rmul(_braid_words(model, xw, yv), word_obj(yl))
        outer = lmul(word_obj(yv), _braid_words(model, xw, yl))
        return compose(outer, inner)
    xv, xl = xw[:-1], xw[-1:]
    inner = lmul(word_obj(xv), _braid_words(model, xl, yw))
    outer = rmul(_braid_words(model, xv, yw), word_obj(xl))
    return compose(outer, inner)


def braid(model: CategoryModel, a, b) -> Morphism:
    """Braiding eps(a, b) in Hom(a b, b a), extended to sums and words."""
    if not model.braided:
        raise UnsupportedOperationError("category carries no braiding")
    a, b = as_obj(a), as_obj(b)
    src = sum_product(a, b)
    tgt = sum_product(b, a)
    na, nb = len(a), len(b)
    src_offs, tgt_offs = model.sector_offsets(src), model.sector_offsets(tgt)
    blocks = {c: np.zeros((tgt_offs[c][-1], src_offs[c][-1]), dtype=complex)
              for c in range(model.rank)}
    for ka, wa in enumerate(a.words):
        for kb, wb in enumerate(b.words):
            eps = _braid_words(model, wa, wb)
            ksrc = ka * nb + kb
            ktgt = kb * na + ka
            for c in range(model.rank):
                roff = tgt_offs[c][ktgt]
                coff = src_offs[c][ksrc]
                B = eps.blocks[c]
                blocks[c][roff:roff + B.shape[0], coff:coff + B.shape[1]] = B
    return Morphism(model, src, tgt, blocks)


def categorical_trace(f: Morphism) -> complex:
    """Spherical trace: sum_c d(c) tr(block_c); Tr(1_X) = d(X)."""
    if not same_object(f.source, f.target):
        raise ObjectMismatchError("trace requires an endomorphism")
    return complex(sum(f.model.qdim[c] * np.trace(B) for c, B in f.blocks.items() if B.size))


def twist(model: CategoryModel, lam: int) -> complex:
    """Topological spin theta(lam) = Tr(eps(lam, lam)) / d(lam)."""
    w = word_obj((lam,))
    return categorical_trace(braid(model, w, w)) / model.qdim[lam]


# ---------------------------------------------------------------------------
# norms


def op_norm(f: Morphism) -> float:
    out = 0.0
    for B in f.blocks.values():
        if B.size:
            out = max(out, float(np.linalg.norm(B, 2)))
    return out


def distance(f: Morphism, g: Morphism) -> float:
    return op_norm(f - g)


# ---------------------------------------------------------------------------
# coherence validators


# Batch limits of the stacked checks (pentagon cells, hexagon matrix entries
# per stack, six braid stacks of which are built at once): they bound the
# working memory at any rank.
_PENTAGON_CELLS = 12_000
_HEXAGON_ENTRIES = 1 << 12


def _pairs(start: np.ndarray, cnt: np.ndarray):
    """Index pairs (i, j), j in start[i]:start[i] + cnt[i], ordered by i, then j."""
    i = np.repeat(np.arange(len(start)), cnt)
    return i, np.arange(len(i)) + np.repeat(start - _run_starts(cnt), cnt)


def _tree_counts(N: np.ndarray):
    """(quads, left, right): the labels (a, b, c, d), in lexicographic order, where
    Hom(d, abc) has left or right trees, and the number of each.

    Where the numbers differ, N is not associative and the F table is refused.
    """
    left = np.tensordot(N, N, axes=(2, 0))
    right = np.tensordot(N, N, axes=(2, 1)).transpose(2, 0, 1, 3)
    at = np.nonzero((left > 0) | (right > 0))
    return np.stack(at, axis=1), left[at], right[at]


def _trees(inner: np.ndarray, outer: np.ndarray):
    """Two-vertex trees (i, s, e, f) with e < inner[i, s] and f < outer[i, s].

    Rows i of ``inner`` and ``outer`` are independent problems; the trees of
    each run over (s, e, f) lexicographically.  This is the tree order of
    every F block: :func:`_tree_rows` gives its rows.
    """
    w = inner * outer
    at = np.flatnonzero(w)
    n = w.ravel()[at]
    i, s = np.divmod(np.repeat(at, n), w.shape[1])
    e, f = np.divmod(np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n), outer[i, s])
    return i, s, e, f


def _tree_pos(inner: np.ndarray, outer: np.ndarray, i, s, e, f):
    """Position of each tree (i, s, e, f) among the trees of row i, in the
    order of :func:`_trees`: the trees of every s' < s, then e outer[i, s] + f."""
    w = inner * outer
    return (w.cumsum(axis=1) - w)[i, s] + e * outer[i, s] + f


def _tree_rows(N: np.ndarray, a, b, c, d):
    """((inner, outer), (inner, outer)): the rows of :func:`_trees` for the
    left trees (s, e, f) of Hom(d, abc), e < N[a, b, s] and f < N[s, c, d],
    and for its right trees (t, g, h), g < N[b, c, t] and h < N[a, t, d];
    one row per entry of the label arrays a, b, c, d.
    """
    return (N[a, b], N[:, c, d].T), (N[b, c], N[a, :, d])


class _Blocks:
    """Square blocks stored flat, one per label tuple of ``keys`` (in
    lexicographic order): each row-major, one after another in ``table``,
    then one zero.

    Block q is ``table[off[q]:off[q] + size[q] ** 2]``.  ``finite`` tells
    whether every entry is finite; the checks give NaN where it is not.  The
    table is read-only, and :meth:`view` hands out its blocks.
    """

    __slots__ = ("keys", "table", "off", "size", "finite", "_dims", "_code", "_views")

    def __init__(self, keys: np.ndarray, blocks, size: np.ndarray, rank: int):
        """``blocks`` yields the blocks in the order of ``keys``, each of its ``size``."""
        self.keys = keys
        self.off = _run_starts(size * size)
        self.table = np.zeros(int(np.sum(size * size)) + 1, dtype=complex)
        for at, B in zip(self.off.tolist(), blocks):
            self.table[at:at + B.size] = B.ravel()
        self.table.flags.writeable = False
        self.size = size
        self.finite = bool(np.isfinite(self.table).all())
        self._dims = (rank,) * keys.shape[1]
        self._code = np.ravel_multi_index(tuple(keys.T), self._dims)
        self._views = {}

    def view(self, key: tuple) -> np.ndarray:
        """The block of the labels ``key`` as a view of the table (0 x 0 if it has none)."""
        out = self._views.get(key)
        if out is None:
            code = np.ravel_multi_index(key, self._dims)
            q = int(np.searchsorted(self._code, code))
            if q < len(self._code) and self._code[q] == code:
                m = int(self.size[q])
                out = self.table[self.off[q]:self.off[q] + m * m].reshape(m, m)
            else:
                out = self.table[:0].reshape(0, 0)
            self._views[key] = out
        return out

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Block number of each label row of ``keys``; every row must have a block."""
        return np.searchsorted(self._code, np.ravel_multi_index(tuple(keys.T), self._dims))

    def stack(self, q: np.ndarray, m: int) -> np.ndarray:
        """Blocks ``q``, each m x m, as one (len(q), m, m) array."""
        return self.table[self.off[q][:, None] + np.arange(m * m)].reshape(-1, m, m)


def _provided(name: str, provider, key: tuple, size: int) -> np.ndarray:
    """``provider(*key)`` as a complex block, checked to be size x size."""
    out = np.asarray(provider(*key), dtype=complex)
    if out.shape != (size, size):
        raise StructureError(f"{name}{key} has shape {out.shape}, expected {(size, size)}")
    return out


def _build_f_table(model: CategoryModel, provider) -> _Blocks:
    """F(a, b, c, d) for every label quadruple with trees, with
    ``provider(a, b, c, d)`` called once for each where none of a, b, c is the
    unit (there F is the identity, the unital gauge).

    That each Hom(d, abc) has as many left as right trees is checked first.
    """
    quads, nl, nr = _tree_counts(model.N)
    if (nl != nr).any():
        i = int(np.argmax(nl != nr))
        raise StructureError(f"fusion data not associative at {tuple(quads[i].tolist())}: "
                             f"{nl[i]} != {nr[i]}")
    eye = [np.eye(m, dtype=complex) for m in range(int(nl.max()) + 1)]
    inner = quads[:, :3].all(axis=1).tolist()
    blocks = (_provided("F", provider, key, trees) if nonunit else eye[trees]
              for key, trees, nonunit in zip(zip(*quads.T.tolist()), nl.tolist(), inner))
    return _Blocks(quads, blocks, nl, model.rank)


def _f_blocks(model: CategoryModel):
    """(quads, blocks, start, left, right): the model's F table, with block q for
    the labels quads[q], and its trees.

    Rows start[q]:start[q + 1] of `left` and `right` are the trees (s, e, f)
    and (t, g, h) of block q, in row and column order.
    """
    fl = model._f_table()
    left, right = (np.stack(_trees(*rows)[1:], axis=1) for rows in _tree_rows(model.N, *fl.keys.T))
    return fl.keys, fl, np.append(0, np.cumsum(fl.size)), left, right


def _build_r_table(model: CategoryModel, provider) -> _Blocks:
    """R(x, y, z) for every label triple with N[x, y, z] > 0, with
    ``provider(x, y, z)`` called once for each triple where neither x nor y
    is the unit (there R is the identity)."""
    N = model.N
    if not np.array_equal(N, N.transpose(1, 0, 2)):
        raise StructureError("a braided category needs commutative fusion rules")
    keys = np.argwhere(N)
    size = N[N > 0]
    blocks = (_provided("R", provider, key, m) if key[0] and key[1] else np.eye(m, dtype=complex)
              for key, m in zip(zip(*keys.T.tolist()), size.tolist()))
    return _Blocks(keys, blocks, size, model.rank)


def pentagon_residual(model: CategoryModel) -> float:
    """Max deviation of the two recoupling routes Hom(e, abcd), over all labels.

    Both routes take the right tree a(b(cd)) with vertices (c d -> h; de),
    (b h -> k; ep), (a k -> e; ze) to the left tree ((ab)c)d with vertices
    (a b -> f; al), (f c -> g; be), (g d -> e; ga).  Route B is two F moves,
    route A three::

        B = sum_{epp} F(a,b,h,e)[(f,al,epp),(k,ep,ze)] F(f,c,d,e)[(g,be,ga),(h,de,epp)]
        A = sum_{m,mu,nu,rho} F(b,c,d,k)[(m,mu,nu),(h,de,ep)] F(a,m,d,e)[(g,rho,ga),(k,nu,ze)]
                              F(a,b,c,g)[(f,al,be),(m,mu,rho)]

    and the residual is max |A - B| over all pairs of trees.  Both routes are
    laid out per label quadruple (a, b, c, g): the rows are the left trees
    (f, al, be) of F(a, b, c, g), the columns the vertex (g d -> e; ga) with a
    right tree (h, de, k, ep, ze).  Route A is then one matrix product
    F(a, b, c, g) X, where X has a row per right tree (m, mu, rho) of
    F(a, b, c, g) and the entries sum_nu F(b,c,d,k)[...] F(a,m,d,e)[...]; the
    product adds its terms in the order of the formula.  Route B is the sum
    over the vertex (f h -> e; epp) of two entries gathered into the same
    cells, and the routes are compared cell by cell.

    Quadruples with the unit among a, b, c are skipped: there both routes
    read one entry, F(b,c,d,e), F(a,c,d,e) or F(a,b,d,e) for a, b or c = 0,
    times identity blocks, which the unital gauge makes exact identities, so
    such cells agree exactly.  The other quadruples are checked one block
    size at a time, in order of their column count, in batches of about
    ``_PENTAGON_CELLS`` cells and columns, which bounds the working memory.
    Every F entry is read from the model's F table as the offset of its row
    plus the position of its column, each looked up by the vertex pair of
    its tree; the sub-block candidates of each pair (a, g) are listed once
    per call.  A table entry that is not finite makes the residual NaN.
    """
    quads, fl, start, left, right = _f_blocks(model)
    if not fl.finite:
        return float("nan")
    inner = np.flatnonzero(quads[:, :3].all(axis=1))
    if not len(inner):
        return 0.0
    table, boff, size = fl.table, fl.off, fl.size
    n, N = model.rank, model.N
    counts = N.ravel()
    nv, width = int(counts.sum()), int(N.max())
    off = _run_starts(counts).reshape(N.shape)
    vx, vy, vz = (np.repeat(lab, counts[counts > 0]) for lab in np.nonzero(N))
    mu = np.arange(nv) - off[vx, vy, vz]
    # a left pair of vertices (v, (vz[v] y -> z; mu)) has the key v * K + ykey, a right
    # pair (v, (x vz[v] -> z; mu)) the key v * K + xkey, with ykey = (y * n + z) * width + mu
    # and xkey = (x * n + z) * width + mu: where a row fixes one part of a key and a
    # column the other, the key is their sum
    K = n * n * width
    ykey = (vy * n + vz) * width + mu
    xkey = (vx * n + vz) * width + mu
    # F(q)[row, col] is table[lbase[left pair of row] + rpos[right pair of col]].  A key
    # that no tree has gives `absent`, and a lookup at or past it is clipped onto the zero
    # at the end of the table: the pairs with a vertex that does not exist point there
    absent = len(table)
    q = np.repeat(np.arange(len(quads)), size)
    pos = np.arange(len(q)) - start[q]
    row = boff[q] + pos * size[q]
    a, b, c, d = quads[q].T
    l1 = off[a, b, left[:, 0]] + left[:, 1]
    l2 = off[left[:, 0], c, d] + left[:, 2]
    r1 = off[b, c, right[:, 0]] + right[:, 1]
    r2 = off[a, right[:, 0], d] + right[:, 2]
    del q, a, b, c, d
    lbase = np.full((nv + 1) * K, absent)
    lbase[l1 * K + ykey[l2]] = row
    del row
    rpos = np.full((nv + 1) * K, absent)
    rpos[r1 * K + xkey[r2]] = pos
    # from here on the first vertex of a pair is held as its part of the key
    l1, l2, r1, r2 = l1 * K, l2 * K, r1 * K, r2 * K
    h_key = right[:, 0] * (n * width)
    # vertex (x, y, z; nu) per label triple (x * n + y) * n + z, or nv where nu >= N
    vertex = [np.where(counts > nu, off.ravel() + nu, nv) * K for nu in range(width)]
    # sub-block candidates per label pair a * n + g: the vertices w3 = (g d -> e; ga) and
    # v3 = (a k -> e; ze), by w3, then v3; they are the pairs cfirst[ag]:cfirst[ag] + ccount[ag]
    xcount = np.bincount(vx, minlength=n)
    xz = vx * n + vz
    by_xz = np.argsort(xz, kind="stable")
    xzcount = np.bincount(xz, minlength=n * n)
    ag, w3 = _pairs(np.tile(_run_starts(xcount), n), np.tile(xcount, n))
    ae = ag // n * n + vz[w3]
    i, j = _pairs(_run_starts(xzcount)[ae], xzcount[ae])
    ag, w3, v3 = ag[i], w3[i], by_xz[j]
    ccount = np.bincount(ag, minlength=n * n)
    cfirst = _run_starts(ccount)
    cand_dk = vy[w3] * n + vy[v3]
    cand_y, cand_x, cand_e = ykey[w3], xkey[v3], vz[w3] * width
    del ag, w3, v3, ae, i, j
    # first tree and size of the block per label quadruple ((a * n + b) * n + c) * n + d
    flat4 = ((quads[:, 0] * n + quads[:, 1]) * n + quads[:, 2]) * n + quads[:, 3]
    first = np.zeros(n ** 4, dtype=np.int64)
    first[flat4] = start[:-1]
    dims = np.zeros(n ** 4, dtype=np.int64)
    dims[flat4] = size
    # columns of (a, b, c, g): sum over (d, e) of N[g, d, e] dim Hom(e, abcd)
    ncols = (dims.reshape(-1, n) @ np.tensordot(N, N, axes=([1, 2], [1, 2]))).ravel()[flat4]

    def batch(qs: np.ndarray, rows: int) -> float:
        """max |A - B| over the cells of the quadruples qs, whose blocks all have `rows` rows."""
        qa, qb, qc, qg = quads[qs].T
        # sub-blocks (iq, w3, v3), whose columns are the right trees t = (h, de, ep)
        # of F(b, c, d, k), if any
        iq, j = _pairs(cfirst[qa * n + qg], ccount[qa * n + qg])
        bcdk = ((qb * n + qc) * n * n)[iq] + cand_dk[j]
        sub, t = _pairs(first[bcdk], dims[bcdk])
        # the columns of quadruple iq are its sub-blocks' columns in order;
        # up to nc they are padded with copies of its last column
        cnt = np.bincount(iq[sub], minlength=len(qs))
        nc = int(cnt.max())
        pick = _run_starts(cnt)[:, None] + np.minimum(np.arange(nc), cnt[:, None] - 1)
        sub, t = sub[pick], t[pick]
        # rows: right trees (m, mu, rho) and left trees (f, al, be) of F(a, b, c, g)
        tr = start[qs][:, None] + np.arange(rows)
        # route A: F(a, b, c, g) X, X[(m, mu, rho), column] per sub-block and row first
        y3, dk = cand_y[j], cand_dk[j]
        lab = (right[tr, 0] * n * n)[iq] + dk[:, None]
        zrow = lbase[r2[tr][iq] + y3[:, None]]
        x3 = cand_x[j]
        cells = (sub * rows)[:, None] + np.arange(rows)[:, None]
        col = pos[t][:, None]
        for nu in range(width):
            row = lbase[r1[tr][iq] + (dk * width + nu)[:, None]]
            coef = table.take(zrow + rpos[vertex[nu][lab] + x3[:, None]], mode="clip")
            at = row.ravel()[cells]
            at += col
            term = table.take(at, mode="clip")
            term *= coef.ravel()[cells]
            op = term if nu == 0 else op + term
        del cells, at, term, lab, zrow
        # the product summed over r in order, as the formula adds its terms
        fq = table[boff[qs][:, None] + np.arange(rows * rows)].reshape(len(qs), rows, rows, 1)
        A = fq[:, :, 0] * op[:, :1]
        term = np.empty_like(A)
        for r in range(1, rows):
            A += np.multiply(fq[:, :, r], op[:, r:r + 1], out=term)
        del op
        # route B: sum over (f h -> e; epp) of F(a,b,h,e) F(f,c,d,e)
        e = cand_e[j][sub]
        key1 = l1[tr][:, :, None] + (h_key[t] + e)[:, None]
        key2 = (left[tr, 0] * (n * width))[:, :, None] + (r1[t] + e)[:, None]
        base2 = lbase[l2[tr][:, :, None] + y3[sub][:, None]]
        col = rpos[r2[t] + x3[sub]][:, None]
        for ep in range(width):
            at = lbase[key1 + ep if ep else key1]
            at += col
            term = table.take(at, mode="clip")
            at = rpos[key2 + ep if ep else key2]
            at += base2
            term *= table.take(at, mode="clip")
            B = term if ep == 0 else B + term
        del key1, key2, base2, at, term
        A -= B
        return float(np.max(np.abs(A), initial=0.0))

    worst = 0.0
    for rows in np.flatnonzero(np.bincount(size[inner])).tolist():
        group = inner[size[inner] == rows]
        group = group[np.argsort(ncols[group], kind="stable")]
        # batches with at most _PENTAGON_CELLS cells and columns, or one quadruple
        cost = ncols[group] * (rows + 1)
        lo = 0
        while lo < len(group):
            head = cost[lo:lo + _PENTAGON_CELLS]
            fits = np.searchsorted(head * np.arange(1, len(head) + 1), _PENTAGON_CELLS, side="right")
            hi = lo + max(1, int(fits))
            worst = max(worst, batch(group[lo:hi], rows))
            lo = hi
    return worst


def _unitarity(fl: _Blocks) -> float:
    """max |B B^* - 1| over the blocks B of ``fl``, one stack per block size; NaN if not finite."""
    if not fl.finite:
        return float("nan")
    worst = 0.0
    for m in np.flatnonzero(np.bincount(fl.size)).tolist():
        at = fl.off[fl.size == m]
        S = fl.table[at[:, None] + np.arange(m * m)].reshape(len(at), m, m)
        dev = np.abs(S @ S.conj().transpose(0, 2, 1) - np.eye(m)).max(axis=(1, 2))
        worst = max(worst, float(dev.max()))
    return worst


def f_unitarity_residual(model: CategoryModel) -> float:
    return _unitarity(model._f_table())


def _braid_stacks(Rv, first, rows, cols, k) -> np.ndarray:
    """Stacks [t, g, i, j] = R[rows[t, g, i, k[t]], cols[t, g, j, k[t]]] where the trees
    rows[t, g, i] and cols[t, g, j] agree outside position k[t], else 0.

    R is the block whose transpose starts at row first[t, g, i] of ``Rv``:
    ``Rv[off[x, y, z] + e, e2]`` is R(x, y, z)[e2, e].
    """
    eq = rows[:, :, :, None] == cols[:, :, None]
    t, g, i, j = np.nonzero(eq[..., 0] & np.where((k == 1)[:, None, None, None], eq[..., 2], eq[..., 1]))
    kt = k[t]
    out = np.zeros(eq.shape[:-1], dtype=complex)
    out[t, g, i, j] = Rv[first[t, g, i] + cols[t, g, j, kt], rows[t, g, i, kt]]
    return out


def _group_norm(D: np.ndarray, cols: np.ndarray) -> float:
    """Largest spectral norm over the column groups of the stack D, by the trees cols[g, j][:2].

    D^H D with the entries between groups set to 0 is block diagonal up to a
    permutation: its largest eigenvalue is the largest group norm squared.
    """
    gram = D.conj().transpose(0, 2, 1) @ D
    gram[(cols[:, :, None, 0] != cols[:, None, :, 0]) | (cols[:, :, None, 1] != cols[:, None, :, 1])] = 0
    return float(np.sqrt(max(float(np.linalg.eigvalsh(gram).max(initial=0.0)), 0.0)))


def hexagon_residual(model: CategoryModel) -> float:
    """Naturality of the composite word braiding against all trivalent vertices.

    Checks eps(a, y1 y2)(1_a x T) = (T x 1_a) eps(a, h) and its mirror
    eps(y1 y2, a)(T x 1_a) = (1_a x T) eps(h, a) for every vertex
    T = T^{y1 y2 -> h}_g; together with unitarity these are the hexagon
    identities.  Both are evaluated on the F and R blocks of each
    (a, y1, y2, c) with trees, F_a = F(a,y1,y2,c), F_m = F(y1,a,y2,c) and
    F_r = F(y1,y2,a,c), in their left trees (s, e, f) and right trees
    (t, g, h).  On the columns (h, g, k) of the right trees of Hom(c, a y1 y2)::

        B1[(s,e',f), (s,e,f)] = R(a,y1,s)[e',e]    eps(a, y1) x 1_y2 on left trees
        B2[(t,g',h), (t,g,h)] = R(a,y2,t)[g',g]    1_y1 x eps(a, y2) on right trees
        F_r B2 F_m^* B1 F_a = RHS,   RHS[(h,g,f), (h,g,k)] = R(a,h,c)[f,k]

    With B1' = eps(y1, a) x 1_y2 and B2' = 1_y1 x eps(y2, a), that is R(y1,a,s)
    and R(y2,a,t) on the transposed positions, the mirror reads on the
    columns (h, g, k) of the left trees of Hom(c, y1 y2 a)::

        B1' F_m B2' F_r^* = F_a X,   X[(h,g,f), (h,g,k)] = R(h,a,c)[f,k]

    The residual of a vertex (h, g) is the spectral norm of the difference
    on its column group, and the result is the largest over all of them.
    Quadruples are stacked by block size, ``_HEXAGON_ENTRIES`` entries per
    stack, and each product is batched in the order written.  F and R are
    read from the model's tables; an entry of either that is not finite
    makes the residual NaN.
    """
    quads, fl, start, left, right = _f_blocks(model)
    rb = model._r_table()
    if not (fl.finite and rb.finite):
        return float("nan")
    N = model.N
    counts = N.ravel()
    off = (np.cumsum(counts) - counts).reshape(N.shape)
    # Rv[off[x, y, z] + e, e2] = R(x, y, z)[e2, e], and 0 for e2 >= N[x, y, z]
    width = int(N.max())
    q = np.repeat(np.arange(len(rb.size)), rb.size)
    m = rb.size[q][:, None]
    e = np.arange(len(q)) - off.ravel()[counts > 0][q]
    at = rb.off[q][:, None] + np.arange(width) * m + e[:, None]
    Rv = rb.table.take(np.where(np.arange(width) < m, at, len(rb.table)), mode="clip")
    index = np.zeros(N.shape + N.shape[:1], dtype=np.int64)
    index[tuple(quads.T)] = np.arange(len(quads))
    worst = 0.0
    for m in np.flatnonzero(np.bincount(fl.size)).tolist():
        group = np.flatnonzero(fl.size == m)
        step = max(1, _HEXAGON_ENTRIES // (m * m))
        for qa in (group[s:s + step] for s in range(0, len(group), step)):
            a, y1, y2, c = quads[qa].T
            qs = np.stack([qa, index[y1, a, y2, c], index[y1, y2, a, c]])
            FA, FM, FR = fl.table[fl.off[qs][..., None] + np.arange(m * m)].reshape(3, len(qa), m, m)
            tr = start[qs][..., None] + np.arange(m)
            (A, Lm, Lr), (Ra, Rm, Rr) = left[tr], right[tr]
            a, y1, y2, c = a[:, None], y1[:, None], y2[:, None], c[:, None]
            # B1, B2, RHS and their mirrors, on the trees of F_m, F_r, F_r, F_a, F_m, F_a
            first = [off[a, y1, Lm[..., 0]], off[a, y2, Rr[..., 0]], off[a, Lr[..., 0], c],
                     off[y1, a, A[..., 0]], off[y2, a, Rm[..., 0]], off[Ra[..., 0], a, c]]
            B1, B2, rhs, B1m, B2m, rhsm = _braid_stacks(
                Rv, np.stack(first), np.stack([Lm, Rr, Lr, A, Rm, Ra]),
                np.stack([A, Rm, Ra, Lm, Rr, Lr]), np.array([1, 1, 2, 1, 1, 2]))
            lhs = FR @ B2 @ FM.conj().transpose(0, 2, 1) @ B1 @ FA
            worst = max(worst, _group_norm(lhs - rhs, Ra))
            lhs = B1m @ FM @ B2m @ FR.conj().transpose(0, 2, 1)
            worst = max(worst, _group_norm(lhs - FA @ rhsm, Lr))
    return worst


def r_unitarity_residual(model: CategoryModel) -> float:
    return _unitarity(model._r_table())


def conjugate_residual(model: CategoryModel) -> float:
    """Max violation of the two conjugate equations over all sectors.

    For a simple lam both sides of each are scalars on it.  With (f, coeff)
    of :func:`_duality_coefficient`, (1 x r*)(rbar x 1) = conj(coeff f), which
    coeff makes 1 / d_lam up to rounding, and (1 x rbar*)(r x 1) = coeff conj(g),
    g = F(conj(lam), lam, conj(lam); conj(lam)) between the trees through the
    unit, which is 1 / d_lam when g = conj(f).  The unit sector satisfies both
    exactly.  An F table entry that is not finite makes the residual NaN.
    """
    if not model._f_finite():
        return float("nan")
    dev = []
    for lam in range(1, model.rank):
        lamd = int(model.dual[lam])
        f, coeff = _duality_coefficient(model, lam)
        g = model.F(lamd, lam, lamd, lamd)[0, 0]
        want = 1.0 / model.qdim[lam]
        dev += [abs(np.conj(coeff * f) - want), abs(coeff * np.conj(g) - want)]
    return float(np.max(dev, initial=0.0))


@dataclass
class CategoryReport:
    """Coherence check outcome for a loaded category model."""

    fusion_ok: bool
    fusion_violations: list
    pentagon: float
    f_unitarity: float
    conjugates: float
    hexagon: float | None
    r_unitarity: float | None
    tol: float

    @property
    def ok(self) -> bool:
        vals = [self.pentagon, self.f_unitarity, self.conjugates]
        if self.hexagon is not None:
            vals += [self.hexagon, self.r_unitarity]
        return self.fusion_ok and all(v < self.tol for v in vals)

    def residuals(self) -> dict:
        out = {"pentagon": self.pentagon, "f_unitarity": self.f_unitarity,
               "conjugate_equations": self.conjugates}
        if self.hexagon is not None:
            out["hexagon"] = self.hexagon
            out["r_unitarity"] = self.r_unitarity
        return out


def validate_category(model: CategoryModel, tol: float = 1e-9) -> CategoryReport:
    """Fusion axioms plus pentagon / unitarity / duality (and hexagon if braided).

    Every check reads the model's F and R tables, each built once per call
    (:meth:`CategoryModel._held`).  Data that is not finite gives non-finite
    residuals, so the report is not ``ok``.
    """
    model = model._held()
    frep = validate_fusion(model.fusion)
    hexa = r_uni = None
    if model.braided:
        hexa = hexagon_residual(model)
        r_uni = r_unitarity_residual(model)
    return CategoryReport(
        fusion_ok=frep.ok,
        fusion_violations=frep.violations,
        pentagon=pentagon_residual(model),
        f_unitarity=f_unitarity_residual(model),
        conjugates=conjugate_residual(model),
        hexagon=hexa,
        r_unitarity=r_uni,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# derived models


def mirror(model: CategoryModel) -> CategoryModel:
    """Antilinear opposite of the category: conjugated F and R data.

    This is the model of the opposite system: the canonical functor sending
    an intertwiner T to its opposite is antilinear and maps tree bases to
    tree bases, so all structure constants conjugate.
    """
    f = lambda a, b, c, d: np.conj(model.F(a, b, c, d))
    r = (lambda a, b, c: np.conj(model.R(a, b, c))) if model.braided else None
    return CategoryModel(model.fusion, f, r, name=model.name + "_op")


class ProductModel(CategoryModel):
    """Deligne product of two category models; labels are packed pairs.

    F and R blocks are made from the factors' on demand.  The product holds
    no F table and keeps no F block: its whole table grows quadratically with
    the factors' (E7's Q-system reads 178,385 blocks), so :meth:`f_stack`
    reads each batch from the factors' tables, and :meth:`F` makes one block.
    Both take F1 (x) F2 and reorder its rows and columns into the product's
    tree order (:meth:`_tree_map`).
    """

    def __init__(self, m1: CategoryModel, m2: CategoryModel, name=""):
        n1, n2 = m1.rank, m2.rank
        names = [f"{a}|{b}" for a in m1.fusion.names for b in m2.fusion.names]
        dual = np.array([int(m1.dual[i]) * n2 + int(m2.dual[j])
                         for i in range(n1) for j in range(n2)])
        N = np.einsum("ikm,jln->ijklmn", m1.N, m2.N).reshape(n1 * n2, n1 * n2, n1 * n2)
        qd = np.array([m1.qdim[i] * m2.qdim[j] for i in range(n1) for j in range(n2)])
        fusion = FusionData(names, dual, N, qd)
        self.factors = (m1, m2)
        self._n2 = n2
        self._base = int(max(m1.N.max(), m2.N.max()))  # bounds every e and f of a tree
        super().__init__(fusion, None, name=name or f"{m1.name}(x){m2.name}")
        self.braided = m1.braided and m2.braided

    def pack(self, i: int, j: int) -> int:
        return i * self._n2 + j

    def unpack(self, k: int) -> tuple:
        return divmod(k, self._n2)

    def _f_table(self) -> _Blocks:
        """The product's F table, built through :meth:`f_stack`, one block size at a time."""
        quads, size, _ = _tree_counts(self.N)
        blocks = [None] * len(quads)
        for n in set(size.tolist()):
            at = np.flatnonzero(size == n)
            for q, B in zip(at.tolist(), self.f_stack(quads[at])):
                blocks[q] = B
        return _Blocks(quads, blocks, size, self.rank)

    def _f_finite(self) -> bool:
        # the product's F entries are products of the factors' entries, and each
        # factor entry is one of them, times the other factor's unit block [1]
        return all(m._f_finite() for m in self.factors)

    def R(self, a, b, c) -> np.ndarray:
        """R1 (x) R2: with one vertex, Kronecker order is the product's."""
        m1, m2 = self.factors
        (a1, a2), (b1, b2), (c1, c2) = map(self.unpack, (a, b, c))
        R1, R2 = m1.R(a1, b1, c1), m2.R(a2, b2, c2)
        n = len(R1) * len(R2)
        return (R1[:, None, :, None] * R2[None, :, None, :]).reshape(n, n)

    def _r_table(self) -> _Blocks:
        if not self.braided:
            raise UnsupportedOperationError("category carries no braiding")
        return _build_r_table(self, self.R)

    def _held(self) -> CategoryModel:
        """A base model over this product's F and R tables, built once each,
        for a caller that runs several checks and then drops it."""
        held = CategoryModel(self.fusion, None, name=self.name)
        held._f, held.braided = self._f_table(), self.braided
        if self.braided:
            held._r = self._r_table()
        return held

    def _tree_map(self, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
        """(rows, cols): for each pair of factor label rows of ``q1`` and
        ``q2``, the row of F1 (x) F2 that holds each left tree of their
        product's F, and the column that holds each right tree, in tree
        order.  The pairs must share their factor block sizes.

        The left trees j1 = (s1, e1, f1) of F1 and j2 = (s2, e2, f2) of F2
        make the product's left tree (s, e, f) with s = pack(s1, s2),
        e = e1 n2_e + e2 and f = f1 n2_f + f2, where n2_e and n2_f are F2's
        multiplicities at its two vertices; F1 (x) F2 holds it in row
        j1 size(F2) + j2.  The product's trees are in lexicographic order,
        that is in the order of (s1, s2, e1, e2, f1, f2): the order of the
        sum of a key of j1 and a key of j2.  Right trees likewise.
        """
        b = self._base
        keys = []
        for m, q, (ks, ke, kf) in zip(self.factors, (q1, q2),
                                      ((self._n2 * b ** 4, b ** 3, b), (b ** 4, b ** 2, 1))):
            left, right = _tree_rows(m.N, *q.T)
            _, s, e, f = _trees(*map(np.concatenate, zip(left, right)))
            keys.append((s * ks + e * ke + f * kf).reshape(2, len(q), -1))
        key = keys[0][..., :, None] + keys[1][..., None, :]
        return np.argsort(key.reshape(2, len(q1), -1), axis=2)

    def F(self, a, b, c, d) -> np.ndarray:
        """F1 (x) F2, with rows and columns in the product's tree order.

        The factors' F checks associativity, shapes and the unit gauge, so
        they hold for the product too.
        """
        q1, q2 = np.divmod(np.array([[a, b, c, d]]), self._n2)
        F1, F2 = (m.F(*q[0].tolist()) for m, q in zip(self.factors, (q1, q2)))
        n = len(F1) * len(F2)
        (rows,), (cols,) = self._tree_map(q1, q2)
        return (F1[:, None, :, None] * F2[None, :, None, :]).reshape(n, n)[rows[:, None], cols]

    def f_stack(self, quads: np.ndarray) -> np.ndarray:
        """F at each label row of ``quads`` (blocks of one size), as one stack.

        The factor blocks are gathered from the factors' tables, one stack per
        pair of factor block sizes, multiplied out entry by entry and
        reordered as :meth:`F` does.
        """
        t1, t2 = (m._f_table() for m in self.factors)
        q1, q2 = np.divmod(quads, self._n2)
        b1, b2 = t1.find(q1), t2.find(q2)
        s1 = t1.size[b1]
        n = int(s1[0] * t2.size[b2[0]])
        parts = []
        for k1 in set(s1.tolist()):
            at = np.flatnonzero(s1 == k1)
            rows, cols = self._tree_map(q1[at], q2[at])
            # entry (i, j) of block r is entry (r n + rows[r, i]) n + cols[r, j]
            # of the raveled stack of F1 (x) F2
            rows += np.arange(len(at))[:, None] * n
            F1, F2 = t1.stack(b1[at], k1), t2.stack(b2[at], n // k1)
            kron = (F1[:, :, None, :, None] * F2[:, None, :, None, :]).reshape(-1)
            parts.append((at, kron[rows[:, :, None] * n + cols[:, None, :]]))
        del kron  # not kept while out is filled: that bounds the peak memory
        out = np.empty((len(quads), n, n), dtype=complex)
        for at, blocks in parts:
            out[at] = blocks
        return out


def deligne_product(m1: CategoryModel, m2: CategoryModel, name="") -> ProductModel:
    return ProductModel(m1, m2, name=name)
