"""Affine pavings of isotropic Grassmannians with respect to an isotropic
flag, built by recursion on the ambient dimension.

The recursion picks an isotropic line L (inside the radical when the form
is degenerate, inside the first flag member otherwise) and splits

    X1 = {H : L in H}             ~ Gr_{k-1}(W)^iso
    X2 = {H : L not in H <= Lp}   ~ rank-k vector bundle over Gr_k(W)^iso
    X3 = {H : H not <= Lp}        ~ affine bundle over the X2-analogue in
                                    dimension k-1 (nondegenerate case only)

where W is a complement of L in Lp = L^perp.  Pieces carry their affine
dimension and the vector of intersection dimensions with the flag; a stack
of points is classified by replaying the case split on all of them at once.

For degenerate forms with flag members outside the radical, the
intersection vector need not be constant on the X2 pieces (the recursion
has no good choice of L there); flags inside the radical, and all flags on
nondegenerate spaces, are fully supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _batch
from .bilinear import SKEW, BilinearSpace, pairing, perp, standard_space, subquotient
from .linalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    RowSolver,
    Subspace,
    left_kernel,
    span,
    subspace_intersect,
    subspace_total,
    zero_subspace,
)
from .polynomials import IntPolynomial, monomial


@dataclass(frozen=True)
class PavingPiece:
    piece_id: str
    affine_dim: int
    invariants: tuple[int, ...]


class NotIsotropic(Exception):
    pass


class Paving:
    """Ordered affine paving of Gr_k(space)^iso relative to a flag."""

    def __init__(self, space: BilinearSpace, k: int, flag: tuple[Subspace, ...]):
        _validate_flag(space, flag)
        self.space = space
        self.k = k
        self.flag = flag
        self._root = _build_node(space, k, flag)
        self.pieces: list[PavingPiece] = self._root.pieces

    def count_polynomial(self) -> IntPolynomial:
        total = IntPolynomial([])
        for piece in self.pieces:
            total = total + monomial(piece.affine_dim)
        return total

    def classify(self, mats: np.ndarray) -> np.ndarray:
        """Piece indices of a stack of isotropic k-subspaces.

        ``mats`` has shape (N, k, n): one full-rank basis per subspace, not
        necessarily RREF, as for ``_batch.classify_batch``.  Raises ValueError
        on a wrong shape or dependent rows, and NotIsotropic if any item is
        not isotropic.
        """
        space = self.space
        p = space.p
        mats = np.asarray(mats, dtype=np.int64)
        if mats.ndim != 3 or mats.shape[2] != space.n:
            raise ValueError("subspace lives in the wrong space")
        if mats.shape[1] != self.k:
            raise ValueError(f"expected dimension {self.k}, got {mats.shape[1]}")
        mats = mats % p
        if (_batch.batch_rank(mats.copy(), p) != self.k).any():
            raise ValueError("basis rows are dependent")
        if not _batch.isotropic_filter(mats, space.gram, p).all():
            raise NotIsotropic("subspace is not isotropic")
        return self._root.classify(mats, p)


def build_paving(space: BilinearSpace, k: int, flag=()) -> Paving:
    return Paving(space, k, tuple(flag))


def _validate_flag(space: BilinearSpace, flag):
    prev = None
    for m in flag:
        if m.n != space.n or m.p != space.p:
            raise ValueError("flag member lives in the wrong space")
        if pairing(space, m.basis, m.basis).any():
            raise NotIsotropic("flag member is not isotropic")
        if prev is not None and not m.contains(prev):
            raise ValueError("flag members are not nested")
        prev = m


class _Node:
    __slots__ = (
        "kind", "pieces", "k", "gram_line", "solver", "sub_small", "sub_same", "len1", "len2",
    )

    def classify(self, mats: np.ndarray, p: int) -> np.ndarray:
        """Piece indices of a stack (N, k, n) of bases of isotropic subspaces.

        Items are routed down the tree in masked sub-stacks.  ``solver``
        writes a vector of Lp in the basis [L; W], so the W-coordinates of a
        basis of H <= Lp span its image in W.
        """
        out = np.zeros(len(mats), dtype=np.int64)
        if self.kind == "leaf" or not len(mats):
            return out
        if self.kind == "empty":
            raise AssertionError("no pieces to classify into")
        k = self.k
        vals = mats @ self.gram_line % p  # <row, L> for each basis row
        off = vals.any(axis=1)  # H not in Lp: X3
        on = np.flatnonzero(~off)
        if on.size:
            # An isotropic H <= Lp contains L iff its W-coordinates have rank
            # k - 1 (X1), and then the leading rows of their RREF span its
            # image; otherwise the image has dimension k (X2).
            w = np.ascontiguousarray(self.solver.solve_rows(mats[on])[:, :, 1:])
            has_l = _batch.batch_rank(w, p) < k
            out[on[has_l]] = self.sub_small.classify(w[has_l, : k - 1], p)
            out[on[~has_l]] = self.len1 + self.sub_same.classify(w[~has_l], p)
        if off.any():
            # H cap Lp is spanned by v_j row_i - v_i row_j (i != j), for the
            # first row j with v_j != 0; it misses L, as H is not in Lp
            h, v = mats[off], vals[off]
            j = np.argmax(v != 0, axis=1)
            ar = np.arange(len(h))
            f = (v[ar, j][:, None, None] * h - v[:, :, None] * h[ar, j][:, None, :]) % p
            f = f[np.arange(k)[None, :] != j[:, None]].reshape(len(h), k - 1, h.shape[2])
            w = self.solver.solve_rows(f)[:, :, 1:]
            out[off] = self.len1 + self.len2 + self.sub_small.classify(w, p)
        return out


def _choose_line(space: BilinearSpace, flag, rad_rows: np.ndarray) -> np.ndarray | None:
    """An isotropic line, or None; ``rad_rows`` spans the form's radical."""
    if rad_rows.shape[0]:
        rad = span(rad_rows, space.n, space.p)
        for m in flag:
            meet = subspace_intersect(rad, m)
            if meet.dim:
                return meet.basis[0].copy()
        return rad.basis[0].copy()
    for m in flag:
        if m.dim:
            return m.basis[0].copy()
    line = next(isotropic_subspaces(space, 1, budget=None), None)
    return None if line is None else line.basis[0].copy()


def _build_node(space: BilinearSpace, k: int, flag) -> _Node:
    node = _Node()
    node.k = k
    c = len(flag)
    if k == 0:
        node.kind = "leaf"
        node.pieces = [PavingPiece("o", 0, (0,) * c)]
        return node
    if k > space.n or space.n == 0:
        node.kind = "empty"
        node.pieces = []
        return node
    rad_rows = left_kernel(space.gram, space.p)
    line = _choose_line(space, flag, rad_rows)
    if line is None:
        # anisotropic nondegenerate space: no isotropic subspaces of dim >= 1
        node.kind = "empty"
        node.pieces = []
        return node

    p = space.p
    node.kind = "branch"
    node.gram_line = space.gram @ line % p
    lspan = span(line.reshape(1, -1), space.n, p)
    w_rows, w_space = subquotient(space, lspan, perp(space, lspan))
    node.solver = RowSolver(np.vstack([line.reshape(1, -1), w_rows]), p)
    w_dim = w_rows.shape[0]

    flag_w = []
    l_in_flag = []
    for m in flag:
        l_in_flag.append(m.contains_vector(line))
        if m.dim:
            coords = node.solver.solve_rows(m.basis)
            flag_w.append(span(coords[:, 1:], w_dim, p))
        else:
            flag_w.append(zero_subspace(w_dim, p))
    flag_w = tuple(flag_w)

    node.sub_small = _build_node(w_space, k - 1, flag_w)
    node.sub_same = _build_node(w_space, k, flag_w)

    pieces: list[PavingPiece] = []
    for sp in node.sub_small.pieces:
        inv = tuple(
            d + (1 if l_in else 0) for d, l_in in zip(sp.invariants, l_in_flag)
        )
        pieces.append(PavingPiece("1." + sp.piece_id, sp.affine_dim, inv))
    node.len1 = len(pieces)
    for sp in node.sub_same.pieces:
        pieces.append(PavingPiece("2." + sp.piece_id, sp.affine_dim + k, sp.invariants))
    node.len2 = len(pieces) - node.len1

    if not rad_rows.shape[0]:
        fiber = space.n - 2 * k + (1 if space.form_type == SKEW else 0)
        if node.sub_small.pieces:
            if fiber < 0:
                raise AssertionError("negative fiber rank with nonempty base")
            for sp in node.sub_small.pieces:
                pieces.append(
                    PavingPiece(
                        "3." + sp.piece_id, sp.affine_dim + (k - 1) + fiber, sp.invariants
                    )
                )
    node.pieces = pieces
    return node


# ---------------------------------------------------------------------------
# Count polynomials of isotropic Grassmannians
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def iso_grassmannian_count(form_type: str, n: int, k: int) -> IntPolynomial:
    """Point-count polynomial of Gr_k^iso of the split standard form.

    The paving recursion of a split form has the same shape over every odd
    prime, so the sum of q^dim over its pieces is a single polynomial; the
    reference construction uses p = 3.
    """
    space = standard_space(form_type, n, 3)
    return build_paving(space, k).count_polynomial()


def space_iso_count(space: BilinearSpace, k: int) -> IntPolynomial:
    """Piece-count polynomial of Gr_k(space)^iso for this specific space.

    Correct as a point count at the space's own prime; transferable across
    primes only for split forms.
    """
    return build_paving(space, k).count_polynomial()


def isotropic_bases(space: BilinearSpace, k: int, budget: int | None = DEFAULT_BUDGET):
    """Stacks (N, k, n) of the RREF bases of all isotropic k-subspaces, one
    per walk chunk that has any, in enumeration order.

    The isotropy test runs on each chunk of candidate bases at once.
    """
    n, p = space.n, space.p
    total = subspace_total(n, k, p)
    if budget is not None and total > budget:
        raise BudgetExceeded(total, budget)
    gram = np.asarray(space.gram)
    chunk, held, size = 1 << 14, [], 0
    for pattern, lo, hi in _batch.iter_chunks(n, k, p, 0, total, chunk):
        mats = _batch.pattern_matrices(n, k, p, pattern, lo, hi)
        held.append(mats[_batch.isotropic_filter(mats, gram, p)])
        size += len(held[-1])
        if size >= chunk:
            yield np.concatenate(held)
            held, size = [], 0
    if size:
        yield np.concatenate(held)


def isotropic_subspaces(
    space: BilinearSpace, k: int, budget: int | None = DEFAULT_BUDGET
):
    """All isotropic k-subspaces, in enumeration order."""
    for mats in isotropic_bases(space, k, budget=budget):
        for mat in mats:
            yield Subspace(mat, space.n, space.p)  # pattern matrices are already RREF
