"""Affine pavings of isotropic Grassmannians with respect to an isotropic
flag, built by recursion on the ambient dimension.

The recursion picks an isotropic line L (inside the radical when the form
is degenerate, inside the first flag member otherwise) and splits

    X1 = {H : L in H}             ~ Gr_{k-1}(W)^iso
    X2 = {H : L not in H <= Lp}   ~ rank-k vector bundle over Gr_k(W)^iso
    X3 = {H : H not <= Lp}        ~ affine bundle over the X2-analogue in
                                    dimension k-1 (nondegenerate case only)

where W = {x in Lp : x_c = 0}, for Lp = L^perp and c the pivot of L, is
the complement of L that ``bilinear.subquotient`` takes: a vector v of Lp
has W-coordinates v - v_c L, read at W's pivots.  L, W and the flag's
image in W do not depend on k, so a paving is a chain of levels
(space, flag) -> (W, flag in W) -> ..., each computing its step once and
shared by every k.
Pieces carry their affine dimension and the vector of intersection
dimensions with the flag; a stack of points is classified by replaying the
case split on all of them at once.

For degenerate forms with flag members outside the radical, the
intersection vector need not be constant on the X2 pieces (the recursion
has no good choice of L there); flags inside the radical, and all flags on
nondegenerate spaces, are fully supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _batch
from .bilinear import (
    SKEW,
    SYMMETRIC,
    BilinearSpace,
    check_standard_type,
    pairing,
    perp,
    quotient_coords,
    radical,
    subquotient,
)
from .linalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Subspace,
    enumerate_subspaces,
    full_subspace,
    span,
    subspace_intersect,
    subspace_total,
)
from .polynomials import IntPolynomial, gaussian_binomial, monomial


@dataclass(frozen=True)
class PavingPiece:
    piece_id: str
    affine_dim: int
    invariants: tuple[int, ...]


class NotIsotropic(Exception):
    pass


class Paving:
    """Ordered affine pavings of Gr_k(space)^iso relative to a flag, for
    every k: one level of the recursion, whose step holds the next level.
    The step and the pieces of each k are computed once, on first use, so
    k = 0 and k > n never build the step."""

    def __init__(self, space: BilinearSpace, flag: tuple[Subspace, ...]):
        self.space = space
        self.flag = flag
        self._pieces: dict[int, list[PavingPiece]] = {}

    @cached_property
    def step(self) -> _Step | None:
        """None when the space has no isotropic line."""
        space, flag, p = self.space, self.flag, self.space.p
        line = _choose_line(space, flag)
        if line is None:
            return None
        lspan = span(line.reshape(1, -1), space.n, p)
        w_rows, w_space = subquotient(space, lspan, perp(space, lspan))
        w_pivots = np.argmax(w_rows != 0, axis=1)
        flag_w = tuple(span(quotient_coords(m.basis, lspan, w_pivots), w_space.n, p) for m in flag)
        return _Step(
            space.gram @ line % p,
            lspan,
            w_pivots,
            tuple(int(m.contains(lspan)) for m in flag),
            Paving(w_space, flag_w),
        )

    def pieces(self, k: int) -> list[PavingPiece]:
        if k not in self._pieces:
            self._pieces[k] = self._split(k)
        return self._pieces[k]

    def count_polynomial(self, k: int) -> IntPolynomial:
        total = IntPolynomial([])
        for piece in self.pieces(k):
            total = total + monomial(piece.affine_dim)
        return total

    def _split(self, k: int) -> list[PavingPiece]:
        space = self.space
        if k == 0:
            return [PavingPiece("o", 0, (0,) * len(self.flag))]
        if k < 0 or k > space.n or self.step is None:
            return []  # an anisotropic space has no isotropic subspaces of dim >= 1
        step = self.step
        small, same = step.sub.pieces(k - 1), step.sub.pieces(k)
        pieces = [
            PavingPiece(
                "1." + sp.piece_id,
                sp.affine_dim,
                tuple(d + l_in for d, l_in in zip(sp.invariants, step.l_in_flag)),
            )
            for sp in small
        ]
        pieces += [PavingPiece("2." + sp.piece_id, sp.affine_dim + k, sp.invariants) for sp in same]
        if space.is_nondegenerate() and small:
            # W (dimension n - 2) holds an isotropic (k-1)-space, so
            # 2(k - 1) <= n - 2 and the fiber rank is at least 0
            fiber = space.n - 2 * k + (1 if space.form_type == SKEW else 0)
            pieces += [
                PavingPiece("3." + sp.piece_id, sp.affine_dim + (k - 1) + fiber, sp.invariants)
                for sp in small
            ]
        return pieces

    def classify(self, mats: np.ndarray) -> np.ndarray:
        """Piece indices of a stack of isotropic k-subspaces, k = mats.shape[1].

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
        mats = mats % p
        if (_batch.batch_rank(mats.copy(), p) != mats.shape[1]).any():
            raise ValueError("basis rows are dependent")
        if not _batch.isotropic_filter(mats, space.terms, p).all():
            raise NotIsotropic("subspace is not isotropic")
        return self._route(mats)

    def _route(self, mats: np.ndarray) -> np.ndarray:
        """Piece indices of a stack (N, k, n) of bases of isotropic subspaces,
        reduced mod p.

        Items are routed down the chain in masked sub-stacks.  The
        W-coordinates of a basis of H <= Lp span its image in W.
        """
        p = self.space.p
        out = np.zeros(len(mats), dtype=np.int64)
        k = mats.shape[1]
        if k == 0 or not len(mats):
            return out
        # only isotropic items arrive, so k >= 1 means this level has its line
        step = self.step
        sub = step.sub
        len1 = len(sub.pieces(k - 1))
        vals = mats @ step.gram_line % p  # <row, L> for each basis row
        off = vals.any(axis=1)  # H not in Lp: X3
        on = np.flatnonzero(~off)
        if on.size:
            # An isotropic H <= Lp contains L iff its W-coordinates have rank
            # k - 1 (X1), and then the leading rows of their RREF span its
            # image; otherwise the image has dimension k (X2).
            w = quotient_coords(mats[on], step.line, step.w_pivots)
            has_l = _batch.batch_rank(w, p) < k
            out[on[has_l]] = sub._route(w[has_l, : k - 1])
            out[on[~has_l]] = len1 + sub._route(w[~has_l])
        if off.any():
            # H cap Lp is spanned by v_j row_i - v_i row_j (i != j), for the
            # first row j with v_j != 0; it misses L, as H is not in Lp
            h, v = mats[off], vals[off]
            j = np.argmax(v != 0, axis=1)
            ar = np.arange(len(h))
            f = (v[ar, j][:, None, None] * h - v[:, :, None] * h[ar, j][:, None, :]) % p
            f = f[np.arange(k)[None, :] != j[:, None]].reshape(len(h), k - 1, h.shape[2])
            w = quotient_coords(f, step.line, step.w_pivots)
            out[off] = len1 + len(sub.pieces(k)) + sub._route(w)
        return out


def build_paving(space: BilinearSpace, flag=()) -> Paving:
    """The paving of ``space`` relative to ``flag``, nested isotropic
    subspaces: the one place the flag is checked."""
    flag = tuple(flag)
    prev = None
    for m in flag:
        if m.n != space.n or m.p != space.p:
            raise ValueError("flag member lives in the wrong space")
        if pairing(space, m.basis, m.basis).any():
            raise NotIsotropic("flag member is not isotropic")
        if prev is not None and not m.contains(prev):
            raise ValueError("flag members are not nested")
        prev = m
    return Paving(space, flag)


@dataclass(frozen=True)
class _Step:
    """The case split at a level, for every k."""

    gram_line: np.ndarray  # <v, L> = v @ gram_line
    line: Subspace  # L
    w_pivots: np.ndarray  # with L, they read W-coordinates by quotient_coords
    l_in_flag: tuple[int, ...]  # 1 for each flag member that contains L
    sub: Paving  # W with the W-coordinates of the flag


def _choose_line(space: BilinearSpace, flag) -> np.ndarray | None:
    """An isotropic line, or None: in the form's radical when there is one."""
    if not space.is_nondegenerate():
        rad = radical(space, full_subspace(space.n, space.p))
        for m in flag:
            meet = subspace_intersect(rad, m)
            if meet.dim:
                return meet.basis[0].copy()
        return rad.basis[0].copy()
    for m in flag:
        if m.dim:
            return m.basis[0].copy()
    lines = enumerate_subspaces(space.n, 1, space.p, budget=None)
    line = next((h for h in lines if not pairing(space, h.basis, h.basis).any()), None)
    return None if line is None else line.basis[0].copy()


# ---------------------------------------------------------------------------
# Count polynomials of isotropic Grassmannians
# ---------------------------------------------------------------------------

def iso_grassmannian_count(form_type: str, n: int, k: int) -> IntPolynomial:
    """Point-count polynomial of Gr_k^iso of the split standard form, by the
    classical product formula (Taylor, The Geometry of the Classical Groups,
    1992; Wan, Geometry of Classical Groups over Finite Fields, 1993): with
    Witt index m,

        Sp_{2m}, O_{2m+1}:  [m, k]_q * prod_{i=m-k+1}^{m} (q^i + 1)
        split O_{2m}:       [m, k]_q * prod_{i=m-k}^{m-1} (q^i + 1)

    and 0 for k < 0 or k > m.  It builds no form and no paving; the paving's
    own count polynomial is the same (tests/test_paving.py checks both).
    """
    check_standard_type(form_type, n)
    m = n // 2
    if not 0 <= k <= m:
        return IntPolynomial([])
    shift = 0 if form_type == SYMMETRIC and n % 2 == 0 else 1
    total = gaussian_binomial(m, k)
    for i in range(m - k + shift, m + shift):
        total = total * (monomial(i) + IntPolynomial([1]))
    return total


def isotropic_bases(space: BilinearSpace, k: int, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """The RREF bases of all isotropic k-subspaces, one (N, k, n) int32 stack
    in enumeration order: (0, k, n) when there are none, (1, 0, n) at k = 0.

    The budget is checked at the call.  The isotropy test runs on each walk
    chunk of 2^14 candidate bases as it is made.
    """
    n, p = space.n, space.p
    total = BudgetExceeded.check(subspace_total(n, k, p), budget)
    chunks = (_batch.pattern_matrices(n, k, p, *chunk)
              for chunk in _batch.iter_chunks(n, k, p, 0, total, 1 << 14))
    return np.concatenate([np.zeros((0, k, n), dtype=np.int32),
                           *(mats[_batch.isotropic_filter(mats, space.terms, p)] for mats in chunks)])


def isotropic_subspaces(
    space: BilinearSpace, k: int, budget: int | None = DEFAULT_BUDGET
):
    """All isotropic k-subspaces, in enumeration order."""
    for mat in isotropic_bases(space, k, budget=budget):
        yield Subspace(mat, space.n, space.p)  # pattern matrices are already RREF
