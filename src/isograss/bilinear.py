"""Bilinear spaces over F_p: symmetric or alternating Gram matrices,
orthogonal complements, radicals, subquotients U/L with their induced
forms, the four-summand Witt splits adapted to a stack of subspaces
(``witt_decompose``, the only place a split is built: its basis is put in
block normal form once, there, by ``_batch.congruence_normal``), and a
constructive isometry transporter that reads two stacks of splits and maps
each basis onto its partner.

Everything is for odd p, so 2 is invertible and symmetric forms
diagonalize.  Over F_p, unlike over an algebraically closed field, two
nondegenerate symmetric forms of equal dimension split into two isometry
classes by discriminant; the transporter surfaces that obstruction as
DiscriminantMismatch instead of working around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _batch
from .linalg import (
    Subspace,
    as_prime,
    complement_rows,
    full_subspace,
    inv_mod,
    kernel_span,
    left_kernel,
    rank_mod,
    span,
)

SYMMETRIC = "symmetric"
SKEW = "skew"


class DiscriminantMismatch(Exception):
    """The restricted forms are not isometric over this prime field."""


class InvariantMismatch(Exception):
    """Subspaces with different (dim, rank) invariants cannot be transported."""


@dataclass(frozen=True, eq=False)
class BilinearSpace:
    """F_p^n with a symmetric or skew-symmetric Gram matrix.

    ``witness`` is a maximal isotropic subspace; it is required whenever the
    form is symmetric, nondegenerate and n is even, because the two families
    of maximal isotropics are told apart by intersection parity against it.
    """

    n: int
    p: int
    form_type: str
    gram: np.ndarray
    witness: Subspace | None = None

    def __post_init__(self):
        g = np.ascontiguousarray(self.gram, dtype=np.int64) % self.p
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        if g.shape != (self.n, self.n):
            raise ValueError("gram shape does not match dimension")
        if self.form_type == SYMMETRIC:
            if (g != g.T % self.p).any():
                raise ValueError("gram is not symmetric")
        elif self.form_type == SKEW:
            if ((g + g.T) % self.p).any() or g.diagonal().any():
                raise ValueError("gram is not alternating")
        else:
            raise ValueError(f"unknown form type {self.form_type!r}")
        if self.witness is not None:
            w = self.witness
            if w.n != self.n or w.p != self.p:
                raise ValueError("witness lives in the wrong space")
            if pairing(self, w.basis, w.basis).any():
                raise ValueError("witness is not isotropic")

    def is_nondegenerate(self) -> bool:
        return self._nondegenerate

    @cached_property
    def _nondegenerate(self) -> bool:
        # the Gram is frozen, so it is ranked once per space
        return rank_mod(self.gram, self.p) == self.n

    @cached_property
    def terms(self) -> tuple:
        """The Gram's ``_batch.form_terms``, built once per space."""
        return _batch.form_terms(self.gram, self.p)


def pairing(space: BilinearSpace, rows_u: np.ndarray, rows_v: np.ndarray) -> np.ndarray:
    """Matrix of <u_i, v_j> for row stacks u, v; for stacks of them, (N, ., n),
    one such matrix per item."""
    u, v = (np.asarray(x, dtype=np.int64) for x in (rows_u, rows_v))
    u, v = (x if x.ndim == 3 else x.reshape(-1, space.n) for x in (u, v))
    return u @ space.gram @ np.swapaxes(v, -1, -2) % space.p


def check_standard_type(form_type: str, n: int) -> None:
    """Refuse a (form type, dimension) with no split standard form:
    ValueError for n < 0, an odd skew n or an unknown form type."""
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if form_type == SKEW:
        if n % 2:
            raise ValueError("skew forms need even dimension")
    elif form_type != SYMMETRIC:
        raise ValueError(f"unknown form type {form_type!r}")


def standard_space(form_type: str, n: int, p: int) -> BilinearSpace:
    """The split standard form: all orbit-level statements are for these.

    Skew: Gram antidiag(1,...,1,-1,...,-1), n even.  Symmetric: Gram
    antidiag(1,...,1), with the witness span(e_1..e_{n/2}) attached for
    even n.
    """
    p = as_prime(p)
    check_standard_type(form_type, n)
    g = np.zeros((n, n), dtype=np.int64)
    if form_type == SKEW:
        for i in range(n // 2):
            g[i, n - 1 - i] = 1
            g[n - 1 - i, i] = p - 1
        return BilinearSpace(n, p, SKEW, g)
    for i in range(n):
        g[i, n - 1 - i] = 1
    witness = None
    if n and n % 2 == 0:
        rows = np.eye(n, dtype=np.int64)[: n // 2]
        witness = span(rows, n, p)
    return BilinearSpace(n, p, SYMMETRIC, g, witness)


def perp(space: BilinearSpace, h: Subspace) -> Subspace:
    """Orthogonal complement {v : <v, w> = 0 for all w in h}."""
    if h.n != space.n or h.p != space.p:
        raise ValueError("subspace lives in the wrong space")
    if h.dim == 0:
        return full_subspace(space.n, space.p)
    # v @ (gram @ basis^T) == 0
    constraints = space.gram @ h.basis.T % space.p
    # left_kernel returns its rows in RREF
    return Subspace(left_kernel(constraints, space.p), space.n, space.p)


def radical(space: BilinearSpace, h: Subspace) -> Subspace:
    """Radical of the restricted form, h cap h^perp: the combinations x of
    h's rows with x @ G = 0, for G the Gram of h's rows."""
    if h.n != space.n or h.p != space.p:
        raise ValueError("subspace lives in the wrong space")
    gram = h.basis @ space.gram @ h.basis.T % space.p
    return kernel_span(left_kernel(gram, space.p), h)


def subquotient(
    space: BilinearSpace, lower: Subspace, upper: Subspace
) -> tuple[np.ndarray, BilinearSpace]:
    """upper / lower with its induced form, for lower <= rad(upper).

    Returns (comp, quotient): ``comp`` holds rows of ``upper``'s basis that
    complete ``lower`` to ``upper``, and the quotient's Gram is the pairing
    of those rows.  Raises ValueError unless lower <= rad(upper).
    """
    if not upper.contains(lower) or pairing(space, lower.basis, upper.basis).any():
        raise ValueError("lower is not contained in the radical of upper")
    comp = complement_rows(lower.basis, upper.basis, space.p)
    return comp, BilinearSpace(comp.shape[0], space.p, space.form_type, pairing(space, comp, comp))


# ---------------------------------------------------------------------------
# Witt-style decomposition adapted to a subspace
# ---------------------------------------------------------------------------

class WittStack(NamedTuple):
    """Witt splits V = M1 + M2 + M3 + M4 adapted to a stack of N subspaces h.
    ``bases`` (N, n, n) holds each split's rows, stacked m1, m2, m3, m4: m1
    (``t`` rows) a basis of rad h; m2 (``r`` rows) and m3 completing it to
    h and h^perp, in ``congruence_normal`` form with square classes
    ``deltas`` (N, 2); and m4 (t rows) isotropic with <m1, m4> = I.  So
    each item's stacked basis has the Gram ``normal_forms``, fixed by its
    t, r and deltas."""

    bases: np.ndarray
    t: np.ndarray
    r: np.ndarray
    deltas: np.ndarray

    def take(self, index) -> "WittStack":
        return WittStack(*(x[index] for x in self))

    def normal_forms(self, space: BilinearSpace) -> np.ndarray:
        """The block normal form of each item, (N, n, n)."""
        n, skew = space.n, space.form_type == SKEW
        keys = list(zip(self.t.tolist(), self.r.tolist(), map(tuple, self.deltas.tolist())))
        forms = {}
        for key in keys:
            if key not in forms:
                t, r, (d2, d3) = key
                forms[key] = _normal_gram(space.p, skew, t, (r, d2), (n - 2 * t - r, d3))
        return np.array([forms[key] for key in keys], dtype=np.int64).reshape(-1, n, n)


def witt_decompose(space: BilinearSpace, bases: np.ndarray) -> WittStack:
    """The adapted bases, in normal form, of the row spaces h of the stack
    ``bases`` (N, k, n) of independent rows; the ambient must be
    nondegenerate.

    ``congruence_normal`` of h's Gram gives m2 and, in its radical rows,
    m1; that of h^perp's Gram (h^perp is one ``left_kernels`` call) gives
    m3 and rad h^perp = rad h again, in the rows where m4 goes.  m4 is then
    read off one ``batch_rank``: with B the stacked rows with those last t
    zeroed, reducing [B G | I] to [R | S] solves B G x^T = e_i for i < t by
    x at R's pivot columns = column i of S, so x pairs to 1 with the i-th
    row of m1 and to 0 with the other rows of m1, m2 and m3; subtracting
    half their pairings times m1 makes those rows isotropic.
    """
    if not space.is_nondegenerate():
        raise ValueError("witt_decompose needs a nondegenerate ambient form")
    n, p, gram, skew = space.n, space.p, space.gram, space.form_type == SKEW
    h = np.asarray(bases, dtype=np.int64) % p
    n_items, k, _ = h.shape
    r, d2, th = _batch.congruence_normal(pairing(space, h, h), p, skew)
    t = k - r
    # h^perp = {x : x G h^T = 0}
    hp, _ = _batch.left_kernels(gram @ h.transpose(0, 2, 1) % p, p)
    hp = hp[:, : n - k].astype(np.int64)
    _, d3, tp = _batch.congruence_normal(pairing(space, hp, hp), p, skew)
    # th h is [m2; m1] and tp hp is [m3; rad h]: rolling the first by r
    # gives [m1; m2], and rad h sits in the last t rows, where m4 goes
    q = np.arange(n)
    roll = (q[None, :k] + r[:, None]) % max(k, 1)
    stacked = np.concatenate(
        [np.take_along_axis(th @ h % p, roll[:, :, None], axis=1), tp @ hp % p], axis=1
    )
    tail = q[None, :, None] >= n - t[:, None, None]
    aug = np.zeros((n_items, n, 2 * n), dtype=np.int32)
    aug[:, :, :n] = np.where(tail, 0, stacked) @ gram % p
    aug[:, :, n:] = np.eye(n, dtype=np.int32)
    _batch.batch_rank(aug, p)
    item, row = np.nonzero(aug[:, :, :n].any(axis=2))
    x = np.zeros((n_items, n, n), dtype=np.int64)
    if item.size:  # argmax refuses the empty rows of F_p^0
        x[item, np.argmax(aug[item, row, :n] != 0, axis=1)] = aug[item, row, n:]
    head = q[None, :, None] < t[:, None, None]
    f = np.where(head, x.transpose(0, 2, 1), 0)
    m4 = (f - inv_mod(2, p) * pairing(space, f, f) @ np.where(head, stacked, 0)) % p
    # row q >= n - t of the split is row q - (n - t) of m4
    down = (q[None, :] + t[:, None]) % max(n, 1)
    stacked = np.where(tail, np.take_along_axis(m4, down[:, :, None], axis=1), stacked)
    return WittStack(stacked, t, r, np.stack([d2, d3], axis=1))


# ---------------------------------------------------------------------------
# Constructive isometries
# ---------------------------------------------------------------------------

def _normal_gram(p: int, skew: bool, t: int, *blocks: tuple[int, int]) -> np.ndarray:
    """The block normal form: t rows, one ``congruence_normal`` form per
    (dim, delta) block, then t rows dual to the first t; zero across blocks."""
    n = 2 * t + sum(d for d, _ in blocks)
    g = np.zeros((n, n), dtype=np.int64)
    g[:t, n - t:] = np.eye(t, dtype=np.int64)
    g[n - t:, :t] = np.eye(t, dtype=np.int64) * (-1 if skew else 1)
    at = t
    for d, delta in blocks:
        if skew:  # antidiag(1, .., 1, -1, .., -1)
            g[at:at + d, at:at + d] = np.fliplr(np.diag([1] * (d // 2) + [-1] * (d // 2)))
        else:
            g[at:at + d, at:at + d] = np.diag([1] * (d - 1) + [delta] * (d > 0))
        at += d
    return g % p


def transport_isometry(space: BilinearSpace, a: WittStack, b: WittStack) -> np.ndarray:
    """Isometries g (with g^T gram g = gram), one per item, each carrying
    h = span(a.m1, a.m2) onto h2 = span(b.m1, b.m2), given the
    ``witt_decompose`` splits of h and h2: with equal dims and deltas both
    stacked bases have the same Gram, so g maps one onto the other.  All
    inverses are one ``batch_rank`` of [A | I].

    Requires equal dimension and equal rank invariant; over F_p the
    restricted nondegenerate parts must also lie in the same discriminant
    class (equal deltas) or DiscriminantMismatch is raised.  In the
    symmetric case the determinant is normalized to 1 whenever a twist is
    available (r > 0 or n - 2k + r > 0, that is 2t < n); for the two
    families of maximal isotropics no such twist exists and det g = -1
    transports between them.
    """
    if not space.is_nondegenerate():
        raise ValueError("transport needs a nondegenerate ambient form")
    for what, x, y in (("dims", a.t + a.r, b.t + b.r), ("rank invariants", a.r, b.r)):
        if (x != y).any():
            i = np.argmax(x != y)
            raise InvariantMismatch(f"{what} differ: {x[i]} vs {y[i]}")
    mismatch = (a.deltas != b.deltas).any(axis=1)
    if mismatch.any():
        i = np.argmax(mismatch)
        raise DiscriminantMismatch(
            f"restricted forms have discriminant classes {tuple(a.deltas[i].tolist())} "
            f"vs {tuple(b.deltas[i].tolist())}"
        )
    n, p = space.n, space.p
    aug = np.zeros((len(a.bases), n, 2 * n), dtype=np.int32)
    aug[:, :, :n] = a.bases
    aug[:, :, n:] = np.eye(n, dtype=np.int32)
    _batch.batch_rank(aug, p)
    if (aug[:, :, :n] != np.eye(n, dtype=np.int32)).any():
        raise ValueError("split rows are dependent")
    src_inv = aug[:, :, n:].astype(np.int64)
    img = np.array(b.bases, dtype=np.int64)
    g_rows = src_inv @ img % p
    if space.form_type == SYMMETRIC:
        # an orthogonal g is a product of rank(g - 1) reflections, or of two
        # more (Scherk; Taylor, The Geometry of the Classical Groups, 1992),
        # so det g = (-1)^rank(g - 1).  Row t is the first M2 image row when
        # r > 0, else the first M3 one; negating one row of a diagonal block
        # keeps the Gram
        moved = ((g_rows - np.eye(n, dtype=np.int64)) % p).astype(np.int32)
        twist = np.flatnonzero((2 * a.t < n) & (_batch.batch_rank(moved, p) % 2 == 1))
        img[twist, a.t[twist]] *= -1
        g_rows[twist] = src_inv[twist] @ img[twist] % p
    return g_rows.transpose(0, 2, 1)
