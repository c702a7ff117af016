"""Exact linear algebra over odd prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p at the API, but
elimination runs on lists of Python-int rows: ``_eliminate`` is the one
Gauss-Jordan loop, behind ``rref``, ``rank_mod`` and ``left_kernel``
only.  The matrices here have a few rows
and columns, so per-element numpy indexing would cost more than the
arithmetic.  Subspaces of F_p^n are kept in reduced row-echelon form, which
makes equality, hashing and set membership structural, and reduces
containment and intersection to ``Subspace.residue``.  Enumeration of
Gr_k(F_p^n) is ordered by (pivot pattern, free entries), both
lexicographic.  The one exception to the scalar path is the step between
two subspaces, which the tower walks take over whole stacks of pairs:
``between_stack`` works on int stacks with ``_batch.batch_rank``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import _batch
from .polynomials import gaussian_binomial

DEFAULT_BUDGET = 10**8

_SMALL_PRIMES = {
    p
    for p in range(3, 998)
    if p % 2 and all(p % d for d in range(3, int(p**0.5) + 1, 2))
}


class BudgetExceeded(Exception):
    """An enumeration would visit more subspaces than the configured budget."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"enumeration of ~{estimate} subspaces exceeds budget {budget}")

    @staticmethod
    def check(size: int, budget: int | None) -> int:
        """``size`` if ``within_budget``; the one place a refusal is raised."""
        if not within_budget(size, budget):
            raise BudgetExceeded(size, budget)
        return size

    @staticmethod
    def check_largest(sizes, budget: int | None) -> None:
        """``check`` the largest of the sizes of a command's enumerations,
        before the first of them is walked; no enumeration, no refusal."""
        sizes = list(sizes)
        if sizes:
            BudgetExceeded.check(max(sizes), budget)


def within_budget(size: int, budget: int | None) -> bool:
    """The budget rule: a size fits up to the budget, and None bounds nothing."""
    return budget is None or size <= budget


def as_prime(p) -> int:
    """p as an int, if it is an odd prime in [3, 997]; ValueError otherwise."""
    p = int(p)
    if p not in _SMALL_PRIMES:
        raise ValueError(f"modulus must be an odd prime in [3, 997], got {p}")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


def _eliminate(rows: list[list[int]], p: int) -> int:
    """Gauss-Jordan elimination in place on Python-int rows reduced mod p.

    Leaves the first ``rank`` rows in RREF and the rest zero; returns the rank.
    """
    n_rows = len(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        for r in range(rank, n_rows):
            if rows[r][col]:
                break
        else:
            continue
        piv = rows[r]
        if r != rank:
            rows[r] = rows[rank]
        x = piv[col]
        if x != 1:
            inv = pow(x, p - 2, p)
            piv = [v * inv % p for v in piv]
        rows[rank] = piv
        for r in range(n_rows):
            f = rows[r][col]
            if f and r != rank:
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], piv)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _int_rows(mat, p: int) -> tuple[list[list[int]], int]:
    """The rows of a 2-d matrix reduced mod p, and its column count."""
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return (a % p).tolist(), a.shape[1]


def rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduced row-echelon form mod p with zero rows dropped."""
    rows, cols = _int_rows(mat, p)
    rank = _eliminate(rows, p)
    return np.array(rows[:rank], dtype=np.int64).reshape(rank, cols)


def rank_mod(mat: np.ndarray, p: int) -> int:
    return _eliminate(_int_rows(mat, p)[0], p)


class Subspace:
    """A subspace of F_p^n, identified with its canonical RREF basis.

    Two subspaces are equal iff their (n, p, basis) triples are identical;
    the basis array is read-only.
    """

    __slots__ = ("n", "p", "basis", "_key")

    def __init__(self, basis: np.ndarray, n: int, p: int):
        basis = np.ascontiguousarray(basis, dtype=np.int64)
        if basis.size == 0:
            basis = basis.reshape(0, n)
        if basis.shape[1] != n:
            raise ValueError(f"basis has {basis.shape[1]} columns, ambient dim is {n}")
        basis.setflags(write=False)
        self.n = n
        self.p = p
        self.basis = basis
        self._key = (n, p, basis.tobytes())

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def pivots(self) -> np.ndarray:
        """The pivot column of each basis row: its first nonzero entry."""
        if not self.n:  # argmax refuses the empty rows of F_p^0
            return np.zeros(0, dtype=np.intp)
        return np.argmax(self.basis != 0, axis=1)

    def residue(self, rows) -> np.ndarray:
        """``rows - rows[..., pivots] @ basis mod p`` for a stack of vectors of
        any leading shape: linear, and zero exactly on the vectors of this
        subspace, since the RREF basis is the identity on its pivot columns."""
        rows = np.asarray(rows, dtype=np.int64) % self.p
        return (rows - rows[..., self.pivots] @ self.basis) % self.p

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return not self.residue(other.basis).any()

    def _check_compatible(self, other: "Subspace"):
        if self.n != other.n or self.p != other.p:
            raise ValueError("ambient mismatch")

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        rows = [
            "(" + ",".join(str(int(x)) for x in row) + ")" for row in self.basis
        ]
        return f"Subspace(p={self.p}, n={self.n}, [{' '.join(rows)}])"


def span(rows, n: int, p: int) -> Subspace:
    """Subspace spanned by the given row vectors (any iterable of rows)."""
    mat = np.array(list(rows), dtype=np.int64)
    if n == 0 or mat.size == 0:
        return Subspace(np.zeros((0, n), dtype=np.int64), n, p)
    return Subspace(rref(mat.reshape(-1, n), p), n, p)


def zero_subspace(n: int, p: int) -> Subspace:
    return Subspace(np.zeros((0, n), dtype=np.int64), n, p)


def full_subspace(n: int, p: int) -> Subspace:
    return Subspace(np.eye(n, dtype=np.int64), n, p)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    return Subspace(rref(np.vstack([a.basis, b.basis]), a.p), a.n, a.p)


def left_kernel(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {x : x @ mat == 0 mod p}."""
    rows, w = _int_rows(mat, p)
    m = len(rows)
    # Row-reduce [mat | I]; rows whose mat-part vanished span the kernel.
    # They are the last rows of the RREF with their pivots in the identity
    # part, so their identity part is already in RREF.
    for i, row in enumerate(rows):
        row += [0] * m
        row[w + i] = 1
    rank = _eliminate(rows, p)
    ker = [row[w:] for row in rows[:rank] if not any(row[:w])]
    return np.array(ker, dtype=np.int64).reshape(len(ker), m)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    if a.dim == 0 or b.dim == b.n:
        return a
    if b.dim == 0 or a.dim == a.n:
        return b
    # x @ A lies in b iff b.residue(x @ A) = x @ b.residue(A) vanishes
    return kernel_span(left_kernel(b.residue(a.basis), a.p), a)


def kernel_span(ker: np.ndarray, h: Subspace) -> Subspace:
    """The subspace spanned by ``ker @ h.basis``, for ``ker`` a ``left_kernel``
    result with one column per row of h.  Both are RREF, and h's basis is
    the identity on its pivot columns, so the product is already RREF."""
    return Subspace(ker @ h.basis % h.p, h.n, h.p)


def zero_at(h: Subspace, cols) -> Subspace:
    """The part of h that is zero at the columns ``cols`` (any numpy index):
    the left kernel of those columns of h's basis, applied to h's rows."""
    part = h.basis[:, cols]
    if not part.any():
        return h
    return kernel_span(left_kernel(part, h.p), h)


# ---------------------------------------------------------------------------
# Enumeration of Gr_k(F_p^n)
# ---------------------------------------------------------------------------

def subspace_total(n: int, k: int, p: int) -> int:
    return gaussian_binomial(n, k)(p)


def enumerate_subspaces(
    n: int, k: int, p: int, budget: int | None = DEFAULT_BUDGET
) -> Iterator[Subspace]:
    """Yield every k-dimensional subspace of F_p^n exactly once.

    Order: pivot patterns lexicographically, then free entries as base-p
    digits (first slot most significant), as laid out by ``_batch``.
    """
    p = as_prime(p)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = BudgetExceeded.check(subspace_total(n, k, p), budget)
    for pattern, lo, hi in _batch.iter_chunks(n, k, p, 0, total, 1 << 14):
        for mat in _batch.pattern_matrices(n, k, p, pattern, lo, hi):
            yield Subspace(mat, n, p)  # pattern matrices are already RREF


# no stack of candidate bases in one ``between_stack`` slice passes this many rows
_STEP_ROWS = 1 << 16


def between_stack(
    lower: np.ndarray, upper: np.ndarray, d, p: int, budget: int | None = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """The X with lower_i <= X <= upper_i and dim X = d_i, for a stack of
    pairs of RREF bases ``lower`` (N, ., n) and ``upper`` (N, ., n), each
    zero-padded below its own dimension; ``d`` is one dimension for every
    pair, or one per pair.

    Returns (children, parents): the children's RREF bases, int32 and
    zero-padded to the largest d, and each one's pair.  Pairs come in order,
    and each pair's children in the walk order of Gr_{d-u}(F_p^{w-u}), for
    u = dim lower_i and w = dim upper_i, multiplied into the pair's
    complement: the rows of upper, in order, that are not in the span of
    lower and the upper rows before them.  A pair with d = u or d = w has
    its lower or upper as its one child, and one with d outside [u, w] has
    none.  Pairs are grouped by (u, d, w); each group's Grassmannian passes
    ``BudgetExceeded.check``, and its (pair, subspace) items are reduced by
    one ``batch_rank`` per slice of at most ``_STEP_ROWS`` rows.  Raises
    ValueError if an upper misses its lower.
    """
    lower = np.asarray(lower, dtype=np.int32)
    upper = np.asarray(upper, dtype=np.int32)
    n_pairs, _, n = lower.shape
    width = int(np.max(d, initial=0))
    d = np.broadcast_to(d, n_pairs)
    udim, wdim = lower.any(axis=2).sum(axis=1), upper.any(axis=2).sum(axis=1)
    # lower in upper's coordinates: an RREF basis is the identity on its
    # pivots, and a zero padding row adds nothing
    coords = np.take_along_axis(lower, np.argmax(upper != 0, axis=2)[:, None, :], axis=2)
    if ((lower - coords @ upper) % p).any():
        raise ValueError("lower is not contained in upper")
    if n_pairs and (d == udim).all():  # each pair's one child is its lower
        BudgetExceeded.check(1, budget)
        return lower[:, :width], np.arange(n_pairs)
    kids, parents = [], []
    within = (udim <= d) & (d <= wdim)
    groups = np.unique(np.stack([udim, d, wdim], axis=1)[within], axis=0).tolist()
    for u, dim, w in groups:
        idx = np.flatnonzero(within & (udim == u) & (d == dim) & (wdim == w))
        low, up = lower[idx, :u], upper[idx, :w]
        size = BudgetExceeded.check(subspace_total(w - u, dim - u, p), budget)
        x = np.zeros((len(idx) * size, width, n), dtype=np.int32)
        parents.append(idx.repeat(size))
        kids.append(x)
        if dim in (u, w):  # the one subspace between: no enumeration
            x[:, :dim] = low if dim == u else up
            continue
        # upper row l lies in the span of lower and the upper rows before it
        # iff some combination of lower ends at coordinate l: these ends are
        # the pivots of the column-reversed coords, and the rest are picked
        ends = coords[idx, :u, w - 1 :: -1].copy()
        _batch.batch_rank(ends, p)
        picked = np.ones((len(idx), w), dtype=bool)
        picked[np.arange(len(idx))[:, None], w - 1 - np.argmax(ends != 0, axis=2)] = False
        comp = up[picked].reshape(len(idx), w - u, n)
        qs = np.concatenate([
            _batch.pattern_matrices(w - u, dim - u, p, pattern, lo, hi)
            for pattern, lo, hi in _batch.iter_chunks(w - u, dim - u, p, 0, size, 1 << 14)
        ])
        per = max(1, _STEP_ROWS // dim)
        for start in range(0, len(x), per):
            pair, q = np.divmod(np.arange(start, min(start + per, len(x))), size)
            item = x[start : start + len(pair), :dim]
            item[:, :u] = low[pair]
            item[:, u:] = qs[q] @ comp[pair] % p
            _batch.batch_rank(item, p)
    if not kids:
        return np.zeros((0, width, n), dtype=np.int32), np.zeros(0, dtype=np.intp)
    kids, parents = np.concatenate(kids), np.concatenate(parents)
    if len(groups) > 1:  # each group keeps its pairs' order, but groups interleave
        order = np.argsort(parents, kind="stable")
        kids, parents = kids[order], parents[order]
    return kids, parents


def subspaces_between(
    lower: Subspace, upper: Subspace, d: int, budget: int | None = DEFAULT_BUDGET
) -> Iterator[Subspace]:
    """All X with lower <= X <= upper and dim X = d: ``between_stack`` of the
    one pair, in its order; for d = dim lower or d = dim upper that is
    ``lower`` or ``upper`` itself, with no enumeration."""
    lower._check_compatible(upper)
    if not lower.dim <= d <= upper.dim:
        return
    kids, _ = between_stack(lower.basis[None], upper.basis[None], d, lower.p, budget=budget)
    for x in kids:
        yield Subspace(x, lower.n, lower.p)
