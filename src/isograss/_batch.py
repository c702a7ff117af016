"""Vectorized mod-p kernels for bulk subspace classification.

Counting an orbit means classifying every point of Gr_k(F_p^n), which gets
hot at the larger primes.  The routines here process RREF basis matrices in
batches that share a pivot pattern, so ranks and intersection dimensions
reduce to masked Gaussian elimination over a leading batch axis.  The
per-subspace semantics are identical to the scalar path in linalg/orbits,
which the test suite cross-checks on small grids.

Entries stay below p <= 997 and every elimination round reduces mod p, so
int32 holds all intermediates (|a - f*piv| < p^2 < 10^6).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .polynomials import gaussian_binomial


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int32)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def batch_rank(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of matrices, shape (N, r, c).  Mutates ``a``."""
    n_items, rows, cols = a.shape
    rank = np.zeros(n_items, dtype=np.int64)
    if rows == 0 or cols == 0 or n_items == 0:
        return rank
    inv = _inverse_table(p)
    row_idx = np.arange(rows)
    full = np.int64(rows)
    for col in range(cols):
        nz = (a[:, :, col] != 0) & (row_idx[None, :] >= rank[:, None])
        has = nz.any(axis=1)
        if not has.any():
            continue
        if has.all():
            sub, crow = a, rank
            prow = np.argmax(nz, axis=1)
        else:
            idx = np.flatnonzero(has)
            sub = a[idx]
            crow = rank[idx]
            prow = np.argmax(nz[idx], axis=1)
        ar = np.arange(sub.shape[0])
        swap = prow != crow
        if swap.any():
            si, pr, cr = ar[swap], prow[swap], crow[swap]
            tmp = sub[si, pr, :].copy()
            sub[si, pr, :] = sub[si, cr, :]
            sub[si, cr, :] = tmp
        piv = sub[ar, crow, col]
        pivrow = sub[ar, crow, :] * inv[piv][:, None] % p
        sub[ar, crow, :] = pivrow
        factors = sub[:, :, col].copy()
        factors[ar, crow] = 0
        sub -= factors[:, :, None] * pivrow[:, None, :]
        sub %= p
        if sub is a:
            rank += 1
        else:
            a[idx] = sub
            rank[idx] += 1
        if rank.min() == full:
            break
    return rank


def free_positions(n: int, pattern: Sequence[int]) -> list[tuple[int, int]]:
    """Row-major free entry slots of an RREF matrix with the given pivots."""
    pivots = set(pattern)
    out = []
    for i, piv in enumerate(pattern):
        for j in range(piv + 1, n):
            if j not in pivots:
                out.append((i, j))
    return out


def pattern_matrices(
    n: int, k: int, p: int, pattern: tuple[int, ...], lo: int, hi: int
) -> np.ndarray:
    """RREF matrices with the given pivot pattern for free-entry codes [lo, hi).

    The free entries are the base-p digits of the code, first slot most
    significant.  This and ``iter_chunks`` fix the enumeration order of
    Gr_k(F_p^n) for the whole package.
    """
    base = np.zeros((k, n), dtype=np.int32)
    for i, piv in enumerate(pattern):
        base[i, piv] = 1
    mats = np.broadcast_to(base, (hi - lo, k, n)).copy()
    # Codes can pass 2^63 in budget-free walks, so each code lo + j is kept
    # as high + low[j]: a Python int shared by the chunk plus a small int64
    # offset.  Digits are peeled from the last slot by divmod with p, which
    # keeps low[j] below j + p.
    high, low = lo, np.arange(hi - lo, dtype=np.int64)
    for r, c in reversed(free_positions(n, pattern)):
        high, rem = divmod(high, p)
        low, mats[:, r, c] = np.divmod(low + rem, p)
    return mats


def iter_chunks(n: int, k: int, p: int, start: int, stop: int, chunk: int):
    """Yield (pattern, lo, hi) covering global subspace indices [start, stop)."""
    idx = 0
    for pattern in combinations(range(n), k):
        block = p ** len(free_positions(n, pattern))
        if idx + block <= start:
            idx += block
            continue
        if idx >= stop:
            return
        lo = max(start - idx, 0)
        hi = min(stop - idx, block)
        pos = lo
        while pos < hi:
            end = min(pos + chunk, hi)
            yield pattern, pos, end
            pos = end
        idx += block


def _restricted_form_rank(z: np.ndarray, gram_block: np.ndarray, tail: np.ndarray, p: int):
    """Rank of a factor's form on the graded piece cut out by the filtration.

    For basis stacks Z with block columns ``z`` and tail columns ``tail``,
    the graded piece is {t Z : t @ tail == 0} projected to the block; its
    form rank equals rank([[Z_i G Z_i^T, T], [T^T, 0]]) - 2 rank(T), valid
    over any field.
    """
    n_items, k, _ = z.shape
    tau = tail.shape[2]
    # two-step contraction keeps int32 intermediates below n (p-1)^2
    zg = (z @ gram_block) % p
    m = np.einsum("nij,nlj->nil", zg, z) % p
    t_rank = batch_rank(tail.copy(), p)
    if tau == 0:
        return batch_rank(m, p), t_rank
    size = k + tau
    border = np.zeros((n_items, size, size), dtype=np.int32)
    border[:, :k, :k] = m
    border[:, :k, k:] = tail
    border[:, k:, :k] = tail.transpose(0, 2, 1)
    return batch_rank(border, p) - 2 * t_rank, t_rank


def _graded_plus_witness_dim(z, tail, witness, p, t_rank):
    """dim of (graded piece + fixed witness) inside the block.

    Equals rank([[Z_i, T], [W, 0]]) - rank(T): the tail columns peel off
    rank(T), leaving the span of the projected kernel plus the witness.
    """
    n_items, k, width = z.shape
    tau = tail.shape[2]
    w = witness.shape[0]
    stack = np.zeros((n_items, k + w, width + tau), dtype=np.int32)
    stack[:, :k, :width] = z
    stack[:, :k, width:] = tail
    stack[:, k:, :width] = witness
    return batch_rank(stack, p) - t_rank


def classify_counts(
    n: int,
    k: int,
    p: int,
    dims: tuple[int, ...],
    grams: tuple[np.ndarray, ...],
    forms: tuple[str, ...],
    witness_rows: tuple[np.ndarray | None, ...],
    start: int = 0,
    stop: int | None = None,
    chunk: int = 1 << 16,
) -> dict[tuple, int]:
    """Count subspaces of Gr_k(F_p^n) by multilabel.

    Returns a dict keyed by ((k_1, r_1), ..., (k_m, r_m)) where r_i is an
    int or one of the component tags "0p"/"0pp".  The index slice is the
    one enumerate_subspaces walks, so chunked calls merge by summing counts.
    """
    if stop is None:
        stop = gaussian_binomial(n, k)(p)
    m = len(dims)
    offsets = np.cumsum([0] + list(dims))
    grams32 = tuple(np.asarray(g, dtype=np.int32) for g in grams)
    wit32 = tuple(
        None if w is None else np.asarray(w, dtype=np.int32) for w in witness_rows
    )
    # per-factor code k_i * (n_i + 3) + rcode_i, with k_i <= n_i and
    # rcode_i <= n_i + 2, packed mixed-radix with the first factor most
    # significant; the radix product is at most 8^n <= 8^16, far inside int64
    radix = [(d + 1) * (d + 3) for d in dims]
    weights = [math.prod(radix[i + 1 :]) for i in range(m)]
    raw: dict[int, int] = {}
    for pattern, lo, hi in iter_chunks(n, k, p, start, stop, chunk):
        mats = pattern_matrices(n, k, p, pattern, lo, hi)
        n_items = mats.shape[0]
        packed = np.zeros(n_items, dtype=np.int64)
        prev_c = np.zeros(n_items, dtype=np.int64)
        for i in range(m):
            lo_c, hi_c = offsets[i], offsets[i + 1]
            z = mats[:, :, lo_c:hi_c]
            tail = mats[:, :, hi_c:]
            r_i, t_rank = _restricted_form_rank(z, grams32[i], tail, p)
            c_i = k - t_rank
            k_i = c_i - prev_c
            prev_c = c_i
            rcode = r_i + 2
            if forms[i] == "symmetric" and dims[i] % 2 == 0 and wit32[i] is not None:
                half = dims[i] // 2
                need = (k_i == half) & (r_i == 0)
                if need.any():
                    joined = _graded_plus_witness_dim(z, tail, wit32[i], p, t_rank)
                    inter = k_i + half - joined
                    prime_side = (inter % 2) == (k_i % 2)
                    rcode = np.where(need & prime_side, 0, rcode)
                    rcode = np.where(need & ~prime_side, 1, rcode)
            packed += (k_i * (dims[i] + 3) + rcode) * weights[i]
        uniq, cnt = np.unique(packed, return_counts=True)
        for code, c in zip(uniq, cnt):
            raw[int(code)] = raw.get(int(code), 0) + int(c)
    counts: dict[tuple, int] = {}
    for code, c in raw.items():
        key = []
        for i in range(m):
            k_i, rcode = divmod(code // weights[i] % radix[i], dims[i] + 3)
            key.append((k_i, _decode_r(rcode)))
        counts[tuple(key)] = c
    return counts


def _decode_r(code: int):
    if code == 0:
        return "0p"
    if code == 1:
        return "0pp"
    return code - 2


def isotropic_filter(mats: np.ndarray, gram: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of batch items whose row space is isotropic for gram."""
    norms = np.einsum("nij,jk,nlk->nil", mats, np.asarray(gram, dtype=np.int64), mats) % p
    return ~norms.any(axis=(1, 2))
