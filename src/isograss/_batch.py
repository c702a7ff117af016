"""Vectorized mod-p kernels for bulk subspace classification.

Counting an orbit means classifying every point of Gr_k(F_p^n), which gets
hot at the larger primes.  The routines here process RREF basis matrices in
batches that share a pivot pattern, so ranks and intersection dimensions
reduce to masked Gaussian elimination over a leading batch axis.  The
per-subspace semantics are identical to the scalar path in linalg/orbits,
which the test suite cross-checks.

``classify_counts`` labels a chunk in one pass: one elimination of the
column-reversed bases gives every graded piece, then each factor's form
rank is the rank of a k x k Gram matrix, in closed form for k <= 2.  As in
FFLAS/FFPACK (Dumas-Giorgi-Pernet, ACM TOMS 2008), exact F_p work is done
as a few large batched products, reduced mod p within proven int bounds.

Entries stay below p <= 997, so int32 holds every intermediate: an
elimination round reduces mod p (|a - f*piv| < p^2 < 10^6), each Gram
matmul sums at most n <= 16 products and is reduced before the next one
(16 * 996^2 < 2^31), and the 2 x 2 Gram determinant is taken in int64.
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


def _gram(z: np.ndarray, gram: np.ndarray, p: int) -> np.ndarray:
    """Gram matrices ``z G z^T mod p`` of a stack of row blocks, shape (N, k, k)."""
    return (z @ gram % p) @ z.transpose(0, 2, 1) % p


def _gram_rank(g: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of k x k Gram matrices; closed form for k <= 2."""
    k = g.shape[1]
    if k == 1:
        return (g[:, 0, 0] != 0).astype(np.int64)
    if k == 2:
        g = g.astype(np.int64)
        det = (g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]) % p
        return np.where(det != 0, 2, g.any(axis=(1, 2)))
    return batch_rank(g, p)


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

    One pass per chunk: Gauss-Jordan on the column-reversed bases makes
    each row's pivot its last nonzero column, so the k_i rows ending in
    block i span H cap B_{<=i} modulo H cap B_{<i} and their block-i columns
    are a basis of the graded piece (one factor, or k = 0, needs no
    elimination).  r_i is the rank of the k x k Gram of those rows with the
    others zeroed; the witness rank that splits "0p" from "0pp" is taken
    only on the rows with k_i = n_i / 2 and r_i = 0.
    """
    if stop is None:
        stop = gaussian_binomial(n, k)(p)
    m = len(dims)
    offsets = np.cumsum([0] + list(dims))
    block_of = np.repeat(np.arange(m), dims)  # factor of each column
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
        row_block = np.zeros((n_items, k), dtype=np.int64)
        if m > 1 and k > 0:
            rev = np.ascontiguousarray(mats[:, :, ::-1])
            batch_rank(rev, p)
            row_block = block_of[n - 1 - np.argmax(rev != 0, axis=2)]
            mats = rev[:, :, ::-1]
        packed = np.zeros(n_items, dtype=np.int64)
        for i in range(m):
            in_block = row_block == i
            k_i = in_block.sum(axis=1)
            z = np.where(in_block[:, :, None], mats[:, :, offsets[i] : offsets[i + 1]], 0)
            r_i = _gram_rank(_gram(z, grams32[i], p), p)
            rcode = r_i + 2
            if forms[i] == "symmetric" and dims[i] % 2 == 0 and wit32[i] is not None:
                half = dims[i] // 2
                need = np.flatnonzero((k_i == half) & (r_i == 0))
                if need.size:
                    # dim(graded cap W) = k_i + half - dim(graded + W)
                    stack = np.zeros((need.size, k + half, dims[i]), dtype=np.int32)
                    stack[:, :k] = z[need]
                    stack[:, k:] = wit32[i]
                    inter = 2 * half - batch_rank(stack, p)
                    rcode[need] = np.where(inter % 2 == half % 2, 0, 1)
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
    return ~_gram(mats, np.asarray(gram, dtype=np.int32), p).any(axis=(1, 2))
