"""Vectorized mod-p kernels for bulk subspace classification.

Counting an orbit means classifying every point of Gr_k(F_p^n), which gets
hot at the larger primes.  The routines here process basis matrices in
batches, so ranks and intersection dimensions reduce to masked Gaussian
elimination over a leading batch axis.  The per-subspace semantics are
identical to the scalar path in sumspace/orbits, which the test suite
cross-checks.

``classify_batch`` is the one bulk classifier: it labels any stack of
bases in one pass.  One elimination of the column-reversed bases gives
every graded piece, then each factor's form rank is the rank of the Gram
matrix of its piece, in closed form for pieces of dimension <= 3.
``classify_counts`` tallies the same codes over a slice of the walk, but
labels the column-reversed images of the walk's RREF matrices: those are
already in reverse echelon form, so the pivot pattern fixes every graded
piece and the walk needs no elimination.  Column reversal is a bijection
of Gr_k(F_p^n), so full-range counts are unchanged.  Both share ``_pack``,
which ranks the Grams, splits "0p"/"0pp" and packs the label codes.  A Gram
is read through its form's nonzero terms, which ``BilinearSpace.terms``
builds once per space.  As in FFLAS/FFPACK (Dumas-Giorgi-Pernet, ACM TOMS
2008), exact F_p work is done as a few large batched products over
contiguous operands, reduced mod p within proven int bounds: a walk chunk is
built slot-major, (n, k, N), so each matrix entry is one contiguous row of N
values that the Gram kernel multiplies in place.  ``congruence_normal``
serves the Witt splits of ``bilinear`` in the same way: one masked
elimination over a whole stack of small Grams; the transporter needs only
``batch_rank``.

Entries stay below p <= 997, so int32 holds every intermediate: the walk
peels its digits from int32 offsets below chunk + p; an elimination round
reduces mod p (|a - f*piv| < p^2 < 10^6); and a Gram entry sums one term
z_a[i] * (G_ij z_b[j] mod p) < p^2 per nonzero G_ij, at most n^2 <= 256 of
them (256 * 996^2 < 2^31).  The 2 x 2 Gram determinant is a difference of
two products below p^2; the 3 x 3 one is taken in int64.
"""

from __future__ import annotations

from collections import Counter
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
    """Ranks over F_p of a stack of matrices, shape (N, r, c).  Mutates ``a``
    into the RREF of each matrix, zero rows last (Gauss-Jordan)."""
    n_items, rows, cols = a.shape
    rank = np.zeros(n_items, dtype=np.int64)
    if rows == 0 or cols == 0 or n_items == 0:
        return rank
    inv = _inverse_table(p)
    row_idx = np.arange(rows)
    every = np.arange(n_items)
    for col in range(cols):
        nz = (a[:, :, col] != 0) & (row_idx >= rank[:, None])
        has = nz.any(axis=1)
        if not has.any():
            continue
        if has.all():
            sub, crow, ar = a, rank, every
        else:
            idx = np.flatnonzero(has)
            sub, crow, nz = a[idx], rank[idx], nz[idx]
            ar = np.arange(len(idx))
        prow = np.argmax(nz, axis=1)
        pivrow = sub[ar, prow]
        pivrow = pivrow * inv[pivrow[:, col]][:, None] % p
        # eliminate with the pivot row where it stands, which clears it; then
        # row crow's reduced content moves there, and the pivot row to crow
        sub -= sub[:, :, col, None] * pivrow[:, None, :]
        _reduce(sub, p)
        sub[ar, prow] = sub[ar, crow]
        sub[ar, crow] = pivrow
        if sub is a:
            rank += 1
        else:
            a[idx] = sub
            rank[idx] += 1
        if rank.min() == rows:
            break
    return rank


def left_kernels(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Left kernels {x : x @ a_i = 0 mod p} of a stack (N, r, c) reduced mod
    p: an (N, r, r) stack with each kernel's RREF basis on top and zero rows
    below, and the kernel dimensions.

    One ``batch_rank`` of the transposes with their columns reversed, R.
    Each non-pivot column f of R gives the null vector e_f - sum_i R_if e_g(i),
    g(i) the pivot of row i, which is nonzero only where g(i) < f; read back
    in the original column order, that vector starts with a 1 at f's column,
    is 0 at every other non-pivot one, and so these vectors, in that order,
    are already RREF.
    """
    n_items, r, c = a.shape
    if r == 0:  # argmax refuses the empty rows of F_p^0
        return np.zeros((n_items, 0, 0), dtype=np.int32), np.zeros(n_items, dtype=np.int64)
    red = np.ascontiguousarray(a.transpose(0, 2, 1)[:, :, ::-1], dtype=np.int32)
    rank = batch_rank(red, p)
    item, row = np.nonzero(red.any(axis=2))
    vecs = np.tile(np.eye(r, dtype=np.int32), (n_items, 1, 1))
    # a pivot column's own vector comes out zero, since R_ig(i) = 1
    vecs[item, :, np.argmax(red[item, row] != 0, axis=1)] -= red[item, row]
    vecs = vecs[:, ::-1, ::-1] % p
    top = np.argsort(~vecs.any(axis=2), axis=1, kind="stable")
    return np.take_along_axis(vecs, top[:, :, None], axis=1), r - rank


@lru_cache(maxsize=None)
def _square_tables(p: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Lookup tables of ``congruence_normal`` at p: ``root[a]`` the least x
    with x^2 = a (-1 where a is no square), ``chi[a]`` the Legendre symbol of
    a (0 at 0), the least nonresidue, and ``first[a, s]``.

    ``first`` solves a x^2 + b y^2 = 1: its x is the least x for which
    c = 1 - a x^2 is 0 or has the square class of b, so that c / b is a
    square, and y is the root of c / b.  It depends on b only through
    s = (chi[b] == -1), which keeps the table at (p, 2) entries.
    """
    root = np.full(p, -1, dtype=np.int64)
    for x in range(p - 1, -1, -1):  # the least root is written last
        root[x * x % p] = x
    chi = np.where(root >= 0, 1, -1)
    chi[0] = 0
    xs = np.arange(p)
    c = (1 - xs[:, None] * (xs * xs)[None, :]) % p  # c[a, x]
    first = np.stack([np.argmax((c == 0) | (chi[c] == want), axis=1) for want in (1, -1)], axis=1)
    return root, chi, int(np.argmax(chi == -1)), first


def congruence_normal(grams: np.ndarray, p: int, skew) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Congruence normal forms of a stack of symmetric (or, with ``skew``,
    alternating) Gram matrices (N, d, d): (rank, delta, T) per item, with T
    invertible and T g T^T = diag(n, 0), where n is the normal form of a
    nondegenerate block of size rank and the last d - rank rows of T span
    the radical of g.

    Symmetric g: n = diag(1, .., 1, delta), delta 1 or the least nonresidue,
    the square class of the product of the pivots.  Alternating g: n =
    antidiag(1, .., 1, -1, .., -1) from hyperbolic pairs u_1..u_h, v_h..v_1,
    and delta = 1.

    One pass of symmetric Gaussian elimination over the rows of the
    identity, masked like ``batch_rank``: each step moves its pivot to the
    front of the rows left, keeping their order, and clears it from them.
    A symmetric pivot is the first anisotropic row left; when every row
    left is isotropic, it is u + w for the first pair (u, w) with
    <u, w> != 0.  An alternating step takes that pair as (u, v) with
    <u, v> = 1.  Then consecutive norms (a, b) become (1, a b) through
    (x e + y f, b y e - a x f) with a x^2 + b y^2 = 1, and the last row is
    scaled to norm delta; ``_square_tables`` gives x, y and the roots.
    Entries stay below 5 p^3 < 2^33 in size before each reduction, in int64.
    """
    g = np.array(grams, dtype=np.int64) % p
    n_items, d, _ = g.shape
    t = np.tile(np.eye(d, dtype=np.int64), (n_items, 1, 1))
    rank = np.zeros(n_items, dtype=np.int64)
    norms = np.zeros((n_items, d), dtype=np.int64)
    inv = _inverse_table(p)
    step = 2 if skew else 1
    for s in range(0, d - step + 1, step):
        w = d - s
        pairs = (g[:, s:, s:] != 0).reshape(n_items, w * w)
        idx = np.flatnonzero(pairs.any(axis=1))
        if not idx.size:
            break
        gs, ts, ar = g[idx], t[idx], np.arange(len(idx))
        # the first nonzero <u, w> row by row has u before w
        i, j = np.divmod(np.argmax(pairs[idx], axis=1), w)
        if skew:
            lead = np.stack([i, j], axis=1)
        else:
            diag = np.diagonal(gs[:, s:, s:], axis1=1, axis2=2) != 0
            lead = np.argmax(diag, axis=1)[:, None]
            iso = np.flatnonzero(~diag.any(axis=1))
            if iso.size:  # u + w, of norm 2 <u, w>
                u, v = s + i[iso], s + j[iso]
                ts[iso, u] += ts[iso, v]
                gs[iso, u] += gs[iso, v]
                gs[iso, :, u] += gs[iso, :, v]
                ts %= p
                gs %= p
                lead[iso, 0] = i[iso]
        rel = np.arange(w)
        key = np.where(rel == lead[:, :1], -2, rel)
        if skew:
            key = np.where(rel == lead[:, 1:], -1, key)
        order = np.concatenate([np.tile(np.arange(s), (len(idx), 1)),
                                s + np.argsort(key, axis=1, kind="stable")], axis=1)
        ts = np.take_along_axis(ts, order[:, :, None], axis=1)
        gs = np.take_along_axis(np.take_along_axis(gs, order[:, :, None], axis=1), order[:, None, :], axis=2)
        if skew:
            # v = w / <u, w>; then each row x left loses <u, x> v - <v, x> u
            c = inv[gs[ar, s, s + 1]]
            ts[:, s + 1] = ts[:, s + 1] * c[:, None] % p
            gs[:, s + 1] *= c[:, None]
            gs[:, :, s + 1] *= c[:, None]
            gs %= p
            fu, fv = -gs[:, s + 1, s + 2 :], gs[:, s, s + 2 :]
            ts[:, s + 2 :] -= fu[:, :, None] * ts[:, s, None] + fv[:, :, None] * ts[:, s + 1, None]
            gs[:, s + 2 :] -= fu[:, :, None] * gs[:, s, None] + fv[:, :, None] * gs[:, s + 1, None]
            gs[:, :, s + 2 :] -= fu[:, None, :] * gs[:, :, s, None] + fv[:, None, :] * gs[:, :, s + 1, None]
        else:
            a = gs[ar, s, s]
            norms[idx, s] = a
            f = gs[:, s + 1 :, s] * inv[a][:, None] % p
            ts[:, s + 1 :] -= f[:, :, None] * ts[:, s, None]
            gs[:, s + 1 :] -= f[:, :, None] * gs[:, s, None]
            gs[:, :, s + 1 :] -= f[:, None, :] * gs[:, :, s, None]
        t[idx], g[idx] = ts % p, gs % p
        rank[idx] += step
    delta = np.ones(n_items, dtype=np.int64)
    if skew:
        # u_1 v_1 u_2 v_2 .. -> u_1 .. u_h v_h .. v_1, then the radical rows
        q, h = np.arange(d), rank[:, None] // 2
        src = np.where(q < h, 2 * q, np.where(q < 2 * h, 4 * h - 2 * q - 1, q))
        return rank, delta, np.take_along_axis(t, src[:, :, None], axis=1)
    root, chi, nonresidue, first = _square_tables(p)
    for i in range(d - 1):
        sel = np.flatnonzero((norms[:, i] != 1) & (norms[:, i + 1] != 0))
        if not sel.size:
            continue
        a, b = norms[sel, i], norms[sel, i + 1]
        x = first[a, (chi[b] == -1).astype(np.intp)]
        y = root[(1 - a * x * x) % p * inv[b] % p]
        e, f = t[sel, i], t[sel, i + 1]
        t[sel, i] = (x[:, None] * e + y[:, None] * f) % p
        t[sel, i + 1] = ((b * y)[:, None] * e - (a * x)[:, None] * f) % p
        norms[sel, i + 1] = a * b % p
    full = np.flatnonzero(rank)
    last = rank[full] - 1
    prod = norms[full, last]
    delta[full] = np.where(chi[prod] == -1, nonresidue, 1)
    t[full, last] = t[full, last] * root[delta[full] * inv[prod] % p][:, None] % p
    return rank, delta, t


def meet_dims(mats: np.ndarray, k, rows: np.ndarray, p: int) -> np.ndarray:
    """dim(X cap Y) = k + len(rows) - rank[X; rows] for each k-dimensional
    row space X of the stack ``mats`` (N, r, n), with Y the row space of the
    independent ``rows`` (d, n).  Rows of X beyond a basis, such as zero
    padding, do not change the rank."""
    n_items, r, n = mats.shape
    stack = np.empty((n_items, r + len(rows), n), dtype=np.int32)
    stack[:, :r] = mats
    stack[:, r:] = rows
    return k + len(rows) - batch_rank(stack, p)


def same_ruling(mats: np.ndarray, k: int, ref: np.ndarray, p: int) -> np.ndarray:
    """Whether each k-dimensional row space of the stack ``mats`` lies in the
    ruling of the k-dimensional row space of ``ref``: two maximal isotropics
    of an even symmetric space share a ruling iff their meet has the parity
    of k.  This is the one home of the "0p"/"0pp" split."""
    return (meet_dims(mats, k, ref, p) - k) % 2 == 0


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
    Gr_k(F_p^n) for the whole package.  The result, shape (N, k, n), is a
    view of one slot-major (n, k, N) int32 buffer: each matrix entry is a
    contiguous row of N values, the layout ``_gram`` reads.
    """
    buf = np.zeros((n, k, hi - lo), dtype=np.int32)
    for i, piv in enumerate(pattern):
        buf[piv, i] = 1
    # Codes can pass 2^63 in budget-free walks, so each code lo + j is kept
    # as high + low[j]: a Python int shared by the chunk plus a small int32
    # offset.  Digits are peeled from the last slot, which keeps low[j]
    # below j + p.  At each slot high is lo // p^e and top (hi - 1) // p^e;
    # once they meet, low is 0 and the whole chunk shares this digit and
    # every one above it.
    high, top, low = lo, hi - 1, np.arange(hi - lo, dtype=np.int32)
    for r, c in reversed(free_positions(n, pattern)):
        if high == top:
            high, buf[c, r] = divmod(high, p)
        else:
            high, rem = divmod(high, p)
            low += rem
            carry = low // p
            np.subtract(low, carry * p, out=buf[c, r])
            low = carry
        top //= p
    return buf.transpose(2, 1, 0)


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


def form_terms(gram, p: int) -> tuple:
    """The nonzero terms of a symmetric or alternating Gram matrix G, as
    ``_gram`` reads them: columns (m, n) and values (m, n, 1), or None when
    all are 1, where m is the most nonzeros in a row of G and row i's l-th
    nonzero is G_i,cols[l, i] = vals[l, i] (0 past its last one); and 1 if G
    is alternating, else 0.  Built once per form, as ``BilinearSpace.terms``."""
    g = (np.asarray(gram) % p).tolist()
    terms = [[(j, v) for j, v in enumerate(row) if v] for row in g]
    layers = np.zeros((max(map(len, terms), default=0), len(g), 2), dtype=np.intp)
    for i, row in enumerate(terms):
        if row:
            layers[: len(row), i] = row
    vals = layers[:, :, 1:].astype(np.int32)
    # a nonzero alternating G is not symmetric mod p
    skew = any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(i))
    return layers[:, :, 0], None if (vals == 1).all() else vals, int(skew)


def _gram(z: np.ndarray, form: tuple, p: int) -> np.ndarray:
    """Gram matrices ``z G z^T mod p`` of a stack of row blocks, shape (N, k, k).

    ``form`` is ``form_terms(G, p)``, a space's ``terms``.  Entry (a, b)
    sums z_a[i] * (G_ij z_b[j] mod p) over the nonzero G_ij, one einsum of
    the rows z_a[i] against a gather of the z_b[j] per b.  Only the entries
    a <= b are computed, a < b for an alternating G, whose diagonal is zero;
    the others are mirrored, with a sign flip for an alternating G.  A slot-major z, a view of an
    (n, k, N) buffer as ``pattern_matrices`` returns, is read in place.
    """
    cols, vals, skew = form
    n_items, k, _ = z.shape
    out = np.zeros((k, k, n_items), dtype=np.int32)
    if k > skew and cols.size:
        zt = z.transpose(2, 1, 0)
        for b in range(skew, k):
            a = b + 1 - skew
            w = zt[cols, b]
            if vals is not None:
                w *= vals
                _reduce(w, p)
            s = np.einsum("ian,lin->an", zt[:, :a], w)
            out[:a, b] = s
            out[b, :a] = -s if skew else s
        _reduce(out, p)
    return out.transpose(2, 0, 1)


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p, in place.  numpy's integer % divides entry by entry, while
    // by a scalar runs vectorized: x - (x // p) * p is several times faster,
    and far more so on negative entries."""
    x -= x // p * p


def _gram_rank(g: np.ndarray, p: int, skew: int) -> np.ndarray:
    """Ranks of a stack of k x k Gram matrices, alternating if ``skew``;
    closed form for k <= 3, where only the singular symmetric 3 x 3 ones go
    to ``batch_rank``."""
    k = g.shape[1]
    if k == 0:
        return np.zeros(len(g), dtype=np.int64)
    if skew and k <= 3:
        # an alternating matrix has even rank: below 4 rows, 2 or 0
        return 2 * g.any(axis=(1, 2)).astype(np.int64)
    if k == 1:
        return (g[:, 0, 0] != 0).astype(np.int64)
    if k == 2:
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        _reduce(det, p)
        return np.where(det != 0, 2, g.any(axis=(1, 2)))
    if k == 3:
        m = g.astype(np.int64)
        det = (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        ) % p
        rank = np.full(len(g), 3, dtype=np.int64)
        sing = np.flatnonzero(det == 0)
        if sing.size:
            rank[sing] = batch_rank(g[sing], p)
        return rank
    return batch_rank(g, p)


def _pack(space, blocks) -> np.ndarray:
    """Label codes from each factor's graded piece.

    ``blocks[i]`` is ``(k_i, z_i)``: the dimension of graded piece i (an
    int shared by the stack, or one int per item) and a stack (N, rows, n_i)
    of block-i rows spanning it, any other rows zero.  r_i is the rank of
    their Gram matrix, read through the factor's ``terms``; the witness rank
    that splits "0p" from "0pp" is taken only on the items with
    k_i = n_i / 2 and r_i = 0, and a factor that needs it but has no witness
    is refused, as ``orbits.label_of`` refuses it.
    """
    p = space.p
    # per-factor digit k_i * (n_i + 3) + rcode_i, with k_i <= n_i and
    # rcode_i <= n_i + 2, packed mixed-radix with the first factor most
    # significant; the radix product is at most 8^n <= 8^16, far inside int64
    packed = 0
    for (k_i, z), d, f in zip(blocks, space.dims, space.factors):
        r_i = _gram_rank(_gram(z, f.terms, p), p, f.terms[2])
        rcode = r_i + 2
        half = d // 2
        # a walk chunk shares one int k_i, so most chunks skip the mask
        if f.form_type == "symmetric" and d % 2 == 0 and (np.ndim(k_i) or k_i == half):
            need = np.flatnonzero((k_i == half) & (r_i == 0))
            if need.size:
                if f.witness is None:
                    raise ValueError("split witness required to separate the two components")
                rcode[need] = np.where(same_ruling(z[need], half, f.witness.basis, p), 0, 1)
        packed = packed * ((d + 1) * (d + 3)) + k_i * (d + 3) + rcode
    return packed


def classify_batch(space, mats: np.ndarray) -> np.ndarray:
    """Label codes of a stack of subspaces of B = B_1 + ... + B_m.

    ``mats`` has shape (N, k, n): one full-rank basis per subspace, entries
    reduced mod p, in any basis (they need not be RREF).  ``space`` is read
    only through ``.p``, ``.dims``, ``.offsets`` and ``.factors`` (each with
    ``terms``, ``form_type`` and ``witness``).  Returns one int64 code per
    subspace; ``decode`` turns it into ((k_1, r_1), ..., (k_m, r_m)).

    Gauss-Jordan on the column-reversed bases makes each row's pivot its
    last nonzero column, so the k_i rows ending in block i span H cap B_{<=i}
    modulo H cap B_{<i} and their block-i columns are a basis of the graded
    piece (one factor, or k = 0, needs no elimination).  ``_pack`` takes
    each piece's rows with the others zeroed.
    """
    p, dims, offsets = space.p, space.dims, space.offsets
    n_items, k, n = mats.shape
    row_block = np.zeros((n_items, k), dtype=np.int64)
    if len(dims) > 1 and k > 0:
        rev = mats[:, :, ::-1].copy()
        batch_rank(rev, p)
        block_of = np.repeat(np.arange(len(dims)), dims)  # factor of each column
        row_block = block_of[n - 1 - np.argmax(rev != 0, axis=2)]
        mats = rev[:, :, ::-1]
    by_slot = mats.transpose(2, 1, 0)  # each piece is built slot-major, as _gram reads it
    blocks = []
    for i in range(len(dims)):
        in_block = row_block == i
        z = np.where(in_block.T, by_slot[offsets[i] : offsets[i + 1]], 0).transpose(2, 1, 0)
        blocks.append((in_block.sum(axis=1), z))
    return _pack(space, blocks)


def decode(dims: Sequence[int], code) -> tuple[tuple[int, int | str], ...]:
    """The label ((k_1, r_1), ..., (k_m, r_m)) behind a ``classify_batch``
    code; r_i is an int or one of the component tags "0p"/"0pp"."""
    code = int(code)
    out = []
    for d in reversed(dims):
        code, digit = divmod(code, (d + 1) * (d + 3))
        k_i, rcode = divmod(digit, d + 3)
        out.append((k_i, "0p" if rcode == 0 else "0pp" if rcode == 1 else rcode - 2))
    return tuple(reversed(out))


def classify_counts(
    space, k: int, start: int = 0, stop: int | None = None, chunk: int = 1 << 16
) -> dict[tuple, int]:
    """Count subspaces of Gr_k(B) by label, over the index slice [start, stop).

    Returns a dict keyed by ``decode`` labels.  The slice covers the
    column-reversed images of that slice of the walk's RREF matrices:
    column reversal is a bijection of Gr_k(F_p^n), so full-range counts are
    the counts of Gr_k(B), and chunked calls merge by summing counts.  The
    tally stays ``np.unique``, one call per 2^16 codes however small the
    chunks: a bincount cannot span the 8^16 key space.

    A reversed RREF matrix is a reverse echelon basis whose row j ends in
    column n - 1 - pattern[j], so the pivot pattern fixes every k_i for the
    whole chunk and each graded piece is a plain slice of k_i rows: no
    elimination is needed, and ``batch_rank`` runs only on witness stacks,
    on singular 3 x 3 Grams and on Grams with k_i >= 4.
    """
    p, dims, offsets = space.p, space.dims, space.offsets
    n = offsets[-1]
    if stop is None:
        stop = gaussian_binomial(n, k)(p)
    block_of = np.repeat(np.arange(len(dims)), dims)
    raw: Counter = Counter()
    held, size = [], 0  # codes not tallied yet: one np.unique per 2^16 of them
    for pattern, lo, hi in iter_chunks(n, k, p, start, stop, chunk):
        mats = pattern_matrices(n, k, p, pattern, lo, hi)[:, :, ::-1]
        # row j ends in block block_of[n - 1 - pattern[j]], which falls as j
        # rises, so each graded piece is a run of rows, the last block first
        ks = [0] * len(dims)
        for c in pattern:
            ks[block_of[n - 1 - c]] += 1
        blocks, row = [None] * len(dims), 0
        for i in reversed(range(len(dims))):
            blocks[i] = (ks[i], mats[:, row : row + ks[i], offsets[i] : offsets[i + 1]])
            row += ks[i]
        held.append(_pack(space, blocks))
        size += hi - lo
        if size >= 1 << 16:
            _tally(raw, held)
            held, size = [], 0
    if held:
        _tally(raw, held)
    return {decode(space.dims, code): c for code, c in raw.items()}


def _tally(raw: Counter, held: list) -> None:
    uniq, cnt = np.unique(np.concatenate(held), return_counts=True)
    raw.update(dict(zip(uniq.tolist(), cnt.tolist())))


def isotropic_filter(mats: np.ndarray, form: tuple, p: int) -> np.ndarray:
    """Boolean mask of batch items whose row space is isotropic for the form
    with terms ``form`` (a space's ``terms``)."""
    return ~_gram(mats, form, p).any(axis=(1, 2))
