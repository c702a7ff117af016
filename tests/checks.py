"""Test-side helpers: rendering of verify.CheckResult, random matrices and
subspaces, the determinant oracle, labels of subspaces of mixed dimensions,
the scalar between-step oracle, the scalar congruence normal form, the
per-item view of Witt split stacks with the scalar Witt suite loop, the
per-point view of tower stacks, and point selection on tower stacks and
walks."""

import operator
from dataclasses import dataclass

import numpy as np

from isograss import _batch, verify
from isograss.bilinear import WittStack, transport_isometry, witt_decompose
from isograss.linalg import (
    Subspace,
    complement_rows,
    enumerate_subspaces,
    inv_mod,
    rref,
    span,
)
from isograss.sumspace import stack_multilabels
from isograss.towers import TowerStack


def check_line(result) -> str:
    """A check as one PASS/FAIL line; a failure carries its details."""
    status = "PASS" if result.passed else "FAIL"
    extra = f"  [{result.details}]" if result.details and not result.passed else ""
    return f"{status}  {result.name}{extra}"


def random_matrix(rows: int, cols: int, p: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


def random_subspace(n: int, k: int, p: int, rng: np.random.Generator) -> Subspace:
    """A uniform random k-subspace: random k x n matrices until one has full rank."""
    while True:
        red = rref(random_matrix(k, n, p, rng), p)
        if red.shape[0] == k:
            return Subspace(red, n, p)


def batch_det(a: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices (N, n, n): Gaussian
    elimination with the first nonzero entry of each column as its pivot,
    keeping the product of the pivots and the sign of the row swaps."""
    a = np.array(a, dtype=np.int64) % p
    n_items, n, _ = a.shape
    det = np.ones(n_items, dtype=np.int64)
    inv = _batch._inverse_table(p)
    for col in range(n):
        prow = col + np.argmax(a[:, col:, col] != 0, axis=1)
        swap = np.flatnonzero(prow != col)
        a[swap, col], a[swap, prow[swap]] = a[swap, prow[swap]], a[swap, col]
        det[swap] *= -1
        piv = a[:, col, col]  # 0 where the column has no pivot: det and f vanish
        det = det * piv % p
        f = a[:, col + 1 :, col] * inv[piv][:, None]
        a[:, col + 1 :] -= f[:, :, None] % p * a[:, col, None]
        a %= p
    return det


def stack_labels(space, hs) -> list:
    """The labels of Subspaces of mixed dimensions, in order: one
    ``stack_multilabels`` call per dimension present."""
    hs = list(hs)
    out = [None] * len(hs)
    for k in {h.dim for h in hs}:
        idx = [j for j, h in enumerate(hs) if h.dim == k]
        mats = np.array([hs[j].basis for j in idx], dtype=np.int32).reshape(len(idx), k, space.n)
        for j, label in zip(idx, stack_multilabels(space, mats)):
            out[j] = label
    return out


def scalar_between(lower: Subspace, upper: Subspace, d: int):
    """All X with lower <= X <= upper and dim X = d, one Subspace at a time:
    the greedy complement of lower in upper, then every point of
    Gr_{d-u}(F_p^{w-u}) multiplied into it, stacked under lower and reduced
    by a scalar rref.  The order the batched step must keep."""
    u, w, p = lower.dim, upper.dim, lower.p
    if not u <= d <= w:
        return
    if not upper.contains(lower):
        raise ValueError("lower is not contained in upper")
    if d in (u, w):
        yield lower if d == u else upper
        return
    comp = complement_rows(lower.basis, upper.basis, p)
    for q in enumerate_subspaces(w - u, d - u, p, budget=None):
        yield Subspace(rref(np.vstack([lower.basis, q.basis @ comp % p]), p), lower.n, p)


@dataclass(frozen=True)
class FlagDatum:
    """One point of the resolution: per-factor isotropics and the flag chain."""

    ptildes: tuple[Subspace, ...]  # in B_i coordinates
    ps: tuple[Subspace, ...]       # in B, supported on the first blocks
    hs: tuple[Subspace, ...]      # the last one is the point's target


def flag_datum(stack: TowerStack, i) -> FlagDatum:
    """Point ``i`` of a tower stack as Subspaces."""
    i, n, p = operator.index(i), stack.space.n, stack.space.p
    return FlagDatum(
        tuple(Subspace(x[i], f.n, p) for x, f in zip(stack.ptildes, stack.space.factors)),
        tuple(Subspace(x[i], n, p) for x in stack.ps),
        tuple(Subspace(x[i], n, p) for x in stack.hs),
    )


def flag_data(stack: TowerStack) -> list[FlagDatum]:
    """Every point of a tower stack as Subspaces, in walk order."""
    return [flag_datum(stack, i) for i in range(len(stack))]


def take_points(stack: TowerStack, index) -> TowerStack:
    """The points of ``stack`` at ``index``, in that order (repeats allowed)."""
    index = np.asarray(index, dtype=np.intp)
    return TowerStack(
        stack.space, *([x[index] for x in part] for part in (stack.ptildes, stack.ps, stack.hs))
    )


def same_points(a: TowerStack, b: TowerStack) -> bool:
    """Whether two walks give the same points in the same order."""
    mine, theirs = a.ptildes + a.ps + a.hs, b.ptildes + b.ps + b.hs
    return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))


def edit_whole_walks(real, edit):
    """A stand-in for ``towers._walk`` that applies ``edit(space, label,
    points)`` to each whole-resolution job (its ceiling is all of B) and
    leaves the fiber walks as they are."""
    def walk(space, jobs, budget):
        return [edit(space, label, points) if ceiling.dim == space.n else points
                for (label, ceiling), points in zip(jobs, real(space, jobs, budget))]

    return walk


def legendre(a: int, p: int) -> int:
    v = pow(a % p, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def smallest_nonresidue(p: int) -> int:
    return next(a for a in range(2, p) if legendre(a, p) == -1)


def sqrt_mod(a: int, p: int) -> int:
    """The least square root of a quadratic residue; brute scan (p <= 997)."""
    a %= p
    for x in range(p):
        if x * x % p == a:
            return x
    raise ValueError(f"{a} is not a square mod {p}")


def represent_one(a: int, b: int, p: int) -> tuple[int, int]:
    """(x, y) with a x^2 + b y^2 = 1, x the least that works; exists for
    nonzero a, b and odd p."""
    for x in range(p):
        rest = (1 - a * x * x) % p
        if rest == 0:
            if x:
                return x, 0
            continue
        val = rest * inv_mod(b, p) % p
        if legendre(val, p) == 1:
            return x, sqrt_mod(val, p)
    raise ValueError("binary form does not represent 1")  # impossible for p odd


def normal_basis(gm: np.ndarray, p: int, skew: bool) -> tuple[np.ndarray, int]:
    """The scalar oracle of ``_batch.congruence_normal`` on a nondegenerate
    Gram: T with T gm T^T in normal form, from one Gram-Schmidt pass over the
    rows of the identity; returns (T, delta).

    Alternating gm: hyperbolic pairs <u_i, v_i> = 1 ordered u_1..u_h,
    v_h..v_1, so T gm T^T = antidiag(1,..,1,-1,..,-1) and delta = 1.
    Symmetric gm: T gm T^T = diag(1,..,1,delta) with delta 1 or the
    smallest nonresidue.  Raises ValueError when gm is degenerate.
    """
    d = gm.shape[0]
    g = np.array(gm, dtype=np.int64) % p
    rest = list(np.eye(d, dtype=np.int64))
    us, vs, norms = [], [], []
    while rest:
        if skew:
            u = rest.pop(0)
            ug = u @ g
            j = next((j for j, w in enumerate(rest) if int(ug @ w) % p), None)
            if j is None:
                raise ValueError("form is degenerate")
            w = rest.pop(j)
            v = w * inv_mod(int(ug @ w) % p, p) % p
            vg = v @ g
            # w - <w, v> u + <w, u> v pairs to zero with u and v
            rest = [(w + int(vg @ w) % p * u - int(ug @ w) % p * v) % p for w in rest]
            us.append(u)
            vs.append(v)
            continue
        i = next((i for i, w in enumerate(rest) if int(w @ g @ w) % p), None)
        if i is None:
            # all rows isotropic: u + w is anisotropic once <u, w> != 0
            ug = rest[0] @ g
            j = next((j for j, w in enumerate(rest) if int(ug @ w) % p), None)
            if j is None:
                raise ValueError("form is degenerate")
            i, rest[0] = 0, (rest[0] + rest[j]) % p
        u = rest.pop(i)
        gu = g @ u
        a = int(u @ gu) % p
        c = inv_mod(a, p)
        rest = [(w - int(w @ gu) * c % p * u) % p for w in rest]
        us.append(u)
        norms.append(a)
    for i in range(len(norms) - 1):
        a, b = norms[i], norms[i + 1]
        if a != 1:
            # norms of (x e_i + y e_i+1, b y e_i - a x e_i+1) are (1, a b)
            x, y = represent_one(a, b, p)
            e, f = us[i], us[i + 1]
            us[i], us[i + 1] = (x * e + y * f) % p, (b * y * e - a * x * f) % p
            norms[i + 1] = a * b % p
    delta = 1
    if norms:
        last = norms[-1]
        if legendre(last, p) == -1:
            delta = smallest_nonresidue(p)
        us[-1] = sqrt_mod(delta * inv_mod(last, p), p) * us[-1] % p  # last * s^2 = delta
    return np.array(us + vs[::-1], dtype=np.int64).reshape(d, d), delta


def apply_isometry(g: np.ndarray, h: Subspace) -> Subspace:
    """Image of h under the isometry matrix g (column-vector convention)."""
    return span(h.basis @ g.T % h.p, h.n, h.p)


def witt_parts(split: WittStack, i: int) -> tuple[np.ndarray, ...]:
    """Item i of a split stack as its four row stacks m1, m2, m3, m4."""
    n, t, r = len(split.bases[i]), int(split.t[i]), int(split.r[i])
    return tuple(np.split(split.bases[i], [t, t + r, n - t]))


def witt_stack(parts, deltas) -> WittStack:
    """The one-item split stack of the row stacks m1, m2, m3, m4."""
    m1, m2 = parts[:2]
    return WittStack(np.vstack(parts)[None], np.array([len(m1)]), np.array([len(m2)]),
                     np.array([deltas]))


def witt_split(space, h: Subspace) -> WittStack:
    """The one-item ``witt_decompose`` stack of one subspace."""
    return witt_decompose(space, h.basis[None])


def scalar_suite_witt(specs, primes, pairs_per_space, seed):
    """``verify.suite_witt`` as a loop over one draw at a time of the same
    ``verify._draw`` rounds: each subspace is decomposed, checked and
    transported on its own, through one-item stacks."""
    out = []
    rng = np.random.default_rng(seed)
    for spec in specs:
        for p in primes:
            fails = []
            for amb in verify._transport_spaces(spec, p):
                n = amb.n
                buckets: dict = {}
                done = 0
                while done < pairs_per_space:
                    padded, dims = verify._draw(n, p, pairs_per_space - done, rng)
                    for basis, k in zip(padded, dims.tolist()):
                        h = Subspace(basis[:k], n, p)
                        ws = witt_split(amb, h)
                        if not verify._witt_table_ok(amb, h.basis[None], ws)[0]:
                            fails.append(f"pairing table fails for {h}")
                            done += 1
                            continue
                        key = (k, int(ws.r[0]), tuple(ws.deltas[0].tolist()))
                        prev = buckets.get(key)
                        buckets[key] = (h, ws)
                        if prev is None:
                            continue
                        other, other_ws = prev
                        [g] = transport_isometry(amb, other_ws, ws)
                        if ((g.T @ amb.gram @ g - amb.gram) % p).any():
                            fails.append("not an isometry")
                        if apply_isometry(g, other) != h:
                            fails.append("does not transport")
                        done += 1
            out.append(verify._result(f"witt/transport {spec} p={p} ({pairs_per_space} pairs)", fails))
    return out
