"""Bilinear spaces over F_p: symmetric or alternating Gram matrices,
orthogonal complements, radicals, subquotients U/L with their induced
forms, the four-summand Witt split adapted to a subspace
(``witt_decompose``, the only place a split is built: its basis is put in
block normal form once, there), and a constructive isometry transporter
that reads two such splits and maps one basis onto the other.

Everything is for odd p, so 2 is invertible and symmetric forms
diagonalize.  Over F_p, unlike over an algebraically closed field, two
nondegenerate symmetric forms of equal dimension split into two isometry
classes by discriminant; the transporter surfaces that obstruction as
DiscriminantMismatch instead of working around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    RowSolver,
    Subspace,
    as_prime,
    complement_rows,
    det_mod,
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


def pairing(space: BilinearSpace, rows_u: np.ndarray, rows_v: np.ndarray) -> np.ndarray:
    """Matrix of <u_i, v_j> for row stacks u, v."""
    u = np.asarray(rows_u, dtype=np.int64).reshape(-1, space.n)
    v = np.asarray(rows_v, dtype=np.int64).reshape(-1, space.n)
    return u @ space.gram @ v.T % space.p


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


def _legendre(a: int, p: int) -> int:
    v = pow(a % p, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for a in range(2, p):
        if _legendre(a, p) == -1:
            return a
    raise ValueError("no nonresidue found")  # unreachable for odd p


def sqrt_mod(a: int, p: int) -> int:
    """Any square root of a quadratic residue; brute scan (p <= 997)."""
    a %= p
    for x in range(p):
        if x * x % p == a:
            return x
    raise ValueError(f"{a} is not a square mod {p}")


# ---------------------------------------------------------------------------
# Witt-style decomposition adapted to a subspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WittSplit:
    """A basis of V = M1 + M2 + M3 + M4 adapted to h, as four row stacks:
    ``m1`` the RREF basis of rad h, ``m2`` and ``m3`` completing it to h and
    h^perp in ``_normal_basis`` form (square classes ``deltas``), and ``m4``
    isotropic with <m1, m4> = I.  So the stacked basis has the Gram
    ``normal_form``, fixed by the dims and deltas."""

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    deltas: tuple[int, int]

    def stacked(self) -> np.ndarray:
        return np.vstack([self.m1, self.m2, self.m3, self.m4])

    def normal_form(self, space: BilinearSpace) -> np.ndarray:
        blocks = zip((len(self.m2), len(self.m3)), self.deltas)
        return _normal_gram(space.p, space.form_type == SKEW, len(self.m1), *blocks)


def witt_decompose(space: BilinearSpace, h: Subspace) -> WittSplit:
    """The adapted basis of h, in normal form; ambient must be nondegenerate."""
    if not space.is_nondegenerate():
        raise ValueError("witt_decompose needs a nondegenerate ambient form")
    n, p = space.n, space.p
    hperp = perp(space, h)
    b1 = radical(space, h).basis
    b2 = complement_rows(b1, h.basis, p)
    b3 = complement_rows(b1, hperp.basis, p)
    # M4 must pair perfectly with M1 and pair to zero with everything else,
    # so it is found inside (M2 + M3)^perp as an isotropic complement of M1.
    c = complement_rows(b1, left_kernel(space.gram @ np.vstack([b2, b3]).T, p), p)
    b4 = np.zeros((0, n), dtype=np.int64)
    if b1.size:
        f0 = RowSolver(pairing(space, b1, c), p).transform.T @ c % p
        b4 = (f0 - inv_mod(2, p) * pairing(space, f0, f0) @ b1) % p
    (m2, d2), (m3, d3) = _normalize(space, b2), _normalize(space, b3)
    return WittSplit(b1, m2, m3, b4, (d2, d3))


def _normalize(space: BilinearSpace, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """``rows`` re-coordinated by ``_normal_basis`` of their Gram, and its delta."""
    if not rows.size:
        return rows, 1
    t, delta = _normal_basis(pairing(space, rows, rows), space.p, space.form_type == SKEW)
    return t @ rows % space.p, delta


# ---------------------------------------------------------------------------
# Constructive isometries
# ---------------------------------------------------------------------------

def _represent_one(a: int, b: int, p: int) -> tuple[int, int]:
    """(x, y) with a x^2 + b y^2 = 1; exists for nondegenerate a, b, odd p."""
    for x in range(p):
        rest = (1 - a * x * x) % p
        if rest == 0:
            if x:
                return x, 0
            continue
        val = rest * inv_mod(b, p) % p
        if _legendre(val, p) == 1:
            return x, sqrt_mod(val, p)
    raise ValueError("binary form does not represent 1")  # impossible for p odd


def _normal_gram(p: int, skew: bool, t: int, *blocks: tuple[int, int]) -> np.ndarray:
    """The block normal form: t rows, one ``_normal_basis`` form per (dim,
    delta) block, then t rows dual to the first t; zero across blocks."""
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


def _normal_basis(gm: np.ndarray, p: int, skew: bool) -> tuple[np.ndarray, int]:
    """T with T gm T^T in normal form, from one Gram-Schmidt pass over the
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
            x, y = _represent_one(a, b, p)
            e, f = us[i], us[i + 1]
            us[i], us[i + 1] = (x * e + y * f) % p, (b * y * e - a * x * f) % p
            norms[i + 1] = a * b % p
    delta = 1
    if norms:
        last = norms[-1]
        if _legendre(last, p) == -1:
            delta = smallest_nonresidue(p)
        us[-1] = sqrt_mod(delta * inv_mod(last, p), p) * us[-1] % p  # last * s^2 = delta
    return np.array(us + vs[::-1], dtype=np.int64).reshape(d, d), delta


def apply_isometry(g: np.ndarray, h: Subspace) -> Subspace:
    """Image of h under the isometry matrix g (column-vector convention)."""
    return span(h.basis @ g.T % h.p, h.n, h.p)


def transport_isometry(space: BilinearSpace, a: WittSplit, b: WittSplit) -> np.ndarray:
    """Isometry g (with g^T gram g = gram) carrying h = span(a.m1, a.m2) onto
    h2 = span(b.m1, b.m2), given the ``witt_decompose`` splits of h and h2:
    with equal dims and deltas both stacked bases have the same Gram, so g
    maps one onto the other, one inverse and one product.

    Requires equal dimension and equal rank invariant; over F_p the
    restricted nondegenerate parts must also lie in the same discriminant
    class (equal deltas) or DiscriminantMismatch is raised.  In the
    symmetric case the determinant is normalized to 1 whenever a twist is
    available (r > 0 or n - 2k + r > 0); for the two families of maximal
    isotropics no such twist exists and det g = -1 transports between them.
    """
    if not space.is_nondegenerate():
        raise ValueError("transport needs a nondegenerate ambient form")
    t, r = len(a.m1), len(a.m2)
    k, k2 = t + r, len(b.m1) + len(b.m2)
    if k != k2:
        raise InvariantMismatch(f"dims differ: {k} vs {k2}")
    if r != len(b.m2):
        raise InvariantMismatch(f"rank invariants differ: {r} vs {len(b.m2)}")
    if a.deltas != b.deltas:
        raise DiscriminantMismatch(f"restricted forms have discriminant classes {a.deltas} vs {b.deltas}")
    p = space.p
    src_inv = RowSolver(a.stacked(), p).transform
    img = b.stacked()
    g_rows = src_inv @ img % p
    if space.form_type == SYMMETRIC and (r or len(a.m3)) and det_mod(g_rows, p) != 1:
        # row t is the first M2 image row when r > 0, else the first M3 one;
        # negating one row of a diagonal block keeps the Gram
        img[t] *= -1
        g_rows = src_inv @ img % p
    return g_rows.T % p
