"""Bilinear spaces over F_p: symmetric or alternating Gram matrices,
orthogonal complements, radicals, subquotients U/L with their induced
forms, the four-summand Witt split adapted to a subspace
(``witt_decompose``, the only place a split is built), and a
constructive isometry transporter that takes the splits of two subspaces
with matching invariants and reads those invariants off them.

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
    left_kernel,
    rank_mod,
    span,
    subspace_intersect,
    zero_subspace,
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

    def __eq__(self, other):
        return (
            isinstance(other, BilinearSpace)
            and self.n == other.n
            and self.p == other.p
            and self.form_type == other.form_type
            and (self.gram == other.gram).all()
            and self.witness == other.witness
        )

    def __hash__(self):
        return hash((self.n, self.p, self.form_type, self.gram.tobytes(), self.witness))


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
    ker = left_kernel(constraints, space.p)
    return span(ker, space.n, space.p) if ker.size else zero_subspace(space.n, space.p)


def radical(space: BilinearSpace, h: Subspace) -> Subspace:
    """Radical of the restricted form: h cap h^perp."""
    return subspace_intersect(h, perp(space, h))


def subquotient(
    space: BilinearSpace, lower: Subspace, upper: Subspace
) -> tuple[np.ndarray, BilinearSpace]:
    """upper / lower with its induced form, for lower <= rad(upper).

    Returns (comp, quotient): ``comp`` holds rows of ``upper``'s basis that
    complete ``lower`` to ``upper``, and the quotient's Gram is the pairing
    of those rows.  Raises ValueError unless lower <= rad(upper).
    """
    p = space.p
    comp = complement_rows(lower.basis, upper.basis, p)
    # dim(lower + upper) = dim lower + len(comp), which is dim upper iff lower <= upper
    if lower.dim + comp.shape[0] != upper.dim or pairing(space, lower.basis, upper.basis).any():
        raise ValueError("lower is not contained in the radical of upper")
    return comp, BilinearSpace(comp.shape[0], p, space.form_type, pairing(space, comp, comp))


def discriminant_class(space: BilinearSpace, rows: np.ndarray) -> int:
    """Square class (+1 residue / -1 nonresidue) of det of the restricted Gram.

    Only meaningful when the restriction is nondegenerate; raises otherwise.
    """
    d = det_mod(pairing(space, rows, rows), space.p)
    if d == 0:
        raise ValueError("restricted form is degenerate")
    return _legendre(d, space.p)


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

@dataclass(frozen=True)
class WittSplit:
    """V = M1 + M2 + M3 + M4 with M1 = rad h, M1+M2 = h, M1+M3 = h^perp and
    the pairing perfect exactly on M1 x M4, M2 x M2, M3 x M3."""

    m1: Subspace
    m2: Subspace
    m3: Subspace
    m4: Subspace


def witt_decompose(space: BilinearSpace, h: Subspace) -> WittSplit:
    """Four-summand decomposition adapted to h; ambient must be nondegenerate."""
    if not space.is_nondegenerate():
        raise ValueError("witt_decompose needs a nondegenerate ambient form")
    n, p = space.n, space.p
    hperp = perp(space, h)
    m1 = subspace_intersect(h, hperp)
    b1 = m1.basis
    b2 = complement_rows(b1, h.basis, p)
    b3 = complement_rows(b1, hperp.basis, p)
    # M4 must pair perfectly with M1 and pair to zero with everything else,
    # so it is found inside (M2 + M3)^perp as an isotropic complement of M1.
    m23 = span(np.vstack([b2, b3]), n, p)
    c = complement_rows(b1, perp(space, m23).basis, p)
    b4 = np.zeros((0, n), dtype=np.int64)
    if b1.size:
        f0 = RowSolver(pairing(space, b1, c), p).transform.T @ c % p
        b4 = (f0 - inv_mod(2, p) * pairing(space, f0, f0) @ b1) % p
    return WittSplit(m1, span(b2, n, p), span(b3, n, p), span(b4, n, p))


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
    t = np.array(us + vs[::-1], dtype=np.int64).reshape(d, d)
    if skew:
        expect = np.fliplr(np.diag([1] * (d // 2) + [p - 1] * (d // 2)))
    else:
        expect = np.diag([1] * (d - 1) + [delta] * (d > 0))
    if (t @ g @ t.T % p != expect).any():
        raise AssertionError("normal basis construction failed")
    return t, delta


def isometry_rows(space: BilinearSpace, rows_a: np.ndarray, rows_b: np.ndarray):
    """Re-coordinate two spanning row stacks so their restricted Grams agree.

    Returns (new_a, new_b) spanning the same two subspaces with identical
    pairing matrices; raises DiscriminantMismatch when no isometry exists."""
    p, skew = space.p, space.form_type == SKEW
    ta, da = _normal_basis(pairing(space, rows_a, rows_a), p, skew)
    tb, db = _normal_basis(pairing(space, rows_b, rows_b), p, skew)
    if da != db:
        raise DiscriminantMismatch(f"restricted forms have discriminant classes {da} vs {db}")
    return ta @ rows_a % p, tb @ rows_b % p


def apply_isometry(g: np.ndarray, h: Subspace) -> Subspace:
    """Image of h under the isometry matrix g (column-vector convention)."""
    return span(h.basis @ g.T % h.p, h.n, h.p)


def transport_isometry(space: BilinearSpace, a: WittSplit, b: WittSplit) -> np.ndarray:
    """Isometry g (with g^T gram g = gram) carrying h = a.m1 + a.m2 onto
    h2 = b.m1 + b.m2, given the ``witt_decompose`` splits of h and h2.

    Requires equal dimension and equal rank invariant; over F_p the
    restricted nondegenerate parts must also lie in the same discriminant
    class or DiscriminantMismatch is raised.  In the symmetric case the
    determinant is normalized to 1 whenever a determinant twist is
    available (r > 0 or n - 2k + r > 0); for the two families of maximal
    isotropics no such twist exists and det g = -1 transports between them.
    """
    if not space.is_nondegenerate():
        raise ValueError("transport needs a nondegenerate ambient form")
    k, k2 = a.m1.dim + a.m2.dim, b.m1.dim + b.m2.dim
    if k != k2:
        raise InvariantMismatch(f"dims differ: {k} vs {k2}")
    r = a.m2.dim
    if r != b.m2.dim:
        raise InvariantMismatch(f"rank invariants differ: {r} vs {b.m2.dim}")
    p, t = space.p, a.m1.dim

    a2, b2 = a.m2.basis, b.m2.basis
    if r:
        a2, b2 = isometry_rows(space, a2, b2)
    a3, b3 = a.m3.basis, b.m3.basis
    if a3.size:
        a3, b3 = isometry_rows(space, a3, b3)
    a1, a4, b1, b4 = a.m1.basis, a.m4.basis, b.m1.basis, b.m4.basis
    if t:
        # re-coordinate b4 so that it pairs with b1 as a4 pairs with a1
        pa = pairing(space, a1, a4)
        pb = pairing(space, b1, b4)
        b4 = (pa.T @ RowSolver(pb, p).transform.T % p) @ b4 % p

    src_inv = RowSolver(np.vstack([a1, a2, a3, a4]), p).transform
    img = np.vstack([b1, b2, b3, b4])
    g_rows = src_inv @ img % p
    if space.form_type == SYMMETRIC and (r or a3.size) and det_mod(g_rows, p) != 1:
        # row t is the first M2 image row when r > 0, else the first M3 one
        img[t] *= -1
        g_rows = src_inv @ img % p
    return g_rows.T % p

