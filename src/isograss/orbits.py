"""Single-factor orbit theory: labels (k, r) for the rank stratification of
Gr_k(V) under the isometry group of a nondegenerate form, the two component
tags for maximal isotropics of even symmetric spaces, orbit dimensions, and
stabilizer component groups.

Rank symbols are ints, or the strings "0p" / "0pp" for the two families of
maximal isotropic subspaces (symmetric form, n = 2k): a maximal isotropic H
is tagged "0p" when dim(H cap witness) = k mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _batch
from .bilinear import SKEW, SYMMETRIC, BilinearSpace, radical
from .linalg import Subspace

PRIME0 = "0p"
DOUBLEPRIME0 = "0pp"

RankSymbol = int | str


class InvalidLabel(ValueError):
    pass


def rank_sort_key(r: RankSymbol) -> tuple[int, int]:
    """Sort order 0' < 0'' < 0 < 1 < 2 < ..."""
    if r == PRIME0:
        return (0, 0)
    if r == DOUBLEPRIME0:
        return (0, 1)
    return (1, int(r))


def rank_numeric(r: RankSymbol) -> int:
    """The integer behind a rank symbol; the component tags count as 0."""
    return 0 if r in (PRIME0, DOUBLEPRIME0) else int(r)


def format_rank(r: RankSymbol) -> str:
    return {PRIME0: "0'", DOUBLEPRIME0: "0''"}.get(r, str(r))


@dataclass(frozen=True)
class SingleLabel:
    form_type: str
    n: int
    k: int
    r: RankSymbol

    def __post_init__(self):
        if not is_valid_label(self.form_type, self.n, self.k, self.r):
            raise InvalidLabel(
                f"(k={self.k}, r={format_rank(self.r)}) is not a valid "
                f"{self.form_type} label in dimension {self.n}"
            )

    def __str__(self):
        return f"(k={self.k}, r={format_rank(self.r)})"


def is_valid_label(form_type: str, n: int, k: int, r: RankSymbol) -> bool:
    if not 0 <= k <= n:
        return False
    if r in (PRIME0, DOUBLEPRIME0):
        return form_type == SYMMETRIC and n > 0 and n == 2 * k
    r = int(r)
    lo = max(0, 2 * k - n)
    if form_type == SKEW:
        return r % 2 == 0 and lo <= r <= k
    if form_type != SYMMETRIC:
        raise ValueError(f"unknown form type {form_type!r}")
    if n > 0 and n == 2 * k:
        # integer 0 is replaced by the two component tags here
        return 1 <= r <= k
    return lo <= r <= k


def valid_labels(form_type: str, n: int, k: int) -> list[SingleLabel]:
    """All orbit labels for Gr_k of a split nondegenerate form of dim n,
    ordered 0' < 0'' < integers ascending."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return [
        SingleLabel(form_type, n, k, r)
        for r in (PRIME0, DOUBLEPRIME0, *range(k + 1))
        if is_valid_label(form_type, n, k, r)
    ]


def label_of(space: BilinearSpace, h: Subspace) -> SingleLabel:
    """Orbit label of a subspace of a nondegenerate space.

    r = dim h - dim rad(h); for a maximal isotropic of an even-dimensional
    symmetric space the component tag is its ruling relative to the split
    witness, which must be attached to the space.
    """
    if not space.is_nondegenerate():
        raise ValueError("label_of needs a nondegenerate space")
    k = h.dim
    r = k - radical(space, h).dim
    if space.form_type == SYMMETRIC and space.n == 2 * k and r == 0 and k > 0:
        if space.witness is None:
            raise ValueError("split witness required to separate the two components")
        same = _batch.same_ruling(h.basis[None], k, space.witness.basis, space.p)[0]
        tag = PRIME0 if same else DOUBLEPRIME0
        return SingleLabel(space.form_type, space.n, k, tag)
    return SingleLabel(space.form_type, space.n, k, r)


def orbit_dim(label: SingleLabel) -> int:
    """Dimension of the orbit, read off the explicit tangent space: the
    anti-self-adjoint block contributes t(t+1)/2 for a skew ambient form
    and t(t-1)/2 for a symmetric one, t = k - r."""
    n, k = label.n, label.k
    r = rank_numeric(label.r)
    eps = 1 if label.form_type == SKEW else -1
    t = k - r
    return k * (n - 2 * k + r) + r * t + t * (t + eps) // 2


def component_group_order(label: SingleLabel) -> int:
    """2 when the stabilizer has two components: symmetric form and
    max{0, 2k-n} < r with r an integer; otherwise 1."""
    if label.form_type != SYMMETRIC:
        return 1
    if label.r in (PRIME0, DOUBLEPRIME0):
        return 1
    return 2 if max(0, 2 * label.k - label.n) < int(label.r) else 1

