"""Ordered orthogonal sums B = B_1 + ... + B_m and the stratification of
Gr_k(B) by the group preserving every factor form together with the
coordinate filtration B_{<=i}.

A subspace H is labelled by, for each factor, the dimension k_i and the
rank symbol r_i of its graded piece pr_i H = (H cap B_{<=i})/(H cap B_{<i}).
The full label set for fixed k crosses the compositions of k with the
per-factor single labels.
"""

from __future__ import annotations

import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _batch
from .bilinear import SKEW, SYMMETRIC, BilinearSpace, standard_space
from .linalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Subspace,
    as_prime,
    rref,
    span,
    subspace_total,
    zero_at,
    zero_subspace,
)
from .orbits import (
    DOUBLEPRIME0,
    InvalidLabel,
    RankSymbol,
    SingleLabel,
    component_group_order,
    format_rank,
    is_valid_label,
    label_of,
    orbit_dim,
    rank_numeric,
    rank_sort_key,
    valid_labels,
)


@dataclass(frozen=True)
class MultiLabel:
    ks: tuple[int, ...]
    rs: tuple[RankSymbol, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.rs):
            raise ValueError("component count mismatch")

    @property
    def k(self) -> int:
        return sum(self.ks)

    def factor(self, space: "SumSpace", i: int) -> SingleLabel:
        f = space.factors[i]
        return SingleLabel(f.form_type, f.n, self.ks[i], self.rs[i])

    def sort_key(self):
        return (self.ks, tuple(rank_sort_key(r) for r in self.rs))

    def __str__(self):
        inner = ",".join(f"{k}:{format_rank(r)}" for k, r in zip(self.ks, self.rs))
        return f"({inner})"


# The accepted domain: _batch's int32 Gram products and int64 label codes
# are exact up to n = MAX_DIM, and gaussian_binomial stops there too.
MAX_DIM = 16


class SumSpace:
    """An ordered direct sum of bilinear spaces with its block filtration."""

    def __init__(self, factors, spec: str | None = None):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        p = factors[0].p
        if any(f.p != p for f in factors):
            raise ValueError("factors live over different primes")
        if any(f.n == 0 for f in factors):
            raise ValueError("factors must be nonzero")
        self.factors = factors
        self.p = p
        self.dims = tuple(f.n for f in factors)
        self.offsets = tuple(int(x) for x in np.cumsum((0,) + self.dims))
        self.n = self.offsets[-1]
        if self.n > MAX_DIM:
            raise ValueError(f"space dimension n={self.n} is above the bound n <= {MAX_DIM}")
        self.m = len(factors)
        gram = np.zeros((self.n, self.n), dtype=np.int64)
        for i, f in enumerate(factors):
            lo, hi = self.offsets[i], self.offsets[i + 1]
            gram[lo:hi, lo:hi] = f.gram
        gram.setflags(write=False)
        self.gram = gram
        self.spec = spec
        self._cache_key = (
            self.p,
            self.dims,
            tuple(f.form_type for f in factors),
            gram.tobytes(),
            tuple(f.witness for f in factors),
        )

    # -- geometry helpers ---------------------------------------------------
    def as_bilinear(self) -> BilinearSpace:
        """The total space with the orthogonal-sum form (no witness)."""
        kinds = {f.form_type for f in self.factors}
        if len(kinds) > 1:
            raise ValueError("mixed-type sums have no single ambient form type")
        return BilinearSpace(self.n, self.p, kinds.pop(), self.gram)

    def prefix_plus(self, i: int, h: Subspace) -> Subspace:
        """B_{<i} + h for a subspace h of B_i, as a subspace of B.

        Identity rows over the rows of h's RREF basis placed in block i are
        already in RREF, so no elimination runs.
        """
        lo, hi = self.offsets[i], self.offsets[i + 1]
        rows = np.zeros((lo + h.dim, self.n), dtype=np.int64)
        rows[:lo, :lo] = np.eye(lo, dtype=np.int64)
        rows[lo:, lo:hi] = h.basis
        return Subspace(rows, self.n, self.p)

    def project_factor(self, h: Subspace, i: int) -> Subspace:
        """pr_i h = (h cap B_{<=i}) / (h cap B_{<i}), in B_i coordinates: the
        block-i columns of h cap B_{<=i}, whose kernel is h cap B_{<i}."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return Subspace(rref(zero_at(h, slice(hi, None)).basis[:, lo:hi], self.p), self.dims[i], self.p)

    def __repr__(self):
        if self.spec:
            return f"SumSpace({self.spec!r}, p={self.p})"
        parts = "+".join(f"{f.form_type[:3]}{f.n}" for f in self.factors)
        return f"SumSpace({parts}, p={self.p})"


# ---------------------------------------------------------------------------
# Space specifications ("Sp2+O3+O4")
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"(Sp|O)(\d+)")


class SpecParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        super().__init__(f"cannot parse {text!r} at position {pos}: {message}")


def parse_space_spec(text: str) -> list[tuple[str, int]]:
    """Parse a compact factor list like "Sp2+O3" into (form_type, dim) pairs."""
    out = []
    pos = 0
    expect_factor = True
    while pos < len(text):
        if not expect_factor:
            if text[pos] != "+":
                raise SpecParseError(text, pos, "expected '+'")
            pos += 1
            expect_factor = True
            continue
        m = _FACTOR_RE.match(text, pos)
        if not m:
            raise SpecParseError(text, pos, "expected a factor like Sp4 or O3")
        form = SKEW if m.group(1) == "Sp" else SYMMETRIC
        dim = int(m.group(2))
        if dim < 1:
            raise SpecParseError(text, pos, "factor dimension must be >= 1")
        if form == SKEW and dim % 2:
            raise SpecParseError(text, pos, f"Sp{dim} is odd-dimensional")
        out.append((form, dim))
        pos = m.end()
        expect_factor = False
    if expect_factor:
        raise SpecParseError(text, pos, "expected a factor")
    return out


def format_space_spec(factors: list[tuple[str, int]]) -> str:
    return "+".join(("Sp" if f == SKEW else "O") + str(d) for f, d in factors)


def build_sum_space(spec: str, p: int) -> SumSpace:
    """Standard split model of the space named by a spec string."""
    p = as_prime(p)
    parsed = parse_space_spec(spec)
    factors = [standard_space(form, dim, p) for form, dim in parsed]
    return SumSpace(factors, spec=format_space_spec(parsed))


# ---------------------------------------------------------------------------
# Label sets and label computation
# ---------------------------------------------------------------------------

def enumerate_multilabels(space: SumSpace, k: int) -> list[MultiLabel]:
    """Every valid label for Gr_k(B): compositions of k crossed with the
    per-factor label sets, in lexicographic order."""
    if not 0 <= k <= space.n:
        raise ValueError(f"need 0 <= k <= {space.n}, got {k}")
    out = []
    for comp in _compositions(k, space.dims):
        per_factor = [
            valid_labels(f.form_type, f.n, ki) for f, ki in zip(space.factors, comp)
        ]
        for rs in product(*[[lab.r for lab in labs] for labs in per_factor]):
            out.append(MultiLabel(comp, rs))
    out.sort(key=MultiLabel.sort_key)
    return out


def _compositions(k: int, dims: tuple[int, ...]):
    if len(dims) == 1:
        if 0 <= k <= dims[0]:
            yield (k,)
        return
    for first in range(min(k, dims[0]) + 1):
        for rest in _compositions(k - first, dims[1:]):
            yield (first,) + rest


def multilabel_of(space: SumSpace, h: Subspace) -> MultiLabel:
    """Label of a subspace of B: per-factor dims and rank symbols of its
    graded pieces."""
    if h.n != space.n or h.p != space.p:
        raise ValueError("subspace lives in the wrong ambient space")
    ks, rs = [], []
    for i, f in enumerate(space.factors):
        pr = space.project_factor(h, i)
        lab = label_of(f, pr)
        ks.append(lab.k)
        rs.append(lab.r)
    return MultiLabel(tuple(ks), tuple(rs))


def stack_multilabels(space: SumSpace, mats: np.ndarray) -> list[MultiLabel]:
    """The labels of a stack (N, k, n) of full-rank bases reduced mod p, by
    the bulk classifier: one ``_batch.classify_batch`` call, and one
    ``decode`` per distinct code."""
    codes, inv = np.unique(_batch.classify_batch(space, mats), return_inverse=True)
    labels = [_multilabel(_batch.decode(space.dims, code)) for code in codes]
    return [labels[c] for c in inv.tolist()]


def _multilabel(key) -> MultiLabel:
    """MultiLabel of a ``_batch`` label ((k_1, r_1), ..., (k_m, r_m))."""
    ks, rs = zip(*key)
    return MultiLabel(ks, rs)


def validate_multilabel(space: SumSpace, label: MultiLabel, k: int | None = None):
    if len(label.ks) != space.m:
        raise InvalidLabel("wrong number of factors")
    for i, f in enumerate(space.factors):
        if not is_valid_label(f.form_type, f.n, label.ks[i], label.rs[i]):
            raise InvalidLabel(
                f"factor {i}: (k={label.ks[i]}, r={format_rank(label.rs[i])}) "
                f"invalid for {f.form_type} dim {f.n}"
            )
    if k is not None and label.k != k:
        raise InvalidLabel(f"label has total dimension {label.k}, expected {k}")


def orbit_dim_multi(space: SumSpace, label: MultiLabel) -> int:
    """Orbit dimension: per-factor orbit dims plus the affine-bundle
    contribution sum_{i<j} k_j (n_i - k_i) of the filtration."""
    validate_multilabel(space, label)
    total = sum(orbit_dim(label.factor(space, i)) for i in range(space.m))
    for j in range(space.m):
        for i in range(j):
            total += label.ks[j] * (space.dims[i] - label.ks[i])
    return total


def component_group_order_multi(space: SumSpace, label: MultiLabel) -> int:
    """2^d where d counts symmetric factors with max{0, 2k_i - n_i} < r_i."""
    validate_multilabel(space, label)
    out = 1
    for i in range(space.m):
        out *= component_group_order(label.factor(space, i))
    return out


# ---------------------------------------------------------------------------
# Slice weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceWeight:
    block: tuple[int, int]
    sub_block: str  # 'a', 'b', 'c' or 'd'
    weight: int
    dim: int


@dataclass(frozen=True)
class SliceWeightReport:
    weights: tuple[SliceWeight, ...]

    def min_weight(self) -> int:
        return min(w.weight for w in self.weights)


def slice_weights(space: SumSpace, label: MultiLabel, exponents) -> SliceWeightReport:
    """Torus weights on the transverse slice at a split point of the orbit.

    The slice keeps the blocks (i, j) with i < j (all four sub-blocks) and
    the anti-self-adjoint c-block on the diagonal; scaling factor j by
    z^{e_j} and twisting the radical/co-radical pair by z^{-1}/z gives
    weights e_j - e_i + delta with delta = 0 (b), 1 (a, d), 2 (c).
    """
    validate_multilabel(space, label)
    exponents = list(exponents)
    if len(exponents) != space.m:
        raise ValueError("need one exponent per factor")
    if any(e2 <= e1 for e1, e2 in zip(exponents, exponents[1:])):
        raise ValueError("exponents must be strictly increasing")

    ks = [label.ks[i] for i in range(space.m)]
    rs = [rank_numeric(label.rs[i]) for i in range(space.m)]
    ns = list(space.dims)
    t = [ks[i] - rs[i] for i in range(space.m)]           # dim of radical part
    m3 = [ns[i] - 2 * ks[i] + rs[i] for i in range(space.m)]

    entries = []
    for i in range(space.m):
        eps = 1 if space.factors[i].form_type == SKEW else -1
        cdim = t[i] * (t[i] - eps) // 2  # the orbit's own tangent block is t(t + eps)/2
        entries.append(SliceWeight((i, i), "c", 2, cdim))
        for j in range(i + 1, space.m):
            d = exponents[j] - exponents[i]
            entries.append(SliceWeight((i, j), "a", d + 1, t[i] * m3[j]))
            entries.append(SliceWeight((i, j), "b", d, rs[i] * m3[j]))
            entries.append(SliceWeight((i, j), "c", d + 2, t[i] * t[j]))
            entries.append(SliceWeight((i, j), "d", d + 1, rs[i] * t[j]))
    return SliceWeightReport(tuple(entries))


# ---------------------------------------------------------------------------
# Exhaustive orbit counting (the brute-force oracle)
# ---------------------------------------------------------------------------

_COUNTS_CACHE: dict = {}


def orbit_point_counts(
    space: SumSpace, k: int, budget: int | None = DEFAULT_BUDGET, workers: int = 1
) -> dict[MultiLabel, int]:
    """Classify every point of Gr_k(B) and tally the labels.

    This is the definitional count: each subspace is labelled by its graded
    pieces.  Work is split over disjoint index ranges when workers > 1 and
    merged by summation; ``workers`` is capped at the CPU count, so the pool
    starts at most one process per CPU and per range.  Results are memoized
    per space.
    """
    total = BudgetExceeded.check(subspace_total(space.n, k, space.p), budget)
    cache_key = (space._cache_key, k)
    if cache_key in _COUNTS_CACHE:
        return dict(_COUNTS_CACHE[cache_key])
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or total < 1 << 17:
        raw = _batch.classify_counts(space, k)
    else:
        bounds = np.linspace(0, total, workers + 1, dtype=np.int64)
        ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        raw: dict = {}
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futs = [pool.submit(_batch.classify_counts, space, k, a, b) for a, b in ranges]
            for fut in futs:
                for key, c in fut.result().items():
                    raw[key] = raw.get(key, 0) + c
    out = {_multilabel(key): c for key, c in raw.items()}
    _COUNTS_CACHE[cache_key] = dict(out)
    return out


# ---------------------------------------------------------------------------
# Canonical stratum representatives
# ---------------------------------------------------------------------------

def canonical_representative(space: SumSpace, label: MultiLabel) -> Subspace:
    """A block-diagonal point of the stratum whose graded forms are split.

    Per factor, in the standard antidiagonal basis: the first k - r basis
    vectors form the radical part (their antidiagonal partners stay
    outside), floor(r/2) full hyperbolic pairs follow, and an odd rank is
    completed by an anisotropic vector of norm 1.  For the "0pp" family the
    last witness vector is swapped to its antidiagonal partner.
    """
    validate_multilabel(space, label)
    p = space.p
    inv2 = (p + 1) // 2
    rows = []
    for i, f in enumerate(space.factors):
        ki = label.ks[i]
        ri = rank_numeric(label.rs[i])
        n, lo = f.n, space.offsets[i]
        t = ki - ri

        def vec(*coords):
            row = np.zeros(space.n, dtype=np.int64)
            for j, c in coords:
                row[lo + j] = c % p
            return row

        local = [vec((j, 1)) for j in range(t)]
        pairs = ri // 2
        for j in range(pairs):
            a = t + j
            local.append(vec((a, 1)))
            local.append(vec((n - 1 - a, 1)))
        if ri % 2:
            if n % 2:
                local.append(vec(((n - 1) // 2, 1)))
            else:
                a = t + pairs
                local.append(vec((a, 1), (n - 1 - a, inv2)))
        if label.rs[i] == DOUBLEPRIME0 and ki:
            local[-1] = vec((ki, 1))
        rows.extend(local)
    if not rows:
        return zero_subspace(space.n, space.p)
    return span(np.array(rows), space.n, space.p)
