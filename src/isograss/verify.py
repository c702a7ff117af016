"""Property suites: exhaustive finite-field checks of the classification,
dimension, paving, resolution, fiber, closure, transporter and slice laws.

Each suite returns a list of CheckResult; a suite passes when every result
does.  Every check can fail: none restates what its own construction, or
another check of the same run, already guarantees.  Budget refusals raise
BudgetExceeded instead of failing a check, so callers can tell "wrong" from
"too big".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from ._batch import batch_rank, meet_dims
from .bilinear import (
    SKEW,
    SYMMETRIC,
    BilinearSpace,
    WittStack,
    pairing,
    standard_space,
    transport_isometry,
    witt_decompose,
)
from .linalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Subspace,
    subspace_total,
    within_budget,
)
from .orbits import DOUBLEPRIME0, PRIME0, rank_numeric
from .paving import build_paving, isotropic_bases, isotropic_subspaces
from .polynomials import (
    IntPolynomial,
    InterpolationError,
    gaussian_binomial,
    interpolate_counts,
)
from .sumspace import (
    MultiLabel,
    SumSpace,
    build_sum_space,
    canonical_representative,
    component_group_order_multi,
    enumerate_multilabels,
    orbit_dim_multi,
    orbit_point_counts,
    slice_weights,
)
from .towers import (
    closure_rows,
    cover_factors,
    cover_fiber,
    expected_cover_fiber_space,
    ptilde_sizes,
    tower_fibers,
)

GRID_SPACES = ("Sp2", "Sp4", "O2", "O3", "O4", "Sp2+O2", "Sp2+Sp2", "O2+O3")
PRIME_POOL = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
SUITE_NAMES = ("partition", "degrees", "paving", "towers", "fibers", "closure")
# the forms suite_paving walks, whatever spaces the other suites are given
PAVING_FORMS = ((SKEW, 2), (SKEW, 4), (SYMMETRIC, 2), (SYMMETRIC, 3), (SYMMETRIC, 4), (SYMMETRIC, 5))
# _primes_for_degree adds one redundant sample only when its Gr_k is at most this big
SPARE_SAMPLE_CAP = 2_000_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""
    repro: str = ""


def _result(name: str, bad: list[str], repro: str = "") -> CheckResult:
    """A check that passes when ``bad`` is empty; a failure carries the
    first four of its failures."""
    return CheckResult(name, not bad, "; ".join(bad[:4]), repro)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _krange(n: int, only_k):
    if only_k is None:
        return range(n + 1)
    return [only_k] if 0 <= only_k <= n else []


def suite_partition(specs=GRID_SPACES, primes=(3, 5), budget=DEFAULT_BUDGET, workers=1,
                    only_k=None):
    spaces = [(spec, p, build_sum_space(spec, p)) for spec in specs for p in primes]
    BudgetExceeded.check_largest(
        (subspace_total(s.n, k, p) for _, p, s in spaces for k in _krange(s.n, only_k)), budget
    )
    out = []
    for spec, p, space in spaces:
        bad = []
        for k in _krange(space.n, only_k):
            counts = orbit_point_counts(space, k, budget=budget, workers=workers)
            labels = set(enumerate_multilabels(space, k))
            if set(counts) != labels:
                bad.append(f"k={k}: label sets differ")
            total = sum(counts.values())
            expect = gaussian_binomial(space.n, k)(p)
            if total != expect:
                bad.append(f"k={k}: {total} != {expect}")
        out.append(_result(
            f"partition {spec} p={p}", bad,
            f"isograss verify --space {spec} --primes {p} --suite partition",
        ))
    return out


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def _primes_for_degree(base_primes, degree, grassmannian=None, budget=DEFAULT_BUDGET):
    """Prime set with degree+1 usable samples, always covering the base
    primes, plus one redundant sample.  With ``grassmannian`` = (n, k) a
    sample walks Gr_k(F_p^n): within the budget, and a cheap one if spare."""
    pool = list(dict.fromkeys([*base_primes, *PRIME_POOL]))
    if len(pool) < degree + 1:
        raise ValueError(
            f"degree {degree} needs {degree + 1} sampling primes; "
            f"the pool {min(pool)}..{max(pool)} has {len(pool)}"
        )
    need = max(degree + 1, len(base_primes))
    if grassmannian is None:
        return pool[: need + 1]
    sizes = {p: subspace_total(*grassmannian, p) for p in pool}
    usable = [p for p in pool if within_budget(sizes[p], budget)]
    if len(usable) < degree + 1:
        BudgetExceeded.check(min(sizes[p] for p in pool if p not in usable), budget)
    return usable[:need] + [q for q in usable[need:] if sizes[q] <= SPARE_SAMPLE_CAP][:1]


class SamplingPlan(NamedTuple):
    """One Gr_k of a grid space to fit: its labels' orbit dimensions, the
    open label, and the primes whose counts fix every fit."""

    spec: str
    ref: SumSpace  # the space at p = 3
    k: int
    degrees: dict
    top: MultiLabel
    primes: list


def sampling_plan(spec: str, ref: SumSpace, k: int, base_primes, budget) -> SamplingPlan:
    """The plan of Gr_k: sampling primes start from ``base_primes`` and are
    extended until every fit is determined, within the budget.  They are
    picked before any count, so a suite that plans every k first refuses
    before its first walk."""
    labels = enumerate_multilabels(ref, k)
    degrees = {lab: orbit_dim_multi(ref, lab) for lab in labels}
    top = max(labels, key=degrees.get)  # Gr_k is irreducible: one stratum is open
    sample_deg = max((d for lab, d in degrees.items() if lab != top), default=0)
    return SamplingPlan(spec, ref, k, degrees, top,
                        _primes_for_degree(base_primes, sample_deg, (ref.n, k), budget))


def stratum_polynomials(plan: SamplingPlan, spaces: dict, budget, workers) -> dict[MultiLabel, IntPolynomial]:
    """Exact count polynomial of every stratum of a plan's Gr_k, from one
    count of Gr_k at each of its primes; ``spaces`` holds the SumSpace of
    each (spec, prime).

    The unique top-dimensional label (the open stratum) needs no samples of
    its own: the classification is a partition, so at every prime its count
    is the Gaussian binomial minus the other strata, and its polynomial is
    derived from that identity, then re-checked against all gathered
    counts.  Every sample must lie on its label's fitted polynomial.
    """
    spec, ref, k, degrees, top, primes = plan
    counts = {
        p: orbit_point_counts(spaces[spec, p], k, budget=budget, workers=workers)
        for p in primes
    }
    out = {}
    for lab, d in degrees.items():
        if lab == top:
            continue
        samples = [(p, counts[p].get(lab, 0)) for p in primes]
        try:
            out[lab] = interpolate_counts(samples, d, require_nonnegative=False)
        except InterpolationError as e:
            raise InterpolationError(f"{spec} k={k} {lab}: {e}") from e
    rest = IntPolynomial([])
    for poly in out.values():
        rest = rest + poly
    derived = gaussian_binomial(ref.n, k) - rest
    for p in primes:
        if derived(p) != counts[p].get(top, 0):
            raise InterpolationError(
                f"{spec} k={k} {top}: derived polynomial misses the count at p={p}"
            )
    out[top] = derived
    return out


def suite_degrees(
    specs=GRID_SPACES, primes=(3, 5, 7, 11), budget=DEFAULT_BUDGET, workers=1, only_k=None,
):
    # every k's sampling primes, and so every count's size, before the first count
    spaces = {(spec, 3): build_sum_space(spec, 3) for spec in specs}  # one per (spec, prime)
    plans = [sampling_plan(spec, spaces[spec, 3], k, primes, budget)
             for spec in specs for k in _krange(spaces[spec, 3].n, only_k)]
    for plan in plans:
        for p in plan.primes:
            if (plan.spec, p) not in spaces:
                spaces[plan.spec, p] = build_sum_space(plan.spec, p)
    out = []
    for plan in plans:
        spec, ref, k = plan.spec, plan.ref, plan.k
        bad = []
        try:
            polys = stratum_polynomials(plan, spaces, budget, workers)
        except InterpolationError as e:
            bad, polys = [str(e)], {}
        for lab, poly in polys.items():
            d = plan.degrees[lab]
            if poly.is_zero() or poly.degree != d:
                bad.append(f"{lab}: degree {poly} != {d}")
        # closures (unions of strata down the rank order) count positively
        if ref.m == 1:
            for lab, poly in polys.items():
                closure_poly = IntPolynomial([])
                for other, q in polys.items():
                    if _single_below(other, lab):
                        closure_poly = closure_poly + q
                if not closure_poly.is_nonnegative():
                    bad.append(f"closure of {lab} has a negative coefficient")
        out.append(_result(
            f"degrees {spec} k={k}", bad, f"isograss verify --space {spec} --k {k} --suite degrees"
        ))
    return out


def _single_below(a: MultiLabel, b: MultiLabel) -> bool:
    """Rank order on single-factor labels of equal k: a in the closure of b."""
    ra, rb = a.rs[0], b.rs[0]
    if rb in (PRIME0, DOUBLEPRIME0):
        return ra == rb
    return rank_numeric(ra) <= int(rb)


# ---------------------------------------------------------------------------
# paving
# ---------------------------------------------------------------------------

def _sample_flags(space: BilinearSpace, walks):
    """The empty flag, the first two isotropic lines, and the first two
    isotropic planes holding one of the first three lines, each with the
    first such line: all read off ``walks``, the isotropic bases per k."""
    def walk(k):
        # pattern matrices are already RREF
        return (Subspace(mat, space.n, space.p) for mat in (walks[k] if k < len(walks) else ()))

    lines = list(islice(walk(1), 3))
    planes = ((next((line for line in lines if plane.contains(line)), None), plane) for plane in walk(2))
    held = islice(((line, plane) for line, plane in planes if line is not None), 2)
    return [(), *((line,) for line in lines[:2]), *held]


def suite_paving(primes=(3, 5), budget=DEFAULT_BUDGET):
    BudgetExceeded.check_largest(
        (subspace_total(n, k, p) for _, n in PAVING_FORMS for p in primes for k in range(n // 2 + 1)),
        budget,
    )
    out = []
    for form, n in PAVING_FORMS:
        for p in primes:
            space = standard_space(form, n, p)
            # one walk of the isotropic k-subspaces serves every flag
            walks = [isotropic_bases(space, k, budget=budget) for k in range(n // 2 + 1)]
            bad = []
            for flag in _sample_flags(space, walks):
                paving = build_paving(space, flag)
                for k, mats in enumerate(walks):
                    pieces = paving.pieces(k)
                    want = np.array([pc.invariants for pc in pieces], dtype=np.int64).reshape(
                        len(pieces), len(flag)
                    )
                    idx = paving.classify(mats)
                    counts = np.bincount(idx, minlength=len(pieces))
                    off = np.zeros(len(mats), dtype=bool)
                    for c, m in enumerate(flag):
                        off |= meet_dims(mats, k, m.basis, p) != want[idx, c]
                    bad += [f"k={k} flag-len={len(flag)}: invariants vary"] * int(off.sum())
                    for piece, c in zip(pieces, counts.tolist()):
                        if c != p**piece.affine_dim:
                            bad.append(f"k={k} piece {piece.piece_id}: {c} != p^{piece.affine_dim}")
            tag = ("Sp" if form != SYMMETRIC else "O") + str(n)
            out.append(_result(f"paving {tag} p={p}", bad))
    return out


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def _rows(rows: dict, space, ks, budget) -> dict:
    """label -> (tower count polynomial, ``closure_labels`` row) of the
    labels of each k in ``ks``, kept in one run's table ``rows`` keyed by
    (spec, p, label): the towers not yet in it are built once each, sized,
    refused at the largest before any walk, then walked together once
    (``closure_rows``)."""
    labels = [lab for k in ks for lab in enumerate_multilabels(space, k)]
    new = [lab for lab in labels if (space.spec, space.p, lab) not in rows]
    for lab, entry in closure_rows(space, new, budget=budget).items():
        rows[space.spec, space.p, lab] = entry
    return {lab: rows[space.spec, space.p, lab] for lab in labels}


def suite_towers(specs=GRID_SPACES, primes=(3,), budget=DEFAULT_BUDGET, only_k=None, rows=None):
    rows = {} if rows is None else rows
    out = []
    for spec in specs:
        for p in primes:
            space = build_sum_space(spec, p)
            bad = []
            for label, (poly, row) in _rows(rows, space, _krange(space.n, only_k), budget).items():
                # every layer counts with nonnegative coefficients, so
                # the product does; Poincare duality is the law
                if not poly.is_palindromic():
                    bad.append(f"{label}: tower polynomial {poly} not palindromic")
                dim = orbit_dim_multi(space, label)
                if poly.degree != dim:
                    bad.append(f"{label}: tower degree {poly.degree} != orbit dim {dim}")
                expect = poly(p)
                got = sum(points for points, _ in row.values())
                if got != expect:
                    bad.append(f"{label}: {got} points != symbolic {expect}")
            out.append(_result(
                f"towers {spec} p={p}", bad, f"isograss verify --space {spec} --primes {p} --suite towers"
            ))
    return out


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def suite_fibers(specs=GRID_SPACES, primes=(3, 5, 7), budget=DEFAULT_BUDGET, only_k=None, rows=None):
    rows = {} if rows is None else rows
    out = []
    for spec in specs:
        out.extend(_fiber_bijectivity(spec, primes[0], budget, only_k, rows))
        out.extend(_fiber_polynomiality(spec, primes, budget, only_k, rows))
        out.extend(_cover_components(spec, budget, only_k))
    return out


def _fiber_bijectivity(spec, p, budget, only_k, rows):
    """Over the open stratum every point is hit exactly once: one resolution
    point per target, and one target per point of the stratum."""
    space = build_sum_space(spec, p)
    table = _rows(rows, space, _krange(space.n, only_k), budget)
    bad = []
    for k in _krange(space.n, only_k):
        sizes = orbit_point_counts(space, k, budget=budget)
        for label in enumerate_multilabels(space, k):
            points, targets = table[label][1].get(label, (0, 0))
            if points != targets:
                bad.append(f"{label}: {points} points over {targets} open-stratum targets")
            if targets != sizes[label]:
                bad.append(f"{label}: {targets} open-stratum targets != stratum size {sizes[label]}")
    return [_result(f"fibers bijectivity {spec} p={p}", bad)]


def _fiber_polynomiality(spec, primes, budget, only_k, rows):
    """Fiber sizes over canonical representatives interpolate exactly; over
    the label's own, degree 0 carries bijectivity's one point to every prime.
    The closure rows fix every (label, stratum, prime) walked, so each walk's
    P~ walks are sized, and refused at the largest, before the first walk."""
    ref = build_sum_space(spec, 3)
    _rows(rows, ref, _krange(ref.n, only_k), budget)  # every k sized before any walk
    fits = []  # (label, stratum below it, fit degree bound, sampling primes)
    for k in _krange(ref.n, only_k):
        for label, below in closure_relation(ref, k, budget, rows).items():
            for sub in sorted(below, key=MultiLabel.sort_key):
                bound = orbit_dim_multi(ref, label) - orbit_dim_multi(ref, sub)
                fits.append((label, sub, bound, _primes_for_degree(primes, bound)))
    BudgetExceeded.check_largest(
        (size for label, _, _, use in fits for p in use for size in ptilde_sizes(ref, label, p)),
        budget,
    )
    # one walk per prime, of every (label, stratum) fiber sampled there
    walks: dict = {}
    for label, sub, _, use in fits:
        for p in use:
            walks.setdefault(p, []).append((label, sub))
    sizes = {}
    for p, pairs in walks.items():
        space = build_sum_space(spec, p)
        reps = {sub: canonical_representative(space, sub) for _, sub in pairs}
        fibers = tower_fibers(space, [(label, reps[sub]) for label, sub in pairs], budget=budget)
        sizes.update(((label, sub, p), len(fiber)) for (label, sub), fiber in zip(pairs, fibers))
    bad = []
    for label, sub, bound, use in fits:
        try:
            interpolate_counts([(p, sizes[label, sub, p]) for p in use], bound)
        except InterpolationError as e:
            bad.append(f"{label} over {sub}: {e}")
    return [_result(f"fibers polynomial {spec} p={tuple(primes)}", bad)]


def _cover_components(spec, budget, only_k=None):
    """Covering fibers over split-type open points: product structure and 2^d
    components.  Even ranks use p = 3, odd ranks p = 5 (where the extended
    binary form splits at the canonical representative).  Every label's
    walks (``_cover_sizes``) are sized, and refused at the largest, before
    the first."""
    ref, five = build_sum_space(spec, 3), build_sum_space(spec, 5)
    cases = []  # (label, space, representative, expected fiber space per cover factor)
    for k in _krange(ref.n, only_k):
        for label in enumerate_multilabels(ref, k):
            factors = cover_factors(ref, label)
            if not factors:
                continue
            space = five if any(int(label.rs[i]) % 2 for i in factors) else ref
            rep = canonical_representative(space, label)
            cases.append((label, space, rep,
                          {i: expected_cover_fiber_space(space, label, rep, i) for i in factors}))
    BudgetExceeded.check_largest(
        (size for label, space, _, fib_spaces in cases for size in _cover_sizes(space, label, fib_spaces)),
        budget,
    )
    bad = []
    for label, space, rep, fib_spaces in cases:
        size, comps, sizes = cover_fiber(space, label, rep, budget=budget)
        want = component_group_order_multi(space, label)
        if comps != want:
            bad.append(f"{label}: {comps} components != {want}")
        expect_total = 1
        for i, fib_space in fib_spaces.items():
            expect = sum(1 for _ in isotropic_subspaces(fib_space, fib_space.n // 2, budget=budget))
            if sizes.get(i) != expect:
                bad.append(f"{label} factor {i}: {sizes.get(i)} choices != {expect}")
            expect_total *= expect
        if size != expect_total:
            bad.append(f"{label}: fiber size {size} != product {expect_total}")
    return [_result(f"fibers cover-components {spec}", bad)]


def _cover_sizes(space, label, fib_spaces):
    """The walks of one label's cover check: the P~_j walks of its fiber,
    then per cover factor i the Q~_i walk of Gr_{r_i - r_i//2} in
    P~_i^perp / P~_i (dimension n_i + (r_i mod 2) - 2(k_i - r_i)) and the
    count walk of its expected fiber space."""
    yield from ptilde_sizes(space, label, space.p)
    for i, fib in fib_spaces.items():
        k, r = label.ks[i], int(label.rs[i])
        yield subspace_total(space.factors[i].n + r % 2 - 2 * (k - r), r - r // 2, space.p)
        yield subspace_total(fib.n, fib.n // 2, fib.p)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def closure_relation(space: SumSpace, k: int, budget, rows: dict):
    """label -> set of labels in its experimental closure, read off the
    labels' resolution rows in ``rows``."""
    # set(row.keys()) adds one label at a time; set(row) would presize its
    # table from the dict and so change the set's iteration order, which is
    # the closure report's edge order until ROADMAP item 7 sorts the edges.
    return {lab: set(row.keys()) for lab, (_, row) in _rows(rows, space, (k,), budget).items()}


def suite_closure(specs=GRID_SPACES, primes=(3,), budget=DEFAULT_BUDGET, only_k=None, rows=None):
    rows = {} if rows is None else rows
    out = []
    for spec in specs:
        p = primes[0]
        space = build_sum_space(spec, p)
        bad = []
        _rows(rows, space, _krange(space.n, only_k), budget)  # every k sized before any walk
        for k in _krange(space.n, only_k):
            rel = closure_relation(space, k, budget, rows)
            for lab, below in rel.items():
                if lab not in below:
                    bad.append(f"k={k} {lab}: not reflexive")
                for sub in below:
                    if lab in rel[sub] and sub != lab:
                        bad.append(f"k={k}: {lab} and {sub} mutually below")
                    if not rel[sub] <= below:
                        bad.append(f"k={k}: closure of {lab} not transitive at {sub}")
            if space.m == 1:
                for lab, below in rel.items():
                    expect = {
                        other
                        for other in rel
                        if _single_below(other, lab)
                    }
                    if below != expect:
                        bad.append(f"k={k} {lab}: closure {below} != rank chain")
        out.append(_result(
            f"closure {spec} p={p}", bad, f"isograss verify --space {spec} --primes {p} --suite closure"
        ))
    return out


# ---------------------------------------------------------------------------
# transporter / Witt checks
# ---------------------------------------------------------------------------

def _witt_table_ok(space, hs, split) -> np.ndarray:
    """Per item of the stack: the stacked basis has the block normal form as
    its Gram, and m1, m2 span h, the row space of ``hs`` (N, k, n).  The
    normal form is nondegenerate, so the n stacked rows are independent:
    m1, m2 span h exactly when t + r = k and rank[m1; m2; h] = k.  That
    fixes the rest of the table:

    - m1 pairs to zero with m1, m2 and m3, and the block of m2 is
      nondegenerate, so the radical of h = span(m1, m2) is span(m1);
    - span(m1, m3) lies in h^perp and has dimension n - dim h, which is
      dim h^perp on the nondegenerate ambient that witt_decompose requires,
      so it is h^perp.
    """
    n, k = space.n, hs.shape[1]
    bases, t, r = split.bases, split.t, split.r
    table = (pairing(space, bases, bases) == split.normal_forms(space)).all(axis=(1, 2))
    stack = np.zeros((len(hs), n + k, n), dtype=np.int32)
    stack[:, :n] = np.where(np.arange(n)[None, :, None] < (t + r)[:, None, None], bases, 0)
    stack[:, n:] = hs
    return table & (t + r == k) & (batch_rank(stack, space.p) == k)


def _transport_spaces(spec: str, p: int) -> list[BilinearSpace]:
    space = build_sum_space(spec, p)
    kinds = {f.form_type for f in space.factors}
    if len(kinds) == 1:
        if space.m == 1:
            return [space.factors[0]]
        return [space.as_bilinear()]
    return list(space.factors)


def suite_witt(specs=GRID_SPACES, primes=(3, 5), pairs_per_space=1000, seed=20240817):
    out = []
    rng = np.random.default_rng(seed)
    for spec in specs:
        for p in primes:
            fails = []
            for amb in _transport_spaces(spec, p):
                buckets: dict = {}
                done = 0
                while done < pairs_per_space:
                    # each draw adds at most one to done, so a round of as
                    # many draws as are missing never overshoots
                    padded, dims = _draw(amb.n, p, pairs_per_space - done, rng)
                    done += _witt_round(amb, padded, dims, buckets, fails)
            out.append(_result(f"witt/transport {spec} p={p} ({pairs_per_space} pairs)", fails))
    return out


def _draw(n: int, p: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform random subspaces of F_p^n: a uniform dimension k per
    item, then a uniform k x n matrix, drawn again (with the same k) until
    it has rank k.  One ``batch_rank`` per round of draws ranks them and
    leaves their RREF in place.  Returns the (count, n, n) stack of RREF
    bases, zero rows below each dimension, and the dimensions."""
    dims = rng.integers(0, n + 1, size=count)
    padded = np.zeros((count, n, n), dtype=np.int32)
    todo = np.arange(count)
    while todo.size:
        mats = rng.integers(0, p, size=(todo.size, n, n), dtype=np.int32)
        mats[np.arange(n)[None, :] >= dims[todo, None]] = 0
        short = batch_rank(mats, p) < dims[todo]
        padded[todo] = mats
        todo = todo[short]
    return padded, dims


def _witt_round(space, padded, dims, buckets: dict, fails: list) -> int:
    """Decompose and table-check one round of draws, the ``_draw`` stack
    ``padded`` with its ``dims``, one stack per dimension; pair each with the
    last one of its (k, r, deltas) bucket, in draw order, and transport every
    pair in one stack.  Appends the failures to ``fails`` in draw order;
    returns how many draws count as done: one per pair, and one per failed
    table check.

    The table identity makes delta_2 the discriminant class of h / rad h,
    and with k and r it fixes delta_3: these are the (k, r, class) buckets,
    where transport cannot refuse.  A split that fails its table check
    joins no bucket."""
    n, p = space.n, space.p
    split = WittStack(np.zeros((len(dims), n, n), dtype=np.int64), np.zeros_like(dims),
                      np.zeros_like(dims), np.ones((len(dims), 2), dtype=np.int64))
    ok = np.zeros(len(dims), dtype=bool)
    for k in np.unique(dims).tolist():
        idx = np.flatnonzero(dims == k)
        bases = padded[idx, :k]
        part = witt_decompose(space, bases)
        for whole, x in zip(split, part):
            whole[idx] = x
        ok[idx] = _witt_table_ok(space, bases, part)
    events, firsts, seconds = [], [], []  # an event: a failed draw's message, or a pair's number
    for i, k in enumerate(dims.tolist()):
        if not ok[i]:
            events.append(f"pairing table fails for {Subspace(padded[i, :k], n, p)}")
            continue
        key = (k, int(split.r[i]), tuple(split.deltas[i].tolist()))
        entry = (padded[i], split.take(i))
        prev = buckets.get(key)
        buckets[key] = entry
        if prev is not None:
            events.append(len(firsts))
            firsts.append(prev)
            seconds.append(entry)
    if firsts:
        src, dst = (np.stack([pad for pad, _ in side]) for side in (firsts, seconds))
        a, b = (WittStack(*map(np.stack, zip(*(one for _, one in side)))) for side in (firsts, seconds))
        g = transport_isometry(space, a, b)
        isometry = ~((g.transpose(0, 2, 1) @ space.gram @ g - space.gram) % p).any(axis=(1, 2))
        # the RREF of each first subspace's image against the second's RREF basis
        image = (src @ g.transpose(0, 2, 1) % p).astype(np.int32)
        batch_rank(image, p)
        onto = (image == dst).all(axis=(1, 2))
    for event in events:
        if isinstance(event, str):
            fails.append(event)
            continue
        if not isometry[event]:
            fails.append("not an isometry")
        if not onto[event]:
            fails.append("does not transport")
    return len(events)


# ---------------------------------------------------------------------------
# slice positivity
# ---------------------------------------------------------------------------

def suite_slices(specs=GRID_SPACES, samples=100):
    rng = np.random.default_rng(411)
    out = []
    for spec in specs:
        space = build_sum_space(spec, 3)
        bad = []
        for k in range(space.n + 1):
            for label in enumerate_multilabels(space, k):
                for _ in range(samples):
                    exps = np.sort(
                        rng.choice(np.arange(-60, 60), size=space.m, replace=False)
                    )
                    report = slice_weights(space, label, [int(e) for e in exps])
                    if report.min_weight() < 1:
                        bad.append(f"{label}: weight {report.min_weight()} at {exps}")
        out.append(_result(f"slices {spec} ({samples} exponent vectors)", bad))
    return out


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def run_suite(
    name: str,
    specs=GRID_SPACES,
    primes=None,
    budget=DEFAULT_BUDGET,
    workers=1,
    only_k=None,
    rows=None,
):
    """One suite, or all of them; "all" makes one ``rows`` table (see _rows)
    for its towers, fibers and closure suites; without ``primes`` each keeps its own."""
    given = {"primes": primes} if primes else {}
    if name == "partition":
        return suite_partition(specs, budget=budget, workers=workers, only_k=only_k, **given)
    if name == "degrees":
        return suite_degrees(specs, budget=budget, workers=workers, only_k=only_k, **given)
    if name == "paving":
        return suite_paving(budget=budget, **given)
    if name == "towers":
        return suite_towers(specs, budget=budget, only_k=only_k, rows=rows, **given)
    if name == "fibers":
        return suite_fibers(specs, budget=budget, only_k=only_k, rows=rows, **given)
    if name == "closure":
        return suite_closure(specs, budget=budget, only_k=only_k, rows=rows, **given)
    if name == "all":
        rows = {}
        out = []
        for sub in SUITE_NAMES:
            out.extend(run_suite(sub, specs, primes, budget, workers, only_k, rows))
        out.extend(suite_witt(specs, (3,), 200))
        out.extend(suite_slices(specs, 20))
        return out
    raise ValueError(f"unknown suite {name!r}")
