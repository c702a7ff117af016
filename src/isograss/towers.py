"""Resolutions of orbit closures as towers of Grassmannian bundles.

A point of the resolution of the closure of the stratum labelled
(k_1..k_m, r_1..r_m) is a list of flags: per factor an isotropic
``P~_i <= B_i`` of dimension k_i - r_i, together with a chain
H_0 <= P_1 <= H_1 <= ... <= P_m <= H_m where P_i lives in
B_{<i} + P~_i and H_i in B_{<i} + P~_i^perp, with dim P_i = k_1+..+k_i - r_i
and dim H_i = k_1+..+k_i.  The last space H_m sweeps out the closure, and
the tower structure (isotropic Grassmannian bases, Grassmannian fibers)
gives the symbolic point count.

One walk enumerates these points under a ceiling subspace that every H_i
must lie in.  The whole resolution is the walk under all of B; the fiber
over a target M is the walk under M itself, since H_i <= H_m = M.  The walk
runs level by level on int stacks of RREF bases: the P~_i candidates come
as stacks, their bounds under the ceiling are batched left kernels that
also prune them, and each P_i and H_i step is one ``linalg.between_stack``
over every (point, candidate) pair.  The points stay stacks
(``TowerStack``), and no consumer reads them one by one.

The covering tower adds, for every symmetric factor with
max{0, 2k_i - n_i} < r_i, a middle isotropic Q~_i >= P~_i of dim
k_i - r_i//2, inside B_i for even r_i and inside B_i + F for odd r_i, where
F is an extra line of norm 1.  Its candidates are the isotropic subspaces of
P~_i^perp / P~_i, walked once per distinct P~_i, and the cover fiber runs on
the same stacks as the walk; over the open stratum these choices split the
fiber into 2^d components, one pair per such factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from . import _batch
from .bilinear import (
    SYMMETRIC,
    BilinearSpace,
    pairing,
    perp,
    radical,
    subquotient,
)
from .linalg import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Subspace,
    between_stack,
    full_subspace,
    intersect_prefix,
    subspace_total,
    zero_subspace,
)
from .orbits import DOUBLEPRIME0, PRIME0, component_group_order, rank_numeric
from .paving import iso_grassmannian_count, isotropic_bases
from .polynomials import IntPolynomial, gaussian_binomial
from .sumspace import MultiLabel, SumSpace, stack_multilabels, validate_multilabel


class TowerStack:
    """Resolution points in walk order, as int stacks of RREF bases: per
    factor i, ``ptildes[i]`` (N, k_i - r_i, n_i) in B_i coordinates, and
    ``ps[i]``, ``hs[i]`` (N, dim, n) in B, the last ``hs`` the targets."""

    __slots__ = ("space", "ptildes", "ps", "hs")

    def __init__(self, space: SumSpace, ptildes, ps, hs):
        self.space = space
        self.ptildes, self.ps, self.hs = tuple(ptildes), tuple(ps), tuple(hs)

    def __len__(self) -> int:
        return len(self.hs[-1])


@dataclass(frozen=True)
class TowerLayer:
    kind: str  # 'iso_grassmannian' | 'iso_component' | 'grassmannian'
    params: tuple[int, ...]
    count: IntPolynomial


@dataclass(frozen=True)
class TowerDescriptor:
    layers: tuple[TowerLayer, ...]

    def count_polynomial(self) -> IntPolynomial:
        total = IntPolynomial([1])
        for layer in self.layers:
            total = total * layer.count
        return total


def resolution_tower(space: SumSpace, label: MultiLabel) -> TowerDescriptor:
    """Symbolic layer structure of the resolution for a valid label.

    Base layers are the isotropic Grassmannians of the P~_i choices (one
    ruling only when r_i is a component tag); then for each factor the
    chain space P_i and the target space H_i each contribute a Grassmannian
    fiber layer.  Base counts are those of the split standard form of each
    factor's type and dimension, which every ``build_sum_space`` factor is.
    """
    validate_multilabel(space, label)
    layers = []
    for i, f in enumerate(space.factors):
        ki, ri = label.ks[i], label.rs[i]
        if ri in (PRIME0, DOUBLEPRIME0):
            half = iso_grassmannian_count(f.form_type, f.n, ki).exact_div(2)
            layers.append(TowerLayer("iso_component", (f.n, ki), half))
        else:
            count = iso_grassmannian_count(f.form_type, f.n, ki - ri)
            layers.append(TowerLayer("iso_grassmannian", (f.n, ki - ri), count))
    nu_prev = 0  # dim B_{<j}
    n_prev = 0   # k_1 + ... + k_{j-1}
    for j, f in enumerate(space.factors):
        kj = label.ks[j]
        rj = rank_numeric(label.rs[j])
        if j > 0:
            amb = (nu_prev - n_prev) + (kj - rj)
            layers.append(
                TowerLayer("grassmannian", (amb, kj - rj), gaussian_binomial(amb, kj - rj))
            )
        amb_h = (nu_prev - n_prev) + f.n - 2 * kj + 2 * rj
        layers.append(TowerLayer("grassmannian", (amb_h, rj), gaussian_binomial(amb_h, rj)))
        nu_prev += f.n
        n_prev += kj
    return TowerDescriptor(tuple(layers))


class _Level(NamedTuple):
    """The P~_j candidates of one level that survive, job by job, and the
    bounds up, uh of P_j and H_j over each: RREF stacks (L, ., n),
    zero-padded, with the index of each survivor's job."""

    job: np.ndarray
    ptildes: np.ndarray
    up: np.ndarray
    uh: np.ndarray


# (job, candidate) items per batched kernel call of a level: it bounds the
# call's temporaries, which a level of all its jobs' items would let grow
_LEVEL_ITEMS = 1 << 10


def _level(space: SumSpace, jobs: list, j: int, pdims: np.ndarray, hdims: np.ndarray,
           budget: int) -> _Level:
    """The candidates P~_j of level j of each job (label, ceiling) whose
    bounds up, uh can hold its P_j (dim ``pdims``) and H_j (dim ``hdims``),
    with those bounds, job by job and each job's in walk order.

    up and uh are B_{<j} + P~_j and B_{<j} + P~_j^perp cut down to the
    ceiling M.  Both lie in B_{<=j}, so each is a subspace of M_le =
    M cap B_{<=j}: the x of M_le whose block-j part has zero residue modulo
    P~_j, and those whose block-j part pairs to zero with P~_j.  M_le is
    cut once per distinct ceiling, and every job with the same
    t = k_j - r_j shares one walk of its candidates, from which a tag r_j
    keeps its ruling; the candidates are zero-padded to the level's largest t,
    which adds zero rows to P~_j and zero columns to the pairing.  Every
    (job, candidate) item of the level goes through one left kernel call per
    ``_LEVEL_ITEMS`` items, both kernels in the same call; their rows times
    M_le's RREF basis are already the bounds' RREF bases, and the kernel
    dimensions prune the items.  M_le is zero-padded to one row count, and
    a padded row is in both kernels, ordered after the rest, so it only adds
    a zero row to each bound.  Under the full ceiling every candidate
    survives (valid labels have n_j >= 2 k_j - r_j).
    """
    f, p = space.factors[j], space.p
    lo, hi = space.offsets[j], space.offsets[j + 1]
    ceilings = {c: i for i, c in enumerate(dict.fromkeys(c for _, c in jobs))}  # one M_le per ceiling
    ceiling = np.array([ceilings[c] for _, c in jobs], dtype=np.intp)
    bases = [intersect_prefix(c, hi).basis for c in ceilings]
    rows = max(map(len, bases))
    m_le = np.zeros((len(bases), rows, space.n), dtype=np.int32)
    for x, basis in zip(m_le, bases):
        x[: len(basis)] = basis
    padded = rows - np.array([len(basis) for basis in bases])
    mj = m_le[:, :, lo:hi]
    mj_gram = (mj @ f.gram % p).astype(np.int32)
    keys = [(k - rank_numeric(r), r if r in (PRIME0, DOUBLEPRIME0) else None)
            for k, r in ((label.ks[j], label.rs[j]) for label, _ in jobs)]
    walks = {key: w for w, key in enumerate(dict.fromkeys(keys))}  # one stack per key
    walked = {t: isotropic_bases(f, t, budget=budget) for t in dict.fromkeys(t for t, _ in walks)}
    stacks = []
    for t, tag in walks:
        mats = walked[t]
        if tag is not None:
            if f.witness is None:
                raise ValueError("split witness required to separate the two components")
            mats = mats[_batch.same_ruling(mats, t, f.witness.basis, p) == (tag == PRIME0)]
        stacks.append(mats)
    t_max = max(s.shape[1] for s in stacks)
    cands = np.concatenate([np.pad(s, ((0, 0), (0, t_max - s.shape[1]), (0, 0))) for s in stacks])
    pivots = np.argmax(cands != 0, axis=2)
    item_job, item_cand = _pairs(np.array([walks[key] for key in keys], dtype=np.intp),
                                 np.array([len(s) for s in stacks]))
    bounds = np.zeros((0, rows, space.n), dtype=np.int32)
    kept = [(item_job[:0], cands[:0], bounds, bounds)]
    for first in range(0, len(item_job), _LEVEL_ITEMS):
        job, cand = item_job[first : first + _LEVEL_ITEMS], item_cand[first : first + _LEVEL_ITEMS]
        mats, c = cands[cand], ceiling[job]
        # both kernels in one call: the pairing matrix is zero-padded to n_j columns
        both = np.zeros((2, len(job), rows, f.n), dtype=np.int32)
        both[0] = mj[c]
        both[0] -= np.take_along_axis(both[0], pivots[cand, None, :], axis=2) @ mats
        both[1, ..., :t_max] = mj_gram[c] @ mats.transpose(0, 2, 1)
        both %= p
        ker, dims = _batch.left_kernels(both.reshape(2 * len(job), rows, f.n), p)
        up_ker, uh_ker = ker.reshape(2, len(job), rows, rows)
        # a padded row of M_le is in both kernels
        up_dim, uh_dim = dims.reshape(2, len(job)) - padded[c]
        keep = np.flatnonzero((up_dim >= pdims[job]) & (uh_dim >= hdims[job]))
        kept.append((job[keep], mats[keep], up_ker[keep] @ m_le[c[keep]] % p,
                     uh_ker[keep] @ m_le[c[keep]] % p))
    return _Level(*(np.concatenate(part) for part in zip(*kept)))


def _pairs(group: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (point, choice) pair, point by point and each point's choices in
    order, where point x meets the ``count[group[x]]`` choices of its group
    and the choices are stored group by group: each pair's point and choice.
    A pair's choice is its group's first one plus the pair's place among its
    point's pairs."""
    per_point = count[group]
    pair_point = np.repeat(np.arange(len(group)), per_point)
    first_choice = np.repeat(np.cumsum(count)[group] - per_point, per_point)
    first_pair = np.repeat(np.cumsum(per_point) - per_point, per_point)
    return pair_point, first_choice + np.arange(len(pair_point)) - first_pair


def _walk(space: SumSpace, jobs: list, budget: int) -> list[TowerStack]:
    """Resolution points of each job (label, ceiling): the points whose H_j
    all lie in the ceiling, for every job level by level at once.

    The points so far are a stack of their last spaces H_{j-1}, job by job;
    each meets every candidate of level j of its job in turn, and one
    ``between_stack`` step over all these pairs gives the P_j, a second
    over the P_j the H_j.  Every step keeps its parents' order and puts each
    parent's children in walk order, so each job's points come out in the
    depth-first order of the nested loops over candidates, P_j and H_j; a
    level left empty for every job ends the walk.
    """
    if not jobs:
        return []
    p = space.p
    hdims = np.array([np.cumsum(label.ks) for label, _ in jobs], dtype=np.intp)
    ranks = np.array([[rank_numeric(r) for r in label.rs] for label, _ in jobs], dtype=np.intp)
    pdims = hdims - ranks
    levels = []
    for j in range(space.m):
        level = _level(space, jobs, j, pdims[:, j], hdims[:, j], budget)
        if not len(level.ptildes):
            return [_no_points(space, label) for label, _ in jobs]
        levels.append(level)
    hs = np.zeros((len(jobs), 0, space.n), dtype=np.int32)
    job = np.arange(len(jobs))  # each point's job
    steps = []
    for j, level in enumerate(levels):
        pair_point, pair_choice = _pairs(job, np.bincount(level.job, minlength=len(jobs)))
        pair_job = level.job[pair_choice]
        ps, p_pair = between_stack(hs[pair_point], level.up[pair_choice], pdims[pair_job, j], p,
                                   budget=budget)
        hs, h_p = between_stack(ps, level.uh[pair_choice[p_pair]], hdims[pair_job[p_pair], j], p,
                                budget=budget)
        job = pair_job[p_pair[h_p]]
        steps.append((ps, p_pair, hs, h_p, pair_point, pair_choice))
    # trace each point back through the levels
    point = np.arange(len(hs))
    ptildes, pss, hss = [], [], []
    for level, (ps, p_pair, hs, h_p, pair_point, pair_choice) in zip(levels[::-1], steps[::-1]):
        hss.append(hs[point])
        pss.append(ps[h_p[point]])
        pair = p_pair[h_p[point]]
        ptildes.append(level.ptildes[pair_choice[pair]])
        point = pair_point[pair]
    # the points are ordered job by job; each stack is cut to its job's dims
    ends = np.cumsum(np.bincount(job, minlength=len(jobs))).tolist()
    out = []
    for c, (start, end) in enumerate(zip([0] + ends, ends)):
        label = jobs[c][0]
        if start == end:
            out.append(_no_points(space, label))
            continue
        dims = (np.array(label.ks) - ranks[c], pdims[c], hdims[c])
        out.append(TowerStack(space, *([x[start:end, :dim] for x, dim in zip(stacks[::-1], row)]
                                       for stacks, row in zip((ptildes, pss, hss), dims))))
    return out


def _no_points(space: SumSpace, label: MultiLabel) -> TowerStack:
    """The empty walk, with each stack's shape."""
    hdims = [int(x) for x in np.cumsum(label.ks)]
    ts = [k - rank_numeric(r) for k, r in zip(label.ks, label.rs)]
    return TowerStack(
        space,
        (np.zeros((0, t, f.n), dtype=np.int32) for t, f in zip(ts, space.factors)),
        (np.zeros((0, h - k + t, space.n), dtype=np.int32) for h, k, t in zip(hdims, label.ks, ts)),
        (np.zeros((0, h, space.n), dtype=np.int32) for h in hdims),
    )


def ptilde_sizes(space: SumSpace, label: MultiLabel, p: int) -> list[int]:
    """The size of each level's P~_j walk, of Gr_t(F_p^{n_j}) for t = k_j -
    r_j, at the prime p: the space's own, or another, since only the factor
    dimensions are read."""
    return [subspace_total(f.n, k - rank_numeric(r), p)
            for f, k, r in zip(space.factors, label.ks, label.rs)]


def tower_size(space: SumSpace, label: MultiLabel, points: int) -> int:
    """The largest enumeration of the whole tower's walk: a level's P~_j walk
    or the tower's point count ``points``, which bounds each of its
    ``between_stack`` steps."""
    return max(points, *ptilde_sizes(space, label, space.p))


def tower_points(
    space: SumSpace, label: MultiLabel, budget: int | None = DEFAULT_BUDGET
) -> TowerStack:
    """Exhaustive enumeration of the resolution's points, sized before the walk."""
    points = resolution_tower(space, label).count_polynomial()(space.p)
    BudgetExceeded.check(tower_size(space, label, points), budget)
    return _walk(space, [(label, full_subspace(space.n, space.p))], budget)[0]


def fiber_invariants(space: SumSpace, target: Subspace, fiber: TowerStack) -> list:
    """Per point of a fiber over ``target`` M, per factor: dim P_i cap B_{<i},
    dim H_i cap B_{<i}, dim P_i cap (rad pr_i M + B_{<i}).  The two bounds
    are built once for the fiber, and each meet is one batched rank over
    the fiber's P_i or H_i stack."""
    if not len(fiber):
        return []
    p = space.p
    columns = []
    for i, f in enumerate(space.factors):
        prefix = space.prefix_plus(i, zero_subspace(f.n, p)).basis
        enlarged = space.prefix_plus(i, radical(f, space.project_factor(target, i))).basis
        ps, hs = fiber.ps[i], fiber.hs[i]
        pdim, hdim = ps.shape[1], hs.shape[1]
        columns.append(zip(
            _batch.meet_dims(ps, pdim, prefix, p).tolist(),
            _batch.meet_dims(hs, hdim, prefix, p).tolist(),
            _batch.meet_dims(ps, pdim, enlarged, p).tolist(),
        ))
    return list(zip(*columns))


def tower_fiber(
    space: SumSpace,
    label: MultiLabel,
    target: Subspace,
    budget: int | None = DEFAULT_BUDGET,
) -> TowerStack:
    """All resolution points over a fixed target subspace: the walk of
    ``tower_points`` under the ceiling ``target``, since every H_j of a
    point lies in its last space H_m.
    """
    return tower_fibers(space, [(label, target)], budget=budget)[0]


def tower_fibers(space: SumSpace, jobs: list, budget: int | None = DEFAULT_BUDGET) -> list[TowerStack]:
    """``tower_fiber`` of each (label, target) of ``jobs``, from one walk of
    them all: each level's candidates are walked once per t = k_j - r_j,
    and each step runs over the points of every fiber."""
    for label, target in jobs:
        validate_multilabel(space, label)
        if target.n != space.n or target.p != space.p:
            raise ValueError("target lives in the wrong space")
    fibers = iter(_walk(space, [(label, target) for label, target in jobs if target.dim == label.k],
                        budget))
    return [next(fibers) if target.dim == label.k else _no_points(space, label)
            for label, target in jobs]


def closure_labels(
    space: SumSpace, label: MultiLabel, budget: int | None = DEFAULT_BUDGET
) -> dict[MultiLabel, tuple[int, int]]:
    """The resolution's row: label -> (points, distinct targets) over the
    swept targets of that label, in the order the walk first meets them.
    Its keys are the experimental closure of the stratum (finite-field
    evidence only), and its points sum to the resolution's point count.
    The one-label view of ``closure_rows``."""
    return closure_rows(space, [label], budget=budget)[label][1]


# whole towers walked together hold at most this many points; a larger one walks alone
_WALK_POINTS = 1 << 16


def _batches(sizes: list[int], bound: int):
    """Consecutive slices of ``sizes`` that sum to at most ``bound``, each
    size above it alone."""
    start, total = 0, 0
    for c, size in enumerate(sizes):
        if c > start and total + size > bound:
            yield slice(start, c)
            start, total = c, 0
        total += size
    if sizes:
        yield slice(start, len(sizes))


def closure_rows(space: SumSpace, labels: list[MultiLabel],
                 budget: int | None = DEFAULT_BUDGET) -> dict:
    """label -> (tower count polynomial, ``closure_labels`` row) for each of
    ``labels``: every tower is built once and sized, refused at the largest
    before any walk, then walked together with its neighbours in batches of
    at most ``_WALK_POINTS`` points, so that memory follows the largest
    tower and not the sum of them all.  The targets of a batch's towers of
    one dimension k are told apart by one ``np.unique`` of their (job, RREF
    rows) keys, taken in first-seen order, so each row lists its distinct
    targets in the order its walk first meets them; the distinct targets are
    labelled in one bulk call."""
    polys = {label: resolution_tower(space, label).count_polynomial() for label in labels}
    counts = [polys[label](space.p) for label in labels]
    BudgetExceeded.check_largest(
        (tower_size(space, label, count) for label, count in zip(labels, counts)), budget
    )
    full = full_subspace(space.n, space.p)
    rows = {}
    for part in _batches(counts, _WALK_POINTS):
        jobs = [(label, full) for label in labels[part]]
        # only the targets are kept, so the walk's other stacks are freed before the dedup
        walked = {label: points.hs[-1] for (label, _), points in zip(jobs, _walk(space, jobs, budget))}
        for k in {label.k for label in walked}:
            mine = [label for label in walked if label.k == k]
            targets = np.concatenate([walked[label] for label in mine])
            job = np.repeat(np.arange(len(mine), dtype=targets.dtype), [len(walked[label]) for label in mine])
            keys = np.concatenate([job[:, None], targets.reshape(len(targets), k * space.n)], axis=1)
            _, first, hits = np.unique(keys, axis=0, return_index=True, return_counts=True)
            order = np.argsort(first)  # job by job, each job's targets in first-seen order
            first, hits = first[order], hits[order].tolist()
            names = stack_multilabels(space, targets[first])
            ends = np.cumsum(np.bincount(job[first], minlength=len(mine))).tolist()
            for label, start, end in zip(mine, [0] + ends, ends):
                row: dict[MultiLabel, tuple[int, int]] = {}
                for count, lab in zip(hits[start:end], names[start:end]):
                    points, seen = row.get(lab, (0, 0))
                    row[lab] = (points + count, seen + 1)
                rows[label] = (polys[label], row)
    return {label: rows[label] for label in labels}


# ---------------------------------------------------------------------------
# Covering towers
# ---------------------------------------------------------------------------

def cover_factors(space: SumSpace, label: MultiLabel) -> list[int]:
    """Factors that carry the extra middle isotropic: those whose stabilizer
    has two components."""
    return [i for i in range(space.m) if component_group_order(label.factor(space, i)) == 2]


def _extend_space(space: BilinearSpace) -> BilinearSpace:
    """B_i + F with the form extended by <z, z'> = z z' on the new line."""
    g = np.zeros((space.n + 1, space.n + 1), dtype=np.int64)
    g[: space.n, : space.n] = space.gram
    g[space.n, space.n] = 1
    return BilinearSpace(space.n + 1, space.p, SYMMETRIC, g)


def _cover_choices(space: SumSpace, label: MultiLabel, i: int, data: TowerStack, budget: int):
    """Every choice of cover factor i over the tower points ``data``, point
    by point: stacks of the point it sits over, its Q~_i and its Q_i.

    With extra = r_i mod 2, Q~_i is an isotropic P~_i <= Q~_i of B_i (+ F), and
    P_i <= Q_i <= H_i (+ F) cap (B_{<i} + Q~_i).  The Q~_i lie in P~_i^perp, so
    they are the isotropic subspaces of P~_i^perp / P~_i, walked once per
    distinct P~_i, lifted under P~_i and brought to RREF by one
    ``batch_rank``.  H_i lies in B_{<=i}, so x @ (H_i + F) lies in
    B_{<i} + Q~_i iff the residue of its B_i (+ F) part modulo Q~_i is zero:
    the bound is one batched left kernel of those residues over every
    (point, Q~_i) pair, and one ``between_stack`` step gives every Q_i.
    """
    f, p = space.factors[i], space.p
    ki, ri = label.ks[i], int(label.rs[i])
    extra = ri % 2
    fe = _extend_space(f) if extra else f
    qt_dim = ki - ri // 2
    pad = ((0, 0), (0, 0), (0, extra))
    ptildes = np.pad(data.ptildes[i], pad)
    t = ptildes.shape[1]
    distinct, owner = np.unique(ptildes.reshape(len(ptildes), t * fe.n), axis=0, return_inverse=True)
    lifts = [np.zeros((0, qt_dim, fe.n), dtype=np.int32)]
    for rows in distinct.reshape(len(distinct), t, fe.n):
        lower = Subspace(rows, fe.n, p)
        comp, quotient = subquotient(fe, lower, perp(fe, lower))
        mats = isotropic_bases(quotient, qt_dim - t, budget=budget)
        lift = np.empty((len(mats), qt_dim, fe.n), dtype=np.int32)
        lift[:, :t] = rows
        lift[:, t:] = mats @ comp % p
        lifts.append(lift)
    count = np.array([len(lift) for lift in lifts[1:]], dtype=np.intp)  # Q~_i per distinct P~_i
    candidates = np.concatenate(lifts)
    _batch.batch_rank(candidates, p)
    point, choice = _pairs(owner, count)
    qtildes = candidates[choice]
    # H_i + F, with F's row (none for an even r_i) last: its pivot is past
    # every row of H_i, so this is RREF
    hdim = data.hs[i].shape[1]
    hs = np.pad(data.hs[i], ((0, 0), (0, extra), (0, extra)))[point]
    hs[:, hdim:, space.n :] = 1
    part = hs[:, :, np.r_[space.offsets[i] : space.offsets[i + 1], space.n : space.n + extra]]
    pivots = np.argmax(qtildes != 0, axis=2)
    residue = (part - np.take_along_axis(part, pivots[:, None, :], axis=2) @ qtildes) % p
    ker, _ = _batch.left_kernels(residue, p)
    qs, parents = between_stack(np.pad(data.ps[i], pad)[point], ker @ hs % p,
                                sum(label.ks[:i]) + qt_dim, p, budget=budget)
    return point[parents], qtildes[parents], qs


def cover_fiber(
    space: SumSpace,
    label: MultiLabel,
    target: Subspace,
    budget: int | None = DEFAULT_BUDGET,
):
    """Covering-tower fiber over a target, with its structural components.

    Returns (size, component_count, factor_sizes).  The cover points over a
    tower point are every product of its per-factor choices; per cover
    factor, ``factor_sizes[i]`` is the number of distinct middle isotropics
    Q~_i among the cover points, and the component count is the number of
    distinct tuples of ruling colours, where two Q~_i get the same colour
    iff they share a ruling: a tuple is one iff some tower point has a
    choice of its colour in every factor.
    """
    fiber = tower_fiber(space, label, target, budget=budget)
    factors = cover_factors(space, label)
    choices = [_cover_choices(space, label, i, fiber, budget) for i in factors]
    counts = np.zeros((len(factors), len(fiber)), dtype=np.int64)
    for row, (point, _, _) in zip(counts, choices):
        row += np.bincount(point, minlength=len(fiber))
    live = counts.all(axis=0)  # the tower points that have cover points
    held = np.zeros((len(factors), len(fiber), 2), dtype=bool)  # per factor, colours per point
    factor_sizes = {}
    for c, (i, (point, qtildes, _)) in enumerate(zip(factors, choices)):
        mine = live[point]
        point, qtildes = point[mine], qtildes[mine]
        factor_sizes[i] = len(np.unique(qtildes, axis=0))
        if len(qtildes):
            # coloured against the first cover point's Q~_i
            same = _batch.same_ruling(qtildes, qtildes.shape[1], qtildes[0], space.p)
            held[c, point, same.astype(np.intp)] = True
    d = len(factors)
    tuples = np.array(list(product((0, 1), repeat=d)), dtype=np.intp).reshape(2**d, d)
    components = held[np.arange(d), :, tuples].all(axis=1).any(axis=1)
    return int(counts.prod(axis=0).sum()), int(components.sum()), factor_sizes


def expected_cover_fiber_space(space: SumSpace, label: MultiLabel, target: Subspace, i: int) -> BilinearSpace:
    """The quadratic space whose maximal-isotropic count gives the fiber
    factor at a cover factor i, for a target in the open stratum:
    pr_i H / rad(pr_i H), extended by a norm-1 line when r_i is odd."""
    f = space.factors[i]
    pr = space.project_factor(target, i)
    sub = BilinearSpace(pr.dim, space.p, f.form_type,
                        pairing(f, pr.basis, pr.basis))
    if int(label.rs[i]) % 2:
        sub = _extend_space(sub)
    whole = full_subspace(sub.n, sub.p)
    return subquotient(sub, radical(sub, whole), whole)[1]
