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
over a target M is the walk under M itself, since H_i <= H_m = M.  The P~_i
candidates come as stacks of bases and are pruned against the ceiling in
bulk, so only the survivors are built as subspaces.

The covering tower adds, for every symmetric factor with
max{0, 2k_i - n_i} < r_i, a middle isotropic Q~_i >= P~_i of dim
k_i - r_i//2, inside B_i for even r_i and inside B_i + F for odd r_i, where
F is an extra line of norm 1.  Its candidates are the isotropic subspaces of
P~_i^perp / P~_i, walked once per distinct P~_i; over the open stratum these
choices split the fiber into 2^d components, one pair per such factor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

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
    full_subspace,
    intersect_prefix,
    rref,
    span,
    subspace_intersect,
    subspace_total,
    subspaces_between,
    zero_subspace,
)
from .orbits import DOUBLEPRIME0, PRIME0, component_group_order, rank_numeric
from .paving import iso_grassmannian_count, isotropic_bases, isotropic_subspaces
from .polynomials import IntPolynomial, gaussian_binomial
from .sumspace import MultiLabel, SumSpace, multilabels_of, validate_multilabel


@dataclass(frozen=True)
class FlagDatum:
    """One point of the resolution: per-factor isotropics and the flag chain."""

    ptildes: tuple[Subspace, ...]  # in B_i coordinates
    ps: tuple[Subspace, ...]       # in B, supported on the first blocks
    hs: tuple[Subspace, ...]

    @property
    def target(self) -> Subspace:
        return self.hs[-1]


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


def _base_stacks(space: SumSpace, label: MultiLabel, j: int, budget: int):
    """P~_j candidates as stacks (N, t, n_j) of RREF bases, in enumeration
    order: isotropic of dim t = k_j - r_j, one ruling only for a tag r_j."""
    f = space.factors[j]
    kj, rj = label.ks[j], label.rs[j]
    if rj not in (PRIME0, DOUBLEPRIME0):
        yield from isotropic_bases(f, kj - rj, budget=budget)
        return
    if f.witness is None:
        raise ValueError("split witness required to separate the two components")
    for mats in isotropic_bases(f, kj, budget=budget):
        keep = _batch.same_ruling(mats, kj, f.witness.basis, space.p) == (rj == PRIME0)
        if keep.any():
            yield mats[keep]


def _level(space: SumSpace, label: MultiLabel, j: int, ceiling: Subspace,
           pdim: int, hdim: int, budget: int) -> list:
    """The triples (P~_j, up, uh) of level j whose bounds up, uh can hold
    P_j (dim ``pdim``) and H_j (dim ``hdim``).

    up and uh are B_{<j} + P~_j and B_{<j} + P~_j^perp cut down to the
    ceiling M; both lie in B_{<=j}, so the cut is to M_le = M cap B_{<=j}.
    Each contains B_{<j}, so with Mj the block-j projection of M_le
    (kernel M cap B_{<j}), for P~ of dim t
        dim up = dim M_le - dim Mj + dim(P~ cap Mj)
        dim uh = dim M_le - rank <Mj, P~>,
    two batched ranks per stack, and only survivors are built.  Under the
    full ceiling every candidate survives (valid labels have
    n_j >= 2 k_j - r_j) and the cut returns each bound as built.
    """
    f, p = space.factors[j], space.p
    prune = ceiling.dim < space.n
    if prune:
        lo, hi = space.offsets[j], space.offsets[j + 1]
        m_le = intersect_prefix(ceiling, hi)
        mj = rref(m_le.basis[:, lo:hi], p)
        mj_gram = mj @ f.gram % p
    level = []
    for mats in _base_stacks(space, label, j, budget):
        if prune:
            up_dim = (m_le.dim - len(mj)) + _batch.meet_dims(mats, mats.shape[1], mj, p)
            uh_dim = m_le.dim - _batch.batch_rank(mj_gram @ mats.transpose(0, 2, 1) % p, p)
            mats = mats[(up_dim >= pdim) & (uh_dim >= hdim)]
        for basis in mats:
            ptilde = Subspace(basis, f.n, p)  # pattern matrices are already RREF
            level.append((
                ptilde,
                subspace_intersect(space.prefix_plus(j, ptilde), ceiling),
                subspace_intersect(space.prefix_plus(j, perp(f, ptilde)), ceiling),
            ))
    return level


def _walk(space: SumSpace, label: MultiLabel, ceiling: Subspace, budget: int):
    """Resolution points whose H_j all lie in ``ceiling``, depth first over
    the levels of ``_level``; an empty level empties the walk."""
    hdims = [int(x) for x in np.cumsum(label.ks)]
    pdims = [h - rank_numeric(r) for h, r in zip(hdims, label.rs)]
    levels = []
    for j in range(space.m):
        level = _level(space, label, j, ceiling, pdims[j], hdims[j], budget)
        if not level:
            return
        levels.append(level)

    def step(j: int, ptildes, ps, hs):
        if j == space.m:
            yield FlagDatum(ptildes, ps, hs)
            return
        h_prev = hs[-1] if hs else zero_subspace(space.n, space.p)
        for ptilde, up, uh in levels[j]:
            for pj in subspaces_between(h_prev, up, pdims[j], budget=budget):
                for hj in subspaces_between(pj, uh, hdims[j], budget=budget):
                    yield from step(j + 1, ptildes + (ptilde,), ps + (pj,), hs + (hj,))

    yield from step(0, (), (), ())


def tower_size(space: SumSpace, label: MultiLabel) -> int:
    """The largest enumeration of the whole tower's walk: a level's P~_j walk
    of Gr_t(F_p^{n_j}), t = k_j - r_j, or the symbolic point count, which
    bounds each of its ``subspaces_between`` steps."""
    points = resolution_tower(space, label).count_polynomial()(space.p)
    return max(points, *(subspace_total(f.n, k - rank_numeric(r), space.p)
                         for f, k, r in zip(space.factors, label.ks, label.rs)))


def tower_points(
    space: SumSpace, label: MultiLabel, budget: int | None = DEFAULT_BUDGET
) -> list[FlagDatum]:
    """Exhaustive enumeration of the resolution's points, sized before the walk."""
    BudgetExceeded.check(tower_size(space, label), budget)
    return list(_walk(space, label, full_subspace(space.n, space.p), budget))


def fiber_invariants(space: SumSpace, target: Subspace, data: list[FlagDatum]) -> list:
    """Per point of a fiber over ``target`` M, per factor: dim P_i cap B_{<i},
    dim H_i cap B_{<i}, dim P_i cap (rad pr_i M + B_{<i}).  The two bounds
    are built once for the fiber, and each meet is one batched rank over
    the stacked P_i or H_i bases."""
    if not data:
        return []
    p = space.p
    columns = []
    for i, f in enumerate(space.factors):
        prefix = space.prefix_plus(i, zero_subspace(f.n, p)).basis
        enlarged = space.prefix_plus(i, radical(f, space.project_factor(target, i))).basis
        ps = np.stack([datum.ps[i].basis for datum in data])
        hs = np.stack([datum.hs[i].basis for datum in data])
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
) -> list[FlagDatum]:
    """All resolution points over a fixed target subspace: the walk of
    ``tower_points`` under the ceiling ``target``, since every H_j of a
    point lies in its last space H_m.
    """
    validate_multilabel(space, label)
    if target.n != space.n or target.p != space.p:
        raise ValueError("target lives in the wrong space")
    return list(_walk(space, label, target, budget)) if target.dim == label.k else []


def closure_labels(
    space: SumSpace, label: MultiLabel, budget: int | None = DEFAULT_BUDGET
) -> dict[MultiLabel, tuple[int, int]]:
    """The resolution's row: label -> (points, distinct targets) over the
    swept targets of that label, in the order the walk first meets them.
    Its keys are the experimental closure of the stratum (finite-field
    evidence only), and its points sum to the resolution's point count."""
    hits = Counter(datum.target for datum in tower_points(space, label, budget=budget))
    row: dict[MultiLabel, tuple[int, int]] = {}
    for lab, c in zip(multilabels_of(space, hits), hits.values()):
        points, targets = row.get(lab, (0, 0))
        row[lab] = (points + c, targets + 1)
    return row


# ---------------------------------------------------------------------------
# Covering towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverDatum:
    base: FlagDatum
    qtildes: dict  # factor index -> Subspace (B_i or B_i + F coordinates)
    qs: dict       # factor index -> Subspace (B or B + F coordinates)

    def __hash__(self):
        return hash(
            (
                self.base,
                tuple(sorted(self.qtildes.items())),
                tuple(sorted(self.qs.items())),
            )
        )


def cover_factors(space: SumSpace, label: MultiLabel) -> list[int]:
    """Factors that carry the extra middle isotropic: those whose stabilizer
    has two components."""
    return [i for i in range(space.m) if component_group_order(label.factor(space, i)) == 2]


def _pad(sub: Subspace, extra: int) -> Subspace:
    """sub in F_p^(n + extra); zero columns on the right keep its RREF."""
    if not extra:
        return sub
    return Subspace(np.pad(sub.basis, ((0, 0), (0, extra))), sub.n + extra, sub.p)


def _extend_space(space: BilinearSpace) -> BilinearSpace:
    """B_i + F with the form extended by <z, z'> = z z' on the new line."""
    g = np.zeros((space.n + 1, space.n + 1), dtype=np.int64)
    g[: space.n, : space.n] = space.gram
    g[space.n, space.n] = 1
    return BilinearSpace(space.n + 1, space.p, SYMMETRIC, g)


def _isotropic_above(space: BilinearSpace, lower: Subspace, d: int, budget: int):
    """Isotropic d-subspaces containing the isotropic ``lower``: they lie in
    lower^perp, so they are the isotropic subspaces of lower^perp / lower,
    walked with the batch filter and lifted."""
    p = space.p
    comp, quotient = subquotient(space, lower, perp(space, lower))
    for x in isotropic_subspaces(quotient, d - lower.dim, budget=budget):
        yield span(np.vstack([lower.basis, x.basis @ comp % p]), space.n, p)


def _cover_choices(space: SumSpace, label: MultiLabel, i: int, data: list, budget: int):
    """Per tower point in ``data``, the (Q~_i, Q_i) pairs of cover factor i.

    With extra = r_i mod 2, Q~_i is an isotropic P~_i <= Q~_i of B_i (+ F), and
    P_i <= Q_i <= H_i (+ F) cap (B_{<i} + Q~_i).  The Q~_i candidates and their
    B_{<i} + Q~_i depend only on P~_i, so each distinct P~_i is walked once.
    """
    f = space.factors[i]
    p = space.p
    ki, ri = label.ks[i], int(label.rs[i])
    extra = ri % 2
    fe = _extend_space(f) if extra else f
    qt_dim = ki - ri // 2
    q_dim = sum(label.ks[:i]) + qt_dim
    n = space.n + extra
    lo, end = space.offsets[i], space.offsets[i + 1]
    eye = np.eye(n, dtype=np.int64)
    above: dict[Subspace, list[tuple[Subspace, Subspace]]] = {}
    out = []
    for datum in data:
        ptilde = _pad(datum.ptildes[i], extra)
        if ptilde not in above:
            above[ptilde] = []
            for qt in _isotropic_above(fe, ptilde, qt_dim, budget):
                rows = np.zeros((qt.dim, n), dtype=np.int64)
                rows[:, lo:end] = qt.basis[:, : f.n]
                rows[:, space.n :] = qt.basis[:, f.n :]
                # B_{<i} + Q~_i: qt's columns keep their order, so its RREF rows
                # under the identity rows of B_{<i} are RREF
                above[ptilde].append((qt, Subspace(np.vstack([eye[:lo], rows]), n, p)))
        pi = _pad(datum.ps[i], extra)
        # H_i + F: the F row has its pivot past every padded row, so this is RREF
        hi_f = Subspace(np.vstack([_pad(datum.hs[i], extra).basis, eye[space.n :]]), n, p)
        uppers = [(qt, subspace_intersect(hi_f, uq)) for qt, uq in above[ptilde]]
        out.append([(qt, q) for qt, up in uppers
                    for q in subspaces_between(pi, up, q_dim, budget=budget)])
    return out


def _cover_over(space: SumSpace, label: MultiLabel, data: list[FlagDatum], budget: int):
    """Cover points over each tower point in ``data``: every product of the
    per-factor choices."""
    factors = cover_factors(space, label)
    per_factor = [_cover_choices(space, label, i, data, budget) for i in factors]
    for j, datum in enumerate(data):
        for combo in product(*(choices[j] for choices in per_factor)):
            qtildes = {i: qt for i, (qt, _) in zip(factors, combo)}
            qs = {i: q for i, (_, q) in zip(factors, combo)}
            yield CoverDatum(datum, qtildes, qs)


def cover_fiber(
    space: SumSpace,
    label: MultiLabel,
    target: Subspace,
    budget: int | None = DEFAULT_BUDGET,
):
    """Covering-tower fiber over a target, with its structural components.

    Returns (points, component_count, factor_sizes): per cover factor,
    ``factor_sizes[i]`` is the number of middle-isotropic choices, and the
    component count is the number of distinct tuples of ruling colors,
    where two middle isotropics get the same color iff they share a ruling.
    """
    fiber = tower_fiber(space, label, target, budget=budget)
    points = list(_cover_over(space, label, fiber, budget))
    factor_sizes = {}
    colors = np.zeros((len(points), 0), dtype=np.int64)  # one column per cover factor
    for i in cover_factors(space, label):
        qts = [pt.qtildes[i] for pt in points]
        factor_sizes[i] = len(set(qts))
        if qts:
            # colored against the first point's Q~_i
            same = _batch.same_ruling(np.stack([qt.basis for qt in qts]), qts[0].dim,
                                      qts[0].basis, space.p)
            colors = np.column_stack([colors, same])
    return points, len(set(map(tuple, colors.tolist()))), factor_sizes


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
