from collections import Counter
from itertools import product

import numpy as np
import pytest
from checks import FlagDatum, flag_data, flag_datum, same_points, scalar_between, stack_labels

from isograss import _batch, towers
from isograss.bilinear import SKEW, SYMMETRIC, BilinearSpace, perp, radical, standard_space
from isograss.cli import parse_label_arg
from isograss.linalg import (
    BudgetExceeded,
    Subspace,
    enumerate_subspaces,
    full_subspace,
    span,
    subspace_intersect,
    subspaces_between,
    zero_subspace,
)
from isograss.orbits import DOUBLEPRIME0, PRIME0, rank_numeric
from isograss.paving import isotropic_subspaces
from isograss.polynomials import IntPolynomial, gaussian_binomial, interpolate_counts
from isograss.sumspace import (
    MultiLabel,
    SumSpace,
    build_sum_space,
    canonical_representative,
    enumerate_multilabels,
    multilabel_of,
)
from isograss.towers import (
    closure_labels,
    cover_factors,
    cover_fiber,
    expected_cover_fiber_space,
    fiber_invariants,
    resolution_tower,
    tower_fiber,
    tower_fibers,
    tower_points,
)
from isograss.verify import GRID_SPACES, closure_relation


def single_resolution(space, k, r):
    """Pairs (P, H) with P isotropic of dim k-r and P <= H <= P^perp, dim H = k.

    Asserts the image and fiber laws: the targets are exactly the H with
    dim rad H >= k - r, and the fiber over H is a single pair when
    dim rad H = k - r exactly.
    """
    pairs = [
        (psub, h)
        for psub in isotropic_subspaces(space, k - r)
        for h in subspaces_between(psub, perp(space, psub), k)
    ]
    fiber_sizes = Counter(h for _, h in pairs)
    for h in enumerate_subspaces(space.n, k, space.p):
        raddim = radical(space, h).dim
        assert (raddim >= k - r) == (h in fiber_sizes), "image is not the radical locus"
        if raddim == k - r:
            assert fiber_sizes[h] == 1, "fiber over an open-stratum point is not a singleton"
    return pairs


def test_single_resolution_sp4_open():
    sp4 = standard_space(SKEW, 4, 3)
    pairs = single_resolution(sp4, 2, 2)
    # P = 0 is forced; the resolution is the identity on all of Gr_2
    assert len(pairs) == gaussian_binomial(4, 2)(3)
    assert all(p.dim == 0 for p, _ in pairs)


def test_single_resolution_sp4_lagrangian():
    sp4 = standard_space(SKEW, 4, 3)
    pairs = single_resolution(sp4, 2, 0)
    assert len(pairs) == 40
    assert all(p == h for p, h in pairs)


def test_single_resolution_o4_middle():
    o4 = standard_space(SYMMETRIC, 4, 3)
    pairs = single_resolution(o4, 2, 1)
    # fiber over a maximal isotropic H is {P < H : dim P = 1} of size q+1
    by_h = Counter(h for _, h in pairs)
    maximal = [h for h, c in by_h.items() if c > 1]
    for h in maximal:
        assert by_h[h] == 4  # q + 1 at q = 3
    assert len(maximal) == 8  # the two rulings


def test_tower_m1_matches_single_resolution():
    sp4 = build_sum_space("Sp4", 3)
    label = MultiLabel((2,), (0,))
    pts = tower_points(sp4, label)
    pairs = single_resolution(sp4.factors[0], 2, 0)
    assert len(pts) == len(pairs)
    assert {(d.ps[0], d.hs[0]) for d in flag_data(pts)} == set(pairs)


def test_resolution_tower_symbolic_counts():
    sp4 = build_sum_space("Sp4", 3)
    lag = resolution_tower(sp4, MultiLabel((2,), (0,)))
    assert lag.count_polynomial() == IntPolynomial([1, 1, 1, 1])
    opn = resolution_tower(sp4, MultiLabel((2,), (2,)))
    assert opn.count_polynomial() == gaussian_binomial(4, 2)

    spsp = build_sum_space("Sp2+Sp2", 3)
    tower = resolution_tower(spsp, MultiLabel((1, 1), (0, 0)))
    p1 = IntPolynomial([1, 1])
    assert tower.count_polynomial() == p1 * p1 * p1


def test_tower_points_count_matches_symbolic():
    for spec in ("Sp4", "O2", "O3", "O4", "Sp2+O2", "Sp2+Sp2"):
        b = build_sum_space(spec, 3)
        for k in range(b.n + 1):
            for label in enumerate_multilabels(b, k):
                symbolic = resolution_tower(b, label).count_polynomial()(3)
                pts = tower_points(b, label)
                assert len(pts) == symbolic, (spec, k, str(label))
                assert len(set(flag_data(pts))) == len(pts)


def test_tower_points_budget_bounds_base_choices():
    # the symbolic count is 40, but the P~ choices are read off all 33,880
    # points of Gr_3(F_3^6): the budget must bound that enumeration too
    o6 = build_sum_space("O6", 3)
    label = MultiLabel((3,), (PRIME0,))
    assert resolution_tower(o6, label).count_polynomial()(3) == 40
    with pytest.raises(BudgetExceeded):
        tower_points(o6, label, budget=1000)


@pytest.mark.parametrize("spec,label,size", [
    # the P~ walk of Gr_3(F_3^6) is the largest enumeration of a 40-point tower
    ("O6", "3:0p", 33_880),
    # a point count above every P~ walk: it bounds each subspaces_between step
    ("Sp2+O2", "0:0,2:2", 130),
])
def test_tower_points_refuses_above_its_tower_size(spec, label, size):
    # the walk is sized before it starts: size == budget walks it, and one
    # less is refused with the size
    space, label = build_sum_space(spec, 3), parse_label_arg(label)
    count = resolution_tower(space, label).count_polynomial()(3)
    assert towers.tower_size(space, label, count) == size
    points = tower_points(space, label, budget=size)
    assert len(points) == count
    with pytest.raises(BudgetExceeded) as exc:
        tower_points(space, label, budget=size - 1)
    assert exc.value.estimate == size


def test_ruling_filter_classifies_nothing(monkeypatch):
    # a tag r_j keeps the P~_j candidates of its ruling by one same_ruling
    # call per stack, with no label codes
    def refuse(*args):
        raise AssertionError("classify_batch called")

    monkeypatch.setattr(_batch, "classify_batch", refuse)
    for spec, label in (("O4", MultiLabel((2,), (PRIME0,))), ("O4", MultiLabel((2,), (DOUBLEPRIME0,))),
                        ("Sp2+O2", MultiLabel((1, 1), (0, PRIME0)))):
        space = build_sum_space(spec, 3)
        points = tower_points(space, label)
        assert len(points) == resolution_tower(space, label).count_polynomial()(3) > 0
    # a ruling needs the witness, as in the classifier
    bare = SumSpace((BilinearSpace(2, 3, SYMMETRIC, [[0, 1], [1, 0]]),))
    with pytest.raises(ValueError, match="split witness required"):
        tower_points(bare, MultiLabel((1,), (PRIME0,)))


def test_rulings_share_one_walk_per_ptilde_dimension(monkeypatch):
    # the two rulings of a tag take their P~ from one walk of their t: on
    # O4 at k = 2 the labels 0', 0'', 1 and 2 walk t = 2, 1 and 0 once each
    walks = Counter()
    real = towers.isotropic_bases
    monkeypatch.setattr(towers, "isotropic_bases",
                        lambda f, t, budget: walks.update([(f.n, t)]) or real(f, t, budget=budget))
    space = build_sum_space("O4", 3)
    labels = enumerate_multilabels(space, 2)
    assert {label.rs[0] for label in labels} == {PRIME0, DOUBLEPRIME0, 1, 2}
    rows = towers.closure_rows(space, labels)
    assert walks == Counter({(4, 2): 1, (4, 1): 1, (4, 0): 1})
    assert rows[MultiLabel((2,), (PRIME0,))][1] == {MultiLabel((2,), (PRIME0,)): (4, 4)}
    assert rows[MultiLabel((2,), (DOUBLEPRIME0,))][1] == {MultiLabel((2,), (DOUBLEPRIME0,)): (4, 4)}


def test_empty_label_gives_single_point():
    b = build_sum_space("Sp2+O2", 3)
    pts = tower_points(b, MultiLabel((0, 0), (0, 0)))
    assert len(pts) == 1
    assert flag_datum(pts, 0).hs[-1].dim == 0


def test_tower_fiber_open_orbit_singleton():
    b = build_sum_space("Sp2+O2", 3)
    for k in (1, 2):
        for label in enumerate_multilabels(b, k):
            rep = canonical_representative(b, label)
            fiber = tower_fiber(b, label, rep)
            assert len(fiber) == 1
            datum = flag_datum(fiber, 0)
            assert datum.hs[-1] == rep
            # radical formula: P~_i is the radical of pr_i of the target
            from isograss.bilinear import radical

            for i, f in enumerate(b.factors):
                pr = b.project_factor(rep, i)
                assert datum.ptildes[i] == radical(f, pr)


def test_tower_fiber_is_tower_points_cut_to_target():
    for spec, ks in (("Sp2+O2", (1, 2)), ("Sp2+Sp2", (2,)), ("O4", (2,))):
        b = build_sum_space(spec, 3)
        for k in ks:
            for label in enumerate_multilabels(b, k):
                by_target: dict = {}
                for datum in flag_data(tower_points(b, label)):
                    by_target.setdefault(datum.hs[-1], Counter())[datum] += 1
                for h in enumerate_subspaces(b.n, k, 3):
                    want = by_target.get(h, Counter())
                    assert Counter(flag_data(tower_fiber(b, label, h))) == want, (spec, str(label), h)


def _oracle_candidates(space, label, j, ceiling, pdim, hdim, budget):
    """The definitional level of the walk: per candidate P~_j a Subspace, its
    perp and both bounds cut to the ceiling, kept when they can hold P_j and
    H_j; a tag r_j keeps the candidates of its ruling, labelled one by one."""
    f = space.factors[j]
    kj, rj = label.ks[j], label.rs[j]
    if rj in (PRIME0, DOUBLEPRIME0):
        xs = list(isotropic_subspaces(f, kj, budget=budget))
        labels = stack_labels(SumSpace((f,)), xs)
        choices = [x for x, lab in zip(xs, labels) if lab.rs[0] == rj]
    else:
        choices = isotropic_subspaces(f, kj - rj, budget=budget)
    level = []
    for ptilde in choices:
        up = subspace_intersect(space.prefix_plus(j, ptilde), ceiling)
        if up.dim < pdim:
            continue
        uh = subspace_intersect(space.prefix_plus(j, perp(f, ptilde)), ceiling)
        if uh.dim >= hdim:
            level.append((ptilde, up, uh))
    return level


def _oracle_level(space, jobs, j, pdims, hdims, budget):
    """``_oracle_candidates`` of each job, stacked as the walk reads a level."""
    def stack(subs, rows, n):
        out = np.zeros((len(subs), rows, n), dtype=np.int32)
        for x, sub in zip(out, subs):
            x[: sub.dim] = sub.basis
        return out

    level = [(c, *choice) for c, (label, ceiling) in enumerate(jobs)
             for choice in _oracle_candidates(space, label, j, ceiling, pdims[c], hdims[c], budget)]
    which, ptildes, ups, uhs = zip(*level) if level else ((), (), (), ())
    return towers._Level(np.array(which, dtype=np.intp), stack(ptildes, space.factors[j].n, space.factors[j].n),
                         stack(ups, space.n, space.n), stack(uhs, space.n, space.n))


def _scalar_walk(space, label, ceiling):
    """The walk as nested loops over Subspaces: per level the oracle's
    candidates, then the scalar between-steps for P_j and H_j."""
    hdims = [int(x) for x in np.cumsum(label.ks)]
    pdims = [h - rank_numeric(r) for h, r in zip(hdims, label.rs)]
    levels = [_oracle_candidates(space, label, j, ceiling, pdims[j], hdims[j], None)
              for j in range(space.m)]

    def step(j, ptildes, ps, hs):
        if j == space.m:
            yield FlagDatum(ptildes, ps, hs)
            return
        h_prev = hs[-1] if hs else zero_subspace(space.n, space.p)
        for ptilde, up, uh in levels[j]:
            for pj in scalar_between(h_prev, up, pdims[j]):
                for hj in scalar_between(pj, uh, hdims[j]):
                    yield from step(j + 1, ptildes + (ptilde,), ps + (pj,), hs + (hj,))

    return list(step(0, (), (), ()))


@pytest.mark.parametrize("spec,ks", [
    *((spec, None) for spec in GRID_SPACES),
    # the larger k have towers of 10^5 to 10^8 points, too many for the scalar walk
    ("O4+O3", (0, 1, 6, 7)),
    ("Sp4+O2+Sp2", (0, 1, 7, 8)),
])
def test_closure_rows_keep_the_scalar_walk_order(spec, ks):
    # a resolution row, item order included, is that of the scalar walk's
    # targets, counted in the order the walk first meets them
    space = build_sum_space(spec, 3)
    for k in range(space.n + 1) if ks is None else ks:
        for label in enumerate_multilabels(space, k):
            hits = Counter(d.hs[-1] for d in _scalar_walk(space, label, full_subspace(space.n, 3)))
            want: dict = {}
            for lab, c in zip(stack_labels(space, hits), hits.values()):
                points, seen = want.get(lab, (0, 0))
                want[lab] = (points + c, seen + 1)
            assert list(closure_labels(space, label).items()) == list(want.items()), str(label)


def test_walk_matches_per_candidate_oracle(monkeypatch):
    """Every tower_points of the grid at p = 3, and tower_fiber over every
    canonical representative of every label pair (grid at p = 3, Sp2+O2 and
    O4 at p = 5), one by one and all of a label's in one tower_fibers walk,
    give the same points in the same order as the oracle."""
    cases = []
    grid = [build_sum_space(spec, 3) for spec in GRID_SPACES]
    for space in grid + [build_sum_space(spec, 5) for spec in ("Sp2+O2", "O4")]:
        for k in range(space.n + 1):
            labels = enumerate_multilabels(space, k)
            reps = [canonical_representative(space, lab) for lab in labels]
            for label in labels:
                if space.p == 3:
                    cases.append((space, label, None))
                cases += [(space, label, rep) for rep in reps] + [(space, label, tuple(reps))]

    def walk(space, label, target):
        if target is None:
            return [tower_points(space, label)]
        if isinstance(target, tuple):
            return tower_fibers(space, [(label, rep) for rep in target])
        return [tower_fiber(space, label, target)]

    got = [walk(*case) for case in cases]
    monkeypatch.setattr(towers, "_level", _oracle_level)
    for case, points in zip(cases, got):
        want = walk(*case)
        assert len(points) == len(want) and all(map(same_points, points, want)), (
            case[0].spec, case[0].p, str(case[1]), case[2])
    assert sum(len(points) for walked in got for points in walked) > 0


def _mixed_jobs(space, ks):
    """Every label of each k in ``ks`` under the full ceiling, which they all
    share, and under each canonical representative of dimension at least its
    k: in one walk, keys that share t = k_j - r_j, tag keys, and shared and
    distinct ceilings."""
    labels = [lab for k in ks for lab in enumerate_multilabels(space, k)]
    reps = [canonical_representative(space, lab) for lab in labels]
    full = full_subspace(space.n, space.p)
    return [(lab, full) for lab in labels] + [(lab, rep) for lab in labels for rep in reps if rep.dim >= lab.k]


BATCHED = [("O4", 3, None), ("O4", 5, None), ("Sp2+O2", 3, None), ("Sp2+O2", 5, None),
           ("O2+O3", 3, None), ("O2+O3", 5, None), ("O4+O3", 3, (0, 1, 6, 7))]


@pytest.mark.parametrize("spec,p,ks", BATCHED)
def test_walk_of_many_jobs_is_each_job_walked_alone(spec, p, ks):
    # a level shares candidate walks, cut ceilings and kernel calls between
    # its jobs; no job's points, nor their order, depend on its neighbours
    space = build_sum_space(spec, p)
    jobs = _mixed_jobs(space, range(space.n + 1) if ks is None else ks)
    keys = {(j, label.ks[j], label.rs[j]) for label, _ in jobs for j in range(space.m)}
    ts = Counter((j, k - rank_numeric(r)) for j, k, r in keys if r not in (PRIME0, DOUBLEPRIME0))
    assert max(ts.values()) > 1  # two keys of one level share a walk
    assert spec == "O4+O3" or any(r in (PRIME0, DOUBLEPRIME0) for _, _, r in keys)
    assert len({ceiling for _, ceiling in jobs}) < len(jobs)
    together = towers._walk(space, jobs, None)
    assert len(together) == len(jobs)
    for (label, ceiling), points in zip(jobs, together):
        alone = towers._walk(space, [(label, ceiling)], None)[0]
        assert same_points(points, alone), (str(label), ceiling)
    assert sum(map(len, together)) > 0


@pytest.mark.parametrize("spec,p,ks", BATCHED)
def test_closure_rows_of_a_batch_are_each_label_alone(spec, p, ks):
    # one np.unique per (batch, k) keys the targets by (job, rows): each row,
    # its item order included, is that of the label walked alone
    space = build_sum_space(spec, p)
    labels = [lab for k in (range(space.n + 1) if ks is None else ks)
              for lab in enumerate_multilabels(space, k)]
    together = towers.closure_rows(space, labels)
    assert list(together) == labels
    for label in labels:
        poly, row = towers.closure_rows(space, [label])[label]
        assert together[label][0] == poly
        assert list(together[label][1].items()) == list(row.items()), str(label)


def test_level_kernel_calls_are_bounded_and_batched(monkeypatch):
    # every (job, candidate) item of a level, over all its jobs and walks,
    # goes through one left_kernels call per _LEVEL_ITEMS items (two
    # matrices an item): a level whose items fit makes exactly one call,
    # and no call passes the bound
    calls, levels = [], []
    real, real_level = _batch.left_kernels, towers._level

    def spy(a, p):
        calls.append(len(a))
        return real(a, p)

    def counted_level(*args):
        start = len(calls)
        out = real_level(*args)
        levels.append(calls[start:])
        return out

    monkeypatch.setattr(_batch, "left_kernels", spy)
    monkeypatch.setattr(towers, "_level", counted_level)
    space = build_sum_space("O2+O3", 5)
    jobs = _mixed_jobs(space, (2, 3))
    want = [len(points) for points in towers._walk(space, jobs, None)]
    sliced = []
    for bound in (towers._LEVEL_ITEMS, 64):
        levels.clear()
        monkeypatch.setattr(towers, "_LEVEL_ITEMS", bound)
        assert [len(points) for points in towers._walk(space, jobs, None)] == want
        for level in levels:
            assert len(level) == -(-sum(level) // (2 * bound))
            assert all(0 < size <= 2 * bound for size in level)
        sliced.append(max(map(len, levels)))
    assert sliced[0] == 1 < sliced[1]


def test_tower_fibers_walk_each_target_as_tower_fiber():
    # one walk under targets of every dimension: a target of the wrong
    # dimension has an empty fiber, as in tower_fiber, and the others are
    # walked together
    space = build_sum_space("Sp2+O2", 3)
    targets = [canonical_representative(space, lab) for k in range(space.n + 1)
               for lab in enumerate_multilabels(space, k)]
    jobs = [(label, target) for k in (1, 2) for label in enumerate_multilabels(space, k)
            for target in targets]
    fibers = tower_fibers(space, jobs)
    assert len(fibers) == len(jobs)
    assert all(same_points(f, tower_fiber(space, label, target)) for f, (label, target) in zip(fibers, jobs))
    assert all(len(f) == 0 for f, (label, t) in zip(fibers, jobs) if t.dim != label.k)
    assert sum(map(len, fibers)) > 0


def test_fiber_builds_only_surviving_candidates(monkeypatch):
    """Over a lower-stratum target the walk prunes P~ candidates in bulk: the
    level keeps only the survivors, and their bounds come from batched
    kernels, with no scalar perp per candidate or survivor (and towers
    imports no scalar meet, see tests/test_tooling.py)."""
    p = 5
    o4 = build_sum_space("O4", p)
    target = canonical_representative(o4, MultiLabel((2,), (PRIME0,)))
    calls = []
    real_perp = towers.perp
    monkeypatch.setattr(towers, "perp", lambda *args: calls.append(args) or real_perp(*args))
    levels = []
    real_level = towers._level
    monkeypatch.setattr(towers, "_level", lambda *args: levels.append(real_level(*args)) or levels[-1])
    fiber = tower_fiber(o4, MultiLabel((2,), (1,)), target)
    # survivors are the q + 1 lines of the Lagrangian target, one point each,
    # out of the (q + 1)^2 isotropic lines of O4
    assert len(fiber) == len(levels[0].ptildes) == p + 1
    assert calls == []
    assert sum(1 for _ in isotropic_subspaces(o4.factors[0], 1)) == (p + 1) ** 2


def test_tower_fiber_o4_maximal_isotropic():
    o4 = build_sum_space("O4", 3)
    label = MultiLabel((2,), (1,))
    rep = canonical_representative(o4, MultiLabel((2,), (PRIME0,)))
    fiber = tower_fiber(o4, label, rep)
    assert len(fiber) == 4  # q + 1 at q = 3


def test_tower_fiber_outside_closure_empty():
    sp4 = build_sum_space("Sp4", 3)
    label = MultiLabel((2,), (0,))  # closed stratum: only its own points
    rep = canonical_representative(sp4, MultiLabel((2,), (2,)))
    fiber = tower_fiber(sp4, label, rep)
    assert len(fiber) == 0


def test_tower_fiber_polynomial_o4():
    samples = []
    for p in (3, 5):
        o4 = build_sum_space("O4", p)
        rep = canonical_representative(o4, MultiLabel((2,), (PRIME0,)))
        samples.append((p, len(tower_fiber(o4, MultiLabel((2,), (1,)), rep))))
    poly = interpolate_counts(samples, 1)
    assert poly == IntPolynomial([1, 1])


def test_closure_rows_walk_towers_in_bounded_batches(monkeypatch):
    # towers are walked together only up to _WALK_POINTS points, a larger
    # one alone, and the rows, item order included, do not depend on it
    space = build_sum_space("Sp2+O2", 3)
    labels = [lab for k in range(space.n + 1) for lab in enumerate_multilabels(space, k)]
    want = towers.closure_rows(space, labels)
    walks = []
    real = towers._walk
    monkeypatch.setattr(towers, "_walk", lambda *args: walks.append(real(*args)) or walks[-1])
    monkeypatch.setattr(towers, "_WALK_POINTS", 40)
    got = towers.closure_rows(space, labels)
    assert [list(got[lab][1].items()) for lab in labels] == [list(want[lab][1].items()) for lab in labels]
    sizes = [[len(points) for points in walk] for walk in walks]
    assert sum(map(len, sizes)) == len(labels)
    assert max(map(len, sizes)) > 1 and max(max(s) for s in sizes) > 40
    assert all(sum(s) <= 40 or len(s) == 1 for s in sizes)


def test_closure_labels_m1_chain():
    sp4 = build_sum_space("Sp4", 3)
    # the 40 Lagrangians of F_3^4, each its own resolution point
    assert closure_labels(sp4, MultiLabel((2,), (0,))) == {MultiLabel((2,), (0,)): (40, 40)}
    assert set(closure_labels(sp4, MultiLabel((2,), (2,)))) == {
        MultiLabel((2,), (0,)),
        MultiLabel((2,), (2,)),
    }
    o4 = build_sum_space("O4", 3)
    assert set(closure_labels(o4, MultiLabel((2,), (1,)))) == {
        MultiLabel((2,), (PRIME0,)),
        MultiLabel((2,), (DOUBLEPRIME0,)),
        MultiLabel((2,), (1,)),
    }
    assert set(closure_labels(o4, MultiLabel((2,), (PRIME0,)))) == {
        MultiLabel((2,), (PRIME0,))
    }


def test_closure_reflexive_and_open_dense():
    b = build_sum_space("Sp2+O2", 3)
    for k in (1, 2):
        labels = enumerate_multilabels(b, k)
        for label in labels:
            cl = set(closure_labels(b, label))
            assert label in cl
        # the open stratum (max dimension) closes up to everything
        from isograss.sumspace import orbit_dim_multi

        top = max(labels, key=lambda l: orbit_dim_multi(b, l))
        assert set(closure_labels(b, top)) == set(labels)


def test_cover_factors_selection():
    b = build_sum_space("Sp2+O2", 3)
    assert cover_factors(b, MultiLabel((1, 1), (0, 1))) == [1]
    assert cover_factors(b, MultiLabel((1, 1), (0, PRIME0))) == []
    spsp = build_sum_space("Sp2+Sp2", 3)
    assert cover_factors(spsp, MultiLabel((1, 1), (0, 0))) == []


def test_cover_points_all_symplectic_equals_tower():
    spsp = build_sum_space("Sp2+Sp2", 3)
    label = MultiLabel((1, 1), (0, 0))
    pts = _cover_points(spsp, label)
    base = tower_points(spsp, label)
    assert len(pts) == len(base)
    assert all(not qtildes for _, qtildes, _ in pts)


def _cover_points(space, label):
    """The covering tower, one point at a time: over each of the tower's
    distinct targets, every product of the choices that ``_cover_choices``
    stacks over each point of its fiber, as (tower point, Q~_i by factor,
    Q_i by factor).  Each fiber's ``cover_fiber`` size is its point count."""
    p = space.p
    factors = cover_factors(space, label)
    targets = dict.fromkeys(datum.hs[-1] for datum in flag_data(tower_points(space, label)))
    points = []
    for target in targets:
        fiber = tower_fiber(space, label, target)
        per_factor = []
        for i in factors:
            point, qtildes, qs = towers._cover_choices(space, label, i, fiber, None)
            per_factor.append([
                [(Subspace(qt, qtildes.shape[2], p), Subspace(q, qs.shape[2], p))
                 for qt, q in zip(qtildes[point == j], qs[point == j])]
                for j in range(len(fiber))
            ])
        mine = [
            (datum, tuple((i, qt) for i, (qt, _) in zip(factors, combo)),
             tuple((i, q) for i, (_, q) in zip(factors, combo)))
            for j, datum in enumerate(flag_data(fiber))
            for combo in product(*(choices[j] for choices in per_factor))
        ]
        assert cover_fiber(space, label, target)[0] == len(mine)
        points += mine
    return points


def _padded(sub, n):
    rows = np.zeros((sub.dim, n), dtype=np.int64)
    rows[:, : sub.n] = sub.basis
    return span(rows, n, sub.p)


def _cover_reference(space, label):
    """Cover points by definition: per tower point and cover factor i, every
    isotropic Q~ >= P~_i of dim k_i - floor(r_i/2) in B_i (plus a norm-1 line F
    for odd r_i), and every Q of dim k_{<i} + dim Q~ with
    P_i <= Q <= H_i (+F) cap (B_{<i} + Q~)."""
    p = space.p
    factors = cover_factors(space, label)
    walks = {}
    for i in factors:
        f, ki, ri = space.factors[i], label.ks[i], int(label.rs[i])
        extra = ri % 2
        gram = np.zeros((f.n + extra, f.n + extra), dtype=np.int64)
        gram[: f.n, : f.n] = f.gram
        gram[f.n :, f.n :] = 1
        qt_dim = ki - (ri - extra) // 2
        iso = [
            qt
            for qt in enumerate_subspaces(f.n + extra, qt_dim, p, budget=None)
            if not (qt.basis @ gram @ qt.basis.T % p).any()
        ]
        walks[i] = (extra, iso, sum(label.ks[:i]) + qt_dim)
    points = []
    for datum in flag_data(tower_points(space, label)):
        choice_lists = []
        for i in factors:
            extra, iso, q_dim = walks[i]
            n = space.n + extra
            lo, f_n = space.offsets[i], space.factors[i].n
            ptilde = _padded(datum.ptildes[i], f_n + extra)
            hi = span(
                np.vstack([_padded(datum.hs[i], n).basis, np.eye(n, dtype=np.int64)[space.n :]]),
                n,
                p,
            )
            choices = []
            for qt in (qt for qt in iso if qt.contains(ptilde)):
                rows = np.zeros((qt.dim, n), dtype=np.int64)
                rows[:, lo : lo + f_n] = qt.basis[:, :f_n]
                rows[:, space.n :] = qt.basis[:, f_n:]
                around = span(np.vstack([np.eye(n, dtype=np.int64)[:lo], rows]), n, p)
                upper = subspace_intersect(hi, around)
                pi = _padded(datum.ps[i], n)
                choices += [(qt, q) for q in subspaces_between(pi, upper, q_dim, budget=None)]
            choice_lists.append(choices)
        for combo in product(*choice_lists):
            points.append((datum, tuple((i, qt) for i, (qt, _) in zip(factors, combo)),
                           tuple((i, q) for i, (_, q) in zip(factors, combo))))
    return points


@pytest.mark.parametrize(
    "spec, text",
    [
        ("O3", "1:1"),
        ("O4", "2:1"),
        ("O4", "2:2"),
        ("O4", "3:3"),
        ("Sp2+O2", "1:0,1:1"),
        ("O2+O3", "1:1,2:1"),
        ("O2+O3", "1:1,2:2"),
        # the Q walk alone forces P~ <= Q~ unless P_i meets B_{<i} beyond
        # H_{i-1}; this label has such points, so it checks the P~ filter
        ("O2+O4", "1:0p,2:1"),
    ],
)
def test_cover_points_match_definition(spec, text):
    space = build_sum_space(spec, 3)
    label = parse_label_arg(text)
    want = Counter(_cover_reference(space, label))
    assert sum(want.values()) > 0
    assert Counter(_cover_points(space, label)) == want


@pytest.mark.parametrize("spec, text, target", [
    ("O4", "2:1", "2:2"),
    ("O2+O3", "1:1,2:1", "1:1,2:2"),
])
def test_cover_fiber_outside_the_closure_is_empty(spec, text, target):
    # the target's stratum lies outside the label's closure: the tower fiber
    # has no point, and neither has any cover factor
    space, label = build_sum_space(spec, 3), parse_label_arg(text)
    rep = canonical_representative(space, parse_label_arg(target))
    assert len(tower_fiber(space, label, rep)) == 0
    factors = cover_factors(space, label)
    assert factors
    assert cover_fiber(space, label, rep) == (0, 0, {i: 0 for i in factors})


def test_cover_fiber_o4_open():
    o4 = build_sum_space("O4", 3)
    label = MultiLabel((2,), (2,))
    rep = canonical_representative(o4, label)
    size, comps, sizes = cover_fiber(o4, label, rep)
    assert comps == 2
    assert sizes == {0: 2}
    assert size == 2
    # the fiber factor is the set of maximal isotropics of pr H / rad
    fib_space = expected_cover_fiber_space(o4, label, rep, 0)
    from isograss.paving import isotropic_subspaces

    expect = sum(1 for _ in isotropic_subspaces(fib_space, fib_space.n // 2))
    assert expect == 2


def test_cover_fiber_o3_odd_rank():
    # odd rank: the extra norm-1 line makes the fiber a two-point set when
    # the induced binary form is split; the canonical representative over
    # p = 3 needs the other square class, so scan the stratum
    o3 = build_sum_space("O3", 3)
    label = MultiLabel((1,), (1,))
    counts = []
    for h in _stratum_points(o3, label):
        size, comps, sizes = cover_fiber(o3, label, h)
        counts.append((size, comps))
    assert (2, 2) in counts  # split-type points realize both rulings
    assert all(n in (0, 2) for n, _ in counts)


def test_cover_fiber_o6_default_budget():
    # the Q~ walk is bounded by P~ (the isotropics of P~^perp / P~), not by
    # all of Gr_3(B + F), which at p = 5 is 320,327,931 subspaces
    o6 = build_sum_space("O6", 5)
    label = MultiLabel((3,), (1,))
    rep = canonical_representative(o6, label)
    size, comps, sizes = cover_fiber(o6, label, rep)
    assert (size, comps, sizes) == (2, 2, {0: 2})


def _stratum_points(space, label):
    from isograss.linalg import enumerate_subspaces

    for h in enumerate_subspaces(space.n, label.k, space.p):
        if multilabel_of(space, h) == label:
            yield h


def scalar_fiber_invariants(space, datum):
    """The definitional fiber invariants of one point, with M its target:
    per factor dim P_i cap B_{<i}, dim H_i cap B_{<i} and
    dim P_i cap (rad pr_i M + B_{<i}), one subspace_intersect each."""
    out = []
    for i, f in enumerate(space.factors):
        prefix = space.prefix_plus(i, zero_subspace(f.n, space.p))
        enlarged = space.prefix_plus(i, radical(f, space.project_factor(datum.hs[-1], i)))
        out.append((
            subspace_intersect(datum.ps[i], prefix).dim,
            subspace_intersect(datum.hs[i], prefix).dim,
            subspace_intersect(datum.ps[i], enlarged).dim,
        ))
    return tuple(out)


def test_fiber_invariants_match_scalar_oracle():
    # every (label, sub) pair whose fiber the fibers suite interpolates, on
    # the grid at p = 3, then one fiber of 1,024 points with two classes
    cases = []
    for spec in GRID_SPACES:
        space = build_sum_space(spec, 3)
        for k in range(space.n + 1):
            for label, below in closure_relation(space, k, 10**6, {}).items():
                cases += [(space, label, sub) for sub in below]
    big = build_sum_space("O2+O3", 31)
    cases.append((big, parse_label_arg("1:1,2:1"), parse_label_arg("2:2,1:0")))
    for space, label, sub in cases:
        rep = canonical_representative(space, sub)
        fiber = tower_fiber(space, label, rep)
        got = fiber_invariants(space, rep, fiber)
        assert got == [scalar_fiber_invariants(space, datum) for datum in flag_data(fiber)], (
            space, str(label), str(sub))
    assert len(fiber) == 1024 and len(set(got)) == 2
    assert len(cases) > 100


def test_fiber_invariants_cost_no_scalar_meet_per_point(monkeypatch):
    # the bounds are built once per fiber: a 1-point and a 1,024-point fiber
    # make the same radical calls (towers imports no scalar meet at all, see
    # tests/test_tooling.py)
    calls = Counter()
    real = towers.radical

    def counted(*args):
        calls["meet"] += 1
        return real(*args)

    monkeypatch.setattr(towers, "radical", counted)
    space = build_sum_space("O2+O3", 31)
    label = parse_label_arg("1:1,2:1")
    made = []
    for sub in (label, parse_label_arg("2:2,1:0")):
        rep = canonical_representative(space, sub)
        fiber = tower_fiber(space, label, rep)
        calls.clear()
        fiber_invariants(space, rep, fiber)
        made.append((len(fiber), calls["meet"]))
    assert [size for size, _ in made] == [1, 1024]
    assert made[0][1] == made[1][1] == space.m, made  # one radical per factor


def test_fiber_invariant_groups_are_paved():
    # grouping fiber points by the three chain invariants gives unions of
    # paving pieces: each group size interpolates to a polynomial with
    # nonnegative coefficients across primes
    cases = [
        ("O4", MultiLabel((2,), (1,)), MultiLabel((2,), (PRIME0,))),
        ("Sp2+O2", MultiLabel((1, 1), (0, 1)), MultiLabel((1, 1), (0, PRIME0))),
    ]
    for spec, label, sub in cases:
        groups: dict = {}
        for p in (3, 5):
            space = build_sum_space(spec, p)
            rep = canonical_representative(space, sub)
            fiber = tower_fiber(space, label, rep)
            for inv in fiber_invariants(space, rep, fiber):
                groups.setdefault(inv, {}).setdefault(p, 0)
                groups[inv][p] += 1
        for inv, sizes in groups.items():
            samples = [(p, sizes.get(p, 0)) for p in (3, 5)]
            poly = interpolate_counts(samples, 1)
            assert poly.is_nonnegative(), (spec, inv, samples)


def test_cover_fiber_component_law_small_grid():
    # component count over a split-type open-orbit point is 2^d
    from isograss.sumspace import component_group_order_multi

    cases = [
        ("O4", MultiLabel((2,), (2,))),
        ("O4", MultiLabel((1,), (1,))),
        ("O3", MultiLabel((1,), (1,))),
        ("Sp2+O2", MultiLabel((1, 1), (0, 1))),
    ]
    for spec, label in cases:
        b = build_sum_space(spec, 3)
        want = component_group_order_multi(b, label)
        best = 0
        for h in _stratum_points(b, label):
            size, comps, sizes = cover_fiber(b, label, h)
            if size:
                best = max(best, comps)
        assert best == want, (spec, str(label))
