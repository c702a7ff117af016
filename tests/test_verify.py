from collections import Counter

import numpy as np
import pytest

from isograss import _batch, bilinear, linalg
from isograss.bilinear import SKEW, SYMMETRIC, pairing, perp, standard_space
from isograss.linalg import (
    BudgetExceeded,
    enumerate_subspaces,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
)
from isograss.orbits import DOUBLEPRIME0, PRIME0
from isograss.polynomials import IntPolynomial
from isograss.sumspace import MultiLabel, build_sum_space, orbit_point_counts
from isograss import paving, towers, verify

from checks import (
    check_line,
    edit_whole_walks,
    flag_data,
    random_subspace,
    same_points,
    scalar_suite_witt,
    stack_labels,
    take_points,
    witt_parts,
    witt_split,
    witt_stack,
)


def polynomials_of(spec, k, budget=verify.DEFAULT_BUDGET):
    """The count polynomials of Gr_k of one grid space, sampled from the
    suite's default base primes on one worker."""
    plan = verify.sampling_plan(spec, build_sum_space(spec, 3), k, (3, 5, 7, 11), budget)
    spaces = {(spec, p): build_sum_space(spec, p) for p in plan.primes}
    return verify.stratum_polynomials(plan, spaces, budget, 1)


def test_stratum_polynomials_sp4():
    polys = polynomials_of("Sp4", 2)
    assert polys[MultiLabel((2,), (0,))] == IntPolynomial([1, 1, 1, 1])
    assert polys[MultiLabel((2,), (2,))] == IntPolynomial([0, 0, 1, 0, 1])


def test_stratum_polynomials_o2():
    polys = polynomials_of("O2", 1)
    assert polys[MultiLabel((1,), (PRIME0,))] == IntPolynomial([1])
    assert polys[MultiLabel((1,), (DOUBLEPRIME0,))] == IntPolynomial([1])
    assert polys[MultiLabel((1,), (1,))] == IntPolynomial([-1, 1])


def test_stratum_polynomials_partition_identity():
    # the heavier O2+O3 instance of this identity runs in the acceptance suite
    from isograss.polynomials import gaussian_binomial

    for k in (1, 2):
        polys = polynomials_of("Sp2+O2", k)
        total = IntPolynomial([])
        for poly in polys.values():
            total = total + poly
        assert total == gaussian_binomial(4, k)


def test_primes_for_degree_budget():
    with pytest.raises(BudgetExceeded):
        verify._primes_for_degree((3, 5, 7, 11), 6, (5, 2), budget=10_000)
    primes = verify._primes_for_degree((3, 5, 7, 11), 1, (4, 2), budget=10**8)
    assert primes[:4] == [3, 5, 7, 11]


def test_primes_for_degree_refuses_an_exhausted_pool():
    # no budget can buy more primes than the pool holds: a usage error, not
    # a budget refusal
    with pytest.raises(ValueError) as exc:
        verify._primes_for_degree((3, 5, 7, 11), 12, (7, 3), budget=10**40)
    assert str(exc.value) == "degree 12 needs 13 sampling primes; the pool 3..31 has 10"
    with pytest.raises(ValueError, match="^degree 10 needs 11 sampling primes"):
        verify._primes_for_degree((3, 5, 7), 10)
    # samples that walk no Grassmannian: the base primes, then the pool, and
    # one spare sample
    assert verify._primes_for_degree((3, 5, 7), 0) == [3, 5, 7, 11]
    assert verify._primes_for_degree((3, 5, 7), 4) == [3, 5, 7, 11, 13, 17]
    assert verify._primes_for_degree((3, 5, 7), 9) == list(verify.PRIME_POOL)


def test_no_budget_bounds_nothing():
    # budget=None is no bound at every budgeted entry point: each answers
    # as under the default budget
    space = build_sum_space("Sp2+O2", 3)
    label = MultiLabel((0, 2), (0, 2))
    assert orbit_point_counts(space, 2, budget=None) == orbit_point_counts(space, 2)
    assert same_points(towers.tower_points(space, label, budget=None), towers.tower_points(space, label))
    assert towers.closure_labels(space, label, budget=None) == towers.closure_labels(space, label)
    assert polynomials_of("Sp2+O2", 2, budget=None) == polynomials_of("Sp2+O2", 2)
    assert verify.suite_partition(("Sp2+O2",), budget=None) == verify.suite_partition(("Sp2+O2",))


def test_run_suite_names():
    for name in verify.SUITE_NAMES:
        res = verify.run_suite(name, specs=("Sp2",), primes=(3,))
        assert res and all(r.passed for r in res), name
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


def test_all_walks_each_resolution_once_per_run(monkeypatch):
    # towers, fibers and closure share one row per label within a run: every
    # walk job under all of B but a fiber's is a row's.  (The fiber of the
    # k = n label over all of B is a job under all of B too.)
    walks, fibers = [], []
    real_walk, real_fibers = towers._walk, towers.tower_fibers

    def counted(space, jobs, budget):
        if not fibers:
            walks.extend(label for label, ceiling in jobs if ceiling.dim == space.n)
        return real_walk(space, jobs, budget)

    def fiber_walk(*args, **kwargs):
        fibers.append(args)
        try:
            return real_fibers(*args, **kwargs)
        finally:
            fibers.pop()

    monkeypatch.setattr(towers, "_walk", counted)
    for module in (towers, verify):
        monkeypatch.setattr(module, "tower_fibers", fiber_walk)
    verify.run_suite("all", ("Sp2+O2",))
    assert len(walks) == len(set(walks)) == 15
    verify.run_suite("all", ("Sp2+O2",))
    assert len(walks) == 30


def test_closure_builds_one_space_per_spec_and_prime(monkeypatch):
    # closure_relation reads the space it is given: the suite builds each
    # (spec, prime) once, however many k it checks
    built = []
    real = verify.build_sum_space
    monkeypatch.setattr(verify, "build_sum_space", lambda spec, p: built.append((spec, p)) or real(spec, p))
    results = verify.suite_closure(("Sp2+O2", "O3"), (3,))
    assert results and all(r.passed for r in results)
    assert built == [("Sp2+O2", 3), ("O3", 3)]


def test_paving_builds_one_paving_per_space_and_flag(monkeypatch):
    # a paving serves every k of its (space, flag): one build per sampled flag
    built, sampled = [], []
    real_build, real_flags = verify.build_paving, verify._sample_flags

    def counted_build(space, flag):
        built.append((space.form_type, space.n, space.p))
        return real_build(space, flag)

    def counted_flags(space, budget):
        flags = real_flags(space, budget)
        sampled.extend([(space.form_type, space.n, space.p)] * len(flags))
        return flags

    monkeypatch.setattr(verify, "build_paving", counted_build)
    monkeypatch.setattr(verify, "_sample_flags", counted_flags)
    results = verify.suite_paving()
    assert all(r.passed for r in results)
    assert built == sampled and len(built) == 48


@pytest.mark.parametrize(
    "form,n,details",
    [
        (SKEW, 4, "k=1 piece 1.o: 27 != p^0; k=1 piece 2.1.o: 1 != p^1; "
                  "k=1 piece 2.3.o: 3 != p^2; k=1 piece 3.o: 9 != p^3"),
        # flag-major, k-minor: the first flag's k=2 failure comes before any
        # failure of the second flag
        (SYMMETRIC, 4, "k=1 piece 1.o: 9 != p^0; k=1 piece 2.1.o: 1 != p^1; "
                       "k=1 piece 3.o: 3 != p^2; k=2 piece 1.1.o: 3 != p^0"),
        (SKEW, 2, "k=1 piece 1.o: 3 != p^0; k=1 piece 3.o: 1 != p^1; "
                  "k=1 flag-len=1: invariants vary; k=1 flag-len=1: invariants vary"),
    ],
)
def test_paving_failure_details_are_frozen(monkeypatch, form, n, details):
    # each subspace sent to the next piece: the failing details, in order
    real = paving.Paving.classify

    def shifted(self, mats):
        return (real(self, mats) + 1) % len(self.pieces(mats.shape[1]))

    monkeypatch.setattr(paving.Paving, "classify", shifted)
    monkeypatch.setattr(verify, "PAVING_FORMS", ((form, n),))
    [result] = verify.suite_paving((3,))
    assert not result.passed and result.details == details


def test_degrees_builds_each_space_once(monkeypatch):
    # one SumSpace per (spec, prime) of the run, shared by every k; the
    # counts are stubbed out, since only the builds are counted here
    built = Counter()
    real = verify.build_sum_space

    def counted(spec, p):
        built[spec, p] += 1
        return real(spec, p)

    monkeypatch.setattr(verify, "build_sum_space", counted)
    monkeypatch.setattr(verify, "orbit_point_counts", lambda space, k, budget, workers: {})
    verify.suite_degrees()
    assert len(built) == 41 and set(built.values()) == {1}


def test_witt_reports_a_broken_transport(monkeypatch):
    # the transporter returns whatever it built; the suite judges it
    real = verify.transport_isometry

    def one_column_zeroed(space, a, b):
        g = real(space, a, b).copy()
        g[:, :, 0] = 0
        return g

    monkeypatch.setattr(verify, "transport_isometry", one_column_zeroed)
    [result] = verify.suite_witt(("Sp4",), (3,), 20)
    assert not result.passed and "not an isometry" in result.details


def test_witt_reports_a_broken_normal_basis(monkeypatch):
    # every normal basis of a symmetric block ends in a row scaled by a
    # "square root" of 0: its Gram misses the normal form, and the table
    # check reports it instead of an exception ending the run
    real = _batch._square_tables
    monkeypatch.setattr(_batch, "_square_tables", lambda p: (0 * real(p)[0], *real(p)[1:]))
    [result] = verify.suite_witt(("O3",), (3,), 20)
    assert not result.passed and "pairing table fails" in result.details
    assert result.details.count(";") == 3  # the first four failures


def _table_ok(space, h, parts, deltas) -> bool:
    """``verify._witt_table_ok`` of one split given as its four row stacks;
    a split of other than n rows does not fit a stack, and is refused."""
    if sum(map(len, parts)) != space.n:
        return False
    return bool(verify._witt_table_ok(space, h.basis[None], witt_stack(parts, deltas))[0])


@pytest.mark.parametrize("part", ["m2", "m4"])
def test_witt_table_refuses_rref_rows(part):
    # RREF rows span the same parts as the split's own, so only the Gram
    # identity of the table check can refuse them
    space = standard_space(SYMMETRIC, 4, 5)
    at = {"m2": 1, "m4": 3}[part]

    def refused(h):
        ws = witt_split(space, h)
        parts, deltas = list(witt_parts(ws, 0)), ws.deltas[0]
        assert _table_ok(space, h, parts, deltas)
        rows = parts[at]
        parts[at] = rref(rows, 5)
        return len(rows) and not _table_ok(space, h, parts, deltas)

    assert any(refused(h) for k in (1, 2, 3) for h in enumerate_subspaces(4, k, 5))


def _four_subspace_table_ok(space, h, parts, deltas):
    """The table check with every part rebuilt: span(m1, m2) = h,
    span(m1, m3) = h^perp and span(m1) = h cap h^perp, then the Gram
    identity.  The reference for the derived check in verify."""
    n, p = space.n, space.p
    stacked = np.vstack(parts)
    if stacked.shape[0] != n:
        return False
    m1, m2, m3 = (span(rows, n, p) for rows in parts[:3])
    if subspace_sum(m1, m2) != h:
        return False
    hperp = perp(space, h)
    if subspace_sum(m1, m3) != hperp or m1 != subspace_intersect(h, hperp):
        return False
    return np.array_equal(pairing(space, stacked, stacked), witt_stack(parts, deltas).normal_forms(space)[0])


WITT_FORMS = [(SKEW, n) for n in (2, 4, 6)] + [(SYMMETRIC, n) for n in range(1, 7)]


def _mutated(parts, deltas, rng, p):
    """The split's parts with 0-2 random row edits, swaps or scalings of its
    stacked rows (each part keeps its length) and, one time in ten each,
    random deltas and the last row of one part dropped."""
    parts = list(parts)
    if rng.random() < 0.1:
        i = int(rng.integers(4))
        parts[i] = parts[i][:-1]
    rows = np.vstack(parts)
    for _ in range(int(rng.integers(0, 3)) if len(rows) else 0):
        i, j = (int(x) for x in rng.integers(0, len(rows), size=2))
        c = int(rng.integers(1, p))
        kind = int(rng.integers(3))
        if kind == 0:
            rows[i] = (rows[i] + c * rows[j]) % p
        elif kind == 1:
            rows[[i, j]] = rows[[j, i]]
        else:
            rows[i] = rows[i] * c % p
    parts = np.split(rows, np.cumsum([len(part) for part in parts])[:-1])
    if rng.random() < 0.1:
        deltas = tuple(int(d) for d in rng.integers(1, p, size=2))
    return parts, deltas


def test_witt_table_check_agrees_with_the_four_subspace_check():
    # the Gram identity and span(m1, m2) = h fix rad h and h^perp, so the
    # check without them gives the same verdict on any split
    rng = np.random.default_rng(20240817)
    verdicts = Counter()
    while sum(verdicts.values()) < 5000:
        for form, n in WITT_FORMS:
            for p in (3, 5, 7):
                space = standard_space(form, n, p)
                h = random_subspace(n, int(rng.integers(0, n + 1)), p, rng)
                ws = witt_split(space, h)
                for _ in range(3):
                    parts, deltas = _mutated(witt_parts(ws, 0), tuple(ws.deltas[0].tolist()), rng, p)
                    ok = _table_ok(space, h, parts, deltas)
                    assert ok == _four_subspace_table_ok(space, h, parts, deltas), (form, n, p, h, parts)
                    verdicts[ok] += 1
    assert verdicts[True] and verdicts[False]


def _named_mutations(parts, deltas, h, rng, p):
    """(name, parts, deltas, subspace to check them against) for each named
    mutation whose parts are not empty."""
    m1, m2, m3, m4 = parts
    if len(m1) and len(m3):
        bent = m1.copy()
        bent[0] = (bent[0] + m3[0]) % p
        yield "m3 row added to an m1 row", (bent, m2, m3, m4), deltas, h
    if len(m2) and len(m3):
        # with the deltas swapped too, the Gram identity holds: only the sum refuses
        yield "m2 and m3 swapped", (m1, m3, m2, m4), deltas[::-1], h
    if len(m4):
        bent = m4.copy()
        bent[0] = 2 * bent[0] % p
        yield "one m4 row doubled", (m1, m2, m3, bent), deltas, h
    if 0 < h.dim < h.n:
        other = h
        while other == h:
            other = random_subspace(h.n, h.dim, p, rng)
        yield "another subspace of the same dimension", parts, deltas, other


def test_witt_table_refuses_named_mutations():
    rng = np.random.default_rng(5)
    refused = Counter()
    for form, n in WITT_FORMS:
        for p in (3, 5, 7):
            space = standard_space(form, n, p)
            for k in range(n + 1):
                for _ in range(2):
                    h = random_subspace(n, k, p, rng)
                    ws = witt_split(space, h)
                    mutations = _named_mutations(witt_parts(ws, 0), tuple(ws.deltas[0].tolist()), h, rng, p)
                    for name, parts, deltas, against in mutations:
                        assert not _table_ok(space, against, parts, deltas), (name, h)
                        refused[name] += 1
    assert len(refused) == 4 and min(refused.values()) >= 10, refused


def test_witt_decomposes_once_per_stack(monkeypatch):
    # each round decomposes one stack per dimension drawn, and neither the
    # decompose, the table check nor the transport builds a scalar perp,
    # radical, span or sum
    calls, stacks, rounds = Counter(), [], []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((bilinear, "perp"), (bilinear, "radical"), (bilinear, "span"),
                         (linalg, "subspace_sum"), (linalg, "span")):
        count(module, name)
    real_decompose, real_round = verify.witt_decompose, verify._witt_round

    def decompose(space, bases):
        stacks.append(bases.shape)
        return real_decompose(space, bases)

    def one_round(space, padded, dims, buckets, fails):
        rounds.append(sorted(set(dims.tolist())))
        return real_round(space, padded, dims, buckets, fails)

    monkeypatch.setattr(verify, "witt_decompose", decompose)
    monkeypatch.setattr(verify, "_witt_round", one_round)
    results = verify.suite_witt(("Sp4", "O3"), (3,), 20, seed=1)
    assert all(r.passed for r in results)
    assert [k for _, k, _ in stacks] == [k for dims in rounds for k in dims]
    assert sum(n_items for n_items, _, _ in stacks) >= 40
    assert not calls, calls


def test_draw_gives_uniform_rref_bases_of_their_dims(monkeypatch):
    # each item is the RREF basis of a subspace of its dim, zero below it,
    # and each round draws again exactly the items the last left short of
    # full rank, keeping their dims
    ranks = []
    real_rank = verify.batch_rank
    monkeypatch.setattr(verify, "batch_rank", lambda mats, p: ranks.append(real_rank(mats, p)) or ranks[-1])
    rng = np.random.default_rng(3)
    rounds = []
    for n, p in ((0, 3), (1, 3), (3, 3), (4, 5), (5, 3)):
        ranks.clear()
        padded, dims = verify._draw(n, p, 300, rng)
        assert padded.shape == (300, n, n) and set(dims.tolist()) == set(range(n + 1))
        for basis, k in zip(padded, dims.tolist()):
            assert not basis[k:].any() and np.array_equal(rref(basis, p), basis[:k])
        todo = np.arange(300)
        for got in ranks:
            assert len(got) == len(todo)
            todo = todo[got < dims[todo]]
        assert not todo.size
        rounds.append(len(ranks))
    assert max(rounds) > 1
    # the law is uniform on each Gr_k: the 13 lines and the 13 planes of
    # F_3^3 are hit evenly
    padded, dims = verify._draw(3, 3, 30000, np.random.default_rng(4))
    for k in (1, 2):
        hits = Counter(map(bytes, padded[dims == k, :k].reshape(-1, 3 * k).astype(np.int8)))
        assert len(hits) == 13 and max(hits.values()) < 1.3 * min(hits.values()), hits


def test_stacked_witt_suite_keeps_the_scalar_results_and_draws(monkeypatch):
    # the same CheckResults as the loop of one draw at a time, and the
    # generator in the same state after each ambient space
    made = []
    real_rng = np.random.default_rng

    def recorded_rng(seed):
        made.append(real_rng(seed))
        return made[-1]

    states = []
    real_spaces = verify._transport_spaces

    def spaces(spec, p):
        for amb in real_spaces(spec, p):
            yield amb
            states.append(made[-1].bit_generator.state)

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    monkeypatch.setattr(verify, "_transport_spaces", spaces)
    for seed in (1, 20240817):
        stacked = verify.suite_witt(verify.GRID_SPACES, (3, 5), 60, seed=seed)
        stacked_states, states[:] = states[:], []
        scalar = scalar_suite_witt(verify.GRID_SPACES, (3, 5), 60, seed)
        assert stacked == scalar and all(r.passed for r in stacked)
        assert stacked_states == states
        assert len(states) == sum(len(real_spaces(spec, p)) for spec in verify.GRID_SPACES for p in (3, 5))
        states.clear()


def test_fiber_polynomiality_names_the_pair(monkeypatch):
    # one fiber count off the polynomial fails the check, and the failure
    # names the resolution label and the stratum it lies over
    real = verify.tower_fibers

    def off_at_3(space, jobs, budget):
        return [take_points(fiber, [*range(len(fiber)), *range(len(fiber))[: space.p == 3]])
                for fiber in real(space, jobs, budget=budget)]

    monkeypatch.setattr(verify, "tower_fibers", off_at_3)
    [result] = verify._fiber_polynomiality("Sp2", (3, 5, 7), verify.DEFAULT_BUDGET, None, {})
    line = MultiLabel((1,), (0,))
    assert not result.passed and f"{line} over {line}: " in result.details


def test_towers_checks_the_tower_degree(monkeypatch):
    # a resolution one Grassmannian layer too big no longer has its
    # stratum's dimension: the failure names the label
    real = towers.resolution_tower

    def one_layer_more(space, label):
        tower = real(space, label)
        extra = towers.TowerLayer("grassmannian", (2, 1), verify.gaussian_binomial(2, 1))
        return towers.TowerDescriptor(tower.layers + (extra,))

    monkeypatch.setattr(towers, "resolution_tower", one_layer_more)
    [result] = verify.suite_towers(("Sp2",), (3,), only_k=1)
    label = MultiLabel((1,), (0,))
    assert not result.passed and f"{label}: tower degree 2 != orbit dim 1" in result.details


def test_towers_checks_poincare_duality(monkeypatch):
    # an isotropic Grassmannian counted q + 2 breaks the palindromic law of
    # every tower it is a layer of
    real = towers.iso_grassmannian_count

    def skewed(form_type, n, k):
        return IntPolynomial([2, 1]) if k == 1 else real(form_type, n, k)

    monkeypatch.setattr(towers, "iso_grassmannian_count", skewed)
    [result] = verify.suite_towers(("Sp2",), (3,))
    label = MultiLabel((1,), (0,))
    assert not result.passed
    assert f"{label}: tower polynomial q + 2 not palindromic" in result.details


def test_fiber_polynomiality_builds_no_tower(monkeypatch):
    # the fit's degree bound reads the stratum dimension, not a tower: the
    # only towers built are those of the closure rows, one per label at p = 3
    built = []
    real = towers.resolution_tower
    monkeypatch.setattr(towers, "resolution_tower", lambda space, label: built.append(
        (space.p, label)) or real(space, label))
    results = verify.suite_fibers(("Sp2+O2",), (3, 5, 7))
    assert results and all(r.passed for r in results)
    assert len(built) == len(set(built)) == 15 and {p for p, _ in built} == {3}


def test_bijectivity_counts_the_whole_open_stratum(monkeypatch):
    # a walk that misses one open-stratum point still hits each of its
    # targets once, so bijectivity sees the loss only in the stratum's size
    def dropped(space, label, points):
        labels = stack_labels(space, [datum.hs[-1] for datum in flag_data(points)])
        return take_points(points, [j for j in range(len(points)) if j != labels.index(label)])

    monkeypatch.setattr(towers, "_walk", edit_whole_walks(towers._walk, dropped))
    [result] = verify._fiber_bijectivity("O2", 3, verify.DEFAULT_BUDGET, None, {})
    # split O2 over F_3 has 4 lines, 2 of them isotropic
    open_line = MultiLabel((1,), (1,))
    assert not result.passed
    assert f"{open_line}: 1 open-stratum targets != stratum size 2" in result.details
    assert "points over" not in result.details


def test_degrees_reports_a_count_off_its_polynomial(monkeypatch):
    # one count moved off its polynomial at p = 5, with the total kept, fails
    # the fit and the failure names the spec, k and label
    real = verify.orbit_point_counts
    moved, top = MultiLabel((1,), (PRIME0,)), MultiLabel((1,), (1,))

    def off_at_5(space, k, budget, workers):
        counts = real(space, k, budget=budget, workers=workers)
        if space.p == 5:
            counts[moved] += 1
            counts[top] -= 1
        return counts

    monkeypatch.setattr(verify, "orbit_point_counts", off_at_5)
    [result] = verify.suite_degrees(("O2",), only_k=1)
    assert not result.passed and f"O2 k=1 {moved}: " in result.details


def test_degrees_reports_a_count_outside_the_labels(monkeypatch):
    # one open-stratum point moved at p = 5 onto a label that no stratum has:
    # the totals still match, and the derived open-stratum polynomial misses
    real = verify.orbit_point_counts
    top, stray = MultiLabel((1,), (1,)), MultiLabel((1,), (2,))

    def strayed(space, k, budget, workers):
        counts = real(space, k, budget=budget, workers=workers)
        if space.p == 5:
            counts[top] -= 1
            counts[stray] = 1
        return counts

    monkeypatch.setattr(verify, "orbit_point_counts", strayed)
    [result] = verify.suite_degrees(("O2",), only_k=1)
    assert not result.passed
    assert f"O2 k=1 {top}: derived polynomial misses the count at p=5" in result.details


def test_degrees_reports_a_lost_open_stratum_point(monkeypatch):
    # one open-stratum point lost at p = 5 and no label gaining it: the
    # derived polynomial misses that count, and the failure carries its repro
    real = verify.orbit_point_counts
    top = MultiLabel((1,), (1,))

    def lost(space, k, budget, workers):
        counts = real(space, k, budget=budget, workers=workers)
        if space.p == 5:
            counts[top] -= 1
        return counts

    monkeypatch.setattr(verify, "orbit_point_counts", lost)
    [result] = verify.suite_degrees(("O2",), only_k=1)
    assert not result.passed
    assert result.details == f"O2 k=1 {top}: derived polynomial misses the count at p=5"
    assert result.repro == "isograss verify --space O2 --k 1 --suite degrees"


def test_partition_reports_a_missing_stratum(monkeypatch):
    # orbit_point_counts has a key only for a stratum it found points in, so
    # an empty stratum is a missing label
    real = verify.orbit_point_counts

    def dropped(space, k, budget, workers):
        counts = real(space, k, budget=budget, workers=workers)
        del counts[MultiLabel((1,), (PRIME0,))]
        return counts

    monkeypatch.setattr(verify, "orbit_point_counts", dropped)
    [result] = verify.suite_partition(("O2",), (3,), only_k=1)
    assert not result.passed
    assert result.details == "k=1: label sets differ; k=1: 3 != 4"


def test_failed_checks_keep_four_failures(monkeypatch):
    # partition used to join every failure: now each suite keeps the first four
    monkeypatch.setattr(verify, "orbit_point_counts", lambda space, k, budget, workers: {})
    [result] = verify.suite_partition(("O3",), (3,))
    assert not result.passed
    assert result.details == "k=0: label sets differ; k=0: 0 != 1; k=1: label sets differ; k=1: 0 != 13"


def test_check_result_line():
    ok = verify.CheckResult("thing", True)
    bad = verify.CheckResult("thing", False, "broken")
    assert check_line(ok).startswith("PASS")
    assert "broken" in check_line(bad)


@pytest.mark.parametrize("spec", ["O4", "O2+O3"])
def test_cover_walks_are_sized_before_the_first(monkeypatch, spec):
    # the cover-components check sizes every label's P~, Q~ and count walks
    # up front: a budget just below the largest walk refuses before any
    sizes, walked = [], []
    real_bases, real_cover, real_count = towers.isotropic_bases, verify.cover_fiber, verify.isotropic_subspaces

    def bases(space, k, budget):
        sizes.append(linalg.subspace_total(space.n, k, space.p))
        return real_bases(space, k, budget=budget)

    def count(space, k, budget):
        sizes.append(linalg.subspace_total(space.n, k, space.p))
        walked.append(space)
        return real_count(space, k, budget=budget)

    monkeypatch.setattr(towers, "isotropic_bases", bases)
    monkeypatch.setattr(verify, "isotropic_subspaces", count)
    monkeypatch.setattr(verify, "cover_fiber", lambda *a, **kw: walked.append(a) or real_cover(*a, **kw))
    assert verify._cover_components(spec, None)[0].passed
    assert walked and len(set(sizes)) > 1
    walked.clear()
    with pytest.raises(BudgetExceeded) as refused:
        verify._cover_components(spec, max(sizes) - 1)
    assert refused.value.estimate == max(sizes)
    assert walked == []
