import os
import pickle
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from checks import flag_data, random_subspace, stack_labels

from isograss import _batch, sumspace
from isograss.bilinear import SKEW, SYMMETRIC, BilinearSpace, standard_space
from isograss.linalg import (
    _SMALL_PRIMES,
    enumerate_subspaces,
    rank_mod,
    span,
    subspace_intersect,
    subspace_total,
    zero_subspace,
)
from isograss.orbits import DOUBLEPRIME0, PRIME0
from isograss.paving import build_paving, isotropic_bases
from isograss.polynomials import gaussian_binomial, interpolate_counts
from isograss.sumspace import (
    MultiLabel,
    SpecParseError,
    SumSpace,
    build_sum_space,
    canonical_representative,
    component_group_order_multi,
    enumerate_multilabels,
    format_space_spec,
    multilabel_of,
    orbit_dim_multi,
    orbit_point_counts,
    parse_space_spec,
    slice_weights,
    stack_multilabels,
)
from isograss.towers import tower_points
from isograss.verify import GRID_SPACES


def test_parse_space_spec():
    assert parse_space_spec("Sp2+O3+O4") == [(SKEW, 2), (SYMMETRIC, 3), (SYMMETRIC, 4)]
    assert format_space_spec(parse_space_spec("Sp4")) == "Sp4"
    assert format_space_spec(parse_space_spec("O2+Sp2")) == "O2+Sp2"
    for bad, pos in (("Sp3", 0), ("X4", 0), ("Sp2+", 4), ("+O2", 0), ("Sp2 O2", 3), ("", 0)):
        with pytest.raises(SpecParseError) as exc:
            parse_space_spec(bad)
        assert exc.value.pos == pos


def test_sum_space_layout():
    b = build_sum_space("Sp2+O2", 3)
    assert b.n == 4 and b.dims == (2, 2) and b.offsets == (0, 2, 4)
    assert (b.gram[:2, 2:] == 0).all()


def test_sum_space_refuses_dimensions_above_16():
    # _batch packs labels into int64 only up to n = 16: past it, 24 O1
    # factors were labelled wrongly without any error
    o1 = standard_space(SYMMETRIC, 1, 3)
    with pytest.raises(ValueError, match=r"^space dimension n=17 is above the bound n <= 16$"):
        SumSpace([o1] * 17)
    assert SumSpace([o1] * 16).n == 16
    assert build_sum_space("O16", 997).n == build_sum_space("Sp16", 997).n == 16
    with pytest.raises(ValueError, match="n=18"):
        build_sum_space("Sp18", 3)


@pytest.mark.parametrize("p", [3, 5])
def test_prefix_plus_is_the_span_of_its_rows(p):
    b = build_sum_space("Sp2+O3", p)
    rng = np.random.default_rng(p)
    for i, n_i in enumerate(b.dims):
        lo = b.offsets[i]
        for d in range(n_i + 1):
            h = random_subspace(n_i, d, p, rng)
            rows = np.zeros((lo + d, b.n), dtype=np.int64)
            rows[:lo, :lo] = np.eye(lo, dtype=np.int64)
            rows[lo:, lo : lo + n_i] = h.basis
            assert b.prefix_plus(i, h) == span(rows, b.n, p)


def test_enumerate_multilabels_examples():
    b = build_sum_space("Sp2+O2", 3)
    labels = enumerate_multilabels(b, 1)
    assert len(labels) == 4
    assert MultiLabel((0, 1), (0, PRIME0)) in labels
    assert MultiLabel((0, 1), (0, DOUBLEPRIME0)) in labels
    assert MultiLabel((0, 1), (0, 1)) in labels
    assert MultiLabel((1, 0), (0, 0)) in labels

    assert enumerate_multilabels(build_sum_space("Sp2", 3), 1) == [
        MultiLabel((1,), (0,))
    ]
    assert enumerate_multilabels(build_sum_space("O1+O1", 3), 2) == [
        MultiLabel((1, 1), (1, 1))
    ]


def test_project_factor_examples():
    p = 3
    b = build_sum_space("Sp2+O2", p)
    h = span([[1, 0, 0, 0], [0, 0, 1, 0]], 4, p)
    pr0 = b.project_factor(h, 0)
    pr1 = b.project_factor(h, 1)
    assert pr0 == span([[1, 0]], 2, p)
    assert pr1 == span([[1, 0]], 2, p)

    inside_first = span([[1, 1, 0, 0]], 4, p)
    assert b.project_factor(inside_first, 1).dim == 0

    diag = span([[1, 0, 1, 0]], 4, p)
    assert b.project_factor(diag, 0).dim == 0
    assert b.project_factor(diag, 1) == span([[1, 0]], 2, p)


def test_project_factor_dimension_identity_exhaustive():
    # sum over blocks of dim pr_i h telescopes to dim h
    p, n = 3, 4
    b = build_sum_space("Sp2+O2", p)
    for k in range(n + 1):
        for h in enumerate_subspaces(n, k, p):
            total = sum(b.project_factor(h, i).dim for i in range(2))
            assert total == h.dim


def test_multilabel_of_examples():
    b = build_sum_space("Sp2+O2", 3)
    # block-diagonal: labels are the per-factor labels
    h = span([[1, 0, 0, 0], [0, 0, 1, 0]], 4, 3)
    assert multilabel_of(b, h) == MultiLabel((1, 1), (0, PRIME0))
    # graph subspace: h cap B_1 = 0, projection is the witness line
    diag = span([[1, 0, 1, 0]], 4, 3)
    assert multilabel_of(b, diag) == MultiLabel((0, 1), (0, PRIME0))
    assert multilabel_of(b, zero_subspace(4, 3)) == MultiLabel((0, 0), (0, 0))


def test_orbit_dim_multi_examples():
    b = build_sum_space("Sp2+O2", 3)
    assert orbit_dim_multi(b, MultiLabel((0, 1), (0, 1))) == 3
    assert orbit_dim_multi(b, MultiLabel((1, 0), (0, 0))) == 1
    assert orbit_dim_multi(b, MultiLabel((0, 1), (0, PRIME0))) == 2
    o1o1 = build_sum_space("O1+O1", 3)
    assert orbit_dim_multi(o1o1, MultiLabel((1, 1), (1, 1))) == 0
    # m = 1 reduces to the single-factor dimension
    sp4 = build_sum_space("Sp4", 3)
    assert orbit_dim_multi(sp4, MultiLabel((2,), (0,))) == 3


def test_component_group_order_multi():
    spsp = build_sum_space("Sp2+Sp2", 3)
    for lab in enumerate_multilabels(spsp, 2):
        assert component_group_order_multi(spsp, lab) == 1
    o4o3 = build_sum_space("O4+O3", 3)
    assert component_group_order_multi(o4o3, MultiLabel((2, 1), (2, 1))) == 4
    assert component_group_order_multi(o4o3, MultiLabel((2, 1), (PRIME0, 0))) == 1


def test_slice_weights():
    sp4 = build_sum_space("Sp4", 3)
    rep = slice_weights(sp4, MultiLabel((2,), (0,)), [0])
    assert [(w.block, w.sub_block, w.weight) for w in rep.weights] == [((0, 0), "c", 2)]
    assert rep.min_weight() == 2

    b = build_sum_space("Sp2+O2", 3)
    lab = MultiLabel((1, 1), (0, 1))
    rep = slice_weights(b, lab, [0, 1])
    by_key = {(w.block, w.sub_block): w.weight for w in rep.weights}
    assert by_key[((0, 1), "b")] == 1
    assert by_key[((0, 1), "c")] == 3
    assert rep.min_weight() == 1

    with pytest.raises(ValueError):
        slice_weights(b, lab, [0, 0])
    with pytest.raises(ValueError):
        slice_weights(b, lab, [2, 1])


def test_slice_dims_fill_the_normal_space():
    # the slice is transverse to the orbit: its blocks add up to the
    # codimension k(n - k) - dim of the orbit, for every label
    for spec in GRID_SPACES + ("O4+O3", "Sp4+O2+Sp2"):
        space = build_sum_space(spec, 3)
        for k in range(space.n + 1):
            for lab in enumerate_multilabels(space, k):
                rep = slice_weights(space, lab, range(space.m))
                codim = k * (space.n - k) - orbit_dim_multi(space, lab)
                assert sum(w.dim for w in rep.weights) == codim, (spec, str(lab))


def test_orbit_point_counts_sp2_o2():
    b = build_sum_space("Sp2+O2", 3)
    counts = orbit_point_counts(b, 1)
    expect = {
        MultiLabel((1, 0), (0, 0)): 4,
        MultiLabel((0, 1), (0, PRIME0)): 9,
        MultiLabel((0, 1), (0, DOUBLEPRIME0)): 9,
        MultiLabel((0, 1), (0, 1)): 18,
    }
    assert counts == expect
    assert sum(counts.values()) == 40 == gaussian_binomial(4, 1)(3)


def test_orbit_points_multi_edge_cases():
    b = build_sum_space("Sp2+O2", 3)
    # a label outside the valid set counts zero
    assert orbit_point_counts(b, 1).get(MultiLabel((1, 0), (1, 0)), 0) == 0
    counts = orbit_point_counts(b, 0)
    assert counts == {MultiLabel((0, 0), (0, 0)): 1}


def test_partition_multi_small():
    for spec in ("Sp2+O2", "Sp2+Sp2", "O2+O3"):
        for p in (3, 5):
            b = build_sum_space(spec, p)
            for k in range(b.n + 1):
                counts = orbit_point_counts(b, k)
                labels = enumerate_multilabels(b, k)
                assert set(counts) == set(labels)
                assert all(c > 0 for c in counts.values())
                assert sum(counts.values()) == gaussian_binomial(b.n, k)(p)


def test_partition_multi_dimension_six():
    for spec in ("Sp2+O4", "Sp4+Sp2", "O3+O3", "O1+O2"):
        b = build_sum_space(spec, 3)
        for k in range(b.n + 1):
            counts = orbit_point_counts(b, k)
            assert set(counts) == set(enumerate_multilabels(b, k))
            assert sum(counts.values()) == gaussian_binomial(b.n, k)(3)


def test_batched_multilabels_agree_with_scalar():
    for spec in ("Sp2+O2", "O2+O3"):
        b = build_sum_space(spec, 3)
        for k in (1, 2):
            scalar: dict = {}
            for h in enumerate_subspaces(b.n, k, 3):
                lab = multilabel_of(b, h)
                scalar[lab] = scalar.get(lab, 0) + 1
            assert scalar == orbit_point_counts(b, k)


def test_bundle_law():
    # orbit count = p^{sum_{i<j} k_j (n_i - k_i)} * prod stratum counts
    for spec, p in (("Sp2+O2", 3), ("O2+O3", 3), ("Sp2+Sp2", 5)):
        b = build_sum_space(spec, p)
        for k in range(b.n + 1):
            counts = orbit_point_counts(b, k)
            for lab, c in counts.items():
                fiber = 1
                for j in range(b.m):
                    for i in range(j):
                        fiber *= p ** (lab.ks[j] * (b.dims[i] - lab.ks[i]))
                prod = 1
                for i, f in enumerate(b.factors):
                    one = MultiLabel((lab.ks[i],), (lab.rs[i],))
                    prod *= orbit_point_counts(SumSpace((f,)), lab.ks[i]).get(one, 0)
                assert c == fiber * prod, (spec, p, k, str(lab))


def test_degree_law_multi_small():
    primes = (3, 5, 7, 11, 13)
    spaces = {p: build_sum_space("Sp2+O2", p) for p in primes}
    for k in range(5):
        all_counts = {p: orbit_point_counts(spaces[p], k) for p in primes}
        for lab in enumerate_multilabels(spaces[3], k):
            d = orbit_dim_multi(spaces[3], lab)
            samples = [(p, all_counts[p].get(lab, 0)) for p in primes]
            if d == 0:
                assert all(c == 1 for _, c in samples)
                continue
            poly = interpolate_counts(samples[: d + 2], d, require_nonnegative=False)
            assert poly.degree == d, (str(lab), poly)
            for p, c in samples:
                assert poly(p) == c


def test_chunked_counts_merge():
    # slices of the counting walk merge by summing counts
    b = build_sum_space("Sp2+O2", 3)
    total = subspace_total(4, 2, 3)
    merged: dict = {}
    for start in range(0, total, 37):
        for lab, c in _batch_labels(b, 2, start, min(start + 37, total), 1 << 16).items():
            merged[lab] = merged.get(lab, 0) + c
    assert merged == orbit_point_counts(b, 2)


def test_workers_match_serial(monkeypatch):
    # the serial count caches each factor's terms, and a pickled space, as
    # the pool sends it, carries them
    monkeypatch.setattr(sumspace, "_COUNTS_CACHE", {})
    b = build_sum_space("O2+O3", 7)
    serial = orbit_point_counts(b, 2)
    for f, copy in zip(b.factors, pickle.loads(pickle.dumps(b)).factors):
        assert "terms" in vars(copy)
        assert all(np.array_equal(x, y) for x, y in zip(f.terms, copy.terms))
    sumspace._COUNTS_CACHE.clear()
    parallel = orbit_point_counts(b, 2, workers=2)
    assert serial == parallel


def test_form_terms_are_built_once_per_space(monkeypatch):
    # counts, classifier calls, isotropic walks and paving classifies all
    # read the terms each factor built on first use
    built = []
    real = _batch.form_terms
    monkeypatch.setattr(_batch, "form_terms", lambda g, p: built.append(len(g)) or real(g, p))
    space = build_sum_space("Sp2+O3", 3)
    for k in range(space.n + 1):
        _batch.classify_counts(space, k)
    rows = np.stack([h.basis for h in enumerate_subspaces(5, 2, 3, budget=None)])
    _batch.classify_batch(space, rows)
    for f in space.factors:
        for k in range(f.n // 2 + 1):
            build_paving(f).classify(isotropic_bases(f, k, budget=None))
    assert sorted(built) == [2, 3]


@pytest.mark.parametrize("m", [7, 8])
def test_many_factor_counts(m):
    # a line of O1+...+O1 lies in B_{<=j} but not B_{<j} for its last nonzero
    # coordinate j, which leaves 3^j choices for the coordinates before it
    b = build_sum_space("+".join(["O1"] * m), 3)
    counts = orbit_point_counts(b, 1)
    assert set(counts) == set(enumerate_multilabels(b, 1))
    assert sum(counts.values()) == gaussian_binomial(m, 1)(3)
    for lab, c in counts.items():
        assert c == 3 ** lab.ks.index(1)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs jobs inline."""

    seen: list = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize("cpus,workers,pool", [(2, 64, 2), (8, 3, 3), (1, 4, None)])
def test_pool_size_capped(monkeypatch, cpus, workers, pool):
    monkeypatch.setattr(sumspace, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlineExecutor, "seen", [])
    monkeypatch.setattr(sumspace, "_COUNTS_CACHE", {})  # a cached count skips the pool
    b = build_sum_space("O2+O3", 7)
    got = orbit_point_counts(b, 2, workers=workers)
    assert _InlineExecutor.seen == ([] if pool is None else [pool])
    # 140,050 subspaces, at least the 1 << 17 that take the pool path
    assert sum(got.values()) == subspace_total(5, 2, 7) == 140_050


@st.composite
def _batch_cases(draw):
    specs, room = [], 8
    for _ in range(draw(st.integers(1, 8))):
        fits = [f for f in ("Sp2", "Sp4", "O1", "O2", "O3", "O4", "O6") if int(f[-1]) <= room]
        if not fits:
            break
        specs.append(draw(st.sampled_from(fits)))
        room -= int(specs[-1][-1])
    p = draw(st.sampled_from(sorted(_SMALL_PRIMES)))
    space = build_sum_space("+".join(specs), p)
    k = draw(st.integers(0, space.n))
    total = subspace_total(space.n, k, p)
    start = draw(st.integers(0, total - 1))
    stop = min(total, start + draw(st.integers(1, 200)))
    chunk = draw(st.integers(1, 256))
    return space, k, start, stop, chunk


def _batch_labels(space, k, start, stop, chunk):
    counts = _batch.classify_counts(space, k, start=start, stop=stop, chunk=chunk)
    return {MultiLabel(tuple(ki for ki, _ in key), tuple(r for _, r in key)): c
            for key, c in counts.items()}


def _scalar_labels(space, k, start, stop):
    # a slice of the counting walk covers the column-reversed images of the
    # same slice of the walk's RREF matrices
    n, p = space.n, space.p
    return Counter(
        multilabel_of(space, span(mat[:, ::-1], n, p))
        for pattern, lo, hi in _batch.iter_chunks(n, k, p, start, stop, 1 << 14)
        for mat in _batch.pattern_matrices(n, k, p, pattern, lo, hi)
    )


@settings(max_examples=25, deadline=None)
@given(_batch_cases())
def test_batch_matches_scalar(case):
    space, k, start, stop, chunk = case
    assert _batch_labels(space, k, start, stop, chunk) == _scalar_labels(space, k, start, stop)


# Full walks through the split witness of O4: at chunk 1 no row or every
# row of a chunk needs the witness rank, at 7 and 1 << 16 only some do.
@pytest.mark.parametrize(
    "spec,p,k",
    [("O4", p, k) for p in (3, 5) for k in range(5)]
    + [(spec, 3, k) for spec in ("O2+O4", "O4+O2") for k in (2, 3)],
)
def test_batch_matches_scalar_full_walk(spec, p, k):
    space = build_sum_space(spec, p)
    total = subspace_total(space.n, k, p)
    scalar = _scalar_labels(space, k, 0, total)
    for chunk in (1, 7, 1 << 16):
        assert _batch_labels(space, k, 0, total, chunk) == scalar, chunk


# k = 5, 6 of Sp2+Sp2+O3 reach the 3 x 3 Gram of O3; its k = 3, 4 walks are
# the largest and add no case
@pytest.mark.parametrize(
    "spec,ks,chunk",
    [("O4", range(5), 5), ("O2+O4", range(7), 61), ("Sp2+Sp2+O3", (0, 1, 2, 5, 6, 7), 1 << 12)],
)
def test_walk_matches_classify_batch_per_chunk(spec, ks, chunk):
    # no oracle: each chunk of the elimination-free walk tallies the same
    # codes as the general classifier on that chunk's reversed pattern stack
    space = build_sum_space(spec, 3)
    n = space.n
    for k in ks:
        pos = 0
        for pattern, lo, hi in _batch.iter_chunks(n, k, 3, 0, subspace_total(n, k, 3), chunk):
            rev = _batch.pattern_matrices(n, k, 3, pattern, lo, hi)[:, :, ::-1]
            codes = _batch.classify_batch(space, rev)
            want = Counter(_batch.decode(space.dims, c) for c in codes)
            assert _batch.classify_counts(space, k, pos, pos + hi - lo) == want, (k, pattern, lo)
            pos += hi - lo


def test_walk_skips_elimination(monkeypatch):
    # Sp2+O3 needs no witness rank, and its only Grams with k_i >= 3 are
    # those of all of O3, which are nonsingular
    def refuse(a, p):
        raise AssertionError("batch_rank called")

    monkeypatch.setattr(_batch, "batch_rank", refuse)
    for k in (2, 3):
        counts = _batch.classify_counts(build_sum_space("Sp2+O3", 5), k)
        assert sum(counts.values()) == gaussian_binomial(5, k)(5)


@pytest.mark.parametrize("p", [3, 997])
def test_meet_dims_matches_subspace_intersect(p):
    # k-dimensional row spaces X, some padded with zero rows, against row
    # spaces Y of every dimension, the empty one included, and an empty stack
    rng = np.random.default_rng(p)
    n = 6
    for k in range(n + 1):
        xs = [random_subspace(n, k, p, rng) for _ in range(8)]
        mats = np.zeros((len(xs), k + 2, n), dtype=np.int64)
        for x, mat in zip(xs, mats):
            rows = rng.permutation(k + 2)[:k]  # zero rows interleaved
            mat[rows] = x.basis
        for d in range(n + 1):
            y = random_subspace(n, d, p, rng)
            got = _batch.meet_dims(mats, k, y.basis, p)
            assert got.tolist() == [subspace_intersect(x, y).dim for x in xs], (k, d)
            assert _batch.meet_dims(mats[:0], k, y.basis, p).shape == (0,)
    # a meet with the zero space, and with one X per item of the stack
    x = random_subspace(n, 3, p, rng)
    assert _batch.meet_dims(x.basis[None], 3, np.zeros((0, n), dtype=np.int64), p).tolist() == [0]
    assert _batch.meet_dims(x.basis[None], 3, x.basis, p).tolist() == [3]


def _random_gram(rng, n, p, skew):
    a = rng.integers(0, p, size=(n, n))
    return (a - a.T) % p if skew else (a + a.T) % p


def _gram_definition(z, g, p):
    z = np.asarray(z, dtype=np.int64)
    return (z @ np.asarray(g, dtype=np.int64) % p) @ z.transpose(0, 2, 1) % p


@pytest.mark.parametrize("p", [3, 5, 997])
@pytest.mark.parametrize("skew", [False, True])
def test_gram_matches_definition(p, skew):
    rng = np.random.default_rng(p + skew)
    for n in range(1, 17):
        g = _random_gram(rng, n, p, skew)
        form = _batch.form_terms(g, p)
        for k in range(5):
            # reversed, strided views into a larger stack, and views of a
            # slot-major (n, k, N) buffer, as pattern_matrices returns it,
            # and of its column reversal, as classify_counts slices the walk
            big = rng.integers(0, p, size=(7, k + 2, n + 3)).astype(np.int32)
            slots = np.ascontiguousarray(big.transpose(2, 1, 0)).transpose(2, 1, 0)
            for z in (big[:, 1 : k + 1, 2 : n + 2], big[::-2, k:0:-1, n + 1 : 1 : -1],
                      slots[:, 1 : k + 1, 2 : n + 2], slots[:, :, ::-1][:, 1 : k + 1, 1 : n + 1]):
                got = _batch._gram(z, form, p)
                assert got.shape == (len(z), k, k)
                assert (got == _gram_definition(z, g, p)).all(), (n, k)
            empty = np.zeros((0, k, n), dtype=np.int32)
            assert _batch._gram(empty, form, p).shape == (0, k, k)


def test_gram_at_the_int32_bound():
    # n = 16 at p = 997: with G all ones and z all p - 1 each of the 256
    # terms is (p - 1)^2
    p, n = 997, 16
    z = np.full((3, 4, n), p - 1, dtype=np.int32)
    upper = np.triu(np.full((n, n), p - 1), 1)
    for g in (np.full((n, n), p - 1), np.ones((n, n), dtype=np.int64), upper + upper.T * (p - 1) % p):
        assert (_batch._gram(z, _batch.form_terms(g, p), p) == _gram_definition(z, g, p)).all()
    assert (_batch._gram(z, _batch.form_terms(np.zeros((n, n)), p), p) == 0).all()


@pytest.mark.parametrize("p", [3, 997])
def test_gram_rank_matches_batch_rank(p, monkeypatch):
    rng = np.random.default_rng(p)
    for k in range(5):
        g = rng.integers(0, p, size=(50, k, k)).astype(np.int32)
        g[:5] = 0
        assert (_batch._gram_rank(g.copy(), p, 0) == _batch.batch_rank(g.copy(), p)).all(), k
    # 3 x 3 stacks forced to each rank as products (3 x r)(r x 3); only the
    # singular ones may reach batch_rank
    stacks = [np.zeros((20, 3, 3), dtype=np.int32)]
    for r in (1, 2, 3):
        a = rng.integers(0, p, size=(200, 3, r))
        b = rng.integers(0, p, size=(200, r, 3))
        stacks.append((a @ b % p).astype(np.int32))
    g = np.concatenate(stacks)
    want = _batch.batch_rank(g.copy(), p)
    assert set(want.tolist()) == {0, 1, 2, 3}
    seen = []
    rank = _batch.batch_rank

    def spy(a, q):
        seen.append(len(a))
        return rank(a, q)

    monkeypatch.setattr(_batch, "batch_rank", spy)
    assert (_batch._gram_rank(g, p, 0) == want).all()
    assert seen == [int((want < 3).sum())]


@pytest.mark.parametrize("p", [3, 997])
def test_skew_gram_rank_is_closed_form(p, monkeypatch):
    # an alternating Gram of size <= 3 has rank 2 or 0; no batch_rank call
    rng = np.random.default_rng(p)
    cases = []
    for k in range(4):
        a = rng.integers(0, p, size=(60, k, k))
        g = ((a - a.transpose(0, 2, 1)) % p).astype(np.int32)
        g[:5] = 0
        cases.append((g, _batch.batch_rank(g.copy(), p)))
    assert set(cases[3][1].tolist()) == {0, 2}

    def refuse(a, q):
        raise AssertionError("batch_rank called")

    monkeypatch.setattr(_batch, "batch_rank", refuse)
    for g, rank in cases:
        assert (_batch._gram_rank(g, p, 1) == rank).all()


def test_missing_witness_refused():
    # the isotropic lines of O2 are 0' or 0''; without a witness neither
    # path may give them the invalid label (1, 0)
    b = SumSpace((BilinearSpace(2, 3, SYMMETRIC, [[0, 1], [1, 0]]),))
    with pytest.raises(ValueError, match="split witness required"):
        orbit_point_counts(b, 1)
    with pytest.raises(ValueError, match="split witness required"):
        stack_labels(b, [span([[1, 0]], 2, 3)])
    with pytest.raises(ValueError, match="split witness required"):
        multilabel_of(b, span([[1, 0]], 2, 3))
    # an anisotropic line and the other dimensions need no witness
    assert stack_labels(b, [span([[1, 1]], 2, 3)]) == [MultiLabel((1,), (1,))]
    assert sum(orbit_point_counts(b, 2).values()) == 1


def test_multilabels_of_tower_targets(monkeypatch):
    # the bulk labels match the oracle, with one decode per distinct code
    calls = []
    real = _batch.decode
    monkeypatch.setattr(_batch, "decode", lambda *args: calls.append(args) or real(*args))
    b = build_sum_space("Sp2+O2", 3)
    for k in range(b.n + 1):
        for label in enumerate_multilabels(b, k):
            targets = [datum.hs[-1] for datum in flag_data(tower_points(b, label))]
            calls.clear()
            got = stack_labels(b, targets)
            assert len(calls) == len(set(got))
            assert got == [multilabel_of(b, h) for h in targets]


def _invertible(k, p, rng):
    while True:
        g = rng.integers(0, p, size=(k, k))
        if rank_mod(g, p) == k:
            return g


@pytest.mark.parametrize("spec,p", [("O4+Sp2+O3", 7), ("O2+O1+Sp4", 3), ("O6", 5)])
def test_multilabels_of_random_subspaces(spec, p):
    rng = np.random.default_rng(17)
    b = build_sum_space(spec, p)
    # mixed dimensions in one call, k = 0 and every label (the 0'/0'' ones too) included
    hs = [random_subspace(b.n, int(rng.integers(0, b.n + 1)), p, rng) for _ in range(60)]
    hs += [canonical_representative(b, lab)
           for k in range(b.n + 1) for lab in enumerate_multilabels(b, k)]
    assert stack_labels(b, hs) == [multilabel_of(b, h) for h in hs]
    # classify_batch needs full-rank bases, not RREF ones: g @ basis gives the same codes
    for k in range(b.n + 1):
        same_k = [h for h in hs if h.dim == k]
        shape = (len(same_k), k, b.n)
        rref_stack = np.array([h.basis for h in same_k], dtype=np.int32).reshape(shape)
        moved = np.array([_invertible(k, p, rng) @ h.basis % p for h in same_k], dtype=np.int32)
        codes = _batch.classify_batch(b, rref_stack)
        assert (_batch.classify_batch(b, moved.reshape(shape)) == codes).all()
        for h, code in zip(same_k, codes):
            lab = multilabel_of(b, h)
            assert _batch.decode(b.dims, code) == tuple(zip(lab.ks, lab.rs))


def test_multilabels_of_edge_cases():
    b = build_sum_space("Sp2+O2", 3)
    assert stack_multilabels(b, np.zeros((0, 2, 4), dtype=np.int32)) == []
    assert stack_multilabels(b, np.zeros((1, 0, 4), dtype=np.int32)) == [MultiLabel((0, 0), (0, 0))]
    codes = _batch.classify_batch(b, np.zeros((3, 0, 4), dtype=np.int32))
    assert [_batch.decode(b.dims, c) for c in codes] == [((0, 0), (0, 0))] * 3
    assert _batch.classify_batch(b, np.zeros((0, 2, 4), dtype=np.int32)).shape == (0,)
    for wrong in (span([[1, 0, 0]], 3, 3), span([[1, 0, 0, 0]], 4, 5)):
        with pytest.raises(ValueError, match="wrong ambient"):
            multilabel_of(b, wrong)


def test_canonical_representative_hits_every_label():
    for spec in ("Sp2", "Sp4", "O2", "O3", "O4", "Sp2+O2", "Sp2+Sp2", "O2+O3"):
        b = build_sum_space(spec, 3)
        for k in range(b.n + 1):
            for lab in enumerate_multilabels(b, k):
                rep = canonical_representative(b, lab)
                assert rep.dim == k
                assert multilabel_of(b, rep) == lab, (spec, k, str(lab))
