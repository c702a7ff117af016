import numpy as np
import pytest

from checks import (
    apply_isometry,
    batch_det,
    complement_rows,
    normal_basis,
    random_subspace,
    smallest_nonresidue,
    witt_parts,
    witt_split,
)

from isograss import _batch
from isograss.bilinear import (
    SKEW,
    SYMMETRIC,
    BilinearSpace,
    DiscriminantMismatch,
    InvariantMismatch,
    WittStack,
    pairing,
    perp,
    quotient_coords,
    radical,
    standard_space,
    subquotient,
    transport_isometry,
    witt_decompose,
)
from isograss.linalg import (
    enumerate_subspaces,
    full_subspace,
    inv_mod,
    left_kernel,
    rank_mod,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)


def discriminant_class(space: BilinearSpace, rows: np.ndarray) -> int:
    """Square class (+1 residue / -1 nonresidue) of det of the restricted
    Gram, which must be nondegenerate."""
    d = int(batch_det(pairing(space, rows, rows)[None], space.p)[0])
    assert d, "restricted form is degenerate"
    return 1 if pow(d, (space.p - 1) // 2, space.p) == 1 else -1


def test_standard_space_gram():
    sp2 = standard_space(SKEW, 2, 3)
    assert (sp2.gram == [[0, 1], [2, 0]]).all()  # -1 == 2 mod 3
    o2 = standard_space(SYMMETRIC, 2, 3)
    assert (o2.gram == [[0, 1], [1, 0]]).all()
    assert o2.witness == span([[1, 0]], 2, 3)
    with pytest.raises(ValueError):
        standard_space(SKEW, 3, 3)


def test_standard_space_odd_symmetric():
    o3 = standard_space(SYMMETRIC, 3, 5)
    assert o3.is_nondegenerate()
    assert o3.witness is None
    assert o3.gram[1, 1] == 1


@pytest.mark.parametrize(
    "gram",
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 2]],  # nondegenerate
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],  # rank 2
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],  # rank 2, no zero row
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ],
)
def test_is_nondegenerate_is_full_rank(gram):
    space = BilinearSpace(3, 5, SYMMETRIC, gram)
    want = rank_mod(space.gram, 5) == 3
    assert space.is_nondegenerate() == want
    assert space.is_nondegenerate() == want  # the cached answer


def test_perp_examples():
    sp2 = standard_space(SKEW, 2, 3)
    e1 = span([[1, 0]], 2, 3)
    assert perp(sp2, e1) == e1

    o2 = standard_space(SYMMETRIC, 2, 3)
    assert perp(o2, span([[1, 0]], 2, 3)) == span([[1, 0]], 2, 3)

    degenerate = BilinearSpace(2, 3, SYMMETRIC, np.zeros((2, 2), dtype=np.int64))
    assert perp(degenerate, span([[1, 1]], 2, 3)) == full_subspace(2, 3)


def test_perp_involution_exhaustive():
    for form in (SKEW, SYMMETRIC):
        for n in (2, 4):
            space = standard_space(form, n, 3)
            for k in range(n + 1):
                for h in enumerate_subspaces(n, k, 3):
                    pp = perp(space, perp(space, h))
                    assert pp == h
                    assert perp(space, h).dim == n - k


def test_radical_examples():
    sp4 = standard_space(SKEW, 4, 3)
    hyperbolic = span([[1, 0, 0, 0], [0, 0, 0, 1]], 4, 3)
    assert radical(sp4, hyperbolic).dim == 0
    lagrangian = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
    assert radical(sp4, lagrangian) == lagrangian
    # isotropic plane with <e1, e2> = 0
    assert rank_mod(pairing(sp4, lagrangian.basis, lagrangian.basis), 3) == 0


@pytest.mark.parametrize("p", [3, 997])
def test_radical_is_h_meet_h_perp(p):
    # on nondegenerate, degenerate and zero Grams, n = 0 included
    rng = np.random.default_rng(p)
    spaces = [standard_space(form, n, p) for form, n in ((SKEW, 0), (SKEW, 4), (SYMMETRIC, 0),
                                                         (SYMMETRIC, 3), (SYMMETRIC, 4))]
    spaces.append(BilinearSpace(3, p, SYMMETRIC, np.diag([0, 1, p - 1]).astype(np.int64)))
    spaces.append(BilinearSpace(4, p, SYMMETRIC, np.zeros((4, 4), dtype=np.int64)))
    skew = np.zeros((4, 4), dtype=np.int64)
    skew[0, 1], skew[1, 0] = 1, p - 1  # rank 2
    spaces.append(BilinearSpace(4, p, SKEW, skew))
    for space in spaces:
        n = space.n
        subs = [zero_subspace(n, p), full_subspace(n, p)]
        subs += [random_subspace(n, k, p, rng) for k in range(n + 1) for _ in range(3)]
        for h in subs:
            assert radical(space, h) == subspace_intersect(h, perp(space, h)), (space, h)


def test_radical_builds_no_perp_and_no_meet(monkeypatch):
    # the radical is the kernel of h's own Gram: no h^perp, no intersection
    def refuse(*args):
        raise AssertionError("radical built h^perp or an intersection")

    o4 = standard_space(SYMMETRIC, 4, 3)
    h = span([[1, 0, 0, 0], [0, 1, 1, 0]], 4, 3)
    want = subspace_intersect(h, perp(o4, h))
    monkeypatch.setattr("isograss.bilinear.perp", refuse)
    monkeypatch.setattr("isograss.linalg.subspace_intersect", refuse)
    assert radical(o4, h) == want == span([[1, 0, 0, 0]], 4, 3)


def test_radical_parity_skew_exhaustive():
    space = standard_space(SKEW, 4, 3)
    for k in range(5):
        for h in enumerate_subspaces(4, k, 3):
            r = h.dim - radical(space, h).dim
            assert r % 2 == 0


def _check_witt(space, h, split):
    n, p = space.n, space.p
    m = [span(rows, n, p) for rows in witt_parts(split, 0)]
    hperp = perp(space, h)
    assert m[0] == subspace_intersect(h, hperp)
    assert subspace_sum(m[0], m[1]) == h
    assert subspace_sum(m[0], m[2]) == hperp
    total = zero_subspace(n, p)
    dims = 0
    for part in m:
        total = subspace_sum(total, part)
        dims += part.dim
    assert total == full_subspace(n, p) and dims == n
    # pairing table: perfect on {1,4}, {2,2}, {3,3}; zero otherwise
    for i in range(4):
        for j in range(4):
            bi, bj = m[i].basis, m[j].basis
            if bi.size == 0 or bj.size == 0:
                continue
            block = pairing(space, bi, bj)
            if {i, j} == {0, 3} or (i == j == 1) or (i == j == 2):
                assert m[i].dim == m[j].dim or i == j
                assert rank_mod(block, p) == min(m[i].dim, m[j].dim)
                if i == j or {i, j} == {0, 3}:
                    assert rank_mod(block, p) == m[i].dim
            else:
                assert not block.any()


def _part_sizes(split):
    return tuple(len(rows) for rows in witt_parts(split, 0))


def test_witt_forced_dimensions():
    sp4 = standard_space(SKEW, 4, 3)
    lag = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
    ws = witt_split(sp4, lag)
    assert _part_sizes(ws) == (2, 0, 0, 2)
    _check_witt(sp4, lag, ws)

    hyp = span([[1, 0, 0, 0], [0, 0, 0, 1]], 4, 3)
    ws = witt_split(sp4, hyp)
    assert _part_sizes(ws) == (0, 2, 2, 0)
    _check_witt(sp4, hyp, ws)


def test_witt_generic_rank_one():
    o4 = standard_space(SYMMETRIC, 4, 3)
    h = span([[1, 0, 0, 0], [0, 1, 1, 0]], 4, 3)  # rad = e1, anisotropic part
    assert rank_mod(pairing(o4, h.basis, h.basis), 3) == 1
    ws = witt_split(o4, h)
    assert _part_sizes(ws) == (1, 1, 1, 1)
    _check_witt(o4, h, ws)


def test_witt_random_pairing_table():
    rng = np.random.default_rng(11)
    for form in (SKEW, SYMMETRIC):
        for n in (2, 4):
            space = standard_space(form, n, 5)
            for _ in range(40):
                h = random_subspace(n, int(rng.integers(0, n + 1)), 5, rng)
                _check_witt(space, h, witt_split(space, h))


def _normal_form_inputs():
    """Every subspace of Sp4, O3 and O4 at p = 3, then random subspaces of O5
    and Sp6 at p = 5 and 7."""
    for form, n in ((SKEW, 4), (SYMMETRIC, 3), (SYMMETRIC, 4)):
        space = standard_space(form, n, 3)
        for k in range(n + 1):
            for h in enumerate_subspaces(n, k, 3):
                yield space, h
    rng = np.random.default_rng(18)
    for p in (5, 7):
        for form, n in ((SYMMETRIC, 5), (SKEW, 6)):
            space = standard_space(form, n, p)
            for _ in range(40):
                yield space, random_subspace(n, int(rng.integers(0, n + 1)), p, rng)


def test_witt_split_is_in_normal_form():
    # the stacked basis has the block normal form as its Gram, m1 is rad h,
    # and delta2 is the square class of the restriction to m2
    classes = set()
    for space, h in _normal_form_inputs():
        ws = witt_split(space, h)
        m1, m2, _, _ = witt_parts(ws, 0)
        stacked = ws.bases[0]
        assert np.array_equal(pairing(space, stacked, stacked), ws.normal_forms(space)[0])
        assert span(m1, space.n, space.p) == radical(space, h)
        if space.form_type == SYMMETRIC and len(m2):
            assert (ws.deltas[0, 0] == 1) == (discriminant_class(space, m2) == 1)
            classes.add((space.n, ws.deltas[0, 0] == 1))
    assert {(3, True), (3, False), (4, True), (4, False), (5, True), (5, False)} <= classes


def test_witt_decompose_stacks_agree_with_one_item_stacks():
    # a stack of subspaces of one dimension, with mixed radical dimensions,
    # splits item by item as one-item stacks do
    rng = np.random.default_rng(30)
    mixed = 0
    for form, n, p in ((SKEW, 4, 3), (SYMMETRIC, 4, 3), (SYMMETRIC, 5, 5), (SKEW, 6, 3)):
        space = standard_space(form, n, p)
        for k in range(n + 1):
            hs = [random_subspace(n, k, p, rng) for _ in range(40)]
            whole = witt_decompose(space, np.stack([h.basis for h in hs]).reshape(40, k, n))
            mixed += len(set(whole.t.tolist())) > 1
            for i, h in enumerate(hs):
                assert all(np.array_equal(x[i], y[0]) for x, y in zip(whole, witt_split(space, h))), h
    assert mixed >= 6


@pytest.mark.parametrize("form", [SKEW, SYMMETRIC])
def test_witt_split_of_the_zero_space(form):
    # width-0 stacks all the way down: complement_rows takes (0, 0) inputs
    empty = np.zeros((0, 0), dtype=np.int64)
    assert complement_rows(empty, empty, 3).shape == (0, 0)
    ws = witt_split(standard_space(form, 0, 3), zero_subspace(0, 3))
    assert [part.shape for part in witt_parts(ws, 0)] == [(0, 0)] * 4
    assert ws.deltas.tolist() == [[1, 1]]


def test_witt_rejects_degenerate_space():
    degenerate = BilinearSpace(2, 3, SYMMETRIC, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        witt_split(degenerate, span([[1, 0]], 2, 3))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_normal_basis_random_grams(p):
    # the scalar oracle and the batched kernel: T is invertible, T gm T^T is
    # the normal form, and delta is the square class that the determinant of
    # gm gives
    rng = np.random.default_rng(p)
    nu = smallest_nonresidue(p)
    for form, dims in ((SKEW, (2, 4)), (SYMMETRIC, (1, 2, 3, 4))):
        for d in dims:
            grams = []
            while len(grams) < 25:
                a = rng.integers(0, p, (d, d))
                gm = (a - a.T) % p if form == SKEW else (a + a.T) % p
                if rank_mod(gm, p) == d:
                    grams.append(gm)
            rank, deltas, ts = _batch.congruence_normal(np.array(grams), p, form == SKEW)
            assert rank.tolist() == [d] * len(grams)
            for gm, t_batch, delta_batch in zip(grams, ts, deltas):
                t, delta = normal_basis(gm, p, form == SKEW)
                assert np.array_equal(t, t_batch) and delta == delta_batch
                assert rank_mod(t, p) == d
                if form == SKEW:
                    want = standard_space(SKEW, d, p).gram
                    assert delta == 1
                else:
                    want = np.diag([1] * (d - 1) + [delta])
                    disc = discriminant_class(BilinearSpace(d, p, form, gm), np.eye(d, dtype=np.int64))
                    assert delta in (1, nu) and (delta == 1) == (disc == 1)
                assert (t @ gm @ t.T % p == want).all()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_normal_basis_all_isotropic_rows(p):
    # both rows are isotropic, so the first anisotropic vector is e1 + e2;
    # det = -1 is a square exactly when p = 1 mod 4
    gm = np.array([[0, 1], [1, 0]])
    t, delta = normal_basis(gm, p, False)
    assert delta == (1 if p % 4 == 1 else smallest_nonresidue(p))
    assert (t @ gm @ t.T % p == np.diag([1, delta])).all()
    rank, deltas, ts = _batch.congruence_normal(gm[None], p, False)
    assert rank.tolist() == [2] and deltas.tolist() == [delta] and np.array_equal(ts[0], t)


@pytest.mark.parametrize(
    "gm, skew",
    [
        ([[1, 1], [1, 1]], False),
        ([[0, 0], [0, 0]], False),
        ([[0, 0], [0, 0]], True),
        ([[0, 1, 0], [2, 0, 0], [0, 0, 0]], True),
    ],
)
def test_normal_basis_rejects_degenerate_gram(gm, skew):
    # the oracle refuses a degenerate Gram; the kernel ranks it below d
    with pytest.raises(ValueError):
        normal_basis(np.array(gm), 3, skew)
    rank, _, _ = _batch.congruence_normal(np.array(gm)[None], 3, skew)
    assert rank[0] == rank_mod(np.array(gm), 3) < len(gm)


def _gram_of_rank(rng, d, rank, p, skew):
    """A random Gram of size d and the given rank: a random nondegenerate
    block, padded with zeros and moved by a random invertible matrix."""
    while True:
        a = rng.integers(0, p, (rank, rank))
        block = (a - a.T) % p if skew else (a + a.T) % p
        if rank_mod(block, p) == rank:
            break
    c = rng.integers(0, p, (d, d))
    while rank_mod(c, p) < d:
        c = rng.integers(0, p, (d, d))
    g = np.zeros((d, d), dtype=np.int64)
    g[:rank, :rank] = block
    return c.T @ g @ c % p


def _check_congruence_normal(grams, p, skew):
    """congruence_normal of a stack against the scalar oracle: the rank, T
    invertible with T g T^T the normal form of size rank padded with zeros,
    and delta the oracle's delta of g restricted to a complement of its
    radical; on a nondegenerate g, T is the oracle's T."""
    grams = np.array(grams, dtype=np.int64)
    d = grams.shape[1]
    ranks, deltas, ts = _batch.congruence_normal(grams, p, skew)
    for g, rank, delta, t in zip(grams, ranks.tolist(), deltas.tolist(), ts):
        assert rank == rank_mod(g, p) and rank_mod(t, p) == d, g
        comp = complement_rows(left_kernel(g, p), np.eye(d, dtype=np.int64), p)
        want_t, want_delta = normal_basis(comp @ g @ comp.T % p, p, skew)
        assert delta == want_delta, g
        if rank == d:
            assert np.array_equal(t, want_t), g
        want = np.zeros((d, d), dtype=np.int64)
        want[:rank, :rank] = want_t @ (comp @ g @ comp.T) @ want_t.T % p
        assert np.array_equal(t @ g @ t.T % p, want), g


@pytest.mark.parametrize("p", [3, 5, 7, 997])
def test_congruence_normal_matches_the_scalar_oracle(p):
    # every rank from 0 (the zero Gram) to d, symmetric and alternating
    rng = np.random.default_rng(p)
    for d in (1, 2, 3, 4, 6):
        for skew in (False, True):
            grams = [_gram_of_rank(rng, d, rank, p, skew)
                     for rank in range(0, d + 1, 1 + skew) for _ in range(12)]
            _check_congruence_normal(grams, p, skew)


def test_congruence_normal_at_the_int_bound():
    # entries at p - 1 = 996 and just below it: every product of the
    # elimination is near its largest
    p, rng = 997, np.random.default_rng(997)
    for skew in (False, True):
        for d in (2, 3, 4, 6):
            grams = [np.full((d, d), p - 1)]
            for _ in range(20):
                a = rng.integers(p - 3, p, (d, d))
                grams.append((a - a.T) % p if skew else (a + a.T) % p)
            if skew:  # p - 1 above the diagonal, 1 below it
                grams[0] = (np.triu(grams[0], 1) - np.triu(grams[0], 1).T) % p
            _check_congruence_normal(grams, p, skew)


def _transport(space, h, h2):
    """transport_isometry between the splits of h and h2, held to both of its
    laws: g is an isometry, and g maps h onto h2."""
    [g] = transport_isometry(space, witt_split(space, h), witt_split(space, h2))
    assert not ((g.T @ space.gram @ g - space.gram) % space.p).any(), "not an isometry"
    assert apply_isometry(g, h) == h2, "does not transport"
    return g


def test_transport_identity():
    sp4 = standard_space(SKEW, 4, 5)
    h = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 5)
    _transport(sp4, h, h)


def test_transport_symplectic_example():
    sp4 = standard_space(SKEW, 4, 3)
    h = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
    h2 = span([[1, 0, 0, 0], [0, 0, 1, 0]], 4, 3)
    assert rank_mod(pairing(sp4, h.basis, h.basis), 3) == 0
    assert rank_mod(pairing(sp4, h2.basis, h2.basis), 3) == 0
    _transport(sp4, h, h2)


def test_transport_two_rulings_has_det_minus_one():
    o2 = standard_space(SYMMETRIC, 2, 7)
    h = span([[1, 0]], 2, 7)
    h2 = span([[0, 1]], 2, 7)
    g = _transport(o2, h, h2)
    det = round(float(np.linalg.det(g.astype(float)))) % 7
    assert det == 7 - 1  # no det-1 transporter exists between the rulings


def test_transport_normalizes_determinant():
    o4 = standard_space(SYMMETRIC, 4, 3)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 25:
        h = random_subspace(4, 2, 3, rng)
        h2 = random_subspace(4, 2, 3, rng)
        r = rank_mod(pairing(o4, h.basis, h.basis), 3)
        if r != rank_mod(pairing(o4, h2.basis, h2.basis), 3) or r == 0:
            continue
        try:
            g = _transport(o4, h, h2)
        except DiscriminantMismatch:
            continue
        det = round(float(np.linalg.det(g.astype(float)))) % 3
        assert det == 1
        checked += 1


@pytest.mark.parametrize("n, k", [(3, 1), (5, 1), (5, 2)])
def test_transport_twists_m3_row_for_isotropics(n, k):
    # r = 0 and n - 2k > 0: the determinant is fixed by negating an M3 row
    o = standard_space(SYMMETRIC, n, 3)
    iso = [h for h in enumerate_subspaces(n, k, 3) if not pairing(o, h.basis, h.basis).any()]
    for h2 in iso:
        g = _transport(o, iso[0], h2)
        assert round(float(np.linalg.det(g.astype(float)))) % 3 == 1


def _reflection(space, v):
    """The reflection x -> x - 2 <x, v> / <v, v> v in an anisotropic v, as a
    matrix acting on columns."""
    c = 2 * inv_mod(int(pairing(space, v, v)[0, 0]), space.p)
    return (np.eye(space.n, dtype=np.int64) - c * np.outer(v, v @ space.gram)) % space.p


def _det_parity_holds(g, p):
    """det g, by the elimination oracle, is (-1)^rank(g - 1)."""
    moved = ((g - np.eye(len(g), dtype=np.int64)) % p).astype(np.int32)[None]
    return int(batch_det(g[None], p)[0]) == (-1) ** int(_batch.batch_rank(moved, p)[0]) % p


def test_isometry_determinant_is_the_parity_of_rank_g_minus_1():
    # an orthogonal g is a product of rank(g - 1) reflections, or of two
    # more (Scherk), the rule transport_isometry reads its twist from: on
    # products of reflections and on transporter outputs, det g (by the
    # elimination oracle) is (-1)^rank(g - 1)
    rng = np.random.default_rng(20240817)
    products = transported = 0
    for n in range(1, 8):
        for p in (3, 5, 7, 11):
            space = standard_space(SYMMETRIC, n, p)
            for _ in range(12):
                g, sign = np.eye(n, dtype=np.int64), 1
                for _ in range(int(rng.integers(0, n + 3))):
                    v = rng.integers(0, p, size=n)
                    if pairing(space, v, v)[0, 0]:
                        g, sign = _reflection(space, v) @ g % p, -sign
                assert not ((g.T @ space.gram @ g - space.gram) % p).any()
                assert int(batch_det(g[None], p)[0]) == sign % p
                assert _det_parity_holds(g, p), (n, p, g)
                products += 1
            if n > 6 or p > 7:
                continue
            last: dict = {}
            for _ in range(60):
                h = random_subspace(n, int(rng.integers(0, n + 1)), p, rng)
                ws = witt_split(space, h)
                key = (h.dim, int(ws.r[0]), tuple(ws.deltas[0].tolist()))
                if key in last:
                    [g] = transport_isometry(space, last[key], ws)
                    assert _det_parity_holds(g, p), (n, p, h)
                    if 2 * int(ws.t[0]) < n:
                        assert int(batch_det(g[None], p)[0]) == 1
                    transported += 1
                last[key] = ws
    assert products == 336 and transported >= 800


def _refuse(*args, **kwargs):
    raise AssertionError("the transporter rebuilt part of a split")


def test_transport_reads_the_splits(monkeypatch):
    # the transporter builds no split of its own and normalizes nothing:
    # perp, span, left_kernels and congruence_normal are never called once
    # both splits exist; it takes the pairs as one stack
    rng = np.random.default_rng(5)
    for form, n in ((SYMMETRIC, 4), (SYMMETRIC, 5), (SKEW, 4)):
        space = standard_space(form, n, 3)
        pairs = []
        while len(pairs) < 10:
            h, h2 = (random_subspace(n, 2, 3, rng) for _ in range(2))
            a, b = witt_split(space, h), witt_split(space, h2)
            m2, m2b = witt_parts(a, 0)[1], witt_parts(b, 0)[1]
            if len(m2) == len(m2b) and (
                not len(m2) or form == SKEW
                or discriminant_class(space, m2) == discriminant_class(space, m2b)
            ):
                pairs.append((h, h2, a, b))
        a, b = (WittStack(*map(np.concatenate, zip(*(pair[side] for pair in pairs)))) for side in (2, 3))
        with monkeypatch.context() as m:
            for name in ("bilinear.perp", "bilinear.span", "_batch.left_kernels",
                         "_batch.congruence_normal"):
                m.setattr(f"isograss.{name}", _refuse)
            gs = transport_isometry(space, a, b)
        for (h, h2, _, _), g in zip(pairs, gs):
            assert not ((g.T @ space.gram @ g - space.gram) % 3).any()
            assert apply_isometry(g, h) == h2


def test_transport_invariant_mismatch():
    sp4 = standard_space(SKEW, 4, 3)
    h = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
    h2 = span([[1, 0, 0, 0]], 4, 3)
    with pytest.raises(InvariantMismatch):
        _transport(sp4, h, h2)
    h3 = span([[1, 0, 0, 0], [0, 0, 0, 1]], 4, 3)
    with pytest.raises(InvariantMismatch):
        _transport(sp4, h, h3)


def test_transport_discriminant_obstruction_is_raised():
    # In split O(3) over F_3, anisotropic lines fall into two square classes.
    o3 = standard_space(SYMMETRIC, 3, 3)
    lines = {}
    for h in enumerate_subspaces(3, 1, 3):
        if rank_mod(pairing(o3, h.basis, h.basis), 3) == 1:
            lines.setdefault(discriminant_class(o3, h.basis), []).append(h)
    assert set(lines) == {1, -1}
    a, b = lines[1][0], lines[-1][0]
    with pytest.raises(DiscriminantMismatch):
        _transport(o3, a, b)
    # same class transports fine
    _transport(o3, a, lines[1][1])


def test_quotient_map():
    o4 = standard_space(SYMMETRIC, 4, 3)
    u = span([[1, 0, 0, 0]], 4, 3)  # isotropic but not radical: must fail
    with pytest.raises(ValueError):
        subquotient(o4, u, full_subspace(4, 3))
    degenerate = BilinearSpace(
        3, 3, SYMMETRIC, np.diag([0, 1, 1]).astype(np.int64)
    )
    _, quotient = subquotient(degenerate, span([[1, 0, 0]], 3, 3), full_subspace(3, 3))
    assert quotient.n == 2
    assert quotient.is_nondegenerate()


def test_subquotient_refuses_lower_outside_the_radical():
    o4 = standard_space(SYMMETRIC, 4, 3)
    line = span([[1, 0, 0, 0]], 4, 3)
    upper = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)  # isotropic plane: rad(upper) = upper
    subquotient(o4, line, upper)
    for lower, up in [
        (line, full_subspace(4, 3)),         # in upper, but pairs with e_4
        (span([[0, 0, 1, 0]], 4, 3), upper),  # isotropic, outside upper
        (upper, line),                        # bigger than upper
    ]:
        with pytest.raises(ValueError):
            subquotient(o4, lower, up)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_subquotient_of_isotropic_line(p):
    # L^perp / L of an isotropic line L of O4 is a nondegenerate plane
    o4 = standard_space(SYMMETRIC, 4, p)
    for line in enumerate_subspaces(4, 1, p):
        if pairing(o4, line.basis, line.basis).any():
            continue
        upper = perp(o4, line)
        comp, quotient = subquotient(o4, line, upper)
        assert quotient.n == comp.shape[0] == 2 and quotient.is_nondegenerate()
        assert quotient.form_type == SYMMETRIC
        assert subspace_sum(line, span(comp, 4, p)) == upper


@pytest.mark.parametrize("p", [3, 997])
def test_subquotient_complement_is_zero_at_the_lower_pivots(p):
    # random lower <= rad(upper), symmetric and skew, degenerate forms
    # included: comp is RREF, zero at lower's pivots and completes lower to
    # upper, and quotient_coords reads x back from x @ comp plus any vector
    # of lower
    rng = np.random.default_rng(p)
    nonzero = 0
    for _ in range(200):
        skew = bool(rng.integers(0, 2))
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, n + 1))
        rank -= skew * (rank % 2)  # an alternating Gram has even rank
        space = BilinearSpace(n, p, SKEW if skew else SYMMETRIC, _gram_of_rank(rng, n, rank, p, skew))
        upper = random_subspace(n, int(rng.integers(0, n + 1)), p, rng)
        rad = radical(space, upper)
        lower = span(rng.integers(0, p, (int(rng.integers(0, rad.dim + 1)), rad.dim)) @ rad.basis % p, n, p)
        nonzero += lower.dim > 0
        comp, quotient = subquotient(space, lower, upper)
        assert np.array_equal(rref(comp, p), comp) and len(comp) == upper.dim - lower.dim
        assert not comp[:, lower.pivots].any()
        assert span(np.vstack([lower.basis, comp]), n, p) == upper
        assert np.array_equal(quotient.gram, pairing(space, comp, comp))
        x = rng.integers(0, p, (4, len(comp)))
        v = (x @ comp + rng.integers(0, p, (4, lower.dim)) @ lower.basis) % p
        assert np.array_equal(quotient_coords(v, lower, np.argmax(comp != 0, axis=1)), x)
    assert nonzero >= 40
