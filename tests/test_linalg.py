import random
from itertools import permutations

import numpy as np
import pytest
from checks import batch_det, random_matrix, random_subspace, scalar_between

from isograss import linalg
from isograss._batch import batch_rank, iter_chunks, left_kernels, pattern_matrices
from isograss.linalg import (
    BudgetExceeded,
    RowSolver,
    Subspace,
    as_prime,
    between_stack,
    complement_rows,
    enumerate_subspaces,
    full_subspace,
    intersect_prefix,
    left_kernel,
    rank_mod,
    rref,
    span,
    subspace_intersect,
    subspace_sum,
    subspace_total,
    subspaces_between,
    zero_subspace,
)
from isograss.polynomials import gaussian_binomial


def test_prime_field_validation():
    assert as_prime(3) == 3 and as_prime(997) == 997
    for bad in (2, 4, 9, 1, 999, 1009):
        with pytest.raises(ValueError):
            as_prime(bad)


def _reference_det(mat, p):
    """Determinant mod p by permutation expansion, independent of ``batch_det``."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= int(mat[i][j])
        total += term
    return total % p


def test_batch_det_matches_permutation_expansion():
    rng = np.random.default_rng(14)
    for p in (3, 5, 7, 997):
        for d in range(6):
            # an antidiagonal needs d // 2 row swaps
            cases = [rng.integers(0, p, size=(d, d)) for _ in range(6)]
            cases.append(np.fliplr(np.eye(d, dtype=np.int64)) * (p - 2))
            if d:
                swap = rng.integers(0, p, size=(d, d))
                swap[0, 0] = 0  # the first pivot comes from a later row
                dup = rng.integers(0, p, size=(d, d))
                dup[-1] = 2 * dup[0]  # singular: dependent rows
                zero_col = rng.integers(0, p, size=(d, d))
                zero_col[:, d // 2] = 0
                cases += [swap, dup, zero_col]
            dets = batch_det(np.array(cases), p)
            assert dets.tolist() == [_reference_det(mat, p) for mat in cases], (p, d)
    assert batch_det(np.zeros((1, 0, 0), dtype=np.int64), 3).tolist() == [1]


def _reference_rref(mat, p):
    """RREF by the bulk elimination of ``_batch``, independent of ``rref``."""
    stack = (np.asarray(mat, dtype=np.int64) % p)[None].copy()
    rank = int(batch_rank(stack, p)[0])
    return stack[0, :rank]


def test_rref_kernel_contract():
    rng = np.random.default_rng(8)
    shapes = [(r, c) for r in range(9) for c in (0, 1, 2, 3, 5, 8, 12, 16)]
    for p in (3, 5, 7, 997):
        for rows, cols in shapes:
            m = rng.integers(-2 * p, 2 * p, size=(rows, cols), dtype=np.int64)
            want = _reference_rref(m, p)
            # a plain list of no rows carries no column count
            inputs = [m, m.astype(np.int32)] + ([m.tolist()] if rows else [])
            for given in inputs:
                red = rref(given, p)
                assert red.dtype == np.int64 and red.shape == (want.shape[0], cols)
                assert np.array_equal(red, want)
                assert rank_mod(given, p) == want.shape[0]
            pivots = [int(np.flatnonzero(row)[0]) for row in red]
            assert pivots == sorted(set(pivots))
            for i, c in enumerate(pivots):
                assert np.array_equal(red[:, c], np.eye(len(pivots), dtype=np.int64)[i])
    with pytest.raises(ValueError):
        rref(np.array([1, 2, 3]), 3)


def test_empty_kernel_and_complement_keep_int64_and_two_dims():
    ker = left_kernel(np.zeros((0, 4), dtype=np.int64), 5)
    assert ker.dtype == np.int64 and ker.shape == (0, 0)
    ker = left_kernel(np.zeros((3, 0), dtype=np.int64), 5)
    assert ker.dtype == np.int64 and np.array_equal(ker, np.eye(3, dtype=np.int64))
    comp = complement_rows(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4), dtype=np.int64), 5)
    assert comp.dtype == np.int64 and comp.shape == (0, 4)


def _greedy_complement(inner, outer, p):
    """The definition: each row of ``outer``, in order, that raises the rank."""
    width = outer.shape[1]
    taken = np.asarray(inner, dtype=np.int64).reshape(-1, width) % p
    picked = []
    for row in outer % p:
        trial = np.vstack([taken, row])
        if _reference_rref(trial, p).shape[0] > _reference_rref(taken, p).shape[0]:
            picked.append(row)
            taken = trial
    return np.array(picked, dtype=np.int64).reshape(-1, width)


def test_complement_rows_matches_greedy_definition():
    rng = np.random.default_rng(3)
    for p in (3, 7):
        for _ in range(300):
            width = int(rng.integers(1, 7))
            inner = rng.integers(-p, 2 * p, size=(int(rng.integers(0, 4)), width))
            outer = rng.integers(-p, 2 * p, size=(int(rng.integers(0, 5)), width))
            extra = [np.zeros((1, width), dtype=np.int64)]  # a zero row
            if len(inner):
                extra.append(rng.integers(0, p, size=(2, len(inner))) @ inner)  # in span(inner)
            if len(outer):
                extra.append(outer[-1:] * 2)  # a multiple of an earlier row
            outer = np.vstack([outer, *extra])
            rng.shuffle(outer)
            for rows in (outer, outer[:0]):
                got = complement_rows(inner, rows, p)
                assert got.dtype == np.int64
                assert np.array_equal(got, _greedy_complement(inner, rows, p))


def test_rref_scaling():
    s = span(np.array([[2, 0], [0, 1]]), 2, 3)
    assert (s.basis == np.eye(2, dtype=np.int64)).all()


def test_rref_dependent_rows():
    s = span(np.array([[1, 1], [2, 2]]), 2, 3)
    assert s.dim == 1
    assert (s.basis == [[1, 1]]).all()


def test_rref_empty():
    s = span(np.zeros((0, 3)), 3, 5)
    assert s.dim == 0
    assert s == zero_subspace(3, 5)


def test_rref_idempotent_and_scale_invariant_exhaustive():
    # every 2 x n matrix over F_3 (n <= 4): canonical form is stable under
    # re-canonicalization and under row rescaling
    from itertools import product

    p = 3
    for cols in (3, 4):
        for flat in product(range(p), repeat=2 * cols):
            m = np.array(flat, dtype=np.int64).reshape(2, cols)
            s = span(m, cols, p)
            assert span(s.basis, cols, p) == s
            assert span(m * np.array([[1], [2]]), cols, p) == s


def test_sum_and_intersect_examples():
    p = 3
    e1 = span([[1, 0]], 2, p)
    e2 = span([[0, 1]], 2, p)
    assert subspace_sum(e1, e2) == full_subspace(2, p)
    assert subspace_sum(e1, e1) == e1

    a = span([[1, 0, 0]], 3, 5)
    b = span([[1, 1, 0]], 3, 5)
    assert subspace_sum(a, b) == span([[1, 0, 0], [0, 1, 0]], 3, 5)

    s12 = span([[1, 0, 0], [0, 1, 0]], 3, 3)
    s23 = span([[0, 1, 0], [0, 0, 1]], 3, 3)
    assert subspace_intersect(s12, s23) == span([[0, 1, 0]], 3, 3)
    assert subspace_intersect(s12, full_subspace(3, 3)) == s12
    assert subspace_intersect(full_subspace(3, 3), s12) == s12
    assert subspace_intersect(e1, e2) == zero_subspace(2, p)


def test_modular_dimension_law_random():
    rng = np.random.default_rng(42)
    for p in (3, 5):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = random_subspace(n, int(rng.integers(0, n + 1)), p, rng)
            b = random_subspace(n, int(rng.integers(0, n + 1)), p, rng)
            s = subspace_sum(a, b)
            i = subspace_intersect(a, b)
            assert s.dim + i.dim == a.dim + b.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(i) and b.contains(i)


def _stacked_meet(a, b):
    """a cap b by the stacked-kernel definition: the relations (x, y) with
    x @ A = y @ B are the left kernel of [A; -B]."""
    p = a.p
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.n, p)
    ker = left_kernel(np.vstack([a.basis, -b.basis % p]), p)
    return span(ker[:, : a.dim] @ a.basis % p, a.n, p)


@pytest.mark.parametrize("p", [3, 997])
def test_residue_contains_and_intersect_match_stacked_definitions(p):
    # residue is linear and vanishes exactly on the subspace; contains is a
    # rank comparison of the stacked bases; subspace_intersect is the
    # stacked left kernel, on random pairs with zero and full subspaces
    rng = np.random.default_rng(p)
    pairs = []
    for n in range(5):
        subs = [zero_subspace(n, p), full_subspace(n, p)]
        subs += [random_subspace(n, int(rng.integers(0, n + 1)), p, rng) for _ in range(6)]
        # a subspace inside another and one sharing a line with it
        for h in subs[2:5]:
            if h.dim:
                subs.append(span(h.basis[:1], n, p))
                subs.append(span(np.vstack([h.basis[:1], random_matrix(1, n, p, rng)]), n, p))
        pairs += [(a, b) for a in subs for b in subs]
    for a, b in pairs:
        vecs = random_matrix(3, a.n, p, rng)
        coefs = random_matrix(2, 3, p, rng)
        res = b.residue(vecs)
        assert np.array_equal(b.residue(coefs @ vecs % p), coefs @ res % p)
        inside = [rank_mod(np.vstack([b.basis, v]), p) == b.dim for v in vecs]
        assert (~res.any(axis=1)).tolist() == inside
        assert not b.residue(random_matrix(4, b.dim, p, rng) @ b.basis % p).any()
        assert b.contains(a) == (rank_mod(np.vstack([b.basis, a.basis]), p) == b.dim)
        assert subspace_intersect(a, b) == _stacked_meet(a, b)


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(span([[1, 0]], 2, 3), span([[1, 0, 0]], 3, 3))
    with pytest.raises(ValueError):
        subspace_intersect(span([[1, 0]], 2, 3), span([[1, 0]], 2, 5))


def test_left_kernel():
    m = np.array([[1, 0], [2, 0], [0, 0]])
    k = left_kernel(m, 5)
    assert k.shape[0] == 2
    assert not (k @ m % 5).any()

    # random, dependent and zero matrices: the kernel comes back in RREF
    # with rows - rank rows, each killing the matrix
    rng = np.random.default_rng(0)
    cases = [(np.zeros((3, 2), dtype=np.int64), 3), (np.zeros((2, 5), dtype=np.int64), 7)]
    for p in (3, 5, 7):
        for rows, cols in ((1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (3, 6)):
            a = random_matrix(rows, cols, p, rng)
            combos = random_matrix(2, rows, p, rng) @ a % p
            cases += [(a, p), (np.vstack([a, combos]), p)]
    for m, p in cases:
        k = left_kernel(m, p)
        assert np.array_equal(rref(k, p), k)
        assert not (k @ m % p).any()
        assert k.shape == (m.shape[0] - rank_mod(m, p), m.shape[0])


@pytest.mark.parametrize("n,k,p", [(2, 1, 3), (3, 1, 3), (3, 2, 3), (4, 2, 3), (4, 2, 5)])
def test_enumeration_counts(n, k, p):
    subs = list(enumerate_subspaces(n, k, p))
    assert len(subs) == gaussian_binomial(n, k)(p)
    assert len(set(subs)) == len(subs)
    assert all(s.dim == k for s in subs)


def test_enumeration_full_grid():
    for n in range(6):
        for k in range(n + 1):
            for p in (3, 5, 7):
                if subspace_total(n, k, p) > 20000:
                    continue
                got = sum(1 for _ in enumerate_subspaces(n, k, p))
                assert got == gaussian_binomial(n, k)(p)


def test_enumeration_frozen_values():
    assert sum(1 for _ in enumerate_subspaces(2, 1, 3)) == 4
    assert sum(1 for _ in enumerate_subspaces(4, 2, 3)) == 130
    zs = list(enumerate_subspaces(3, 0, 5))
    assert zs == [zero_subspace(3, 5)]


def test_enumeration_chunking_matches_full_run():
    # iter_chunks cuts any slice [start, stop) of the walk into chunks of at
    # most `chunk` items, whose pattern matrices are that slice of the walk
    n, k, p = 4, 2, 3
    full = np.array([h.basis for h in enumerate_subspaces(n, k, p)])
    total = len(full)
    for step in (1, 17, total):
        for chunk in (1, 5, 1 << 14):
            for start in range(0, total, step):
                stop = min(start + step, total)
                parts = list(iter_chunks(n, k, p, start, stop, chunk))
                assert all(0 < hi - lo <= chunk for _, lo, hi in parts)
                mats = [pattern_matrices(n, k, p, *part) for part in parts]
                assert np.array_equal(np.concatenate(mats), full[start:stop])


def _pattern_definition(n, k, p, pattern, codes):
    # each code's base-p digits fill the free slots (row-major: right of the
    # row's pivot, off every pivot column), first slot most significant;
    # pivots are 1
    slots = [(i, j) for i, piv in enumerate(pattern) for j in range(piv + 1, n) if j not in pattern]
    out = np.zeros((len(codes), k, n), dtype=np.int64)
    for mat, code in zip(out, codes):
        mat[range(k), list(pattern)] = 1
        for i, j in reversed(slots):
            code, mat[i, j] = divmod(code, p)
        assert code == 0
    return out


@pytest.mark.parametrize("p", [3, 997])
def test_pattern_matrices_match_the_digit_definition(p):
    rng = random.Random(p)  # blocks pass 2^63 at p = 997
    for n, k, pattern in [(4, 2, (0, 1)), (5, 2, (0, 2)), (6, 3, (0, 2, 3)), (5, 1, (1,)), (3, 0, ())]:
        block = p ** sum(1 for i, piv in enumerate(pattern) for j in range(piv + 1, n) if j not in pattern)
        # the first codes, the block's end, slices that carry across several
        # slots at once, and random ones
        cuts = [(0, min(block, 40)), (max(block - 40, 0), block)]
        cuts += [(max(p**e - 3, 0), min(p**e + 4, block)) for e in (1, 2, 3) if p**e < block]
        cuts += [(lo, min(lo + 9, block)) for lo in (rng.randrange(block) for _ in range(4))]
        for lo, hi in cuts:
            mats = pattern_matrices(n, k, p, pattern, lo, hi)
            assert mats.shape == (hi - lo, k, n) and mats.dtype == np.int32
            # slot-major: a view of one (n, k, N) buffer
            assert mats.transpose(2, 1, 0).flags.c_contiguous
            want = _pattern_definition(n, k, p, pattern, range(lo, hi))
            assert np.array_equal(mats, want), (n, k, pattern, lo)


def test_pattern_matrices_past_int64_codes():
    # Gr_8(F_997^16) without a budget: the first pattern alone has 997^64
    # codes, and slices past 2^63, one carrying across two slots, and at the
    # block's end keep their digits
    n, k, p, pattern = 16, 8, 997, tuple(range(8))
    block = p**64
    for lo in (2**63 - 5, (2**63 // p**2 + 1) * p**2 - 5, block - 7):
        hi = min(lo + 11, block)
        mats = pattern_matrices(n, k, p, pattern, lo, hi)
        assert np.array_equal(mats, _pattern_definition(n, k, p, pattern, range(lo, hi))), lo


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(10, 5, 7, budget=1000))
    try:
        list(enumerate_subspaces(10, 5, 7, budget=1000))
    except BudgetExceeded as e:
        assert e.estimate == gaussian_binomial(10, 5)(7)


def test_budget_rule_bounds_up_to_the_size():
    # size == budget passes and size == budget + 1 refuses; None bounds nothing
    assert BudgetExceeded.check(130, 130) == BudgetExceeded.check(130, None) == 130
    with pytest.raises(BudgetExceeded) as exc:
        BudgetExceeded.check(131, 130)
    assert (exc.value.estimate, exc.value.budget) == (131, 130)
    total = gaussian_binomial(4, 2)(3)
    assert total == 130 and len(list(enumerate_subspaces(4, 2, 3, budget=total))) == total
    assert len(list(enumerate_subspaces(4, 2, 3, budget=None))) == total
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(4, 2, 3, budget=total - 1))


def test_intersect_prefix():
    h = span([[1, 0, 1], [0, 1, 1]], 3, 3)
    got = intersect_prefix(h, 2)
    assert got == span([[1, 2, 0]], 3, 3)


def test_subspaces_between():
    p = 3
    lower = span([[1, 0, 0, 0]], 4, p)
    upper = span([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4, p)
    mids = list(subspaces_between(lower, upper, 2))
    assert len(mids) == gaussian_binomial(2, 1)(p)
    assert all(m.contains(lower) and upper.contains(m) for m in mids)
    assert len(set(mids)) == len(mids)


def test_subspaces_between_refuses_lower_outside_upper():
    p = 3
    lower = span([[0, 0, 0, 1]], 4, p)
    upper = span([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4, p)
    for d in range(1, 4):
        with pytest.raises(ValueError):
            list(subspaces_between(lower, upper, d))
    assert list(subspaces_between(upper, upper, 3)) == [upper]


def test_subspaces_between_trivial_steps_skip_elimination(monkeypatch):
    p = 3
    lower = span([[1, 0, 0, 0]], 4, p)
    upper = span([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4, p)
    calls = []
    # a trivial step neither eliminates nor builds the complement of lower in
    # upper, which only the enumeration uses: the batched step's eliminations
    # are batch_rank calls, and its containment check is a residue
    real = linalg._batch.batch_rank
    monkeypatch.setattr(linalg._batch, "batch_rank", lambda *args: calls.append(args) or real(*args))
    assert list(subspaces_between(lower, upper, lower.dim)) == [lower]
    assert list(subspaces_between(lower, upper, upper.dim)) == [upper]
    assert not calls
    # the one subspace still counts against the budget
    with pytest.raises(BudgetExceeded):
        list(subspaces_between(lower, upper, lower.dim, budget=0))
    assert len(list(subspaces_between(lower, upper, 2))) == p + 1
    assert calls


def _between_pairs(p, rng, n, u):
    """Pairs lower <= upper in F_p^n, lower of dim u, every upper dimension
    from u to n, each enumeration Gr_{d-u}(F_p^{w-u}) kept small."""
    pairs = []
    for w in range(u, n + 1):
        if subspace_total(w - u, (w - u) // 2, p) > 1000:
            continue
        for _ in range(2):
            upper = random_subspace(n, w, p, rng)
            inner = random_subspace(w, u, p, rng).basis if u else np.zeros((0, w), dtype=np.int64)
            pairs.append((span(inner @ upper.basis % p, n, p), upper))
    return pairs


@pytest.mark.parametrize("p", [3, 5, 997])
def test_between_stack_keeps_the_scalar_order(p):
    # one batched step over pairs of mixed upper dimensions yields, pair by
    # pair, the scalar step's subspaces in its order, d = u and d = w included
    rng = np.random.default_rng(p)
    seen = set()
    for n, u in ((1, 0), (3, 0), (4, 1), (5, 2), (6, 2), (6, 3)):
        pairs = _between_pairs(p, rng, n, u)
        rng.shuffle(pairs)
        upper = np.zeros((len(pairs), n, n), dtype=np.int32)
        for row, (_, up) in zip(upper, pairs):
            row[: up.dim] = up.basis
        lower = np.array([low.basis for low, _ in pairs], dtype=np.int32).reshape(len(pairs), u, n)
        for d in range(u, n + 1):
            kids, parents = between_stack(lower, upper, d, p, budget=None)
            want = [(j, x) for j, (low, up) in enumerate(pairs) for x in scalar_between(low, up, d)]
            assert parents.tolist() == [j for j, _ in want]
            assert [Subspace(x, n, p) for x in kids] == [x for _, x in want]
            for low, up in pairs:
                assert list(subspaces_between(low, up, d, budget=None)) == list(scalar_between(low, up, d))
                seen.add(("d=u" if d == u else "d=w" if d == up.dim else "inner") if d <= up.dim else "none")
            seen.update("u=w" for low, up in pairs if low.dim == up.dim == d)
    assert seen == {"d=u", "d=w", "inner", "none", "u=w"}


def test_between_stack_refuses_a_lower_outside_its_upper():
    p = 5
    upper = np.zeros((2, 3, 4), dtype=np.int32)
    upper[:, :3, :3] = np.eye(3, dtype=np.int32)
    lower = np.array([[[1, 2, 0, 0]], [[0, 1, 0, 1]]], dtype=np.int32)
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="not contained"):
            between_stack(lower, upper, d, p)
    kids, parents = between_stack(lower[:1], upper[:1], 2, p)
    assert len(kids) == p + 1 and not parents.any()


def test_between_stack_checks_each_grassmannian():
    # a step is sized per upper dimension: Gr_1(F_5^2) has 6 points
    p = 5
    upper = np.zeros((2, 3, 4), dtype=np.int32)
    upper[0, :3, :3] = np.eye(3, dtype=np.int32)
    upper[1, :2, :2] = np.eye(2, dtype=np.int32)
    lower = np.array([[[1, 0, 0, 0]]] * 2, dtype=np.int32)
    assert len(between_stack(lower, upper, 2, p, budget=6)[0]) == 6 + 1
    with pytest.raises(BudgetExceeded) as exc:
        between_stack(lower, upper, 2, p, budget=5)
    assert exc.value.estimate == 6


@pytest.mark.parametrize("p", [3, 997])
def test_left_kernels_match_the_scalar_kernel(p):
    rng = np.random.default_rng(p)
    for r in range(6):
        for c in range(6):
            for rank in range(min(r, c) + 1):
                a = rng.integers(0, p, (20, r, rank)) @ rng.integers(0, p, (20, rank, c)) % p
                ker, dims = left_kernels(a, p)
                for x, dim, mat in zip(ker, dims, a):
                    want = left_kernel(mat, p)
                    assert dim == len(want) and (x[:dim] == want).all() and not x[dim:].any()


def test_subspace_repr_and_contains_vector():
    s = span([[1, 2]], 2, 3)
    assert "Subspace" in repr(s)
    assert s.contains(span([[2, 1]], 2, 3))
    assert not s.contains(span([[1, 1]], 2, 3))


def test_row_solver_solves_stacks():
    p = 5
    rng = np.random.default_rng(7)
    mat = np.array([[1, 2, 0, 4], [0, 1, 3, 1], [2, 0, 1, 1]])
    solver = RowSolver(mat, p)
    coefs = rng.integers(0, p, size=(2, 3, 3))
    assert (solver.solve_rows(coefs @ mat % p) == coefs).all()
    assert solver.solve_rows(mat[0]).tolist() == [1, 0, 0]
    outside = np.zeros((2, 3, 4), dtype=np.int64)
    outside[1, 2] = [1, 0, 0, 0]
    assert rank_mod(np.vstack([mat, [1, 0, 0, 0]]), p) == 4
    with pytest.raises(ValueError, match="not in row space"):
        solver.solve_rows(outside)
