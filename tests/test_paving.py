from collections import Counter

import numpy as np
import pytest

from isograss import paving
from isograss.bilinear import (
    SKEW,
    SYMMETRIC,
    BilinearSpace,
    pairing,
    radical,
    standard_space,
    subquotient,
)
from isograss.linalg import (
    BudgetExceeded,
    RowSolver,
    Subspace,
    enumerate_subspaces,
    full_subspace,
    left_kernel,
    rank_mod,
    span,
    subspace_intersect,
    zero_subspace,
)
from isograss.paving import (
    NotIsotropic,
    build_paving,
    iso_grassmannian_count,
    isotropic_subspaces,
)
from isograss.polynomials import IntPolynomial, gaussian_binomial


def test_paving_sp2():
    paving = build_paving(standard_space(SKEW, 2, 3))
    assert sorted(pc.affine_dim for pc in paving.pieces(1)) == [0, 1]
    assert paving.count_polynomial(1) == IntPolynomial([1, 1])


def test_paving_o2():
    paving = build_paving(standard_space(SYMMETRIC, 2, 3))
    assert sorted(pc.affine_dim for pc in paving.pieces(1)) == [0, 0]


def test_paving_sp4_lagrangians():
    paving = build_paving(standard_space(SKEW, 4, 3))
    assert sorted(pc.affine_dim for pc in paving.pieces(2)) == [0, 1, 2, 3]
    assert paving.count_polynomial(2)(3) == 40


def test_paving_o4_maximal():
    paving = build_paving(standard_space(SYMMETRIC, 4, 3))
    assert sorted(pc.affine_dim for pc in paving.pieces(2)) == [0, 0, 1, 1]
    assert paving.count_polynomial(2) == IntPolynomial([2, 2])
    assert paving.count_polynomial(2)(3) == 8


def test_classify_two_lines_sp2():
    space = standard_space(SKEW, 2, 3)
    paving = build_paving(space)
    a = paving.pieces(1)[paving.classify(span([[1, 0]], 2, 3).basis[None])[0]].piece_id
    b = paving.pieces(1)[paving.classify(span([[0, 1]], 2, 3).basis[None])[0]].piece_id
    assert a != b


def test_classify_rejects_non_isotropic():
    space = standard_space(SYMMETRIC, 2, 3)
    paving = build_paving(space)
    with pytest.raises(NotIsotropic):
        paving.classify(span([[1, 1]], 2, 3).basis[None])


def test_classify_empty_stack_and_k_zero():
    space = standard_space(SKEW, 4, 3)
    paving = build_paving(space)
    got = paving.classify(np.zeros((0, 2, 4), dtype=np.int64))
    assert got.shape == (0,) and got.dtype == np.int64
    assert paving.classify(np.zeros((3, 0, 4))).tolist() == [0, 0, 0]


def test_classify_refuses_any_bad_item_in_a_stack():
    space = standard_space(SYMMETRIC, 4, 3)
    paving = build_paving(space)
    lines = np.stack([h.basis for h in isotropic_subspaces(space, 1)])
    with pytest.raises(NotIsotropic):
        paving.classify(np.concatenate([lines, [[[1, 0, 0, 1]]]]))  # <v, v> = 2
    good = np.stack([h.basis for h in isotropic_subspaces(space, 2)])
    twice = np.concatenate([lines[:1], lines[:1]], axis=1)  # one line's row twice
    with pytest.raises(ValueError, match="dependent"):
        paving.classify(np.concatenate([good, twice]))
    with pytest.raises(ValueError):
        paving.classify(lines[:, :, :3])  # wrong n
    with pytest.raises(ValueError):
        paving.classify(lines[0])  # not a stack


def oracle_classify(level, h: Subspace) -> int:
    """Piece index of one subspace by the definitional case split of a paving
    level: the per-subspace recursion that the bulk ``Paving.classify`` must
    reproduce.  ``step.solver`` solves in the basis [L; W] of L^perp."""
    k = h.dim
    if k == 0:
        return 0
    step = level.step
    p, line, w_dim = h.p, step.solver.mat[0], step.solver.mat.shape[0] - 1

    def project(rows):
        coords = step.solver.solve_rows(rows)
        return span(coords[:, 1:], w_dim, p) if w_dim else zero_subspace(0, p)

    len1 = len(step.sub.pieces(k - 1))
    vals = h.basis @ step.gram_line % p
    if h.contains(span(line.reshape(1, -1), h.n, p)):
        return oracle_classify(step.sub, project(h.basis))
    if not vals.any():
        return len1 + oracle_classify(step.sub, project(h.basis))
    ker = left_kernel(vals.reshape(-1, 1), p)
    len2 = len(step.sub.pieces(k))
    return len1 + len2 + oracle_classify(step.sub, project(ker @ h.basis % p))


def _rebased(mats, p, rng):
    """Each basis of the stack times a random invertible k x k matrix."""
    n_items, k, _ = mats.shape
    g = rng.integers(0, p, size=(n_items, k, k))
    for i in range(n_items):
        while rank_mod(g[i], p) < k:
            g[i] = rng.integers(0, p, size=(k, k))
    return g @ mats % p


def _standard_flags(space, max_len=2):
    """A deterministic sample of isotropic flags, lengths 0..max_len."""
    flags = [()]
    iso_lines = []
    for h in isotropic_subspaces(space, 1):
        iso_lines.append(h)
        if len(iso_lines) == 2:
            break
    if iso_lines:
        flags.append((iso_lines[0],))
    planes = [h for h in isotropic_subspaces(space, 2)]
    for plane in planes[:2]:
        for line in iso_lines:
            if plane.contains(line):
                flags.append((line, plane))
                break
    return flags


@pytest.mark.parametrize(
    "form,n",
    [(SKEW, 2), (SKEW, 4), (SKEW, 6), (SYMMETRIC, 2), (SYMMETRIC, 3), (SYMMETRIC, 4),
     (SYMMETRIC, 5)],
)
def test_paving_laws_exhaustive(form, n):
    # classification is total and single-valued and agrees with the
    # per-subspace oracle on RREF and on re-based bases; pieces have p^dim
    # points; the flag-intersection vector is constant per piece
    rng = np.random.default_rng(n)
    for p in (3,) if n == 6 else (3, 5):
        space = standard_space(form, n, p)
        for flag in _standard_flags(space):
            paving = build_paving(space, flag)
            for k in range(n // 2 + 1):
                hs = list(isotropic_subspaces(space, k))
                mats = np.stack([h.basis for h in hs])
                got = paving.classify(mats)
                assert got.tolist() == [oracle_classify(paving._root, h) for h in hs]
                assert (paving.classify(_rebased(mats, p, rng)) == got).all()
                tallies = Counter(got.tolist())
                pieces = paving.pieces(k)
                for h, idx in zip(hs, got):
                    inv = tuple(subspace_intersect(h, m).dim for m in flag)
                    assert inv == pieces[idx].invariants
                for idx, piece in enumerate(pieces):
                    assert tallies[idx] == p**piece.affine_dim
                assert sum(tallies.values()) == paving.count_polynomial(k)(p)


def test_iso_count_examples():
    assert iso_grassmannian_count(SKEW, 2, 1) == IntPolynomial([1, 1])
    assert iso_grassmannian_count(SKEW, 4, 2) == IntPolynomial([1, 1, 1, 1])
    assert iso_grassmannian_count(SYMMETRIC, 4, 2) == IntPolynomial([2, 2])
    assert iso_grassmannian_count(SYMMETRIC, 4, 1) == IntPolynomial([1, 2, 1])


def test_iso_count_at_k0_builds_no_form(monkeypatch):
    forms = [(SKEW, n) for n in (0, 2, 4, 6)] + [(SYMMETRIC, n) for n in range(7)]
    for form, n in forms:
        want = build_paving(standard_space(form, n, 3)).count_polynomial(0)
        assert iso_grassmannian_count(form, n, 0) == want == IntPolynomial([1])

    def refuse(*args):
        raise AssertionError("build_paving called at k = 0")

    monkeypatch.setattr(paving, "build_paving", refuse)
    for form, n in forms:
        assert iso_grassmannian_count(form, n, 0) == IntPolynomial([1])
    # what standard_space refuses is still refused
    for form, n in ((SKEW, 3), ("hermitian", 2), (SYMMETRIC, -1)):
        with pytest.raises(ValueError):
            iso_grassmannian_count(form, n, 0)


def test_iso_count_closed_form_is_the_paving_count():
    # the product formula is the paving's sum of q^dim for every split form
    # with n <= 10 and every k, including k > n where both are 0
    for form in (SKEW, SYMMETRIC):
        for n in range(0, 11, 2) if form == SKEW else range(11):
            whole = build_paving(standard_space(form, n, 3))
            for k in range(n + 2):
                assert iso_grassmannian_count(form, n, k) == whole.count_polynomial(k), (form, n, k)
    assert iso_grassmannian_count(SYMMETRIC, 4, -1) == IntPolynomial([])
    # it refuses what standard_space refuses, with the same message, at every k
    for form, n in ((SKEW, 1), (SKEW, 3), (SKEW, 9), (SYMMETRIC, -1), (SKEW, -2), ("hermitian", 2)):
        with pytest.raises(ValueError) as want:
            standard_space(form, n, 3)
        for k in (0, 1, 2):
            with pytest.raises(ValueError, match=f"^{want.value}$"):
                iso_grassmannian_count(form, n, k)


def test_iso_count_matches_brute_force():
    for form, n in ((SKEW, 2), (SKEW, 4), (SKEW, 6), (SYMMETRIC, 2), (SYMMETRIC, 3),
                    (SYMMETRIC, 4), (SYMMETRIC, 5), (SYMMETRIC, 6)):
        for k in range(n // 2 + 1):
            poly = iso_grassmannian_count(form, n, k)
            primes = (3, 5, 7) if n <= 5 else (3, 5)
            for p in primes:
                space = standard_space(form, n, p)
                brute = sum(1 for _ in isotropic_subspaces(space, k))
                assert poly(p) == brute, (form, n, k, p)


def test_counts_at_every_k_compute_no_level_step(monkeypatch):
    # a resolution tower asks for many counts: the closed form answers each
    # without a paving, so without a line, a subquotient or a solver
    def no_step(*args):
        raise AssertionError("a level step was computed")

    monkeypatch.setattr(paving, "_choose_line", no_step)
    monkeypatch.setattr(paving, "build_paving", no_step)
    for form, n in ((SKEW, 2), (SKEW, 4), (SKEW, 16), (SYMMETRIC, 1), (SYMMETRIC, 4), (SYMMETRIC, 16)):
        for k in range(n + 2):
            iso_grassmannian_count(form, n, k)
    # the maximal isotropics of split O16 number prod_{i<8} (q^i + 1)
    assert iso_grassmannian_count(SYMMETRIC, 16, 8)(3) == 2 * 4 * 10 * 28 * 82 * 244 * 730 * 2188


def test_flagless_level_walks_one_chunk_for_its_line(monkeypatch):
    # a nondegenerate level takes the first isotropic line of the walk: one
    # chunk of candidate lines per level, not 2^14 isotropic ones
    chunks = []
    real = paving._batch.pattern_matrices

    def counted(*args):
        chunks.append(args)
        return real(*args)

    monkeypatch.setattr(paving._batch, "pattern_matrices", counted)
    pieces = build_paving(standard_space(SYMMETRIC, 16, 997)).pieces(1)
    assert len(pieces) == 16
    assert len(chunks) == 8  # levels O16, O14, ..., O2


def test_recursion_branches_cover_everything():
    # X1 + X2 + X3 piece counts at q = p partition the isotropic Grassmannian
    for form, n, k in ((SKEW, 4, 2), (SYMMETRIC, 5, 2)):
        space = standard_space(form, n, 3)
        paving = build_paving(space)
        by_branch = Counter()
        for pc in paving.pieces(k):
            by_branch[pc.piece_id.split(".", 1)[0]] += 3**pc.affine_dim
        assert sum(by_branch.values()) == paving.count_polynomial(k)(3)


def fibered_partition_counts(space, flag, r, k):
    """Per paving piece, the number of pairs (R, H) with R <= H isotropic of
    dim k, fibered over R in Gr_r(M1 cap rad V), with M1 the first flag member.

    For each R the quotient V/R carries the induced form and the image flag;
    its paving classifies the H containing R.  Asserts the three laws: the
    piece lists agree across R (same recursion on isomorphic data), each
    fiber piece has exactly p^f points, and each total is
    #Gr_r(M1 cap rad V) * p^f.
    """
    p = space.p
    m1 = flag[0] if flag else zero_subspace(space.n, p)
    base = subspace_intersect(m1, radical(space, full_subspace(space.n, p)))
    if r > base.dim:
        return []
    ref_sig, totals, n_base = None, None, 0
    for rq in enumerate_subspaces(base.dim, r, p):
        rsub = span(rq.basis @ base.basis % p, space.n, p) if rq.dim else zero_subspace(space.n, p)
        n_base += 1
        comp, quotient = subquotient(space, rsub, full_subspace(space.n, p))
        # (M + R)/R in quotient coordinates: solve in the basis [R; comp], drop R's part
        solver = RowSolver(np.vstack([rsub.basis, comp]), p)
        image = [span(solver.solve_rows(m.basis)[:, r:], quotient.n, p) for m in flag]
        paving = build_paving(quotient, image)
        sig = [(pc.affine_dim, pc.invariants, pc.piece_id) for pc in paving.pieces(k - r)]
        if ref_sig is None:
            ref_sig, totals = sig, [0] * len(sig)
        assert sig == ref_sig, "piece structure varies across the base"
        hqs = [hq.basis for hq in isotropic_subspaces(quotient, k - r)]
        tallies = Counter(paving.classify(np.stack(hqs)).tolist())
        for idx, pc in enumerate(paving.pieces(k - r)):
            assert tallies[idx] == p**pc.affine_dim, pc.piece_id
            totals[idx] += tallies[idx]
    base_count = gaussian_binomial(base.dim, r)(p)
    assert n_base == base_count
    for (affine_dim, _, piece_id), total in zip(ref_sig, totals):
        assert total == base_count * p**affine_dim, piece_id
    return totals


def test_fibered_zero_gram_flag_pairs():
    # fully degenerate form: Y(r,k) is the variety of flag pairs R <= H
    p, n = 3, 3
    zero_form = BilinearSpace(n, p, SYMMETRIC, np.zeros((n, n), dtype=np.int64))
    full_flag = (span(np.eye(n, dtype=np.int64), n, p),)
    for r, k in ((1, 1), (1, 2), (0, 2), (2, 2)):
        pieces = fibered_partition_counts(zero_form, full_flag, r, k)
        total = sum(pieces)
        expect = gaussian_binomial(n, r)(p) * gaussian_binomial(n - r, k - r)(p)
        assert total == expect


def test_fibered_reduces_to_paving_counts_when_r_zero():
    space = standard_space(SKEW, 4, 3)
    line = next(iter(isotropic_subspaces(space, 1)))
    pieces = fibered_partition_counts(space, (line,), 0, 2)
    paving = build_paving(space, (line,))
    assert pieces == [3**q.affine_dim for q in paving.pieces(2)]


def test_fibered_empty_when_r_too_large():
    space = standard_space(SKEW, 4, 3)
    line = next(iter(isotropic_subspaces(space, 1)))
    # nondegenerate: M1 cap rad V = 0, so r = 1 is out of reach
    assert fibered_partition_counts(space, (line,), 1, 2) == []


def test_fibered_mixed_degenerate():
    # rank-1 radical: flags inside the radical fiber correctly
    p = 3
    gram = np.diag([0, 1, 1]).astype(np.int64)
    space = BilinearSpace(3, p, SYMMETRIC, gram)
    m1 = span([[1, 0, 0]], 3, p)
    pieces = fibered_partition_counts(space, (m1,), 1, 1)
    assert sum(pieces) == 1  # only H = rad itself


@pytest.mark.parametrize("form,n,p", [(SKEW, 4, 3), (SYMMETRIC, 4, 3), (SYMMETRIC, 3, 5), (SYMMETRIC, 5, 5)])
def test_isotropic_bases_is_the_filtered_walk(form, n, p):
    # one int32 stack per walk, in enumeration order: the subspaces of the
    # whole walk whose bases pair to zero.  Gr_2 and Gr_3 of F_5^5 hold
    # 20,306 subspaces each, more than one walk chunk of 2^14
    space = standard_space(form, n, p)
    for k in range(n + 1):
        got = paving.isotropic_bases(space, k, budget=None)
        want = [h.basis for h in enumerate_subspaces(n, k, p, budget=None)
                if not pairing(space, h.basis, h.basis).any()]
        assert isinstance(got, np.ndarray) and got.dtype == np.int32
        assert got.shape == (len(want), k, n)
        assert (got == np.array(want, dtype=np.int32).reshape(got.shape)).all()


def test_isotropic_bases_shapes():
    o1, o4 = standard_space(SYMMETRIC, 1, 3), standard_space(SYMMETRIC, 4, 3)
    assert paving.isotropic_bases(o1, 1).shape == (0, 1, 1)  # an anisotropic line
    assert paving.isotropic_bases(o4, 3).shape == (0, 3, 4)
    assert paving.isotropic_bases(o4, 0).shape == (1, 0, 4)
    assert paving.isotropic_bases(o4, 2).shape == (8, 2, 4)  # 2 (q + 1) planes


def test_isotropic_bases_refuses_at_the_call():
    space = standard_space(SYMMETRIC, 4, 3)
    total = gaussian_binomial(4, 2)(3)
    with pytest.raises(BudgetExceeded) as refused:
        paving.isotropic_bases(space, 2, budget=total - 1)
    assert refused.value.estimate == total
    assert len(paving.isotropic_bases(space, 2, budget=total)) == 8
