import numpy as np
import pytest

from isograss import _batch
from isograss.bilinear import SKEW, SYMMETRIC, standard_space
from isograss.linalg import enumerate_subspaces, rank_mod, span
from isograss.orbits import (
    DOUBLEPRIME0,
    PRIME0,
    InvalidLabel,
    SingleLabel,
    component_group_order,
    label_of,
    orbit_dim,
    valid_labels,
)
from isograss.paving import isotropic_subspaces
from isograss.polynomials import gaussian_binomial, interpolate_counts
from isograss.sumspace import SumSpace, orbit_point_counts


def rs(labels):
    return [lab.r for lab in labels]


def stratum_counts(space, k):
    """Point count of every stratum of Gr_k(space), keyed by its rank symbol."""
    return {lab.rs[0]: c for lab, c in orbit_point_counts(SumSpace((space,)), k).items()}


def test_valid_labels_examples():
    assert rs(valid_labels(SKEW, 4, 2)) == [0, 2]
    assert rs(valid_labels(SYMMETRIC, 2, 1)) == [PRIME0, DOUBLEPRIME0, 1]
    assert rs(valid_labels(SYMMETRIC, 5, 2)) == [0, 1, 2]
    assert rs(valid_labels(SKEW, 2, 1)) == [0]
    assert rs(valid_labels(SYMMETRIC, 4, 2)) == [PRIME0, DOUBLEPRIME0, 1, 2]
    assert rs(valid_labels(SYMMETRIC, 3, 2)) == [1, 2]
    assert rs(valid_labels(SKEW, 4, 3)) == [2]
    assert rs(valid_labels(SYMMETRIC, 1, 1)) == [1]
    assert rs(valid_labels(SYMMETRIC, 4, 0)) == [0]


def test_invalid_labels_rejected():
    with pytest.raises(InvalidLabel):
        SingleLabel(SKEW, 4, 2, 1)  # odd rank in a skew space
    with pytest.raises(InvalidLabel):
        SingleLabel(SYMMETRIC, 4, 2, 0)  # integer 0 replaced by the tags
    with pytest.raises(InvalidLabel):
        SingleLabel(SYMMETRIC, 5, 2, 3)
    with pytest.raises(InvalidLabel):
        SingleLabel(SYMMETRIC, 5, 1, PRIME0)


def test_label_of_examples():
    sp4 = standard_space(SKEW, 4, 3)
    lag = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
    assert label_of(sp4, lag) == SingleLabel(SKEW, 4, 2, 0)

    o2 = standard_space(SYMMETRIC, 2, 3)
    assert label_of(o2, span([[1, 0]], 2, 3)).r == PRIME0
    assert label_of(o2, span([[0, 1]], 2, 3)).r == DOUBLEPRIME0


def test_label_of_requires_witness():
    import numpy as np
    from isograss.bilinear import BilinearSpace

    bare = BilinearSpace(2, 3, SYMMETRIC, np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        label_of(bare, span([[1, 0]], 2, 3))


@pytest.mark.parametrize("n", [4, 6])
def test_same_ruling_matches_label_of_tags(n):
    # every maximal isotropic of O4 and O6 at p = 3: same_ruling against the
    # witness, the stacked-rank parity of dim(h cap witness) and label_of's tag agree
    p, k = 3, n // 2
    space = standard_space(SYMMETRIC, n, p)
    w = space.witness.basis
    hs = list(isotropic_subspaces(space, k))
    same = _batch.same_ruling(np.stack([h.basis for h in hs]), k, w, p)
    tags = {PRIME0: 0, DOUBLEPRIME0: 0}
    for h, s in zip(hs, same.tolist()):
        meet = 2 * k - rank_mod(np.vstack([h.basis, w]), p)
        assert s == (meet % 2 == k % 2)
        tag = label_of(space, h).r
        assert tag == (PRIME0 if s else DOUBLEPRIME0)
        tags[tag] += 1
    assert tags[PRIME0] == tags[DOUBLEPRIME0] == len(hs) // 2 > 0


def test_orbit_dim_frozen():
    assert orbit_dim(SingleLabel(SKEW, 4, 2, 0)) == 3
    assert orbit_dim(SingleLabel(SYMMETRIC, 4, 2, PRIME0)) == 1
    assert orbit_dim(SingleLabel(SYMMETRIC, 4, 2, 2)) == 4
    assert orbit_dim(SingleLabel(SKEW, 4, 2, 2)) == 4
    assert orbit_dim(SingleLabel(SYMMETRIC, 2, 1, 1)) == 1


def test_component_group_order():
    assert component_group_order(SingleLabel(SYMMETRIC, 4, 2, 2)) == 2
    assert component_group_order(SingleLabel(SYMMETRIC, 4, 2, PRIME0)) == 1
    assert component_group_order(SingleLabel(SKEW, 4, 2, 2)) == 1
    assert component_group_order(SingleLabel(SYMMETRIC, 3, 1, 0)) == 1
    assert component_group_order(SingleLabel(SYMMETRIC, 3, 1, 1)) == 2


def test_stratum_points_examples():
    sp4 = standard_space(SKEW, 4, 3)
    assert stratum_counts(sp4, 2)[0] == 40
    assert stratum_counts(sp4, 2)[2] == 90

    o2 = standard_space(SYMMETRIC, 2, 5)
    assert stratum_counts(o2, 1)[1] == 4
    assert stratum_counts(o2, 1)[PRIME0] == 1
    assert stratum_counts(o2, 1)[DOUBLEPRIME0] == 1


def test_partition_small_grid():
    for form, dims in ((SKEW, (2, 4)), (SYMMETRIC, (1, 2, 3, 4, 5))):
        for n in dims:
            for p in (3, 5):
                space = standard_space(form, n, p)
                for k in range(n + 1):
                    counts = stratum_counts(space, k)
                    labels = rs(valid_labels(form, n, k))
                    assert set(counts) <= set(labels)
                    # every valid label is realized for split forms
                    assert set(counts) == set(labels)
                    assert all(c > 0 for c in counts.values())
                    assert sum(counts.values()) == gaussian_binomial(n, k)(p)


def test_partition_dimension_six():
    for form in (SKEW, SYMMETRIC):
        space = standard_space(form, 6, 3)
        for k in range(7):
            counts = stratum_counts(space, k)
            assert set(counts) == set(rs(valid_labels(form, 6, k)))
            assert sum(counts.values()) == gaussian_binomial(6, k)(3)


def test_dimension_degree_law_n6_lines():
    # degree law for Gr_1 of the 6-dimensional forms (degrees up to 5)
    primes = (3, 5, 7, 11, 13, 17)
    for form in (SKEW, SYMMETRIC):
        spaces = {p: standard_space(form, 6, p) for p in primes}
        for k in (1, 5):
            for lab in valid_labels(form, 6, k):
                d = orbit_dim(lab)
                samples = [(p, stratum_counts(spaces[p], k)[lab.r]) for p in primes]
                poly = interpolate_counts(samples[: d + 1], d, require_nonnegative=False)
                assert poly.degree == d
                for p, c in samples:
                    assert poly(p) == c


def test_batched_counts_agree_with_scalar_labels():
    for form, n in ((SKEW, 4), (SYMMETRIC, 3), (SYMMETRIC, 4)):
        space = standard_space(form, n, 3)
        for k in range(n + 1):
            scalar: dict = {}
            for h in enumerate_subspaces(n, k, 3):
                r = label_of(space, h).r
                scalar[r] = scalar.get(r, 0) + 1
            assert scalar == stratum_counts(space, k)


def test_duality_counts():
    # perp gives a bijection C_{k,r} <-> C_{n-k, n-2k+r}
    for form, n in ((SKEW, 4), (SYMMETRIC, 4), (SYMMETRIC, 5)):
        for p in (3, 5):
            space = standard_space(form, n, p)
            for k in range(n + 1):
                for lab in valid_labels(form, n, k):
                    if lab.r in (PRIME0, DOUBLEPRIME0):
                        continue
                    rdual = n - 2 * k + lab.r
                    assert stratum_counts(space, k)[lab.r] == stratum_counts(space, n - k)[rdual]


def test_two_rulings_have_equal_counts():
    for n in (2, 4, 6):
        for p in (3, 5):
            space = standard_space(SYMMETRIC, n, p)
            k = n // 2
            assert stratum_counts(space, k)[PRIME0] == stratum_counts(space, k)[DOUBLEPRIME0]


def test_dimension_degree_law_small():
    # interpolated stratum-count degree equals orbit_dim (n <= 4)
    primes = (3, 5, 7, 11, 13)
    for form, n in ((SKEW, 2), (SKEW, 4), (SYMMETRIC, 2), (SYMMETRIC, 3), (SYMMETRIC, 4)):
        spaces = {p: standard_space(form, n, p) for p in primes}
        for k in range(n + 1):
            for lab in valid_labels(form, n, k):
                samples = [(p, stratum_counts(spaces[p], k)[lab.r]) for p in primes]
                d = orbit_dim(lab)
                if d == 0:
                    assert all(c == 1 or lab.k in (0, n) for _, c in samples)
                    continue
                poly = interpolate_counts(samples[: d + 2], d, require_nonnegative=False)
                assert poly.degree == d
                for p, c in samples:
                    assert poly(p) == c


def test_lagrangian_count_polynomial():
    samples = []
    for p in (3, 5, 7, 11):
        sp4 = standard_space(SKEW, 4, p)
        samples.append((p, stratum_counts(sp4, 2)[0]))
    assert samples[0][1] == 40
    poly = interpolate_counts(samples, 3)
    assert list(poly.coeffs) == [1, 1, 1, 1]
