"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  The grid is the eight standard spaces
Sp2, Sp4, O2, O3, O4, Sp2+O2, Sp2+Sp2, O2+O3.
"""

import pytest

from isograss import verify
from isograss.bilinear import SKEW, SYMMETRIC, standard_space
from isograss.linalg import enumerate_subspaces
from isograss.orbits import DOUBLEPRIME0, PRIME0
from isograss.polynomials import IntPolynomial, interpolate_counts
from isograss.sumspace import (
    MultiLabel,
    SumSpace,
    build_sum_space,
    canonical_representative,
    orbit_point_counts,
)
from isograss.towers import tower_fiber

from checks import check_line

GRID = verify.GRID_SPACES
WORKERS = 2


def stratum_counts(space, k):
    """Point count of every stratum of Gr_k(space), keyed by its rank symbol."""
    return {lab.rs[0]: c for lab, c in orbit_point_counts(SumSpace((space,)), k).items()}


def _finish(criterion: str, results):
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"\n[{status}] {criterion}")
    for r in failed:
        print("   " + check_line(r))
    assert not failed, f"{len(failed)} failing checks"


def test_criterion_1_partition():
    results = verify.suite_partition(GRID, primes=(3, 5), workers=WORKERS)
    _finish("criterion 1: partition/classification over p in {3,5}", results)


def test_criterion_2_degree_law():
    results = verify.suite_degrees(GRID, primes=(3, 5, 7, 11), workers=WORKERS)
    _finish(
        "criterion 2: interpolated stratum polynomials, degree = orbit dim",
        results,
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stratum point counts can carry negative coefficients (the anisotropic "
        "lines of split O2 number q - 1 at every prime), so requiring "
        "nonnegative coefficients for every stratum polynomial cannot hold; "
        "nonnegativity genuinely holds for closures and towers, which "
        "criterion 2's main test and criterion 5 cover"
    ),
)
def test_criterion_2_strict_nonnegativity():
    samples = []
    for p in (3, 5, 7, 11):
        o2 = standard_space(SYMMETRIC, 2, p)
        samples.append((p, stratum_counts(o2, 1)[1]))
    assert samples == [(3, 2), (5, 4), (7, 6), (11, 10)]  # q - 1 exactly
    interpolate_counts(samples, 1)  # raises: negative coefficient


def test_criterion_3_witt_transporter():
    results = verify.suite_witt(GRID, primes=(3,), pairs_per_space=1000)
    _finish("criterion 3: Witt decomposition and transporter, 1000 pairs/space", results)


def test_criterion_4_paving_laws():
    results = verify.suite_paving(primes=(3, 5))
    _finish("criterion 4: paving partition/size/constancy laws, n <= 5", results)


def test_criterion_5_resolution_laws():
    results = []
    results += verify.suite_towers(GRID, primes=(3,))
    results += verify.suite_fibers(GRID, primes=(3, 5, 7))
    results += verify.suite_closure(GRID, primes=(3,))
    _finish("criterion 5: tower counts, fiber laws, closure order", results)


def test_criterion_6_cover_components():
    results = []
    for spec in GRID:
        results += verify._cover_components(spec, verify.DEFAULT_BUDGET)
    _finish("criterion 6: covering fibers split as 2^d components", results)


def test_criterion_7_slice_positivity():
    results = verify.suite_slices(GRID, samples=100)
    _finish("criterion 7: slice weights strictly positive, 100 samples/label", results)


def test_criterion_8_frozen_numbers():
    checks = []

    total = sum(1 for _ in enumerate_subspaces(4, 2, 3))
    checks.append(("Gr_2(F_3^4) has 130 points", total == 130))

    sp4 = standard_space(SKEW, 4, 3)
    lag3 = stratum_counts(sp4, 2)[0]
    checks.append(("Lagrangian count in Sp(4) at q=3 is 40", lag3 == 40))
    samples = [
        (p, stratum_counts(standard_space(SKEW, 4, p), 2)[0]) for p in (3, 5, 7, 11)
    ]
    poly = interpolate_counts(samples, 3)
    checks.append(
        ("Lagrangian polynomial is q^3+q^2+q+1", poly == IntPolynomial([1, 1, 1, 1]))
    )

    o4 = standard_space(SYMMETRIC, 4, 3)
    fam1 = stratum_counts(o4, 2)[PRIME0]
    fam2 = stratum_counts(o4, 2)[DOUBLEPRIME0]
    checks.append(
        ("split O(4) maximal isotropics: 8 in two families of 4",
         fam1 == 4 and fam2 == 4)
    )

    fiber_samples = []
    for p in (3, 5):
        space = build_sum_space("O4", p)
        rep = canonical_representative(space, MultiLabel((2,), (PRIME0,)))
        fiber_samples.append((p, len(tower_fiber(space, MultiLabel((2,), (1,)), rep))))
    fiber_poly = interpolate_counts(fiber_samples, 1)
    checks.append(
        ("O(4) k=2 r=1 fiber polynomial is q+1", fiber_poly == IntPolynomial([1, 1]))
    )

    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"\n[{status}] criterion 8: frozen regression numbers")
    for name in failed:
        print(f"   FAIL  {name}")
    assert not failed
