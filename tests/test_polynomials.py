import pytest

from isograss.polynomials import (
    IntPolynomial,
    InterpolationError,
    gaussian_binomial,
    interpolate_counts,
    monomial,
)


def test_gaussian_small():
    assert gaussian_binomial(2, 1) == IntPolynomial([1, 1])
    assert gaussian_binomial(4, 0) == IntPolynomial([1])
    assert gaussian_binomial(4, 4) == IntPolynomial([1])
    # q^4 + q^3 + 2q^2 + q + 1
    assert gaussian_binomial(4, 2) == IntPolynomial([1, 1, 2, 1, 1])


def test_gaussian_values_match_brute_force_counts():
    # Counts of Gr_2(F_p^4) for p = 3, 5, 7 determine the polynomial.
    assert gaussian_binomial(4, 2)(3) == 130
    assert gaussian_binomial(4, 2)(5) == 806
    assert gaussian_binomial(4, 2)(7) == 2850


def test_gaussian_symmetry():
    for n in range(13):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_gaussian_out_of_range():
    with pytest.raises(ValueError):
        gaussian_binomial(17, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(4, 5)


def test_interpolate_line():
    poly = interpolate_counts([(3, 4), (5, 6), (7, 8)], 1)
    assert poly == IntPolynomial([1, 1])


def test_interpolate_gaussian():
    # counts of Gr_2(F_p^4), p = 3..13, from the enumeration oracle
    samples = [(3, 130), (5, 806), (7, 2850), (11, 16226), (13, 31110)]
    assert interpolate_counts(samples, 4) == gaussian_binomial(4, 2)


def test_interpolate_inconsistent():
    with pytest.raises(InterpolationError):
        interpolate_counts([(3, 4), (5, 6), (7, 9)], 1)


def test_interpolate_requires_enough_samples():
    with pytest.raises(ValueError):
        interpolate_counts([(3, 4), (5, 6)], 3)


def test_interpolate_roundtrip_on_random_polys():
    import random

    rng = random.Random(7)
    primes = [3, 5, 7, 11, 13]
    for _ in range(50):
        coeffs = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 5))]
        poly = IntPolynomial(coeffs)
        if poly.is_zero():
            poly = IntPolynomial([1])
        samples = [(p, poly(p)) for p in primes]
        assert interpolate_counts(samples, len(primes) - 1) == poly


def test_interpolate_negative_coefficients_flag():
    qminus1 = IntPolynomial([-1, 1])
    samples = [(p, qminus1(p)) for p in (3, 5, 7, 11)]
    with pytest.raises(InterpolationError):
        interpolate_counts(samples, 1)
    assert interpolate_counts(samples, 1, require_nonnegative=False) == qminus1


def _report(poly):
    return poly.is_nonnegative(), poly.is_palindromic()


def test_degree_and_report():
    poly = IntPolynomial([1, 1, 1, 1])
    assert poly.degree == 3
    assert _report(poly) == (True, True)
    assert _report(IntPolynomial([2, 2])) == (True, True)
    assert _report(IntPolynomial([0, 1, 1])) == (True, False)
    with pytest.raises(ValueError):
        IntPolynomial([]).degree


def test_arithmetic_and_str():
    assert (monomial(1) + monomial(0)) (5) == 6
    assert (monomial(1) * monomial(1)) == monomial(2)
    assert str(IntPolynomial([1, 1, 0, 1])) == "q^3 + q + 1"
    assert str(IntPolynomial([-1, 1])) == "q - 1"
    assert IntPolynomial([2, 4]).exact_div(2) == IntPolynomial([1, 2])
    with pytest.raises(ValueError):
        IntPolynomial([1, 2]).exact_div(2)
