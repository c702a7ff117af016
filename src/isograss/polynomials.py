"""Integer polynomials in q: Gaussian binomials, interpolation of point
counts sampled at several primes, and coefficient diagnostics.

All arithmetic is exact (Python integers / Fractions), so counts of any
size on the supported grids are handled without overflow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


class InterpolationError(Exception):
    """Samples do not come from a single integer polynomial on this grid."""


class IntPolynomial:
    """Immutable polynomial with integer coefficients, ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):  # immutable
        raise AttributeError("IntPolynomial is immutable")

    # -- basic queries ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __call__(self, q: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial([-c for c in other.coeffs])

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def exact_div(self, d: int) -> "IntPolynomial":
        if any(c % d for c in self.coeffs):
            raise ValueError(f"coefficients not divisible by {d}: {self.coeffs}")
        return IntPolynomial([c // d for c in self.coeffs])

    # -- hashing / printing -----------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q" if i == 1 else f"{mag}q^{i}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out


ONE = IntPolynomial([1])


def monomial(d: int) -> IntPolynomial:
    return IntPolynomial([0] * d + [1])


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> IntPolynomial:
    """q-binomial coefficient [n choose k]_q, the point count of Gr_k(F_q^n).

    Uses the Pascal-type recursion [n,k] = [n-1,k-1] + q^k [n-1,k], which
    keeps every intermediate value an integer polynomial.
    """
    if not (0 <= k <= n <= 16):
        raise ValueError(f"gaussian_binomial out of range: n={n}, k={k}")
    if k == 0 or k == n:
        return ONE
    return gaussian_binomial(n - 1, k - 1) + monomial(k) * gaussian_binomial(n - 1, k)


def interpolate_counts(
    samples: Sequence[tuple[int, int]],
    degree_bound: int,
    require_nonnegative: bool = True,
) -> IntPolynomial:
    """Recover the integer polynomial behind point counts at several primes.

    ``samples`` is a list of (prime, count) pairs with distinct primes; at
    least ``degree_bound + 1`` are required.  The unique polynomial of degree
    <= degree_bound through the first degree_bound+1 samples is computed by
    exact Lagrange interpolation and then checked against *all* samples.
    Raises InterpolationError if any sample disagrees, if a coefficient is
    non-integral, or (when ``require_nonnegative``) if one is negative.
    """
    primes = [p for p, _ in samples]
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in samples")
    if len(samples) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} samples for degree bound "
            f"{degree_bound}, got {len(samples)}"
        )

    base = samples[: degree_bound + 1]
    coeffs = [Fraction(0)] * (degree_bound + 1)
    for xi, yi in base:
        # Lagrange basis polynomial for xi, accumulated into coeffs.
        num = [Fraction(1)]
        den = Fraction(1)
        for xj, _ in base:
            if xj == xi:
                continue
            num = _poly_mul_linear(num, -xj)
            den *= xi - xj
        scale = Fraction(yi) / den
        for i, c in enumerate(num):
            coeffs[i] += c * scale

    if any(c.denominator != 1 for c in coeffs):
        raise InterpolationError(f"non-integer coefficients: {coeffs}")
    poly = IntPolynomial([int(c) for c in coeffs])
    for p, count in samples:
        got = poly(p)
        if got != count:
            raise InterpolationError(
                f"not polynomial on this grid: predicted {got} at q={p}, counted {count}"
            )
    if require_nonnegative and not poly.is_nonnegative():
        raise InterpolationError(f"negative coefficient in {poly!r}")
    return poly


def _poly_mul_linear(coeffs: list[Fraction], root_neg: int) -> list[Fraction]:
    """Multiply coefficient list by (x + root_neg)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += c * root_neg
        out[i + 1] += c
    return out

