"""Shared test helpers.

The cross-check integrators here are deliberately independent of the
package's Gauss-Legendre machinery (different rule family), so agreement is
meaningful evidence rather than a tautology.
"""

from fractions import Fraction

import mpmath

from hhverify import RationalPoly2


def random_poly(rng, degree=6):
    """Up to 9 random terms x^i y^j, i, j <= degree, with small rational
    coefficients."""
    terms = {}
    for _ in range(int(rng.integers(1, 10))):
        i = int(rng.integers(0, degree + 1))
        j = int(rng.integers(0, degree + 1))
        terms[(i, j)] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
    return RationalPoly2(terms)


def tanh_sinh_1d(g, lo, hi, dps=30, splits=()):
    """tanh-sinh quadrature via mpmath; handles endpoint singularities.

    Interior kinks must be listed in ``splits`` (tanh-sinh only deals with
    endpoint trouble)."""
    points = [lo, *sorted(s for s in splits if lo < s < hi), hi]
    with mpmath.workdps(dps):
        return float(mpmath.quad(g, points))


def simpson_1d(g, lo, hi, n=4001):
    """Plain composite Simpson for smooth integrands."""
    if n % 2 == 0:
        n += 1
    h = (hi - lo) / (n - 1)
    total = g(lo) + g(hi)
    for i in range(1, n - 1):
        total += g(lo + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def simpson_2d(g, a, b, c, d, n=201):
    """Composite Simpson tensor rule for smooth bivariate integrands."""
    return simpson_1d(lambda x: simpson_1d(lambda y: g(x, y), c, d, n), a, b, n)


def rel_close(x, y, rtol):
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))
