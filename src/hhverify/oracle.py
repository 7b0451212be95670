"""Exact rational-arithmetic ground truth for bivariate polynomials.

Coefficients are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms), so every integral, derivative and composition here is exact.  Floats
such as rectangle endpoints convert with ``Fraction(float)``, which is their
exact binary value.  This is the oracle the floating-point pipeline is tested
against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .geometry import Rect


class RationalPoly1:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object]):
        clean: dict[int, Fraction] = {}
        for i, v in dict(coeffs).items():
            i = int(i)
            if i < 0:
                raise ValueError(f"negative exponent {i}")
            fv = clean.get(i, Fraction(0)) + Fraction(v)
            if fv:
                clean[i] = fv
            elif i in clean:
                del clean[i]
        self.coeffs = clean

    def __add__(self, other: "RationalPoly1") -> "RationalPoly1":
        out = dict(self.coeffs)
        for i, v in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + v
        return RationalPoly1(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly1) and self.coeffs == other.coeffs

    def eval_exact(self, t) -> Fraction:
        t = Fraction(t)
        return sum((c * t**i for i, c in self.coeffs.items()), Fraction(0))

    def integral(self, lo, hi) -> Fraction:
        """Exact antiderivative evaluation over [lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        total = Fraction(0)
        for i, c in self.coeffs.items():
            total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total


class RationalPoly2:
    """Bivariate polynomial sum of coeff * x^i * y^j with rational coeffs.

    Terms are normalized on construction: duplicate (i, j) keys merged, zero
    coefficients dropped.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], object]):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in dict(terms).items():
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair ({i}, {j})")
            fv = clean.get((i, j), Fraction(0)) + Fraction(v)
            if fv:
                clean[(i, j)] = fv
            elif (i, j) in clean:
                del clean[(i, j)]
        self.terms = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPoly2) and self.terms == other.terms

    def __add__(self, other: "RationalPoly2") -> "RationalPoly2":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return RationalPoly2(out)

    def __neg__(self) -> "RationalPoly2":
        return RationalPoly2({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "RationalPoly2") -> "RationalPoly2":
        return self + (-other)

    def __mul__(self, other: "RationalPoly2") -> "RationalPoly2":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return RationalPoly2(out)

    def eval_exact(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()), Fraction(0))

    def mixed_partial(self) -> "RationalPoly2":
        """Termwise d^2/dxdy: coeff*i*j with exponents (i-1, j-1)."""
        out = {}
        for (i, j), c in self.terms.items():
            if i >= 1 and j >= 1:
                out[(i - 1, j - 1)] = c * i * j
        return RationalPoly2(out)

    def substitute_x(self, value) -> RationalPoly1:
        """Restrict to the vertical line x = value (polynomial in y)."""
        v = Fraction(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, Fraction(0)) + c * v**i
        return RationalPoly1(out)

    def substitute_y(self, value) -> RationalPoly1:
        """Restrict to the horizontal line y = value (polynomial in x)."""
        v = Fraction(value)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, Fraction(0)) + c * v**j
        return RationalPoly1(out)

    def compose_affine(self, x0, x1, y0, y1) -> "RationalPoly2":
        """Exact substitution x <- x0 + x1*u, y <- y0 + y1*v."""
        x0, x1, y0, y1 = map(Fraction, (x0, x1, y0, y1))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            xs = _affine_power(x0, x1, i)
            ys = _affine_power(y0, y1, j)
            for k, cx in enumerate(xs):
                if not cx:
                    continue
                for l, cy in enumerate(ys):
                    if not cy:
                        continue
                    key = (k, l)
                    out[key] = out.get(key, Fraction(0)) + c * cx * cy
        return RationalPoly2(out)

    def to_float_fn(self) -> Callable:
        """Floating-point evaluator (accepts scalars or numpy arrays)."""
        items = sorted((i, j, float(c)) for (i, j), c in self.terms.items())

        def fn(x, y):
            total = 0.0 * (x + y)
            for i, j, c in items:
                total = total + c * x**i * y**j
            return total

        return fn


def _affine_power(c0: Fraction, c1: Fraction, n: int) -> list[Fraction]:
    """Coefficients of (c0 + c1*t)^n as a polynomial in t."""
    out = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (len(out) + 1)
        for k, v in enumerate(out):
            nxt[k] += v * c0
            nxt[k + 1] += v * c1
        out = nxt
    return out


def poly_integral_2d_exact(p: RationalPoly2, r: Rect) -> Fraction:
    """Exact iterated integral of p over the rectangle r."""
    a, b, c, d = map(Fraction, (r.a, r.b, r.c, r.d))
    total = Fraction(0)
    for (i, j), coeff in p.terms.items():
        total += (
            coeff
            * (b ** (i + 1) - a ** (i + 1))
            / (i + 1)
            * (d ** (j + 1) - c ** (j + 1))
            / (j + 1)
        )
    return total


def deviation_parts(p: RationalPoly2, r: Rect) -> tuple[Fraction, Fraction, Fraction]:
    """Exact corner average, double-integral mean and edge term A over r,
    where A is half the sum of the four edge means (twice their average)."""
    a, b, c, d = map(Fraction, (r.a, r.b, r.c, r.d))
    corner = (
        p.eval_exact(a, c) + p.eval_exact(a, d) + p.eval_exact(b, c) + p.eval_exact(b, d)
    ) / 4
    mean = poly_integral_2d_exact(p, r) / ((b - a) * (d - c))
    gx = p.substitute_y(c) + p.substitute_y(d)
    gy = p.substitute_x(a) + p.substitute_x(b)
    marginal = (gx.integral(a, b) / (b - a) + gy.integral(c, d) / (d - c)) / 2
    return corner, mean, marginal
