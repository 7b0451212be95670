"""Exact rational-arithmetic ground truth for bivariate polynomials.

Coefficients are ``fractions.Fraction`` (arbitrary precision, always in lowest
terms), so every integral, derivative and composition here is exact.  Floats
such as rectangle endpoints convert with ``Fraction(float)``, which is their
exact binary value.  This is the oracle the floating-point pipeline is tested
against.

The integral and the deviation's three parts are one form, the sum over terms
of coeff times a functional of x^i times one of y^j: the endpoint sum
lo^i + hi^i or the integral of t^i over [lo, hi], taken once per exponent
that occurs, so a sparse polynomial costs per term, not per degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .geometry import Rect


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


def _moments(p: RationalPoly2, r: Rect) -> list[tuple[dict, dict]]:
    """Per axis of r, the endpoint sum lo^i + hi^i and the integral of t^i
    over [lo, hi], for each exponent i that axis has in p.terms."""
    out = []
    for k, lo, hi in ((0, r.a, r.b), (1, r.c, r.d)):
        lo, hi = Fraction(lo), Fraction(hi)
        exps = {key[k] for key in p.terms}
        ends = {i: lo**i + hi**i for i in exps}
        ints = {i: (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i in exps}
        out.append((ends, ints))
    return out


def _form(p: RationalPoly2, xs: dict, ys: dict) -> Fraction:
    """Sum of coeff * xs[i] * ys[j] over the terms coeff * x^i * y^j of p."""
    return sum((c * xs[i] * ys[j] for (i, j), c in p.terms.items()), Fraction(0))


def poly_integral_2d_exact(p: RationalPoly2, r: Rect) -> Fraction:
    """Exact integral of p over the rectangle r."""
    (_, ix), (_, iy) = _moments(p, r)
    return _form(p, ix, iy)


def deviation_parts(p: RationalPoly2, r: Rect) -> tuple[Fraction, Fraction, Fraction]:
    """Exact corner average, double-integral mean and edge term A over r,
    where A is half the sum of the four edge means (twice their average)."""
    (sx, ix), (sy, iy) = _moments(p, r)
    width = Fraction(r.b) - Fraction(r.a)
    height = Fraction(r.d) - Fraction(r.c)
    corner = _form(p, sx, sy) / 4
    mean = _form(p, ix, iy) / (width * height)
    marginal = (_form(p, ix, sy) / width + _form(p, sx, iy) / height) / 2
    return corner, mean, marginal
