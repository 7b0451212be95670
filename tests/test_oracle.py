from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from support import deviation_exact, deviation_parts_reference, identity_residual_exact, random_poly

from hhverify import (
    RationalPoly2,
    Rect,
    integrate_2d,
    poly_integral_2d_exact,
)
from hhverify.oracle import deviation_parts

X2Y2 = RationalPoly2({(2, 2): 1})
XY = RationalPoly2({(1, 1): 1})
RECT01 = Rect(0.0, 1.0, 0.0, 1.0)


def test_integral_2d_x2y2():
    assert poly_integral_2d_exact(X2Y2, RECT01) == Fraction(1, 9)


def test_integral_2d_xy():
    assert poly_integral_2d_exact(XY, RECT01) == Fraction(1, 4)


def test_integral_2d_area():
    one = RationalPoly2({(0, 0): 1})
    assert poly_integral_2d_exact(one, Rect(0, 2, 0, 3)) == 6


def _integral_1d(coeffs, lo, hi):
    """The integral over [lo, hi] of a polynomial in t given as {exponent: coeff},
    taken as a polynomial in x alone over Rect(lo, hi, 0, 1)."""
    p = RationalPoly2({(i, 0): c for i, c in coeffs.items()})
    return poly_integral_2d_exact(p, Rect(lo, hi, 0, 1))


def test_integral_1d_square():
    assert _integral_1d({2: 1}, 0, 1) == Fraction(1, 3)


def test_integral_1d_shifted_product():
    # (1-2t)(1-t) = 1 - 3t + 2t^2
    assert _integral_1d({0: 1, 1: -3, 2: 2}, 0, 1) == Fraction(1, 6)


def test_integral_1d_tent_weight_via_split():
    # |1-2t|*t splits into polynomial pieces at t = 1/2
    left = _integral_1d({1: 1, 2: -2}, 0, 0.5)  # (1-2t)t
    right = _integral_1d({1: -1, 2: 2}, 0.5, 1)  # (2t-1)t
    assert left == Fraction(1, 24)
    assert right == Fraction(5, 24)
    assert left + right == Fraction(1, 4)


def test_mixed_partial_rules():
    assert X2Y2.mixed_partial() == RationalPoly2({(1, 1): 4})
    assert XY.mixed_partial() == RationalPoly2({(0, 0): 1})
    assert RationalPoly2({(3, 0): 1}).mixed_partial() == RationalPoly2({})


def test_normalization_merges_and_drops():
    p = RationalPoly2({(1, 1): Fraction(1, 2)}) + RationalPoly2({(1, 1): Fraction(1, 2)})
    assert p == XY
    zero = XY - XY
    assert zero.terms == {}


def test_identity_residual_exact_examples():
    assert identity_residual_exact(X2Y2, RECT01) == 0
    assert identity_residual_exact(XY, RECT01) == 0
    assert identity_residual_exact(RationalPoly2({(0, 0): 7}), RECT01) == 0


def test_identity_sides_x2y2():
    # both sides equal 1/36 on the unit square
    assert deviation_exact(X2Y2, RECT01) == Fraction(1, 36)
    assert deviation_exact(XY, RECT01) == 0


def _random_rect(rng):
    def frac(v):
        return Fraction(int(v), int(rng.integers(1, 5)))

    a = frac(rng.integers(-4, 3))
    b = a + Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    c = frac(rng.integers(-4, 3))
    d = c + Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    return Rect(float(a), float(b), float(c), float(d))


def test_identity_residual_exact_randomized():
    """30 random polynomials over random rational rectangles; exactly zero.

    (The acceptance suite runs the full 200-polynomial version.)
    """
    rng = np.random.default_rng(2024)
    for _ in range(30):
        poly = random_poly(rng)
        rect = _random_rect(rng)
        assert identity_residual_exact(poly, rect) == 0


def test_deviation_parts_match_antiderivative_reference():
    """The per-axis moment form equals antiderivatives evaluated at the
    corners, exactly, on 50 random polynomials over random rectangles with
    negative and fractional ends, and on one sparse polynomial of high degree."""
    rng = np.random.default_rng(2026)
    for _ in range(50):
        poly = random_poly(rng)
        rect = _random_rect(rng)
        assert deviation_parts(poly, rect) == deviation_parts_reference(poly, rect)
    sparse = RationalPoly2({(300, 1): 1})  # x^300 y
    expected = (Fraction(1, 4), Fraction(1, 602), (Fraction(1, 301) + Fraction(1, 2)) / 2)
    assert deviation_parts(sparse, RECT01) == deviation_parts_reference(sparse, RECT01) == expected


def test_float_quadrature_agrees_with_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        poly = random_poly(rng, degree=4)
        rect = _random_rect(rng)
        exact = float(poly_integral_2d_exact(poly, rect))
        q = integrate_2d(poly.to_float_fn(), rect)
        assert abs(q.value - exact) <= 1e-12 * (1.0 + abs(exact))


coeff_st = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
poly_st = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), coeff_st, min_size=0, max_size=6
).map(RationalPoly2)


@settings(max_examples=100, deadline=None)
@given(p1=poly_st, p2=poly_st)
def test_poly_ring_commutativity(p1, p2):
    assert p1 + p2 == p2 + p1
    assert p1 * p2 == p2 * p1


@settings(max_examples=100, deadline=None)
@given(p1=poly_st, p2=poly_st, x=coeff_st, y=coeff_st)
def test_poly_eval_is_ring_homomorphism(p1, p2, x, y):
    assert (p1 + p2).eval_exact(x, y) == p1.eval_exact(x, y) + p2.eval_exact(x, y)
    assert (p1 * p2).eval_exact(x, y) == p1.eval_exact(x, y) * p2.eval_exact(x, y)


@settings(max_examples=50, deadline=None)
@given(p=poly_st)
def test_poly_terms_are_reduced(p):
    for coeff in p.terms.values():
        assert coeff != 0
        assert coeff.denominator > 0  # Fraction guarantees lowest terms


def test_compose_affine_matches_direct_eval():
    rng = np.random.default_rng(11)
    for _ in range(10):
        poly = random_poly(rng, degree=4)
        x0, x1, y0, y1 = (Fraction(int(rng.integers(-3, 4)), 2) for _ in range(4))
        composed = poly.compose_affine(x0, x1, y0, y1)
        for u, v in ((Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(2, 5))):
            assert composed.eval_exact(u, v) == poly.eval_exact(x0 + x1 * u, y0 + y1 * v)
