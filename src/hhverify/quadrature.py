"""Adaptive Gauss-Legendre integration on intervals and rectangles.

The panel rule is a fixed 12-node Gauss-Legendre formula (design degree 23,
i.e. exact for polynomials up to that degree), its tensor product in 2D.
Both integrators run one core.  ``_integrate`` cuts each axis at its splits
(known kinks must be passed as splits; adaptivity is a fallback, not a kink
finder), takes one rough panel per cell for the error budget and gives each
cell the budget times its share of the whole length or area.  ``_adapt``
refines a list of cells in order and sums their results from 0.0: it accepts
a cell when its panel and its children's sum differ by at most its budget,
else recurses on the children with equal shares of that budget, one call
(one stack frame) per bisection level.  Only the panel rule and the bisection
of a cell into its two (four, in 2D) children are written per dimension, and
each integrator hands its own pair to ``_integrate``: they run at every
bisection step, where versions generic over the axes would add per-axis
Python loops.

Integrands are evaluated on arrays: ``g`` receives 1-D float arrays of node
coordinates (one per variable) and must return an array of the same shape; a
scalar return is broadcast.  Each bisection step evaluates all of its child
panels in one call of ``g``, and each child's value is handed down as the
next level's coarse value, so no panel is evaluated twice.  The weighted sums
run in the order of the nested one-node-at-a-time loops (the inner sum one
node at a time, the outer sum over its results), so every value is the one
those loops give, bit for bit.

Error estimates are the accumulated coarse-vs-refined differences, floored at
the roundoff scale of the result; the reported value is always the refined
one, so the estimate is conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .errors import ConvergenceError, NonFiniteError, ParameterError
from .geometry import Rect

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class Tolerance:
    """Quadrature stopping rule: relative target with an absolute floor."""

    rel: float = 1e-10
    abs_floor: float = 1e-12
    max_depth: int = 20


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


def _sample(g: Callable, shape: tuple, *coords: np.ndarray) -> np.ndarray:
    """g at the nodes given by the 1-D coordinate arrays, from one call,
    reshaped to ``shape``.  Raises NonFiniteError at the first non-finite
    value in node order, which is the order the panel loops visit them."""
    values = np.empty(coords[0].shape)
    values[...] = g(*coords)
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        at = [float(c[k]) for c in coords]
        where = f"x = {at[0]}" if len(at) == 1 else f"(x, y) = ({at[0]}, {at[1]})"
        raise NonFiniteError(where, float(values[k]))
    return values.reshape(shape)


def _weighted_sum(values: np.ndarray) -> np.ndarray:
    """sum_k w[k] * values[..., k] over the last axis, added one node at a
    time from 0.0 in node order.  ``add.accumulate`` runs strictly in that
    order; the final ``0.0 +`` gives the +0.0 that a start value of 0.0
    gives when every term is -0.0."""
    return 0.0 + np.add.accumulate(values * _GL_WEIGHTS, axis=-1)[..., -1]


def _panels_1d(g: Callable, rows: np.ndarray) -> np.ndarray:
    """12-node Gauss-Legendre panels on the rows (lo, hi) of rows, one call of g."""
    lo, hi = rows[:, 0], rows[:, 1]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _GL_NODES
    fx = _sample(g, x.shape, x.ravel())
    return half * _weighted_sum(fx)


def _panels_2d(g: Callable, rows: np.ndarray) -> np.ndarray:
    """Tensor-product panels on the rows (a, b, c, d) of rows, one call of g.

    The inner sum over the y nodes runs one column at a time across every
    row of every panel, then the outer sum over the x nodes."""
    a, b, c, d = rows.T
    hx, mx = 0.5 * (b - a), 0.5 * (a + b)
    hy, my = 0.5 * (d - c), 0.5 * (c + d)
    x = mx[:, None] + hx[:, None] * _GL_NODES
    y = my[:, None] + hy[:, None] * _GL_NODES
    n = len(_GL_NODES)
    # node (i, j) of panel p sits at flat index (p * n + i) * n + j
    xs = x.repeat(n)
    ys = y[:, None, :].repeat(n, axis=1).ravel()
    fxy = _sample(g, (len(rows), n, n), xs, ys)
    return hx * hy * _weighted_sum(_weighted_sum(fxy))


def _halves(lo, hi) -> tuple:
    """The two halves of [lo, hi], or () when its midpoint is not inside."""
    mid = 0.5 * (lo + hi)
    return ((lo, mid), (mid, hi)) if lo < mid < hi else ()


def _quarters(a, b, c, d) -> tuple:
    """The four quarters of [a, b] x [c, d], x fastest, or () if a midpoint is not inside."""
    mx, my = 0.5 * (a + b), 0.5 * (c + d)
    inside = a < mx < b and c < my < d
    return ((a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d)) if inside else ()


def panel_1d(g: Callable, lo: float, hi: float) -> float:
    """Single 12-node Gauss-Legendre panel on [lo, hi]."""
    return float(_panels_1d(g, np.array([[lo, hi]], dtype=float))[0])


def panel_2d(g: Callable, a: float, b: float, c: float, d: float) -> float:
    """Single tensor-product Gauss-Legendre panel on [a, b] x [c, d]."""
    return float(_panels_2d(g, np.array([[a, b, c, d]], dtype=float))[0])


def _measure(cell) -> float:
    """Length (area) of a cell (lo, hi) ((a, b, c, d)): the product of its extents."""
    return math.prod(hi - lo for lo, hi in zip(cell[::2], cell[1::2]))


def _adapt(g, rule, bisect, cells, wholes, budgets, depth, tol):
    """(value, error, panels) of the cells, each refined to its budget and
    summed in cell order from 0.0.  ``wholes`` holds each cell's panel."""
    value = err = 0.0
    panels = 0
    for cell, whole, budget in zip(cells, wholes, budgets):
        children = bisect(*cell)
        if not children:
            v, e, n = whole, 0.0, 1
        else:
            values = rule(g, np.array(children)).tolist()
            v = sum(values)
            e, n = abs(v - whole), len(children)
            if e > budget and depth < tol.max_depth:
                shares = [budget / n] * n
                v, e, n = _adapt(g, rule, bisect, children, values, shares, depth + 1, tol)
        value, err, panels = value + v, err + e, panels + n
    return value, err, panels


def _integrate(g: Callable, rule, bisect, axes: tuple, tol: Tolerance | None) -> QuadratureResult:
    """Integrate g over the box whose axes are the (lo, hi, splits) triples,
    with the panel rule and cell bisection of that many axes."""
    tol = DEFAULT_TOL if tol is None else tol
    cuts = [[lo, *sorted({float(s) for s in splits if lo < s < hi}), hi] for lo, hi, splits in axes]
    # one cell per combination of axis segments, the last axis fastest
    cells = [sum(seg, ()) for seg in product(*(list(zip(c[:-1], c[1:])) for c in cuts))]
    wholes = rule(g, np.array(cells, dtype=float)).tolist()
    budget = max(tol.abs_floor, tol.rel * abs(sum(wholes)))
    measure = _measure(tuple(x for lo, hi, _ in axes for x in (lo, hi)))
    budgets = [budget * (_measure(cell) / measure) for cell in cells]
    value, err, panels = _adapt(g, rule, bisect, cells, wholes, budgets, 0, tol)
    result = QuadratureResult(value, max(err, 2.0**-50 * (1.0 + abs(value))), panels)
    if err > budget:
        raise ConvergenceError(
            f"{len(axes)}d integral did not converge to {budget:.3e} within depth "
            f"{tol.max_depth} (error estimate {err:.3e})",
            result,
        )
    return result


def integrate_1d(
    g: Callable,
    lo: float,
    hi: float,
    tol: Tolerance | None = None,
    splits: tuple[float, ...] = (),
) -> QuadratureResult:
    """Adaptively integrate g over [lo, hi].

    ``g`` takes a 1-D float array of abscissae and returns the values there
    as an array of the same shape (a scalar return is broadcast).
    ``splits`` lists interior points where the integrand has a kink (e.g. the
    1/2 coming from |1 - 2t| factors); each subsegment is refined separately.
    Raises NonFiniteError at the first non-finite value, and ConvergenceError
    (carrying the best-effort result) if the total error estimate still
    exceeds the budget after max_depth bisections.
    """
    if not lo < hi:
        raise ParameterError(f"empty interval [{lo}, {hi}]")
    return _integrate(g, _panels_1d, _halves, ((lo, hi, splits),), tol)


def integrate_2d(
    g: Callable,
    r: Rect,
    tol: Tolerance | None = None,
    x_splits: tuple[float, ...] = (),
    y_splits: tuple[float, ...] = (),
) -> QuadratureResult:
    """Adaptively integrate g over the rectangle r (tensor-product panels).

    ``g`` takes two equally shaped 1-D float arrays ``x`` and ``y`` and
    returns the values at the points (x[k], y[k]) as an array of that shape
    (a scalar return is broadcast).  ``x_splits``/``y_splits`` are mandatory
    kink lines, handled like the 1D splits.  Same error contract as
    integrate_1d.
    """
    return _integrate(g, _panels_2d, _quarters, ((r.a, r.b, x_splits), (r.c, r.d, y_splits)), tol)
