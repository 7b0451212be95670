"""Adaptive Gauss-Legendre integration on intervals and rectangles.

The panel rule is a fixed 12-node Gauss-Legendre formula (design degree 23,
i.e. exact for polynomials up to that degree).  Adaptive bisection compares a
panel against its two (four, in 2D) children and accepts when the difference
meets the panel's share of the error budget.  Known kink locations should be
passed as mandatory split points; adaptivity is a fallback, not a kink finder.

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

from dataclasses import dataclass
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


def _roundoff(value: float) -> float:
    return 2.0**-50 * (1.0 + abs(value))


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


def _panels_1d(g: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """12-node Gauss-Legendre panels on [lo[k], hi[k]], one call of g."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = mid[:, None] + half[:, None] * _GL_NODES
    fx = _sample(g, x.shape, x.ravel())
    return half * _weighted_sum(fx)


def _panels_2d(g: Callable, cells: np.ndarray) -> np.ndarray:
    """Tensor-product panels on the rows (a, b, c, d) of cells, one call of g.

    The inner sum over the y nodes runs one column at a time across every
    row of every panel, then the outer sum over the x nodes."""
    a, b, c, d = cells.T
    hx, mx = 0.5 * (b - a), 0.5 * (a + b)
    hy, my = 0.5 * (d - c), 0.5 * (c + d)
    x = mx[:, None] + hx[:, None] * _GL_NODES
    y = my[:, None] + hy[:, None] * _GL_NODES
    n = len(_GL_NODES)
    # node (i, j) of panel p sits at flat index (p * n + i) * n + j
    xs = np.repeat(x, n)
    ys = np.repeat(y[:, None, :], n, axis=1).ravel()
    fxy = _sample(g, (len(cells), n, n), xs, ys)
    return hx * hy * _weighted_sum(_weighted_sum(fxy))


def panel_1d(g: Callable, lo: float, hi: float) -> float:
    """Single 12-node Gauss-Legendre panel on [lo, hi]."""
    return float(_panels_1d(g, np.array([lo], dtype=float), np.array([hi], dtype=float))[0])


def panel_2d(g: Callable, a: float, b: float, c: float, d: float) -> float:
    """Single tensor-product Gauss-Legendre panel on [a, b] x [c, d]."""
    return float(_panels_2d(g, np.array([[a, b, c, d]], dtype=float))[0])


def _adapt_1d(g, lo, hi, whole, budget, depth, tol):
    mid = 0.5 * (lo + hi)
    if not (lo < mid < hi):
        return whole, 0.0, 1
    left, right = _panels_1d(g, np.array([lo, mid]), np.array([mid, hi])).tolist()
    refined = left + right
    err = abs(refined - whole)
    if err <= budget or depth >= tol.max_depth:
        return refined, err, 2
    lv, le, ln = _adapt_1d(g, lo, mid, left, 0.5 * budget, depth + 1, tol)
    rv, re, rn = _adapt_1d(g, mid, hi, right, 0.5 * budget, depth + 1, tol)
    return lv + rv, le + re, ln + rn


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
    if tol is None:
        tol = DEFAULT_TOL
    if not lo < hi:
        raise ParameterError(f"empty interval [{lo}, {hi}]")
    inner = sorted({float(s) for s in splits if lo < s < hi})
    edges = [lo, *inner, hi]
    segments = list(zip(edges[:-1], edges[1:]))
    ends = np.array(edges, dtype=float)
    wholes = _panels_1d(g, ends[:-1], ends[1:]).tolist()
    rough = sum(wholes)
    budget = max(tol.abs_floor, tol.rel * abs(rough))
    total_width = hi - lo
    value = 0.0
    err = 0.0
    panels = 0
    for (a, b), whole in zip(segments, wholes):
        v, e, n = _adapt_1d(g, a, b, whole, budget * (b - a) / total_width, 0, tol)
        value += v
        err += e
        panels += n
    result = QuadratureResult(value, max(err, _roundoff(value)), panels)
    if err > budget:
        raise ConvergenceError(
            f"1d integral did not converge to {budget:.3e} within depth "
            f"{tol.max_depth} (error estimate {err:.3e})",
            result,
        )
    return result


def _adapt_2d(g, a, b, c, d, whole, budget, depth, tol):
    mx, my = 0.5 * (a + b), 0.5 * (c + d)
    if not (a < mx < b and c < my < d):
        return whole, 0.0, 1
    quads = (
        (a, mx, c, my),
        (mx, b, c, my),
        (a, mx, my, d),
        (mx, b, my, d),
    )
    children = _panels_2d(g, np.array(quads)).tolist()
    refined = sum(children)
    err = abs(refined - whole)
    if err <= budget or depth >= tol.max_depth:
        return refined, err, 4
    value = 0.0
    total_err = 0.0
    panels = 0
    for cell, child in zip(quads, children):
        v, e, n = _adapt_2d(g, *cell, child, 0.25 * budget, depth + 1, tol)
        value += v
        total_err += e
        panels += n
    return value, total_err, panels


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
    if tol is None:
        tol = DEFAULT_TOL
    xs = [r.a, *sorted({float(s) for s in x_splits if r.a < s < r.b}), r.b]
    ys = [r.c, *sorted({float(s) for s in y_splits if r.c < s < r.d}), r.d]
    cells = [
        (xa, xb, ya, yb)
        for xa, xb in zip(xs[:-1], xs[1:])
        for ya, yb in zip(ys[:-1], ys[1:])
    ]
    wholes = _panels_2d(g, np.array(cells, dtype=float)).tolist()
    rough = sum(wholes)
    budget = max(tol.abs_floor, tol.rel * abs(rough))
    value = 0.0
    err = 0.0
    panels = 0
    for (xa, xb, ya, yb), whole in zip(cells, wholes):
        share = (xb - xa) * (yb - ya) / r.area
        v, e, n = _adapt_2d(g, xa, xb, ya, yb, whole, budget * share, 0, tol)
        value += v
        err += e
        panels += n
    result = QuadratureResult(value, max(err, _roundoff(value)), panels)
    if err > budget:
        raise ConvergenceError(
            f"2d integral did not converge to {budget:.3e} within depth "
            f"{tol.max_depth} (error estimate {err:.3e})",
            result,
        )
    return result
