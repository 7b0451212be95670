"""Adaptive Gauss-Legendre integration on intervals and rectangles.

The panel rule is a fixed 12-node Gauss-Legendre formula (design degree 23,
i.e. exact for polynomials up to that degree), its tensor product in 2D.
Both integrators run one core.  ``_integrate`` cuts each axis at its splits
(known kinks must be passed as splits; adaptivity is a fallback, not a kink
finder), takes one rough panel per cell for the error budget and gives each
cell the budget times its share of the whole length or area.  ``_adapt``
refines a list of cells and returns each cell's result: it accepts a cell
when its panel and its children's sum differ by at most its budget, else
refines the children with equal shares of that budget, one call (one stack
frame) per bisection level.  Only the panel rule and the bisection of a cell
into its two (four, in 2D) children are written per dimension, and each
integrator hands its own pair to ``_integrate``: they run at every bisection
step, where versions generic over the axes would add per-axis Python loops.

Integrands are evaluated on arrays: ``g`` receives 1-D float arrays of node
coordinates (one per variable) and must return an array of the same shape; a
scalar return is broadcast.  One call of ``g`` evaluates the child panels of
up to ``CHUNK`` cells of a bisection level, and each child's value is handed
down as the next level's coarse value, so no panel is evaluated twice.  The
weighted sums run in the order of the nested one-node-at-a-time loops (the
inner sum one node at a time, the outer sum over its results), and a refined
cell sums its children's results in order from 0.0, so every value, error
estimate and panel count is the one the depth-first recursion over single
panels gives, bit for bit.  A non-finite value raises at the first node that
recursion reaches.  An integral that reaches ``MAX_PANELS`` refines no
further, so from there on its result depends on the batched order.  Float
sums are left folds from 0.0 (``left_sum``), not
``sum()``, which compensates its float sums from Python 3.12 on.

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


def _measure(cell) -> float:
    """Length (area) of a cell (lo, hi) ((a, b, c, d)): the product of its extents."""
    return math.prod(hi - lo for lo, hi in zip(cell[::2], cell[1::2]))


def left_sum(values) -> float:
    """The floats of values added one at a time in order, from 0.0: the
    rounding of every step kept, as ``sum()`` of floats gives it up to
    Python 3.11."""
    total = 0.0
    for v in values:
        total += v
    return total


def _total(results) -> tuple:
    """(value, error, panels) of a run of (value, error, panels) results,
    summed in order from 0.0."""
    value = err = 0.0
    panels = 0
    for v, e, n in results:
        value, err, panels = value + v, err + e, panels + n
    return value, err, panels


# _adapt evaluates the children of this many cells in one call of the rule:
# 32 panels, 4 608 nodes, in 2D.  The chunk bounds what a bisection level
# holds; a whole level at once grows fourfold per level.
CHUNK = 8
# One integral evaluates at most about this many panels (0.4 s in 2D on 2
# cores); past them no cell is refined, so an integrand whose rounding noise
# exceeds its budget raises ConvergenceError instead of bisecting on towards
# max_depth, 4^20 panels in 2D.  No integral of the tests or benchmarks
# takes more than 1 602.
MAX_PANELS = 2**16


def _adapt(g, rule, bisect, cells, wholes, budgets, depth, tol, spent) -> list:
    """One (value, error, panels) per cell, each refined to its budget;
    ``wholes`` holds each cell's panel, and ``spent[0]`` counts the panels
    the integral has evaluated.

    Chunk by chunk, the children of the chunk's cells are evaluated in one
    call of the rule, then the children of the cells that miss their budget
    are refined in one recursive call, and each of those cells gets its
    children's results summed.  If the call raises NonFiniteError, the
    chunk's cells are refined one at a time instead, which raises the error
    that comes first in depth-first order: one in the subtree of a cell
    before the failing one, if there is one.  Only this error path evaluates
    a node twice."""
    results = []
    for start in range(0, len(cells), CHUNK):
        chunk = slice(start, start + CHUNK)
        kids = [bisect(*cell) for cell in cells[chunk]]
        rows = [kid for ks in kids for kid in ks]
        spent[0] += len(rows)
        try:
            values = rule(g, np.array(rows)).tolist() if rows else []
        except NonFiniteError:
            if len(kids) > 1:
                for i in range(start, start + len(kids)):
                    one = slice(i, i + 1)
                    _adapt(g, rule, bisect, cells[one], wholes[one], budgets[one], depth, tol, spent)
            raise
        next_cells, next_wholes, next_budgets = [], [], []
        refined = []  # (index in results, number of children) of each refined cell
        at = 0
        for ks, whole, budget in zip(kids, wholes[chunk], budgets[chunk]):
            n = len(ks)
            if not n:
                results.append((whole, 0.0, 1))
                continue
            children, at = values[at:at + n], at + n
            v = left_sum(children)
            e = abs(v - whole)
            if e > budget and depth < tol.max_depth and spent[0] < MAX_PANELS:
                refined.append((len(results), n))
                next_cells.extend(ks)
                next_wholes.extend(children)
                next_budgets.extend([budget / n] * n)
            results.append((v, e, n))
        if refined:
            sub = _adapt(g, rule, bisect, next_cells, next_wholes, next_budgets, depth + 1, tol, spent)
            at = 0
            for i, n in refined:
                results[i], at = _total(sub[at:at + n]), at + n
    return results


def _integrate(g: Callable, rule, bisect, axes: tuple, tol: Tolerance | None) -> QuadratureResult:
    """Integrate g over the box whose axes are the (lo, hi, splits) triples,
    with the panel rule and cell bisection of that many axes."""
    tol = DEFAULT_TOL if tol is None else tol
    cuts = [[lo, *sorted({float(s) for s in splits if lo < s < hi}), hi] for lo, hi, splits in axes]
    # one cell per combination of axis segments, the last axis fastest
    cells = [sum(seg, ()) for seg in product(*(list(zip(c[:-1], c[1:])) for c in cuts))]
    wholes = rule(g, np.array(cells, dtype=float)).tolist()
    budget = max(tol.abs_floor, tol.rel * abs(left_sum(wholes)))
    measure = _measure(tuple(x for lo, hi, _ in axes for x in (lo, hi)))
    budgets = [budget * (_measure(cell) / measure) for cell in cells]
    value, err, panels = _total(_adapt(g, rule, bisect, cells, wholes, budgets, 0, tol, [len(cells)]))
    result = QuadratureResult(value, max(err, 2.0**-50 * (1.0 + abs(value))), panels)
    if err > budget:
        raise ConvergenceError(
            f"{len(axes)}d integral did not converge to {budget:.3e} within depth "
            f"{tol.max_depth} and {MAX_PANELS} panels (error estimate {err:.3e})",
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
    exceeds the budget after max_depth bisections or MAX_PANELS panels.
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
