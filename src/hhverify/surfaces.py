"""Test surfaces: bivariate functions with their mixed second partials.

A Surface carries an evaluation map, an optional analytic mixed partial, and a
declared validity domain.  The domain is deliberately wider than the rectangle
a run integrates over, because the generalized bounds evaluate derivatives at
m-scaled corners (b/m1, d/m2) that land outside that rectangle when m < 1.
Surfaces are immutable; evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteError, ParameterError
from .geometry import GenParams, Rect, require_inside, scaled_eval_edges
from .oracle import RationalPoly2


@dataclass(frozen=True)
class Surface:
    """A named test function on a declared rectangular domain.

    ``f`` maps (x, y) -> value and must accept numpy arrays as well as
    scalars (all the built-in corpus entries do): quadrature and the
    membership refuters evaluate it on whole arrays of points.  ``d2f`` is
    the analytic mixed partial d^2 f / dx dy, or None for an f-only surface,
    on which the bounds, the identity and the hypothesis refuters raise
    ParameterError.  ``poly`` is set only by poly_surface: the exact
    polynomial, of which ``f`` and ``d2f`` are the float evaluators.
    """

    name: str
    domain: Rect
    f: Callable
    d2f: Callable | None = None
    poly: RationalPoly2 | None = None

    def __str__(self):
        return f"{self.name} on {self.domain}"


def mixed_partial_func(s: Surface) -> Callable:
    """The analytic mixed partial of s, unchecked (scalars or arrays);
    ParameterError for an f-only surface.

    Callers are expected to have verified domain coverage up front; this is
    the fast path used by quadrature and the membership refuters.
    """
    if s.d2f is None:
        raise ParameterError(f"{s.name} has no analytic mixed partial d2f")
    return s.d2f


def eval_mixed_partial(s: Surface, x: float, y: float) -> float:
    """Evaluate the analytic d^2 f / dx dy at (x, y), inside the domain."""
    d2f = mixed_partial_func(s)
    require_inside(s.domain, ((x, y),), s.name)
    value = float(d2f(x, y))
    if not np.isfinite(value):
        raise NonFiniteError(f"{s.name} mixed partial at ({x}, {y})", value)
    return value


def require_hull_inside(s: Surface, rect: Rect, params: GenParams) -> None:
    """Raise OutOfDomainError naming the first corner, in Rect.corners order,
    of the evaluation hull (scaled_eval_edges) that lies outside the surface's
    declared domain.  A hull too large for a Rect lies outside every domain."""
    a, b, c, d = scaled_eval_edges(rect, params)
    corners = ((a, c), (a, d), (b, c), (b, d))
    require_inside(s.domain, corners, f"{s.name}: m-scaled evaluation corner")


def poly_surface(name: str, poly: RationalPoly2, domain: Rect) -> Surface:
    """Surface backed by an exact rational polynomial (analytic derivative)."""
    return Surface(
        name=name,
        domain=domain,
        f=poly.to_float_fn(),
        d2f=poly.mixed_partial().to_float_fn(),
        poly=poly,
    )


@dataclass(frozen=True)
class CorpusEntry:
    surface: Surface
    formula: str


_WIDE = Rect(-8.0, 8.0, -8.0, 8.0)


def _build_corpus() -> dict[str, CorpusEntry]:
    entries: dict[str, CorpusEntry] = {}

    def add_poly(name, terms, formula):
        entries[name] = CorpusEntry(poly_surface(name, RationalPoly2(terms), _WIDE), formula)

    add_poly("xy", {(1, 1): 1}, "x*y")
    add_poly("x2y2", {(2, 2): 1}, "x^2*y^2")
    add_poly("x3y3", {(3, 3): 1}, "x^3*y^3")
    add_poly("square_sum", {(2, 0): 1, (1, 1): 2, (0, 2): 1}, "(x+y)^2")
    add_poly("constant", {(0, 0): 1}, "1")
    # Deliberately not co-ordinated convex: both partial maps are concave.
    add_poly("neg_squares", {(2, 0): -1, (0, 2): -1}, "-x^2-y^2")

    exp_sum = Surface(
        name="exp_sum",
        domain=_WIDE,
        f=lambda x, y: np.exp(x + y),
        d2f=lambda x, y: np.exp(x + y),
    )
    entries["exp_sum"] = CorpusEntry(exp_sum, "exp(x+y)")
    return entries


_CORPUS = _build_corpus()


def corpus() -> dict[str, CorpusEntry]:
    """The registered test surfaces, keyed by name (insertion order stable)."""
    return dict(_CORPUS)
