"""Rectangles and the generalized-convexity parameter tuple."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfDomainError, ParameterError


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [a, b] x [c, d] with finite a < b and c < d (strict),
    whose width, height and area are finite, and the area positive."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise ParameterError(f"non-finite rectangle [{self.a}, {self.b}] x [{self.c}, {self.d}]")
        if not (self.a < self.b and self.c < self.d):
            raise ParameterError(
                f"degenerate rectangle [{self.a}, {self.b}] x [{self.c}, {self.d}]"
            )
        if not 0.0 < self.area < math.inf:
            raise ParameterError(
                f"rectangle {self} has width {self.width}, height {self.height} and area "
                f"{self.area}; each must be a positive finite float"
            )

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def height(self) -> float:
        return self.d - self.c

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def mid_x(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def mid_y(self) -> float:
        return 0.5 * (self.c + self.d)

    def corners(self):
        """The four corners, in (a,c), (a,d), (b,c), (b,d) order."""
        return ((self.a, self.c), (self.a, self.d), (self.b, self.c), (self.b, self.d))

    def contains(self, x: float, y: float) -> bool:
        return self.a <= x <= self.b and self.c <= y <= self.d

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.a <= other.a
            and other.b <= self.b
            and self.c <= other.c
            and other.d <= self.d
        )

    def __str__(self):
        return f"[{self.a}, {self.b}] x [{self.c}, {self.d}]"


@dataclass(frozen=True)
class GenParams:
    """Parameters (s1, s2, alpha1, alpha2, m1, m2) of the generalized convexity
    classes, plus the integrability exponent q.

    s1, s2 in (0, 1]; alpha1, alpha2 in [0, 1]; m1, m2 in (0, 1] (m = 0 would
    make the scaled evaluation points b/m1, d/m2 undefined); q >= 1.
    """

    s1: float = 1.0
    s2: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    m1: float = 1.0
    m2: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        for name in ("s1", "s2"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ParameterError(f"{name} = {v} outside (0, 1]")
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} = {v} outside [0, 1]")
        for name in ("m1", "m2"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ParameterError(f"{name} = {v} outside (0, 1]")
        if not self.q >= 1.0:
            raise ParameterError(f"q = {self.q} must be >= 1")

    @property
    def theta1(self) -> float:
        return self.alpha1 * self.s1

    @property
    def theta2(self) -> float:
        return self.alpha2 * self.s2

    @property
    def p(self) -> float:
        """Conjugate exponent q/(q-1); only defined for q > 1."""
        if self.q <= 1.0:
            raise ParameterError("conjugate exponent requires q > 1")
        return self.q / (self.q - 1.0)


CLASSICAL_PARAMS = GenParams()


def scaled_eval_edges(rect: Rect, params: GenParams) -> tuple:
    """The edges (a, b, c, d) of the box holding every point the bounds and
    the membership refuters evaluate over ``rect`` at ``params``.

    The bounds touch the m-scaled corners b/m1 and d/m2; the refuters divide
    *sampled* coordinates by m, so the box covers a/m1 and c/m2 too when
    those fall left/below of the rectangle (negative coordinates, m < 1).
    An edge may overflow to infinity, and the area may too, so the box is
    not always a Rect.
    """
    xs = (rect.a, rect.b, rect.a / params.m1, rect.b / params.m1)
    ys = (rect.c, rect.d, rect.c / params.m2, rect.d / params.m2)
    return min(xs), max(xs), min(ys), max(ys)


def require_inside(domain: Rect, points, context: str) -> None:
    """Raise OutOfDomainError, with ``context``, at the first of ``points``
    that lies outside ``domain``."""
    for x, y in points:
        if not domain.contains(x, y):
            raise OutOfDomainError((x, y), domain, context=context)
