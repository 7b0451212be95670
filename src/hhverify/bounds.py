"""Closed-form constants, deviation terms, the identity check, the
two-dimensional Hermite-Hadamard chain, and the four trapezoid-deviation
bounds.

Bound vocabulary used throughout (also in reports and CSV output):

* ``classical``  - bound for a plainly co-ordinated-convex |d2f|: the corner
  average of |d2f| scaled by (b-a)(d-c)/16.
* ``direct``     - the q = 1 bound for the first-sense generalized class,
  weighted by the kink moments of the two parameter directions.
* ``holder``     - the q > 1 bound obtained through Holder's inequality.
* ``power-mean`` - the q >= 1 bound obtained through the power-mean
  inequality; degenerates to ``direct`` at q = 1.

The direct, Holder, and power-mean bounds each exist in two published forms
that disagree except at classical parameters (s = alpha = m = 1): the
``proof-form`` expression the derivation actually produces, and the
``as-written`` grouping of the final statement.  Proof-form is the default
because only it reduces to the classical bounds; the as-written variants are
kept so the discrepancy can be measured and hunted.

Each theorem is written once, as its entry in ``THEOREMS``: its q range
and its right side.  Every theorem assumes one hypothesis, |d2f|^q
first-sense s-(alpha, m)-convex on the co-ordinates at its own parameters
(the classical bound takes only the classical ones).  ``bound_table`` reads
them from there for every bound of a surface, and ``bound`` is one cell of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from .errors import NonFiniteError, OutOfDomainError, ParameterError
from .geometry import CLASSICAL_PARAMS, GenParams, Rect, require_inside
from .oracle import deviation_parts
from .quadrature import Tolerance, integrate_1d, integrate_2d, left_sum
from .surfaces import Surface, eval_mixed_partial, mixed_partial_func
from .verdicts import HOLDS, INCONCLUSIVE, VIOLATED

PROOF_FORM = "proof-form"
AS_WRITTEN = "as-written"
VARIANTS = (PROOF_FORM, AS_WRITTEN)

CLASSICAL = "classical"
DIRECT = "direct"
HOLDER = "holder"
POWER_MEAN = "power-mean"
BOUND_KINDS = (CLASSICAL, DIRECT, HOLDER, POWER_MEAN)

_UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def kink_moment(theta: float) -> float:
    """The moment integral(0..1) |1 - 2t| * t^theta dt, in closed form.

    Equals 1/(2^th*(th+1)) - 1/(2^th*(th+2)) + 2/(th+2) - 1/(th+1); strictly
    decreasing from 1/2 at theta = 0 to 1/4 at theta = 1.  These are the
    per-direction weights of the direct and power-mean bounds, evaluated at
    theta = alpha*s for each coordinate.
    """
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"theta = {theta} outside [0, 1]")
    two = 2.0**theta
    return 1.0 / (two * (theta + 1.0)) - 1.0 / (two * (theta + 2.0)) + 2.0 / (
        theta + 2.0
    ) - 1.0 / (theta + 1.0)


@dataclass(frozen=True)
class DeviationTerms:
    """The signed trapezoid deviation and its ingredients.

    signed_deviation = corner_avg + integral_mean - marginal_a, where
    marginal_a is half the sum of the four edge integral means (twice their
    average).  integral_budget and marginal_budget propagate the quadrature
    error estimates into integral_mean and marginal_a or, on a polynomial
    surface, where each field is its exact value rounded once, cover that
    rounding and signed_deviation's.  error_budget is their sum.
    """

    corner_avg: float
    integral_mean: float
    marginal_a: float
    signed_deviation: float
    integral_budget: float
    marginal_budget: float

    @property
    def abs_deviation(self) -> float:
        return abs(self.signed_deviation)

    @property
    def error_budget(self) -> float:
        return self.integral_budget + self.marginal_budget


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    variant: str
    lhs: float
    rhs: float
    slack: float
    error_budget: float
    verdict: str


@dataclass(frozen=True)
class ChainReport:
    values: tuple
    monotone: bool
    worst_gap: float
    error_budget: float


def deviation_terms(s: Surface, r: Rect, tol: Tolerance | None = None) -> DeviationTerms:
    """Corner average, double-integral mean and edge term A over r, exact when
    s carries its polynomial (oracle.deviation_parts), else by quadrature."""
    require_inside(s.domain, r.corners(), s.name)
    if s.poly is not None:
        corner, mean, marginal = deviation_parts(s.poly, r)
        signed = corner + mean - marginal
        try:
            corner, mean, marginal, signed = map(float, (corner, mean, marginal, signed))
        except OverflowError:
            raise NonFiniteError(f"{s.name} deviation over {r}", math.inf) from None
        return DeviationTerms(
            corner_avg=corner,
            integral_mean=mean,
            marginal_a=marginal,
            signed_deviation=signed,
            integral_budget=max(math.ulp(mean), math.ulp(signed)) / 2.0,
            marginal_budget=max(math.ulp(marginal), math.ulp(signed)) / 2.0,
        )
    f = s.f
    corner_avg = left_sum(float(f(x, y)) for x, y in r.corners()) / 4.0
    dbl = integrate_2d(f, r, tol)
    integral_mean = dbl.value / r.area
    qx = integrate_1d(lambda x: f(x, r.c) + f(x, r.d), r.a, r.b, tol)
    qy = integrate_1d(lambda y: f(r.a, y) + f(r.b, y), r.c, r.d, tol)
    marginal_a = 0.5 * (qx.value / r.width + qy.value / r.height)
    return DeviationTerms(
        corner_avg=corner_avg,
        integral_mean=integral_mean,
        marginal_a=marginal_a,
        signed_deviation=corner_avg + integral_mean - marginal_a,
        integral_budget=dbl.error_estimate / r.area,
        marginal_budget=0.5 * (qx.error_estimate / r.width + qy.error_estimate / r.height),
    )


def _identity_rhs(s: Surface, r: Rect, tol: Tolerance):
    d2f = mixed_partial_func(s)

    def integrand(lam, mu):
        x = lam * r.a + (1.0 - lam) * r.b
        y = mu * r.c + (1.0 - mu) * r.d
        return (1.0 - 2.0 * lam) * (1.0 - 2.0 * mu) * d2f(x, y)

    qr = integrate_2d(integrand, _UNIT, tol)
    scale = r.area / 4.0
    return scale * qr.value, scale * qr.error_estimate


@dataclass(frozen=True)
class IdentityReport:
    """residual = signed deviation - rhs, where rhs is (b-a)(d-c)/4 times the
    (1-2u)(1-2v)-weighted mixed-partial integral along the affine
    reparameterization of r: the right side of the identity."""

    residual: float
    error_budget: float
    rhs: float


def identity_report(
    s: Surface,
    r: Rect,
    tol: Tolerance | None = None,
    dev: DeviationTerms | None = None,
) -> IdentityReport:
    """Signed deviation minus identity right side, with the combined budget.

    ``dev`` is deviation_terms(s, r, tol) when the caller already has it."""
    if dev is None:
        dev = deviation_terms(s, r, tol)
    rhs, rhs_budget = _identity_rhs(s, r, tol)
    return IdentityReport(
        residual=dev.signed_deviation - rhs,
        error_budget=dev.error_budget + rhs_budget,
        rhs=rhs,
    )


def _verdict(lhs: float, rhs: float, slack: float, budget: float) -> str:
    """holds, violated or inconclusive for slack = rhs - lhs.  Past the
    error budget a violation needs a band of 1e-9 times the larger side, so
    scaling f scales the band with it."""
    if not math.isfinite(rhs):  # a right side that is not a number bounds nothing
        return INCONCLUSIVE
    if slack >= -budget:
        return HOLDS
    if slack < -(budget + 1e-9 * max(abs(lhs), abs(rhs))):
        return VIOLATED
    return INCONCLUSIVE


def _corner_mags(s: Surface, r: Rect, m1: float, m2: float):
    """|d2f| at the four m-scaled evaluation corners (a,c), (a,d/m2),
    (b/m1,c), (b/m1,d/m2); raises OutOfDomainError naming any corner that
    leaves the surface's declared domain."""
    corners = ((r.a, r.c), (r.a, r.d / m2), (r.b / m1, r.c), (r.b / m1, r.d / m2))
    return tuple(abs(eval_mixed_partial(s, x, y)) for x, y in corners)


def _corner_powers(mags, q: float):
    """``mags``^q, None where a power overflows; at q = 1 ``mags`` bit for bit."""
    try:
        return tuple(d**q for d in mags)
    except OverflowError:
        return None


def _kink_rhs(as_written_weight: float, area: float, p: GenParams, variant: str, powers, moment) -> float:
    """The power-mean right side: area / 4^((2q-1)/q) times the q-th root of
    the kink-moment bracket over the corner values |d2f|^q (``powers``).

    proof-form weighs the corners by the products of the moments mx, my
    (``moment`` is kink_moment) and their complements 1/2 - mx, 1/2 - my.
    as-written weighs the second corner pair by (w - mx)(w - my), w =
    ``as_written_weight``: 1 for power-mean, which inflates the bound, 1/2
    for direct.  Direct is this at q = 1 bit for bit, since 4.0**1.0 == 4.0.
    """
    q = p.q
    mx, my = moment(p.theta1), moment(p.theta2)
    e00, e01, e10, e11 = powers
    if variant == PROOF_FORM:
        bracket = (
            mx * my * e00
            + mx * (0.5 - my) * p.m2 * e01
            + (0.5 - mx) * my * p.m1 * e10
            + (0.5 - mx) * (0.5 - my) * p.m1 * p.m2 * e11
        )
    else:
        w = as_written_weight
        bracket = mx * my * (e00 + p.m1 * e10) + (w - mx) * (w - my) * (
            p.m2 * e01 + p.m1 * p.m2 * e11
        )
    return area / 4.0 ** ((2.0 * q - 1.0) / q) * bracket ** (1.0 / q)


def _holder_rhs(area: float, p: GenParams, variant: str, powers, moment) -> float:
    """The Holder right side, conjugate exponent p = q/(q-1).

    proof-form keeps the (theta+1) factors inside the q-th root; as-written
    places them outside, which shrinks the bound by
    ((theta1+1)(theta2+1))^(1-1/q).
    """
    q, conj = p.q, p.p
    e00, e01, e10, e11 = powers
    # The weighted corner sum of |d2f|^q.
    s_term = e00 + p.m2 * p.theta2 * e01 + p.m1 * p.theta1 * e10 + p.m1 * p.m2 * p.theta1 * p.theta2 * e11
    denom = (p.theta1 + 1.0) * (p.theta2 + 1.0)
    base = area / (4.0 * (conj + 1.0) ** (2.0 / conj))
    if variant == PROOF_FORM:
        return base * (s_term / denom) ** (1.0 / q)
    return base / denom * s_term ** (1.0 / q)


@dataclass(frozen=True)
class Theorem:
    """One bound: its q range (``applies``; ``q_range`` in words) and its
    right side ``rhs(area, p, variant, powers, moment)`` (see _kink_rhs)."""

    q_range: str
    applies: Callable[[float], bool]
    rhs: Callable[..., float]


# The classical bound assumes plain co-ordinated convexity of |d2f|, the first
# sense at classical parameters; its right side is area/16 times the corner
# average of |d2f|.
THEOREMS = {
    CLASSICAL: Theorem(
        "q = 1", lambda q: q == 1.0, lambda area, p, variant, e, moment: area / 16.0 * (left_sum(e) / 4.0)
    ),
    DIRECT: Theorem("q = 1", lambda q: q == 1.0, partial(_kink_rhs, 0.5)),
    HOLDER: Theorem("q > 1", lambda q: q > 1.0, _holder_rhs),
    POWER_MEAN: Theorem("q >= 1", lambda q: q >= 1.0, partial(_kink_rhs, 1.0)),
}


def _require_known(kinds, variants) -> None:
    for what, names, known in (("bound kind", kinds, BOUND_KINDS), ("variant", variants, VARIANTS)):
        if unknown := [name for name in names if name not in known]:
            raise ParameterError(f"unknown {what} {unknown[0]!r}; expected one of {known}")


def _report(kind: str, area: float, p: GenParams, variant: str, dev, powers, moment) -> BoundReport:
    """The ``kind`` bound at p against the deviation ``dev``, from the corner
    powers (_corner_powers): the one call of a right side.  Where a power
    |d2f|^q overflowed (``powers`` None) the right side is NaN, so inconclusive."""
    rhs = math.nan if powers is None else THEOREMS[kind].rhs(area, p, variant, powers, moment)
    lhs, budget = dev.abs_deviation, dev.error_budget
    slack = rhs - lhs
    return BoundReport(kind, variant, lhs, rhs, slack, budget, _verdict(lhs, rhs, slack, budget))


def bound_table(s: Surface, r: Rect, cells, kinds, variants, dev: DeviationTerms) -> list:
    """(p, rows) for each cell of s over r, rows listing (kind, variant,
    report) for every bound that ``kinds`` and ``variants`` select: the
    classical cell first, with the classical bound at the classical
    parameters and proof-form, then each p of ``cells`` with each kind that
    applies at p.q x each variant (no rows where none applies).  ``dev`` is
    deviation_terms(s, r).

    A right side depends on its cell only through (theta1, theta2, m1, m2,
    q), so the cells with equal (theta1, theta2, m1, m2, q) share one rows
    list.  The area is taken once, kink_moment once per theta and the corner
    powers |d2f|^q once per (m1, m2, q); the report is None where the
    corners leave the domain.  An unknown kind or variant raises
    ParameterError."""
    _require_known(kinds, variants)
    area, moment = r.area, cache(kink_moment)
    shared: dict = {}  # (theta1, theta2, m1, m2, q) -> the rows of its first cell

    @cache
    def mags(m1, m2):  # None off the domain
        try:
            return _corner_mags(s, r, m1, m2)
        except OutOfDomainError:
            return None

    powers = cache(lambda m1, m2, q: _corner_powers(mags(m1, m2), q))

    def row(kind, p, variant):
        rep = mags(p.m1, p.m2) and _report(kind, area, p, variant, dev, powers(p.m1, p.m2, p.q), moment)
        return kind, variant, rep

    table = [(CLASSICAL_PARAMS, [row(CLASSICAL, CLASSICAL_PARAMS, PROOF_FORM)])] if CLASSICAL in kinds else []
    grid = [kind for kind in BOUND_KINDS if kind != CLASSICAL and kind in kinds]
    for p in cells:
        key = (p.theta1, p.theta2, p.m1, p.m2, p.q)
        if key not in shared:
            shared[key] = [row(k, p, v) for k in grid if THEOREMS[k].applies(p.q) for v in variants]
        table.append((p, shared[key]))
    return table


def bound(
    kind: str, s: Surface, r: Rect, p: GenParams = CLASSICAL_PARAMS, variant: str = PROOF_FORM,
    dev: DeviationTerms | None = None,
) -> BoundReport:
    """The ``kind`` bound (one of BOUND_KINDS) of s over r at p: one cell of
    ``bound_table``, checked.  The classical bound takes only the classical
    parameters and the proof-form variant, and each kind only its q range;
    ``dev`` is deviation_terms(s, r) when the caller already has it.  Corners
    off the domain raise OutOfDomainError."""
    _require_known([kind], [variant])
    if kind == CLASSICAL and (p != CLASSICAL_PARAMS or variant != PROOF_FORM):
        raise ParameterError(
            f"{kind} bound takes only the classical parameters and the {PROOF_FORM} variant, "
            f"got {p} and {variant}"
        )
    if not THEOREMS[kind].applies(p.q):
        raise ParameterError(f"{kind} bound requires {THEOREMS[kind].q_range}, got q = {p.q}")
    if dev is None:
        dev = deviation_terms(s, r)
    powers = _corner_powers(_corner_mags(s, r, p.m1, p.m2), p.q)
    return _report(kind, r.area, p, variant, dev, powers, kink_moment)


def hh_chain_2d(
    s: Surface,
    r: Rect,
    tol: Tolerance | None = None,
    dev: DeviationTerms | None = None,
) -> ChainReport:
    """The five-term two-dimensional Hermite-Hadamard chain over r:
    center value <= mid-line means <= double mean <= edge means <= corner
    average, each consecutive step holding for co-ordinated convex surfaces.

    The double mean, the edge mean (half of marginal_a) and the corner
    average, with their budgets, are the deviation's; ``dev`` is
    deviation_terms(s, r, tol) when the caller already has it.  Only the two
    mid-lines are integrated here.
    """
    if dev is None:
        dev = deviation_terms(s, r, tol)
    f = s.f
    center = float(f(r.mid_x, r.mid_y))
    q_mid_x = integrate_1d(lambda u: f(u, r.mid_y), r.a, r.b, tol)
    q_mid_y = integrate_1d(lambda v: f(r.mid_x, v), r.c, r.d, tol)
    mid_mean = 0.5 * (q_mid_x.value / r.width + q_mid_y.value / r.height)
    values = [center, mid_mean, dev.integral_mean, 0.5 * dev.marginal_a, dev.corner_avg]
    budgets = [
        0.0,
        0.5 * (q_mid_x.error_estimate / r.width + q_mid_y.error_estimate / r.height),
        dev.integral_budget,
        0.5 * dev.marginal_budget,
        0.0,
    ]
    gaps = [b - a for a, b in zip(values[:-1], values[1:])]
    monotone = all(
        gap >= -(ba + bb + 1e-12)
        for gap, ba, bb in zip(gaps, budgets[:-1], budgets[1:])
    )
    return ChainReport(
        values=tuple(values),
        monotone=monotone,
        worst_gap=min(gaps),
        error_budget=left_sum(budgets),
    )
