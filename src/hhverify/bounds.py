"""Closed-form constants, deviation terms, the identity check, the two
Hermite-Hadamard chains, and the four trapezoid-deviation bounds.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfDomainError, ParameterError
from .geometry import GenParams, Rect
from .quadrature import DEFAULT_TOL, Tolerance, integrate_1d, integrate_2d
from .surfaces import Surface, eval_mixed_partial, mixed_partial_func

PROOF_FORM = "proof-form"
AS_WRITTEN = "as-written"
VARIANTS = (PROOF_FORM, AS_WRITTEN)

CLASSICAL = "classical"
DIRECT = "direct"
HOLDER = "holder"
POWER_MEAN = "power-mean"
BOUND_KINDS = (CLASSICAL, DIRECT, HOLDER, POWER_MEAN)

HOLDS = "holds"
BOUND_VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

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
    marginal_a averages the four edge integral means.  error_budget is the
    linear propagation of the quadrature error estimates.
    """

    corner_avg: float
    integral_mean: float
    marginal_a: float
    signed_deviation: float
    abs_deviation: float
    error_budget: float


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


def _check_rect(s: Surface, r: Rect) -> None:
    for x, y in r.corners():
        if not s.domain.contains(x, y):
            raise OutOfDomainError((x, y), s.domain, context=s.name)


def deviation_terms(s: Surface, r: Rect, tol: Tolerance | None = None) -> DeviationTerms:
    """Corner average, double-integral mean and edge-mean average over r."""
    if tol is None:
        tol = DEFAULT_TOL
    _check_rect(s, r)
    f = s.f
    corner_avg = sum(float(f(x, y)) for x, y in r.corners()) / 4.0
    dbl = integrate_2d(f, r, tol)
    integral_mean = dbl.value / r.area
    qx = integrate_1d(lambda x: f(x, r.c) + f(x, r.d), r.a, r.b, tol)
    qy = integrate_1d(lambda y: f(r.a, y) + f(r.b, y), r.c, r.d, tol)
    marginal_a = 0.5 * (qx.value / r.width + qy.value / r.height)
    signed = corner_avg + integral_mean - marginal_a
    budget = dbl.error_estimate / r.area + 0.5 * (
        qx.error_estimate / r.width + qy.error_estimate / r.height
    )
    return DeviationTerms(
        corner_avg=corner_avg,
        integral_mean=integral_mean,
        marginal_a=marginal_a,
        signed_deviation=signed,
        abs_deviation=abs(signed),
        error_budget=budget,
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


def identity_rhs(s: Surface, r: Rect, tol: Tolerance | None = None) -> float:
    """(b-a)(d-c)/4 times the (1-2u)(1-2v)-weighted mixed-partial integral
    along the affine reparameterization of r; the right side of the identity."""
    value, _ = _identity_rhs(s, r, tol or DEFAULT_TOL)
    return value


@dataclass(frozen=True)
class IdentityReport:
    residual: float
    error_budget: float


def identity_report(s: Surface, r: Rect, tol: Tolerance | None = None) -> IdentityReport:
    """Signed deviation minus identity right side, with the combined budget."""
    tol = tol or DEFAULT_TOL
    dev = deviation_terms(s, r, tol)
    rhs, rhs_budget = _identity_rhs(s, r, tol)
    return IdentityReport(
        residual=dev.signed_deviation - rhs,
        error_budget=dev.error_budget + rhs_budget,
    )


def _verdict(slack: float, budget: float, rhs: float) -> str:
    if slack >= -budget:
        return HOLDS
    if slack < -(budget + 1e-9 * (1.0 + abs(rhs))):
        return BOUND_VIOLATED
    return INCONCLUSIVE


def _report(theorem: str, variant: str, lhs: float, rhs: float, budget: float) -> BoundReport:
    slack = rhs - lhs
    return BoundReport(
        theorem=theorem,
        variant=variant,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        error_budget=budget,
        verdict=_verdict(slack, budget, rhs),
    )


def _corner_mags(s: Surface, r: Rect, p: GenParams):
    """|d2f| at the four m-scaled evaluation corners (a,c), (a,d/m2),
    (b/m1,c), (b/m1,d/m2); raises OutOfDomainError naming any corner that
    leaves the surface's declared domain."""
    return (
        abs(eval_mixed_partial(s, r.a, r.c)),
        abs(eval_mixed_partial(s, r.a, r.d / p.m2)),
        abs(eval_mixed_partial(s, r.b / p.m1, r.c)),
        abs(eval_mixed_partial(s, r.b / p.m1, r.d / p.m2)),
    )


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def bound_classical(
    s: Surface,
    r: Rect,
    tol: Tolerance | None = None,
    dev: DeviationTerms | None = None,
) -> BoundReport:
    """Trapezoid bound for co-ordinated-convex |d2f|: area/16 times the
    corner average of |d2f|."""
    if dev is None:
        dev = deviation_terms(s, r, tol)
    mags = [abs(eval_mixed_partial(s, x, y)) for x, y in r.corners()]
    rhs = r.area / 16.0 * (sum(mags) / 4.0)
    return _report(CLASSICAL, PROOF_FORM, dev.abs_deviation, rhs, dev.error_budget)


def bound_direct(
    s: Surface,
    r: Rect,
    p: GenParams,
    variant: str = PROOF_FORM,
    tol: Tolerance | None = None,
    dev: DeviationTerms | None = None,
) -> BoundReport:
    """First-sense class bound at q = 1, built from the two kink moments."""
    _check_variant(variant)
    if p.q != 1.0:
        raise ParameterError(f"direct bound is the q = 1 case, got q = {p.q}")
    if dev is None:
        dev = deviation_terms(s, r, tol)
    mx = kink_moment(p.theta1)
    my = kink_moment(p.theta2)
    d00, d01, d10, d11 = _corner_mags(s, r, p)
    if variant == PROOF_FORM:
        bracket = (
            mx * my * d00
            + mx * (0.5 - my) * p.m2 * d01
            + (0.5 - mx) * my * p.m1 * d10
            + (0.5 - mx) * (0.5 - my) * p.m1 * p.m2 * d11
        )
    else:
        bracket = mx * my * (d00 + p.m1 * d10) + (0.5 - mx) * (0.5 - my) * (
            p.m2 * d01 + p.m1 * p.m2 * d11
        )
    rhs = r.area / 4.0 * bracket
    return _report(DIRECT, variant, dev.abs_deviation, rhs, dev.error_budget)


def holder_s_term(s: Surface, r: Rect, p: GenParams) -> float:
    """The weighted corner sum S = sum of m/theta-weighted |d2f|^q values."""
    d00, d01, d10, d11 = _corner_mags(s, r, p)
    q = p.q
    return (
        d00**q
        + p.m2 * p.theta2 * d01**q
        + p.m1 * p.theta1 * d10**q
        + p.m1 * p.m2 * p.theta1 * p.theta2 * d11**q
    )


def bound_holder(
    s: Surface,
    r: Rect,
    p: GenParams,
    variant: str = PROOF_FORM,
    tol: Tolerance | None = None,
    dev: DeviationTerms | None = None,
) -> BoundReport:
    """Holder-route bound for q > 1 (conjugate exponent p = q/(q-1)).

    proof-form keeps the (theta+1) factors inside the q-th root; as-written
    places them outside, which shrinks the bound by
    ((theta1+1)(theta2+1))^(1-1/q).
    """
    _check_variant(variant)
    if p.q <= 1.0:
        raise ParameterError(f"Holder bound requires q > 1, got q = {p.q}")
    if dev is None:
        dev = deviation_terms(s, r, tol)
    conj = p.p
    s_term = holder_s_term(s, r, p)
    denom = (p.theta1 + 1.0) * (p.theta2 + 1.0)
    base = r.area / (4.0 * (conj + 1.0) ** (2.0 / conj))
    if variant == PROOF_FORM:
        rhs = base * (s_term / denom) ** (1.0 / p.q)
    else:
        rhs = base / denom * s_term ** (1.0 / p.q)
    return _report(HOLDER, variant, dev.abs_deviation, rhs, dev.error_budget)


def bound_power_mean(
    s: Surface,
    r: Rect,
    p: GenParams,
    variant: str = PROOF_FORM,
    tol: Tolerance | None = None,
    dev: DeviationTerms | None = None,
) -> BoundReport:
    """Power-mean-route bound for q >= 1.

    proof-form uses the four kink-moment weights (the same grouping as the
    direct bound, on |d2f|^q); as-written replaces the (1/2 - moment) factors
    of the second group by (1 - moment), which inflates the bound.
    """
    _check_variant(variant)
    if dev is None:
        dev = deviation_terms(s, r, tol)
    mx = kink_moment(p.theta1)
    my = kink_moment(p.theta2)
    d00, d01, d10, d11 = _corner_mags(s, r, p)
    q = p.q
    e00, e01, e10, e11 = d00**q, d01**q, d10**q, d11**q
    if variant == PROOF_FORM:
        bracket = (
            mx * my * e00
            + mx * (0.5 - my) * p.m2 * e01
            + (0.5 - mx) * my * p.m1 * e10
            + (0.5 - mx) * (0.5 - my) * p.m1 * p.m2 * e11
        )
    else:
        bracket = mx * my * (e00 + p.m1 * e10) + (1.0 - mx) * (1.0 - my) * (
            p.m2 * e01 + p.m1 * p.m2 * e11
        )
    prefactor = r.area / 4.0 ** ((2.0 * q - 1.0) / q)
    rhs = prefactor * bracket ** (1.0 / q)
    return _report(POWER_MEAN, variant, dev.abs_deviation, rhs, dev.error_budget)


def _chain_report(values, budgets):
    gaps = [b - a for a, b in zip(values[:-1], values[1:])]
    worst_gap = min(gaps)
    monotone = all(
        gap >= -(ba + bb + 1e-12)
        for gap, ba, bb in zip(gaps, budgets[:-1], budgets[1:])
    )
    return ChainReport(
        values=tuple(values),
        monotone=monotone,
        worst_gap=worst_gap,
        error_budget=sum(budgets),
    )


def hh_chain_2d(s: Surface, r: Rect, tol: Tolerance | None = None) -> ChainReport:
    """The five-term two-dimensional Hermite-Hadamard chain over r:
    center value <= mid-line means <= double mean <= edge means <= corner
    average, each consecutive step holding for co-ordinated convex surfaces.
    """
    tol = tol or DEFAULT_TOL
    _check_rect(s, r)
    f = s.f
    center = float(f(r.mid_x, r.mid_y))
    q_mid_x = integrate_1d(lambda u: f(u, r.mid_y), r.a, r.b, tol)
    q_mid_y = integrate_1d(lambda v: f(r.mid_x, v), r.c, r.d, tol)
    mid_mean = 0.5 * (q_mid_x.value / r.width + q_mid_y.value / r.height)
    q_dbl = integrate_2d(f, r, tol)
    dbl_mean = q_dbl.value / r.area
    q_c = integrate_1d(lambda u: f(u, r.c), r.a, r.b, tol)
    q_d = integrate_1d(lambda u: f(u, r.d), r.a, r.b, tol)
    q_a = integrate_1d(lambda v: f(r.a, v), r.c, r.d, tol)
    q_b = integrate_1d(lambda v: f(r.b, v), r.c, r.d, tol)
    edge_mean = 0.25 * (
        q_c.value / r.width
        + q_d.value / r.width
        + q_a.value / r.height
        + q_b.value / r.height
    )
    corner_avg = sum(float(f(x, y)) for x, y in r.corners()) / 4.0
    values = [center, mid_mean, dbl_mean, edge_mean, corner_avg]
    budgets = [
        0.0,
        0.5 * (q_mid_x.error_estimate / r.width + q_mid_y.error_estimate / r.height),
        q_dbl.error_estimate / r.area,
        0.25
        * (
            (q_c.error_estimate + q_d.error_estimate) / r.width
            + (q_a.error_estimate + q_b.error_estimate) / r.height
        ),
        0.0,
    ]
    return _chain_report(values, budgets)


def hh_chain_1d(g, lo: float, hi: float, tol: Tolerance | None = None) -> ChainReport:
    """The one-dimensional chain: midpoint value <= integral mean <= endpoint
    average (for convex g)."""
    if not lo < hi:
        raise ParameterError(f"empty interval [{lo}, {hi}]")
    tol = tol or DEFAULT_TOL
    mid = float(g(0.5 * (lo + hi)))
    q = integrate_1d(g, lo, hi, tol)
    mean = q.value / (hi - lo)
    ends = 0.5 * (float(g(lo)) + float(g(hi)))
    values = [mid, mean, ends]
    budgets = [0.0, q.error_estimate / (hi - lo), 0.0]
    return _chain_report(values, budgets)
