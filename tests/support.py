"""Shared test helpers, and the oracle and corpus checks that only tests use.

The tanh-sinh cross-check integrator is deliberately independent of the
package's Gauss-Legendre machinery (different rule family), so agreement is
meaningful evidence rather than a tautology.
"""

import contextlib
import signal
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from hhverify import MembershipSweep, RationalPoly2, Rect, Surface, cli, poly_integral_2d_exact
from hhverify.convexity import DEFAULT_PLAN
from hhverify.oracle import deviation_parts
from hhverify.surfaces import _WIDE, require_hull_inside


class TimeLimitExceeded(Exception):
    """Not an OSError, as TimeoutError is, which the code under test catches
    around its file operations."""


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeLimitExceeded in the block once it has run for ``seconds``:
    a SIGALRM of this process, so no thread or process is started."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


HUNT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "hunt.json"


def hunt_surfaces(count: int):
    """configs/hunt.json's hunt RunConfig and the first ``count`` of the surfaces it sweeps."""
    cfg = cli.load_config(HUNT_CONFIG, command="hunt")
    return cfg, list(cfg.surfaces.values())[:count]


def check_cell(s, r, sense, p, plan=DEFAULT_PLAN):
    """The MembershipReport of one (sense, p) cell of s over r.  Raises
    OutOfDomainError where a sweep reports None."""
    require_hull_inside(s, r, p)
    return MembershipSweep(r, plan).reports(s, [(sense, p)])[0]


def constant_surface(value: float, domain: Rect = _WIDE) -> Surface:
    """A constant surface (zero mixed partial), for ad-hoc checks."""
    return Surface(
        name=f"constant({value})",
        domain=domain,
        f=lambda x, y: value + 0.0 * (x + y),
        d2f=lambda x, y: 0.0 * (x + y),
    )


def written_first(f, p, x, y, z, w, lam, mu):
    """The first-sense margin RHS - LHS written out in full, independent of
    how the package factors it."""
    wl = np.power(lam, p.theta1)
    wm = np.power(mu, p.theta2)
    rhs = (
        wl * wm * f(x, y)
        + p.m2 * wl * (1.0 - wm) * f(x, w / p.m2)
        + p.m1 * wm * (1.0 - wl) * f(z / p.m1, y)
        + p.m1 * p.m2 * (1.0 - wl) * (1.0 - wm) * f(z / p.m1, w / p.m2)
    )
    return rhs - f(lam * x + (1.0 - lam) * z, mu * y + (1.0 - mu) * w)


def written_second(f, p, x, y, z, w, lam, mu):
    """The second-sense margin written out in full."""
    wl = np.power(lam, p.theta1)
    wm = np.power(mu, p.theta2)
    cl = np.power(1.0 - np.power(lam, p.alpha1), p.s1)
    cm = np.power(1.0 - np.power(mu, p.alpha2), p.s2)
    rhs = (
        wl * wm * f(x, y)
        + p.m2 * wl * cm * f(x, w / p.m2)
        + p.m1 * wm * cl * f(z / p.m1, y)
        + p.m1 * p.m2 * cl * cm * f(z / p.m1, w / p.m2)
    )
    return rhs - f(lam * x + (1.0 - lam) * z, mu * y + (1.0 - mu) * w)


def witness_margin(written, f, p, witness) -> float:
    """The margin ``written`` gives at one witness (x, y, z, w, lam, mu),
    evaluated on one-element arrays as a sweep evaluates its columns."""
    return float(written(f, p, *(np.array([v]) for v in witness))[0])


# Optimal step exponent for a second-order cross difference.
_FD_STEP = sys.float_info.epsilon ** 0.25


def fd_mixed_partial(f, x, y):
    """4-point cross stencil for d^2 f / dx dy, on scalars or arrays, with the
    steps h, k = eps^(1/4) * (1 + |coordinate|).  Its truncation error is in
    no error budget, so it serves only as an independent check of an
    analytic d2f, and as a noisy integrand."""
    h, k = _FD_STEP * (1.0 + np.abs(x)), _FD_STEP * (1.0 + np.abs(y))
    return (f(x + h, y + k) - f(x + h, y - k) - f(x - h, y + k) + f(x - h, y - k)) / (
        4.0 * h * k
    )


def crosscheck_mixed_partial(
    s: Surface, n_points: int = 5, seed: int = 0, rtol: float = 1e-5
) -> float:
    """Compare the analytic mixed partial against the stencil at random interior
    points; returns the worst normalized deviation |fd - exact| / (1 + |exact|).

    Raises if the surface has no analytic derivative or the deviation exceeds
    rtol (a wrong hand-supplied derivative is a corpus bug).
    """
    if s.d2f is None:
        raise ValueError(f"{s.name} has no analytic mixed partial to cross-check")
    rng = np.random.default_rng(seed)
    dom = s.domain
    margin_x = 2.0 * _FD_STEP * (1.0 + max(abs(dom.a), abs(dom.b)))
    margin_y = 2.0 * _FD_STEP * (1.0 + max(abs(dom.c), abs(dom.d)))
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(dom.a + margin_x, dom.b - margin_x)
        y = rng.uniform(dom.c + margin_y, dom.d - margin_y)
        exact = float(s.d2f(x, y))
        approx = float(fd_mixed_partial(s.f, x, y))
        dev = abs(approx - exact) / (1.0 + abs(exact))
        worst = max(worst, dev)
        if dev > rtol:
            raise AssertionError(
                f"{s.name}: analytic/finite-difference mismatch {dev:.3e} at ({x}, {y})"
            )
    return worst


def deviation_exact(p: RationalPoly2, r: Rect) -> Fraction:
    """Exact corner average + double-integral mean - A (deviation_parts).

    This is the signed trapezoid deviation the identity and all the bounds
    are about, computed without any floating point.
    """
    corner, mean, marginal = deviation_parts(p, r)
    return corner + mean - marginal


def _antiderivative(p: RationalPoly2, axis: int) -> RationalPoly2:
    """The antiderivative of p in x (axis 0) or in y (axis 1), with no
    constant term."""
    out = {}
    for (i, j), c in p.terms.items():
        if axis == 0:
            out[(i + 1, j)] = c / (i + 1)
        else:
            out[(i, j + 1)] = c / (j + 1)
    return RationalPoly2(out)


def deviation_parts_reference(p: RationalPoly2, r: Rect) -> tuple[Fraction, Fraction, Fraction]:
    """deviation_parts by another route: the corners by eval_exact, each edge
    integral from the x- or y-antiderivative at the edge's ends, and the double
    integral from the double antiderivative at the four corners."""
    a, b, c, d = map(Fraction, (r.a, r.b, r.c, r.d))
    corner = sum(p.eval_exact(x, y) for x in (a, b) for y in (c, d)) / 4
    px, py = _antiderivative(p, 0), _antiderivative(p, 1)
    pxy = _antiderivative(px, 1)
    double = pxy.eval_exact(b, d) - pxy.eval_exact(a, d) - pxy.eval_exact(b, c) + pxy.eval_exact(a, c)
    horizontal = sum(px.eval_exact(b, y) - px.eval_exact(a, y) for y in (c, d)) / (b - a)
    vertical = sum(py.eval_exact(x, d) - py.eval_exact(x, c) for x in (a, b)) / (d - c)
    return corner, double / ((b - a) * (d - c)), (horizontal + vertical) / 2


_UNIT = Rect(0.0, 1.0, 0.0, 1.0)


def identity_residual_exact(p: RationalPoly2, r: Rect) -> Fraction:
    """Both sides of the trapezoid-deviation identity, exactly, as a difference.

    The right side substitutes the affine reparameterization
    x = u*a + (1-u)*b, y = v*c + (1-v)*d into the mixed partial (a polynomial
    composition), multiplies by (1-2u)(1-2v) and integrates over the unit
    square; no absolute values appear, so the integrand stays polynomial.
    Returns deviation - rhs, which is exactly 0 for every polynomial.
    """
    a, b, c, d = map(Fraction, (r.a, r.b, r.c, r.d))
    deviation = deviation_exact(p, r)
    composed = p.mixed_partial().compose_affine(b, a - b, d, c - d)
    kernel = RationalPoly2({(0, 0): 1, (1, 0): -2}) * RationalPoly2({(0, 0): 1, (0, 1): -2})
    rhs = (b - a) * (d - c) / 4 * poly_integral_2d_exact(composed * kernel, _UNIT)
    return deviation - rhs


def random_poly(rng, degree=6):
    """Up to 9 random terms x^i y^j, i, j <= degree, with small rational
    coefficients."""
    terms = {}
    for _ in range(int(rng.integers(1, 10))):
        i = int(rng.integers(0, degree + 1))
        j = int(rng.integers(0, degree + 1))
        terms[(i, j)] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
    return RationalPoly2(terms)


def tanh_sinh_1d(g, lo, hi, dps=30, splits=()):
    """tanh-sinh quadrature via mpmath; handles endpoint singularities.

    Interior kinks must be listed in ``splits`` (tanh-sinh only deals with
    endpoint trouble)."""
    points = [lo, *sorted(s for s in splits if lo < s < hi), hi]
    with mpmath.workdps(dps):
        return float(mpmath.quad(g, points))


def rel_close(x, y, rtol):
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))
