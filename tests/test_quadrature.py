import math
import operator
from functools import reduce

import numpy as np
import pytest

from hhverify import (
    ConvergenceError,
    NonFiniteError,
    ParameterError,
    Rect,
    Tolerance,
    integrate_1d,
    integrate_2d,
)
from hhverify.quadrature import MAX_PANELS, QuadratureResult, _panels_1d, _panels_2d, left_sum
from hhverify.surfaces import fd_mixed_partial

RECT01 = Rect(0.0, 1.0, 0.0, 1.0)


def test_monomial_1d():
    q = integrate_1d(lambda x: x**3, 0.0, 1.0)
    assert abs(q.value - 0.25) <= 1e-14
    assert q.error_estimate >= 0.0 and math.isfinite(q.error_estimate)


def test_tent_weighted_monomial():
    # split at the kink; each half is a polynomial, exactly integrated
    q = integrate_1d(lambda t: abs(1.0 - 2.0 * t) * t, 0.0, 1.0, splits=(0.5,))
    assert abs(q.value - 0.25) <= 1e-13


def test_shifted_product():
    q = integrate_1d(lambda t: (1.0 - 2.0 * t) * (1.0 - t), 0.0, 1.0)
    assert abs(q.value - 1.0 / 6.0) <= 1e-13


@pytest.mark.parametrize("degree", range(0, 16))
def test_single_panel_exactness(degree):
    """One panel must integrate monomials up to the design degree exactly."""
    for lo, hi in ((0.0, 1.0), (-1.0, 2.0)):
        exact = (hi ** (degree + 1) - lo ** (degree + 1)) / (degree + 1)
        got = float(_panels_1d(lambda x: x**degree, np.array([[lo, hi]]))[0])
        assert abs(got - exact) <= 1e-13 * (1.0 + abs(exact))


def test_single_panel_design_degree_23():
    exact = 1.0 / 24.0
    assert abs(float(_panels_1d(lambda x: x**23, np.array([[0.0, 1.0]]))[0]) - exact) <= 1e-13


def test_kink_robustness():
    q = integrate_1d(lambda t: abs(1.0 - 2.0 * t), 0.0, 1.0, splits=(0.5,))
    assert abs(q.value - 0.5) <= 1e-13


def test_additivity_on_random_smooth_integrands():
    """integral over [lo,hi] == [lo,m] + [m,hi] within combined estimates."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs = rng.normal(size=4)
        freq = rng.uniform(0.5, 3.0)

        def g(x):
            return coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * np.sin(freq * x)

        lo, hi = sorted(rng.uniform(-2.0, 2.0, size=2))
        if hi - lo < 0.1:
            hi = lo + 0.5
        m = rng.uniform(lo + 0.01, hi - 0.01)
        whole = integrate_1d(g, lo, hi)
        left = integrate_1d(g, lo, m)
        right = integrate_1d(g, m, hi)
        tol = whole.error_estimate + left.error_estimate + right.error_estimate + 1e-12
        assert abs(whole.value - (left.value + right.value)) <= tol


def test_empty_interval_rejected():
    with pytest.raises(ParameterError):
        integrate_1d(lambda x: x, 1.0, 1.0)


def test_non_finite_sample():
    with pytest.raises(NonFiniteError):
        integrate_1d(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
    with pytest.raises(NonFiniteError):
        integrate_2d(lambda x, y: np.where(x + y > 1.0, np.inf, 0.0), RECT01)


def test_convergence_failure_carries_best_value():
    # a needle the depth-limited refinement cannot resolve to 1e-10
    needle = lambda x: 1.0 / (1e-14 + (x - 0.123456) ** 2)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_1d(needle, 0.0, 1.0, Tolerance(rel=1e-10, abs_floor=1e-12, max_depth=6))
    best = exc_info.value.result
    assert best.value > 0.0 and best.error_estimate > 0.0


def test_one_stack_frame_per_bisection_level():
    # 1 on [2^-(j+1), 2^-j] for even j, else 0: the integral is 2/3 * 1/2 = 1/3.
    # Every level bisects only the cell next to 0, so 800 levels need about
    # 800 frames of the default recursion limit of 1000.
    g = lambda x: np.where(np.floor(np.log2(x)) % 2 == 0, 1.0, 0.0)
    res = integrate_1d(g, 0.0, 1.0, Tolerance(rel=1e-10, abs_floor=0.0, max_depth=800))
    assert res.value == 1.0 / 3.0 and res.panels == 2 * 800 + 2


def test_panel_cap_ends_an_integral_that_cannot_converge():
    """At the default max_depth 20 the finite-difference identity integrand
    of exp(x + y) bisects towards 4^20 panels, its stencil error above the
    budget at every level; MAX_PANELS ends it with a ConvergenceError."""
    with pytest.raises(ConvergenceError, match=f"within depth 20 and {MAX_PANELS} panels") as exc_info:
        integrate_2d(_fd_identity_integrand(), RECT01)
    best = exc_info.value.result
    assert MAX_PANELS // 2 < best.panels <= MAX_PANELS


def test_left_sum_keeps_the_rounding_of_every_step():
    # sum() compensates float sums from Python 3.12 on and gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    assert repr(left_sum([-0.0])) == "0.0"


def test_2d_separable():
    q = integrate_2d(lambda x, y: x * y, RECT01)
    assert abs(q.value - 0.25) <= 1e-13


def test_2d_area():
    q = integrate_2d(lambda x, y: 1.0, Rect(0.0, 2.0, 0.0, 3.0))
    assert abs(q.value - 6.0) <= 1e-12


def test_2d_identity_kernel_integrand():
    # (1-2u)(1-2v) * 4(1-u)(1-v) separates into (integral (1-2t)(1-t) dt)^2 * 4
    g = lambda u, v: (1 - 2 * u) * (1 - 2 * v) * 4.0 * (1 - u) * (1 - v)
    q = integrate_2d(g, RECT01)
    assert abs(q.value - 1.0 / 9.0) <= 1e-13


def test_2d_matches_product_of_1d():
    cases = [
        (lambda x: np.exp(x), lambda y: y**2 + 1.0),
        (lambda x: np.cos(x), lambda y: np.exp(-y)),
    ]
    r = Rect(-0.5, 1.5, 0.0, 2.0)
    for u, v in cases:
        q2 = integrate_2d(lambda x, y: u(x) * v(y), r)
        qx = integrate_1d(u, r.a, r.b)
        qy = integrate_1d(v, r.c, r.d)
        prod = qx.value * qy.value
        tol = (
            q2.error_estimate
            + abs(qx.value) * qy.error_estimate
            + abs(qy.value) * qx.error_estimate
            + 1e-12
        )
        assert abs(q2.value - prod) <= tol


def test_2d_panel_exactness():
    for i, j in ((0, 0), (3, 2), (7, 7), (15, 15)):
        exact = 1.0 / ((i + 1) * (j + 1))
        got = float(_panels_2d(lambda x, y: x**i * y**j, np.array([[0.0, 1.0, 0.0, 1.0]]))[0])
        assert abs(got - exact) <= 1e-13 * (1.0 + exact)


# --------------------------------------------------------------------------
# Scalar reference: the one-node-at-a-time panel loops and the recursive
# bisection that re-evaluates each panel as the next level's coarse value.
# The package evaluates the same rule on arrays and must agree bit for bit.

_REF_GL = list(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(12))))


def _ref_sum(values):
    """The values added one at a time in order, from 0.0."""
    return reduce(operator.add, values, 0.0)


def _ref_panel_1d(g, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    total = 0.0
    for t, w in _REF_GL:
        x = mid + half * t
        fx = float(g(x))
        if not math.isfinite(fx):
            raise NonFiniteError(f"x = {x}", fx)
        total += w * fx
    return half * total


def _ref_panel_2d(g, a, b, c, d):
    hx, mx = 0.5 * (b - a), 0.5 * (a + b)
    hy, my = 0.5 * (d - c), 0.5 * (c + d)
    total = 0.0
    for tx, wx in _REF_GL:
        x = mx + hx * tx
        row = 0.0
        for ty, wy in _REF_GL:
            y = my + hy * ty
            fxy = float(g(x, y))
            if not math.isfinite(fxy):
                raise NonFiniteError(f"(x, y) = ({x}, {y})", fxy)
            row += wy * fxy
        total += wx * row
    return hx * hy * total


def _ref_adapt_1d(g, lo, hi, budget, depth, tol):
    whole = _ref_panel_1d(g, lo, hi)
    mid = 0.5 * (lo + hi)
    if not (lo < mid < hi):
        return whole, 0.0, 1
    refined = _ref_sum([_ref_panel_1d(g, lo, mid), _ref_panel_1d(g, mid, hi)])
    err = abs(refined - whole)
    if err <= budget or depth >= tol.max_depth:
        return refined, err, 2
    lv, le, ln = _ref_adapt_1d(g, lo, mid, 0.5 * budget, depth + 1, tol)
    rv, re, rn = _ref_adapt_1d(g, mid, hi, 0.5 * budget, depth + 1, tol)
    return _ref_sum([lv, rv]), _ref_sum([le, re]), ln + rn


def _ref_adapt_2d(g, a, b, c, d, budget, depth, tol):
    whole = _ref_panel_2d(g, a, b, c, d)
    mx, my = 0.5 * (a + b), 0.5 * (c + d)
    if not (a < mx < b and c < my < d):
        return whole, 0.0, 1
    quads = ((a, mx, c, my), (mx, b, c, my), (a, mx, my, d), (mx, b, my, d))
    refined = _ref_sum(_ref_panel_2d(g, *cell) for cell in quads)
    err = abs(refined - whole)
    if err <= budget or depth >= tol.max_depth:
        return refined, err, 4
    value = total_err = 0.0
    panels = 0
    for cell in quads:
        v, e, n = _ref_adapt_2d(g, *cell, 0.25 * budget, depth + 1, tol)
        value += v
        total_err += e
        panels += n
    return value, total_err, panels


def _ref_result(pieces, rough, tol):
    """(result, converged) from the per-segment (value, error, panels) and the
    rough sum, accumulated as integrate_1d / integrate_2d do."""
    budget = max(tol.abs_floor, tol.rel * abs(rough))
    value = err = 0.0
    panels = 0
    for v, e, n in pieces:
        value += v
        err += e
        panels += n
    return QuadratureResult(value, max(err, 2.0**-50 * (1.0 + abs(value))), panels), err <= budget


def _ref_integrate_1d(g, lo, hi, tol=Tolerance(), splits=()):
    edges = [lo, *sorted({float(s) for s in splits if lo < s < hi}), hi]
    segments = list(zip(edges[:-1], edges[1:]))
    rough = _ref_sum(_ref_panel_1d(g, a, b) for a, b in segments)
    budget = max(tol.abs_floor, tol.rel * abs(rough))
    pieces = [_ref_adapt_1d(g, a, b, budget * (b - a) / (hi - lo), 0, tol) for a, b in segments]
    return _ref_result(pieces, rough, tol)


def _ref_integrate_2d(g, r, tol=Tolerance(), x_splits=(), y_splits=()):
    xs = [r.a, *sorted({float(s) for s in x_splits if r.a < s < r.b}), r.b]
    ys = [r.c, *sorted({float(s) for s in y_splits if r.c < s < r.d}), r.d]
    cells = [(xa, xb, ya, yb) for xa, xb in zip(xs[:-1], xs[1:]) for ya, yb in zip(ys[:-1], ys[1:])]
    rough = _ref_sum(_ref_panel_2d(g, *cell) for cell in cells)
    budget = max(tol.abs_floor, tol.rel * abs(rough))
    pieces = [
        _ref_adapt_2d(g, xa, xb, ya, yb, budget * ((xb - xa) * (yb - ya) / r.area), 0, tol)
        for xa, xb, ya, yb in cells
    ]
    return _ref_result(pieces, rough, tol)


def _batched(integrate, *args, **kwargs):
    """(result, converged) of the package integrator."""
    try:
        return integrate(*args, **kwargs), True
    except ConvergenceError as exc:
        return exc.result, False


def _fd_identity_integrand():
    """The identity integrand of exp(x + y) on [0, 1]^2 with the mixed partial
    from the finite-difference stencil, whose error keeps the bisection from
    meeting the default budget."""
    f = lambda x, y: np.exp(x + y)

    def g(lam, mu):
        x = lam * 0.0 + (1.0 - lam) * 1.0
        y = mu * 0.0 + (1.0 - mu) * 1.0
        return (1.0 - 2.0 * lam) * (1.0 - 2.0 * mu) * fd_mixed_partial(f, x, y)

    return g


CASES_1D = [
    ("poly", lambda x: 3.0 * x**5 - 2.0 * x**2 + 0.5, 0.0, 1.0, {}),
    ("oscillatory", lambda x: np.sin(37.0 * x + 0.3) * np.exp(0.7 * x), -0.4, 1.3, {}),
    ("exp", lambda x: np.exp(-3.0 * x), 0.0, 2.0, {}),
    ("kink-split", lambda x: np.abs(1.0 - 2.0 * x) * np.cos(9.0 * x), 0.0, 1.0, {"splits": (0.5, 0.8)}),
    ("needle-depth-6", lambda x: 1.0 / (1e-14 + (x - 0.123456) ** 2), 0.0, 1.0, {"tol": Tolerance(max_depth=6)}),
]

CASES_2D = [
    ("poly", lambda x, y: x**3 * y**2 - 2.0 * x * y + 1.0, RECT01, {}),
    (
        "oscillatory",
        lambda x, y: np.sin(23.0 * x + 1.1) * np.cos(17.0 * y + 0.4) * np.exp(0.5 * x),
        Rect(0.2, 1.3, -0.1, 0.9),
        {},
    ),
    ("exp", lambda x, y: np.exp(x + y), Rect(-0.5, 1.5, 0.0, 2.0), {}),
    (
        "kink-splits",
        lambda x, y: np.abs(1.0 - 2.0 * x) * np.abs(1.0 - 2.0 * y) * np.sin(5.0 * x * y),
        RECT01,
        {"x_splits": (0.5,), "y_splits": (0.5, 0.25)},
    ),
    ("fd-exp-depth-3", _fd_identity_integrand(), RECT01, {"tol": Tolerance(max_depth=3)}),
]


@pytest.mark.parametrize("name, g, lo, hi, kwargs", CASES_1D, ids=[c[0] for c in CASES_1D])
def test_batched_1d_equals_scalar_reference(name, g, lo, hi, kwargs):
    got = _batched(integrate_1d, g, lo, hi, **kwargs)
    ref = _ref_integrate_1d(g, lo, hi, **kwargs)
    assert got == ref and repr(got) == repr(ref)  # repr also tells -0.0 from 0.0


@pytest.mark.parametrize("name, g, r, kwargs", CASES_2D, ids=[c[0] for c in CASES_2D])
def test_batched_2d_equals_scalar_reference(name, g, r, kwargs):
    got = _batched(integrate_2d, g, r, **kwargs)
    ref = _ref_integrate_2d(g, r, **kwargs)
    assert got == ref and repr(got) == repr(ref)


def test_one_panel_calls_equal_scalar_reference():
    # -0.0 terms: a sum started at 0.0 gives +0.0, which only the one-panel
    # calls expose; the integrators add every panel into a 0.0 total.
    for g in [c[1] for c in CASES_1D] + [lambda x: -0.0 * x]:
        one = _panels_1d(g, np.array([[0.25, 1.0]]))[0]
        assert repr(float(one)) == repr(_ref_panel_1d(g, 0.25, 1.0))
    for g in [c[1] for c in CASES_2D] + [lambda x, y: -0.0 * x * y]:
        one = _panels_2d(g, np.array([[0.25, 1.0, 0.0, 0.5]]))[0]
        assert repr(float(one)) == repr(_ref_panel_2d(g, 0.25, 1.0, 0.0, 0.5))


def test_fd_convergence_failure_is_unchanged():
    with pytest.raises(ConvergenceError) as exc_info:
        integrate_2d(_fd_identity_integrand(), RECT01, Tolerance(max_depth=3))
    assert exc_info.value.result.panels == 256


def _recording(g, calls):
    def recorded(*coords):
        calls.append(list(zip(*(np.atleast_1d(c).tolist() for c in coords))))
        return g(*coords)

    return recorded


def test_no_node_is_evaluated_twice():
    calls = []
    g = lambda x, y: np.sin(61.0 * x + 1.1) * np.cos(47.0 * y + 0.4)
    q = integrate_2d(_recording(g, calls), RECT01, x_splits=(0.5,))
    nodes = [p for call in calls for p in call]
    assert q.panels > 64  # several levels deep
    assert len(nodes) == len(set(nodes))
    # one call for the rough pass over the split cells, then one per chunk of
    # up to 8 cells of a bisection level, fewer than one per bisected cell
    sizes = [len(call) for call in calls]
    assert sizes[0] == 2 * 144
    assert all(n % (4 * 144) == 0 and n <= 8 * 4 * 144 for n in sizes[1:])
    assert len(sizes) - 1 < sum(sizes[1:]) // (4 * 144)

    calls = []
    q = integrate_1d(_recording(lambda x: np.sin(60.0 * x), calls), 0.0, 1.0)
    nodes = [p for call in calls for p in call]
    assert q.panels > 8
    assert len(nodes) == len(set(nodes))
    sizes = [len(call) for call in calls]
    assert sizes[0] == 12
    assert all(n % 24 == 0 and n <= 8 * 24 for n in sizes[1:])
    assert len(sizes) - 1 < sum(sizes[1:]) // 24


def _poisoned(smooth, points):
    """smooth with NaN at each of the points (one coordinate tuple each)."""

    def g(*coords):
        bad = np.zeros(np.shape(coords[0]), dtype=bool)
        for point in points:
            bad |= np.logical_and.reduce([c == p for c, p in zip(coords, point)])
        return np.where(bad, np.nan, smooth(*coords))

    return g


def test_non_finite_error_names_the_first_node_of_the_scalar_order():
    # Poison three nodes of the first bisection step: two in the third child
    # (a, mx, my, d) and one in the fourth.  The top panel's nodes are clean,
    # so the error comes from that step, at the first poisoned node the
    # panel loops reach.
    calls = []
    smooth = lambda x, y: np.exp(x - y)
    integrate_2d(_recording(smooth, calls), RECT01)
    step = calls[1]
    poisoned = [step[2 * 144 + 9 * 12 + 2], step[2 * 144 + 5 * 12 + 7], step[3 * 144 + 1]]

    g = _poisoned(smooth, poisoned)
    with pytest.raises(NonFiniteError) as got:
        integrate_2d(g, RECT01)
    with pytest.raises(NonFiniteError) as ref:
        _ref_integrate_2d(g, RECT01)
    assert str(got.value) == str(ref.value)
    x, y = poisoned[1]
    assert got.value.where == f"(x, y) = ({x}, {y})"


SPLIT_CASES = [
    (
        "1d",
        lambda x: np.sin(60.0 * x),
        lambda g: integrate_1d(g, 0.0, 1.0, splits=(0.5,)),
        lambda g: _ref_integrate_1d(g, 0.0, 1.0, splits=(0.5,)),
        2 * 12,
    ),
    (
        "2d",
        lambda x, y: np.sin(61.0 * x + 1.1) * np.cos(47.0 * y + 0.4),
        lambda g: integrate_2d(g, RECT01, x_splits=(0.5,)),
        lambda g: _ref_integrate_2d(g, RECT01, x_splits=(0.5,)),
        4 * 144,
    ),
]


@pytest.mark.parametrize(
    "name, smooth, integrate, reference, first_root_nodes", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES]
)
def test_non_finite_error_under_an_earlier_root_cell_comes_first(
    name, smooth, integrate, reference, first_root_nodes
):
    # Two root cells, split at x = 0.5.  One call evaluates the first
    # bisection step of both; poison a node of the second root's step and a
    # node deeper under the first root.  The depth-first order refines the
    # first root's whole subtree before it bisects the second root, so it
    # reaches the deeper node first.
    calls = []
    integrate(_recording(smooth, calls))
    late = calls[1][first_root_nodes + 5]
    deep = next(p for call in calls[2:] for p in call if p[0] < 0.5)
    g = _poisoned(smooth, [late, deep])
    with pytest.raises(NonFiniteError) as got:
        integrate(g)
    with pytest.raises(NonFiniteError) as ref:
        reference(g)
    assert str(got.value) == str(ref.value)
    assert got.value.where == (f"x = {deep[0]}" if len(deep) == 1 else f"(x, y) = {deep}")
