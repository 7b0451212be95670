import math
from fractions import Fraction

import numpy as np
import pytest

from support import constant_surface, crosscheck_mixed_partial

from hhverify import (
    CLASSICAL,
    GenParams,
    MembershipSweep,
    NonFiniteError,
    OutOfDomainError,
    ParameterError,
    RationalPoly2,
    Rect,
    SamplingPlan,
    Surface,
    bound,
    bound_table,
    corpus,
    deviation_terms,
    eval_mixed_partial,
    hh_chain_2d,
    identity_report,
    poly_surface,
)
from hhverify.bounds import BOUND_KINDS, VARIANTS
from hhverify.convexity import FIRST
from hhverify.geometry import scaled_eval_edges
from hhverify.surfaces import require_hull_inside

RECT01 = Rect(0.0, 1.0, 0.0, 1.0)


def test_eval_examples():
    assert corpus()["xy"].surface.f(0.5, 0.5) == 0.25
    assert corpus()["x2y2"].surface.f(1.0, 1.0) == 1.0


def test_eval_out_of_domain():
    s = Surface("unit-x2y2", RECT01, f=lambda x, y: x * x * y * y, d2f=lambda x, y: 4.0 * x * y)
    with pytest.raises(OutOfDomainError) as exc_info:
        eval_mixed_partial(s, 2.0, 1.0)
    assert exc_info.value.point == (2.0, 1.0)
    assert str(exc_info.value).startswith("unit-x2y2: point (2.0, 1.0) outside")


def test_mixed_partial_analytic():
    assert eval_mixed_partial(corpus()["x2y2"].surface, 1.0, 1.0) == 4.0


def test_f_only_surface_serves_f_and_refuses_d2f():
    """A surface without d2f: what needs only f works, and each consumer of
    the mixed partial raises ParameterError naming the surface."""
    s = Surface("f-only", Rect(-2, 2, -2, 2), f=lambda x, y: x * x * y * y)
    dev = deviation_terms(s, RECT01)
    assert abs(dev.signed_deviation - 1.0 / 36.0) <= 1e-12
    assert hh_chain_2d(s, RECT01, dev=dev).monotone
    sweep = MembershipSweep(RECT01, SamplingPlan(grid_per_axis=3, random_trials=100))
    cells = [(FIRST, GenParams())]
    assert sweep.reports(s, cells)[0] is not None
    for needs_d2f in (
        lambda: eval_mixed_partial(s, 0.5, 0.5),
        lambda: bound(CLASSICAL, s, RECT01, dev=dev),
        lambda: bound_table(s, RECT01, [GenParams()], BOUND_KINDS, VARIANTS, dev),
        lambda: identity_report(s, RECT01, dev=dev),
        lambda: sweep.reports(s, cells, hypothesis=True),
        lambda: sweep.verdicts(s, [GenParams()]),
    ):
        with pytest.raises(ParameterError, match="f-only has no analytic mixed partial"):
            needs_d2f()


def test_mixed_partial_constant():
    assert eval_mixed_partial(constant_surface(5.0), 0.4, 0.9) == 0.0


def test_non_finite_mixed_partial():
    s = Surface(
        "blowup",
        Rect(-1, 1, -1, 1),
        f=lambda x, y: x * y,
        d2f=lambda x, y: math.inf,
    )
    with pytest.raises(NonFiniteError):
        eval_mixed_partial(s, 0.0, 0.0)


def test_corpus_contents():
    names = list(corpus())
    for expected in ("xy", "x2y2", "x3y3", "exp_sum", "square_sum", "constant", "neg_squares"):
        assert expected in names
    for entry in corpus().values():
        # every corpus domain is wide enough for m = 0.5 sweeps on the unit square
        assert entry.surface.domain.contains_rect(Rect(0, 2, 0, 2))


def test_fd_agreement_over_corpus():
    """Analytic vs stencil at 100 random interior points per surface."""
    for name, entry in corpus().items():
        worst = crosscheck_mixed_partial(entry.surface, n_points=100, seed=5, rtol=1e-5)
        assert worst <= 1e-5, f"{name}: worst normalized deviation {worst}"


def test_poly_backed_eval_matches_exact():
    rng = np.random.default_rng(3)
    for name, entry in corpus().items():
        s = entry.surface
        if s.poly is None:
            continue
        for _ in range(20):
            x = float(rng.uniform(-3, 3))
            y = float(rng.uniform(-3, 3))
            exact = float(s.poly.eval_exact(Fraction(x), Fraction(y)))
            got = float(s.f(x, y))
            assert abs(got - exact) <= 1e-14 * (1.0 + abs(exact))


def test_poly_surface_constructor():
    s = poly_surface("p", RationalPoly2({(2, 1): 3}), Rect(-2, 2, -2, 2))
    assert s.f(1.0, 1.0) == 3.0
    assert eval_mixed_partial(s, 1.0, 1.0) == 6.0  # d2(3x^2y) = 6x


def test_scaled_eval_hull_covers_sampling():
    p = GenParams(m1=0.5, m2=0.5)
    hull = Rect(*scaled_eval_edges(Rect(-1, 1, 0, 1), p))
    # sampled z in [-1, 1] lands in [-2, 2] after scaling
    assert hull == Rect(-2, 2, 0, 2)


def test_hull_violation_names_a_hull_corner_outside_the_domain():
    # hull [-2, 2] x [0, 1]: both x = -2 and x = 2 leave the domain; the
    # first hull corner outside it, in corners() order, is named
    s = Surface("mid", Rect(-1.5, 1.5, -1.0, 2.0), f=lambda x, y: x * y)
    with pytest.raises(OutOfDomainError) as exc_info:
        require_hull_inside(s, Rect(-1, 1, 0, 1), GenParams(m1=0.5))
    assert exc_info.value.point == (-2.0, 0.0)
    assert str(exc_info.value).startswith("mid: m-scaled evaluation corner: point (-2.0, 0.0)")
    require_hull_inside(s, Rect(-1, 1, 0, 1), GenParams())
    # a hull with an infinite edge, or a finite one with an infinite area, is no Rect
    for b, m, point in ((1e308, 0.5, (math.inf, 0.0)), (1.0, 1e-160, (0.0, 1e160))):
        with pytest.raises(OutOfDomainError) as exc_info:
            require_hull_inside(s, Rect(0.0, b, 0.0, 1.0), GenParams(m1=m, m2=m))
        assert exc_info.value.point == point


def test_surface_str():
    assert "xy" in str(corpus()["xy"].surface)
