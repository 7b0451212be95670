import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from support import (
    check_cell,
    constant_surface,
    deviation_exact,
    random_poly,
    rel_close,
    tanh_sinh_1d,
)

from hhverify import (
    AS_WRITTEN,
    CLASSICAL,
    DIRECT,
    HOLDER,
    HOLDS,
    POWER_MEAN,
    PROOF_FORM,
    GenParams,
    OutOfDomainError,
    ParameterError,
    RationalPoly2,
    Rect,
    Surface,
    Tolerance,
    bound,
    corpus,
    deviation_terms,
    hh_chain_2d,
    identity_report,
    integrate_1d,
    kink_moment,
    poly_surface,
)
from hhverify import bounds
from hhverify.oracle import deviation_parts

RECT01 = Rect(0.0, 1.0, 0.0, 1.0)
CLASSICAL_P = GenParams()
DEEP_TOL = Tolerance(rel=1e-11, abs_floor=1e-13, max_depth=34)


# ---------------------------------------------------------------- kink moment


def test_kink_moment_endpoints():
    assert abs(kink_moment(1.0) - 0.25) <= 1e-14
    assert abs(kink_moment(0.0) - 0.5) <= 1e-14


def test_kink_moment_half():
    expected = 4.0 / (15.0 * math.sqrt(2.0)) + 2.0 / 15.0
    assert abs(kink_moment(0.5) - expected) <= 1e-14


def test_kink_moment_is_the_tent_weighted_moment():
    # spot check against the package quadrature and an independent rule family
    for theta in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
        g = lambda t: abs(1.0 - 2.0 * t) * t**theta
        q = integrate_1d(g, 0.0, 1.0, DEEP_TOL, splits=(0.5,))
        assert abs(kink_moment(theta) - q.value) <= 1e-12
        ts = tanh_sinh_1d(g, 0.0, 1.0, splits=(0.5,))
        assert abs(kink_moment(theta) - ts) <= 1e-9


def test_kink_moment_monotone_decreasing_with_range():
    thetas = np.linspace(0.0, 1.0, 101)
    values = [kink_moment(t) for t in thetas]
    assert all(b < a for a, b in zip(values[:-1], values[1:]))
    assert all(0.25 <= v <= 0.5 for v in values)


def test_kink_moment_rejects_out_of_range():
    with pytest.raises(ParameterError):
        kink_moment(-0.1)
    with pytest.raises(ParameterError):
        kink_moment(1.5)


# ------------------------------------------------------------ deviation terms


def test_deviation_xy():
    dev = deviation_terms(corpus()["xy"].surface, RECT01)
    assert abs(dev.corner_avg - 0.25) <= 1e-14
    assert abs(dev.integral_mean - 0.25) <= 1e-12
    assert abs(dev.marginal_a - 0.5) <= 1e-12
    assert abs(dev.signed_deviation) <= 1e-12


def test_deviation_x2y2():
    dev = deviation_terms(corpus()["x2y2"].surface, RECT01)
    assert abs(dev.corner_avg - 0.25) <= 1e-14
    assert abs(dev.integral_mean - 1.0 / 9.0) <= 1e-12
    assert abs(dev.marginal_a - 1.0 / 3.0) <= 1e-12
    assert abs(dev.signed_deviation - 1.0 / 36.0) <= 1e-12
    assert dev.abs_deviation == abs(dev.signed_deviation)


def test_deviation_constant():
    # the edge term sums f over both opposite edges before halving, so a
    # constant c contributes 2c; only then does the deviation cancel to zero
    dev = deviation_terms(constant_surface(5.0), RECT01)
    assert abs(dev.corner_avg - 5.0) <= 1e-14
    assert abs(dev.integral_mean - 5.0) <= 1e-12
    assert abs(dev.marginal_a - 10.0) <= 1e-12
    assert abs(dev.signed_deviation) <= 1e-12


def test_deviation_matches_exact_oracle_on_polynomials():
    # Without its polynomial the surface takes the quadrature path, which is
    # what this checks against the oracle.
    for name, entry in corpus().items():
        poly = entry.surface.poly
        if poly is None:
            continue
        dev = deviation_terms(dataclasses.replace(entry.surface, poly=None), RECT01)
        exact = float(deviation_exact(poly, RECT01))
        assert abs(dev.signed_deviation - exact) <= dev.error_budget + 1e-13, name


def _covers_exact_values(dev, parts):
    """Each rounded field lies within its budget of its exact value."""
    corner, mean, marginal = parts
    return (
        abs(Fraction(dev.signed_deviation) - (corner + mean - marginal)) <= Fraction(dev.error_budget)
        and abs(Fraction(dev.integral_mean) - mean) <= Fraction(dev.integral_budget)
        and abs(Fraction(dev.marginal_a) / 2 - marginal / 2) <= Fraction(dev.marginal_budget) / 2
    )


def test_poly_surface_deviation_is_exact_within_one_rounding():
    rng = np.random.default_rng(11)
    zero_budget_misses = 0
    for _ in range(60):
        poly = random_poly(rng, int(rng.integers(0, 7)))
        a, c = (float(v) for v in rng.uniform(-3.0, 2.0, size=2))
        r = Rect(a, a + float(rng.uniform(0.01, 2.0)), c, c + float(rng.uniform(0.01, 2.0)))
        dev = deviation_terms(poly_surface("p", poly, Rect(-8, 8, -8, 8)), r)
        assert dev.signed_deviation == float(deviation_exact(poly, r))
        parts = deviation_parts(poly, r)
        assert dev.corner_avg == float(parts[0])
        assert _covers_exact_values(dev, parts)
        zero = dataclasses.replace(dev, integral_budget=0.0, marginal_budget=0.0)
        zero_budget_misses += not _covers_exact_values(zero, parts)
    assert zero_budget_misses >= 40, zero_budget_misses


def test_budgets_cover_the_deviation_rounding_when_the_means_are_exact():
    # Legendre P2(x) P2(y) / 3 on [0,1]^2: the double mean and edge means are
    # exactly 0 and the corners 1/3, so only the budgets' share for
    # signed_deviation covers the rounding of 1/3.
    p2 = {(2, 0): 6, (1, 0): -6, (0, 0): 1}
    poly = RationalPoly2({k: Fraction(v, 3) for k, v in p2.items()}) * RationalPoly2(
        {(j, i): v for (i, j), v in p2.items()}
    )
    dev = deviation_terms(poly_surface("p2p2", poly, Rect(-8, 8, -8, 8)), RECT01)
    assert (dev.integral_mean, dev.marginal_a, dev.signed_deviation) == (0.0, 0.0, 1.0 / 3.0)
    parts = deviation_parts(poly, RECT01)
    assert _covers_exact_values(dev, parts)
    zero = dataclasses.replace(dev, integral_budget=0.0, marginal_budget=0.0)
    assert not _covers_exact_values(zero, parts)


# ------------------------------------------------------------------- identity


def test_identity_rhs_examples():
    assert abs(identity_report(corpus()["xy"].surface, RECT01).rhs) <= 1e-12
    assert abs(identity_report(corpus()["x2y2"].surface, RECT01).rhs - 1.0 / 36.0) <= 1e-12
    assert abs(identity_report(constant_surface(3.0), RECT01).rhs) <= 1e-13


def test_identity_residual_corpus():
    for name, entry in corpus().items():
        rep = identity_report(entry.surface, RECT01)
        assert abs(rep.residual) <= rep.error_budget, name
        assert rep.error_budget <= 1e-8, name


def test_identity_residual_exp():
    assert abs(identity_report(corpus()["exp_sum"].surface, RECT01).residual) <= 1e-9


def test_identity_with_finite_difference_surface():
    s = Surface("fd-x2y2", Rect(-2, 2, -2, 2), f=lambda x, y: (x * y) ** 2)
    rep = identity_report(s, RECT01)
    # FD derivative is only ~1e-8 accurate, so compare against a looser budget
    assert abs(rep.residual) <= 1e-6


# --------------------------------------------------------------------- bounds


def test_classical_x2y2():
    rep = bound(CLASSICAL, corpus()["x2y2"].surface, RECT01)
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-14
    assert abs(rep.lhs - 1.0 / 36.0) <= 1e-12
    assert rep.verdict == HOLDS
    assert rep.slack == rep.rhs - rep.lhs


def test_classical_xy():
    rep = bound(CLASSICAL, corpus()["xy"].surface, RECT01)
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-14
    assert abs(rep.lhs) <= 1e-12
    assert rep.verdict == HOLDS


def test_classical_constant():
    rep = bound(CLASSICAL, constant_surface(2.0), RECT01)
    assert rep.rhs == 0.0 and abs(rep.slack) <= 1e-12
    assert rep.verdict == HOLDS


def test_direct_requires_q_one():
    with pytest.raises(ParameterError):
        bound(DIRECT, corpus()["xy"].surface, RECT01, GenParams(q=2.0))


def test_direct_classical_params_equals_classical_bound():
    for name, entry in corpus().items():
        base = bound(CLASSICAL, entry.surface, RECT01)
        for variant in (PROOF_FORM, AS_WRITTEN):
            rep = bound(DIRECT, entry.surface, RECT01, CLASSICAL_P, variant=variant)
            assert rel_close(rep.rhs, base.rhs, 1e-12), (name, variant)


def test_direct_x2y2_golden():
    rep = bound(DIRECT, corpus()["x2y2"].surface, RECT01, CLASSICAL_P)
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-13
    assert abs(rep.slack - 5.0 / 144.0) <= 1e-12
    assert rep.verdict == HOLDS


def test_holder_requires_q_above_one():
    with pytest.raises(ParameterError):
        bound(HOLDER, corpus()["xy"].surface, RECT01, GenParams(q=1.0))


def test_holder_x2y2_both_variants():
    p = GenParams(q=2.0)
    proof = bound(HOLDER, corpus()["x2y2"].surface, RECT01, p, variant=PROOF_FORM)
    written = bound(HOLDER, corpus()["x2y2"].surface, RECT01, p, variant=AS_WRITTEN)
    assert abs(proof.rhs - 1.0 / 6.0) <= 1e-13
    assert abs(written.rhs - 1.0 / 12.0) <= 1e-13
    assert proof.verdict == HOLDS and written.verdict == HOLDS


def test_holder_constant_is_zero():
    rep = bound(HOLDER, constant_surface(4.0), RECT01, GenParams(q=3.0))
    assert rep.rhs == 0.0 and rep.verdict == HOLDS


def test_power_mean_x2y2_golden():
    rep = bound(POWER_MEAN, corpus()["x2y2"].surface, RECT01, GenParams(q=2.0))
    assert abs(rep.rhs - 0.125) <= 1e-13
    assert rep.verdict == HOLDS


def test_power_mean_q1_degenerates_to_direct():
    for name, entry in corpus().items():
        pm = bound(POWER_MEAN, entry.surface, RECT01, CLASSICAL_P)
        direct = bound(DIRECT, entry.surface, RECT01, CLASSICAL_P)
        assert pm.rhs == direct.rhs, name
    p = GenParams(s1=0.5, s2=0.75, alpha1=0.5, m1=0.5, m2=0.75)
    pm = bound(POWER_MEAN, corpus()["x2y2"].surface, RECT01, p)
    direct = bound(DIRECT, corpus()["x2y2"].surface, RECT01, p)
    assert pm.rhs == direct.rhs


def test_power_mean_xy_q2():
    rep = bound(POWER_MEAN, corpus()["xy"].surface, RECT01, GenParams(q=2.0))
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-14
    assert abs(rep.lhs) <= 1e-12


def test_power_mean_as_written_dominates_proof_form():
    # (1-B)(1-C) >= (1/2-B)(1/2-C): the as-written grouping can only inflate
    for name, entry in corpus().items():
        for p in (GenParams(q=2.0), GenParams(s1=0.5, s2=0.8, q=2.0)):
            pf = bound(POWER_MEAN, entry.surface, RECT01, p, variant=PROOF_FORM)
            aw = bound(POWER_MEAN, entry.surface, RECT01, p, variant=AS_WRITTEN)
            assert aw.rhs >= pf.rhs - 1e-14, name


def test_non_finite_rhs_is_inconclusive():
    """A right side that is not a finite number bounds nothing: the corner sum
    of the classical bound overflowing to inf must not read as holding."""
    rep = bound(CLASSICAL, corpus()["x2y2"].surface, RECT01, mags=(1e308,) * 4)
    assert rep.rhs == math.inf and rep.verdict == "inconclusive"
    rep = bound(HOLDER, corpus()["x2y2"].surface, RECT01, GenParams(q=1e308))
    assert math.isnan(rep.rhs) and rep.verdict == "inconclusive"


@pytest.mark.parametrize("k", [-40, -30, -20, 0, 40])
def test_bump_holder_verdict_is_scale_free(k):
    """The bump (x - x^2)(y - y^2) times 2^k: as-written holder at q = 4 has
    lhs/rhs 1.1201 at every scale, so it reads violated at every scale."""
    c = Fraction(2) ** k
    bump = poly_surface("bump", RationalPoly2({(1, 1): c, (2, 1): -c, (1, 2): -c, (2, 2): c}), Rect(-8, 8, -8, 8))
    rep = bound(HOLDER, bump, RECT01, GenParams(q=4.0), variant=AS_WRITTEN)
    assert rel_close(rep.lhs / rep.rhs, 1.1201280219, 1e-9)
    assert rep.verdict == "violated"


def test_unknown_variant_rejected():
    with pytest.raises(ParameterError):
        bound(DIRECT, corpus()["xy"].surface, RECT01, CLASSICAL_P, variant="mystery")


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError, match="expected one of"):
        bound("mystery", corpus()["xy"].surface, RECT01)


@pytest.mark.parametrize(
    "p, variant",
    [(GenParams(m1=0.5), PROOF_FORM), (GenParams(s1=0.5), PROOF_FORM), (CLASSICAL_P, AS_WRITTEN)],
)
def test_classical_takes_only_classical_params_and_proof_form(p, variant):
    """The classical right side ignores the parameters: at m < 1 it would
    silently average |d2f| at the m-scaled corners."""
    with pytest.raises(ParameterError, match="classical"):
        bound(CLASSICAL, corpus()["xy"].surface, RECT01, p, variant)


# ----------------------------------------------------------------- reductions


def _corner_sum_q(entry, q):
    from hhverify import eval_mixed_partial

    return sum(
        abs(eval_mixed_partial(entry.surface, x, y)) ** q for x, y in RECT01.corners()
    )


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_holder_classical_reduction(q):
    """At classical parameters the proof form reduces to the known target;
    the as-written form misses it by exactly ((th1+1)(th2+1))^(1-1/q) = 4^(1-1/q)."""
    p = GenParams(q=q)
    conj = p.p
    factor = 4.0 ** (1.0 - 1.0 / q)
    for name, entry in corpus().items():
        s_term = _corner_sum_q(entry, q)
        target = RECT01.area / (4.0 * (conj + 1.0) ** (2.0 / conj)) * (s_term / 4.0) ** (1.0 / q)
        proof = bound(HOLDER, entry.surface, RECT01, p, variant=PROOF_FORM)
        written = bound(HOLDER, entry.surface, RECT01, p, variant=AS_WRITTEN)
        assert rel_close(proof.rhs, target, 1e-12), name
        assert rel_close(written.rhs * factor, target, 1e-12), name
        if s_term > 0.0:
            assert written.rhs < target  # genuinely misses, not just rounding


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_power_mean_classical_reduction(q):
    p = GenParams(q=q)
    for name, entry in corpus().items():
        s_term = _corner_sum_q(entry, q)
        target = RECT01.area / 16.0 * (s_term / 4.0) ** (1.0 / q)
        proof = bound(POWER_MEAN, entry.surface, RECT01, p, variant=PROOF_FORM)
        assert rel_close(proof.rhs, target, 1e-12), name


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_power_mean_refines_holder_at_classical(q):
    p = GenParams(q=q)
    for name, entry in corpus().items():
        pm = bound(POWER_MEAN, entry.surface, RECT01, p)
        ho = bound(HOLDER, entry.surface, RECT01, p)
        assert pm.rhs <= ho.rhs + 1e-12, name


# --------------------------------------------------------------- equivariance


def _scaled(entry, t):
    s = entry.surface
    d2f = s.d2f
    return Surface(
        name=f"{s.name}*{t}",
        domain=s.domain,
        f=lambda x, y, _f=s.f: t * _f(x, y),
        d2f=(lambda x, y, _d=d2f: t * _d(x, y)) if d2f is not None else None,
    )


def _shifted(entry, c):
    s = entry.surface
    return Surface(
        name=f"{s.name}+{c}",
        domain=s.domain,
        f=lambda x, y, _f=s.f: _f(x, y) + c,
        d2f=s.d2f,
    )


@pytest.mark.parametrize("t", [2.5, 0.5, -1.5])
def test_scaling_equivariance(t):
    p1 = GenParams()
    p2 = GenParams(q=2.0)
    for name in ("xy", "x2y2", "exp_sum"):
        entry = corpus()[name]
        scaled = _scaled(entry, t)
        dev0 = deviation_terms(entry.surface, RECT01)
        dev1 = deviation_terms(scaled, RECT01)
        assert rel_close(dev1.signed_deviation, t * dev0.signed_deviation, 1e-12), name
        assert rel_close(
            identity_report(scaled, RECT01).rhs, t * identity_report(entry.surface, RECT01).rhs, 1e-12
        ), name
        for make in (
            lambda s, dev: bound(CLASSICAL, s, RECT01, dev=dev),
            lambda s, dev: bound(DIRECT, s, RECT01, p1, dev=dev),
            lambda s, dev: bound(HOLDER, s, RECT01, p2, dev=dev),
            lambda s, dev: bound(POWER_MEAN, s, RECT01, p2, dev=dev),
        ):
            r0 = make(entry.surface, dev0)
            r1 = make(scaled, dev1)
            assert rel_close(r1.rhs, abs(t) * r0.rhs, 1e-12), name
            assert rel_close(r1.lhs, abs(t) * r0.lhs, 1e-12), name


def test_constant_shift_leaves_deviation_unchanged():
    for name in ("xy", "x2y2", "exp_sum"):
        entry = corpus()[name]
        dev0 = deviation_terms(entry.surface, RECT01)
        dev1 = deviation_terms(_shifted(entry, 3.75), RECT01)
        assert abs(dev1.signed_deviation - dev0.signed_deviation) <= (
            dev0.error_budget + dev1.error_budget + 1e-12
        ), name


# ---------------------------------------------------------------------- chains


def test_chain_2d_x2y2():
    chain = hh_chain_2d(corpus()["x2y2"].surface, RECT01)
    expected = (1.0 / 16.0, 1.0 / 12.0, 1.0 / 9.0, 1.0 / 6.0, 1.0 / 4.0)
    for got, want in zip(chain.values, expected):
        assert abs(got - want) <= 1e-12
    assert chain.monotone
    assert chain.worst_gap >= 0.0


def test_chain_2d_constant_flat():
    chain = hh_chain_2d(constant_surface(5.0), RECT01)
    assert all(abs(v - 5.0) <= 1e-12 for v in chain.values)
    assert chain.monotone
    assert abs(chain.worst_gap) <= 1e-12


def test_chain_2d_bilinear_equality():
    chain = hh_chain_2d(corpus()["xy"].surface, RECT01)
    assert all(abs(v - 0.25) <= 1e-12 for v in chain.values)
    assert chain.monotone


def _constant_in_y(name, g):
    return Surface(name, Rect(-8.0, 8.0, -8.0, 8.0), f=lambda x, y: g(x) + 0.0 * y)


def test_chain_1d_square():
    """For f(x, y) = g(x) the center, double mean and corner average are the
    one-dimensional chain g(mid) <= mean of g <= endpoint average; the
    mid-line and edge means average neighbouring members of it."""
    chain = hh_chain_2d(_constant_in_y("x2", lambda x: x * x), RECT01)
    expected = (0.25, 7.0 / 24.0, 1.0 / 3.0, 5.0 / 12.0, 0.5)
    for got, want in zip(chain.values, expected):
        assert abs(got - want) <= 1e-12
    assert chain.monotone


def test_chain_1d_constant_and_affine():
    flat = hh_chain_2d(constant_surface(7.0), Rect(-1.0, 2.0, 0.0, 1.0))
    assert all(abs(v - 7.0) <= 1e-12 for v in flat.values)
    line = hh_chain_2d(_constant_in_y("x", lambda x: x), RECT01)
    assert all(abs(v - 0.5) <= 1e-12 for v in line.values)
    assert flat.monotone and line.monotone


@pytest.mark.parametrize("name", list(corpus()))
def test_chain_2d_reads_the_deviation(name):
    s = corpus()[name].surface
    dev = deviation_terms(s, RECT01)
    chain = hh_chain_2d(s, RECT01, dev=dev)
    assert chain == hh_chain_2d(s, RECT01)
    assert chain.values[2:] == (dev.integral_mean, 0.5 * dev.marginal_a, dev.corner_avg)


def test_marginal_a_is_twice_the_edge_mean():
    """marginal_a is half the sum of the four edge means: 0.5 for xy on
    [0, 1]^2, whose edge means 0, 0.5, 0 and 0.5 average to the chain's 0.25."""
    s = corpus()["xy"].surface
    dev = deviation_terms(s, RECT01)
    assert abs(dev.marginal_a - 0.5) <= 1e-15
    assert abs(hh_chain_2d(s, RECT01, dev=dev).values[3] - 0.25) <= 1e-15


def test_off_domain_rect_names_its_first_corner_outside():
    s = Surface("unit", RECT01, f=lambda x, y: x * y)
    for fn in (deviation_terms, hh_chain_2d):
        with pytest.raises(OutOfDomainError) as exc_info:
            fn(s, Rect(0.0, 2.0, 0.0, 1.0))
        assert exc_info.value.point == (2.0, 0.0)
        assert str(exc_info.value).startswith("unit: point (2.0, 0.0) outside")


def test_chain_2d_with_dev_integrates_only_the_mid_lines(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    s = corpus()["exp_sum"].surface
    dev = deviation_terms(s, RECT01)
    monkeypatch.setattr(bounds, "integrate_1d", counting("1d", bounds.integrate_1d))
    monkeypatch.setattr(bounds, "integrate_2d", counting("2d", bounds.integrate_2d))
    hh_chain_2d(s, RECT01, dev=dev)
    assert calls == Counter({"1d": 2})


# ------------------------------------------------------- bound validity smoke


def test_bound_validity_smoke():
    """Membership-passing (surface, params) pairs must satisfy the proof-form
    bounds.  The acceptance suite runs the full grid; this is a spot check."""
    from hhverify import NO_VIOLATION, SamplingPlan
    from hhverify.convexity import FIRST, abs_mixed_surface

    plan = SamplingPlan(grid_per_axis=5, random_trials=2000, seed=0)
    cases = [
        ("x2y2", GenParams(m1=0.5, m2=0.5)),
        ("square_sum", GenParams(s1=0.5, s2=0.5)),
        ("exp_sum", GenParams()),
    ]
    for name, p in cases:
        entry = corpus()[name]
        hyp = abs_mixed_surface(entry.surface, p.q)
        rep = check_cell(hyp, RECT01, FIRST, p, plan)
        assert rep.verdict == NO_VIOLATION, name
        assert bound(DIRECT, entry.surface, RECT01, p).verdict == HOLDS, name
        assert bound(POWER_MEAN, entry.surface, RECT01, p).verdict == HOLDS, name
