import math

import numpy as np
import pytest

from support import rel_close, tanh_sinh_1d

from hhverify import (
    AS_WRITTEN,
    HOLDS,
    PROOF_FORM,
    GenParams,
    ParameterError,
    Rect,
    Surface,
    Tolerance,
    bound_classical,
    bound_direct,
    bound_holder,
    bound_power_mean,
    constant_surface,
    corpus,
    deviation_exact,
    deviation_terms,
    get_surface,
    hh_chain_1d,
    hh_chain_2d,
    identity_report,
    identity_rhs,
    integrate_1d,
    kink_moment,
)

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
    dev = deviation_terms(get_surface("xy"), RECT01)
    assert abs(dev.corner_avg - 0.25) <= 1e-14
    assert abs(dev.integral_mean - 0.25) <= 1e-12
    assert abs(dev.marginal_a - 0.5) <= 1e-12
    assert abs(dev.signed_deviation) <= 1e-12


def test_deviation_x2y2():
    dev = deviation_terms(get_surface("x2y2"), RECT01)
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
    for name, entry in corpus().items():
        if entry.poly is None:
            continue
        dev = deviation_terms(entry.surface, RECT01)
        exact = float(deviation_exact(entry.poly, RECT01))
        assert abs(dev.signed_deviation - exact) <= dev.error_budget + 1e-13, name


# ------------------------------------------------------------------- identity


def test_identity_rhs_examples():
    assert abs(identity_rhs(get_surface("xy"), RECT01)) <= 1e-12
    assert abs(identity_rhs(get_surface("x2y2"), RECT01) - 1.0 / 36.0) <= 1e-12
    assert abs(identity_rhs(constant_surface(3.0), RECT01)) <= 1e-13


def test_identity_residual_corpus():
    for name, entry in corpus().items():
        rep = identity_report(entry.surface, RECT01)
        assert abs(rep.residual) <= rep.error_budget, name
        assert rep.error_budget <= 1e-8, name


def test_identity_residual_exp():
    assert abs(identity_report(get_surface("exp_sum"), RECT01).residual) <= 1e-9


def test_identity_with_finite_difference_surface():
    s = Surface("fd-x2y2", Rect(-2, 2, -2, 2), f=lambda x, y: (x * y) ** 2)
    rep = identity_report(s, RECT01)
    # FD derivative is only ~1e-8 accurate, so compare against a looser budget
    assert abs(rep.residual) <= 1e-6


# --------------------------------------------------------------------- bounds


def test_classical_x2y2():
    rep = bound_classical(get_surface("x2y2"), RECT01)
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-14
    assert abs(rep.lhs - 1.0 / 36.0) <= 1e-12
    assert rep.verdict == HOLDS
    assert rep.slack == rep.rhs - rep.lhs


def test_classical_xy():
    rep = bound_classical(get_surface("xy"), RECT01)
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-14
    assert abs(rep.lhs) <= 1e-12
    assert rep.verdict == HOLDS


def test_classical_constant():
    rep = bound_classical(constant_surface(2.0), RECT01)
    assert rep.rhs == 0.0 and abs(rep.slack) <= 1e-12
    assert rep.verdict == HOLDS


def test_direct_requires_q_one():
    with pytest.raises(ParameterError):
        bound_direct(get_surface("xy"), RECT01, GenParams(q=2.0))


def test_direct_classical_params_equals_classical_bound():
    for name, entry in corpus().items():
        base = bound_classical(entry.surface, RECT01)
        for variant in (PROOF_FORM, AS_WRITTEN):
            rep = bound_direct(entry.surface, RECT01, CLASSICAL_P, variant=variant)
            assert rel_close(rep.rhs, base.rhs, 1e-12), (name, variant)


def test_direct_x2y2_golden():
    rep = bound_direct(get_surface("x2y2"), RECT01, CLASSICAL_P)
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-13
    assert abs(rep.slack - 5.0 / 144.0) <= 1e-12
    assert rep.verdict == HOLDS


def test_holder_requires_q_above_one():
    with pytest.raises(ParameterError):
        bound_holder(get_surface("xy"), RECT01, GenParams(q=1.0))


def test_holder_x2y2_both_variants():
    p = GenParams(q=2.0)
    proof = bound_holder(get_surface("x2y2"), RECT01, p, variant=PROOF_FORM)
    written = bound_holder(get_surface("x2y2"), RECT01, p, variant=AS_WRITTEN)
    assert abs(proof.rhs - 1.0 / 6.0) <= 1e-13
    assert abs(written.rhs - 1.0 / 12.0) <= 1e-13
    assert proof.verdict == HOLDS and written.verdict == HOLDS


def test_holder_constant_is_zero():
    rep = bound_holder(constant_surface(4.0), RECT01, GenParams(q=3.0))
    assert rep.rhs == 0.0 and rep.verdict == HOLDS


def test_power_mean_x2y2_golden():
    rep = bound_power_mean(get_surface("x2y2"), RECT01, GenParams(q=2.0))
    assert abs(rep.rhs - 0.125) <= 1e-13
    assert rep.verdict == HOLDS


def test_power_mean_q1_degenerates_to_direct():
    for name, entry in corpus().items():
        pm = bound_power_mean(entry.surface, RECT01, CLASSICAL_P)
        direct = bound_direct(entry.surface, RECT01, CLASSICAL_P)
        assert rel_close(pm.rhs, direct.rhs, 1e-14), name
    p = GenParams(s1=0.5, s2=0.75, alpha1=0.5, m1=0.5, m2=0.75)
    pm = bound_power_mean(get_surface("x2y2"), RECT01, p)
    direct = bound_direct(get_surface("x2y2"), RECT01, p)
    assert rel_close(pm.rhs, direct.rhs, 1e-14)


def test_power_mean_xy_q2():
    rep = bound_power_mean(get_surface("xy"), RECT01, GenParams(q=2.0))
    assert abs(rep.rhs - 1.0 / 16.0) <= 1e-14
    assert abs(rep.lhs) <= 1e-12


def test_power_mean_as_written_dominates_proof_form():
    # (1-B)(1-C) >= (1/2-B)(1/2-C): the as-written grouping can only inflate
    for name, entry in corpus().items():
        for p in (GenParams(q=2.0), GenParams(s1=0.5, s2=0.8, q=2.0)):
            pf = bound_power_mean(entry.surface, RECT01, p, variant=PROOF_FORM)
            aw = bound_power_mean(entry.surface, RECT01, p, variant=AS_WRITTEN)
            assert aw.rhs >= pf.rhs - 1e-14, name


def test_unknown_variant_rejected():
    with pytest.raises(ParameterError):
        bound_direct(get_surface("xy"), RECT01, CLASSICAL_P, variant="mystery")


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
        proof = bound_holder(entry.surface, RECT01, p, variant=PROOF_FORM)
        written = bound_holder(entry.surface, RECT01, p, variant=AS_WRITTEN)
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
        proof = bound_power_mean(entry.surface, RECT01, p, variant=PROOF_FORM)
        assert rel_close(proof.rhs, target, 1e-12), name


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_power_mean_refines_holder_at_classical(q):
    p = GenParams(q=q)
    for name, entry in corpus().items():
        pm = bound_power_mean(entry.surface, RECT01, p)
        ho = bound_holder(entry.surface, RECT01, p)
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
            identity_rhs(scaled, RECT01), t * identity_rhs(entry.surface, RECT01), 1e-12
        ), name
        for make in (
            lambda s, dev: bound_classical(s, RECT01, dev=dev),
            lambda s, dev: bound_direct(s, RECT01, p1, dev=dev),
            lambda s, dev: bound_holder(s, RECT01, p2, dev=dev),
            lambda s, dev: bound_power_mean(s, RECT01, p2, dev=dev),
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
    chain = hh_chain_2d(get_surface("x2y2"), RECT01)
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
    chain = hh_chain_2d(get_surface("xy"), RECT01)
    assert all(abs(v - 0.25) <= 1e-12 for v in chain.values)
    assert chain.monotone


def test_chain_1d_square():
    chain = hh_chain_1d(lambda x: x * x, 0.0, 1.0)
    expected = (0.25, 1.0 / 3.0, 0.5)
    for got, want in zip(chain.values, expected):
        assert abs(got - want) <= 1e-12
    assert chain.monotone


def test_chain_1d_constant_and_affine():
    flat = hh_chain_1d(lambda x: 7.0, -1.0, 2.0)
    assert all(abs(v - 7.0) <= 1e-12 for v in flat.values)
    line = hh_chain_1d(lambda x: x, 0.0, 1.0)
    assert all(abs(v - 0.5) <= 1e-12 for v in line.values)
    assert flat.monotone and line.monotone


# ------------------------------------------------------- bound validity smoke


def test_bound_validity_smoke():
    """Membership-passing (surface, params) pairs must satisfy the proof-form
    bounds.  The acceptance suite runs the full grid; this is a spot check."""
    from hhverify import NO_VIOLATION, SamplingPlan, check_class_first
    from hhverify.cli import abs_mixed_surface

    plan = SamplingPlan(grid_per_axis=5, random_trials=2000, seed=0)
    cases = [
        ("x2y2", GenParams(m1=0.5, m2=0.5)),
        ("square_sum", GenParams(s1=0.5, s2=0.5)),
        ("exp_sum", GenParams()),
    ]
    for name, p in cases:
        entry = corpus()[name]
        hyp = abs_mixed_surface(entry.surface, p.q)
        rep = check_class_first(hyp, RECT01, p, plan)
        assert rep.verdict == NO_VIOLATION, name
        assert bound_direct(entry.surface, RECT01, p).verdict == HOLDS, name
        assert bound_power_mean(entry.surface, RECT01, p).verdict == HOLDS, name
