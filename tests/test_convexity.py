from collections import Counter

import numpy as np
import pytest

from hhverify import (
    NO_VIOLATION,
    VIOLATED,
    GenParams,
    OutOfDomainError,
    Rect,
    SamplingPlan,
    Surface,
    check_class_first,
    check_class_second,
    check_def1_coordinated,
    constant_surface,
    corpus,
    get_surface,
    margin_class_first,
    margin_class_second,
    margin_coordinated,
    poly_surface,
    RationalPoly2,
)
from hhverify.convexity import (
    FIRST,
    SECOND,
    MembershipReport,
    MembershipSweep,
    _samples,
    abs_mixed_surface,
)

RECT01 = Rect(0.0, 1.0, 0.0, 1.0)
# trimmed plan: same structure as the default, faster for unit tests
PLAN = SamplingPlan(grid_per_axis=5, random_trials=2000, seed=0)


def margin_fn_for(notion):
    return {
        "coordinated": lambda f, p, *args: margin_coordinated(f, *args),
        "first": margin_class_first,
        "second": margin_class_second,
    }[notion]


def test_bilinear_is_coordinated_convex():
    rep = check_def1_coordinated(get_surface("xy"), RECT01, PLAN)
    assert rep.verdict == NO_VIOLATION
    # bilinear attains exact equality; only roundoff noise remains
    assert rep.worst_margin >= -1e-12


def test_concave_surface_violates_def1():
    rep = check_def1_coordinated(get_surface("neg_squares"), RECT01, PLAN)
    assert rep.verdict == VIOLATED
    assert rep.worst_margin <= -0.1
    x, y, z, w, lam, mu = rep.witness
    re_eval = margin_coordinated(get_surface("neg_squares").f, x, y, z, w, lam, mu)
    assert abs(re_eval - rep.worst_margin) <= 1e-12


def test_x2y2_is_coordinated_convex():
    rep = check_def1_coordinated(get_surface("x2y2"), RECT01, PLAN)
    assert rep.verdict == NO_VIOLATION


def test_constant_first_sense_trivial_params():
    rep = check_class_first(constant_surface(1.0), RECT01, GenParams(), PLAN)
    assert rep.verdict == NO_VIOLATION
    assert rep.worst_margin >= -1e-12


def test_constant_first_sense_m_below_one_violates():
    rep = check_class_first(constant_surface(1.0), RECT01, GenParams(m2=0.5), PLAN)
    assert rep.verdict == VIOLATED
    # RHS - LHS = (mu - 1)/2 at these parameters; worst at mu = 0
    assert abs(rep.worst_margin - (-0.5)) <= 1e-12


def test_4xy_first_sense_classical():
    s = poly_surface("4xy", RationalPoly2({(1, 1): 4}), Rect(-8, 8, -8, 8))
    rep = check_class_first(s, RECT01, GenParams(), PLAN)
    assert rep.verdict == NO_VIOLATION


def test_second_sense_examples():
    one = constant_surface(1.0)
    assert check_class_second(one, RECT01, GenParams(), PLAN).verdict == NO_VIOLATION
    assert check_class_second(one, RECT01, GenParams(m1=0.5), PLAN).verdict == VIOLATED
    s = poly_surface("4xy", RationalPoly2({(1, 1): 4}), Rect(-8, 8, -8, 8))
    assert check_class_second(s, RECT01, GenParams(), PLAN).verdict == NO_VIOLATION


@pytest.mark.parametrize(
    "params",
    [
        GenParams(s1=1, s2=1, alpha1=0.5, alpha2=0.7, m1=0.5, m2=0.8),
        GenParams(s1=1, s2=1, alpha1=1.0, alpha2=1.0, m1=1.0, m2=1.0),
        GenParams(s1=1, s2=1, alpha1=0.0, alpha2=1.0, m1=0.9, m2=1.0),
    ],
)
def test_senses_coincide_at_s_equal_one(params):
    """(1 - lam^alpha)^1 == 1 - lam^(alpha*1): identical margins, same plan."""
    for name in ("xy", "x2y2", "exp_sum"):
        s = corpus()[name].surface
        first = check_class_first(s, RECT01, params, PLAN)
        second = check_class_second(s, RECT01, params, PLAN)
        assert first.worst_margin == second.worst_margin
        assert first.verdict == second.verdict


def test_determinism():
    plan = SamplingPlan(grid_per_axis=4, random_trials=1500, seed=123)
    a = check_class_first(get_surface("exp_sum"), RECT01, GenParams(s1=0.5), plan)
    b = check_class_first(get_surface("exp_sum"), RECT01, GenParams(s1=0.5), plan)
    assert a == b


def test_seed_changes_samples():
    p = GenParams(s1=0.5)
    a = check_class_first(get_surface("exp_sum"), RECT01, p, SamplingPlan(seed=1, random_trials=500))
    b = check_class_first(get_surface("exp_sum"), RECT01, p, SamplingPlan(seed=2, random_trials=500))
    # both find violations; the witnesses may differ but verdicts agree
    assert a.verdict == b.verdict == VIOLATED


def test_witness_reproduces_margin_across_corpus():
    for name, entry in corpus().items():
        for notion, check in (
            ("coordinated", check_def1_coordinated),
            ("first", lambda s, r, plan: check_class_first(s, r, GenParams(s1=0.75, s2=0.75), plan)),
        ):
            rep = check(entry.surface, RECT01, PLAN)
            p = GenParams() if notion == "coordinated" else GenParams(s1=0.75, s2=0.75)
            re_eval = float(margin_class_first(entry.surface.f, p, *rep.witness))
            assert abs(re_eval - rep.worst_margin) <= 1e-12, (name, notion)


def test_def1_matches_first_sense_at_trivial_params():
    trivial = GenParams()
    for name, entry in corpus().items():
        a = check_def1_coordinated(entry.surface, RECT01, PLAN)
        b = check_class_first(entry.surface, RECT01, trivial, PLAN)
        assert a.verdict == b.verdict, name
        assert a.worst_margin == b.worst_margin, name


def test_hull_violation_names_scaled_corner():
    s = Surface("unit-only", RECT01, f=lambda x, y: x * y)
    with pytest.raises(OutOfDomainError) as exc_info:
        check_class_first(s, RECT01, GenParams(m1=0.5), SamplingPlan(random_trials=10))
    assert "scaled" in str(exc_info.value)


def test_samples_checked_matches_plan():
    plan = SamplingPlan(grid_per_axis=9, random_trials=10000, seed=0)
    rep = check_def1_coordinated(get_surface("xy"), RECT01, plan)
    pairs = 9 * 9 + 4  # random pairs plus the four corner pairs
    grid = (2 * 9 - 1) ** 2
    assert rep.samples_checked == pairs * grid + 10000


def test_zero_power_convention():
    # lam^(alpha*s) with lam = 0 and alpha = 0 must evaluate to 1
    val = margin_class_first(
        lambda x, y: 1.0, GenParams(alpha1=0.0, alpha2=0.0), 0.0, 0.0, 1.0, 1.0, 0.0, 0.0
    )
    # all weight lands on g(x, y): RHS = 1 = LHS
    assert val == 0.0


# ------------------------------------------------------------ the sweep core

SWEEP_GRID = [
    GenParams(s1=s, s2=s, alpha1=a, alpha2=1.0, m1=m1, m2=m2, q=q)
    for s in (0.5, 1.0)
    for a in (0.5, 1.0)
    for m1 in (0.5, 1.0)
    for m2 in (0.5, 1.0)
    for q in (1.0, 2.0, 4.0)
]
# Domain too narrow for the m = 0.5 hulls (b / m1 = d / m2 = 2): those cells are out.
NARROW = Rect(-1.0, 1.5, -1.0, 1.5)
SWEEP_SURFACES = {
    "x2y2": get_surface("x2y2"),
    "expfd": Surface("expfd", Rect(-8, 8, -8, 8), f=lambda x, y: np.exp(x + y)),  # d2f by stencil
    "narrow": Surface("narrow", NARROW, f=lambda x, y: x * x * y * y, d2f=lambda x, y: 4.0 * x * y),
}


def out_of_domain(name, p):
    return name == "narrow" and min(p.m1, p.m2) < 1.0


def written_first(f, p, x, y, z, w, lam, mu):
    """The first-sense margin written out in full, independent of how the
    package factors it."""
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


def reference_report(f, margin_fn, p, plan):
    """The refuter written out for one cell: every margin from margin_fn,
    the witness as the least tuple among the ties."""
    cols = _samples(RECT01, plan)
    margins = margin_fn(f, p, *cols)
    worst = float(margins.min())
    ties = np.flatnonzero(margins == worst)
    witness = min(tuple(float(c[i]) for c in cols) for i in ties)
    worst_margin = float(margin_fn(f, p, *witness))
    verdict = VIOLATED if worst_margin < -plan.tolerance else NO_VIOLATION
    return MembershipReport(verdict, worst_margin, witness, int(margins.size))


def assert_same_report(got, want):
    assert got.verdict == want.verdict
    assert repr(got.worst_margin) == repr(want.worst_margin)
    assert got.witness == want.witness
    assert got.samples_checked == want.samples_checked


@pytest.mark.parametrize("name", sorted(SWEEP_SURFACES))
def test_sweep_matches_one_cell_checks_on_f(name):
    s = SWEEP_SURFACES[name]
    cells = [(FIRST, GenParams())] + [(sense, p) for p in SWEEP_GRID for sense in (FIRST, SECOND)]
    reports = MembershipSweep(RECT01, PLAN).reports(s, cells)
    skipped = 0
    for (sense, p), rep in zip(cells, reports):
        check = check_class_first if sense == FIRST else check_class_second
        if out_of_domain(name, p):
            assert rep is None
            with pytest.raises(OutOfDomainError):
                check(s, RECT01, p, PLAN)
            skipped += 1
            continue
        assert_same_report(rep, check(s, RECT01, p, PLAN))
    assert_same_report(reports[0], check_def1_coordinated(s, RECT01, PLAN))
    assert skipped == (3 * (len(cells) - 1) // 4 if name == "narrow" else 0)


@pytest.mark.parametrize("name", sorted(SWEEP_SURFACES))
def test_sweep_matches_one_cell_checks_on_hypotheses(name):
    s = SWEEP_SURFACES[name]
    cells = [(FIRST, GenParams())] + [(FIRST, p) for p in SWEEP_GRID]
    reports = MembershipSweep(RECT01, PLAN).reports(s, cells, hypothesis=True)
    for (_, p), rep in zip(cells, reports):
        hyp = abs_mixed_surface(s, p.q)
        if out_of_domain(name, p):
            assert rep is None
            continue
        assert_same_report(rep, check_class_first(hyp, RECT01, p, PLAN))
    assert_same_report(reports[0], check_def1_coordinated(abs_mixed_surface(s, 1.0), RECT01, PLAN))


@pytest.mark.parametrize(
    "name, p",
    [("x2y2", GenParams(s1=0.5, m1=0.5, m2=0.5)), ("expfd", GenParams(alpha2=0.5, s2=0.5, m2=0.5))],
)
def test_sweep_matches_reference_refuter(name, p):
    s = SWEEP_SURFACES[name]
    for sense, written, public in (
        (FIRST, written_first, margin_class_first),
        (SECOND, written_second, margin_class_second),
    ):
        rep = MembershipSweep(RECT01, PLAN).reports(s, [(sense, p)])[0]
        assert_same_report(rep, reference_report(s.f, written, p, PLAN))
        cols = _samples(RECT01, PLAN)
        assert np.array_equal(public(s.f, p, *cols), written(s.f, p, *cols))


def test_tie_break_picks_least_witness():
    # The constant surface at trivial parameters has margin 0 at every sample:
    # every sample ties, and the witness is the least tuple of all of them.
    plan = SamplingPlan(grid_per_axis=3, random_trials=50, seed=5)
    rep = check_def1_coordinated(constant_surface(2.0), RECT01, plan)
    assert_same_report(rep, reference_report(constant_surface(2.0).f, written_first, GenParams(), plan))


def counting(fn, calls):
    def counted(x, y):
        if np.ndim(x) or np.ndim(y):
            calls.append(np.size(x))
        return fn(x, y)

    return counted


def test_sweep_evaluates_once_per_m_pair():
    pairs = {(p.m1, p.m2) for p in SWEEP_GRID}
    f_calls, d2f_calls = [], []
    base = get_surface("x2y2")
    s = Surface("counted", base.domain, f=counting(base.f, f_calls), d2f=counting(base.d2f, d2f_calls))
    sweep = MembershipSweep(RECT01, PLAN)
    work = Counter()
    cells = [(sense, p) for p in SWEEP_GRID for sense in (FIRST, SECOND)]
    sweep.reports(s, cells, work=work)
    assert len(f_calls) == 5 * len(pairs) < len(cells)
    assert not d2f_calls
    sweep.reports(s, [(FIRST, p) for p in SWEEP_GRID], hypothesis=True, work=work)
    assert len(d2f_calls) == 5 * len(pairs) < len(SWEEP_GRID)
    assert len(f_calls) == 5 * len(pairs)
    assert set(f_calls + d2f_calls) == {len(sweep.samples[0])}
    # f does not depend on q (its cells are shared across q); |d2f|^q does
    assert work == {
        "batched_evaluations": 2 * 5 * len(pairs),
        "membership_reports": len(cells) // 3 + len(SWEEP_GRID),
    }
