from dataclasses import replace

import numpy as np
import pytest

from support import check_cell, constant_surface, hunt_surfaces, witness_margin, written_first, written_second

from hhverify import (
    NO_VIOLATION,
    VIOLATED,
    GenParams,
    NonFiniteError,
    OutOfDomainError,
    Rect,
    SamplingPlan,
    Surface,
    corpus,
    poly_surface,
    RationalPoly2,
)
from hhverify import convexity
from hhverify.geometry import CLASSICAL_PARAMS
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


def test_bilinear_is_coordinated_convex():
    rep = check_cell(corpus()["xy"].surface, RECT01, FIRST, CLASSICAL_PARAMS, PLAN)
    assert rep.verdict == NO_VIOLATION
    # bilinear attains exact equality; only roundoff noise remains
    assert rep.worst_margin >= -1e-12


def test_concave_surface_violates_def1():
    rep = check_cell(corpus()["neg_squares"].surface, RECT01, FIRST, CLASSICAL_PARAMS, PLAN)
    assert rep.verdict == VIOLATED
    assert rep.worst_margin <= -0.1
    assert witness_margin(written_first, corpus()["neg_squares"].surface.f, GenParams(), rep.witness) == rep.worst_margin


def test_x2y2_is_coordinated_convex():
    rep = check_cell(corpus()["x2y2"].surface, RECT01, FIRST, CLASSICAL_PARAMS, PLAN)
    assert rep.verdict == NO_VIOLATION


def test_constant_first_sense_trivial_params():
    rep = check_cell(constant_surface(1.0), RECT01, FIRST, GenParams(), PLAN)
    assert rep.verdict == NO_VIOLATION
    assert rep.worst_margin >= -1e-12


def test_constant_first_sense_m_below_one_violates():
    rep = check_cell(constant_surface(1.0), RECT01, FIRST, GenParams(m2=0.5), PLAN)
    assert rep.verdict == VIOLATED
    # RHS - LHS = (mu - 1)/2 at these parameters; worst at mu = 0
    assert abs(rep.worst_margin - (-0.5)) <= 1e-12


def test_4xy_first_sense_classical():
    s = poly_surface("4xy", RationalPoly2({(1, 1): 4}), Rect(-8, 8, -8, 8))
    rep = check_cell(s, RECT01, FIRST, GenParams(), PLAN)
    assert rep.verdict == NO_VIOLATION


def test_second_sense_examples():
    one = constant_surface(1.0)
    assert check_cell(one, RECT01, SECOND, GenParams(), PLAN).verdict == NO_VIOLATION
    assert check_cell(one, RECT01, SECOND, GenParams(m1=0.5), PLAN).verdict == VIOLATED
    s = poly_surface("4xy", RationalPoly2({(1, 1): 4}), Rect(-8, 8, -8, 8))
    assert check_cell(s, RECT01, SECOND, GenParams(), PLAN).verdict == NO_VIOLATION


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
        first = check_cell(s, RECT01, FIRST, params, PLAN)
        second = check_cell(s, RECT01, SECOND, params, PLAN)
        assert first.worst_margin == second.worst_margin
        assert first.verdict == second.verdict


def test_determinism():
    plan = SamplingPlan(grid_per_axis=4, random_trials=1500, seed=123)
    a = check_cell(corpus()["exp_sum"].surface, RECT01, FIRST, GenParams(s1=0.5), plan)
    b = check_cell(corpus()["exp_sum"].surface, RECT01, FIRST, GenParams(s1=0.5), plan)
    assert a == b


def test_seed_changes_samples():
    p = GenParams(s1=0.5)
    a = check_cell(corpus()["exp_sum"].surface, RECT01, FIRST, p, SamplingPlan(seed=1, random_trials=500))
    b = check_cell(corpus()["exp_sum"].surface, RECT01, FIRST, p, SamplingPlan(seed=2, random_trials=500))
    # both find violations; the witnesses may differ but verdicts agree
    assert a.verdict == b.verdict == VIOLATED


def test_witness_reproduces_margin_across_corpus():
    for name, entry in corpus().items():
        for notion, p in (("coordinated", GenParams()), ("first", GenParams(s1=0.75, s2=0.75))):
            rep = check_cell(entry.surface, RECT01, FIRST, p, PLAN)
            assert witness_margin(written_first, entry.surface.f, p, rep.witness) == rep.worst_margin, (name, notion)


def test_def1_matches_first_sense_at_trivial_params():
    trivial = GenParams()
    for name, entry in corpus().items():
        a = check_cell(entry.surface, RECT01, FIRST, CLASSICAL_PARAMS, PLAN)
        b = check_cell(entry.surface, RECT01, FIRST, trivial, PLAN)
        assert a.verdict == b.verdict, name
        assert a.worst_margin == b.worst_margin, name


def test_hull_violation_names_scaled_corner():
    s = Surface("unit-only", RECT01, f=lambda x, y: x * y)
    with pytest.raises(OutOfDomainError) as exc_info:
        check_cell(s, RECT01, FIRST, GenParams(m1=0.5), SamplingPlan(random_trials=10))
    assert "scaled" in str(exc_info.value)
    assert exc_info.value.point == (2.0, 0.0)  # b / m1 at y = c


def test_scalar_valued_f_is_broadcast():
    """f returning a plain float gives the report of the equal constant
    surface; an f that cannot take arrays raises, as it does in quadrature."""
    one = Surface("one", corpus()["xy"].surface.domain, f=lambda x, y: 1.0)
    want = MembershipSweep(RECT01, PLAN).reports(constant_surface(1.0), [(FIRST, GenParams(m1=0.5))])
    assert MembershipSweep(RECT01, PLAN).reports(one, [(FIRST, GenParams(m1=0.5))]) == want
    scalar_only = Surface("scalar-only", one.domain, f=lambda x, y: float(x) * float(y))
    with pytest.raises(TypeError):
        check_cell(scalar_only, RECT01, FIRST, CLASSICAL_PARAMS, PLAN)


def test_samples_checked_matches_plan():
    plan = SamplingPlan(grid_per_axis=9, random_trials=10000, seed=0)
    rep = check_cell(corpus()["xy"].surface, RECT01, FIRST, CLASSICAL_PARAMS, plan)
    pairs = 9 * 9 + 4  # random pairs plus the four corner pairs
    grid = (2 * 9 - 1) ** 2
    assert rep.samples_checked == pairs * grid + 10000


def reference_samples(rect, plan):
    """The samples built column by column, as the refuter once built them."""
    rng = np.random.default_rng(plan.seed)
    npairs = plan.grid_per_axis**2
    corner_pairs = np.array(
        [
            (rect.a, rect.c, rect.b, rect.d),
            (rect.b, rect.d, rect.a, rect.c),
            (rect.a, rect.d, rect.b, rect.c),
            (rect.b, rect.c, rect.a, rect.d),
        ]
    )
    rand_pairs = np.column_stack(
        [
            rng.uniform(rect.a, rect.b, npairs),
            rng.uniform(rect.c, rect.d, npairs),
            rng.uniform(rect.a, rect.b, npairs),
            rng.uniform(rect.c, rect.d, npairs),
        ]
    )
    pairs = np.vstack([corner_pairs, rand_pairs])

    n_grid = 2 * plan.grid_per_axis - 1
    axis = np.linspace(0.0, 1.0, n_grid)
    gl, gm = np.meshgrid(axis, axis, indexing="ij")
    gl, gm = gl.ravel(), gm.ravel()

    x = np.repeat(pairs[:, 0], gl.size)
    y = np.repeat(pairs[:, 1], gl.size)
    z = np.repeat(pairs[:, 2], gl.size)
    w = np.repeat(pairs[:, 3], gl.size)
    lam = np.tile(gl, len(pairs))
    mu = np.tile(gm, len(pairs))

    if plan.random_trials:
        x = np.concatenate([x, rng.uniform(rect.a, rect.b, plan.random_trials)])
        y = np.concatenate([y, rng.uniform(rect.c, rect.d, plan.random_trials)])
        z = np.concatenate([z, rng.uniform(rect.a, rect.b, plan.random_trials)])
        w = np.concatenate([w, rng.uniform(rect.c, rect.d, plan.random_trials)])
        lam = np.concatenate([lam, rng.uniform(0.0, 1.0, plan.random_trials)])
        mu = np.concatenate([mu, rng.uniform(0.0, 1.0, plan.random_trials)])
    return x, y, z, w, lam, mu


@pytest.mark.parametrize("grid_per_axis, random_trials", [(2, 0), (3, 7), (9, 10000)])
def test_samples_match_column_by_column_reference(grid_per_axis, random_trials):
    rect = Rect(-3.5, -0.25, -2.0, 1.5)
    plan = SamplingPlan(grid_per_axis=grid_per_axis, random_trials=random_trials, seed=11)
    got = _samples(rect, plan)
    want = reference_samples(rect, plan)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.flags.c_contiguous
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_zero_power_convention():
    # lam^(alpha*s) with lam = 0 and alpha = 0 must evaluate to 1
    sweep = MembershipSweep(RECT01, PLAN)
    for axis in (0, 1):
        assert (sweep.samples[4 + axis] == 0.0).any()
        assert (sweep._sample_power(axis, 0.0) == 1.0).all()


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
    "x2y2": corpus()["x2y2"].surface,
    "expfd": Surface("expfd", Rect(-8, 8, -8, 8), f=lambda x, y: np.exp(x + y)),  # d2f by stencil
    "narrow": Surface("narrow", NARROW, f=lambda x, y: x * x * y * y, d2f=lambda x, y: 4.0 * x * y),
}


def out_of_domain(name, p):
    return name == "narrow" and min(p.m1, p.m2) < 1.0


def reference_report(f, margin_fn, p, plan):
    """The refuter written out for one cell: every margin from margin_fn,
    the least of them reported, the witness as the least tuple among the
    ties."""
    cols = _samples(RECT01, plan)
    margins = margin_fn(f, p, *cols)
    worst = float(margins.min())
    ties = np.flatnonzero(margins == worst)
    witness = min(tuple(float(c[i]) for c in cols) for i in ties)
    verdict = VIOLATED if worst < -plan.tolerance else NO_VIOLATION
    return MembershipReport(verdict, worst, witness, int(margins.size))


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
        if out_of_domain(name, p):
            assert rep is None
            with pytest.raises(OutOfDomainError):
                check_cell(s, RECT01, sense, p, PLAN)
            skipped += 1
            continue
        assert_same_report(rep, check_cell(s, RECT01, sense, p, PLAN))
    assert_same_report(reports[0], check_cell(s, RECT01, FIRST, CLASSICAL_PARAMS, PLAN))
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
        assert_same_report(rep, check_cell(hyp, RECT01, FIRST, p, PLAN))
    assert_same_report(reports[0], check_cell(abs_mixed_surface(s, 1.0), RECT01, FIRST, CLASSICAL_PARAMS, PLAN))


@pytest.mark.parametrize(
    "name, p",
    [("x2y2", GenParams(s1=0.5, m1=0.5, m2=0.5)), ("expfd", GenParams(alpha2=0.5, s2=0.5, m2=0.5))],
)
def test_sweep_matches_reference_refuter(name, p):
    s = SWEEP_SURFACES[name]
    for sense, written in ((FIRST, written_first), (SECOND, written_second)):
        rep = MembershipSweep(RECT01, PLAN).reports(s, [(sense, p)])[0]
        assert_same_report(rep, reference_report(s.f, written, p, PLAN))


def test_tie_break_picks_least_witness():
    # The constant surface at trivial parameters has margin 0 at every sample:
    # every sample ties, and the witness is the least tuple of all of them.
    plan = SamplingPlan(grid_per_axis=3, random_trials=50, seed=5)
    rep = check_cell(constant_surface(2.0), RECT01, FIRST, CLASSICAL_PARAMS, plan)
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
    base = corpus()["x2y2"].surface
    s = Surface("counted", base.domain, f=counting(base.f, f_calls), d2f=counting(base.d2f, d2f_calls))
    sweep = MembershipSweep(RECT01, PLAN)
    cells = [(sense, p) for p in SWEEP_GRID for sense in (FIRST, SECOND)]
    sweep.reports(s, cells)
    assert len(f_calls) == 5 * len(pairs) < len(cells)
    assert not d2f_calls
    hyp_cells = [(FIRST, p) for p in SWEEP_GRID]
    sweep.reports(s, hyp_cells, hypothesis=True)
    assert len(d2f_calls) == 5 * len(pairs) < len(SWEEP_GRID)
    assert len(f_calls) == 5 * len(pairs)
    assert set(f_calls + d2f_calls) == {len(sweep.samples[0])}
    # f does not depend on q (its cells are shared across q); |d2f|^q does
    distinct = len(distinct_margins(cells, False)) + len(distinct_margins(hyp_cells, True))
    assert sweep.work == {
        "batched_evaluations": 2 * 5 * len(pairs),
        "membership_reports": len(cells) // 3 + len(SWEEP_GRID),
        "sample_margins": distinct * len(sweep.samples[0]),
    }


def test_sweep_checks_the_hull_once_per_m_pair(monkeypatch):
    calls = []
    check = convexity.require_hull_inside

    def counted(s, r, p):
        calls.append((p.m1, p.m2))
        return check(s, r, p)

    monkeypatch.setattr(convexity, "require_hull_inside", counted)
    pairs = list(dict.fromkeys((p.m1, p.m2) for p in SWEEP_GRID))
    sweep = MembershipSweep(RECT01, PLAN)
    for hypothesis in (False, True):
        cells = [(sense, p) for p in SWEEP_GRID for sense in (FIRST, SECOND)]
        reports = sweep.reports(SWEEP_SURFACES["narrow"], cells, hypothesis=hypothesis)
        assert calls == pairs
        assert [rep is None for rep in reports] == [out_of_domain("narrow", p) for _, p in cells]
        calls.clear()


# Cells whose theta = alpha * s collide (alpha, s = 0.5, 1 against 1, 0.5 on
# either axis) and so share one report in the first sense, but not in the
# second, whose weights depend on s and alpha apart.
COLLIDING_GRID = [
    GenParams(s1=s1, s2=s2, alpha1=a1, alpha2=a2, m1=m1, m2=m2, q=q)
    for s1 in (0.5, 1.0)
    for a1 in (0.5, 1.0)
    for s2 in (0.5, 1.0)
    for a2 in (0.5, 1.0)
    for m1, m2 in ((0.5, 1.0), (1.0, 0.5), (1.0, 1.0))
    for q in (1.0, 2.0, 4.0)
]
SMALL_PLAN = SamplingPlan(grid_per_axis=3, random_trials=300, seed=2)


def distinct_margins(cells, hypothesis):
    """One entry per distinct (sense, weight parameters, m1, m2, q)."""
    weight_params = {
        FIRST: lambda p: (p.theta1, p.theta2),
        SECOND: lambda p: (p.s1, p.s2, p.alpha1, p.alpha2),
    }
    return {(sense, weight_params[sense](p), p.m1, p.m2, p.q if hypothesis else 1.0) for sense, p in cells}


@pytest.mark.parametrize("hypothesis", [False, True])
@pytest.mark.parametrize("name", ["x2y2", "narrow"])
def test_sweep_shares_reports_of_equal_margins(name, hypothesis):
    s = SWEEP_SURFACES[name]
    cells = [(sense, p) for p in COLLIDING_GRID for sense in (FIRST, SECOND)]
    reports = MembershipSweep(RECT01, SMALL_PLAN).reports(s, cells, hypothesis=hypothesis)
    for (sense, p), rep in zip(cells, reports):
        target = abs_mixed_surface(s, p.q) if hypothesis else s
        if out_of_domain(name, p):
            assert rep is None
            with pytest.raises(OutOfDomainError):
                check_cell(target, RECT01, sense, p, SMALL_PLAN)
            continue
        assert rep == check_cell(target, RECT01, sense, p, SMALL_PLAN)
    assert {rep is None for rep in reports} == ({True, False} if name == "narrow" else {False})


def counting_scalars(fn, calls):
    def counted(x, y):
        if not (np.ndim(x) or np.ndim(y)):
            calls.append((x, y))
        return fn(x, y)

    return counted


@pytest.mark.parametrize("hypothesis", [False, True])
def test_sweep_reports_once_per_distinct_margin(hypothesis):
    # Each distinct margin is judged once, over the whole table; the sweep
    # evaluates no scalar.
    calls = []
    base = corpus()["x2y2"].surface
    s = Surface("counted", base.domain, f=counting_scalars(base.f, calls), d2f=counting_scalars(base.d2f, calls))
    cells = [(sense, p) for p in COLLIDING_GRID for sense in (FIRST, SECOND)]
    sweep = MembershipSweep(RECT01, SMALL_PLAN)
    sweep.reports(s, cells, hypothesis=hypothesis)
    distinct = distinct_margins(cells, hypothesis)
    assert not calls
    assert sweep.work["sample_margins"] == len(distinct) * len(sweep.samples[0])
    # first-sense cells collide in theta; f cells also across q
    assert len(distinct) < len({(sense, p if hypothesis else replace(p, q=1.0)) for sense, p in cells})
    assert sweep.work["membership_reports"] == len(cells) // (1 if hypothesis else 3)


def test_sweep_raises_the_first_non_finite_cell_q_by_q():
    # |d2f| = 1.5e308: at q = 2 every margin overflows; at q = 1 the second-
    # sense weights with s = 1/2 sum past 1 and overflow, those with s = 1
    # do not.  The sweep meets the cells of one (m1, m2) pair q by q, so the
    # q = 1 cell with s = 1/2 fails first, although unit A's q = 2 cell comes
    # before it and unit A's weights are computed first.
    big = lambda x, y: np.full(np.shape(x), 1.5e308)
    s = Surface("huge", Rect(-8, 8, -8, 8), f=lambda x, y: np.zeros(np.shape(x)), d2f=big)
    unit_a, unit_b = GenParams(), GenParams(s1=0.5, s2=0.5)
    cells = [(SECOND, unit_a), (SECOND, replace(unit_a, q=2.0)), (SECOND, unit_b)]
    expected = None
    with np.errstate(over="ignore", invalid="ignore"):
        for sense, p in sorted(cells, key=lambda cell: cell[1].q):
            try:
                check_cell(abs_mixed_surface(s, p.q), RECT01, SECOND, p, SMALL_PLAN)
            except NonFiniteError as exc:
                expected = str(exc)
                break
        assert expected is not None and "|^1 margin" in expected
        with pytest.raises(NonFiniteError) as info:
            MembershipSweep(RECT01, SMALL_PLAN).reports(s, cells, hypothesis=True)
    assert str(info.value) == expected


def test_verdicts_raise_the_first_non_finite_cell_as_reports_do():
    # The first-sense variant of the case above: its weights sum to at most
    # 1, so |d2f| = 1.5e308 gives finite margins at q = 1 and none at q >= 2.
    # The sweep meets unit A's q = 4 cell first, yet both paths raise the
    # error of the cell first in q order, unit B's q = 2 cell, at its first
    # sample.
    big = lambda x, y: np.full(np.shape(x), 1.5e308)
    s = Surface("huge", Rect(-8, 8, -8, 8), f=lambda x, y: np.zeros(np.shape(x)), d2f=big)
    unit_a, unit_b, unit_c = GenParams(), GenParams(s1=0.5, s2=0.5), GenParams(alpha1=0.5)
    params = [unit_a, replace(unit_b, q=2.0), replace(unit_a, q=4.0), replace(unit_c, q=8.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        check_cell(abs_mixed_surface(s, 1.0), RECT01, FIRST, unit_a, SMALL_PLAN)
        with pytest.raises(NonFiniteError) as one:
            check_cell(abs_mixed_surface(s, 2.0), RECT01, FIRST, params[1], SMALL_PLAN)
        with pytest.raises(NonFiniteError) as swept:
            MembershipSweep(RECT01, SMALL_PLAN).reports(s, [(FIRST, p) for p in params], hypothesis=True)
        with pytest.raises(NonFiniteError) as judged:
            MembershipSweep(RECT01, SMALL_PLAN).verdicts(s, params)
    assert "|^2 margin at sample (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)" in str(one.value)
    assert str(judged.value) == str(swept.value) == str(one.value)


def verdicts_of_reports(sweep, s, params):
    reports = sweep.reports(s, [(FIRST, p) for p in params], hypothesis=True)
    return [None if rep is None else rep.verdict for rep in reports]


# The block size verdicts starts with: the default, one sample (one block
# per power of two) and the whole table (a single block).
BLOCKS = [convexity.BLOCK, 1, 10**9]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(SWEEP_SURFACES))
def test_verdicts_match_reports(monkeypatch, name, block):
    s = SWEEP_SURFACES[name]
    f_cells = [(sense, p) for p in COLLIDING_GRID for sense in (FIRST, SECOND)]
    hyp_cells = [(FIRST, p) for p in COLLIDING_GRID]
    full = MembershipSweep(RECT01, SMALL_PLAN)
    want = full.reports(s, f_cells), full.reports(s, hyp_cells, hypothesis=True)
    monkeypatch.setattr(convexity, "BLOCK", block)
    sweep = MembershipSweep(RECT01, SMALL_PLAN)
    verdicts = sweep.verdicts(s, COLLIDING_GRID)
    assert verdicts == verdicts_of_reports(sweep, s, COLLIDING_GRID)
    assert [v is None for v in verdicts] == [out_of_domain(name, p) for p in COLLIDING_GRID]
    assert {VIOLATED, NO_VIOLATION} <= set(verdicts)
    # a full report scans the whole table as one block, whatever BLOCK is
    assert (sweep.reports(s, f_cells), sweep.reports(s, hyp_cells, hypothesis=True)) == want


# d2f = 4xy - 1 changes sign on [0, 1]^2, so |d2f|^q is not d2f^q there.
SADDLE = Surface(
    "saddle", Rect(-8, 8, -8, 8), f=lambda x, y: x * x * y * y - x * y, d2f=lambda x, y: 4.0 * x * y - 1.0
)


@pytest.mark.parametrize("name", sorted(SWEEP_SURFACES) + ["saddle"])
def test_verdicts_match_reference_refuter(name):
    # The refuter written out (reference_report), which shares no code with
    # the sweep's loop, on each cell's hypothesis |d2f|^q.
    s = SWEEP_SURFACES.get(name, SADDLE)
    verdicts = MembershipSweep(RECT01, PLAN).verdicts(s, SWEEP_GRID)
    hyp = lambda p: abs_mixed_surface(s, p.q).f
    want = [
        None if out_of_domain(name, p) else reference_report(hyp(p), written_first, p, PLAN).verdict
        for p in SWEEP_GRID
    ]
    assert verdicts == want
    assert {VIOLATED, NO_VIOLATION} <= set(verdicts)


def test_verdicts_match_reports_on_hunt_surfaces():
    # The first 3 surfaces of configs/hunt.json's hunt, with the parameter
    # cells whose hypotheses the hunt refutes.
    cfg, surfaces = hunt_surfaces(3)
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    seen = set()
    for s in surfaces:
        verdicts = sweep.verdicts(s, cfg.combos)
        assert verdicts == verdicts_of_reports(sweep, s, cfg.combos)
        seen.update(verdicts)
    assert seen == {VIOLATED, NO_VIOLATION}


def memoized(g):
    """g, each value kept per distinct pair of argument arrays."""
    values = {}

    def cached(x, y):
        key = (x.tobytes(), y.tobytes())
        if key not in values:
            values[key] = g(x, y)
        return values[key]

    return cached


def test_hypothesis_reports_take_the_least_whole_table_margin():
    # Every hypothesis report of those surfaces: its margin is bitwise the
    # least written-out margin over the whole table, and the written-out
    # margin at its witness, on one-element arrays, is that same margin.
    cfg, surfaces = hunt_surfaces(3)
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    checked = 0
    for s in surfaces:
        reports = sweep.reports(s, [(FIRST, p) for p in cfg.combos], hypothesis=True)
        cached = replace(s, d2f=memoized(s.d2f))  # the same d2f values, each point array evaluated once
        least = {}
        for p, rep in zip(cfg.combos, reports):
            f = abs_mixed_surface(cached, p.q).f
            key = (p.theta1, p.theta2, p.m1, p.m2, p.q)
            if key not in least:
                least[key] = float(written_first(f, p, *sweep.samples).min())
            assert repr(rep.worst_margin) == repr(least[key]), (s.name, p)
            assert repr(witness_margin(written_first, f, p, rep.witness)) == repr(rep.worst_margin), (s.name, p)
            checked += 1
    assert checked == 3 * len(cfg.combos) == 1296


def test_verdicts_scan_only_the_blocks_a_group_needs():
    # |d2f|^q = exp(q (x + y)): every cell of the two m < 1 groups is violated
    # in the first block, so those groups evaluate d2f on it alone; the m = 1
    # group has clean cells, which scan both blocks.
    calls = []
    exp = lambda x, y: np.exp(x + y)
    s = Surface("exp", Rect(-8, 8, -8, 8), f=exp, d2f=counting(exp, calls))
    sweep = MembershipSweep(RECT01, SMALL_PLAN)
    verdicts = sweep.verdicts(s, COLLIDING_GRID)
    n = len(sweep.samples[0])
    assert [len(range(n)[block]) for block in convexity._blocks(n)] == [512, n - 512]
    by_m = {}
    for p, verdict in zip(COLLIDING_GRID, verdicts):
        by_m.setdefault((p.m1, p.m2), set()).add(verdict)
    assert by_m == {(0.5, 1.0): {VIOLATED}, (1.0, 0.5): {VIOLATED}, (1.0, 1.0): {VIOLATED, NO_VIOLATION}}
    assert calls == 3 * 5 * [512] + 5 * [n - 512]
    assert sweep.work["batched_evaluations"] == len(calls)


def test_sweep_caches_sample_powers_per_exponent():
    cells = [(FIRST, p) for p in COLLIDING_GRID]
    sweep = MembershipSweep(RECT01, SMALL_PLAN)
    sweep.reports(SWEEP_SURFACES["expfd"], cells, hypothesis=True)
    thetas = {p.theta1 for p in COLLIDING_GRID}
    assert set(sweep._powers) == {(axis, t) for axis in (0, 1) for t in thetas}
    # powers cached for one surface serve the next
    reports = sweep.reports(corpus()["x2y2"].surface, cells, hypothesis=True)
    assert reports == MembershipSweep(RECT01, SMALL_PLAN).reports(corpus()["x2y2"].surface, cells, hypothesis=True)
