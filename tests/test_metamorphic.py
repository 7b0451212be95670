"""Metamorphic laws: relations between two runs that every verdict must obey.

Each law compares the package with itself, so it needs no reference value
and catches an error that a formula and its test share.  The laws run on the
first 3 surfaces of configs/hunt.json's hunt, the ordering law on all 25,
and the separable law also on random signed polynomials.
"""

import dataclasses
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from support import hunt_surfaces

from hhverify import (
    AS_WRITTEN,
    DIRECT,
    HOLDER,
    NO_VIOLATION,
    POWER_MEAN,
    PROOF_FORM,
    GenParams,
    MembershipSweep,
    RationalPoly2,
    Rect,
    SamplingPlan,
    bound_table,
    deviation_terms,
    poly_surface,
)
from hhverify.bounds import BOUND_KINDS, VARIANTS

# Rounding allowance of a law between two right sides: 4 ulps relative.
RHS_ALLOWANCE = 4.0 * sys.float_info.epsilon

# 5/3 x^3 - 7/2 y^4 + 11: a function of x alone plus one of y alone.
SEPARABLE = RationalPoly2({(3, 0): Fraction(5, 3), (0, 4): Fraction(-7, 2), (0, 0): 11})


def test_clean_hypotheses_stay_clean_at_larger_q():
    """If g = |d2f|^q satisfies the first-sense inequality at a sample, so
    does g^(q'/q) for every q' >= q: the weights are >= 0 and sum to at most
    1, and t^(q'/q) is convex and increasing from 0.  So a cell clean at q
    is clean at every larger q of the grid."""
    cfg, surfaces = hunt_surfaces(3)
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    implications = 0
    for s in surfaces:
        by_cell: dict = {}
        for p, verdict in zip(cfg.combos, sweep.verdicts(s, cfg.combos)):
            key = (p.s1, p.s2, p.alpha1, p.alpha2, p.m1, p.m2)
            by_cell.setdefault(key, []).append((p.q, verdict))
        for key, verdicts in by_cell.items():
            for q, verdict in verdicts:
                if verdict != NO_VIOLATION:
                    continue
                for larger_q, larger in verdicts:
                    if larger_q > q:
                        assert larger == NO_VIOLATION, (s.name, key, q, larger_q)
                        implications += 1
    assert implications > 0


def test_separable_terms_change_no_verdict_and_no_deviation():
    """Adding a function of x alone or of y alone leaves d2f's polynomial and
    the exact deviation unchanged.  The error budget is not asserted: it
    follows the ulps of the corner average, double mean and A, which the
    added terms change."""
    cfg, surfaces = hunt_surfaces(3)
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    for s in surfaces:
        shifted = poly_surface(f"{s.name}+separable", s.poly + SEPARABLE, s.domain)
        assert sweep.verdicts(shifted, cfg.combos) == sweep.verdicts(s, cfg.combos)
        dev, shifted_dev = deviation_terms(s, cfg.rect), deviation_terms(shifted, cfg.rect)
        assert repr(shifted_dev.abs_deviation) == repr(dev.abs_deviation), s.name


# Signed exact polynomials with exponents up to 4 in each variable (hunt's
# ``degree``), and the separable ones: terms in x alone or in y alone.
_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_EXPONENTS = st.integers(0, 4)
SIGNED_POLYS = st.dictionaries(st.tuples(_EXPONENTS, _EXPONENTS), _COEFFS, max_size=8).map(RationalPoly2)
SEPARABLE_POLYS = st.dictionaries(
    st.tuples(_EXPONENTS, st.just(0)) | st.tuples(st.just(0), _EXPONENTS), _COEFFS, min_size=1, max_size=4
).map(RationalPoly2)
UNIT, WIDE = Rect(0.0, 1.0, 0.0, 1.0), Rect(-8.0, 8.0, -8.0, 8.0)
SMALL_SWEEP = MembershipSweep(UNIT, SamplingPlan(grid_per_axis=3, random_trials=200))
FEW_CELLS = [
    GenParams(),
    GenParams(s1=0.5, m1=0.5, q=2.0),
    GenParams(s2=0.75, alpha2=0.5, m2=0.5, q=4.0),
    GenParams(alpha1=0.0, m1=0.5, m2=0.5, q=1.5),
]


@settings(max_examples=20, deadline=None)
@given(poly=SIGNED_POLYS, separable=SEPARABLE_POLYS)
def test_separable_terms_change_nothing_on_signed_polynomials(poly, separable):
    """The separable law over signed coefficients, where d2f may change sign
    or vanish: the terms in x alone or y alone drop out of d2f's polynomial
    and of the exact deviation, so the hypothesis verdicts and the absolute
    deviation are bitwise the same."""
    s = poly_surface("signed", poly, WIDE)
    shifted = poly_surface("signed+separable", poly + separable, WIDE)
    assert SMALL_SWEEP.verdicts(shifted, FEW_CELLS) == SMALL_SWEEP.verdicts(s, FEW_CELLS)
    dev, shifted_dev = deviation_terms(s, UNIT), deviation_terms(shifted, UNIT)
    assert repr(shifted_dev.abs_deviation) == repr(dev.abs_deviation)


def _right_sides(s, rect, cells, kinds):
    """(kind, variant) -> the right sides of s's bound table, one per row, in table order."""
    by_key: dict = {}
    for _, rows in bound_table(s, rect, cells, kinds, VARIANTS, deviation_terms(s, rect)):
        for kind, variant, rep in rows:
            by_key.setdefault((kind, variant), []).append(rep.rhs)
    return by_key


def test_as_written_power_mean_dominates_proof_form_on_every_hunt_cell():
    """The as-written power-mean weights (1-M1)(1-M2) and M1*M2 are at least
    the proof-form (1/2-M1)(1/2-M2), M1*(1/2-M2) and (1/2-M1)*M2 they stand
    for, since M lies in [1/4, 1/2]; so as-written is at least proof-form at
    every cell, whatever the surface, s, alpha and m."""
    cfg, surfaces = hunt_surfaces(25)
    cells = 0
    for s in surfaces:
        rhs = _right_sides(s, cfg.rect, cfg.combos, [POWER_MEAN])
        proof_form, as_written = rhs[POWER_MEAN, PROOF_FORM], rhs[POWER_MEAN, AS_WRITTEN]
        assert len(proof_form) == len(as_written) == len(cfg.combos)
        for p, pf, aw in zip(cfg.combos, proof_form, as_written):
            assert aw >= pf * (1.0 - RHS_ALLOWANCE), (s.name, p, pf, aw)
            cells += 1
    assert cells == len(surfaces) * len(cfg.combos) == 10_800


def _swap_xy(s, rect, cells):
    """s, rect and each cell with x and y exchanged: f(y, x) over [c, d] x
    [a, b], with (s1, alpha1, m1) and (s2, alpha2, m2) swapped."""
    poly = RationalPoly2({(j, i): c for (i, j), c in s.poly.terms.items()})
    swap = lambda r: Rect(r.c, r.d, r.a, r.b)
    cells = [
        dataclasses.replace(p, s1=p.s2, s2=p.s1, alpha1=p.alpha2, alpha2=p.alpha1, m1=p.m2, m2=p.m1)
        for p in cells
    ]
    return poly_surface(f"{s.name}^T", poly, swap(s.domain)), swap(rect), cells


def test_swapping_x_and_y_leaves_the_symmetric_right_sides_unchanged():
    """Every proof-form right side, and the as-written holder, is a symmetric
    function of the two axes: exchanging x and y in f, the rect and the
    parameters changes at most the order of its sums.  The as-written direct
    and power-mean groupings pair the corner (b/m1, c) with (a, c) and so are
    not symmetric: their largest relative gaps are pinned above 0.25 here
    (measured: 0.776 and 0.281), not asserted away."""
    cfg, surfaces = hunt_surfaces(3)
    worst = dict.fromkeys((DIRECT, POWER_MEAN), 0.0)
    for s in surfaces:
        rhs = _right_sides(s, cfg.rect, cfg.combos, BOUND_KINDS)
        swapped = _right_sides(*_swap_xy(s, cfg.rect, cfg.combos), BOUND_KINDS)
        assert rhs.keys() == swapped.keys()
        for (kind, variant), values in rhs.items():
            for a, b in zip(values, swapped[kind, variant], strict=True):
                gap = abs(a - b) / max(abs(a), abs(b))
                if variant == PROOF_FORM or kind == HOLDER:
                    assert gap <= RHS_ALLOWANCE, (s.name, kind, variant, a, b)
                else:
                    worst[kind] = max(worst[kind], gap)
    assert min(worst.values()) > 0.25, worst
