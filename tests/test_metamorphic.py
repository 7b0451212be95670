"""Metamorphic laws: relations between two runs that every verdict must obey.

Each law compares the package with itself, so it needs no reference value
and catches an error that a formula and its test share.  The laws run on the
first 3 surfaces of configs/hunt.json's hunt.
"""

from fractions import Fraction

from support import hunt_surfaces

from hhverify import NO_VIOLATION, MembershipSweep, RationalPoly2, deviation_terms, poly_surface

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
