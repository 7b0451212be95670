"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL report per criterion.
"""

import json
from fractions import Fraction

import numpy as np

from support import check_cell, constant_surface, identity_residual_exact

from hhverify import (
    AS_WRITTEN,
    CLASSICAL,
    DIRECT,
    HOLDER,
    HOLDS,
    NO_VIOLATION,
    POWER_MEAN,
    PROOF_FORM,
    VIOLATED,
    GenParams,
    RationalPoly2,
    Rect,
    SamplingPlan,
    Tolerance,
    bound,
    corpus,
    deviation_terms,
    eval_mixed_partial,
    hh_chain_2d,
    identity_report,
    integrate_1d,
    kink_moment,
    margin_class_first,
)
from hhverify import cli
from hhverify.convexity import FIRST, abs_mixed_surface
from hhverify.geometry import CLASSICAL_PARAMS

RECT01 = Rect(0.0, 1.0, 0.0, 1.0)
PLAN = SamplingPlan()  # the default 9 / 10000 plan


def report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rel_ok(x, y, rtol):
    return abs(x - y) <= rtol * max(abs(x), abs(y), 1e-300) or x == y


def test_criterion_01_identity_exact_on_random_polynomials():
    """200 random rational polynomials (degree <= 6) over 10 random rational
    rectangles: the exact identity residual is exactly zero."""
    rng = np.random.default_rng(20240601)
    rects = []
    while len(rects) < 10:
        a = Fraction(int(rng.integers(-6, 5)), int(rng.integers(1, 4)))
        b = a + Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 3)))
        c = Fraction(int(rng.integers(-6, 5)), int(rng.integers(1, 4)))
        d = c + Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 3)))
        rects.append(Rect(float(a), float(b), float(c), float(d)))
    failures = 0
    for k in range(200):
        terms = {}
        for _ in range(int(rng.integers(1, 12))):
            i, j = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            terms[(i, j)] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        poly = RationalPoly2(terms)
        if identity_residual_exact(poly, rects[k % 10]) != 0:
            failures += 1
    report(1, failures == 0, f"exact identity residual zero on 200/200 polynomials")


def test_criterion_02_identity_float_on_corpus():
    worst_resid = worst_budget = 0.0
    ok = True
    for name, entry in corpus().items():
        rep = identity_report(entry.surface, RECT01)
        ok = ok and abs(rep.residual) <= rep.error_budget and rep.error_budget <= 1e-8
        worst_resid = max(worst_resid, abs(rep.residual))
        worst_budget = max(worst_budget, rep.error_budget)
    report(
        2,
        ok,
        f"float identity residual <= budget on corpus "
        f"(worst residual {worst_resid:.2e}, worst budget {worst_budget:.2e})",
    )


def test_criterion_03_kink_moment_constant():
    deep = Tolerance(rel=1e-11, abs_floor=1e-13, max_depth=34)
    worst = 0.0
    for theta in np.linspace(0.0, 1.0, 50):
        g = lambda t: abs(1.0 - 2.0 * t) * t**theta
        q = integrate_1d(g, 0.0, 1.0, deep, splits=(0.5,))
        worst = max(worst, abs(kink_moment(float(theta)) - q.value))
    endpoints_ok = (
        abs(kink_moment(1.0) - 0.25) <= 1e-14 and abs(kink_moment(0.0) - 0.5) <= 1e-14
    )
    report(
        3,
        worst <= 1e-9 and endpoints_ok,
        f"closed form vs quadrature at 50 thetas (worst {worst:.2e}); endpoints exact",
    )


def test_criterion_04_direct_reduces_to_classical():
    ok = True
    for name, entry in corpus().items():
        base = bound(CLASSICAL, entry.surface, RECT01)
        for variant in (PROOF_FORM, AS_WRITTEN):
            rep = bound(DIRECT, entry.surface, RECT01, GenParams(), variant=variant)
            ok = ok and _rel_ok(rep.rhs, base.rhs, 1e-12)
    report(4, ok, "direct bound (both variants) equals classical bound at s=alpha=m=1")


def _corner_sum_q(surface, q):
    return sum(abs(eval_mixed_partial(surface, x, y)) ** q for x, y in RECT01.corners())


def test_criterion_05_holder_classical_reduction():
    ok = True
    for q in (1.5, 2.0, 3.0):
        p = GenParams(q=q)
        conj = p.p
        factor = 4.0 ** (1.0 - 1.0 / q)
        for name, entry in corpus().items():
            s_term = _corner_sum_q(entry.surface, q)
            target = (
                RECT01.area
                / (4.0 * (conj + 1.0) ** (2.0 / conj))
                * (s_term / 4.0) ** (1.0 / q)
            )
            proof = bound(HOLDER, entry.surface, RECT01, p, variant=PROOF_FORM)
            written = bound(HOLDER, entry.surface, RECT01, p, variant=AS_WRITTEN)
            ok = ok and _rel_ok(proof.rhs, target, 1e-12)
            ok = ok and _rel_ok(written.rhs * factor, target, 1e-12)
            if s_term > 0.0:
                ok = ok and written.rhs < target
    report(
        5,
        ok,
        "Holder proof-form hits the classical target for q in {1.5, 2, 3}; "
        "as-written misses by exactly ((a1s1+1)(a2s2+1))^(1-1/q)",
    )


def test_criterion_06_power_mean_classical_reduction():
    ok = True
    for q in (1.0, 2.0, 3.0):
        p = GenParams(q=q)
        for name, entry in corpus().items():
            s_term = _corner_sum_q(entry.surface, q)
            target = RECT01.area / 16.0 * (s_term / 4.0) ** (1.0 / q)
            proof = bound(POWER_MEAN, entry.surface, RECT01, p, variant=PROOF_FORM)
            ok = ok and _rel_ok(proof.rhs, target, 1e-12)
    report(6, ok, "power-mean proof-form hits the classical target for q in {1, 2, 3}")


def test_criterion_07_golden_instance():
    entry = corpus()["x2y2"]
    dev = deviation_terms(entry.surface, RECT01)
    reports = {
        "classical": bound(CLASSICAL, entry.surface, RECT01, dev=dev),
        "direct": bound(DIRECT, entry.surface, RECT01, GenParams(), dev=dev),
        "holder": bound(HOLDER, entry.surface, RECT01, GenParams(q=2.0), dev=dev),
        "power-mean": bound(POWER_MEAN, entry.surface, RECT01, GenParams(q=2.0), dev=dev),
    }
    golden = {
        "classical": 1.0 / 16.0,
        "direct": 1.0 / 16.0,
        "holder": 1.0 / 6.0,
        "power-mean": 1.0 / 8.0,
    }
    ok = abs(dev.abs_deviation - 1.0 / 36.0) <= 1e-12
    for kind, want in golden.items():
        rep = reports[kind]
        ok = ok and abs(rep.rhs - want) <= 1e-12 and rep.verdict == HOLDS
    report(
        7,
        ok,
        "x^2y^2 golden instance: lhs = 1/36; rhs = {1/16, 1/16, 1/6, 1/8}; all hold",
    )


def test_criterion_08_bound_validity_sweep():
    """Every membership-passing (surface, params) combination satisfies every
    applicable proof-form bound."""
    combos = [
        GenParams(s1=s, s2=s, alpha1=a, alpha2=a, m1=m, m2=m, q=q)
        for s in (0.5, 0.75, 1.0)
        for a in (0.5, 1.0)
        for m in (0.5, 1.0)
        for q in (1.0, 2.0)
    ]
    checked = violations = members = 0
    for name, entry in corpus().items():
        s = entry.surface
        dev = deviation_terms(s, RECT01)
        for p in combos:
            hyp = abs_mixed_surface(s, p.q)
            if check_cell(hyp, RECT01, FIRST, p, PLAN).verdict != NO_VIOLATION:
                continue
            members += 1
            bound_reports = []
            if p.q == 1.0:
                bound_reports.append(bound(DIRECT, s, RECT01, p, dev=dev))
            else:
                bound_reports.append(bound(HOLDER, s, RECT01, p, dev=dev))
            bound_reports.append(bound(POWER_MEAN, s, RECT01, p, dev=dev))
            for rep in bound_reports:
                checked += 1
                if rep.verdict != HOLDS:
                    violations += 1
    report(
        8,
        violations == 0 and checked > 0,
        f"{members} membership-passing combos, {checked} proof-form bounds, "
        f"{violations} violations",
    )


def test_criterion_09_chain_monotone():
    ok = True
    convex_count = 0
    for name, entry in corpus().items():
        if check_cell(entry.surface, RECT01, FIRST, CLASSICAL_PARAMS, PLAN).verdict != NO_VIOLATION:
            continue  # the deliberately non-convex corpus entry
        convex_count += 1
        chain = hh_chain_2d(entry.surface, RECT01)
        ok = ok and chain.worst_gap >= -1e-10
    chain = hh_chain_2d(corpus()["x2y2"].surface, RECT01)
    expected = (1.0 / 16.0, 1.0 / 12.0, 1.0 / 9.0, 1.0 / 6.0, 1.0 / 4.0)
    exact_ok = all(abs(g - w) <= 1e-12 for g, w in zip(chain.values, expected))
    report(
        9,
        ok and exact_ok and convex_count >= 6,
        f"five-term chain monotone on {convex_count} co-ordinated-convex surfaces; "
        "x^2y^2 chain equals [1/16, 1/12, 1/9, 1/6, 1/4]",
    )


def test_criterion_10_refuter_soundness():
    one = constant_surface(1.0)
    p = GenParams(m2=0.5)
    rep = check_cell(one, RECT01, FIRST, p, PLAN)
    witness_margin = float(margin_class_first(one.f, p, *rep.witness))
    const_ok = (
        rep.verdict == VIOLATED
        and abs(witness_margin - rep.worst_margin) <= 1e-12
    )
    bilinear_ok = True
    for surface in (corpus()["xy"].surface,):
        d1 = check_cell(surface, RECT01, FIRST, CLASSICAL_PARAMS, PLAN)
        c1 = check_cell(surface, RECT01, FIRST, GenParams(), PLAN)
        bilinear_ok = bilinear_ok and d1.worst_margin >= -1e-9 and c1.worst_margin >= -1e-9
    report(
        10,
        const_ok and bilinear_ok,
        f"constant-1 at m2=1/2 violated with reproducible witness "
        f"(margin {rep.worst_margin:.3f}); bilinear margins >= -1e-9",
    )


def test_criterion_11_verify_determinism(tmp_path):
    cfg = {
        "surfaces": ["x2y2", "exp_sum", "neg_squares"],
        "rect": [0.0, 1.0, 0.0, 1.0],
        "param_grid": {"s1": [0.5, 1.0], "q": [1.0, 2.0]},
        "variants": ["proof-form", "as-written"],
        "checks": list(cli.ALL_CHECKS),
        "plan": {"grid_per_axis": 5, "random_trials": 1000},
        "seed": 99,
    }
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli.main(["verify", "--config", str(cfgfile), "--out", str(out1)])
    rc2 = cli.main(["verify", "--config", str(cfgfile), "--out", str(out2)])
    ok = rc1 == rc2 == 0
    names = ("bounds.csv", "membership.csv", "chains.csv", "identity.csv")
    for name in names:
        ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(11, ok, "two verify runs with the same config and seed: byte-identical CSVs")
