"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``hhverify.oracle`` or ``hhverify.quadrature``.  The
reference for a trapezoid deviation uses one fact: for a separable surface
f(x, y) = g(x) h(y) the deviation (corner average + double mean - edge-mean
term) factors as (Tg - Mg)(Th - Mh), where T is the endpoint average and M
the integral mean of the one-variable factor.  A polynomial is a sum of
separable monomials, so its deviation is exact in ``Fraction`` arithmetic;
transcendental factors use closed-form antiderivatives in floating point,
with an allowance for the reference's own rounding.

Each checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

EPS = 2.0**-52

# The registered corpus, restated here as monomial tables {(i, j): coeff}.
CORPUS_POLYS = {
    "xy": {(1, 1): 1},
    "x2y2": {(2, 2): 1},
    "x3y3": {(3, 3): 1},
    "square_sum": {(2, 0): 1, (1, 1): 2, (0, 2): 1},
    "constant": {(0, 0): 1},
    "neg_squares": {(2, 0): -1, (0, 2): -1},
}
EXP_SUM = "exp_sum"  # exp(x + y) = exp(x) * exp(y), see EXP below
CORPUS_NAMES = (*CORPUS_POLYS, EXP_SUM)
# The one registered surface that is not co-ordinated convex: its chain
# runs downhill, so it must be reported non-monotone.
NON_CONVEX = "neg_squares"


# --------------------------------------------------------------------------
# reference values


def _monomial_gap(i: int, lo: Fraction, hi: Fraction) -> Fraction:
    """Endpoint average minus integral mean of t**i over [lo, hi]."""
    endpoint = (lo**i + hi**i) / 2
    mean = (hi ** (i + 1) - lo ** (i + 1)) / ((i + 1) * (hi - lo))
    return endpoint - mean


def poly_deviation(terms: dict, rect) -> Fraction:
    """Exact signed trapezoid deviation of sum c * x**i * y**j over rect."""
    a, b, c, d = (Fraction(v) for v in rect)
    return sum(
        (
            Fraction(coeff) * _monomial_gap(i, a, b) * _monomial_gap(j, c, d)
            for (i, j), coeff in terms.items()
        ),
        Fraction(0),
    )


class Factor:
    """One-variable factor amp * exp(beta*t) * sin(k*t + phi), written as the
    surface code writes it, with its derivative and its antiderivative.

    A cosh(beta*t) * sin(...) factor is the sum of two such terms; the
    benchmark surfaces are built from lists of them.
    """

    def __init__(self, amp: float, beta: float, k: float, phi: float):
        self.amp, self.beta, self.k, self.phi = amp, beta, k, phi

    def value(self, t: float) -> float:
        return self.amp * math.exp(self.beta * t) * math.sin(self.k * t + self.phi)

    def antiderivative(self, t: float) -> float:
        b, k = self.beta, self.k
        s, c = math.sin(k * t + self.phi), math.cos(k * t + self.phi)
        return self.amp * math.exp(b * t) * (b * s - k * c) / (b * b + k * k)

    def scale(self, lo: float, hi: float) -> float:
        return abs(self.amp) * math.exp(max(self.beta * lo, self.beta * hi))


EXP = Factor(1.0, 1.0, 0.0, 0.5 * math.pi)  # exp(t): k = 0, sin(phi) = 1


def factor_moments(terms, lo: float, hi: float):
    """Endpoint average T, integral mean M and midpoint value of a sum of
    Factor terms over [lo, hi], plus an error allowance for each."""
    w = hi - lo
    ends = sum(t.value(lo) + t.value(hi) for t in terms) / 2.0
    mean = sum(t.antiderivative(hi) - t.antiderivative(lo) for t in terms) / w
    mid = sum(t.value(0.5 * (lo + hi)) for t in terms)
    scale = sum(t.scale(lo, hi) for t in terms)
    # The mean divides a difference of antiderivatives, each of size
    # scale / (k + beta), by the width.
    anti = sum(t.scale(lo, hi) / (abs(t.k) + abs(t.beta)) for t in terms)
    return ends, mean, mid, 16.0 * EPS * scale, 16.0 * EPS * (scale + anti / w)


def separable_reference(xterms, yterms, rect):
    """Closed-form deviation and the five chain values of g(x) * h(y), each
    as (value, allowance for the reference's own rounding)."""
    a, b, c, d = rect
    tg, mg, cg, etg, emg = factor_moments(xterms, a, b)
    th, mh, ch, eth, emh = factor_moments(yterms, c, d)

    def prod(u, eu, v, ev):
        return u * v, abs(u) * ev + abs(v) * eu + eu * ev + 4.0 * EPS * abs(u * v)

    dev = prod(tg - mg, etg + emg, th - mh, eth + emh)
    center = prod(cg, etg, ch, eth)
    mid1, e1 = prod(mg, emg, ch, eth)
    mid2, e2 = prod(cg, etg, mh, emh)
    mean = prod(mg, emg, mh, emh)
    edge1, f1 = prod(mg, emg, th, eth)
    edge2, f2 = prod(tg, etg, mh, emh)
    corner = prod(tg, etg, th, eth)
    chain = (
        center,
        (0.5 * (mid1 + mid2), 0.5 * (e1 + e2) + EPS * abs(mid1 + mid2)),
        mean,
        (0.5 * (edge1 + edge2), 0.5 * (f1 + f2) + EPS * abs(edge1 + edge2)),
        corner,
    )
    return dev, chain


# --------------------------------------------------------------------------
# reading the program's reports


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _exact(text: str) -> Fraction:
    return Fraction(float(text))


def _close(u: float, v: float, rel: float = 1e-12) -> bool:
    return abs(u - v) <= rel * max(abs(u), abs(v), 1e-300)


# --------------------------------------------------------------------------
# verify-corpus


def check_verify(out_dir: Path, surface: str, rect, exit_code: int) -> list[str]:
    """Check one `hhverify verify` run over a single registered surface."""
    problems = []
    summary = read_json(out_dir / "summary.json")
    if exit_code != 0 or summary["exit_code"] != 0:
        problems.append(f"exit code {exit_code}, summary {summary['exit_code']}")
    if summary["proof_form_failures"]:
        problems.append(f"proof-form failures {summary['proof_form_failures']}")

    bounds = read_csv(out_dir / "bounds.csv")
    membership = read_csv(out_dir / "membership.csv")
    for row in bounds + membership:
        if row["verdict"] == "skipped":
            problems.append(f"skipped row {row}")
    if problems:
        return problems

    if surface == EXP_SUM:
        (dev, err), _ = separable_reference([EXP], [EXP], rect)
        ref, ref_err = Fraction(abs(dev)), Fraction(err)
    else:
        ref = abs(poly_deviation(CORPUS_POLYS[surface], rect))
        ref_err = Fraction(0)
    for row in bounds:
        gap = abs(_exact(row["lhs"]) - ref)
        if gap > _exact(row["error_budget"]) + ref_err:
            problems.append(
                f"lhs {row['lhs']} differs from |deviation| {float(ref)!r} by "
                f"{float(gap):.3e} > budget {row['error_budget']} ({row['theorem']})"
            )
            break

    trivial = {k: "1.0" for k in ("s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")}
    rhs = {}
    for row in bounds:
        if row["variant"] == "proof-form" and all(row[k] == v for k, v in trivial.items()):
            rhs[row["theorem"]] = float(row["rhs"])
    if "classical" not in rhs or "direct" not in rhs:
        problems.append(f"no classical/direct row at trivial parameters: {sorted(rhs)}")
    elif not _close(rhs["direct"], rhs["classical"]):
        problems.append(f"direct rhs {rhs['direct']!r} != classical rhs {rhs['classical']!r}")

    for row in read_csv(out_dir / "identity.csv"):
        if row["within_budget"] != "true":
            problems.append(f"identity out of budget {row}")
    for row in read_csv(out_dir / "chains.csv"):
        expect = "false" if row["surface"] == NON_CONVEX else "true"
        if row["monotone"] != expect:
            problems.append(f"chain monotone={row['monotone']} for {row['surface']}")
    if summary["rows"] != len(bounds) + len(membership) + 2:
        problems.append(f"summary rows {summary['rows']} do not match the CSVs")
    return problems


# --------------------------------------------------------------------------
# hunt-poly


def expected_hunt_rows(grid: dict, kinds, variants) -> int:
    """Rows one generated surface gets: every grid cell times the bound kinds
    that apply at its q (direct at q = 1, holder at q > 1, power-mean always)
    times the variants."""
    cells = math.prod(len(grid.get(k, [1.0])) for k in ("s1", "s2", "alpha1", "alpha2", "m1", "m2"))
    per_q = 0
    for q in grid.get("q", [1.0]):
        per_q += sum(
            1
            for kind in kinds
            if kind == "power-mean" or (kind == "direct" and q == 1.0) or (kind == "holder" and q > 1.0)
        )
    return cells * per_q * len(variants)


def check_hunt(out_dir: Path, config: dict, exit_code: int) -> list[str]:
    """Check one `hhverify hunt` run that generated a single surface."""
    problems = []
    summary = read_json(out_dir / "hunt_summary.json")
    rows = read_csv(out_dir / "hunt.csv")
    if exit_code != 0 or summary["exit_code"] != 0 or summary["proof_form_failures"]:
        problems.append(f"exit code {exit_code}, failures {summary['proof_form_failures']}")
    expect = expected_hunt_rows(config["param_grid"], config["checks"], config["variants"])
    if len(rows) != expect or summary["rows"] != expect:
        problems.append(f"{len(rows)} rows (summary {summary['rows']}), grid gives {expect}")

    if len({row["lhs"] for row in rows}) != 1:
        problems.append("lhs differs between rows of one surface")
    params = ("surface", "s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")
    proof_holder = {}
    for row in rows:
        if row["verdict"] == "skipped":
            problems.append(f"skipped row {row}")
            continue
        if row["variant"] == "proof-form":
            if row["hypothesis"] == "no-violation-found" and float(row["rhs"]) < float(row["lhs"]):
                problems.append(f"proof-form rhs < lhs under a clean hypothesis: {row}")
            if row["theorem"] == "holder":
                proof_holder[tuple(row[k] for k in params)] = float(row["rhs"])
    for row in rows:
        if row["theorem"] != "holder" or row["variant"] != "as-written":
            continue
        base = proof_holder.get(tuple(row[k] for k in params))
        if base is None:
            problems.append(f"as-written holder row without proof-form twin: {row}")
            continue
        t1 = float(row["alpha1"]) * float(row["s1"])
        t2 = float(row["alpha2"]) * float(row["s2"])
        q = float(row["q"])
        want = base * ((t1 + 1.0) * (t2 + 1.0)) ** (1.0 / q - 1.0)
        if not _close(float(row["rhs"]), want):
            problems.append(f"as-written holder rhs {row['rhs']} != {want!r}")
    return problems


# --------------------------------------------------------------------------
# quadrature-oscillatory


def check_quadrature(dev, ident, chain, reference) -> list[str]:
    """Check deviation_terms / identity_report / hh_chain_2d results for one
    separable surface against its closed forms."""
    problems = []
    (ref_dev, ref_err), ref_chain = reference
    if abs(dev.signed_deviation - ref_dev) > dev.error_budget + ref_err:
        problems.append(
            f"deviation {dev.signed_deviation!r} vs closed form {ref_dev!r}: "
            f"{abs(dev.signed_deviation - ref_dev):.3e} > budget {dev.error_budget:.3e}"
        )
    if not abs(ident.residual) <= ident.error_budget:
        problems.append(f"identity residual {ident.residual:.3e} > budget {ident.error_budget:.3e}")
    for got, (want, err) in zip(chain.values, ref_chain):
        if abs(got - want) > chain.error_budget + err:
            problems.append(f"chain value {got!r} vs closed form {want!r}")
    return problems
