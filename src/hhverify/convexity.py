"""Sampling-based membership refuters for the co-ordinated convexity notions.

Each checker evaluates margin = RHS - LHS of the defining inequality over a
deterministic sample set and reports the worst margin with its witness.  A
negative margin beyond the tolerance is a concrete violation; "no violation
found" is exactly that - these are refuters, not certifiers, because the
conditions quantify over a continuum.

The sample set couples the pair of base points with a dense (lam, mu) grid:
the four rectangle corner pairs (the degenerate instances the integral bounds
actually consume), grid_per_axis^2 random pairs, each crossed with a
(2*grid_per_axis - 1)^2 grid over the unit square, plus fully random trials.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteError, OutOfDomainError
from .geometry import CLASSICAL_PARAMS, GenParams, Rect
from .surfaces import Surface, mixed_partial_func, require_hull_inside

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"
# The two senses of class membership; plain co-ordinated convexity is the
# first sense at trivial parameters.
FIRST = "first"
SECOND = "second"

@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling layout for the refuters."""

    grid_per_axis: int = 9
    random_trials: int = 10000
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.grid_per_axis < 2:
            raise ValueError("grid_per_axis must be >= 2")
        if self.random_trials < 0:
            raise ValueError("random_trials must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.tolerance < float("inf"):  # NaN or inf would pass every margin
            raise ValueError("tolerance must be finite and >= 0")


DEFAULT_PLAN = SamplingPlan()


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    worst_margin: float
    witness: tuple  # (x, y, z, w, lam, mu)
    samples_checked: int


def margin_class_first(f, p: GenParams, x, y, z, w, lam, mu):
    """RHS - LHS of the first-sense inequality (weights 1 - lam^(alpha*s))."""
    return _combine(_weights_first(p, _power_of(lam, mu)), _points(f, p.m1, p.m2, x, y, z, w, lam, mu))


def margin_class_second(f, p: GenParams, x, y, z, w, lam, mu):
    """RHS - LHS of the second-sense inequality (weights (1 - lam^alpha)^s)."""
    return _combine(_weights_second(p, _power_of(lam, mu)), _points(f, p.m1, p.m2, x, y, z, w, lam, mu))


def _points(f, m1, m2, x, y, z, w, lam, mu):
    """f at the four m-scaled corner points and at the convex combination.

    These are a margin's only evaluations of f; they depend on m but not on
    s or alpha, so a sweep evaluates them once per (m1, m2).
    """
    return (
        f(x, y),
        f(x, w / m2),
        f(z / m1, y),
        f(z / m1, w / m2),
        f(lam * x + (1.0 - lam) * z, mu * y + (1.0 - mu) * w),
    )


def _power_of(lam, mu):
    """power(axis, e): lam^e on axis 0, mu^e on axis 1."""
    # lam^0 with lam = 0 must evaluate to 1 (limit convention); np.power does.
    return lambda axis, e: np.power((lam, mu)[axis], e)


def _weights_first(p: GenParams, power):
    """The four corner weights of the first-sense inequality; ``power`` is
    as _power_of returns it."""
    wl = power(0, p.theta1)
    wm = power(1, p.theta2)
    return (
        wl * wm,
        p.m2 * wl * (1.0 - wm),
        p.m1 * wm * (1.0 - wl),
        p.m1 * p.m2 * (1.0 - wl) * (1.0 - wm),
    )


def _weights_second(p: GenParams, power):
    """The four corner weights of the second-sense inequality."""
    wl = power(0, p.theta1)
    wm = power(1, p.theta2)
    cl = np.power(1.0 - power(0, p.alpha1), p.s1)
    cm = np.power(1.0 - power(1, p.alpha2), p.s2)
    return (wl * wm, p.m2 * wl * cm, p.m1 * wm * cl, p.m1 * p.m2 * cl * cm)


def _combine(weights, points):
    """RHS - LHS from the corner weights and the five point values.

    Products and sums associate left to right, so the result is bitwise the
    inequality written out in full (weight factors first, then the value).
    """
    k1, k2, k3, k4 = weights
    fxy, fxw, fzy, fzw, lhs = points
    rhs = k1 * fxy + k2 * fxw + k3 * fzy + k4 * fzw
    return rhs - lhs


# Per sense: its weights, the parameters besides m that they depend on, and
# its margin at one sample.
_SENSES = {
    FIRST: (_weights_first, lambda p: (p.theta1, p.theta2), margin_class_first),
    SECOND: (_weights_second, lambda p: (p.s1, p.s2, p.alpha1, p.alpha2), margin_class_second),
}


def _power(v, q: float):
    return v if q == 1.0 else v ** q


def abs_mixed_surface(s: Surface, q: float) -> Surface:
    """The hypothesis function of the generalized bounds: |d2f|^q as a surface."""
    d2f = mixed_partial_func(s)
    fn = lambda x, y: _power(np.abs(d2f(x, y)), q)
    return Surface(name=f"|d2f[{s.name}]|^{q:g}", domain=s.domain, f=fn)


def _batch_eval(f, xs, ys):
    """f over the sample arrays from one call; a scalar return is broadcast."""
    out = np.empty(xs.shape)
    out[...] = f(xs, ys)
    return out


def _samples(rect: Rect, plan: SamplingPlan):
    """The sample table, column i holding sample i (x, y, z, w, lam, mu): the
    corner and random pairs crossed with the (lam, mu) grid, then the random
    trials.  Filled in place, its six C-contiguous rows are the columns."""
    rng = np.random.default_rng(plan.seed)
    a, b, c, d = rect.a, rect.b, rect.c, rect.d
    lo = np.array([a, c, a, c, 0.0, 0.0])[:, None]
    hi = np.array([b, d, b, d, 1.0, 1.0])[:, None]
    corner_pairs = np.array([(a, c, b, d), (b, d, a, c), (a, d, b, c), (b, c, a, d)]).T
    pairs = np.hstack([corner_pairs, rng.uniform(lo[:4], hi[:4], (4, plan.grid_per_axis**2))])
    axis = np.linspace(0.0, 1.0, 2 * plan.grid_per_axis - 1)
    grid = np.array(np.meshgrid(axis, axis, indexing="ij")).reshape(2, -1)
    n = pairs.shape[1] * grid.shape[1]
    table = np.empty((6, n + plan.random_trials))
    table[:4, :n] = np.repeat(pairs, grid.shape[1], axis=1)
    table[4:, :n] = np.tile(grid, pairs.shape[1])
    table[:, n:] = rng.uniform(lo, hi, (6, plan.random_trials))
    return tuple(table)


class MembershipSweep:
    """The refuters over one rectangle and plan, for many parameter cells.

    The samples are built once, here, and so are the powers lam^e and mu^e
    of the sample columns, once per distinct exponent e (theta = alpha*s,
    and alpha in the second sense); they do not depend on the surface.
    ``reports`` visits the cells of one surface grouped by (m1, m2): per
    group it evaluates the five point arrays once (for hypotheses raw d2f
    once, then |d2f|^q once per q, all q of the group live together), per
    (sense, weight parameters) it computes the corner weights once, and
    per q it makes one report, which every cell alike in sense, weight
    parameters, m and q shares: their margins are bitwise equal.
    """

    def __init__(self, rect: Rect, plan: SamplingPlan = DEFAULT_PLAN):
        self.rect = rect
        self.plan = plan
        self.samples = _samples(rect, plan)
        self._powers: dict = {}  # (axis, e) -> lam^e or mu^e
        self.work = Counter()  # membership_reports, batched_evaluations

    def _sample_power(self, axis: int, e: float):
        """lam^e (axis 0) or mu^e (axis 1) over the samples, once per sweep."""
        key = (axis, e)
        if key not in self._powers:
            self._powers[key] = np.power(self.samples[4 + axis], e)
        return self._powers[key]

    def reports(self, s: Surface, cells, hypothesis: bool = False) -> list:
        """One MembershipReport per (sense, p) cell of s, None where the
        evaluation hull leaves the domain.

        With ``hypothesis`` a cell refutes membership of |d2f|^(p.q) (see
        abs_mixed_surface) instead of f, whose cells do not depend on q.
        The evaluation hull is checked once per (m1, m2) group, and
        ``self.work`` counts the cells reported and the batched surface
        evaluations.  A non-finite margin raises the NonFiniteError of the
        first failing cell, visiting the (m1, m2) pairs, within a pair its
        q values, and within a q its cells, each in order of first
        appearance.  The loops visit weights outside and q inside, so only
        one (sense, weight parameters) unit's four weight arrays live at a
        time, and collect the errors to raise them in q order: visiting q
        first keeps every unit's weights alive, +17 % peak memory on hunt.
        """
        keys = [(sense, p if hypothesis else replace(p, q=1.0)) for sense, p in cells]
        groups: dict = {}  # (m1, m2) -> its distinct cells, in order
        for key in dict.fromkeys(keys):
            groups.setdefault((key[1].m1, key[1].m2), []).append(key)
        fn = mixed_partial_func(s) if hypothesis else s.f
        batched = lambda xs, ys: _batch_eval(fn, xs, ys)
        results: dict = {}
        for (m1, m2), members in groups.items():
            try:
                require_hull_inside(s, self.rect, members[0][1])
            except OutOfDomainError:
                results.update(dict.fromkeys(members))
                continue
            alike: dict = {}  # (sense, weight parameters) -> (first p, q -> cells)
            for sense, p in members:
                by_q = alike.setdefault((sense, _SENSES[sense][1](p)), (p, {}))[1]
                by_q.setdefault(p.q, []).append((sense, p))
            qs = list(dict.fromkeys(p.q for _, p in members))
            raw = _points(batched, m1, m2, *self.samples)
            self.work["batched_evaluations"] += len(raw)
            if hypothesis:
                raw = tuple(np.abs(v) for v in raw)
            points = {q: tuple(_power(v, q) for v in raw) for q in qs}
            targets = {q: abs_mixed_surface(s, q) if hypothesis else s for q in qs}
            errors = []
            for (sense, _), (p, by_q) in alike.items():
                weights = _SENSES[sense][0](p, self._sample_power)
                for q, same in by_q.items():
                    try:
                        rep = self._report(same[0], weights, targets[q], points[q])
                    except NonFiniteError as exc:
                        errors.append(((qs.index(q), members.index(same[0])), exc))
                        continue
                    results.update(dict.fromkeys(same, rep))
            if errors:
                raise min(errors, key=lambda e: e[0])[1]
        self.work["membership_reports"] += sum(rep is not None for rep in results.values())
        return [results[key] for key in keys]

    def _report(self, key, weights, target: Surface, points) -> MembershipReport:
        sense, p = key
        cols = self.samples
        margins = _combine(weights, points)
        bad = ~np.isfinite(margins)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise NonFiniteError(
                f"{target.name} margin at sample ({', '.join(str(c[i]) for c in cols)})",
                float(margins[i]),
            )
        worst = float(margins.min())
        ties = np.flatnonzero(margins == worst)
        # The lexicographically least (x, y, z, w, lam, mu) among the ties;
        # lexsort is stable, so equal tuples keep the first index.
        i = ties[np.lexsort([c[ties] for c in reversed(cols)])[0]]
        witness = tuple(float(c[i]) for c in cols)
        # Re-evaluate the witness through the scalar path so the reported margin
        # is reproducible from the witness alone.
        worst_margin = float(_SENSES[sense][2](target.f, p, *witness))
        verdict = VIOLATED if worst_margin < -self.plan.tolerance else NO_VIOLATION
        return MembershipReport(verdict, worst_margin, witness, int(margins.size))


def _check_one(s: Surface, r: Rect, plan: SamplingPlan, sense: str, p: GenParams) -> MembershipReport:
    require_hull_inside(s, r, p)  # one cell raises where a sweep reports None
    return MembershipSweep(r, plan).reports(s, [(sense, p)])[0]


def check_def1_coordinated(
    s: Surface, r: Rect, plan: SamplingPlan = DEFAULT_PLAN
) -> MembershipReport:
    """Refute (or fail to refute) plain co-ordinated convexity of s over r."""
    return _check_one(s, r, plan, FIRST, CLASSICAL_PARAMS)


def check_class_first(
    g: Surface, r: Rect, p: GenParams, plan: SamplingPlan = DEFAULT_PLAN
) -> MembershipReport:
    """Refute first-sense class membership of g over r at parameters p."""
    return _check_one(g, r, plan, FIRST, p)


def check_class_second(
    g: Surface, r: Rect, p: GenParams, plan: SamplingPlan = DEFAULT_PLAN
) -> MembershipReport:
    """Refute second-sense class membership of g over r at parameters p."""
    return _check_one(g, r, plan, SECOND, p)
