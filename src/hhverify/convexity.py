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

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteError, OutOfDomainError
from .geometry import GenParams, Rect
from .surfaces import Surface, mixed_partial_func, require_hull_inside

NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"
# The two senses of class membership; plain co-ordinated convexity is the
# first sense at trivial parameters.
FIRST = "first"
SECOND = "second"

# lam^0 with lam = 0 must evaluate to 1 (limit convention); np.power does.
_TRIVIAL = GenParams()


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
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


DEFAULT_PLAN = SamplingPlan()


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    worst_margin: float
    witness: tuple  # (x, y, z, w, lam, mu)
    samples_checked: int


def margin_coordinated(f, x, y, z, w, lam, mu):
    """RHS - LHS of the plain co-ordinated convexity inequality.

    Algebraically the first-sense margin at s = alpha = m = 1; kept as the
    shared kernel so the trivial-parameter coincidence is bitwise.
    """
    return margin_class_first(f, _TRIVIAL, x, y, z, w, lam, mu)


def margin_class_first(f, p: GenParams, x, y, z, w, lam, mu):
    """RHS - LHS of the first-sense inequality (weights 1 - lam^(alpha*s))."""
    return _combine(_weights_first(p, lam, mu), _points(f, p.m1, p.m2, x, y, z, w, lam, mu))


def margin_class_second(f, p: GenParams, x, y, z, w, lam, mu):
    """RHS - LHS of the second-sense inequality (weights (1 - lam^alpha)^s)."""
    return _combine(_weights_second(p, lam, mu), _points(f, p.m1, p.m2, x, y, z, w, lam, mu))


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


def _weights_first(p: GenParams, lam, mu):
    """The four corner weights of the first-sense inequality."""
    wl = np.power(lam, p.theta1)
    wm = np.power(mu, p.theta2)
    return (
        wl * wm,
        p.m2 * wl * (1.0 - wm),
        p.m1 * wm * (1.0 - wl),
        p.m1 * p.m2 * (1.0 - wl) * (1.0 - wm),
    )


def _weights_second(p: GenParams, lam, mu):
    """The four corner weights of the second-sense inequality."""
    wl = np.power(lam, p.theta1)
    wm = np.power(mu, p.theta2)
    cl = np.power(1.0 - np.power(lam, p.alpha1), p.s1)
    cm = np.power(1.0 - np.power(mu, p.alpha2), p.s2)
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


# Per sense: its weights, and the parameters besides m that they depend on.
_SENSES = {
    FIRST: (_weights_first, lambda p: (p.theta1, p.theta2)),
    SECOND: (_weights_second, lambda p: (p.s1, p.s2, p.alpha1, p.alpha2)),
}


def _power(v, q: float):
    return v if q == 1.0 else v ** q


def abs_mixed_surface(s: Surface, q: float) -> Surface:
    """The hypothesis function of the generalized bounds: |d2f|^q as a surface."""
    d2f = mixed_partial_func(s)
    fn = lambda x, y: _power(np.abs(d2f(x, y)), q)
    return Surface(name=f"|d2f[{s.name}]|^{q:g}", domain=s.domain, f=fn)


def _batch_eval(f, xs, ys):
    """Vectorized call with a scalar fallback for array-shy callables."""
    try:
        out = np.asarray(f(xs, ys), dtype=float)
        if out.shape == xs.shape:
            return out
    except Exception:
        pass
    return np.fromiter(
        (float(f(float(x), float(y))) for x, y in zip(xs, ys)),
        dtype=float,
        count=len(xs),
    )


def _samples(rect: Rect, plan: SamplingPlan):
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


class MembershipSweep:
    """The refuters over one rectangle and plan, for many parameter cells.

    The samples are built once, here.  ``reports`` visits the cells of one
    surface grouped by (m1, m2): per group it evaluates the five point
    arrays once (for hypotheses raw d2f once, then |d2f|^q once per q), and
    per cell it only sweeps the weights.  Point arrays live for one group,
    in locals of one call.
    """

    def __init__(self, rect: Rect, plan: SamplingPlan = DEFAULT_PLAN):
        self.rect = rect
        self.plan = plan
        self.samples = _samples(rect, plan)

    def reports(self, s: Surface, cells, hypothesis: bool = False, work=None) -> list:
        """One MembershipReport per (sense, p) cell of s, None where the
        evaluation hull leaves the domain.

        With ``hypothesis`` a cell refutes membership of |d2f|^(p.q) (see
        abs_mixed_surface) instead of f, whose cells do not depend on q.
        Cells alike in (m1, m2) share their point arrays, cells alike in m
        and in the parameters of their sense's weights share the weights.
        ``work``, a Counter, gains the reports computed and the batched
        surface evaluations made.
        """
        keys = [(sense, p if hypothesis else replace(p, q=1.0)) for sense, p in cells]
        groups: dict = {}  # (m1, m2) -> q -> (sense, weight parameters) -> cells
        results: dict = {}
        for key in dict.fromkeys(keys):
            sense, p = key
            try:
                require_hull_inside(s, self.rect, p)
            except OutOfDomainError:
                results[key] = None
                continue
            group = groups.setdefault((p.m1, p.m2), {}).setdefault(p.q, {})
            group.setdefault((sense, _SENSES[sense][1](p)), []).append(key)

        fn = mixed_partial_func(s) if hypothesis else s.f
        batched = lambda xs, ys: _batch_eval(fn, xs, ys)
        lam, mu = self.samples[4:]
        for (m1, m2), by_q in groups.items():
            raw = _points(batched, m1, m2, *self.samples)
            if work is not None:
                work["batched_evaluations"] += len(raw)
            if hypothesis:
                raw = tuple(np.abs(v) for v in raw)
            for q, alike in by_q.items():
                if hypothesis:
                    target, points = abs_mixed_surface(s, q), tuple(_power(v, q) for v in raw)
                else:
                    target, points = s, raw
                for (sense, _), members in alike.items():
                    weights = _SENSES[sense][0](members[0][1], lam, mu)
                    for key in members:
                        results[key] = self._report(key, weights, target, points)
        if work is not None:
            work["membership_reports"] += sum(rep is not None for rep in results.values())
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
        points = _points(target.f, p.m1, p.m2, *witness)
        worst_margin = float(_combine(_SENSES[sense][0](p, witness[4], witness[5]), points))
        verdict = VIOLATED if worst_margin < -self.plan.tolerance else NO_VIOLATION
        return MembershipReport(
            verdict=verdict,
            worst_margin=worst_margin,
            witness=witness,
            samples_checked=int(margins.size),
        )


def _check_one(s: Surface, r: Rect, plan: SamplingPlan, sense: str, p: GenParams) -> MembershipReport:
    require_hull_inside(s, r, p)  # one cell raises where a sweep reports None
    return MembershipSweep(r, plan).reports(s, [(sense, p)])[0]


def check_def1_coordinated(
    s: Surface, r: Rect, plan: SamplingPlan = DEFAULT_PLAN
) -> MembershipReport:
    """Refute (or fail to refute) plain co-ordinated convexity of s over r."""
    return _check_one(s, r, plan, FIRST, _TRIVIAL)


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
