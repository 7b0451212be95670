"""Sampling-based membership refuters for the co-ordinated convexity notions.

A MembershipSweep evaluates margin = RHS - LHS of the defining inequality
over a deterministic sample set, for each parameter cell it is given, and
reports the worst margin with its witness.  A negative margin beyond the
tolerance is a concrete violation; "no violation found" is exactly that -
these are refuters, not certifiers, because the conditions quantify over a
continuum.  One loop scans the set in blocks and stops a cell at its first
violated block: a full report scans the whole set as one block, a
hypothesis verdict blocks of doubling size.

The sample set couples the pair of base points with a dense (lam, mu) grid:
the four rectangle corner pairs (the degenerate instances the integral bounds
actually consume), grid_per_axis^2 random pairs, each crossed with a
(2*grid_per_axis - 1)^2 grid over the unit square, plus fully random trials.
"""

from __future__ import annotations

import math
from collections import Counter
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

# The most samples a plan may ask for: its table holds six floats per sample.
MAX_SAMPLES = 2**20


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
        g = self.grid_per_axis
        samples = (4 + g * g) * (2 * g - 1) ** 2 + self.random_trials
        if samples > MAX_SAMPLES:
            raise ValueError(f"{samples} samples; at most {MAX_SAMPLES} are allowed")


DEFAULT_PLAN = SamplingPlan()


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    worst_margin: float
    witness: tuple  # (x, y, z, w, lam, mu)
    samples_checked: int


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


def _weights_first(p: GenParams, power):
    """The four corner weights of the first-sense inequality; ``power(axis,
    e)`` is lam^e on axis 0 and mu^e on axis 1."""
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


# Per sense: its weights and the parameters besides m that they depend on.
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


# verdicts scans the sample table in blocks: BLOCK samples, then each block
# twice the one before.  The corner pairs come first in the table, and most
# refuted hypotheses have a violating sample within the first few thousand.
BLOCK = 512


def _blocks(n: int):
    """The slices of an n-sample table that verdicts scans, in order."""
    start, size = 0, BLOCK
    while start < n:
        yield slice(start, min(start + size, n))
        start, size = start + size, 2 * size


def _raise_first(errors, members):
    """Raise the NonFiniteError of the first failing (cell, error) in
    ``errors``: in q order, then cell order, each by first appearance among
    the group's ``members``."""
    if errors:
        qs = list(dict.fromkeys(p.q for _, p in members))
        raise min(errors, key=lambda e: (qs.index(e[0][1].q), members.index(e[0])))[1]


class MembershipSweep:
    """The refuters over one rectangle and plan, for many parameter cells.

    The samples are built once, here, and so are the powers lam^e and mu^e
    of the sample columns, once per distinct exponent e (theta = alpha*s,
    and alpha in the second sense); they do not depend on the surface.
    ``reports`` and ``verdicts`` run one loop, ``_scan``, over the cells of
    one surface grouped by (m1, m2): per group and block it evaluates the
    five point arrays once (for hypotheses raw d2f once, then |d2f|^q once
    per q), per (sense, weight parameters) it computes the corner weights
    once, and per q it judges once for every cell alike in sense, weight
    parameters, m and q: their margins are bitwise equal.  A report's margin
    is the sweep's own margin at its witness, which the written-out
    inequality on one-element arrays reproduces.  ``reports`` scans the
    whole table as one block, ``verdicts`` the doubling blocks of _blocks.
    """

    def __init__(self, rect: Rect, plan: SamplingPlan = DEFAULT_PLAN):
        self.rect = rect
        self.plan = plan
        self.samples = _samples(rect, plan)
        self._powers: dict = {}  # (axis, e) -> lam^e or mu^e
        self.work = Counter()  # membership_reports, batched_evaluations, sample_margins

    def _sample_power(self, axis: int, e: float):
        """lam^e (axis 0) or mu^e (axis 1) over the samples, once per sweep.
        lam^0 with lam = 0 is 1 (the limit convention), as np.power gives."""
        key = (axis, e)
        if key not in self._powers:
            self._powers[key] = np.power(self.samples[4 + axis], e)
        return self._powers[key]

    def _groups(self, s: Surface, keys, results: dict):
        """The distinct keys grouped by (m1, m2), in order of first
        appearance, each yielded as ((m1, m2), members, units) with units
        (sense, weight parameters) -> (first p, q -> its cells).  The
        evaluation hull is checked once per group; a group whose hull leaves
        the domain is not yielded, and its cells get None in ``results``."""
        groups: dict = {}
        for key in dict.fromkeys(keys):
            groups.setdefault((key[1].m1, key[1].m2), []).append(key)
        for m, members in groups.items():
            try:
                require_hull_inside(s, self.rect, members[0][1])
            except OutOfDomainError:
                results.update(dict.fromkeys(members))
                continue
            units: dict = {}
            for sense, p in members:
                by_q = units.setdefault((sense, _SENSES[sense][1](p)), (p, {}))[1]
                by_q.setdefault(p.q, []).append((sense, p))
            yield m, members, units

    def _judge(self, margins, cols, s: Surface, q, witness: bool):
        """The witness of ``margins`` over the sample columns ``cols``, its
        margin and that margin's verdict.  The witness is the
        lexicographically least (x, y, z, w, lam, mu) among the least
        margins; a non-finite margin raises the NonFiniteError of its first
        sample instead, naming the target surface: s, or |d2f|^q
        (abs_mixed_surface) where q is not None.  Without ``witness`` the
        least and the largest margin alone judge and the witness is None;
        only where one of the two is not finite is the first bad sample
        looked for."""
        self.work["sample_margins"] += margins.size
        found, margin = None, float(margins.min())
        if witness or not (math.isfinite(margin) and math.isfinite(margins.max())):
            bad = ~np.isfinite(margins)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                name = s.name if q is None else abs_mixed_surface(s, q).name
                raise NonFiniteError(
                    f"{name} margin at sample ({', '.join(str(c[i]) for c in cols)})",
                    float(margins[i]),
                )
            ties = np.flatnonzero(margins == margin)
            # lexsort is stable, so equal tuples keep the first index.
            i = ties[np.lexsort([c[ties] for c in reversed(cols)])[0]]
            found, margin = tuple(float(c[i]) for c in cols), float(margins[i])
        return found, margin, VIOLATED if margin < -self.plan.tolerance else NO_VIOLATION

    def _scan(self, s: Surface, keys, hypothesis: bool, blocks, witness: bool) -> list:
        """The MembershipReport of each key, None off the domain; without
        ``witness`` a report's witness is None (see _judge).  Per (m1,
        m2) group the sample blocks are scanned in order, evaluating the
        five point arrays of a block only while some cell of the group is
        pending.  A pending cell judges each block; its report is that of
        its first violated block, or else of the last, with samples_checked
        the end of that block.  Weights are computed outside and q inside, so
        one unit's four weight arrays live at a time (q outside costs +17 %
        peak memory on hunt), and the errors of a block are raised in q
        order (see _raise_first)."""
        fn = mixed_partial_func(s) if hypothesis else s.f
        batched = lambda xs, ys: _batch_eval(fn, xs, ys)
        results: dict = {}
        for (m1, m2), members, units in self._groups(s, keys, results):
            for block in blocks:
                live = {q for _, by_q in units.values() for q in by_q}  # q of the pending cells
                if not live:
                    break
                cols = tuple(c[block] for c in self.samples)
                raw = _points(batched, m1, m2, *cols)
                self.work["batched_evaluations"] += len(raw)
                if hypothesis:
                    raw = tuple(np.abs(v) for v in raw)
                points = {q: tuple(_power(v, q) for v in raw) for q in live}
                power = lambda axis, e: self._sample_power(axis, e)[block]
                errors = []
                for (sense, _), (p, by_q) in units.items():
                    if not by_q:
                        continue
                    weights = _SENSES[sense][0](p, power)
                    for q, same in list(by_q.items()):
                        margins = _combine(weights, points[q])
                        try:
                            found, margin, verdict = self._judge(
                                margins, cols, s, q if hypothesis else None, witness
                            )
                        except NonFiniteError as exc:
                            errors.append((same[0], exc))
                            continue
                        rep = MembershipReport(verdict, margin, found, block.stop)
                        results.update(dict.fromkeys(same, rep))
                        if verdict == VIOLATED:
                            del by_q[q]
                _raise_first(errors, members)
        self.work["membership_reports"] += sum(rep is not None for rep in results.values())
        return [results[key] for key in keys]

    def reports(self, s: Surface, cells, hypothesis: bool = False) -> list:
        """One MembershipReport per (sense, p) cell of s over the whole
        sample table, None where the evaluation hull leaves the domain.

        With ``hypothesis`` a cell refutes membership of |d2f|^(p.q) (see
        abs_mixed_surface) instead of f, whose cells do not depend on q.
        ``self.work`` counts the cells reported, the batched surface
        evaluations and the sample margins.  A non-finite margin raises the
        NonFiniteError of the first failing cell, visiting the (m1, m2)
        pairs, within a pair its q values, and within a q its cells, each in
        order of first appearance.
        """
        keys = [(sense, p if hypothesis else replace(p, q=1.0)) for sense, p in cells]
        return self._scan(s, keys, hypothesis, [slice(0, len(self.samples[0]))], witness=True)

    def verdicts(self, s: Surface, params) -> list:
        """The first-sense verdict on the hypothesis |d2f|^(p.q) for each p
        of params, None where the evaluation hull leaves the domain: the
        verdicts of ``reports(s, [(FIRST, p) for p in params],
        hypothesis=True)``, with less work, from the doubling blocks of
        _blocks, each judged by its least and largest margin alone, with no
        witness.  Every block margin is bitwise the whole-table one, so a
        cell is violated here exactly when its whole-table least margin is
        below -tolerance.  A non-finite margin raises only in the blocks
        scanned.
        """
        blocks = list(_blocks(len(self.samples[0])))
        reports = self._scan(s, [(FIRST, p) for p in params], True, blocks, witness=False)
        return [rep and rep.verdict for rep in reports]
