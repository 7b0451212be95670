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
from .geometry import Rect
from .surfaces import Surface, mixed_partial_func, require_hull_inside
from .verdicts import NO_VIOLATION, VIOLATED

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
    qs = list(dict.fromkeys(p.q for _, p in members))
    raise min(errors, key=lambda e: (qs.index(e[0][1].q), members.index(e[0])))[1]


class _Memo(dict):
    """A dict that fills a missing key k with make(k), once."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# The points of the inequality: (m1, m2) is (x or z/m1, y or w/m2), None
# marking the unscaled axis, and _LHS the convex combination.
_XY = (None, None)
_LHS = "lhs"


class MembershipSweep:
    """The refuters over one rectangle and plan, for many parameter cells.

    The samples are built once, here, and so are the powers lam^e and mu^e
    of the sample columns, once per distinct exponent e (theta = alpha*s,
    and alpha in the second sense); they do not depend on the surface.
    ``reports`` and ``verdicts`` run one loop, ``_scan``, over the cells of
    one surface: per sample block, per unit (sense, weight parameters), per
    q, per (m1, m2) group.  Of the right side k1 f(x, y) + k2 f(x, w/m2) +
    k3 f(z/m1, y) + k4 f(z/m1, w/m2) only the last three terms depend on m,
    and each on only one of m1, m2 but the last, so the work that does not
    depend on a group is done once and shared by the groups that need it.
    One judgement per (unit, q, group) serves every cell alike in sense,
    weight parameters, m and q: their margins are bitwise equal.  A report's
    margin is the sweep's own margin at its witness, which the written-out
    inequality on one-element arrays reproduces.  ``reports`` scans the
    whole table as one block, ``verdicts`` the doubling blocks of _blocks.
    """

    def __init__(self, rect: Rect, plan: SamplingPlan = DEFAULT_PLAN):
        self.rect = rect
        self.plan = plan
        self.samples = _samples(rect, plan)
        # (axis, e) -> lam^e (axis 0) or mu^e (axis 1) over the samples, once
        # per sweep.  lam^0 with lam = 0 is 1 (the limit convention), as
        # np.power gives.  The memo holds the samples, not self: a cycle
        # through self would keep a dropped sweep's arrays alive until the
        # garbage collector runs.
        samples = self.samples
        self._powers = _Memo(lambda key: np.power(samples[4 + key[0]], key[1]))
        self.work = Counter()  # membership_reports, batched_evaluations, sample_margins

    def _units(self, s: Surface, keys, results: dict):
        """The distinct keys as (groups, units): groups lists ((m1, m2),
        members) in order of first appearance, units maps (sense, weight
        parameters) -> (first p, q -> group index -> its cells).  The
        evaluation hull is checked once per group; a group whose hull leaves
        the domain is left out, and its cells get None in ``results``."""
        by_m: dict = {}
        for key in dict.fromkeys(keys):
            by_m.setdefault((key[1].m1, key[1].m2), []).append(key)
        groups, units = [], {}
        for m, members in by_m.items():
            try:
                require_hull_inside(s, self.rect, members[0][1])
            except OutOfDomainError:
                results.update(dict.fromkeys(members))
                continue
            for sense, p in members:
                unit = (sense, (p.theta1, p.theta2) if sense == FIRST else (p.s1, p.s2, p.alpha1, p.alpha2))
                by_q = units.setdefault(unit, (p, {}))[1]
                by_q.setdefault(p.q, {}).setdefault(len(groups), []).append((sense, p))
            groups.append((m, members))
        return groups, units

    def _judge(self, margins, cols, s: Surface, q, witness: bool):
        """The witness of ``margins`` over the sample columns ``cols``, its
        margin and that margin's verdict.  The witness is the
        lexicographically least (x, y, z, w, lam, mu) among the least
        margins; without ``witness`` it is None, and the least margin alone
        judges.  Where the least or the largest margin is not finite, the
        NonFiniteError of the first non-finite sample is raised instead,
        naming the target surface: s, or |d2f|^q (abs_mixed_surface) where q
        is not None."""
        self.work["sample_margins"] += margins.size
        found, margin = None, float(margins.min())
        if not (math.isfinite(margin) and math.isfinite(margins.max())):
            i = int(np.flatnonzero(~np.isfinite(margins))[0])
            name = s.name if q is None else abs_mixed_surface(s, q).name
            raise NonFiniteError(
                f"{name} margin at sample ({', '.join(str(c[i]) for c in cols)})",
                float(margins[i]),
            )
        if witness:
            ties = np.flatnonzero(margins == margin)
            # lexsort is stable, so equal tuples keep the first index.
            i = ties[np.lexsort([c[ties] for c in reversed(cols)])[0]]
            found, margin = tuple(float(c[i]) for c in cols), float(margins[i])
        return found, margin, VIOLATED if margin < -self.plan.tolerance else NO_VIOLATION

    def _unit_margins(self, sense, p, live, groups, val, block):
        """(q, group index, margins) over ``block`` for the unit of sense and
        p's weight parameters, for each (q, group indices) of ``live``; P is
        the point value ``val`` at q (see _scan).  The weights wl = lam^theta1
        and wm = mu^theta2, their complements cl and cm (1 - wl and 1 - wm in
        the first sense, (1 - lam^alpha1)^s1 and (1 - mu^alpha2)^s2 in the
        second) and k1 = wl wm are computed once; per q k1 P(x, y) once,
        k1 P(x, y) + k2 P(x, w/m2) once per m2 and k3 P(z/m1, y) once per m1,
        with k2 = m2 wl cm, k3 = m1 wm cl and k4 = m1 m2 cl cm.  The margin
        ((k1 P1 + k2 P2) + k3 P3) + k4 P4 - P(combination) associates as the
        inequality is written, so it is bitwise the one a scan of each group
        apart gives."""
        power = lambda axis, e: self._powers[axis, e][block]
        wl, wm = power(0, p.theta1), power(1, p.theta2)
        if sense == FIRST:
            cl, cm = 1.0 - wl, 1.0 - wm
        else:
            cl = np.power(1.0 - power(0, p.alpha1), p.s1)
            cm = np.power(1.0 - power(1, p.alpha2), p.s2)
        k1 = wl * wm
        for q, gs in live:
            head = k1 * val[_XY, q]
            upper = _Memo(lambda m2: head + m2 * wl * cm * val[(None, m2), q])
            side = _Memo(lambda m1: m1 * wm * cl * val[(m1, None), q])
            for g in gs:
                m1, m2 = groups[g][0]
                yield q, g, upper[m2] + side[m1] + m1 * m2 * cl * cm * val[(m1, m2), q] - val[_LHS, q]

    def _scan(self, s: Surface, keys, hypothesis: bool, blocks, witness: bool) -> list:
        """The MembershipReport of each key, None off the domain; without
        ``witness`` a report's witness is None (see _judge).  The blocks are
        scanned in order, each for the groups with a pending cell.  Per block
        f (for hypotheses |d2f|, then its q-th power once per q) is evaluated
        at (x, y) and at the convex combination once, at (x, w/m2) once per
        m2, at (z/m1, y) once per m1 and at (z/m1, w/m2) once per group, each
        only where a pending cell needs it; the units' weights and sums are
        _unit_margins'.  A pending cell judges each block; its report is that
        of its first violated block, or else of the last, with
        samples_checked the end of that block.  A group stops at its first
        block with a non-finite margin; the groups after the first failed one
        stop with it, those before it scan on, and then the first failed
        group raises its error of that block (see _raise_first), as a scan of
        one group after another would."""
        fn = mixed_partial_func(s) if hypothesis else s.f
        results: dict = {}
        groups, units = self._units(s, keys, results)
        stop, failure = len(groups), None  # groups from stop on are not scanned
        for block in blocks:
            if not any(g < stop for _, by_q in units.values() for by_g in by_q.values() for g in by_g):
                break
            cols = tuple(c[block] for c in self.samples)
            x, y, z, w, lam, mu = cols

            def evaluate(point):
                if point == _LHS:
                    xs, ys = lam * x + (1.0 - lam) * z, mu * y + (1.0 - mu) * w
                else:
                    xs = x if point[0] is None else z / point[0]
                    ys = y if point[1] is None else w / point[1]
                self.work["batched_evaluations"] += 1
                v = _batch_eval(fn, xs, ys)
                return np.abs(v) if hypothesis else v

            raw = _Memo(evaluate)  # point -> f, or |d2f|, there
            val = _Memo(lambda key: _power(raw[key[0]], key[1]))  # (point, q) -> raw^q
            errors: dict = {}  # group index -> [(cell, NonFiniteError)]
            for (sense, _), (p, by_q) in units.items():
                live = [(q, gs) for q, by_g in by_q.items() if (gs := [g for g in by_g if g < stop])]
                if not live:
                    continue
                for q, g, margins in self._unit_margins(sense, p, live, groups, val, block):
                    same = by_q[q][g]
                    try:
                        found, margin, verdict = self._judge(margins, cols, s, q if hypothesis else None, witness)
                    except NonFiniteError as exc:
                        errors.setdefault(g, []).append((same[0], exc))
                        continue
                    results.update(dict.fromkeys(same, MembershipReport(verdict, margin, found, block.stop)))
                    if verdict == VIOLATED:
                        del by_q[q][g]
            if errors:
                stop = min(errors)
                failure = errors[stop]
        if failure:
            _raise_first(failure, groups[stop][1])
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
        with np.errstate(over="ignore", invalid="ignore"):  # _judge raises on a non-finite margin
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
        with np.errstate(over="ignore", invalid="ignore"):  # as in reports
            reports = self._scan(s, [(FIRST, p) for p in params], True, blocks, witness=False)
        return [rep and rep.verdict for rep in reports]
