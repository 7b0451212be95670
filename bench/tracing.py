"""Spans around the calls into each hhverify module, recorded from outside.

``install`` replaces the public entry points in the namespaces where their
callers look them up: ``cli`` imports the refuters, the bound functions,
``deviation_exact``, ``RationalPoly2``, ``poly_surface`` and ``corpus`` by
name, and ``bounds`` imports ``integrate_1d``, ``integrate_2d`` and
``eval_mixed_partial`` by name, so the wrappers go into those two modules.
The surface callables f and d2f are wrapped where surfaces enter the run
(``corpus``, ``poly_surface``, or the benchmark's own surfaces); they are
too many for one span each, so their time is summed and charged to the
enclosing span as child time.

A span's self time is its duration minus the time of its child spans and of
the surface calls made inside it.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
from hhverify import bounds, cli
from hhverify.errors import ConvergenceError, NonFiniteError

# Per-layer metrics: name -> (unit, better).  Counts and times are per round.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "convexity.calls": ("count", "lower"),
    "convexity.samples": ("count", "lower"),
    "convexity.self_s": ("s", "lower"),
    "convexity.evals_per_sample": ("points/sample", "lower"),
    "surfaces.eval_calls": ("count", "lower"),
    "surfaces.eval_points": ("count", "lower"),
    "surfaces.eval_s": ("s", "lower"),
    "surfaces.mixed_partial_calls": ("count", "lower"),
    "oracle.exact_s": ("s", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.evals": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.failed": ("count", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
}

_REFUTERS = ("check_class_first", "check_class_second", "check_def1_coordinated")
_BOUND_FNS = (
    "deviation_terms", "identity_report", "hh_chain_2d",
    "bound_classical", "bound_direct", "bound_holder", "bound_power_mean",
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, layer, name, start, end, child_s)
        self.counts = Counter()
        self.surface_s = 0.0
        self._stack = []  # open spans as [id, child_s]
        self._ops = 0
        self._ids = 0
        self._taken = 0  # spans already folded into a round

    def span(self, layer, name, fn, before=None, after=None):
        """Wrap fn in a span.  ``before`` may rewrite the positional
        arguments, ``after`` may rewrite the result."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            if not stack:
                self._ops += 1
            self._ids += 1
            frame = [self._ids, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, self._ops, layer, name, start, end, frame[1]))
            return result if after is None else after(result)

        return traced

    def count_points(self, key, fn):
        """fn, counting the points it is called on under ``key``."""
        counts = self.counts

        def counted(*args):
            out = fn(*args)
            counts[key] += np.size(out)
            return out

        return counted

    def _surface_call(self, fn):
        stack, counts = self._stack, self.counts

        def call(x, y):
            start = perf_counter()
            out = fn(x, y)
            elapsed = perf_counter() - start
            self.surface_s += elapsed
            if stack:
                stack[-1][1] += elapsed
            counts["surfaces.eval_calls"] += 1
            counts["surfaces.eval_points"] += np.size(out)
            return out

        return call

    def surface(self, s):
        """The surface with its f and d2f timed and counted."""
        d2f = None if s.d2f is None else self._surface_call(s.d2f)
        return dataclasses.replace(s, f=self._surface_call(s.f), d2f=d2f)

    def bounds_span(self, name, fn):
        def after(result):
            self.counts["bounds.calls"] += 1
            return result

        return self.span("bounds", name, fn, after=after)

    def refuter_span(self, name, fn):
        def before(args):
            g = args[0]
            return (dataclasses.replace(g, f=self.count_points("convexity.points", g.f)), *args[1:])

        def after(report):
            self.counts["convexity.calls"] += 1
            self.counts["convexity.samples"] += report.samples_checked
            return report

        return self.span("convexity", name, fn, before=before, after=after)

    def quadrature_span(self, name, fn):
        def counted(g, *args, **kwargs):
            self.counts["quadrature.calls"] += 1
            try:
                result = fn(self.count_points("quadrature.evals", g), *args, **kwargs)
            except (ConvergenceError, NonFiniteError) as exc:
                self.counts["quadrature.failed"] += 1
                if isinstance(exc, ConvergenceError):
                    self.counts["quadrature.panels"] += exc.result.panels
                raise
            self.counts["quadrature.panels"] += result.panels
            return result

        return self.span("quadrature", name, counted)

    def take_round(self, run_s: float, rows: int) -> dict:
        """Layer metrics of the spans and counts since the previous round."""
        self_s = Counter()
        for span in self.spans[self._taken:]:
            self_s[span[3]] += span[6] - span[5] - span[7]
        self._taken = len(self.spans)
        c = self.counts
        samples = c["convexity.samples"]
        metrics = {
            "cli.self_s": self_s["cli"],
            "cli.rows": rows,
            "convexity.calls": c["convexity.calls"],
            "convexity.samples": samples,
            "convexity.self_s": self_s["convexity"],
            "convexity.evals_per_sample": c["convexity.points"] / samples if samples else 0.0,
            "surfaces.eval_calls": c["surfaces.eval_calls"],
            "surfaces.eval_points": c["surfaces.eval_points"],
            "surfaces.eval_s": self.surface_s,
            "surfaces.mixed_partial_calls": c["surfaces.mixed_partial_calls"],
            "oracle.exact_s": self_s["oracle"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.failed": c["quadrature.failed"],
            "bounds.calls": c["bounds.calls"],
            "bounds.self_s": self_s["bounds"],
            "trace.run_s": run_s,
        }
        c.clear()
        self.surface_s = 0.0
        return metrics

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start", "end", "child_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer):
    """Put the tracer's wrappers into ``hhverify.cli`` and ``hhverify.bounds``;
    returns a function that restores the originals.  A name the program no
    longer has is skipped, so the traced run outlives refactors; its metrics
    then read 0."""
    saved = []

    def patch(module, attr, wrap):
        if hasattr(module, attr):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))

    for name in _REFUTERS:
        patch(cli, name, lambda fn, name=name: tracer.refuter_span(name, fn))
    for name in _BOUND_FNS:
        patch(cli, name, lambda fn, name=name: tracer.bounds_span(name, fn))
    # cli dispatches direct/holder/power-mean through a table built at import.
    patch(cli, "_BOUND_FNS", lambda table: {kind: getattr(cli, fn.__name__) for kind, fn in table.items()})
    patch(cli, "deviation_exact", lambda fn: tracer.span("oracle", "deviation_exact", fn))
    patch(cli, "RationalPoly2", lambda cls: tracer.span("oracle", "RationalPoly2", cls))
    patch(cli, "poly_surface", lambda fn: tracer.span("surfaces", "poly_surface", fn, after=tracer.surface))
    patch(cli, "corpus", lambda fn: lambda: {
        name: dataclasses.replace(entry, surface=tracer.surface(entry.surface)) for name, entry in fn().items()
    })
    for name in ("integrate_1d", "integrate_2d"):
        patch(bounds, name, lambda fn, name=name: tracer.quadrature_span(name, fn))

    def count_mixed_partials(fn):
        def counted(*args):
            tracer.counts["surfaces.mixed_partial_calls"] += 1
            return fn(*args)

        return counted

    patch(bounds, "eval_mixed_partial", count_mixed_partials)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
