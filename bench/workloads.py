"""Inputs and operations of the three benchmark workloads.

Every input is drawn from the workload seed; the program receives only the
generated configs, rectangles and surfaces.  ``build`` returns one round of
operations; the runner repeats whole rounds, so every round attempts the
same operations.

verify-corpus            one in-process `hhverify verify` per registered
                         surface, on a seeded rectangle and plan seed.
hunt-poly                one in-process `hhverify hunt` (one generated
                         surface) per seeded hunt seed.
quadrature-oscillatory   deviation_terms, identity_report and hh_chain_2d on
                         one benchmark-built separable surface.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from hhverify import Rect, Surface, deviation_terms, hh_chain_2d, identity_report

WORKLOADS = ("verify-corpus", "hunt-poly", "quadrature-oscillatory")

# The grids of configs/quick.json and configs/hunt.json, frozen here so that
# an edit to those files does not change the benchmark's work.
QUICK = {
    "param_grid": {
        "s1": [0.5, 1.0], "s2": [0.5, 1.0], "alpha1": [1.0], "alpha2": [1.0],
        "m1": [0.5, 1.0], "m2": [0.5, 1.0], "q": [1.0, 2.0],
    },
    "variants": ["proof-form", "as-written"],
    "checks": ["identity", "chain", "classical", "direct", "holder", "power-mean", "membership"],
    "plan": {"grid_per_axis": 9, "random_trials": 10000, "tolerance": 1e-9},
}
HUNT = {
    "rect": [0.0, 1.0, 0.0, 1.0],
    "param_grid": {
        "s1": [0.5, 0.75, 1.0], "s2": [0.5, 0.75, 1.0], "alpha1": [0.5, 1.0],
        "alpha2": [0.5, 1.0], "m1": [0.5, 1.0], "m2": [0.5, 1.0], "q": [1.0, 2.0, 4.0],
    },
    "variants": ["proof-form", "as-written"],
    "checks": ["direct", "holder", "power-mean"],
    "plan": {"grid_per_axis": 7, "random_trials": 4000},
    "hunt": {"count": 1, "degree": 5},
}
# Generated hunt surfaces per round.  Their cost varies with the number of
# terms the generator draws, so a round needs many of them for its total to
# repeat across seeds.
HUNT_SURFACES = 16
# The oscillatory surfaces are scaled so that |d2f| stays below D2F_SIZE.
# integrate_2d's error estimate cannot fall below the rounding of its
# integrand, while its budget follows the integral, so on an integrand much
# larger than its integral the bisection does not end, and the identity
# residual can exceed its budget by rounding (see CHANGES.md).  At this size
# the absolute floor of the default Tolerance sets every budget, far above
# the rounding.
D2F_SIZE = 1.0
# Frequency bands (k * side) of the oscillatory surfaces, with the number of
# surfaces per round in each.  Inside a band the identity integral refines
# to about the same depth for any phase and envelope (4, 16, 64, 256 and
# about 1000 panels), so a round's cost does not depend on the seed.  Most
# surfaces sit in the 256-panel band, so the median operation is a
# several-level-deep one.
QUAD_BANDS = ((6.0, 10.0, 2), (20.0, 24.0, 2), (44.0, 50.0, 2), (68.0, 80.0, 9), (145.0, 158.0, 2))


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` returns the problems found
    in its result, ``rows`` the report rows it wrote (0 for library calls)."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    rows: Callable[[], int] = lambda: 0


def build(name: str, seed: int, workdir: Path, tracer=None) -> list[Op]:
    """One round of the workload's operations, inputs drawn from ``seed``.

    With a tracer, calls go through its wrappers (see tracing.py)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "quadrature-oscillatory":
        return _quadrature_ops(rng, tracer)
    from hhverify import cli  # here, so that only the CLI workloads' setup_s pays for it

    if name == "verify-corpus":
        specs = _verify_specs(rng, workdir)
    elif name == "hunt-poly":
        specs = _hunt_specs(rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    ops = []
    for label, command, config, out, check in specs:
        config_path = workdir / f"{label}.json"
        config_path.write_text(json.dumps(config, indent=1))
        argv = [command, "--config", str(config_path), "--out", str(out)]
        call = (lambda argv=argv: cli.main(argv))
        if tracer is not None:
            call = tracer.span("cli", command, call)
        summary = out / ("summary.json" if command == "verify" else "hunt_summary.json")
        ops.append(Op(label, call, check, lambda p=summary: checks.read_json(p)["rows"]))
    return ops


def _verify_specs(rng, workdir):
    specs = []
    for name in checks.CORPUS_NAMES:
        # Inside the first quadrant with b, d <= 3.5, so every m-scaled
        # evaluation hull (down to m = 0.5) stays in the corpus domain
        # [-8, 8]^2 and no row is skipped.
        a, c = rng.uniform(0.0, 1.5, 2)
        w, h = rng.uniform(0.5, 2.0, 2)
        rect = [float(a), float(a + w), float(c), float(c + h)]
        config = dict(QUICK, surfaces=[name], rect=rect, seed=0)
        config["plan"] = dict(QUICK["plan"], seed=int(rng.integers(2**31)))
        out = workdir / f"verify-{name}"
        check = (lambda code, out=out, name=name, rect=rect: checks.check_verify(out, name, rect, code))
        specs.append((f"verify-{name}", "verify", config, out, check))
    return specs


def _hunt_specs(rng, workdir):
    specs = []
    for i in range(HUNT_SURFACES):
        config = dict(HUNT, seed=int(rng.integers(2**31)))
        out = workdir / f"hunt-{i:02d}"
        check = (lambda code, out=out, config=config: checks.check_hunt(out, config, code))
        specs.append((f"hunt-{i:02d}", "hunt", config, out, check))
    return specs


# --------------------------------------------------------------------------
# quadrature-oscillatory

_ENVELOPES = ("one", "exp", "cosh")
_TRIGS = ("sin", "cos")


@dataclass(frozen=True)
class AxisFactor:
    """amp * envelope(beta * t) * trig(k * t + phi) in one variable."""

    envelope: str
    beta: float
    trig: str
    k: float
    phi: float
    amp: float = 1.0

    def funcs(self):
        """Value and derivative callables (scalars or arrays)."""
        amp, b, k, phi = self.amp, self.beta, self.k, self.phi
        env, denv = {
            "one": (lambda t: amp + 0.0 * t, lambda t: 0.0 * t),
            "exp": (lambda t: amp * np.exp(b * t), lambda t: amp * b * np.exp(b * t)),
            "cosh": (lambda t: amp * np.cosh(b * t), lambda t: amp * b * np.sinh(b * t)),
        }[self.envelope]
        trig, dtrig = {
            "sin": (lambda t: np.sin(k * t + phi), lambda t: k * np.cos(k * t + phi)),
            "cos": (lambda t: np.cos(k * t + phi), lambda t: -k * np.sin(k * t + phi)),
        }[self.trig]
        return (lambda t: env(t) * trig(t)), (lambda t: denv(t) * trig(t) + env(t) * dtrig(t))

    def reference_terms(self):
        """The same factor as a sum of amp * exp(beta t) sin(k t + phi)."""
        phi = self.phi + (0.5 * math.pi if self.trig == "cos" else 0.0)
        if self.envelope == "one":
            return [checks.Factor(self.amp, 0.0, self.k, phi)]
        if self.envelope == "exp":
            return [checks.Factor(self.amp, self.beta, self.k, phi)]
        half = 0.5 * self.amp
        return [checks.Factor(half, self.beta, self.k, phi), checks.Factor(half, -self.beta, self.k, phi)]

    def derivative_size(self, lo: float, hi: float) -> float:
        """An upper bound on |d/dt| of the factor over [lo, hi]."""
        return sum(t.scale(lo, hi) * (abs(t.k) + abs(t.beta)) for t in self.reference_terms())


def _axis(rng, band, width, envelope):
    lo, hi = band
    return AxisFactor(
        envelope=envelope,
        beta=float(rng.uniform(0.2, 1.0)),
        trig=_TRIGS[int(rng.integers(len(_TRIGS)))],
        k=float(rng.uniform(lo, hi)) / float(width),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def oscillatory_surface(name, fx: AxisFactor, fy: AxisFactor, rect):
    g, dg = fx.funcs()
    h, dh = fy.funcs()
    a, b, c, d = rect
    return Surface(
        name=name,
        domain=Rect(a - 1.0, b + 1.0, c - 1.0, d + 1.0),
        f=lambda x, y: g(x) * h(y),
        d2f=lambda x, y: dg(x) * dh(y),
    )


def _quadrature_ops(rng, tracer):
    calls = {"deviation_terms": deviation_terms, "identity_report": identity_report, "hh_chain_2d": hh_chain_2d}
    if tracer is not None:
        calls = {n: tracer.bounds_span(n, fn) for n, fn in calls.items()}
    ops = []
    for lo, hi, count in QUAD_BANDS:
        for j in range(count):
            # Envelopes cost differently per point, so each slot of a band
            # has a fixed pair and every round has the same mix.
            envelopes = _ENVELOPES[j % 3], _ENVELOPES[j // 3 % 3]
            a, c = rng.uniform(0.0, 1.0, 2)
            w, h = rng.uniform(0.8, 1.2, 2)
            rect = (float(a), float(a + w), float(c), float(c + h))
            fx = _axis(rng, (lo, hi), w, envelopes[0])
            fy = _axis(rng, (lo, hi), h, envelopes[1])
            size = fx.derivative_size(rect[0], rect[1]) * fy.derivative_size(rect[2], rect[3])
            fx = replace(fx, amp=D2F_SIZE / size)
            reference = checks.separable_reference(fx.reference_terms(), fy.reference_terms(), rect)
            label = f"osc-{len(ops):02d}"
            s = oscillatory_surface(label, fx, fy, rect)
            if tracer is not None:
                s = tracer.surface(s)
            r = Rect(*rect)

            def call(s=s, r=r):
                return (calls["deviation_terms"](s, r), calls["identity_report"](s, r), calls["hh_chain_2d"](s, r))

            if tracer is not None:
                call = tracer.span("bench", "op", call)
            ops.append(Op(label, call, lambda out, ref=reference: checks.check_quadrature(*out, ref)))
    return ops
