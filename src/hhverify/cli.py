"""Batch front-end: verification sweeps, counterexample hunting, reports.

Subcommands
-----------
verify     run the selected checks over the corpus surfaces x parameter grid,
           write one CSV row per report plus a JSON summary.
hunt       sweep the bounds of random nonneg-coefficient polynomial surfaces,
           looking for a bound violated under a clean hypothesis: a finding.
corpus     list registered surfaces.
constants  print the kink-moment table over a theta grid.

verify and hunt are one driver, ``_run``, fed by a surface source (the
corpus names, or seeded random polynomials); each surface goes through one
routine, ``_sweep_surface``, and both summaries list findings in one shape.

Exit codes: 0 clean; 1 a proof-form row is a finding: violated while the
refuter finds its hypothesis clean (an acceptance failure); 2 usage or
configuration error.

Reports are deterministic for a given config and seed: each row is a tuple
in its file's header order, rows sort by their columns in that order, and
floats are written with shortest round-trip repr.  Wall time lives only in
the JSON summary, never in the CSVs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bounds import (
    AS_WRITTEN,
    BOUND_KINDS,
    CLASSICAL,
    DIRECT,
    HOLDER,
    POWER_MEAN,
    PROOF_FORM,
    THEOREMS,
    VARIANTS,
    BOUND_VIOLATED,
    BoundReport,
    DeviationTerms,
    _corner_mags,
    bound,
    deviation_terms,
    hh_chain_2d,
    identity_report,
    kink_moment,
)
from .convexity import (
    FIRST,
    NO_VIOLATION,
    SECOND,
    MembershipReport,
    MembershipSweep,
    SamplingPlan,
)
from .errors import ConfigError, ConvergenceError, NonFiniteError, OutOfDomainError
from .geometry import CLASSICAL_PARAMS, GenParams, Rect, scaled_eval_edges
from .oracle import RationalPoly2
from .surfaces import corpus, poly_surface

ALL_CHECKS = ("identity", "chain", CLASSICAL, DIRECT, HOLDER, POWER_MEAN, "membership")
SKIPPED = "skipped"

PARAM_KEYS = ("s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")
MAX_HUNT_COUNT, MAX_HUNT_DEGREE = 1000, 64  # caps on a hunt's work (README §Config schema)
MAX_GRID_CELLS = 4096  # the most cells a param_grid may span (README §Config schema)

# CSV columns of each report file, which is also the order its rows sort in.
HEADERS = {
    "bounds": [
        "surface", "theorem", "variant",
        "s1", "s2", "alpha1", "alpha2", "m1", "m2", "q",
        "lhs", "rhs", "slack", "error_budget", "verdict",
    ],
    "membership": [
        "surface", "target", "notion",
        "s1", "s2", "alpha1", "alpha2", "m1", "m2", "q",
        "verdict", "worst_margin",
        "witness_x", "witness_y", "witness_z", "witness_w", "witness_lam", "witness_mu",
        "samples_checked",
    ],
    "chains": [
        "surface", "center", "midline_mean", "double_mean", "edge_mean", "corner_avg",
        "monotone", "worst_gap", "error_budget",
    ],
    "identity": ["surface", "residual", "error_budget", "within_budget"],
}
HEADERS["hunt"] = HEADERS["bounds"] + ["hypothesis"]


@dataclass
class RunConfig:
    surfaces: list[str]
    rect: Rect
    combos: list[GenParams]  # the validated parameter grid cells, in sweep order
    variants: list[str]
    checks: list[str]
    plan: SamplingPlan
    output_dir: Path
    seed: int
    hunt_count: int
    hunt_degree: int


class Text(str):
    """A JSON string rule, whose text ends the error for any other value."""


# The config schema: key -> (rule, default).  A rule is int or float (a
# number of that kind), a slice(low, high) (a whole number in [low, high],
# high None for no bound), a Text, a tuple of allowed values, a dict (a
# nested object), a one-rule list [rule] (a non-empty list of distinct
# values) or a list of several rules (one value each).  A default of None
# leaves a key the file leaves out unset: a plan key then takes SamplingPlan's
# default, and variants its command's.  Ranges that Rect, GenParams or
# SamplingPlan enforce are left to them.
SCHEMA = {
    "surfaces": ([Text("list surface names")], ["all"]),
    "rect": ([float] * 4, [0.0, 1.0, 0.0, 1.0]),
    "param_grid": ({key: ([float], [1.0]) for key in PARAM_KEYS}, {}),
    "variants": ([VARIANTS], None),
    "checks": ([ALL_CHECKS], list(ALL_CHECKS)),
    "plan": ({f.name: (type(f.default), None) for f in fields(SamplingPlan)}, {}),
    "output_dir": (Text("be a path string"), "out"),
    "seed": (slice(0, None), 0),
    "hunt": ({"count": (slice(0, MAX_HUNT_COUNT), 20), "degree": (slice(0, MAX_HUNT_DEGREE), 4)}, {}),
}


def _check(rule, value, name: str):
    """value checked against rule (see SCHEMA): a number as its kind, an object with its defaults."""
    if isinstance(rule, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object")
        if unknown := set(value) - set(rule):
            raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        return {
            key: _check(sub, value.get(key, default), key if name == "config" else f"{name}.{key}")
            for key, (sub, default) in rule.items()
            if key in value or default is not None
        }
    if isinstance(rule, list) and len(rule) > 1:
        if not (isinstance(value, list) and len(value) == len(rule)):
            raise ConfigError(f"{name} must be a list of {len(rule)} values, not {value!r}")
        return [_check(sub, v, name) for sub, v in zip(rule, value)]
    if isinstance(rule, list):
        if not (isinstance(value, list) and value):
            raise ConfigError(f"no parameters to sweep: {name} must be a non-empty list, not {value!r}")
        values = [_check(rule[0], v, name) for v in value]
        if twice := [v for i, v in enumerate(values) if v in values[:i]]:  # 1 and 1.0 are one value
            raise ConfigError(f"{name} lists {twice[0]!r} twice")
        return values
    if isinstance(rule, tuple):
        if value not in rule:
            raise ConfigError(f"unknown {name} value {value!r}; expected one of {rule}")
        return value
    if isinstance(rule, Text):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must {rule}, not {value!r}")
        return value
    if isinstance(rule, slice):
        number = _check(int, value, name)
        if number < rule.start:
            raise ConfigError(f"{name} must be >= {rule.start}, not {number!r}")
        if rule.stop is not None and number > rule.stop:
            raise ConfigError(f"{name} must be <= {rule.stop}, not {number!r}")
        return number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, not {value!r}")
    if rule is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be a whole number, not {value!r}")
    try:
        return rule(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} must be a finite number, not {value!r}") from exc


def _build(what: str, make):
    """make(), a ValueError of the range checks it runs raised as ConfigError "what: ..."."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def build_config(raw: dict, *, seed=None, out=None, command="verify") -> RunConfig:
    """Check a parsed config against SCHEMA and apply the CLI overrides.  Only
    ``verify`` reads the corpus surfaces, so only it needs the rect inside their domains."""
    cfg = _check(SCHEMA, raw, "config")
    for key, value in (("seed", seed), ("output_dir", out)):
        if value is not None:
            cfg[key] = _check(SCHEMA[key][0], value, key)
    rect = _build("bad rect", lambda: Rect(*cfg["rect"]))
    registry = corpus()
    names = list(registry) if cfg["surfaces"] == ["all"] else cfg["surfaces"]
    for n in names:
        if n not in registry:
            raise ConfigError(f"unknown surface {n!r}; registered: {', '.join(registry)}")
        domain = registry[n].surface.domain
        if command == "verify" and not domain.contains_rect(rect):
            raise ConfigError(f"rect {rect} leaves the domain {domain} of surface {n!r}")
    grid = [cfg["param_grid"][key] for key in PARAM_KEYS]
    if (count := math.prod(map(len, grid))) > MAX_GRID_CELLS:  # checked before any cell is built
        raise ConfigError(f"param_grid spans {count} cells; at most {MAX_GRID_CELLS} are allowed")
    cells = itertools.product(*grid)
    return RunConfig(
        surfaces=names,
        rect=rect,
        combos=_build("bad param grid cell", lambda: [GenParams(**dict(zip(PARAM_KEYS, c))) for c in cells]),
        variants=cfg.get("variants", [PROOF_FORM] if command == "verify" else list(VARIANTS)),
        checks=cfg["checks"],
        plan=_build("bad plan", lambda: SamplingPlan(**{"seed": cfg["seed"], **cfg["plan"]})),
        output_dir=Path(cfg["output_dir"]),
        seed=cfg["seed"],
        hunt_count=cfg["hunt"]["count"], hunt_degree=cfg["hunt"]["degree"],
    )


def load_config(path, **overrides) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, a bad UTF-8 byte, an int of more than 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return build_config(raw, **overrides)


# --------------------------------------------------------------------------
# row formatting


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _param_cols(combos) -> dict:
    """The formatted parameter columns of the classical cell and of each
    grid cell, keyed by GenParams; a run formats each cell once."""
    return {
        p: tuple(_fmt(float(getattr(p, k))) for k in PARAM_KEYS)
        for p in (CLASSICAL_PARAMS, *combos)
    }


def _bound_row(
    surface, kind, variant, cols: tuple, rep: BoundReport | None, lhs: str, budget: str
) -> tuple:
    """One bounds row with parameter columns ``cols``; ``rep`` None is a
    cell skipped for leaving the domain.  ``lhs`` and ``budget`` are the
    surface's formatted lhs and error_budget, which every report of one
    surface shares."""
    if rep is None:
        return (surface, kind, variant, *cols, "", "", "", "", SKIPPED)
    return (surface, kind, variant, *cols, lhs, _fmt(rep.rhs), _fmt(rep.slack), budget, rep.verdict)


def _membership_row(surface, target, notion, cols: tuple, rep: MembershipReport | None) -> tuple:
    if rep is None:
        # worst_margin, the six witness coordinates and samples_checked
        return (surface, target, notion, *cols, SKIPPED, *[""] * 8)
    return (
        surface, target, notion, *cols,
        rep.verdict, _fmt(rep.worst_margin), *map(_fmt, rep.witness), str(rep.samples_checked),
    )


def _column(files: dict, key: str, col: str) -> list:
    """Column ``col`` of every row in ``files[key]``."""
    i = HEADERS[key].index(col)
    return [row[i] for row in files[key]]


def _write_report(out_dir: Path, files: dict, summary_name: str, summary: dict) -> None:
    """Write each non-empty row list, sorted, as ``<key>.csv`` under its
    header, then the summary as JSON."""
    for key, rows in files.items():
        if not rows:
            continue
        rows.sort()
        with open(out_dir / f"{key}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HEADERS[key])
            writer.writerows(rows)
    with open(out_dir / summary_name, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# the bound sweep


def _bound_sweep(s, rect: Rect, combos, kinds, variants, dev: DeviationTerms):
    """Yield (kind, params, variant, report) for every bound row of s: the
    classical bound first, then each grid cell x applicable kind x variant.
    |d2f| at the m-scaled corners is evaluated once per (m1, m2) and handed
    to every bound of that pair; the report is None where those corners
    leave the domain."""
    mags = {}  # (m1, m2) -> _corner_mags, None off the domain

    def corner_mags(p):
        if (p.m1, p.m2) not in mags:
            try:
                mags[p.m1, p.m2] = _corner_mags(s, rect, p)
            except OutOfDomainError:
                mags[p.m1, p.m2] = None
        return mags[p.m1, p.m2]

    if CLASSICAL in kinds:
        m = corner_mags(CLASSICAL_PARAMS)
        rep = None if m is None else bound(CLASSICAL, s, rect, dev=dev, mags=m)
        yield CLASSICAL, CLASSICAL_PARAMS, PROOF_FORM, rep
    grid_kinds = [kind for kind in (DIRECT, HOLDER, POWER_MEAN) if kind in kinds]
    for p in combos:
        for kind in grid_kinds:
            if not THEOREMS[kind].applies(p.q):
                continue
            m = corner_mags(p)
            for variant in variants:
                rep = None if m is None else bound(kind, s, rect, p, variant, dev=dev, mags=m)
                yield kind, p, variant, rep


# --------------------------------------------------------------------------
# one run: a surface source, one routine per surface, one report


NOTIONS = {FIRST: "first-sense", SECOND: "second-sense"}


def _sweep_surface(name, s, cfg, param_cols, sweep, files, bound_file) -> list:
    """Append the rows of one surface to ``files`` and return its findings:
    the violated bound rows whose hypothesis |d2f|^q the refuter found clean.
    A ``bound_file`` with a ``hypothesis`` column refutes every evaluated
    cell, any other only the violated proof-form cells, in one batched call."""
    rect, checks, combos = cfg.rect, cfg.checks, cfg.combos
    needs_dev = any(c in checks for c in (*BOUND_KINDS, "identity", "chain"))
    dev = deviation_terms(s, rect) if needs_dev else None
    if "identity" in checks:
        rep = identity_report(s, rect, dev=dev)
        within = abs(rep.residual) <= rep.error_budget
        files["identity"].append((name, _fmt(rep.residual), _fmt(rep.error_budget), _fmt(within)))
    if "chain" in checks:
        chain = hh_chain_2d(s, rect, dev=dev)
        cols = (*chain.values, chain.monotone, chain.worst_gap, chain.error_budget)
        files["chains"].append((name, *map(_fmt, cols)))
    if "membership" in checks:
        cells = [(FIRST, CLASSICAL_PARAMS)] + [(sense, p) for p in combos for sense in NOTIONS]
        notions = ["coordinated"] + [NOTIONS[sense] for sense, _ in cells[1:]]
        for (_, p), notion, rep in zip(cells, notions, sweep.reports(s, cells)):
            files["membership"].append(_membership_row(name, "f", notion, param_cols[p], rep))

    swept = list(_bound_sweep(s, rect, combos, checks, cfg.variants, dev))
    every = "hypothesis" in HEADERS[bound_file]
    keys = [  # the row's own cell, where its hypothesis is refuted; None where it is not
        p
        if rep is not None and (every or (variant == PROOF_FORM and rep.verdict == BOUND_VIOLATED))
        else None
        for _, p, variant, rep in swept
    ]
    params = [p for p in dict.fromkeys(keys) if p is not None]
    hyps = dict(zip(params, sweep.verdicts(s, params)))
    # every bound report of the surface has dev's lhs and error_budget
    lhs, budget = (_fmt(dev.abs_deviation), _fmt(dev.error_budget)) if swept else ("", "")
    findings = []
    for (kind, p, variant, rep), key in zip(swept, keys):
        hypothesis = hyps.get(key) or SKIPPED
        row = _bound_row(name, kind, variant, param_cols[p], rep, lhs, budget)
        files[bound_file].append(row + (hypothesis,) if every else row)
        if hypothesis == NO_VIOLATION and rep.verdict == BOUND_VIOLATED:
            finding = dict(surface=name, theorem=kind, variant=variant, lhs=rep.lhs, rhs=rep.rhs)
            findings.append(finding | {k: getattr(p, k) for k in PARAM_KEYS})
    return findings


def _run(cfg: RunConfig, surfaces, bound_file: str, summary_name: str, own_keys) -> int:
    """Sweep every (name, surface) of the source ``surfaces`` and write the
    report: the rows, and a summary of the shared keys plus those
    ``own_keys(files, findings)`` returns.  Returns the exit code, 1 when a
    proof-form row is a finding."""
    t0 = time.time()
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    files = {bound_file: [], "membership": [], "chains": [], "identity": []}
    param_cols = _param_cols(cfg.combos)
    findings = []
    for name, s in surfaces:
        findings += _sweep_surface(name, s, cfg, param_cols, sweep, files, bound_file)

    failing = [f for f in findings if f["variant"] == PROOF_FORM]
    exit_code = 1 if failing else 0
    summary = {
        **own_keys(files, findings),
        "proof_form_failures": failing,
        "rows": sum(len(v) for v in files.values()),
        "work": {  # deterministic counts of the refuter work, no timings
            "membership_reports": sweep.work["membership_reports"],
            "batched_evaluations": sweep.work["batched_evaluations"],
            "sample_margins": sweep.work["sample_margins"],
            "samples_per_report": len(sweep.samples[0]),
        },
        "wall_time_s": round(time.time() - t0, 3),
        "exit_code": exit_code,
    }
    _write_report(cfg.output_dir, files, summary_name, summary)
    return exit_code


def run_verify(cfg: RunConfig) -> int:
    """Run the configured checks on the corpus surfaces; returns the exit code."""

    def own_keys(files, findings):
        # "" on skipped rows, "nan" where the right side is not a number
        slacks = [float(v) for v in _column(files, "bounds", "slack") if v not in ("", "nan")]
        chain_counts = Counter(_column(files, "chains", "monotone"))
        identity_counts = Counter(_column(files, "identity", "within_budget"))
        return {
            "counts": {
                "bounds": Counter(_column(files, "bounds", "verdict")),
                "membership": Counter(_column(files, "membership", "verdict")),
                "chains": {"monotone": chain_counts["true"], "non-monotone": chain_counts["false"]},
                "identity": {
                    "within-budget": identity_counts["true"],
                    "out-of-budget": identity_counts["false"],
                },
            },
            "worst_slack": min(slacks) if slacks else None,
        }

    registry = corpus()
    surfaces = ((name, registry[name].surface) for name in cfg.surfaces)
    return _run(cfg, surfaces, "bounds", "summary.json", own_keys)


# --------------------------------------------------------------------------
# hunt


def _random_nonneg_poly(rng, degree: int) -> RationalPoly2:
    """Random polynomial with nonnegative rational coefficients and at least
    one genuinely mixed term, so the mixed partial is nonzero and |d2f| is
    co-ordinated convex on nonnegative rectangles at classical parameters."""
    terms: dict[tuple[int, int], object] = {}
    n_terms = int(rng.integers(3, 9))
    for _ in range(n_terms):
        i = int(rng.integers(0, degree + 1))
        j = int(rng.integers(0, degree + 1))
        num = int(rng.integers(0, 5))
        den = int(rng.integers(1, 5))
        if num:
            terms[(i, j)] = terms.get((i, j), 0) + Fraction(num, den)
    i = int(rng.integers(1, max(2, degree + 1)))
    j = int(rng.integers(1, max(2, degree + 1)))
    terms[(i, j)] = terms.get((i, j), 0) + Fraction(int(rng.integers(1, 5)))
    return RationalPoly2(terms)


def _hunt_domain(rect: Rect, combos) -> Rect:
    """A domain wide enough for every scaled evaluation hull in the sweep.
    ConfigError when no Rect is: an edge or the area overflows."""
    a, b, c, d = zip(*(scaled_eval_edges(rect, p) for p in combos))
    pad = 1.0
    what = f"bad rect: {rect} scaled by 1/m1, 1/m2 gives no hunt domain"
    return _build(what, lambda: Rect(min(a) - pad, max(b) + pad, min(c) - pad, max(d) + pad))


def run_hunt(cfg: RunConfig) -> int:
    """Sweep the bounds of random polynomial surfaces, hunting for
    as-written bound failures under a clean hypothesis."""
    if AS_WRITTEN not in cfg.variants:
        raise ConfigError("hunt requires the as-written variant to be enabled")
    kinds = [c for c in cfg.checks if c in BOUND_KINDS] or list(BOUND_KINDS)
    cfg = replace(cfg, checks=kinds)

    domain = _hunt_domain(cfg.rect, cfg.combos)

    def surfaces():
        rng = np.random.default_rng(cfg.seed)
        for k in range(cfg.hunt_count):
            name = f"hunt-{k:03d}"
            yield name, poly_surface(name, _random_nonneg_poly(rng, cfg.hunt_degree), domain)

    def own_keys(files, findings):
        return {
            "surfaces_generated": cfg.hunt_count,
            "degree": cfg.hunt_degree,
            "as_written_findings": [f for f in findings if f["variant"] == AS_WRITTEN],
        }

    return _run(cfg, surfaces(), "hunt", "hunt_summary.json", own_keys)


# --------------------------------------------------------------------------
# small subcommands


def print_corpus():
    for name, entry in corpus().items():
        s = entry.surface
        print(f"{name:12s} f = {entry.formula:12s} domain {s.domain}  d2f {s.d2f_kind}")


def print_constants(points: int):
    print("theta,moment")
    for i in range(points):
        theta = i / (points - 1) if points > 1 else 0.0
        print(f"{theta!r},{kink_moment(theta)!r}")


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhverify",
        description="Verification workbench for Hermite-Hadamard-type trapezoid bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in ("verify", "hunt"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
    sub.add_parser("corpus")
    c = sub.add_parser("constants")
    c.add_argument("--points", type=int, default=11)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            print_corpus()
            return 0
        if args.command == "constants":
            if args.points < 1:
                raise ConfigError("--points must be >= 1")
            print_constants(args.points)
            return 0
        cfg = load_config(args.config, seed=args.seed, out=args.out, command=args.command)
        if args.command == "verify":
            return run_verify(cfg)
        return run_hunt(cfg)
    except (ConfigError, ConvergenceError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
