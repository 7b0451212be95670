"""Batch front-end: verification sweeps, counterexample hunting, reports.

Subcommands
-----------
verify     run the selected checks over the corpus surfaces x parameter grid,
           write one CSV row per report plus a JSON summary.
hunt       sweep the bounds of random nonneg-coefficient polynomial surfaces,
           looking for a bound violated under a clean hypothesis: a finding.
corpus     list registered surfaces.
constants  print the kink-moment table over a theta grid.

verify and hunt are one driver, ``_run``, keyed by the command.
``build_config`` states each command's rules once: which surfaces (the
corpus names, or seeded random polynomials), variants and checks it runs.
Each surface goes through one routine, ``_sweep_surface``, which takes the
surface's ``bound_table`` one cell at a time: hunt refutes the hypothesis of
every cell that has a report, verify only of each cell with a violated
proof-form row.  Both summaries list findings in one shape.

Exit codes: 0 clean; 1 a proof-form row is a finding: violated while the
refuter finds its hypothesis clean (an acceptance failure); 2 usage or
configuration error.

Reports are deterministic for a given config and seed: each row is a tuple
in its file's header order, rows sort by their columns in that order, and
floats are written with shortest round-trip repr.  The surface column comes
first, so ``_run`` sweeps the surfaces in name order and spools each one's
sorted rows when it ends: the rows held are bounded by one surface.  Only a
run that finishes writes the CSVs, so one that exits 2 writes none.  Wall
time lives only in the JSON summary, never in the CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bounds import (
    AS_WRITTEN,
    BOUND_KINDS,
    PROOF_FORM,
    VARIANTS,
    bound_table,
    deviation_terms,
    hh_chain_2d,
    identity_report,
    kink_moment,
)
from .convexity import FIRST, SECOND, MembershipSweep, SamplingPlan
from .errors import ConfigError, ConvergenceError, NonFiniteError
from .geometry import CLASSICAL_PARAMS, GenParams, Rect, scaled_eval_edges
from .oracle import RationalPoly2
from .surfaces import Surface, corpus, poly_surface
from .verdicts import NO_VIOLATION, SKIPPED, VIOLATED

ALL_CHECKS = ("identity", "chain", *BOUND_KINDS, "membership")

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
# The column of each report file whose values the summary counts, "verdict" unless named here.
TALLIED = {"chains": "monotone", "identity": "within_budget"}


@dataclass
class RunConfig:
    command: str  # "verify" or "hunt"
    surfaces: dict[str, Surface]  # the surfaces to sweep, by name (swept in name order)
    rect: Rect
    combos: list[GenParams]  # the validated parameter grid cells, in sweep order
    variants: list[str]
    checks: list[str]
    plan: SamplingPlan
    output_dir: Path
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


def build_config(raw: dict, *, seed=None, out=None, command="verify") -> RunConfig:
    """Check a parsed config against SCHEMA, apply the CLI overrides and the
    command's rules.  ``verify`` sweeps the named corpus surfaces, so the rect
    must lie in their domains, and defaults to the proof-form variant.
    ``hunt`` sweeps seeded random polynomials on a domain around every scaled
    evaluation hull, needs the as-written variant and runs the listed bound
    checks, or all of them when none is listed."""
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
    combos = _build("bad param grid cell", lambda: [GenParams(**dict(zip(PARAM_KEYS, c))) for c in cells])
    plan = _build("bad plan", lambda: SamplingPlan(**{"seed": cfg["seed"], **cfg["plan"]}))
    variants = cfg.get("variants", [PROOF_FORM] if command == "verify" else list(VARIANTS))
    surfaces, checks, degree = {n: registry[n].surface for n in names}, cfg["checks"], cfg["hunt"]["degree"]
    if command == "hunt":
        if AS_WRITTEN not in variants:
            raise ConfigError("hunt requires the as-written variant to be enabled")
        checks = [c for c in checks if c in BOUND_KINDS] or list(BOUND_KINDS)
        domain, rng = _hunt_domain(rect, combos), np.random.default_rng(cfg["seed"])
        names = [f"hunt-{k:03d}" for k in range(cfg["hunt"]["count"])]
        surfaces = {n: poly_surface(n, _random_nonneg_poly(rng, degree), domain) for n in names}
    return RunConfig(
        command=command, surfaces=surfaces, rect=rect, combos=combos, variants=variants, checks=checks,
        plan=plan, output_dir=Path(cfg["output_dir"]), hunt_degree=degree,
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# --------------------------------------------------------------------------
# one run: one routine per surface, one report keyed by the command


NOTIONS = {FIRST: "first-sense", SECOND: "second-sense"}


def _sweep_surface(name, s, cfg, sweep, files, params) -> tuple:
    """Append the rows of one surface to ``files`` and return its findings,
    the violated bound rows whose hypothesis |d2f|^q the refuter found clean,
    and its least slack that is a number (None if there is none).  The bound
    rows come from bound_table one cell at a time.  hunt refutes the
    hypothesis of every cell that has a report, verify only of each cell
    with a violated proof-form row, in one batched call; each cell reads its
    verdict once.  ``params`` maps each cell to its seven parameter columns,
    formatted once per run, so every surface's rows share the strings."""
    rect, checks, combos, hunt = cfg.rect, cfg.checks, cfg.combos, cfg.command == "hunt"
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
            # a skipped cell has no worst_margin, witness coordinates or samples_checked
            cols = (SKIPPED, *[""] * 8) if rep is None else (
                rep.verdict, *map(_fmt, (rep.worst_margin, *rep.witness)), str(rep.samples_checked)
            )
            files["membership"].append((name, "f", notion, *params[p], *cols))

    table = bound_table(s, rect, combos, [c for c in checks if c in BOUND_KINDS], cfg.variants, dev)
    refuted = [  # the table index of each cell whose hypothesis is refuted
        i for i, (_, rows) in enumerate(table)
        if any(rep is not None and (hunt or (v == PROOF_FORM and rep.verdict == VIOLATED)) for _, v, rep in rows)
    ]
    hyps = dict(zip(refuted, sweep.verdicts(s, [table[i][0] for i in refuted])))
    # Each distinct report's columns, formatted once: bound_table shares a
    # report among cells, and every report has dev's lhs and error_budget.
    # None is a cell skipped for leaving the domain.
    lhs, budget = (_fmt(dev.abs_deviation), _fmt(dev.error_budget)) if dev is not None else ("", "")
    text = {id(None): ("", "", "", "", SKIPPED)}
    findings, out = [], files["hunt" if hunt else "bounds"]
    for i, (p, rows) in enumerate(table):
        hypothesis, cols = hyps.get(i) or SKIPPED, params[p]
        for kind, variant, rep in rows:
            if id(rep) not in text:
                text[id(rep)] = (lhs, _fmt(rep.rhs), _fmt(rep.slack), budget, rep.verdict)
            row = (name, kind, variant, *cols, *text[id(rep)])
            out.append(row + (hypothesis,) if hunt else row)
            if hypothesis == NO_VIOLATION and rep.verdict == VIOLATED:
                finding = dict(surface=name, theorem=kind, variant=variant, lhs=rep.lhs, rhs=rep.rhs)
                findings.append(finding | {k: getattr(p, k) for k in PARAM_KEYS})
    slacks = (rep.slack for _, rows in table for _, _, rep in rows if rep is not None)
    return findings, min((v for v in slacks if not math.isnan(v)), default=None)


def _run(cfg: RunConfig) -> int:
    """Sweep the surfaces of ``cfg`` in name order and write its command's
    report: the rows, and a summary of the shared keys plus the command's
    own.  Returns the exit code, 1 when a proof-form row is a finding."""
    t0, out = time.perf_counter(), cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    hunt = cfg.command == "hunt"
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    counts = {key: Counter() for key in ("hunt" if hunt else "bounds", "membership", "chains", "identity")}
    params = {p: tuple(_fmt(getattr(p, k)) for k in PARAM_KEYS) for p in (CLASSICAL_PARAMS, *cfg.combos)}
    findings, worst = [], None
    with contextlib.ExitStack() as stack:
        # One unnamed file per report: a run that fails or is killed leaves no CSV.
        spools = {key: stack.enter_context(tempfile.TemporaryFile("w+", newline="", dir=out)) for key in counts}
        for name in sorted(cfg.surfaces):
            files = {key: [] for key in counts}
            found, least = _sweep_surface(name, cfg.surfaces[name], cfg, sweep, files, params)
            findings += found
            worst = min((v for v in (worst, least) if v is not None), default=None)
            for key, rows in files.items():
                rows.sort()
                csv.writer(spools[key], lineterminator="\n").writerows(rows)
                column = HEADERS[key].index(TALLIED.get(key, "verdict"))
                counts[key].update(row[column] for row in rows)
        for key in filter(counts.get, spools):  # the reports with rows
            spools[key].seek(0)
            with open(out / f"{key}.csv", "w", newline="") as fh:
                fh.write(",".join(HEADERS[key]) + "\n")
                fh.writelines(spools[key])

    if hunt:
        own = {
            "surfaces_generated": len(cfg.surfaces),
            "degree": cfg.hunt_degree,
            "as_written_findings": [f for f in findings if f["variant"] == AS_WRITTEN],
        }
    else:
        chains, identity = counts["chains"], counts["identity"]
        own = {
            "counts": {
                "bounds": counts["bounds"],
                "membership": counts["membership"],
                "chains": {"monotone": chains["true"], "non-monotone": chains["false"]},
                "identity": {"within-budget": identity["true"], "out-of-budget": identity["false"]},
            },
            "worst_slack": worst,
        }
    failing = [f for f in findings if f["variant"] == PROOF_FORM]
    summary = {
        **own,
        "proof_form_failures": failing,
        "rows": sum(tally.total() for tally in counts.values()),
        "work": {  # deterministic counts of the refuter work, no timings
            "membership_reports": sweep.work["membership_reports"],
            "batched_evaluations": sweep.work["batched_evaluations"],
            "sample_margins": sweep.work["sample_margins"],
            "samples_per_report": len(sweep.samples[0]),
        },
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "exit_code": 1 if failing else 0,
    }
    with open(out / ("hunt_summary.json" if hunt else "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary["exit_code"]


# --------------------------------------------------------------------------
# small subcommands


def print_corpus():
    for name, entry in corpus().items():
        print(f"{name:12s} f = {entry.formula:12s} domain {entry.surface.domain}")


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
        return _run(load_config(args.config, seed=args.seed, out=args.out, command=args.command))
    except (ConfigError, ConvergenceError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
