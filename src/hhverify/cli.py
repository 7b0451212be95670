"""Batch front-end: verification sweeps, counterexample hunting, reports.

Subcommands
-----------
verify     run the selected checks over surfaces x parameter grid, write one
           CSV row per report plus a JSON summary.
hunt       generate random nonneg-coefficient polynomial surfaces and sweep
           parameters looking for cases where an as-written bound falls below
           the verified left side.
corpus     list registered surfaces.
constants  print the kink-moment table over a theta grid.

Exit codes: 0 clean; 1 a proof-form bound was violated on an input whose
membership refuter found no violation (an acceptance failure); 2 usage or
configuration error.

Reports are deterministic for a given config and seed: rows are emitted in
sorted order and floats are written with shortest round-trip repr.  Wall time
lives only in the JSON summary, never in the CSVs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
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
    VARIANTS,
    BOUND_VIOLATED,
    BoundReport,
    DeviationTerms,
    bound_classical,
    bound_direct,
    bound_holder,
    bound_power_mean,
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
    abs_mixed_surface,
)
from .errors import ConfigError, OutOfDomainError, ParameterError
from .geometry import CLASSICAL_PARAMS, GenParams, Rect
from .oracle import RationalPoly2, deviation_exact
from .surfaces import corpus, poly_surface, scaled_eval_hull

ALL_CHECKS = ("identity", "chain", CLASSICAL, DIRECT, HOLDER, POWER_MEAN, "membership")
SKIPPED = "skipped"

OUT_ENV_VAR = "HHVERIFY_OUT"

PARAM_KEYS = ("s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")

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
    param_grid: dict[str, list[float]]
    variants: list[str]
    checks: list[str]
    plan: SamplingPlan
    output_dir: Path
    seed: int
    hunt_count: int = 20
    hunt_degree: int = 4


def _as_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list")
    return value


def _number(kind, value, name):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, not {value!r}") from exc


def build_config(raw: dict, *, seed=None, out=None, default_variants=(PROOF_FORM,)) -> RunConfig:
    """Validate a parsed config mapping and apply CLI/env overrides."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {
        "surfaces", "rect", "param_grid", "variants", "checks", "plan",
        "output_dir", "seed", "hunt",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    registry = corpus()
    names = raw.get("surfaces", ["all"])
    names = _as_list(names, "surfaces")
    if names == ["all"]:
        names = list(registry)
    for n in names:
        if n not in registry:
            raise ConfigError(
                f"unknown surface {n!r}; registered: {', '.join(registry)}"
            )

    rect_raw = raw.get("rect", [0.0, 1.0, 0.0, 1.0])
    if not (isinstance(rect_raw, list) and len(rect_raw) == 4):
        raise ConfigError("rect must be a list [a, b, c, d]")
    try:
        rect = Rect(*map(float, rect_raw))
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad rect: {exc}") from exc

    grid_raw = raw.get("param_grid", {})
    if not isinstance(grid_raw, dict):
        raise ConfigError("param_grid must be an object of value lists")
    unknown = set(grid_raw) - set(PARAM_KEYS)
    if unknown:
        raise ConfigError(f"unknown param_grid keys: {sorted(unknown)}")
    grid: dict[str, list[float]] = {}
    for key in PARAM_KEYS:
        values = grid_raw.get(key, [1.0])
        if not isinstance(values, list) or not values:
            raise ConfigError(f"no parameters to sweep: param_grid.{key} is empty")
        grid[key] = [_number(float, v, f"param_grid.{key}") for v in values]

    variants = raw.get("variants", list(default_variants))
    variants = _as_list(variants, "variants")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}; expected subset of {VARIANTS}")

    checks = raw.get("checks", list(ALL_CHECKS))
    checks = _as_list(checks, "checks")
    for c in checks:
        if c not in ALL_CHECKS:
            raise ConfigError(f"unknown check {c!r}; expected subset of {ALL_CHECKS}")

    run_seed = _number(int, raw.get("seed", 0), "seed") if seed is None else int(seed)

    plan_raw = raw.get("plan", {})
    if not isinstance(plan_raw, dict):
        raise ConfigError("plan must be an object")
    try:
        plan = SamplingPlan(
            grid_per_axis=int(plan_raw.get("grid_per_axis", 9)),
            random_trials=int(plan_raw.get("random_trials", 10000)),
            seed=int(plan_raw.get("seed", run_seed)),
            tolerance=float(plan_raw.get("tolerance", 1e-9)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad plan: {exc}") from exc

    out_dir = raw.get("output_dir", "out")
    out_dir = os.environ.get(OUT_ENV_VAR, out_dir)
    if out is not None:
        out_dir = out

    hunt_raw = raw.get("hunt", {})
    if not isinstance(hunt_raw, dict):
        raise ConfigError("hunt must be an object")

    cfg = RunConfig(
        surfaces=list(names),
        rect=rect,
        param_grid=grid,
        variants=list(variants),
        checks=list(checks),
        plan=plan,
        output_dir=Path(out_dir),
        seed=run_seed,
        hunt_count=_number(int, hunt_raw.get("count", 20), "hunt.count"),
        hunt_degree=_number(int, hunt_raw.get("degree", 4), "hunt.degree"),
    )
    param_combos(cfg.param_grid)  # validates every grid cell
    return cfg


def load_config(path, **overrides) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return build_config(raw, **overrides)


def param_combos(grid: dict[str, list[float]]) -> list[GenParams]:
    """Cartesian product of the parameter grid, in deterministic key order."""
    values = [grid[k] for k in PARAM_KEYS]
    combos = []
    for combo in itertools.product(*values):
        kwargs = dict(zip(PARAM_KEYS, combo))
        try:
            combos.append(GenParams(**kwargs))
        except ParameterError as exc:
            raise ConfigError(f"bad param grid cell {kwargs}: {exc}") from exc
    if not combos:
        raise ConfigError("no parameters to sweep")
    return combos


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


def _param_cols(p: GenParams) -> dict:
    return {k: _fmt(float(getattr(p, k))) for k in PARAM_KEYS}


def _bound_row(surface, kind, variant, p: GenParams, rep: BoundReport | None) -> dict:
    """One bounds row; ``rep`` None is a cell skipped for leaving the domain."""
    row = {"surface": surface, "theorem": kind, "variant": variant, **_param_cols(p)}
    if rep is None:
        row.update(lhs="", rhs="", slack="", error_budget="", verdict=SKIPPED)
    else:
        row.update(
            lhs=_fmt(rep.lhs),
            rhs=_fmt(rep.rhs),
            slack=_fmt(rep.slack),
            error_budget=_fmt(rep.error_budget),
            verdict=rep.verdict,
        )
    return row


def _membership_row(surface, target, notion, p, rep: MembershipReport | None) -> dict:
    row = {
        "surface": surface,
        "target": target,
        "notion": notion,
        **_param_cols(p),
    }
    if rep is None:
        row.update(
            verdict=SKIPPED,
            worst_margin="",
            witness_x="", witness_y="", witness_z="",
            witness_w="", witness_lam="", witness_mu="",
            samples_checked="",
        )
    else:
        wx, wy, wz, ww, wl, wm = rep.witness
        row.update(
            verdict=rep.verdict,
            worst_margin=_fmt(rep.worst_margin),
            witness_x=_fmt(wx), witness_y=_fmt(wy), witness_z=_fmt(wz),
            witness_w=_fmt(ww), witness_lam=_fmt(wl), witness_mu=_fmt(wm),
            samples_checked=str(rep.samples_checked),
        )
    return row


def _write_report(out_dir: Path, files: dict, summary_name: str, summary: dict) -> None:
    """Write each non-empty row list, sorted by its header, as ``<key>.csv``,
    then the summary as JSON."""
    for key, rows in files.items():
        if not rows:
            continue
        header = HEADERS[key]
        rows.sort(key=lambda row: tuple(row[col] for col in header))
        with open(out_dir / f"{key}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    with open(out_dir / summary_name, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _work_block(work: Counter, sweep: MembershipSweep) -> dict:
    """Deterministic counts of the refuter work done in a run."""
    return {
        "membership_reports": work["membership_reports"],
        "batched_evaluations": work["batched_evaluations"],
        "samples_per_report": len(sweep.samples[0]),
    }


# --------------------------------------------------------------------------
# the bound sweep shared by verify and hunt


def _hypothesis_params(kind: str, p: GenParams) -> GenParams:
    """Where a bound's hypothesis |d2f|^q is refuted: the classical bound
    needs plain co-ordinated convexity of |d2f|, the others first-sense
    membership of |d2f|^q at p."""
    return CLASSICAL_PARAMS if kind == CLASSICAL else p


def _hypothesis_reports(sweep: MembershipSweep, s, params, work) -> dict:
    """Hypothesis membership reports of s, keyed by the given parameters."""
    params = list(dict.fromkeys(params))
    return dict(zip(params, sweep.reports(s, [(FIRST, p) for p in params], hypothesis=True, work=work)))


def _applicable_kinds(checks, q: float):
    kinds = []
    if DIRECT in checks and q == 1.0:
        kinds.append(DIRECT)
    if HOLDER in checks and q > 1.0:
        kinds.append(HOLDER)
    if POWER_MEAN in checks:
        kinds.append(POWER_MEAN)
    return kinds


_BOUND_FNS = {DIRECT: bound_direct, HOLDER: bound_holder, POWER_MEAN: bound_power_mean}


def _bound_sweep(s, rect: Rect, combos, kinds, variants, dev: DeviationTerms):
    """Yield (kind, params, variant, report) for every bound row of s: the
    classical bound first, then each grid cell x applicable kind x variant.
    The report is None where the m-scaled corners leave the domain."""
    if CLASSICAL in kinds:
        yield CLASSICAL, CLASSICAL_PARAMS, PROOF_FORM, bound_classical(s, rect, dev=dev)
    for p in combos:
        for kind in _applicable_kinds(kinds, p.q):
            for variant in variants:
                try:
                    rep = _BOUND_FNS[kind](s, rect, p, variant=variant, dev=dev)
                except OutOfDomainError:
                    rep = None
                yield kind, p, variant, rep


# --------------------------------------------------------------------------
# verify


NOTIONS = {FIRST: "first-sense", SECOND: "second-sense"}


def _verify_surface(name, s, cfg, combos, sweep, files, work) -> list:
    """Append the rows of one surface to ``files``; returns its proof-form
    failures as (surface, kind, params)."""
    rect = cfg.rect
    if "identity" in cfg.checks:
        rep = identity_report(s, rect)
        files["identity"].append(
            {
                "surface": name,
                "residual": _fmt(rep.residual),
                "error_budget": _fmt(rep.error_budget),
                "within_budget": _fmt(abs(rep.residual) <= rep.error_budget),
            }
        )
    if "chain" in cfg.checks:
        chain = hh_chain_2d(s, rect)
        c1, c2, c3, c4, c5 = chain.values
        files["chains"].append(
            {
                "surface": name,
                "center": _fmt(c1),
                "midline_mean": _fmt(c2),
                "double_mean": _fmt(c3),
                "edge_mean": _fmt(c4),
                "corner_avg": _fmt(c5),
                "monotone": _fmt(chain.monotone),
                "worst_gap": _fmt(chain.worst_gap),
                "error_budget": _fmt(chain.error_budget),
            }
        )

    violations = []  # (kind, params) for violated proof-form rows
    if any(c in cfg.checks for c in BOUND_KINDS):
        dev = deviation_terms(s, rect)
        for kind, p, variant, rep in _bound_sweep(s, rect, combos, cfg.checks, cfg.variants, dev):
            files["bounds"].append(_bound_row(name, kind, variant, p, rep))
            if rep is not None and rep.verdict == BOUND_VIOLATED and variant == PROOF_FORM:
                violations.append((kind, p))

    if "membership" in cfg.checks:
        cells = [(FIRST, CLASSICAL_PARAMS)] + [(sense, p) for p in combos for sense in NOTIONS]
        reports = sweep.reports(s, cells, work=work)
        files["membership"].append(_membership_row(name, "f", "coordinated", CLASSICAL_PARAMS, reports[0]))
        for (sense, p), rep in zip(cells[1:], reports[1:]):
            files["membership"].append(_membership_row(name, "f", NOTIONS[sense], p, rep))

    hyps = _hypothesis_reports(sweep, s, (_hypothesis_params(k, p) for k, p in violations), work)
    failing = []
    for kind, p in violations:
        hyp = hyps[_hypothesis_params(kind, p)]
        if hyp is not None and hyp.verdict == NO_VIOLATION:
            failing.append((name, kind, p))
    return failing


def run_verify(cfg: RunConfig) -> int:
    """Execute the configured checks; returns the process exit code."""
    t0 = time.time()
    combos = param_combos(cfg.param_grid)
    registry = corpus()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    sweep = MembershipSweep(cfg.rect, cfg.plan)

    files = {"bounds": [], "membership": [], "chains": [], "identity": []}
    work = Counter()
    failing = []
    for name in cfg.surfaces:
        failing += _verify_surface(name, registry[name].surface, cfg, combos, sweep, files, work)

    slacks = [
        float(row["slack"]) for row in files["bounds"] if row["verdict"] != SKIPPED
    ]
    exit_code = 1 if failing else 0
    chain_counts = Counter(row["monotone"] for row in files["chains"])
    identity_counts = Counter(row["within_budget"] for row in files["identity"])
    summary = {
        "counts": {
            "bounds": Counter(row["verdict"] for row in files["bounds"]),
            "membership": Counter(row["verdict"] for row in files["membership"]),
            "chains": {
                "monotone": chain_counts["true"],
                "non-monotone": chain_counts["false"],
            },
            "identity": {
                "within-budget": identity_counts["true"],
                "out-of-budget": identity_counts["false"],
            },
        },
        "worst_slack": min(slacks) if slacks else None,
        "proof_form_failures": [
            {"surface": n, "theorem": k, **{key: getattr(p, key) for key in PARAM_KEYS}}
            for n, k, p in failing
        ],
        "rows": sum(len(v) for v in files.values()),
        "work": _work_block(work, sweep),
        "wall_time_s": round(time.time() - t0, 3),
        "exit_code": exit_code,
    }
    _write_report(cfg.output_dir, files, "summary.json", summary)
    return exit_code


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
    """A domain wide enough for every scaled evaluation hull in the sweep."""
    hulls = [scaled_eval_hull(rect, p) for p in combos]
    pad = 1.0
    return Rect(
        min(h.a for h in hulls) - pad,
        max(h.b for h in hulls) + pad,
        min(h.c for h in hulls) - pad,
        max(h.d for h in hulls) + pad,
    )


def run_hunt(cfg: RunConfig) -> int:
    """Sweep random polynomial surfaces hunting for as-written bound failures."""
    t0 = time.time()
    if AS_WRITTEN not in cfg.variants:
        raise ConfigError("hunt requires the as-written variant to be enabled")
    combos = param_combos(cfg.param_grid)
    kinds = [c for c in cfg.checks if c in BOUND_KINDS] or list(BOUND_KINDS)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    domain = _hunt_domain(cfg.rect, combos)
    sweep = MembershipSweep(cfg.rect, cfg.plan)
    work = Counter()
    hyp_params = [CLASSICAL_PARAMS] if CLASSICAL in kinds else []
    hyp_params += [p for p in combos if _applicable_kinds(kinds, p.q)]

    rows = []
    findings = []
    for k in range(cfg.hunt_count):
        poly = _random_nonneg_poly(rng, cfg.hunt_degree)
        name = f"hunt-{k:03d}"
        s = poly_surface(name, poly, domain)
        signed = float(deviation_exact(poly, cfg.rect))
        dev = DeviationTerms(
            corner_avg=0.0,
            integral_mean=0.0,
            marginal_a=0.0,
            signed_deviation=signed,
            abs_deviation=abs(signed),
            error_budget=0.0,
        )
        hyps = _hypothesis_reports(sweep, s, hyp_params, work)
        for kind, p, variant, rep in _bound_sweep(s, cfg.rect, combos, kinds, cfg.variants, dev):
            hyp = None if rep is None else hyps[_hypothesis_params(kind, p)]
            row = _bound_row(name, kind, variant, p, rep)
            row["hypothesis"] = SKIPPED if hyp is None else hyp.verdict
            rows.append(row)
            if rep is not None and rep.verdict == BOUND_VIOLATED and row["hypothesis"] == NO_VIOLATION:
                findings.append(
                    {
                        "surface": name,
                        "theorem": kind,
                        "variant": variant,
                        **{key: getattr(p, key) for key in PARAM_KEYS},
                        "lhs": rep.lhs,
                        "rhs": rep.rhs,
                    }
                )

    failing = [f for f in findings if f["variant"] == PROOF_FORM]
    exit_code = 1 if failing else 0
    summary = {
        "surfaces_generated": cfg.hunt_count,
        "degree": cfg.hunt_degree,
        "rows": len(rows),
        "as_written_findings": [f for f in findings if f["variant"] == AS_WRITTEN],
        "proof_form_failures": failing,
        "work": _work_block(work, sweep),
        "wall_time_s": round(time.time() - t0, 3),
        "exit_code": exit_code,
    }
    _write_report(cfg.output_dir, {"hunt": rows}, "hunt_summary.json", summary)
    return exit_code


# --------------------------------------------------------------------------
# small subcommands


def print_corpus(file=None):
    file = file if file is not None else sys.stdout
    for name, entry in corpus().items():
        s = entry.surface
        print(
            f"{name:12s} f = {entry.formula:12s} domain {s.domain}  d2f {s.d2f_kind}",
            file=file,
        )


def print_constants(points: int = 11, file=None):
    file = file if file is not None else sys.stdout
    print("theta,moment", file=file)
    for i in range(points):
        theta = i / (points - 1) if points > 1 else 0.0
        print(f"{theta!r},{kink_moment(theta)!r}", file=file)


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
        defaults = (PROOF_FORM,) if args.command == "verify" else VARIANTS
        cfg = load_config(
            args.config,
            seed=args.seed,
            out=args.out,
            default_variants=defaults,
        )
        if args.command == "verify":
            return run_verify(cfg)
        return run_hunt(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
