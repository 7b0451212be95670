"""Tests for the benchmark's own output checks.

    python3 -m pytest bench/test_checks.py

Each checker must pass a genuine output and reject the same output with one
row altered.
"""

import csv
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hhverify import Rect, cli, deviation_terms, hh_chain_2d, identity_report  # noqa: E402


def _edit_csv(path, edit):
    """Rewrite a report with ``edit(rows)`` applied to its rows."""
    rows = checks.read_csv(path)
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


TRIVIAL = {k: "1.0" for k in ("s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")}


def _scale(row, column, factor):
    row[column] = repr(float(row[column]) * factor)


def _first(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def test_closed_form_deviation_of_x2y2_on_unit_square():
    assert checks.poly_deviation({(2, 2): 1}, (0.0, 1.0, 0.0, 1.0)) == Fraction(1, 36)


def test_separable_reference_matches_exp_closed_form():
    a, b, c, d = 0.25, 1.5, 0.5, 2.0

    def gap(lo, hi):  # endpoint average minus mean of exp over [lo, hi]
        w = hi - lo
        return math.exp(lo) * ((1.0 + math.exp(w)) / 2.0 - math.expm1(w) / w)

    (dev, err), _ = checks.separable_reference([checks.EXP], [checks.EXP], (a, b, c, d))
    assert dev == pytest.approx(gap(a, b) * gap(c, d), rel=1e-12)
    assert err < 1e-12


@pytest.fixture(scope="module")
def verify_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    rect = [0.25, 1.75, 0.5, 1.25]
    config = dict(workloads.QUICK, surfaces=["x3y3"], rect=rect)
    path = root / "config.json"
    path.write_text(json.dumps(config))
    out = root / "out"
    code = cli.main(["verify", "--config", str(path), "--out", str(out)])
    return out, rect, code


def _copy(out, tmp_path):
    dest = tmp_path / "out"
    dest.mkdir()
    for f in out.iterdir():
        (dest / f.name).write_bytes(f.read_bytes())
    return dest


def test_verify_checker_accepts_genuine_output(verify_out):
    out, rect, code = verify_out
    assert checks.check_verify(out, "x3y3", rect, code) == []


@pytest.mark.parametrize(
    "name, edit",
    [
        ("lhs", lambda rows: _scale(_first(rows, theorem="holder"), "lhs", 1 + 1e-9)),
        ("direct", lambda rows: _first(rows, theorem="direct", variant="proof-form", **TRIVIAL).update(rhs="1.0")),
        ("skipped", lambda rows: rows[-1].update(verdict="skipped")),
    ],
)
def test_verify_checker_rejects_altered_bound_row(verify_out, tmp_path, name, edit):
    out, rect, code = verify_out
    out = _copy(out, tmp_path)
    _edit_csv(out / "bounds.csv", edit)
    assert checks.check_verify(out, "x3y3", rect, code)


@pytest.mark.parametrize(
    "report, edit",
    [
        ("identity.csv", lambda rows: rows[0].update(within_budget="false")),
        ("chains.csv", lambda rows: rows[0].update(monotone="false")),
    ],
)
def test_verify_checker_rejects_altered_identity_and_chain(verify_out, tmp_path, report, edit):
    out, rect, code = verify_out
    out = _copy(out, tmp_path)
    _edit_csv(out / report, edit)
    assert checks.check_verify(out, "x3y3", rect, code)


def test_verify_checker_rejects_wrong_surface(verify_out):
    out, rect, code = verify_out
    assert checks.check_verify(out, "x2y2", rect, code)


@pytest.fixture(scope="module")
def hunt_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("hunt")
    config = dict(workloads.HUNT, param_grid={"s1": [0.5, 1.0], "m2": [0.5, 1.0], "q": [1.0, 2.0]}, seed=7)
    path = root / "config.json"
    path.write_text(json.dumps(config))
    out = root / "out"
    code = cli.main(["hunt", "--config", str(path), "--out", str(out)])
    return out, config, code


def test_hunt_checker_accepts_genuine_output(hunt_out):
    out, config, code = hunt_out
    assert checks.expected_hunt_rows(config["param_grid"], config["checks"], config["variants"]) == 32
    assert checks.check_hunt(out, config, code) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: _scale(_first(rows, theorem="holder", variant="as-written"), "rhs", 1 + 1e-9),
        lambda rows: _first(rows, variant="proof-form", hypothesis="no-violation-found").update(rhs="0.0"),
        lambda rows: rows.pop(),
    ],
)
def test_hunt_checker_rejects_altered_row(hunt_out, tmp_path, edit):
    out, config, code = hunt_out
    out = _copy(out, tmp_path)
    _edit_csv(out / "hunt.csv", edit)
    assert checks.check_hunt(out, config, code)


@pytest.fixture(scope="module")
def quadrature_results():
    import numpy as np

    rng = np.random.default_rng(3)
    rect = (0.5, 1.5, 0.25, 1.25)
    fx = workloads._axis(rng, (17.5, 20.5), 1.0, "exp")
    fy = workloads._axis(rng, (17.5, 20.5), 1.0, "cosh")
    s = workloads.oscillatory_surface("osc", fx, fy, rect)
    r = Rect(*rect)
    reference = checks.separable_reference(fx.reference_terms(), fy.reference_terms(), rect)
    return (deviation_terms(s, r), identity_report(s, r), hh_chain_2d(s, r)), reference


def test_quadrature_checker_accepts_genuine_results(quadrature_results):
    results, reference = quadrature_results
    assert checks.check_quadrature(*results, reference) == []


@pytest.mark.parametrize("which", ["deviation", "identity", "chain"])
def test_quadrature_checker_rejects_altered_result(quadrature_results, which):
    (dev, ident, chain), reference = quadrature_results
    if which == "deviation":
        dev = dataclasses.replace(dev, signed_deviation=dev.signed_deviation * (1 + 1e-9))
    elif which == "identity":
        ident = dataclasses.replace(ident, residual=ident.error_budget * 2)
    else:
        chain = dataclasses.replace(chain, values=(chain.values[0] + 1e-9, *chain.values[1:]))
    assert checks.check_quadrature(dev, ident, chain, reference)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
