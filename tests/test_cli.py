import csv
import gc
import io
import json
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hhverify import (
    BoundReport,
    GenParams,
    Rect,
    bound,
    corpus,
    deviation_terms,
)
from hhverify import bounds, cli, quadrature
from hhverify.convexity import MAX_SAMPLES, MembershipSweep
from hhverify.errors import ConfigError
from hhverify.verdicts import VERDICTS
from support import HUNT_CONFIG, time_limit


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "surfaces": ["x2y2", "xy"],
        "rect": [0.0, 1.0, 0.0, 1.0],
        "param_grid": {"q": [1.0, 2.0]},
        "variants": ["proof-form", "as-written"],
        "checks": list(cli.ALL_CHECKS),
        "plan": {"grid_per_axis": 5, "random_trials": 500},
        "seed": 7,
    }
    cfg.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(cfg))
    return file


def read_rows(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_unknown_surface_is_config_error(tmp_path):
    cfgfile = write_config(tmp_path, surfaces=["nope"], output_dir=str(tmp_path / "o"))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 2


def test_empty_param_grid_is_config_error(tmp_path, capsys):
    cfgfile = write_config(
        tmp_path, param_grid={"q": []}, output_dir=str(tmp_path / "o")
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 2
    assert "no parameters to sweep" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("verify", {"param_grid": {"q": ["x"]}}),
        ("verify", {"seed": "seven"}),
        ("hunt", {"hunt": {"count": "many"}}),
        ("hunt", {"hunt": {"degree": [3]}}),
    ],
)
def test_non_numeric_config_value_is_config_error(tmp_path, capsys, command, overrides):
    cfgfile = write_config(tmp_path, output_dir=str(tmp_path / "o"), **overrides)
    assert cli.main([command, "--config", str(cfgfile)]) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, flags, message",
    [
        ("verify", {"seed": -1}, [], "seed must be >= 0"),
        ("hunt", {}, ["--seed", "-1"], "seed must be >= 0"),
        ("verify", {"plan": {"seed": -2}}, [], "seed must be >= 0"),
        ("verify", {"plan": {"grid_per_axis": None}}, [], "plan.grid_per_axis must be a number"),
        ("verify", {"plan": {"tolerance": None}}, [], "plan.tolerance must be a number"),
        ("verify", {"plan": {"tolerance": float("nan")}}, [], "tolerance must be finite"),
        ("hunt", {"hunt": {"degree": -1}}, [], "hunt.degree must be >= 0"),
        ("hunt", {"hunt": {"count": -3}}, [], "hunt.count must be >= 0"),
        ("verify", {"rect": [0.0, 1.0, 0.0, float("inf")]}, [], "non-finite rectangle"),
        ("hunt", {"rect": [float("-inf"), 1.0, 0.0, 1.0]}, [], "non-finite rectangle"),
        (
            "verify", {"surfaces": ["xy"], "rect": [0.0, 10.0, 0.0, 1.0]}, [],
            "leaves the domain [-8.0, 8.0] x [-8.0, 8.0] of surface 'xy'",
        ),
        ("verify", {"plan": {"random_trial": 5}}, [], "unknown plan keys: ['random_trial']"),
        ("hunt", {"hunt": {"cout": 1}}, [], "unknown hunt keys: ['cout']"),
        ("verify", {"plan": {"grid_per_axis": 2.7}}, [], "plan.grid_per_axis must be a whole number"),
        ("verify", {"seed": 1.5}, [], "seed must be a whole number, not 1.5"),
        ("verify", {"param_grid": {"q": [True]}}, [], "param_grid.q must be a number, not True"),
        ("verify", {"param_grid": {"q": [10**400]}}, [], "param_grid.q must be a finite number"),
        ("verify", {"surfaces": ["exp_sum"], "rect": [0.0, 1e-300, 0.0, 1e-300]}, [], "bad rect"),
        ("hunt", {"rect": [-1e308, 1e308, 0.0, 1.0]}, [], "bad rect"),
        # finite rectangles whose m-scaled hunt domain has an infinite edge or area
        ("hunt", {"rect": [0.0, 1e308, 0.0, 1.0], "param_grid": {"m1": [0.5]}}, [], "bad rect"),
        ("hunt", {"param_grid": {"m1": [1e-160], "m2": [1e-160]}}, [], "bad rect"),
        # a list that repeats a value would write its rows twice
        ("verify", {"surfaces": ["xy", "xy"]}, [], "surfaces lists 'xy' twice"),
        ("hunt", {"variants": ["as-written", "proof-form", "as-written"]}, [], "variants lists 'as-written' twice"),
        ("verify", {"param_grid": {"q": [1.0, 1]}}, [], "param_grid.q lists 1.0 twice"),
        # a surface name must be a string
        ("verify", {"surfaces": [[1]]}, [], "surfaces must list surface names, not [1]"),
        # a sample table above MAX_SAMPLES is refused before it is built
        ("verify", {"plan": {"grid_per_axis": 100}}, [], "bad plan: 396178404 samples; at most"),
        ("hunt", {"plan": {"random_trials": 10**12}}, [], f"at most {MAX_SAMPLES} are allowed"),
        # the exact oracle's cost grows with the square of the degree
        ("hunt", {"hunt": {"degree": cli.MAX_HUNT_DEGREE + 1}}, [], f"hunt.degree must be <= {cli.MAX_HUNT_DEGREE}, not"),
        # a hunt's work and memory grow with the count; 10**400 ran without end
        ("hunt", {"hunt": {"count": 10**400}}, [], f"hunt.count must be <= {cli.MAX_HUNT_COUNT}, not"),
        # variants and checks share one message for a value outside their set
        ("verify", {"variants": ["mystery"]}, [], "unknown variants value 'mystery'; expected one of ("),
        ("verify", {"checks": ["chain", "mystery"]}, [], "unknown checks value 'mystery'; expected one of ("),
        ("verify", {"rect": [0.0, 1.0, 0.0]}, [], "rect must be a list of 4 values, not [0.0, 1.0, 0.0]"),
        # the file's own seed is checked where --seed replaces it
        ("verify", {"seed": "seven"}, ["--seed", "3"], "seed must be a number, not 'seven'"),
        # 0.0 and -0.0 are one value, as 1 and 1.0 are
        ("verify", {"param_grid": {"alpha1": [0.0, -0.0]}}, [], "param_grid.alpha1 lists -0.0 twice"),
    ],
)
def test_bad_config_value_exits_two(tmp_path, capsys, command, overrides, flags, message):
    """A config value the schema rejects ends in exit code 2 and an error
    line, not a traceback, and writes no report."""
    out = tmp_path / "o"
    cfgfile = write_config(tmp_path, output_dir=str(out), **overrides)
    assert cli.main([command, "--config", str(cfgfile), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "hunt"])
@pytest.mark.parametrize("value", [5, None, ["o"]])
def test_non_string_output_dir_exits_two(tmp_path, capsys, command, value):
    """An output_dir that is no path string ends in exit code 2 and an
    error line, not a TypeError."""
    cfgfile = write_config(tmp_path, output_dir=value)
    assert cli.main([command, "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"output_dir must be a path string, not {value!r}" in err, err


@pytest.mark.parametrize("command", ["verify", "hunt"])
@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_exits_two(tmp_path, capsys, command, below):
    """An --out that is an existing file, or lies below one, cannot be made
    a directory: exit code 2 and an error line naming it, and the file is
    left as it was."""
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    out = taken / "o" if below else taken
    cfgfile = write_config(tmp_path)
    assert cli.main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cannot create output directory {out}" in err, err
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize(
    "config, message",
    [
        # the exact deviation of a cubic over [0, 1e200] x [0, 1] overflows a float
        ({"rect": [0, 1e200, 0, 1], "hunt": {"count": 1, "degree": 3}}, "hunt-000 deviation over"),
        # |d2f|^1000 overflows, and a zero corner weight times inf is a nan margin
        (
            {"param_grid": {"q": [1000]}, "checks": ["holder", "power-mean"], "hunt": {"count": 1, "degree": 3}},
            "|d2f[hunt-000]|^1000 margin",
        ),
    ],
)
def test_non_finite_value_exits_two(tmp_path, capsys, config, message):
    """A value that is not a finite number ends the run in exit code 2 and an
    error line, not a traceback and not exit 1, the code for a finding."""
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({**config, "output_dir": str(tmp_path / "o")}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["hunt", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value") and message in err, err


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"seed": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"output_dir": "\xff"}', "can't decode byte 0xff"),
    ],
    ids=["int-of-5000-digits", "not-utf-8"],
)
def test_unreadable_json_exits_two(tmp_path, capsys, text, message):
    """A config that json.load rejects with a ValueError other than a
    JSONDecodeError is a config error too, not a traceback."""
    cfgfile = tmp_path / "config.json"
    cfgfile.write_bytes(text)
    assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfgfile} is not valid JSON: ") and message in err, err


def test_hunt_at_the_degree_cap_ends_in_seconds(tmp_path):
    """One surface of the capped degree on [0.1, 0.9]^2 takes about 0.03 s
    (2 cores); without the cap, degree 20 000 ran for over 90 s."""
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({
        "rect": [0.1, 0.9, 0.1, 0.9], "hunt": {"count": 1, "degree": cli.MAX_HUNT_DEGREE},
        "checks": ["direct"], "param_grid": {"q": [1.0]},
    }))
    with time_limit(5):
        assert cli.main(["hunt", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0


def test_param_grid_above_the_cell_cap_exits_two(tmp_path, capsys, monkeypatch):
    """20 values for each of the 7 keys, a 1 KB config, span 1.28e9 cells;
    the cap refuses them from the list lengths, before any cell is built."""
    built = []
    monkeypatch.setattr(cli, "GenParams", lambda **cell: built.append(cell))
    grid = {key: [1.0 + i / 64 for i in range(20)] for key in cli.PARAM_KEYS}
    out = tmp_path / "o"
    cfgfile = write_config(tmp_path, param_grid=grid, output_dir=str(out))
    with time_limit(5):
        assert cli.main(["hunt", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: param_grid spans {20**7} cells; at most {cli.MAX_GRID_CELLS} are allowed\n"
    assert not built and not out.exists()


def test_convergence_error_exits_two(tmp_path, capsys, monkeypatch):
    """An integral that cannot meet its tolerance ends the run in exit code
    2 and an error line, and no report is written."""
    monkeypatch.setattr(quadrature, "DEFAULT_TOL", quadrature.Tolerance(rel=0.0, abs_floor=0.0, max_depth=1))
    out = tmp_path / "o"
    cfgfile = write_config(tmp_path, surfaces=["exp_sum"], checks=["identity"], output_dir=str(out))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 1d integral did not converge"), err
    assert not list(out.glob("*"))


def test_integral_rounding_noise_keeps_from_converging_exits_two(tmp_path, capsys):
    """exp_sum's identity integrand on this thin rectangle has rounding noise
    above its budget; it bisected towards 4^20 panels and ran without end.
    quadrature.MAX_PANELS stops it in about 0.3 s (2 cores)."""
    rect = [5.384408819235972, 6.91935645954056, 5.384408819235972, 5.384408819236972]
    out = tmp_path / "o"
    cfgfile = write_config(
        tmp_path, surfaces=["exp_sum"], rect=rect, checks=["identity"], output_dir=str(out)
    )
    with time_limit(5):
        assert cli.main(["verify", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 2d integral did not converge"), err
    assert f"and {quadrature.MAX_PANELS} panels" in err, err
    assert not list(out.glob("*.csv"))


def test_plan_may_ask_for_max_samples():
    """The default grid of 9 per axis takes (4 + 81) * 17**2 samples before
    the random trials."""
    trials = MAX_SAMPLES - 85 * 17**2
    assert cli.build_config({"plan": {"random_trials": trials}}).plan.random_trials == trials
    with pytest.raises(ConfigError, match="bad plan"):
        cli.build_config({"plan": {"random_trials": trials + 1}})


def test_hunt_rect_may_leave_the_corpus_domains(tmp_path):
    """hunt generates its own surfaces on a domain around the rectangle, so a
    rectangle outside every corpus domain is no error there."""
    cfgfile = write_config(tmp_path, rect=[0.0, 10.0, 0.0, 1.0], hunt={"count": 1, "degree": 2})
    assert cli.main(["hunt", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0


def test_bad_variant_rejected(tmp_path):
    cfgfile = write_config(tmp_path, variants=["mystery"], output_dir=str(tmp_path / "o"))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 2


def test_golden_run_x2y2(tmp_path):
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["x2y2"],
        checks=["classical", "direct", "holder", "power-mean"],
        variants=["proof-form"],
        output_dir=str(out),
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    rows = read_rows(out / "bounds.csv")
    by_kind = {(row["theorem"], row["q"]): row for row in rows}
    golden = {
        ("classical", "1.0"): 1.0 / 16.0,
        ("direct", "1.0"): 1.0 / 16.0,
        ("holder", "2.0"): 1.0 / 6.0,
        ("power-mean", "2.0"): 1.0 / 8.0,
    }
    for key, want in golden.items():
        row = by_kind[key]
        assert abs(float(row["rhs"]) - want) <= 1e-12
        assert abs(float(row["lhs"]) - 1.0 / 36.0) <= 1e-12
        assert row["verdict"] == "holds"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 0
    assert summary["counts"]["bounds"] == {"holds": len(rows)}


def test_membership_finding_is_not_an_error(tmp_path):
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["neg_squares"],
        checks=["membership"],
        output_dir=str(out),
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    rows = read_rows(out / "membership.csv")
    coordinated = [r for r in rows if r["notion"] == "coordinated"]
    assert coordinated and coordinated[0]["verdict"] == "violated"
    assert float(coordinated[0]["worst_margin"]) < -1e-9


def test_csv_rows_round_trip(tmp_path):
    """Re-evaluating a row's inputs reproduces its lhs/rhs."""
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["x2y2", "exp_sum"],
        checks=["classical", "direct", "holder", "power-mean"],
        output_dir=str(out),
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    registry = corpus()
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    for row in read_rows(out / "bounds.csv"):
        surface = registry[row["surface"]].surface
        params = GenParams(**{k: float(row[k]) for k in ("s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")})
        rep = bound(row["theorem"], surface, rect, params, variant=row["variant"])
        assert abs(rep.lhs - float(row["lhs"])) <= 1e-12 * (1 + abs(rep.lhs))
        assert abs(rep.rhs - float(row["rhs"])) <= 1e-12 * (1 + abs(rep.rhs))


def test_signed_zero_parameter_column_is_written_as_given(tmp_path):
    """Each cell formats its own parameter columns, so a grid value -0.0
    reaches both bound and membership rows as -0.0, not as 0.0."""
    out = tmp_path / "out"
    cfgfile = write_config(tmp_path, param_grid={"alpha1": [-0.0, 0.5]}, output_dir=str(out))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    bound_rows = read_rows(out / "bounds.csv")
    membership_rows = read_rows(out / "membership.csv")
    assert {r["alpha1"] for r in bound_rows if r["theorem"] != "classical"} == {"-0.0", "0.5"}
    assert {r["alpha1"] for r in membership_rows if r["notion"] != "coordinated"} == {"-0.0", "0.5"}


def test_hull_violations_become_skipped_rows(tmp_path):
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["exp_sum"],
        rect=[-6.0, 6.0, 0.0, 1.0],
        param_grid={"m1": [0.5, 1.0], "q": [1.0]},
        checks=["direct", "membership"],
        variants=["proof-form"],
        output_dir=str(out),
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    bound_rows = read_rows(out / "bounds.csv")
    skipped = [r for r in bound_rows if r["verdict"] == "skipped"]
    evaluated = [r for r in bound_rows if r["verdict"] != "skipped"]
    assert skipped and all(r["m1"] == "0.5" for r in skipped)
    assert all(r["lhs"] == "" for r in skipped)
    assert evaluated and all(r["m1"] == "1.0" for r in evaluated)
    member_rows = read_rows(out / "membership.csv")
    assert any(r["verdict"] == "skipped" for r in member_rows if r["m1"] == "0.5")


def test_hull_too_large_for_a_rect_gives_skipped_rows(tmp_path):
    """At m1 = m2 = 1e-160 the evaluation hull of the unit square has an
    infinite area; it leaves the surface's domain, and every row at those m is skipped."""
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path, surfaces=["xy"], param_grid={"m1": [1e-160], "m2": [1e-160]}, output_dir=str(out)
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    for name in ("bounds.csv", "membership.csv"):
        rows = [r for r in read_rows(out / name) if r["m1"] == "1e-160"]
        assert rows and all(r["verdict"] == "skipped" for r in rows)


def test_report_rows_have_header_shape_and_sorted_order(tmp_path):
    """Every CSV row has one field per header column, the rows are sorted by
    their columns, and csv.DictWriter rewrites each file byte for byte."""
    verify_out, hunt_out = tmp_path / "verify", tmp_path / "hunt"
    verify_cfg = write_config(
        tmp_path,
        surfaces=["exp_sum"],
        rect=[-6.0, 6.0, 0.0, 1.0],
        param_grid={"m1": [0.5, 1.0], "q": [1.0]},
        checks=["identity", "chain", "direct", "membership"],
        variants=["proof-form"],
    )
    assert cli.main(["verify", "--config", str(verify_cfg), "--out", str(verify_out)]) == 0
    hunt_cfg = write_config(tmp_path, param_grid={"q": [1.0, 2.0]}, hunt={"count": 2, "degree": 3})
    assert cli.main(["hunt", "--config", str(hunt_cfg), "--out", str(hunt_out)]) == 0
    paths = sorted(verify_out.glob("*.csv")) + sorted(hunt_out.glob("*.csv"))
    assert [path.stem for path in paths] == ["bounds", "chains", "identity", "membership", "hunt"]
    for path in paths:
        header = cli.HEADERS[path.stem]
        text = path.read_text()
        header_row, *rows = csv.reader(text.splitlines())
        assert header_row == header
        assert rows and all(len(row) == len(header) for row in rows), path.name
        assert rows == sorted(rows), path.name
        rewritten = io.StringIO()
        writer = csv.DictWriter(rewritten, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(read_rows(path))
        assert rewritten.getvalue() == text, path.name
    for name in ("bounds", "membership"):
        assert any(r["verdict"] == "skipped" for r in read_rows(verify_out / f"{name}.csv"))


RECT01 = Rect(0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("command", ["verify", "hunt"])
def test_corner_magnitudes_once_per_m_pair(tmp_path, monkeypatch, command):
    calls = Counter()

    def counted(s, x, y):
        calls[s.name] += 1
        return original(s, x, y)

    original = bounds.eval_mixed_partial
    monkeypatch.setattr(bounds, "eval_mixed_partial", counted)
    grid = {"m1": [0.5, 1.0], "m2": [0.5, 1.0], "s1": [0.5, 1.0], "q": [1.0, 2.0]}
    cfgfile = write_config(
        tmp_path,
        param_grid=grid,
        checks=["classical", "direct", "holder", "power-mean"],
        output_dir=str(tmp_path / "o"),
        hunt={"count": 2, "degree": 3},
    )
    assert cli.main([command, "--config", str(cfgfile)]) == 0
    assert len(calls) == 2
    # four corners for each of the four (m1, m2) pairs, the classical bound's included
    assert all(n <= 4 * 4 for n in calls.values()), calls


def test_verify_integrates_at_most_six_times_per_surface(tmp_path, monkeypatch):
    """exp_sum: deviation_terms (3), the identity's right side (1) and the
    chain's two mid-lines (2), the chain reading its double and edge means
    from the deviation.  A polynomial surface takes its deviation from the
    exact oracle, so only the identity and the mid-lines integrate."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("integrate_1d", "integrate_2d"):
        monkeypatch.setattr(bounds, name, counting(name, getattr(bounds, name)))
    deviation_terms(corpus()["x2y2"].surface, Rect(0.0, 1.0, 0.0, 1.0))
    assert sum(calls.values()) == 0, calls
    for surface, expected in (("x2y2", 3), ("exp_sum", 6)):
        calls.clear()
        cfgfile = write_config(tmp_path, surfaces=[surface], output_dir=str(tmp_path / surface))
        assert cli.main(["verify", "--config", str(cfgfile)]) == 0
        assert sum(calls.values()) == expected, (surface, calls)


def _rigged_direct(*args):
    """bounds.bound_table, except that the direct bound is violated on every input."""
    violated = lambda variant: BoundReport(
        theorem="direct",
        variant=variant,
        lhs=1.0,
        rhs=0.0,
        slack=-1.0,
        error_budget=0.0,
        verdict="violated",
    )
    return [
        (p, [(kind, variant, violated(variant) if kind == "direct" and rep is not None else rep)
             for kind, variant, rep in rows])
        for p, rows in bounds.bound_table(*args)
    ]


def test_exit_one_when_proof_form_fails_on_member(tmp_path, monkeypatch):
    """A violated proof-form bound on a membership-passing input must flip the
    exit code to 1 (simulated by rigging the direct bound).  verify refutes
    only the hypotheses of violated proof-form rows, and lists a failure in
    the same record as a hunt finding."""
    monkeypatch.setattr(cli, "bound_table", _rigged_direct)
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["xy"],  # |d2f| = 1 passes membership at classical parameters
        param_grid={"q": [1.0, 2.0]},  # direct at q = 1 is rigged, holder at q = 2 holds
        checks=["direct", "holder"],
        output_dir=str(out),
        hunt={"count": 1, "degree": 3},
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 1
    # the as-written direct row is violated too, but its hypothesis is not refuted
    (failure,) = summary["proof_form_failures"]
    assert failure == {
        "surface": "xy", "theorem": "direct", "variant": "proof-form",
        **{key: 1.0 for key in cli.PARAM_KEYS}, "lhs": 1.0, "rhs": 0.0,
    }
    # one hypothesis report, for the q = 1 cell; the holding holder rows refute none
    assert summary["work"]["membership_reports"] == 1
    assert cli.main(["hunt", "--config", str(cfgfile), "--out", str(tmp_path / "hunt")]) == 1
    hunt = json.loads((tmp_path / "hunt" / "hunt_summary.json").read_text())
    # hunt refutes the hypothesis of every row: the q = 1 and q = 2 cells
    assert hunt["work"]["membership_reports"] == 2
    assert hunt["proof_form_failures"] and hunt["as_written_findings"]
    for finding in hunt["proof_form_failures"] + hunt["as_written_findings"]:
        assert finding.keys() == failure.keys()


def test_overflowing_power_gives_inconclusive_rows(tmp_path):
    """At q = 1e308 the corner power 4**q of x2y2 overflows: its holder and
    power-mean rows are inconclusive with a NaN right side, the run ends
    normally, and worst_slack is the least slack of the other rows."""
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["x2y2"],
        param_grid={"q": [1e308, 2.0]},
        checks=["holder", "power-mean"],
        output_dir=str(out),
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    rows = read_rows(out / "bounds.csv")
    overflowed = [r for r in rows if r["q"] == "1e+308"]
    assert len(overflowed) == 4
    assert all(r["rhs"] == "nan" and r["verdict"] == "inconclusive" for r in overflowed)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["worst_slack"] == min(float(r["slack"]) for r in rows if r["q"] == "2.0")


def test_determinism_same_seed(tmp_path):
    cfgfile = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(cfgfile), "--out", str(out2)]) == 0
    for name in ("bounds.csv", "membership.csv", "chains.csv", "identity.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_summary_work_counts(tmp_path):
    """The work block counts refuter work: deterministic, no timings."""
    cfgfile = write_config(tmp_path, hunt={"count": 2, "degree": 3})
    samples = (5 * 5 + 4) * (2 * 5 - 1) ** 2 + 500
    runs = []
    for run in ("a", "b"):
        assert cli.main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / run)]) == 0
        assert cli.main(["hunt", "--config", str(cfgfile), "--out", str(tmp_path / run)]) == 0
        summaries = ("summary.json", "hunt_summary.json")
        runs.append([json.loads((tmp_path / run / name).read_text())["work"] for name in summaries])
    assert runs[0] == runs[1]
    verify_work, hunt_work = runs[0]
    # verify: f in the first and second sense on each of two surfaces (its
    # cells do not depend on q, and def1 is the first sense at q = 1), one
    # (m1, m2) group each; no proof-form violation, so no hypothesis report
    assert verify_work == {
        "membership_reports": 4, "batched_evaluations": 10, "sample_margins": 4 * samples,
        "samples_per_report": samples,
    }
    # hunt: |d2f|^q at q = 1 (classical and direct share it) and q = 2, two
    # surfaces, each verdict clean, so scanned over all three blocks (512,
    # 1024 and the last 1313 samples) of its surface's one (m1, m2) group
    assert hunt_work == {
        "membership_reports": 4, "batched_evaluations": 2 * 3 * 5, "sample_margins": 4 * samples,
        "samples_per_report": samples,
    }


def test_out_flag_overrides_config_output_dir(tmp_path):
    target = tmp_path / "flag-out"
    cfgfile = write_config(tmp_path, output_dir=str(tmp_path / "ignored"))
    assert cli.main(["verify", "--config", str(cfgfile), "--out", str(target)]) == 0
    assert (target / "bounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_changes_membership_sampling(tmp_path):
    """--seed reaches the sampling plan unless the config sets plan.seed, and
    the plan seed moves the refuters' random samples."""
    cfgfile = write_config(tmp_path)
    plans = [cli.load_config(cfgfile, seed=seed).plan for seed in (1, 2)]
    assert [plan.seed for plan in plans] == [1, 2]
    own = write_config(tmp_path, plan={"grid_per_axis": 5, "random_trials": 500, "seed": 5})
    assert cli.load_config(own, seed=1).plan.seed == 5
    first, second = (MembershipSweep(RECT01, plan).samples for plan in plans)
    assert all(a.shape == b.shape for a, b in zip(first, second))
    assert not all(np.array_equal(a, b) for a, b in zip(first, second))


def test_hunt_requires_as_written(tmp_path, capsys):
    """The hunt-only rule is a config error, raised before anything is written."""
    out = tmp_path / "o"
    cfgfile = write_config(tmp_path, variants=["proof-form"], output_dir=str(out))
    assert cli.main(["hunt", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == "error: hunt requires the as-written variant to be enabled\n"
    assert not out.exists()


def test_hunt_classical_grid_finds_nothing(tmp_path):
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        param_grid={"q": [1.0, 2.0]},
        output_dir=str(out),
        hunt={"count": 8, "degree": 3},
    )
    assert cli.main(["hunt", "--config", str(cfgfile)]) == 0
    summary = json.loads((out / "hunt_summary.json").read_text())
    assert summary["proof_form_failures"] == []
    # as-written holder keeps a ((theta1+1)(theta2+1))^(1-1/q) factor even at
    # classical parameters and can fail there (the (x-x^2)(y-y^2) bump reaches
    # lhs/rhs 1.12 at q = 4), but at q <= 2 the bump's ratio is 0.667, and
    # these nonnegative-coefficient polynomials give nothing to find
    assert summary["as_written_findings"] == []
    rows = read_rows(out / "hunt.csv")
    assert rows and all(r["hypothesis"] in ("no-violation-found", "violated") for r in rows)


def _finding_key(entry):
    return (entry["surface"], entry["theorem"], entry["variant"], *(float(entry[k]) for k in cli.PARAM_KEYS))


def test_hunt_reports_violations_under_clean_hypothesis(tmp_path, monkeypatch):
    """A violated bound whose |d2f|^q hypothesis found no violation is a
    finding: a proof-form one fails the run, an as-written one is listed.
    At s1 = 0.5 the hypothesis is refuted, and those rows are no finding."""
    monkeypatch.setattr(cli, "bound_table", _rigged_direct)
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        param_grid={"q": [1.0], "s1": [0.5, 1.0]},
        output_dir=str(out),
        hunt={"count": 3, "degree": 3},
    )
    assert cli.main(["hunt", "--config", str(cfgfile)]) == 1
    summary = json.loads((out / "hunt_summary.json").read_text())
    assert summary["exit_code"] == 1
    rows = read_rows(out / "hunt.csv")
    flagged = [
        r for r in rows if r["verdict"] == "violated" and r["hypothesis"] == "no-violation-found"
    ]
    proof_form = sorted(_finding_key(r) for r in flagged if r["variant"] == "proof-form")
    as_written = sorted(_finding_key(r) for r in flagged if r["variant"] == "as-written")
    assert proof_form and as_written
    assert any(r["theorem"] == "direct" and r["hypothesis"] == "violated" for r in rows)
    assert {r["theorem"] for r in flagged} == {"direct"}
    assert sorted(map(_finding_key, summary["proof_form_failures"])) == proof_form
    assert sorted(map(_finding_key, summary["as_written_findings"])) == as_written
    for entry in summary["proof_form_failures"] + summary["as_written_findings"]:
        assert (entry["lhs"], entry["rhs"]) == (1.0, 0.0)


def test_hunt_without_bound_checks_sweeps_every_kind(tmp_path):
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        checks=["membership"],
        output_dir=str(out),
        hunt={"count": 1, "degree": 3},
    )
    assert cli.main(["hunt", "--config", str(cfgfile)]) == 0
    rows = read_rows(out / "hunt.csv")
    assert {r["theorem"] for r in rows} == {"classical", "direct", "holder", "power-mean"}


def test_hunt_determinism(tmp_path):
    cfgfile = write_config(tmp_path, hunt={"count": 5, "degree": 3})
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    assert cli.main(["hunt", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert cli.main(["hunt", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert (out1 / "hunt.csv").read_bytes() == (out2 / "hunt.csv").read_bytes()


def _written_verdicts(out: Path) -> set:
    """(column, word) of each verdict written under out, a column named
    ``<file>.<column>`` as in VERDICTS."""
    columns = {column for allowed in VERDICTS.values() for column in allowed}
    found = set()
    for column in columns:
        file, name = column.split(".")
        if (out / f"{file}.csv").exists():
            found |= {(column, row[name]) for row in read_rows(out / f"{file}.csv")}
    return found


def test_every_written_verdict_is_a_word_its_column_allows(tmp_path):
    """quick.json's verify, a verify whose m1 = 0.1 cells are skipped (b/m1 =
    10 leaves the corpus domain [-8, 8]^2) and a two-surface hunt write only
    table words, each in a column the table allows it."""
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    runs = {
        "quick": ("verify", quick),
        "skipped": ("verify", write_config(tmp_path, param_grid={"m1": [0.1, 1.0], "q": [1.0]})),
    }
    (tmp_path / "h").mkdir()
    runs["hunt"] = ("hunt", write_config(tmp_path / "h", param_grid={"s1": [0.5, 1.0], "q": [1.0, 2.0]},
                                         hunt={"count": 2, "degree": 3}))
    written = {}
    for key, (command, cfgfile) in runs.items():
        assert cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / key)]) == 0
        written[key] = _written_verdicts(tmp_path / key)
    allowed = {(column, word) for word, columns in VERDICTS.items() for column in columns}
    assert set().union(*written.values()) <= allowed
    assert {column for column, _ in written["quick"]} == {"bounds.verdict", "membership.verdict"}
    assert {("bounds.verdict", "skipped"), ("membership.verdict", "skipped")} <= written["skipped"]
    hypotheses = {word for column, word in written["hunt"] if column == "hunt.hypothesis"}
    assert hypotheses == {"violated", "no-violation-found"}


def test_hunt_surfaces_share_the_parameter_column_strings(tmp_path, monkeypatch):
    """Each cell's seven parameter columns are formatted once per run, not
    once per surface: the rows of two surfaces at one cell hold the very
    same str objects, so held rows grow by the report columns alone."""
    held, sweep_surface = {}, cli._sweep_surface

    def capture(name, s, cfg, sweep, files, params):
        found = sweep_surface(name, s, cfg, sweep, files, params)
        held[name] = list(files["hunt"])  # unsorted: the surface's rows in bound_table order
        return found

    monkeypatch.setattr(cli, "_sweep_surface", capture)
    cfgfile = write_config(tmp_path, output_dir=str(tmp_path / "o"), hunt={"count": 2, "degree": 3})
    assert cli.main(["hunt", "--config", str(cfgfile)]) == 0
    first, second = held["hunt-000"], held["hunt-001"]
    assert first and len(first) == len(second)
    params = slice(3, 3 + len(cli.PARAM_KEYS))
    for a, b in zip(first, second):
        assert a[params] == b[params]
        assert all(x is y for x, y in zip(a[params], b[params]))


def test_failure_on_a_later_surface_writes_no_csv(tmp_path, capsys, monkeypatch):
    """Surfaces are swept in name order, whatever the config's order, and
    their rows spooled to unnamed files: a run that fails on exp_sum after
    constant was swept writes no CSV, and leaves a previous run's reports in
    the directory as they were."""
    out = tmp_path / "o"
    cfgfile = write_config(tmp_path, output_dir=str(out))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    swept, sweep_surface = [], cli._sweep_surface

    def record(name, *rest):
        swept.append(name)
        return sweep_surface(name, *rest)

    monkeypatch.setattr(cli, "_sweep_surface", record)
    monkeypatch.setattr(quadrature, "DEFAULT_TOL", quadrature.Tolerance(rel=0.0, abs_floor=0.0, max_depth=1))
    cfgfile = write_config(tmp_path, surfaces=["exp_sum", "constant"], output_dir=str(out))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert swept == ["constant", "exp_sum"]
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_held_rows_are_bounded_by_one_surface(tmp_path, monkeypatch):
    """Each surface's rows leave memory when it ends, so the traced peak of a
    hunt of 8 surfaces exceeds that of 2 by less than the rows one surface
    holds, measured as what _sweep_surface leaves allocated.  Measured: 8
    surfaces peak 8 KB above 2, one surface's rows take 257 KB, and holding
    every row of the run made the gap 940 KB."""
    held, sweep_surface = [], cli._sweep_surface

    def measured(*args):
        gc.collect()  # empties the free lists, so only live objects stay traced
        before = tracemalloc.get_traced_memory()[0]
        found = sweep_surface(*args)
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return found

    monkeypatch.setattr(cli, "_sweep_surface", measured)
    raw = json.loads(HUNT_CONFIG.read_text())
    raw["param_grid"]["q"] = [1.0]
    raw.update(plan={"grid_per_axis": 3, "random_trials": 0}, output_dir=str(tmp_path / "o"))

    def hunt(count):
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps({**raw, "hunt": {"count": count, "degree": 3}}))
        assert cli.main(["hunt", "--config", str(cfgfile)]) == 0

    def peak(count):
        tracemalloc.start()
        try:
            hunt(count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    hunt(2)  # warm-up: first-call imports and caches
    low, high = peak(2), peak(8)
    one_surface = held[-1]  # the last: the first surface also fills the sweep's power cache
    assert one_surface > 0 and high - low < one_surface, (low, high, one_surface)


def test_non_finite_margins_print_only_the_error_line(tmp_path, capsys):
    """|d2f|^1000 overflows and a zero weight times inf is nan: the run ends
    in exit code 2 with one error line, and numpy warns of nothing on the
    way, since the refuter turns each non-finite margin into that error."""
    config = {"param_grid": {"q": [1000]}, "checks": ["holder", "power-mean"], "hunt": {"count": 1, "degree": 3}}
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(json.dumps({**config, "output_dir": str(tmp_path / "o")}))
    with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("always")
        assert cli.main(["hunt", "--config", str(cfgfile)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite value") and err.count("\n") == 1, err


def test_corpus_listing(capsys):
    """One line per registered surface: its name, formula and domain."""
    assert cli.main(["corpus"]) == 0
    wide = "domain [-8.0, 8.0] x [-8.0, 8.0]"
    assert capsys.readouterr().out.splitlines() == [
        f"xy           f = x*y          {wide}",
        f"x2y2         f = x^2*y^2      {wide}",
        f"x3y3         f = x^3*y^3      {wide}",
        f"square_sum   f = (x+y)^2      {wide}",
        f"constant     f = 1            {wide}",
        f"neg_squares  f = -x^2-y^2     {wide}",
        f"exp_sum      f = exp(x+y)     {wide}",
    ]


def test_constants_table(capsys):
    assert cli.main(["constants", "--points", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,moment"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert abs(float(first[1]) - 0.5) <= 1e-14
    assert abs(float(last[1]) - 0.25) <= 1e-14
