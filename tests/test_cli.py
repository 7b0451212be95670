import csv
import json
from pathlib import Path

import pytest

from hhverify import (
    BoundReport,
    GenParams,
    PROOF_FORM,
    Rect,
    bound_classical,
    bound_direct,
    bound_holder,
    bound_power_mean,
    corpus,
)
from hhverify import cli


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
    fns = {
        "direct": bound_direct,
        "holder": bound_holder,
        "power-mean": bound_power_mean,
    }
    rect = Rect(0.0, 1.0, 0.0, 1.0)
    for row in read_rows(out / "bounds.csv"):
        surface = registry[row["surface"]].surface
        if row["theorem"] == "classical":
            rep = bound_classical(surface, rect)
        else:
            params = GenParams(
                **{k: float(row[k]) for k in ("s1", "s2", "alpha1", "alpha2", "m1", "m2", "q")}
            )
            rep = fns[row["theorem"]](surface, rect, params, variant=row["variant"])
        assert abs(rep.lhs - float(row["lhs"])) <= 1e-12 * (1 + abs(rep.lhs))
        assert abs(rep.rhs - float(row["rhs"])) <= 1e-12 * (1 + abs(rep.rhs))


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


def _rigged_direct(s, r, p, variant=PROOF_FORM, tol=None, dev=None):
    """A direct bound that is violated on every input."""
    return BoundReport(
        theorem="direct",
        variant=variant,
        lhs=1.0,
        rhs=0.0,
        slack=-1.0,
        error_budget=0.0,
        verdict="violated",
    )


def test_exit_one_when_proof_form_fails_on_member(tmp_path, monkeypatch):
    """A violated proof-form bound on a membership-passing input must flip the
    exit code to 1 (simulated by rigging the direct bound)."""
    monkeypatch.setitem(cli._BOUND_FNS, "direct", _rigged_direct)
    out = tmp_path / "out"
    cfgfile = write_config(
        tmp_path,
        surfaces=["xy"],  # |d2f| = 1 passes membership at classical parameters
        param_grid={"q": [1.0]},
        checks=["direct"],
        variants=["proof-form"],
        output_dir=str(out),
    )
    assert cli.main(["verify", "--config", str(cfgfile)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_code"] == 1
    assert summary["proof_form_failures"]


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
    assert verify_work == {"membership_reports": 4, "batched_evaluations": 10, "samples_per_report": samples}
    # hunt: |d2f|^q at q = 1 (classical and direct share it) and q = 2, two surfaces
    assert hunt_work == {"membership_reports": 4, "batched_evaluations": 10, "samples_per_report": samples}


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
    cfgfile = write_config(tmp_path, output_dir=str(tmp_path / "ignored"))
    assert cli.main(["verify", "--config", str(cfgfile)]) == 0
    assert (target / "bounds.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_changes_membership_sampling(tmp_path):
    cfgfile = write_config(tmp_path, surfaces=["exp_sum"], checks=["membership"])
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["verify", "--config", str(cfgfile), "--out", str(out1), "--seed", "1"])
    cli.main(["verify", "--config", str(cfgfile), "--out", str(out2), "--seed", "2"])
    rows1 = read_rows(out1 / "membership.csv")
    rows2 = read_rows(out2 / "membership.csv")
    assert [r["verdict"] for r in rows1] == [r["verdict"] for r in rows2]


def test_hunt_requires_as_written(tmp_path):
    cfgfile = write_config(
        tmp_path, variants=["proof-form"], output_dir=str(tmp_path / "o")
    )
    assert cli.main(["hunt", "--config", str(cfgfile)]) == 2


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
    # at classical parameters every grouping coincides; nothing to find
    assert summary["as_written_findings"] == []
    rows = read_rows(out / "hunt.csv")
    assert rows and all(r["hypothesis"] in ("no-violation-found", "violated") for r in rows)


def _finding_key(entry):
    return (entry["surface"], entry["theorem"], entry["variant"], *(float(entry[k]) for k in cli.PARAM_KEYS))


def test_hunt_reports_violations_under_clean_hypothesis(tmp_path, monkeypatch):
    """A violated bound whose |d2f|^q hypothesis found no violation is a
    finding: a proof-form one fails the run, an as-written one is listed.
    At s1 = 0.5 the hypothesis is refuted, and those rows are no finding."""
    monkeypatch.setitem(cli._BOUND_FNS, "direct", _rigged_direct)
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


def test_corpus_listing(capsys):
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out
    for name in corpus():
        assert name in out


def test_constants_table(capsys):
    assert cli.main(["constants", "--points", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,moment"
    assert len(lines) == 6
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert abs(float(first[1]) - 0.5) <= 1e-14
    assert abs(float(last[1]) - 0.25) <= 1e-14
