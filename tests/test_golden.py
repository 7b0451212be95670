"""Golden digests of the CLI's reports.

The sha256 of each CSV that ``verify --config configs/quick.json`` writes,
and of ``hunt.csv`` from ``configs/hunt.json`` cut to two surfaces, and the
two runs' JSON summaries without ``wall_time_s``, compared as canonical
JSON text.  The reports are deterministic for a config and seed (README
§Reports), so a digest or a summary moves only when the output does.  Any
deliberate output change updates it here and is listed, with the rows it
changes, in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from hhverify import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

QUICK = {
    "bounds.csv": "b6ca331a3ff814448ecfde288ea7931e6ddde5ba9cdc9a5d70f3753ee5ae2c8a",
    "chains.csv": "3545b147313a3407add33f24008693d2a2f567ce9fcded2206d3dc8cd0f89347",
    "identity.csv": "3ba1a81449efd6a3ca54ef886d9cfb2337bd9a7f58b78f7efaa72ca5d31b7618",
    "membership.csv": "0f5f7b75412d368b69344ad550d8958198468d3519b56fdcfccf1d3ae1ce0049",
}
HUNT_TWO_SURFACES = "87a9ae52e3bad4efe18acad6e5adaed35180435f50ee2a7dbbdb03de5ddb4467"
QUICK_SUMMARY = {
    "counts": {
        "bounds": {"holds": 903},
        "chains": {"monotone": 6, "non-monotone": 1},
        "identity": {"out-of-budget": 0, "within-budget": 7},
        "membership": {"no-violation-found": 182, "violated": 273},
    },
    "exit_code": 0,
    "proof_form_failures": [],
    "rows": 1372,
    "work": {
        "batched_evaluations": 70, "membership_reports": 224, "sample_margins": 7742560,
        "samples_per_report": 34565,
    },
    "worst_slack": 0.0,
}
HUNT_TWO_SURFACES_SUMMARY = {
    "as_written_findings": [],
    "degree": 5,
    "exit_code": 0,
    "proof_form_failures": [],
    "rows": 3456,
    "surfaces_generated": 2,
    "work": {
        "batched_evaluations": 76, "membership_reports": 864, "sample_margins": 875267,
        "samples_per_report": 12957,
    },
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical(summary: dict) -> str:
    """``summary`` as canonical JSON text.  Text, unlike dict equality, tells
    -0.0 from 0.0 and 1.0 from 1."""
    return json.dumps(summary, sort_keys=True)


def _summary(path: Path) -> str:
    """The summary at ``path`` without its one non-deterministic key, as canonical text."""
    summary = json.loads(path.read_text())
    del summary["wall_time_s"]
    return _canonical(summary)


def test_quick_verify_digests(tmp_path):
    assert cli.main(["verify", "--config", str(CONFIGS / "quick.json"), "--out", str(tmp_path)]) == 0
    assert {path.name: _digest(path) for path in sorted(tmp_path.glob("*.csv"))} == QUICK
    assert _summary(tmp_path / "summary.json") == _canonical(QUICK_SUMMARY)


def test_two_surface_hunt_digest(tmp_path):
    raw = json.loads((CONFIGS / "hunt.json").read_text())
    raw["hunt"]["count"] = 2
    config = tmp_path / "hunt.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["hunt", "--config", str(config), "--out", str(out)]) == 0
    assert [path.name for path in out.glob("*.csv")] == ["hunt.csv"]
    assert _digest(out / "hunt.csv") == HUNT_TWO_SURFACES
    assert _summary(out / "hunt_summary.json") == _canonical(HUNT_TWO_SURFACES_SUMMARY)
