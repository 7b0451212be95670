"""Fuzz the exit contract of ``cli.main`` with configs drawn from ``cli.SCHEMA``.

The keys, the nesting, the lists, the allowed values and the whole-number
bounds of a draw come from the table.  ``VALID`` gives the values a run
accepts where the table leaves the range to ``Rect``, ``GenParams`` and
``SamplingPlan``, kept small so that one run takes well under a second.  Half
the draws then replace one field by an ``EDGE`` value of that field or a
``WILD`` JSON value, or add an unknown key.  Each draw runs in-process under
its own wall-clock cap, and must keep the contract of README §CLI:

* the exit code is 0, 1 or 2, and no exception escapes;
* exit 2 comes with exactly one ``error:`` line, and no CSV is written;
* exit 1 comes with a non-empty ``proof_form_failures``;
* every CSV written has its header and parses.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import cli
from hhverify.convexity import MAX_SAMPLES
from hhverify.surfaces import corpus
from support import time_limit

DRAW_SECONDS = 5  # a draw that runs longer counts as a hang

_UNIT = st.sampled_from([5e-324, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)  # (0, 1]
_CORNER = st.sampled_from([0.0, -8.0, 5e-324, 1e-300, 1e12, -1e12]) | st.floats(-8.0, 7.0)
_SIZE = st.sampled_from([5e-324, 1e-12, 1.0, 1e6]) | st.floats(1e-3, 4.0)

# Valid values of the number and string fields, by dotted path; for a list
# field, of its entries.
VALID = {
    "surfaces": st.sampled_from(["all", *corpus()]),
    "rect": st.tuples(_CORNER, _SIZE, _CORNER, _SIZE).map(lambda t: [t[0], t[0] + t[1], t[2], t[2] + t[3]]),
    "param_grid.s1": _UNIT,
    "param_grid.s2": _UNIT,
    "param_grid.alpha1": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    "param_grid.alpha2": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    "param_grid.m1": st.sampled_from([1e-3, 0.5, 1.0]) | st.floats(0.25, 1.0),
    "param_grid.m2": st.sampled_from([1e-3, 0.5, 1.0]) | st.floats(0.25, 1.0),
    "param_grid.q": st.sampled_from([1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 2.0, 1000.0])
    | st.floats(1.0, 1000.0),
    "plan.grid_per_axis": st.integers(2, 3),
    "plan.random_trials": st.integers(0, 64),
    "plan.seed": st.integers(0, 2**64),
    "plan.tolerance": st.sampled_from([0.0, 1e-9, 1.0]),
    "output_dir": st.text(max_size=8),  # every run is given --out
    "seed": st.integers(0, 2**64),
    "hunt.count": st.integers(0, 2),
}
# Keys a draw always sets: the plan's size and the number of hunt surfaces
# keep a run small.
REQUIRED = {"plan", "plan.grid_per_axis", "plan.random_trials", "hunt", "hunt.count"}

# Values that replace a whole field in a mutated draw.  A plan near
# MAX_SAMPLES is drawn only above it, where it is rejected before any sampling.
EDGE = {
    "rect": st.sampled_from([[0.0, 5e-324, 0.0, 1.0], [1e300, 1.5e300, 0.0, 1.0], [0.0, 1e-300, 0.0, 1e-300]]),
    "param_grid.q": st.sampled_from([[1000.0], [1.0, 1000.0], [math.nextafter(1.0, 0.0)], [1e308]]),
    "plan.grid_per_axis": st.sampled_from([23, 10**9]),
    "plan.random_trials": st.sampled_from([MAX_SAMPLES, 10**12]),
    "hunt.degree": st.sampled_from([cli.MAX_HUNT_DEGREE, cli.MAX_HUNT_DEGREE + 1]),
}
WILD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([10**400, -(10**30)]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3) | st.floats(0.0, 2.0) | st.text(max_size=2), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _paths(schema: dict, path: str = "") -> list:
    """(dotted path, rule) of every key of a schema table, at every level."""
    found = []
    for key, (rule, _) in schema.items():
        found.append((_join(path, key), rule))
        if isinstance(rule, dict):
            found += _paths(rule, _join(path, key))
    return found


def valid(rule, path: str = ""):
    """A strategy for values of ``rule`` at ``path`` that the table accepts."""
    if isinstance(rule, dict):
        keys = {key: (_join(path, key), sub) for key, (sub, _) in rule.items()}
        required = {key: valid(sub, p) for key, (p, sub) in keys.items() if p in REQUIRED}
        optional = {key: valid(sub, p) for key, (p, sub) in keys.items() if p not in REQUIRED}
        return st.fixed_dictionaries(required, optional=optional)
    if isinstance(rule, list) and len(rule) == 1:
        entries = VALID[path] if path in VALID else valid(rule[0], path)
        return st.lists(entries, min_size=1, max_size=3, unique=True)
    if path in VALID:
        return VALID[path]
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    if isinstance(rule, slice) and rule.stop is not None:
        return st.just(rule.stop) | st.integers(rule.start, rule.stop)
    raise AssertionError(f"no valid values for {path}: add them to VALID")


PATHS = _paths(cli.SCHEMA)
UNKNOWN_KEYS = ["unknown"] + [f"{path}.unknown" for path, rule in PATHS if isinstance(rule, dict)]


@st.composite
def runs(draw):
    """(command, config): a valid config, or one with one field replaced."""
    command = draw(st.sampled_from(["verify", "hunt"]))
    config = draw(valid(cli.SCHEMA))
    if draw(st.booleans()):
        path = draw(st.sampled_from([p for p, _ in PATHS] + UNKNOWN_KEYS))
        value = draw(EDGE[path] | WILD if path in EDGE else WILD)
        *parents, key = path.split(".")
        node = config
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
    return command, config


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(runs())
def test_exit_contract(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfgfile.write_text(json.dumps(config))
        err = io.StringIO()
        with time_limit(DRAW_SECONDS), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main([command, "--config", str(cfgfile), "--out", str(out)])
        assert code in (0, 1, 2)
        written = sorted(out.glob("*.csv"))
        if code == 2:
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) == 1, err.getvalue()
            assert written == []
            return
        summary_name = "summary.json" if command == "verify" else "hunt_summary.json"
        summary = json.loads((out / summary_name).read_text())
        assert summary["exit_code"] == code
        if code == 1:
            assert summary["proof_form_failures"]
        for path in written:
            header, *rows = csv.reader(path.read_text().splitlines())
            assert header == cli.HEADERS[path.stem]
            assert all(len(row) == len(header) for row in rows), path.name
