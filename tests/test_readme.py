"""The README's library example runs as printed, its config schema is
cli.SCHEMA's, its verdict list is verdicts.VERDICTS, and the package names
it cites exist."""

import contextlib
import dataclasses
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import hhverify
from hhverify import cli
from hhverify.convexity import SamplingPlan
from hhverify.verdicts import VERDICTS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    deviation, holder = out.getvalue().splitlines()
    assert abs(float(deviation) - 1.0 / 36.0) <= 1e-12
    rhs, verdict = holder.split()
    assert abs(float(rhs) - 1.0 / 6.0) <= 1e-12
    assert verdict == "holds"


def _key_tree(schema: dict) -> dict:
    """key -> the key tree of its nested object, or None, at every level of a schema table."""
    return {key: _key_tree(rule) if isinstance(rule, dict) else None for key, (rule, _) in schema.items()}


def _block_tree(block: dict) -> dict:
    return {key: _block_tree(value) if isinstance(value, dict) else None for key, value in block.items()}


def test_config_schema_block_matches_the_table():
    text = README.read_text()
    section = text[text.index("### Config schema"):]
    jsonc = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    block = json.loads(re.sub(r"//.*", "", jsonc))
    assert _block_tree(block) == _key_tree(cli.SCHEMA)
    assert block["plan"] == dataclasses.asdict(SamplingPlan())
    hunt_rules = cli.SCHEMA["hunt"][0]
    assert block["hunt"] == {key: default for key, (_, default) in hunt_rules.items()}


def test_verdict_list_matches_the_table():
    """§Reports lists each verdict word once, with the columns it may fill,
    in the order of verdicts.VERDICTS."""
    text = README.read_text()
    section = text[text.index("#### Verdicts"):text.index("## Library use")]
    listed = re.findall(r"^\* `([a-z-]+)` - ([a-z.,\s]+?):", section, re.M)
    assert [(word, tuple(c.strip() for c in cols.split(","))) for word, cols in listed] == list(VERDICTS.items())


def test_cited_module_names_resolve():
    """Every backticked `module.Name` whose module is an hhverify module,
    such as `convexity.BLOCK`, names an attribute of that module; a report
    file such as `bounds.csv` is not a name."""
    modules = {m.name for m in pkgutil.iter_modules(hhverify.__path__)}
    cited = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
        if module in modules and name not in ("csv", "json")
    ]
    assert len(cited) >= 10
    missing = [(m, name) for m, name in cited if not hasattr(importlib.import_module(f"hhverify.{m}"), name)]
    assert missing == []
