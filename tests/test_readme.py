"""README.md's code runs as written, and its check table and memory model are the program's."""

import re
from pathlib import Path

from mml.experiments import (
    _BASE_BYTES, _CHECKS, _REBALANCED_ROW_BYTES, _ROW_BYTES, _THREAD_BYTES, _TRIAL_BODIES,
    ExperimentKind, load_config,
)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    for number, code in enumerate(blocks, start=1):
        exec(compile(code, f"README.md python block {number}", "exec"), {"__name__": "readme"})


def test_readme_check_table_names_the_checks_of_each_experiment():
    text = README.read_text(encoding="utf-8")
    table = text.split("| experiment | checks | tolerances |\n|---|---|---|\n", 1)[1]
    rows = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        experiment, checks = line.strip("| ").split(" | ")[:2]
        rows[experiment.strip("`")] = re.findall(r"`([^`]+)`", checks)
    expected = {}
    for experiment, name, *_ in _CHECKS:
        expected.setdefault(experiment.value, []).append(name)
    assert rows == expected


def test_each_experiment_kind_has_a_trial_body_and_a_shipped_config():
    shipped = {load_config(path).experiment for path in (ROOT / "configs").glob("*.cfg")}
    assert set(_TRIAL_BODIES) == set(ExperimentKind) == shipped


def test_readme_memory_model_quotes_its_constants():
    text = README.read_text(encoding="utf-8")
    model = text.split("of one process from its config and its number of row-block threads:")[1]
    bullets = " ".join(model.split("\n\nIt is an upper bound")[0].split())
    units = {"KiB": 2**10, "MiB": 2**20}
    for constant, pattern in [
        (_BASE_BYTES, r"^- ([\d.]+) (MiB) for the interpreter"),
        (_THREAD_BYTES, r"plus ([\d.]+) (MiB) for each further thread"),
        (_ROW_BYTES, r"- ([\d.]+) (KiB) per row for every trial"),
        (_REBALANCED_ROW_BYTES, r"any but the uniform one\), ([\d.]+) (KiB) per row more"),
    ]:
        value, unit = re.search(pattern, bullets).groups()
        assert float(value) * units[unit] == constant, pattern
