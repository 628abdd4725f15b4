"""The README's ``pdrwm run`` lines name configs that load, and its
walkthrough covers every scenario: a renamed config or a new scenario
fails here instead of leaving stale docs."""

import re
from pathlib import Path

from pdrwm.experiments import SCENARIOS, load_config

ROOT = Path(__file__).resolve().parent.parent
RUN_LINE = re.compile(r"pdrwm run ([^\s`]+)")


def _run_paths() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return RUN_LINE.findall(text)


def test_every_run_line_names_a_config_that_loads():
    paths = _run_paths()
    assert paths
    for path in paths:
        assert re.fullmatch(r"configs/\w+\.yaml", path), path
        load_config(ROOT / path)


def test_walkthrough_covers_every_scenario():
    shown = {load_config(ROOT / path).scenario for path in _run_paths()}
    assert set(SCENARIOS) - {"custom"} <= shown
