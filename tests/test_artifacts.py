"""The six configs the benchmark's scenario runs gate, checked here first.

Each config runs with ``PDRWM_OUTPUT_DIR`` set to a temporary directory;
the sha256 of every CSV it writes and its ``(name, passed)`` check list
must equal the ones recorded in ``perfbench/reference.json``.  A change
that moves a byte of these artifacts fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pdrwm.experiments import OUTPUT_DIR_ENV, load_config, run_scenario

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())[
    "scenario-runs"
]["any"]


@pytest.mark.parametrize("scenario", sorted(REFERENCE))
def test_artifacts_match_reference(scenario, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    result = run_scenario(load_config(ROOT / "configs" / f"{scenario}.yaml"))
    digests = {
        Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
        for f in result.files
    }
    assert all(Path(f).parent == tmp_path / scenario for f in result.files)
    assert digests == REFERENCE[scenario]["csv_sha256"]
    assert [[c.name, c.passed] for c in result.checks] == REFERENCE[scenario]["checks"]
