"""Shipped configs whose CSV bytes are gated, checked here first.

Each config runs with ``PDRWM_OUTPUT_DIR`` set to a temporary directory;
the sha256 of every CSV it writes and its ``(name, passed)`` check list
must equal the recorded ones.  A change that moves a byte of these
artifacts fails here.  The six configs the benchmark's scenario runs
gate are recorded in ``perfbench/reference.json``.  The three probe
configs are recorded below: ``lemma2_drift`` and ``lemma4_probe`` run
their Monte Carlo probes at n = 20 000 and ``lemma3_drift`` at
n = 100 000, across the probes' row-chunk edges.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pdrwm.experiments import OUTPUT_DIR_ENV, load_config, run_scenario

ROOT = Path(__file__).resolve().parent.parent
PROBE_REFERENCE = {
    "lemma2_drift": {
        "csv_sha256": {
            "lemma2_drift.csv":
                "b51f7d6c7f1fc85cae8c51558df0fb774b363ce3742ee5eae6ec5ecb7d343c3e",
        },
        "checks": [["contractive_at_all_probes", True], ["quadrature_within_2pct", True]],
    },
    "lemma3_drift": {
        "csv_sha256": {
            "lemma3_drift.csv":
                "95a56d97d30863073416145c148be58bebbddca2305790be321894567df8caa5",
        },
        "checks": [
            ["small_h_contractive", True],
            ["large_h_contractive", True],
            ["large_h_quadrature_within_2pct", True],
        ],
    },
    "lemma4_probe": {
        "csv_sha256": {
            "lemma4_probe.csv":
                "71576b7554aa41249e604a71dd77377037e9ae20a26917cbea5176c20facaa7a",
        },
        "checks": [["mass_strictly_decreasing", True], ["mass_small_at_far_point", True]],
    },
}
REFERENCE = {
    **json.loads((ROOT / "perfbench" / "reference.json").read_text())["scenario-runs"]["any"],
    **PROBE_REFERENCE,
}


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
