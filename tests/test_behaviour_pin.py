"""Behaviour pin: the sha256 of every artifact of one small pipeline run.

The config is criterion 8's. A refactor that claims to keep behaviour
must keep every hash. The hashes hold for the numpy version and BLAS
library recorded with them; float results may legitimately differ
under others, so the test skips there instead of failing.

Re-record (only for a deliberate, documented change of output) with

    PYTHONPATH=src python tests/test_behaviour_pin.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fiscalforge.cli import main

from conftest import DATA_DIR, FIXTURE_CSV

PIN_PATH = DATA_DIR / "behaviour_pin.json"

CONFIG = {
    "data": {"path": str(FIXTURE_CSV), "train_fraction": 0.8},
    "environment": {},
    "td3": {"total_timesteps": 800, "warmup_steps": 150},
    "ga": {"generations": 3, "population_size": 4},
    "seed": 60,
}


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _run_hashes(tmp_path: Path) -> dict[str, str]:
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_artifacts_match_pin(tmp_path):
    pin = json.loads(PIN_PATH.read_text())
    if (np.__version__, _blas()) != (pin["numpy"], pin["blas"]):
        pytest.skip(
            f"pin recorded with numpy {pin['numpy']} and {pin['blas']}; "
            f"this is numpy {np.__version__} with {_blas()}"
        )
    got = _run_hashes(tmp_path)
    assert sorted(got) == sorted(pin["sha256"])
    differ = sorted(name for name in got if got[name] != pin["sha256"][name])
    assert not differ, f"artifacts changed: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = _run_hashes(Path(tmp))
    doc = {"numpy": np.__version__, "blas": _blas(), "sha256": hashes}
    PIN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}", file=sys.stderr)
