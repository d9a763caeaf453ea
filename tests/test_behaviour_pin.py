"""Behaviour pin: the sha256 of every artifact of one small pipeline run.

The config is criterion 8's. A refactor that claims to keep behaviour
must keep every hash. The hashes hold for the numpy version and BLAS
library recorded with them; float results may legitimately differ
under others, so the test skips there instead of failing.

Beside the hashes the pin keeps every number in summary.json, in
metrics.json and in the last 3 history.jsonl rows. Print what a change
moves with

    PYTHONPATH=src python tests/test_behaviour_pin.py --diff

which runs the config and lists the changed hashes, then each pinned
number's old value, new value and relative delta.

The re-pin rule: a last-ulp-class change (a regrouped sum, another BLAS
call shape) moves no pinned number by more than 1e-9 relative. Anything
larger is a behaviour change and needs its own motivation. A deliberate
change of output re-records the pin, with the --diff table in
CHANGES.md, by

    PYTHONPATH=src python tests/test_behaviour_pin.py
"""

import contextlib
import hashlib
import io
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
HISTORY_ROWS = 3
ULP_CLASS = 1e-9  # the largest relative move of a pinned number that keeps behaviour


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def _flatten(value, key: str, into: dict) -> None:
    """Every number in a parsed JSON value, by its path below key."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}/{k}", into)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", into)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        into[key] = value


def _run(tmp_path: Path) -> tuple[dict[str, str], dict[str, float]]:
    """(sha256 of every artifact, every pinned number) of one pipeline run."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", "--config", str(config_path), "--out", str(out)]) == 0
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.iterdir())}
    numbers: dict[str, float] = {}
    for name in ("metrics.json", "summary.json"):
        _flatten(json.loads((out / name).read_text(encoding="utf-8")), name, numbers)
    rows = (out / "history.jsonl").read_text(encoding="utf-8").splitlines()[-HISTORY_ROWS:]
    for i, line in enumerate(rows, start=-len(rows)):
        _flatten(json.loads(line), f"history.jsonl[{i}]", numbers)
    return hashes, numbers


def _relative_delta(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def diff_report(pin: dict, hashes: dict[str, str], numbers: dict[str, float]) -> list[str]:
    """The changed hashes, then every pinned number as old, new and relative delta."""
    changed = sorted(n for n in hashes.keys() | pin["sha256"].keys()
                     if hashes.get(n) != pin["sha256"].get(n))
    lines = [f"changed hashes ({len(changed)}): {', '.join(changed) or 'none'}"]
    width = max(map(len, numbers.keys() | pin["numbers"].keys()))
    lines.append(f"{'number':<{width}}  {'old':>24}  {'new':>24}  relative delta")
    for key in sorted(numbers.keys() | pin["numbers"].keys()):
        old, new = pin["numbers"].get(key), numbers.get(key)
        delta = "missing" if None in (old, new) else f"{_relative_delta(old, new):.3g}"
        lines.append(f"{key:<{width}}  {old!r:>24}  {new!r:>24}  {delta}")
    return lines


def beyond_ulp_class(pin: dict, numbers: dict[str, float]) -> list[str]:
    """Pinned numbers that moved by more than the rule allows, or appeared or went."""
    keys = numbers.keys() | pin["numbers"].keys()
    return sorted(k for k in keys if k not in numbers or k not in pin["numbers"]
                  or _relative_delta(pin["numbers"][k], numbers[k]) > ULP_CLASS)


def test_artifacts_match_pin(tmp_path):
    pin = json.loads(PIN_PATH.read_text())
    if (np.__version__, _blas()) != (pin["numpy"], pin["blas"]):
        pytest.skip(
            f"pin recorded with numpy {pin['numpy']} and {pin['blas']}; "
            f"this is numpy {np.__version__} with {_blas()}"
        )
    hashes, numbers = _run(tmp_path)
    assert sorted(hashes) == sorted(pin["sha256"])
    differ = sorted(name for name in hashes if hashes[name] != pin["sha256"][name])
    report = "\n".join(diff_report(pin, hashes, numbers))
    assert not differ, f"artifacts changed: {differ}\n{report}"
    assert numbers == pin["numbers"], report


def test_diff_report_flags_moves_beyond_the_rule():
    pin = {"sha256": {"a": "1", "b": "2"},
           "numbers": {"x": 1.0, "y": -2.0, "z": 0.0, "gone": 3.0}}
    numbers = {"x": 1.0 + 1e-12, "y": -2.2, "z": 0.0, "new": 1}
    lines = diff_report(pin, {"a": "1", "b": "3"}, numbers)
    assert lines[0] == "changed hashes (1): b"
    assert [line.split()[-1] for line in lines[2:]] == [
        "missing", "missing", "1e-12", "0.1", "0"]
    assert beyond_ulp_class(pin, numbers) == ["gone", "new", "y"]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    with tempfile.TemporaryDirectory() as tmp:
        hashes, numbers = _run(Path(tmp))
    if sys.argv[1:] == ["--diff"]:
        pin = json.loads(PIN_PATH.read_text())
        print("\n".join(diff_report(pin, hashes, numbers)))
        moved = beyond_ulp_class(pin, numbers)
        print(f"numbers beyond {ULP_CLASS:g} relative: {', '.join(moved) or 'none'}")
        sys.exit(1 if moved else 0)
    doc = {"numpy": np.__version__, "blas": _blas(), "sha256": hashes, "numbers": numbers}
    PIN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}", file=sys.stderr)
