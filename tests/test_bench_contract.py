"""The benchmark harness in perfbench/ against the package it measures.

perfbench wraps package functions by name, indexes their positional
arguments, and times the CLI's stage commands by replacing them in the
cli module. A refactor that renames one of those, or stops calling the
stages through the module namespace, breaks the benchmark without
failing any other test; these tests catch it.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import fiscalforge

from conftest import FIXTURE_CSV, REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"
STAGES = ("train", "refine", "evaluate")

TINY_CONFIG = {
    "data": {"path": str(FIXTURE_CSV), "train_fraction": 0.8},
    "td3": {"total_timesteps": 150, "warmup_steps": 100, "batch_size": 16},
    "ga": {"generations": 2, "population_size": 3},
    "seed": 7,
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def _run_child(tmp_path, *args):
    """perfbench/child.py in a fresh process, as perfbench/run.py starts it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def _traced_names():
    tracer = _load("tracer")
    return [f"{layer}.{qualname}" for table in (tracer.SPANNED, tracer.PROBED)
            for layer, names in table.items() for qualname in names]


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    layer, *path = name.split(".")
    owner = importlib.import_module(f"fiscalforge.{layer}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(fiscalforge.__path__)])
def test_exported_names_resolve(module):
    """Every __all__ entry exists, so `from fiscalforge.<module> import *` works."""
    owner = importlib.import_module(f"fiscalforge.{module}")
    missing = [name for name in getattr(owner, "__all__", ()) if not hasattr(owner, name)]
    assert not missing


def test_child_pipeline_times_every_stage(tmp_path, monkeypatch):
    from fiscalforge import cli

    for name in STAGES:  # the child replaces these; monkeypatch restores them
        monkeypatch.setattr(cli, f"cmd_{name}", getattr(cli, f"cmd_{name}"))
    result = _load("child").pipeline(str(_tiny_config(tmp_path)), str(tmp_path / "out"),
                                     None, None)
    assert result["rc"] == 0
    for name in STAGES:
        assert result[f"{name}_s"] > 0.0


def test_child_setup_reports_setup_s(tmp_path):
    """The setup_s metric's code path: config, CSV parse and env build in a fresh process."""
    proc = _run_child(tmp_path, "setup", str(_tiny_config(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0.0


def test_traced_child_run_counts(tmp_path):
    """A traced run in a fresh process: the hooks' argument indexing still holds."""
    spans = tmp_path / "spans.jsonl"
    proc = _run_child(tmp_path, "pipeline", str(_tiny_config(tmp_path)), str(tmp_path / "out"),
                      str(spans), "contract")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    counts = result["counts"]
    assert counts["neural_core.checkpoint.loads"] == 2
    assert counts["neural_core.forward_batch.calls"] > 0
    assert counts["data_ingest.rows_parsed"] > 0
    # One CSV parse and one env per split, however many stages read them.
    assert counts["data_ingest.load_series.calls"] == 1
    assert counts["environment.build.calls"] == 2
    # Training, the GA and held-out evaluation all score from the env
    # tables, so nothing steps the env. evaluate_fitness scores a stack
    # of genomes: once per generation in evolve (the first population
    # whole, then every row but the carried best), plus one two-row call
    # for the summary's pre- and post-refinement fitness. Only training
    # calls forward_actor, once per step past warmup for its exploration
    # action.
    assert counts["quantum_ga.evaluate_fitness.calls"] == TINY_CONFIG["ga"]["generations"] + 1
    td3 = TINY_CONFIG["td3"]
    assert counts["environment.step.calls"] == 0
    assert counts["neural_core.forward_actor.calls"] == (
        td3["total_timesteps"] - td3["warmup_steps"]
    )
    # One pass per network per update, the twin critics as one stacked
    # pass: target actor, target critics and the online critics on every
    # update, plus the actor and critic 1 on every second one.
    assert counts["td3_trainer.forward_passes_per_update"] == 4.0
    assert spans.read_text().count("\n") == counts["trace.spans"]
