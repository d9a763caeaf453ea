"""Portable numeric pin: one stored actor checkpoint and the numbers it gives.

The byte pin (test_behaviour_pin.py) holds only under the numpy and BLAS
it was recorded with. This pin holds under any: it feeds a stored actor
checkpoint through the greedy-action and reward paths and compares the
numbers they give with the recorded ones at 1e-12 relative, which a
last-ulp difference between BLAS libraries stays inside. It never skips.

The pinned numbers are the fixture's training-split env tables, the GA
fitness of a stack of the checkpoint's genome and two perturbed copies,
each generation's fitnesses, best, mutation count and offset histogram
of a fixed 3-generation GA run from the checkpoint, and the `evaluate`
command's metrics.json, pairs.csv predictions and trace.jsonl actions,
beliefs and reward terms on the test split. Re-record them, after a
deliberate change of output, with

    PYTHONPATH=src python tests/test_numeric_pin.py

which keeps the stored checkpoint, or trains a short run to make one
when there is none.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from fiscalforge.cli import ACTOR_CKPT, load_run_config, main
from fiscalforge.neural_core import ActorPolicy, load_checkpoint, save_checkpoint
from fiscalforge.quantum_ga import GaConfig, evaluate_fitness, evolve
from fiscalforge.td3_trainer import TD3Config, train

from conftest import DATA_DIR, FIXTURE_CSV

CHECKPOINT = DATA_DIR / "numeric_pin_actor.ckpt"
PIN_PATH = DATA_DIR / "numeric_pin.json"
RTOL = 1e-12

CONFIG = {"data": {"path": str(FIXTURE_CSV), "train_fraction": 0.8}}
GA = GaConfig(generations=3, population_size=6, seed=29)


def _config(tmp_path: Path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG | {"output_dir": str(tmp_path / "run")}))
    return path


def _genomes(genome: np.ndarray) -> np.ndarray:
    """The genome, a scaled copy and a copy with a cosine pattern added to every gene."""
    return np.stack([genome, 0.9 * genome, genome + 0.05 * np.cos(np.arange(genome.size))])


def _train_tables(tmp_path: Path) -> dict:
    env = load_run_config(_config(tmp_path)).train_env
    uniform = np.full(env.empirical.shape, 0.5)
    return {
        "states": env.states.tolist(),
        "empirical": env.empirical.tolist(),
        "alphas": env.alphas.tolist(),
        "belief_terms": env.episode_rewards(uniform)[1].belief_term.tolist(),
    }


def _fitness(tmp_path: Path) -> list[float]:
    env = load_run_config(_config(tmp_path)).train_env
    spec, genome = load_checkpoint(CHECKPOINT)
    return evaluate_fitness(_genomes(genome), spec, env).tolist()


def _ga_run(tmp_path: Path) -> list[dict]:
    """Each generation's numbers from a fixed GA run from the checkpoint."""
    env = load_run_config(_config(tmp_path)).train_env
    _, logs = evolve(ActorPolicy(*load_checkpoint(CHECKPOINT)), env, GA)
    return [{"fitnesses": list(g.fitnesses), "best": g.best, "n_mutations": g.n_mutations,
             "histogram": list(g.histogram)} for g in logs]


def _evaluate(tmp_path: Path) -> dict:
    """The numbers of `evaluate` on the checkpoint: metrics.json, the pairs.csv
    predictions, and the trace.jsonl actions, beliefs and reward terms."""
    out = tmp_path / "run"
    out.mkdir()
    shutil.copyfile(CHECKPOINT, out / ACTOR_CKPT)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evaluate", "--config", str(_config(tmp_path))]) == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    records = [json.loads(line)
               for line in (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
    terms = [r["reward_terms"] for r in records]
    pairs = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()[1:]
    return {"metrics": metrics,
            "reward_terms": {key: [t[key] for t in terms] for key in terms[0]},
            "predictions": [[float(c) for c in line.split(",")[1:3]] for line in pairs],
            "actions": [r["action"] for r in records],
            "alphas": [r["alpha"] for r in records]}


def _assert_close(got, expected, where: str) -> None:
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), where
        for key in expected:
            _assert_close(got[key], expected[key], f"{where}/{key}")
    else:
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0, err_msg=where)


def _pin() -> dict:
    return json.loads(PIN_PATH.read_text(encoding="utf-8"))


def test_train_tables_match_pin(tmp_path):
    _assert_close(_train_tables(tmp_path), _pin()["train_tables"], "train_tables")


def test_fitness_of_a_genome_stack_matches_pin(tmp_path):
    _assert_close(_fitness(tmp_path), _pin()["fitness"], "fitness")


def test_ga_run_matches_pin(tmp_path):
    got, expected = _ga_run(tmp_path), _pin()["ga_run"]
    assert len(got) == len(expected) == GA.generations
    for generation, (g, e) in enumerate(zip(got, expected)):
        _assert_close(g, e, f"ga_run/{generation}")


def test_evaluate_artifacts_match_pin(tmp_path):
    _assert_close(_evaluate(tmp_path), _pin()["evaluate"], "evaluate")


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if not CHECKPOINT.exists():
            env = load_run_config(_config(tmp)).train_env
            policy = train(env, TD3Config(total_timesteps=800, warmup_steps=150, seed=62))
            save_checkpoint(CHECKPOINT, policy.spec, policy.params)
        doc = {"train_tables": _train_tables(tmp), "fitness": _fitness(tmp),
               "ga_run": _ga_run(tmp), "evaluate": _evaluate(tmp)}
    PIN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}", file=sys.stderr)
