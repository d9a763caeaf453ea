"""Command-line contract: exit codes, artifacts, determinism."""

import copy
import errno
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fiscalforge
from fiscalforge import cli, errors
from fiscalforge.cli import load_run_config, main
from fiscalforge.errors import ConfigError
from fiscalforge.neural_core import MlpSpec, init_params, save_checkpoint
from fiscalforge.quantum_ga import PERTURBATION_BINS
from fiscalforge.td3_trainer import ACTOR_SPEC, STATE_DIM

from conftest import FIXTURE_CSV

SMALL_CONFIG = {
    "data": {"path": str(FIXTURE_CSV), "train_fraction": 0.8},
    "environment": {"lambda1": 0.1, "lambda2": 0.01, "confidence": 1.0,
                    "prior": [5.0, 3.0]},
    "td3": {"total_timesteps": 600, "warmup_steps": 100},
    "ga": {"generations": 2, "population_size": 4},
    "seed": 7,
}

TRAIN_FILES = {
    "actor.ckpt", "actor.json", "critic1.ckpt", "critic2.ckpt",
    "actor_target.ckpt", "critic1_target.ckpt", "critic2_target.ckpt",
    "history.jsonl",
}
REFINE_FILES = {"refined_actor.ckpt", "generations.jsonl", "perturbations.csv"}


def _mutated_csv(directory, cells):
    """The fixture CSV with (data row, column, text) cells replaced."""
    lines = FIXTURE_CSV.read_text().splitlines()
    for row, col, text in cells:
        parts = lines[row + 1].split(",")
        parts[col] = text
        lines[row + 1] = ",".join(parts)
    path = Path(directory) / "quarters.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_config(tmp_path, overrides=None, out_name="out"):
    doc = json.loads(json.dumps(SMALL_CONFIG))
    doc["output_dir"] = str(tmp_path / out_name)
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def _run_process(command, config, env_extra=None, args=()):
    """`python -m fiscalforge.cli COMMAND --config CONFIG [ARGS]` in a fresh process,
    with Python's default warning filters and log level."""
    env = {k: v for k, v in os.environ.items() if k not in ("FISCALFORGE_LOG", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(Path(fiscalforge.__file__).resolve().parents[1])
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "fiscalforge.cli", command, "--config", str(config), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


class TestRunConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_run_config(_write_config(tmp_path))
        assert cfg.td3.gamma == 0.99
        assert cfg.ga.elite_fraction == 0.4

    def test_master_seed_derives_stage_seeds(self, tmp_path):
        cfg = load_run_config(_write_config(tmp_path))
        assert cfg.td3.seed == 9
        assert cfg.ga.seed == 10

    def test_seed_override(self, tmp_path):
        cfg = load_run_config(_write_config(tmp_path), seed_override=60)
        assert (cfg.td3.seed, cfg.ga.seed) == (62, 63)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_run_config(_write_config(tmp_path, {"extra": 1}))

    def test_unknown_section_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="td3"):
            load_run_config(_write_config(tmp_path, {"td3": {"momentum": 0.9}}))

    def test_nested_seed_rejected(self, tmp_path):
        """Stage seeds always derive from the master seed."""
        with pytest.raises(ConfigError):
            load_run_config(_write_config(tmp_path, {"ga": {"seed": 1}}))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_missing_total_timesteps_defaults_to_50000(self, tmp_path):
        path = _write_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["td3"]["total_timesteps"]
        path.write_text(json.dumps(doc))
        assert load_run_config(path).td3.total_timesteps == 50_000

    def test_removed_episodes_per_eval_rejected(self, tmp_path):
        """The GA scores one deterministic episode, so an episode count is an unknown key."""
        with pytest.raises(ConfigError, match="episodes_per_eval"):
            load_run_config(_write_config(tmp_path, {"ga": {"episodes_per_eval": 1}}))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"data": {"train_fraction": "abc"}},
            {"data": {"train_fraction": [0.8]}},
            {"data": {"train_fraction": "nan"}},
            {"data": {"train_fraction": 1.5}},
            {"data": {"train_fraction": 0}},
            {"data": {"path": 5}},
            {"output_dir": 5},
            {"td3": {"batch_size": 8.0}},
            {"td3": {"total_timesteps": True}},
            {"ga": {"generations": 2.5}},
            {"ga": {"population_size": 4.0}},
            {"environment": {"lambda1": "nan", "lambda2": "inf"}},
            {"td3": {"learning_rate": math.inf, "tau": math.nan},
             "ga": {"init_sigma": math.inf}},
            {"environment": {"prior": ["nan", 3], "confidence": "nan"}},
            {"environment": {"prior": [1e308, 1e308]}},
            {"environment": {"confidence": 1e308}},
            {"environment": {"prior": [5, 3, 2]}},
            {"environment": {"lambda1": "0.1"}, "data": {"train_fraction": "0.8"}},
            {"environment": {"prior": ["5", 3]}},
            {"seed": True},
            {"seed": -5},
            {"seed": -1},
            {"td3": {"tau": 1e308}},
            {"td3": {"tau": 2.0}},
            {"td3": {"tau": -0.5}},
            {"td3": {"buffer_capacity": 10**30}},
            {"td3": {"buffer_capacity": 2**62}},
            {"ga": {"population_size": 10**30}},
            {"ga": {"mutation_strength": 1e308}},
            {"ga": {"mutation_strength": 5e-324}},
        ],
        ids=["fraction-text", "fraction-list", "fraction-nan", "fraction-above-1",
             "fraction-zero", "path-number", "out-number",
             "td3-float-count", "td3-bool-count", "ga-float-count", "ga-float-size",
             "lambda-text", "rate-non-finite", "belief-nan-text", "prior-overflow",
             "confidence-overflow", "prior-three", "number-text", "prior-text",
             "seed-bool", "seed-negative", "seed-minus-one", "tau-overflow", "tau-above-1",
             "tau-negative", "capacity-huge", "capacity-2^62", "population-huge",
             "strength-overflow", "strength-subnormal"],
    )
    def test_malformed_value_exits_1(self, tmp_path, capsys, overrides):
        config = _write_config(tmp_path, overrides)
        assert main(["pipeline", "--config", str(config)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["train", "--config", str(config), "--seed", "-5"]) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        """Arrays the config sizes beyond memory end in a usage error, not a traceback."""
        def exhausted(env, config):
            raise MemoryError("Unable to allocate 64.0 GiB for an array")

        monkeypatch.setattr(cli, "train", exhausted)
        assert main(["train", "--config", str(_write_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert "fiscalforge: usage error: out of memory" in err
        assert "Traceback" not in err


# main's documented exit code and stderr label for each error class.
# ContractError is a caller's bug and the only class without them.
_EXIT_CODES = {"ConfigError": 1, "DataError": 2, "ArtifactError": 3, "NumericError": 4}
_LABELS = {"ConfigError": "usage error", "DataError": "data error",
           "ArtifactError": "artifact error", "NumericError": "numeric failure"}


@pytest.mark.parametrize(
    "error",
    [c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.FiscalForgeError)
     and c is not errors.FiscalForgeError],
    ids=lambda c: c.__name__,
)
def test_every_error_class_has_an_exit_code(tmp_path, capsys, monkeypatch, error):
    """A new error class with no exit code in main fails here."""
    def failing(cfg):
        raise error("stage failed")

    monkeypatch.setitem(cli._COMMANDS, "train", failing)
    argv = ["train", "--config", str(_write_config(tmp_path))]
    if error is errors.ContractError:
        with pytest.raises(errors.ContractError):
            main(argv)
        return
    assert main(argv) == _EXIT_CODES[error.__name__]
    assert capsys.readouterr().err == f"fiscalforge: {_LABELS[error.__name__]}: stage failed\n"


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_unwritable_out_exits_3(tmp_path, command):
    """An --out below a regular file ends in one artifact-error line, not a traceback.

    Through the module entry point, in a fresh process. (refine and
    evaluate read their checkpoint from <out> first, and exit 3 on it.)
    """
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = _write_config(tmp_path, {"td3": {"total_timesteps": 10, "warmup_steps": 5}})
    done = _run_process(command, config, args=("--out", str(blocker / "sub")))
    assert done.returncode == 3, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("fiscalforge: artifact error: "), line
    assert "Not a directory" in line and "Traceback" not in done.stderr, line


class TestTrainCommand:
    def test_smoke_writes_artifacts(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        produced = {p.name for p in (tmp_path / "out").iterdir()}
        assert TRAIN_FILES <= produced

    def test_no_completed_episode_reports_na(self, tmp_path, capsys):
        """A budget shorter than one episode has no mean reward to print."""
        config = _write_config(tmp_path, {"td3": {"total_timesteps": 10, "warmup_steps": 5}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(config)]) == 0
        assert "final-10-episode mean reward: n/a (no episode completed)" in capsys.readouterr().out

    def test_byte_identical_checkpoints_across_runs(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for name in sorted(TRAIN_FILES):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, {"data": {"path": str(tmp_path / "gone.csv")}})
        assert main(["train", "--config", str(config)]) == 2
        assert "gone.csv" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        assert main(["train"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_divergent_training_exits_4(self, tmp_path, capsys):
        """An absurd learning rate blows up the critic loss: numeric failure."""
        import warnings

        config = _write_config(tmp_path, {"td3": {"learning_rate": 1e12}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["train", "--config", str(config)]) == 4
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            # Exactly one update, which leaves the critics non-finite.
            ("train", {"td3": {"learning_rate": 1e308, "total_timesteps": 101,
                               "warmup_steps": 100, "batch_size": 16}},
             "update 1, critic: critic step left non-finite parameters"),
            # Two updates: the failure is charged to the first, which diverged.
            ("train", {"td3": {"learning_rate": 1e308, "total_timesteps": 102,
                               "warmup_steps": 100, "batch_size": 16}},
             "update 1, critic: critic step left non-finite parameters"),
            ("train", {"td3": {"learning_rate": 1e300}},
             "update 2, critic: critic step left non-finite parameters"),
            # The largest strength numpy can bin overflows the mutated actors.
            ("pipeline", {"ga": {"mutation_strength": 8.988465674311579e307}},
             "non-finite allocation"),
        ],
        ids=["last-update", "diverged-update", "critic-loss", "mutated-actor"],
    )
    def test_numeric_failure_prints_one_line(self, tmp_path, command, overrides, message):
        """Exit 4 with the failure's message as the only stderr line (no numpy
        warning first); a failed training writes no checkpoint."""
        done = _run_process(command, _write_config(tmp_path, overrides))
        assert done.returncode == 4, done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("fiscalforge: numeric failure: ") and message in line, line
        if command == "train":
            assert not (tmp_path / "out").exists()

    def test_batch_larger_than_buffer_exits_1(self, tmp_path, capsys):
        """A buffer smaller than one minibatch would never start updating the actor."""
        config = _write_config(tmp_path, {"td3": {"buffer_capacity": 16, "batch_size": 64,
                                                  "total_timesteps": 400}})
        assert main(["train", "--config", str(config)]) == 1
        assert "batch_size 64 exceeds buffer_capacity 16" in capsys.readouterr().err
        assert not (tmp_path / "out" / "actor.ckpt").exists()

    @pytest.mark.parametrize("level", [None, "info"])
    def test_info_log_level_reports_training(self, tmp_path, level):
        """FISCALFORGE_LOG=info logs the training budget to stderr; the default does not.

        Through the module entry point, in a fresh process.
        """
        config = _write_config(tmp_path, {"td3": {"total_timesteps": 10, "warmup_steps": 5}})
        done = _run_process("train", config, {} if level is None else {"FISCALFORGE_LOG": level})
        assert done.returncode == 0, done.stderr
        logged = "INFO fiscalforge: training for 10 timesteps" in done.stderr
        assert logged == (level == "info"), done.stderr

    def test_log_level_applies_on_every_main_call(self, tmp_path, capsys, monkeypatch):
        """Each main() call in one process reads FISCALFORGE_LOG anew."""
        config = _write_config(tmp_path, {"td3": {"total_timesteps": 10, "warmup_steps": 5}})
        monkeypatch.delenv("FISCALFORGE_LOG", raising=False)
        assert main(["train", "--config", str(config)]) == 0
        assert "training for" not in capsys.readouterr().err
        monkeypatch.setenv("FISCALFORGE_LOG", "info")
        assert main(["train", "--config", str(config)]) == 0
        assert "INFO fiscalforge: training for 10 timesteps" in capsys.readouterr().err

    def test_history_lines_parse(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        lines = (tmp_path / "out" / "history.jsonl").read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) == {"episode", "cumulative_reward"}


class TestRefineCommand:
    def test_refine_after_train(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        assert main(["refine", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "refined_actor.ckpt").exists()
        gen_lines = (out / "generations.jsonl").read_text().splitlines()
        assert len(gen_lines) == SMALL_CONFIG["ga"]["generations"]
        assert "best fitness" in capsys.readouterr().out

    def test_perturbations_csv_is_a_histogram(self, tmp_path):
        """Each generation's offsets binned over [-s, s], s the mutation strength.

        No offset exceeds the strength (criterion 6), so the bins hold
        them all: each generation's counts sum to its n_mutations.
        """
        strength = 0.2
        config = _write_config(tmp_path, {"ga": {"mutation_strength": strength}})
        main(["train", "--config", str(config)])
        assert main(["refine", "--config", str(config)]) == 0
        out = tmp_path / "out"
        generations = [json.loads(line)
                       for line in (out / "generations.jsonl").read_text().splitlines()]
        lines = (out / "perturbations.csv").read_text().splitlines()
        assert lines[0] == "generation,bin_low,bin_high,count"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [
            g["generation"] for g in generations for _ in range(PERTURBATION_BINS)]
        for g in generations:
            own = [r for r in rows if int(r[0]) == g["generation"]]
            lows, highs = [float(r[1]) for r in own], [float(r[2]) for r in own]
            assert lows[0] == -strength and highs[-1] == strength
            assert lows[1:] == highs[:-1]
            assert all(low < high for low, high in zip(lows, highs))
            assert sum(int(r[3]) for r in own) == g["n_mutations"] > 0

    def test_default_refinement_runs_ten_generations(self, tmp_path):
        config = _write_config(tmp_path, {"ga": {}})
        doc = json.loads(config.read_text())
        del doc["ga"]  # fall back to defaults: 10 generations, population 5
        config.write_text(json.dumps(doc))
        main(["train", "--config", str(config)])
        assert main(["refine", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "generations.jsonl").read_text().splitlines()
        assert len(lines) == 10
        assert all(len(json.loads(l)["fitnesses"]) == 5 for l in lines)

    def test_missing_checkpoint_exits_3(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["refine", "--config", str(config)]) == 3

    def test_corrupt_checkpoint_exits_3(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        (tmp_path / "out" / "actor.ckpt").write_bytes(b"garbage bytes")
        assert main(["refine", "--config", str(config)]) == 3

    def test_overflowing_checkpoint_count_exits_3(self, tmp_path):
        """The parameter count's top bit flipped: a corrupt header, not a traceback."""
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        ckpt = tmp_path / "out" / "actor.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) - 8 * ACTOR_SPEC.param_count() - 1] ^= 0x80
        ckpt.write_bytes(bytes(blob))
        assert main(["refine", "--config", str(config)]) == 3

    def test_corrupt_refine_leaves_training_artifacts_intact(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        history = (tmp_path / "out" / "history.jsonl").read_bytes()
        (tmp_path / "out" / "actor.ckpt").write_bytes(b"garbage bytes")
        main(["refine", "--config", str(config)])
        assert (tmp_path / "out" / "history.jsonl").read_bytes() == history

    def test_overflowing_init_sigma_exits_4(self, tmp_path, capsys):
        """Any finite sigma is a valid setting; the actor overflows when the population is scored."""
        config = _write_config(tmp_path, {"ga": {"init_sigma": 1e308}})
        main(["train", "--config", str(config)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["refine", "--config", str(config)]) == 4
        assert "non-finite allocation" in capsys.readouterr().err

    def test_zero_generations_returns_input_checkpoint(self, tmp_path):
        config = _write_config(tmp_path, {"ga": {"generations": 0}})
        main(["train", "--config", str(config)])
        main(["refine", "--config", str(config)])
        out = tmp_path / "out"
        assert (out / "refined_actor.ckpt").read_bytes() == (
            out / "actor.ckpt"
        ).read_bytes()


class TestEvaluateCommand:
    def test_report_schema(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        assert main(["evaluate", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert set(report) == {
            "mae", "rmse", "cosine_similarity", "kl_divergence", "n_quarters",
        }
        stdout = capsys.readouterr().out
        assert "mae:" in stdout and "kl_divergence:" in stdout

    def test_pairs_csv_shape(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        main(["evaluate", "--config", str(config)])
        lines = (tmp_path / "out" / "pairs.csv").read_text().splitlines()
        assert lines[0] == "t,pred_rnd,pred_sga,actual_rnd,actual_sga"
        assert len(lines) - 1 == json.loads(
            (tmp_path / "out" / "metrics.json").read_text()
        )["n_quarters"]

    def test_pairs_csv_cells_are_plain_floats(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        main(["evaluate", "--config", str(config)])
        lines = (tmp_path / "out" / "pairs.csv").read_text().splitlines()
        for t, line in enumerate(lines[1:]):
            cells = [float(cell) for cell in line.split(",")]
            assert len(cells) == 5 and cells[0] == t
            assert abs(cells[1] + cells[2] - 1.0) <= 1e-9
            assert abs(cells[3] + cells[4] - 1.0) <= 1e-9

    def test_deterministic_outputs(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        main(["evaluate", "--config", str(config)])
        first = (tmp_path / "out" / "metrics.json").read_bytes()
        main(["evaluate", "--config", str(config)])
        assert (tmp_path / "out" / "metrics.json").read_bytes() == first

    def test_three_wide_simplex_checkpoint_exits_3(self, tmp_path, capsys):
        """A simplex head has two outputs, so a header declaring three is a corrupt checkpoint."""
        config = _write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        linear = MlpSpec(STATE_DIM, (4,), 3, "linear")
        save_checkpoint(out / "actor.ckpt", linear, init_params(linear, 0))
        blob = bytearray((out / "actor.ckpt").read_bytes())
        blob[8] = 1  # the head code after the magic and the version: simplex
        (out / "actor.ckpt").write_bytes(bytes(blob))
        assert main(["evaluate", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "artifact error" in err and "corrupt checkpoint" in err and "2 outputs" in err

    def test_prefers_refined_checkpoint(self, tmp_path):
        config = _write_config(tmp_path)
        main(["train", "--config", str(config)])
        main(["evaluate", "--config", str(config)])
        base_metrics = (tmp_path / "out" / "metrics.json").read_text()
        main(["refine", "--config", str(config)])
        main(["evaluate", "--config", str(config)])
        refined = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert isinstance(refined["mae"], float)
        # Either identical (refinement kept the base) or legitimately different.
        assert (tmp_path / "out" / "refined_actor.ckpt").exists()
        assert base_metrics  # smoke: first evaluation produced content


class TestPipelineCommand:
    def test_full_inventory_and_summary(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        expected = TRAIN_FILES | {
            "refined_actor.ckpt", "generations.jsonl", "perturbations.csv",
            "metrics.json", "pairs.csv", "trace.jsonl", "summary.json",
        }
        assert expected <= {p.name for p in out.iterdir()}
        summary = json.loads((out / "summary.json").read_text())
        assert (
            summary["post_refinement"]["fitness"]
            >= summary["pre_refinement"]["fitness"]
        )
        assert "refinement summary" in capsys.readouterr().out

    @pytest.mark.parametrize("stage, kept, scored", [
        ("train", TRAIN_FILES, "actor.ckpt"),
        ("refine", TRAIN_FILES | REFINE_FILES, "refined_actor.ckpt"),
    ], ids=["train", "refine"])
    def test_rerun_stage_leaves_no_older_downstream_artifact(
        self, tmp_path, monkeypatch, stage, kept, scored
    ):
        """A stage rerun with another seed removes what the old run built on its outputs."""
        import fiscalforge.cli as cli

        config = _write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert main([stage, "--config", str(config), "--seed", "8"]) == 0
        out = tmp_path / "out"
        assert {p.name for p in out.iterdir()} == kept
        loads = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load(path))
        assert main(["evaluate", "--config", str(config)]) == 0
        assert [p.name for p in loads] == [scored]

    def test_staged_run_matches_pipeline(self, tmp_path):
        """train; refine; evaluate writes the pipeline's bytes for each artifact they share."""
        config = _write_config(tmp_path)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "p")]) == 0
        for stage in ("train", "refine", "evaluate"):
            assert main([stage, "--config", str(config), "--out", str(tmp_path / "s")]) == 0
        staged = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert staged == sorted(p.name for p in (tmp_path / "p").iterdir()
                                if p.name != "summary.json")
        assert len(staged) == 14
        for name in staged:
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    def test_stages_hand_results_forward(self, tmp_path, monkeypatch):
        """Only refine and evaluate read a checkpoint; the pipeline reuses the results."""
        import fiscalforge.cli as cli

        loads = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load(path))
        config = _write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert [p.name for p in loads] == ["actor.ckpt", "refined_actor.ckpt"]

    def test_inputs_built_once_per_split(self, tmp_path, monkeypatch):
        """One CSV parse and one env per split; a stage alone builds only its own env."""
        import fiscalforge.cli as cli

        built = []
        load, env = cli.load_series, cli.BudgetEnv
        monkeypatch.setattr(cli, "load_series", lambda path: built.append("parse") or load(path))
        monkeypatch.setattr(cli, "BudgetEnv",
                            lambda part, *rest: built.append(len(part)) or env(part, *rest))
        config = _write_config(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert built == ["parse", 19, 5]  # floor(0.8 * 24) training quarters
        built.clear()
        assert main(["evaluate", "--config", str(config)]) == 0
        assert built == ["parse", 5]

    @pytest.mark.parametrize("command", ["refine", "evaluate"])
    def test_data_error_before_checkpoint_error(self, tmp_path, command):
        config = _write_config(tmp_path, {"data": {"path": str(tmp_path / "gone.csv")}})
        assert main([command, "--config", str(config)]) == 2

    @pytest.mark.parametrize("row", [22, 1], ids=["test-split", "train-split"])
    def test_overflowing_expense_row_exits_2(self, tmp_path, capsys, row):
        """rnd + sga = 2e308 is not a share denominator, wherever the row lands."""
        csv_path = _mutated_csv(tmp_path, [(row, 1, "1e308"), (row, 2, "1e308")])
        config = _write_config(tmp_path, {"data": {"path": str(csv_path)}})
        assert main(["pipeline", "--config", str(config)]) == 2
        assert "rnd + sga" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "r1")]) == 0
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0
        names = sorted(p.name for p in (tmp_path / "r1").iterdir())
        for name in names:
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name


# The README's config example, shrunk to a tiny run: 30 steps, a 1x2 GA.
class _TornFile:
    """A file handle that writes half of its first chunk, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device (injected)")


def _bytes_or_none(path):
    return path.read_bytes() if path.exists() else None


def test_failed_write_leaves_every_artifact_whole(tmp_path, monkeypatch, capsys):
    """A rerun whose n-th artifact write fails part-way, for every n: main
    exits 3 with one artifact-error line, the failed file is as it was
    when the write began, every file holds the old or the new run's whole
    bytes, and no temporary file is left."""
    from fiscalforge import atomic

    config = _write_config(tmp_path, {"td3": {"total_timesteps": 150},
                                      "ga": {"generations": 1, "population_size": 2}})
    runs = {}
    for seed in (7, 8):
        out = tmp_path / f"seed{seed}"
        assert main(["pipeline", "--config", str(config), "--seed", str(seed),
                     "--out", str(out)]) == 0
        runs[seed] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(runs[7]) == 15

    for fail_at in range(1, 16):
        out = tmp_path / f"torn{fail_at}"
        shutil.copytree(tmp_path / "seed7", out)
        opened, target = [], {}

        def torn_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            opened.append(file)
            if len(opened) != fail_at:
                return fh
            name = file.name[1:].rsplit(".", 2)[0]  # ".<name>.<pid>.tmp"
            target.update(name=name, before=_bytes_or_none(out / name))
            return _TornFile(fh)

        with monkeypatch.context() as m:
            m.setattr(atomic, "open", torn_open, raising=False)
            assert main(["pipeline", "--config", str(config), "--seed", "8",
                         "--out", str(out)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("fiscalforge: artifact error: cannot write output: "), line
        assert "injected" in line, line
        assert len(opened) == fail_at
        names = {p.name for p in out.iterdir()}
        assert names <= set(runs[7]), names - set(runs[7])
        assert _bytes_or_none(out / target["name"]) == target["before"]
        for name in names:
            assert (out / name).read_bytes() in (runs[7][name], runs[8][name]), name


@pytest.mark.parametrize("stage, failing", [
    ("train", "history.jsonl"),
    ("refine", "generations.jsonl"),
])
def test_failed_stage_leaves_none_of_its_older_outputs(
    tmp_path, monkeypatch, capsys, stage, failing
):
    """A 3-generation pipeline, then a 1-generation rerun of one stage at
    another seed whose write of one output fails: main exits 3, and every
    output of that stage still present is the rerun's, not the pipeline's."""
    from fiscalforge import atomic

    config = _write_config(tmp_path, {"ga": {"generations": 3}})
    assert main(["pipeline", "--config", str(config)]) == 0
    out = tmp_path / "out"
    old = {p.name: p.read_bytes() for p in out.iterdir()}
    config = _write_config(tmp_path, {"ga": {"generations": 1}})

    def failing_open(file, *args, **kwargs):
        if file.name.startswith(f".{failing}."):  # atomic_open's ".<name>.<pid>.tmp"
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(atomic, "open", failing_open, raising=False)
    assert main([stage, "--config", str(config), "--seed", "8"]) == 3
    assert "injected" in capsys.readouterr().err
    stage_files = TRAIN_FILES if stage == "train" else REFINE_FILES
    left = {p.name for p in out.iterdir()} & stage_files
    assert failing not in left
    assert left, "the stage wrote nothing before the failing write"
    for name in left:
        assert (out / name).read_bytes() != old[name], name


README_CONFIG = {
    "data": {"path": str(FIXTURE_CSV), "train_fraction": 0.8},
    "environment": {"lambda1": 0.1, "lambda2": 0.01, "confidence": 1.0, "prior": [5.0, 3.0]},
    "td3": {"total_timesteps": 30, "gamma": 0.99, "tau": 0.005, "actor_delay": 2,
            "batch_size": 8, "buffer_capacity": 10000, "exploration_sigma": 0.1,
            "target_noise_sigma": 0.2, "target_noise_clip": 0.5,
            "learning_rate": 0.001, "warmup_steps": 10},
    "ga": {"generations": 1, "population_size": 2, "elite_fraction": 0.4,
           "mutation_rate": 0.1, "init_sigma": 0.02, "mutation_strength": 0.05,
           "rotation_sigma": 0.3},
    "output_dir": "runs/default",
    "seed": 60,
}
DELETE = "<delete>"
_KEY_PATHS = [(section, key) for section, body in README_CONFIG.items()
              if isinstance(body, dict) for key in body]
_KEY_PATHS += [("output_dir",), ("seed",), ("environment", "prior", 0), ("environment", "prior", 1)]
_BAD_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, "0.5", "nan", True, None,
               [0.5], {"x": 1}, DELETE]
# Deleting td3.total_timesteps trains for the default 50,000 steps, tens of
# seconds per draw; test_missing_total_timesteps_defaults_to_50000 covers it.
_EDITS = [(path, value) for path in _KEY_PATHS for value in _BAD_VALUES
          if (path, value) != (("td3", "total_timesteps"), DELETE)]
_CELL_TEXTS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e309", "-1", "0", "", "abc"]


def _edit(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value == DELETE:
        del doc[last]
    else:
        doc[last] = copy.deepcopy(value)


@settings(max_examples=60, deadline=None)
@given(
    edits=st.lists(st.sampled_from(_EDITS), max_size=1),
    cells=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 3),
                             st.sampled_from(_CELL_TEXTS)), max_size=1),
)
@example(edits=[(("environment", "lambda1"), "nan"), (("environment", "lambda2"), "inf")],
         cells=[])
@example(edits=[(("td3", "learning_rate"), math.inf), (("td3", "tau"), math.nan),
                (("ga", "init_sigma"), math.inf)], cells=[])
@example(edits=[(("environment", "prior"), ["nan", 3]), (("environment", "confidence"), "nan")],
         cells=[])
@example(edits=[(("environment", "prior"), [1e308, 1e308]),
                (("environment", "confidence"), 1e308)], cells=[])
@example(edits=[(("environment", "prior"), [5, 3, 2])], cells=[])
@example(edits=[(("environment", "lambda1"), "0.1"), (("data", "train_fraction"), "0.8"),
                (("environment", "prior"), ["5", 3]), (("seed",), True)], cells=[])
@example(edits=[(("ga", "mutation_strength"), 1e308)], cells=[])
@example(edits=[], cells=[(22, 1, "1e308"), (22, 2, "1e308")])
@example(edits=[], cells=[(1, 1, "1e308"), (1, 2, "1e308")])
def test_malformed_input_never_escapes_main(edits, cells):
    """Any one bad config value, missing key or bad CSV cell ends in an exit code."""
    doc = json.loads(json.dumps(README_CONFIG))
    for path, value in edits:
        _edit(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        if cells:
            doc["data"]["path"] = str(_mutated_csv(tmp, cells))
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["pipeline", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2, 3, 4)
