"""Command-line pipeline: ingest -> train -> refine -> evaluate -> report.

One JSON config drives every stage. All commands are deterministic
given (config file, input artifacts): rerunning a command overwrites
its outputs with byte-identical bytes, and removes what later stages
of an earlier run left in the output directory. Every artifact is
written atomically (fiscalforge.atomic), so a failed or interrupted
write leaves the old file whole. The master seed derives the stage
seeds: seed+2 for training and seed+3 for refinement.

Each config value is checked by one rule per declared field type. A
RunConfig builds its inputs once, on first use: one CSV parse and one
env per split, so a stage run alone builds only the env it reads.

Each stage command also returns its result (trained policy, refined
policy, metrics report), which the pipeline uses instead of re-reading.

Exit codes: 0 success, 1 usage or config error, 2 data error,
3 artifact error or an output that cannot be written, 4 numeric
failure. Each error class declares its own (fiscalforge.errors).
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import write_csv, write_json, write_jsonl
from .data_ingest import FinancialSeries, chrono_split, fit_scaler, load_series
from .environment import BeliefConfig, BudgetEnv, RewardConfig, write_trace
from .errors import ArtifactError, ConfigError, ContractError, FiscalForgeError
from .evaluation import MetricsReport, evaluate_policy
from .neural_core import (
    SIMPLEX,
    ActorPolicy,
    export_json,
    load_checkpoint,
    save_checkpoint,
)
from .quantum_ga import GaConfig, evaluate_fitness, evolve, perturbation_edges
from .td3_trainer import ACTION_DIM, STATE_DIM, TD3Config, TrainedPolicy, train

__all__ = ["RunConfig", "main", "entrypoint"]

log = logging.getLogger("fiscalforge")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

ACTOR_CKPT = "actor.ckpt"
REFINED_CKPT = "refined_actor.ckpt"

# What each stage's outputs make stale. A stage removes them, and its own
# old outputs, before its first write, so that no later stage reads, and
# no failed write leaves beside the new outputs, an artifact of an older run.
_EVALUATE_OUTPUTS = ("metrics.json", "pairs.csv", "trace.jsonl", "summary.json")
_REFINE_OUTPUTS = (REFINED_CKPT, "generations.jsonl", "perturbations.csv")


@dataclass(frozen=True)
class RunConfig:
    data_path: Path
    train_fraction: float
    reward: RewardConfig
    belief: BeliefConfig
    td3: TD3Config
    ga: GaConfig
    output_dir: Path

    @cached_property
    def _splits(self):
        """The CSV parsed and split, and the scaler fit on the training split only."""
        train_part, test_part = chrono_split(load_series(self.data_path), self.train_fraction)
        return train_part, test_part, fit_scaler(train_part)

    @cached_property
    def train_env(self) -> BudgetEnv:
        return self._env(self._splits[0])

    @cached_property
    def test_env(self) -> BudgetEnv:
        return self._env(self._splits[1])

    def _env(self, part: FinancialSeries) -> BudgetEnv:
        # Only the belief settings can put the env's tables out of domain.
        try:
            return BudgetEnv(part, self._splits[2], self.reward, self.belief)
        except ContractError as exc:
            raise ConfigError(f"bad 'environment' section: {exc}") from exc


def _finite(value) -> bool:
    """A finite JSON number (NaN fails the comparison; true is not a number)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# One rule per declared field type; a value that passes is converted by calling the type.
_RULES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", _finite),
    tuple[float, ...]: ("an array of finite numbers",
                        lambda v: type(v) is list and all(map(_finite, v))),
    Path: ("a string", lambda v: type(v) is str),
}


def _types(cls, *skip: str) -> dict:
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


# Config-file key -> declared field type. Stage seeds derive from the master seed.
_SCHEMA = {
    "data": {"path": Path, "train_fraction": float},
    "environment": _types(RewardConfig) | _types(BeliefConfig),
    "td3": _types(TD3Config, "seed"),
    "ga": _types(GaConfig, "seed"),
    "output_dir": Path,
    "seed": int,
}


def _read(given: dict, schema: dict, where: str = "") -> dict:
    """Check a config object's keys and values against the schema; return typed values."""
    unknown = set(given) - set(schema)
    if unknown:
        section = where.rstrip(".") or "top-level"
        raise ConfigError(f"unknown {section} config keys: {sorted(unknown)}")
    typed = {}
    for key, value in given.items():
        kind, name = schema[key], where + key
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            typed[key] = _read(value, kind, name + ".")
        elif _RULES[kind][1](value):
            typed[key] = kind(value)
        else:
            raise ConfigError(f"{name} must be {_RULES[kind][0]}, got {value!r}")
    return typed


def _build(cls, section: str, given: dict, **fixed):
    try:
        return cls(**{k: v for k, v in given.items() if k in _types(cls)}, **fixed)
    except FiscalForgeError as exc:
        raise ConfigError(f"bad {section!r} section: {exc}") from exc


def load_run_config(
    path: str | Path, out_override: str | None = None, seed_override: int | None = None
) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    overrides = {"output_dir": out_override, "seed": seed_override}
    doc = _read(doc | {k: v for k, v in overrides.items() if v is not None}, _SCHEMA)
    data, env = doc.get("data", {}), doc.get("environment", {})
    if "path" not in data:
        raise ConfigError("config is missing data.path")
    train_fraction = data.get("train_fraction", 0.8)
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"data.train_fraction must lie in (0, 1), got {train_fraction}")
    seed = doc.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return RunConfig(
        data_path=data["path"],
        train_fraction=train_fraction,
        reward=_build(RewardConfig, "environment", env),
        belief=_build(BeliefConfig, "environment", env),
        td3=_build(TD3Config, "td3", doc.get("td3", {}), seed=seed + 2),
        ga=_build(GaConfig, "ga", doc.get("ga", {}), seed=seed + 3),
        output_dir=doc.get("output_dir", Path("runs/default")),
    )


# -- shared stage helpers -----------------------------------------------------


def _remove(out: Path, names) -> None:
    for name in names:
        (out / name).unlink(missing_ok=True)


def _load_actor(path: Path) -> ActorPolicy:
    if not path.exists():
        raise ArtifactError(f"checkpoint not found: {path}")
    spec, params = load_checkpoint(path)
    if spec.output_head != SIMPLEX or spec.input_dim != STATE_DIM or spec.output_dim != ACTION_DIM:
        raise ArtifactError(
            f"{path}: checkpoint is not an allocation actor "
            f"(head={spec.output_head}, in={spec.input_dim}, out={spec.output_dim})"
        )
    return ActorPolicy(spec, params)


# -- commands ------------------------------------------------------------------


def cmd_train(cfg: RunConfig) -> TrainedPolicy:
    log.info("training for %d timesteps (seed %d)", cfg.td3.total_timesteps, cfg.td3.seed)
    policy = train(cfg.train_env, cfg.td3)

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    own = [ACTOR_CKPT, "actor.json", "history.jsonl", *(f"{n}.ckpt" for n in policy.aux_params)]
    _remove(out, [*own, *_REFINE_OUTPUTS, *_EVALUATE_OUTPUTS])
    save_checkpoint(out / ACTOR_CKPT, policy.spec, policy.params)
    export_json(out / "actor.json", policy.spec, policy.params)
    for name, (spec, params) in policy.aux_params.items():
        save_checkpoint(out / f"{name}.ckpt", spec, params)
    write_jsonl(
        out / "history.jsonl",
        ({"episode": i, "cumulative_reward": r} for i, r in enumerate(policy.episode_rewards)),
    )
    tail = policy.episode_rewards[-10:]
    mean = f"{float(np.mean(tail)):.6f}" if tail else "n/a (no episode completed)"
    print(f"final-10-episode mean reward: {mean}")
    return policy


def cmd_refine(cfg: RunConfig) -> ActorPolicy:
    env = cfg.train_env
    base = _load_actor(cfg.output_dir / ACTOR_CKPT)
    log.info("refining for %d generations (seed %d)", cfg.ga.generations, cfg.ga.seed)
    refined, logs = evolve(base, env, cfg.ga)

    out = cfg.output_dir
    _remove(out, _REFINE_OUTPUTS + _EVALUATE_OUTPUTS)
    save_checkpoint(out / REFINED_CKPT, refined.spec, refined.params)
    # Each generation's record is its log; the histogram goes to perturbations.csv.
    write_jsonl(out / "generations.jsonl",
                ({k: v for k, v in asdict(g).items() if k != "histogram"} for g in logs))
    edges = perturbation_edges(cfg.ga).tolist()
    write_csv(
        out / "perturbations.csv", ("generation", "bin_low", "bin_high", "count"),
        ((g.generation, low, high, count)
         for g in logs for low, high, count in zip(edges, edges[1:], g.histogram)),
    )
    for g in logs:
        print(f"generation {g.generation} best fitness: {g.best:.6f}")
    return refined


def cmd_evaluate(cfg: RunConfig) -> MetricsReport:
    env = cfg.test_env
    ckpt = cfg.output_dir / REFINED_CKPT
    if not ckpt.exists():
        ckpt = cfg.output_dir / ACTOR_CKPT
    policy = _load_actor(ckpt)
    out = cfg.output_dir
    report, actions, rewards = evaluate_policy(policy, env)
    _remove(out, _EVALUATE_OUTPUTS)
    write_trace(env, actions, rewards, out / "trace.jsonl")
    write_json(out / "metrics.json", asdict(report))
    write_csv(
        out / "pairs.csv", ("t", "pred_rnd", "pred_sga", "actual_rnd", "actual_sga"),
        ((t, *row) for t, row in enumerate(np.hstack([actions, env.empirical]).tolist())),
    )
    print(f"mae: {report.mae:.6f}")
    print(f"rmse: {report.rmse:.6f}")
    print(f"cosine_similarity: {report.cosine_similarity:.6f}")
    print(f"kl_divergence: {report.kl_divergence:.6f}")
    return report


def cmd_pipeline(cfg: RunConfig) -> None:
    base = cmd_train(cfg)
    refined = cmd_refine(cfg)

    pre_fitness, post_fitness = evaluate_fitness(
        np.stack([base.params, refined.params]), base.spec, cfg.train_env
    ).tolist()
    pre_report = evaluate_policy(base, cfg.test_env)[0]

    post_report = cmd_evaluate(cfg)

    write_json(
        cfg.output_dir / "summary.json",
        {
            "pre_refinement": {"fitness": pre_fitness, "metrics": asdict(pre_report)},
            "post_refinement": {"fitness": post_fitness, "metrics": asdict(post_report)},
        },
    )
    print(
        f"refinement summary: fitness {pre_fitness:.6f} -> {post_fitness:.6f}, "
        f"mae {pre_report.mae:.6f} -> {post_report.mae:.6f}, "
        f"cosine {pre_report.cosine_similarity:.6f} -> "
        f"{post_report.cosine_similarity:.6f}"
    )


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fiscalforge", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("train", "train an allocation policy and write checkpoints"),
        ("refine", "evolutionarily refine a trained checkpoint"),
        ("evaluate", "score a checkpoint on the held-out split"),
        ("pipeline", "train, refine, and evaluate in one run"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", help="override the config's output directory")
        cmd.add_argument("--seed", type=int, help="override the config's master seed")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "refine": cmd_refine,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def _setup_logging() -> None:
    """Send the fiscalforge logger to the current stderr at FISCALFORGE_LOG's level.

    Done afresh on every main() call, with the logger's own handler: the
    root logger's basicConfig does nothing once any handler is installed.
    """
    level = _LOG_LEVELS.get(os.environ.get("FISCALFORGE_LOG", "error").lower(), logging.ERROR)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    for old in log.handlers[:]:
        log.removeHandler(old)
    log.addHandler(handler)
    log.setLevel(level)
    log.propagate = False


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        try:
            args = build_parser().parse_args(argv)
            cfg = load_run_config(args.config, out_override=args.out, seed_override=args.seed)
            _COMMANDS[args.command](cfg)
        except MemoryError as exc:  # the config's sizes do not fit in memory
            raise ConfigError(f"out of memory: {exc}") from exc
        except OSError as exc:  # every input read maps its own, so this is a write to <out>
            raise ArtifactError(f"cannot write output: {exc}") from exc
    except FiscalForgeError as exc:
        if exc.exit_code is None:  # a caller's bug, not a failure of the run
            raise
        print(f"fiscalforge: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
