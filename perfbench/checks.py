"""Checks on one pipeline run directory, and the quality figures it holds."""

import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = frozenset({
    "actor.ckpt", "actor.json", "critic1.ckpt", "critic2.ckpt",
    "actor_target.ckpt", "critic1_target.ckpt", "critic2_target.ckpt",
    "history.jsonl", "refined_actor.ckpt", "generations.jsonl",
    "perturbations.csv", "metrics.json", "pairs.csv", "trace.jsonl",
    "summary.json",
})
METRIC_KEYS = frozenset({"mae", "rmse", "cosine_similarity", "kl_divergence", "n_quarters"})
SIMPLEX_TOLERANCE = 1e-9
_NP_FLOAT = "np.float64("


def check_run(out: Path) -> list[str]:
    """Problems found in a pipeline run directory (empty when it passes)."""
    names = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if names != ARTIFACTS:
        return [f"artifacts: missing {sorted(ARTIFACTS - names)}, "
                f"unexpected {sorted(names - ARTIFACTS)}"]
    problems = []

    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    if set(metrics) != METRIC_KEYS:
        problems.append(f"metrics.json keys {sorted(metrics)}")
    elif not all(math.isfinite(v) for v in metrics.values()):
        problems.append(f"metrics.json has a non-finite value: {metrics}")

    lines = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        _, rnd, sga, _, _ = (_number(cell) for cell in line.split(","))
        if min(rnd, sga) < -SIMPLEX_TOLERANCE or abs(rnd + sga - 1.0) > SIMPLEX_TOLERANCE:
            problems.append(f"pairs.csv prediction off the simplex: {line}")
            break

    best = [json.loads(line)["best"]
            for line in (out / "generations.jsonl").read_text(encoding="utf-8").splitlines()]
    if best and min(best) < best[0]:
        problems.append(f"generations.jsonl best fitness fell below its first value {best[0]}")
    return problems


def _number(cell: str) -> float:
    # Under numpy 2 the CLI writes pairs.csv cells as "np.float64(x)" (it
    # formats numpy scalars with !r); read the number either form holds.
    if cell.startswith(_NP_FLOAT) and cell.endswith(")"):
        cell = cell[len(_NP_FLOAT):-1]
    return float(cell)


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file in a run directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def quality(out: Path) -> dict[str, float]:
    """Quality figures of a checked run directory.

    The first two are end-to-end metrics. The others swing by 20-100%
    between data seeds on the workloads whose refined policy is nearly
    exact (values near zero), so they are per-layer figures, without a
    bound.
    """
    rewards = [json.loads(line)["cumulative_reward"]
               for line in (out / "history.jsonl").read_text(encoding="utf-8").splitlines()]
    tail = rewards[-10:]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    post = summary["post_refinement"]
    return {
        # Episode rewards are sums of penalties (never positive); the
        # benchmark reports their negation so lower is better and the
        # figure stays positive.
        "train_final_penalty": -sum(tail) / len(tail),
        "eval_cosine": post["metrics"]["cosine_similarity"],
        "quantum_ga.refine_gain": post["fitness"] - summary["pre_refinement"]["fitness"],
        "evaluation.mae": post["metrics"]["mae"],
        "evaluation.kl_divergence": post["metrics"]["kl_divergence"],
    }
