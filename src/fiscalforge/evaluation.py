"""Score greedy policy allocations against held-out empirical shares.

Four summary metrics over per-quarter (predicted, actual) simplex
pairs: mean absolute error and root mean squared error over the
flattened componentwise residuals, mean cosine similarity per pair, and
mean KL divergence per pair with the actual allocation as the reference
distribution (predicted components floored at 1e-12, zero actual mass
contributes zero). The pairs come from one rollout of the policy over
an env the caller builds (the CLI's test-split env, shared by the
pre- and post-refinement reports), which also feeds trace.jsonl.
"""

import math
from dataclasses import dataclass

import numpy as np

from .environment import BudgetEnv, write_trace
from .errors import DataError, DomainError

__all__ = [
    "AllocationPair",
    "MetricsReport",
    "mae",
    "rmse",
    "cosine_similarity",
    "kl_divergence",
    "evaluate_policy",
]

_KL_FLOOR = 1e-12


@dataclass(frozen=True)
class AllocationPair:
    predicted: np.ndarray
    actual: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    rmse: float
    cosine_similarity: float
    kl_divergence: float
    n_quarters: int

    def to_dict(self) -> dict:
        return {
            "mae": self.mae,
            "rmse": self.rmse,
            "cosine_similarity": self.cosine_similarity,
            "kl_divergence": self.kl_divergence,
            "n_quarters": self.n_quarters,
        }


def _residuals(pairs: list[AllocationPair]) -> np.ndarray:
    if not pairs:
        raise DataError("no allocation pairs to score")
    return np.concatenate([np.asarray(p.predicted) - np.asarray(p.actual) for p in pairs])


def mae(pairs: list[AllocationPair]) -> float:
    return float(np.abs(_residuals(pairs)).mean())


def rmse(pairs: list[AllocationPair]) -> float:
    r = _residuals(pairs)
    return float(np.sqrt((r * r).mean()))


def cosine_similarity(pairs: list[AllocationPair]) -> float:
    if not pairs:
        raise DataError("no allocation pairs to score")
    values = []
    for p in pairs:
        pred = np.asarray(p.predicted, dtype=np.float64)
        act = np.asarray(p.actual, dtype=np.float64)
        np_norm, na_norm = np.linalg.norm(pred), np.linalg.norm(act)
        if np_norm == 0.0 or na_norm == 0.0:
            raise DomainError("cosine similarity undefined for a zero vector")
        values.append(float(pred @ act) / (np_norm * na_norm))
    return float(np.mean(values))


def kl_divergence(pairs: list[AllocationPair]) -> float:
    if not pairs:
        raise DataError("no allocation pairs to score")
    values = []
    for p in pairs:
        pred = np.maximum(np.asarray(p.predicted, dtype=np.float64), _KL_FLOOR)
        act = np.asarray(p.actual, dtype=np.float64)
        acc = 0.0
        for a, q in zip(act, pred):
            if a > 0.0:
                acc += a * math.log(a / q)
        values.append(acc)
    return float(np.mean(values))


def evaluate_policy(
    policy, env: BudgetEnv, trace_path=None
) -> tuple[MetricsReport, list[AllocationPair]]:
    """Greedy rollout over the env's series; collects one pair per step.

    ``policy`` is anything with an ``act(state) -> allocation`` method.
    """
    episode = env.rollout(policy.act)
    pairs = [AllocationPair(a, e) for a, e in zip(episode.actions, episode.empirical)]
    if trace_path is not None:
        write_trace(episode, trace_path)
    report = MetricsReport(
        mae=mae(pairs),
        rmse=rmse(pairs),
        cosine_similarity=cosine_similarity(pairs),
        kl_divergence=kl_divergence(pairs),
        n_quarters=len(pairs),
    )
    return report, pairs
