"""Score greedy policy allocations against held-out empirical shares.

Four summary metrics over (T, 2) predicted and actual simplex rows:
mean absolute error and root mean squared error over the flattened
componentwise residuals, mean cosine similarity per row, and mean KL
divergence per row with the actual allocation as the reference
distribution (predicted components floored at 1e-12, zero actual mass
contributes zero). The predictions are the greedy actions of the
policy on an env the caller builds (the CLI's test-split env, shared by
the pre- and post-refinement reports), scored by env.episode_rewards
as GA fitness is. evaluate_policy returns them and their rewards with
the report and writes nothing; the CLI writes trace.jsonl from them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .environment import BudgetEnv, RewardBreakdown
from .errors import ContractError, DataError

__all__ = [
    "MetricsReport",
    "mae",
    "rmse",
    "cosine_similarity",
    "kl_divergence",
    "evaluate_policy",
]

_KL_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    rmse: float
    cosine_similarity: float
    kl_divergence: float
    n_quarters: int


def _rows(predicted: np.ndarray, actual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as float64 (T, 2) arrays of equal shape, T >= 1."""
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 2 or p.shape[1] != 2:
        raise ContractError(f"expected two (T, 2) arrays, got {p.shape} and {a.shape}")
    if not len(p):
        raise DataError("no allocation pairs to score")
    return p, a


def _residuals(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    p, a = _rows(predicted, actual)
    return (p - a).ravel()


def mae(predicted: np.ndarray, actual: np.ndarray) -> float:
    return float(np.abs(_residuals(predicted, actual)).mean())


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    r = _residuals(predicted, actual)
    return float(np.sqrt((r * r).mean()))


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each the ddot of one (1, 2) @ (2, 1) product."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def cosine_similarity(predicted: np.ndarray, actual: np.ndarray) -> float:
    p, a = _rows(predicted, actual)
    p_norms, a_norms = np.sqrt(_dots(p, p)), np.sqrt(_dots(a, a))
    if np.any(p_norms == 0.0) or np.any(a_norms == 0.0):
        raise ContractError("cosine similarity undefined for a zero vector")
    return float(np.mean(_dots(p, a) / (p_norms * a_norms)))


def kl_divergence(predicted: np.ndarray, actual: np.ndarray) -> float:
    p, a = _rows(predicted, actual)
    ratios = a / np.maximum(p, _KL_FLOOR)
    terms = np.zeros_like(a)
    mass = a > 0.0
    # math.log, not np.log: the two differ in the last ulp on some inputs.
    terms[mass] = [x * math.log(r) for x, r in zip(a[mass].tolist(), ratios[mass].tolist())]
    return float(np.mean(terms.sum(axis=1)))


def evaluate_policy(policy, env: BudgetEnv) -> tuple[MetricsReport, np.ndarray, RewardBreakdown]:
    """Score the policy's greedy actions on the env's episode states.

    ``policy`` is anything with an ``act(states) -> allocations`` method
    mapping a (T, 3) stack of states to (T, 2) simplex rows. Returns the
    report, the validated (T, 2) actions and their per-step rewards from
    ``env.episode_rewards``; row t is scored against ``env.empirical[t]``.
    """
    actions, rewards = env.episode_rewards(policy.act(env.states[:-1]))
    report = MetricsReport(
        mae=mae(actions, env.empirical),
        rmse=rmse(actions, env.empirical),
        cosine_similarity=cosine_similarity(actions, env.empirical),
        kl_divergence=kl_divergence(actions, env.empirical),
        n_quarters=len(actions),
    )
    return report, actions, rewards
