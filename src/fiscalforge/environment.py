"""Sequential budget-allocation decision process over a quarterly series.

Each step the agent sees the scaled indicators of quarter t, commits a
two-way split of the budget between R&D and SG&A, and is scored against
the split the data actually realized in quarter t+1. The reward is a
sum of three penalties, so it is never positive:

  accuracy    -||a_t - empirical_t||_1
  smoothness  -lambda1 * ||a_t - a_{t-1}||_2       (a_{-1} is uniform)
  belief      -lambda2 * KL(Dir(alpha_t) || Dir(alpha_prior))

The belief vector is updated first (alpha += confidence * empirical),
then the divergence against the fixed prior is charged. Episodes run
for exactly len(series) - 1 steps. An instance is single-threaded;
independent instances over the same series may run in parallel.

Nothing but the two action-dependent terms depends on the policy, so
the constructor builds per-step tables once: the scaled states, the
empirical shares, the belief vectors (by the same sequential
update_belief loop) and the belief penalties. A series with a
non-positive rnd + sga in any quarter after the first raises DataError
there; a belief vector or penalty that is not finite (a prior or
confidence near the float maximum) raises DomainError. step(), the
path training takes, validates one action, computes the accuracy and
smoothness terms and reads the rest from the tables. A greedy episode
is open-loop (state t is the scaled quarter t, whatever the actions),
so GA fitness, evaluation and trace.jsonl need no step loop:
episode_rewards scores a stack of action sequences taken on
episode_states with step()'s arithmetic, bit for bit. Each action
sequence is validated exactly once: validate_action renormalizes, so a
second pass could move the last ulp.

State vectors are float64 arrays laid out [rnd, sga, net_income] in
scaled units; actions and empirical allocations are length-2 simplex
arrays [rnd_share, sga_share].
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_ingest import FinancialSeries, ScalerParams
from .errors import ContractError, DataError, DomainError, SequenceError, ShapeError
from .special_functions import dirichlet_kl

__all__ = [
    "RewardConfig",
    "BeliefConfig",
    "RewardBreakdown",
    "StepResult",
    "BudgetEnv",
    "empirical_allocation",
    "update_belief",
    "validate_action",
    "clip_to_simplex",
    "write_trace",
]

UNIFORM_ACTION = np.array([0.5, 0.5])
ACTION_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RewardConfig:
    lambda1: float = 0.1
    lambda2: float = 0.01

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise DomainError("penalty weights must be non-negative")


@dataclass(frozen=True)
class BeliefConfig:
    prior: tuple[float, ...] = (5.0, 3.0)
    confidence: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        if len(self.prior) != 2:
            raise DomainError(
                "this environment models exactly two budget categories; "
                f"prior has {len(self.prior)}"
            )
        if any(p <= 0 for p in self.prior):
            raise DomainError("prior concentrations must be positive")
        if self.confidence < 0:
            raise DomainError("confidence must be non-negative")


@dataclass(frozen=True)
class RewardBreakdown:
    accuracy_term: float | np.ndarray
    smoothness_term: float | np.ndarray
    belief_term: float | np.ndarray
    total: float | np.ndarray


@dataclass(frozen=True)
class StepResult:
    next_state: np.ndarray
    reward: RewardBreakdown
    done: bool
    action: np.ndarray


def empirical_allocation(series: FinancialSeries, t: int) -> np.ndarray:
    """Realized [rnd, sga] spending shares of quarter t+1, from raw values."""
    if t < 0 or t + 1 >= len(series):
        raise ContractError(f"quarter index {t} has no successor in a series of {len(series)}")
    rec = series[t + 1]
    total = rec.rnd + rec.sga
    if total <= 0:
        raise DataError(f"quarter {rec.period}: rnd + sga is not positive")
    return np.array([rec.rnd / total, rec.sga / total])


def update_belief(alpha: np.ndarray, empirical: np.ndarray, confidence: float) -> np.ndarray:
    """Conjugate evidence accumulation: alpha + confidence * empirical."""
    alpha = np.asarray(alpha, dtype=np.float64)
    empirical = np.asarray(empirical, dtype=np.float64)
    if alpha.shape != empirical.shape:
        raise ShapeError(f"belief shape {alpha.shape} vs evidence shape {empirical.shape}")
    return alpha + confidence * empirical


def validate_action(action: np.ndarray, tolerance: float = ACTION_TOLERANCE) -> np.ndarray:
    """Accept near-simplex action rows, renormalizing float drift only.

    action is one (2,) row or any (..., 2) stack of rows, each checked
    and renormalized on its own. A component below -tolerance or a row
    sum further than tolerance from 1 indicates a logic bug in the
    caller and raises ContractError.
    """
    a = np.asarray(action, dtype=np.float64)
    if a.ndim < 1 or a.shape[-1] != 2:
        raise ContractError(f"action rows must have 2 components, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractError("action contains non-finite components")
    off = np.any(a < -tolerance, axis=-1) | (np.abs(a.sum(axis=-1) - 1.0) > tolerance)
    if np.any(off):
        row = a.reshape(-1, 2)[np.flatnonzero(off)[0]]
        raise ContractError(f"action {row.tolist()} is off the simplex beyond {tolerance}")
    a = np.clip(a, 0.0, None)
    return a / a.sum(axis=-1, keepdims=True)


def clip_to_simplex(vec: np.ndarray) -> np.ndarray:
    """Project each row of a (..., 2) stack to the simplex.

    Each row is clamped to [0, 1] and renormalized; a row whose clamped
    sum is zero becomes uniform.
    """
    v = np.clip(np.asarray(vec, dtype=np.float64), 0.0, 1.0)
    sums = v.sum(axis=-1, keepdims=True)
    # A NaN row is not degenerate: it stays NaN for the caller's finiteness checks.
    return np.divide(v, sums, out=np.full_like(v, 0.5), where=~(sums <= 0.0))


class BudgetEnv:
    """Deterministic allocation environment over one immutable series."""

    def __init__(
        self,
        series: FinancialSeries,
        scaler: ScalerParams,
        reward: RewardConfig | None = None,
        belief: BeliefConfig | None = None,
    ):
        if len(series) < 2:
            raise DataError(f"need at least 2 quarters, got {len(series)}")
        self.reward_config = reward if reward is not None else RewardConfig()
        self.belief_config = belief if belief is not None else BeliefConfig()
        self._states = np.array(
            [
                [
                    scaler.scale_value("rnd", rec.rnd),
                    scaler.scale_value("sga", rec.sga),
                    scaler.scale_value("net_income", rec.net_income),
                ]
                for rec in series
            ]
        )
        self._prior = np.array(self.belief_config.prior)
        empirical, alphas, belief_terms = [], [], []
        alpha = self._prior
        for t in range(len(series) - 1):
            shares = empirical_allocation(series, t)
            alpha = update_belief(alpha, shares, self.belief_config.confidence)
            try:
                term = -self.reward_config.lambda2 * dirichlet_kl(alpha, self._prior)
            except OverflowError as exc:  # fsum of concentrations near the float maximum
                raise DomainError(f"belief at step {t} overflows: {exc}") from exc
            if not math.isfinite(term):
                raise DomainError(f"belief penalty at step {t} is not finite: {term}")
            empirical.append(shares)
            alphas.append(alpha)
            belief_terms.append(term)
        # Read-only (T, 2) realized shares: action t is scored against row t.
        self.empirical = np.array(empirical)
        self.empirical.flags.writeable = False
        self._alphas = np.array(alphas)
        self._belief_terms = belief_terms
        self._t: int | None = None
        self._prev_action = UNIFORM_ACTION.copy()

    @property
    def done(self) -> bool:
        return self._t is not None and self._t >= len(self.empirical)

    @property
    def alpha(self) -> np.ndarray:
        """Belief after the last step taken; the prior before the first."""
        if not self._t:
            return self._prior.copy()
        return self._alphas[self._t - 1].copy()

    def reset(self) -> np.ndarray:
        self._t = 0
        self._prev_action = UNIFORM_ACTION.copy()
        return self._states[0].copy()

    def step(self, action: np.ndarray) -> StepResult:
        if self._t is None:
            raise SequenceError("step() before reset()")
        if self.done:
            raise SequenceError("step() after the episode finished")
        a = validate_action(action)
        t = self._t
        empirical = self.empirical[t]

        accuracy = -float(np.abs(a - empirical).sum())
        smoothness = -self.reward_config.lambda1 * float(
            np.linalg.norm(a - self._prev_action)
        )
        belief = self._belief_terms[t]
        reward = RewardBreakdown(accuracy, smoothness, belief, accuracy + smoothness + belief)

        self._prev_action = a
        self._t = t + 1
        return StepResult(self._states[self._t].copy(), reward, self.done, a)

    @property
    def episode_states(self) -> np.ndarray:
        """The (T, 3) states of one episode in step order: state t is quarter t."""
        return self._states[:-1].copy()

    def episode_rewards(self, actions: np.ndarray) -> tuple[np.ndarray, RewardBreakdown]:
        """Validated actions and per-step rewards of a (..., T, 2) stack of action sequences.

        Action t of a sequence is the one taken at step t. The reward
        terms are (..., T) arrays, each step()'s arithmetic on the same
        values, the smoothness norm through the ddot that np.linalg.norm
        calls; so every term equals, bit for bit, the one step() gives
        when a reset env takes the same actions.
        """
        a = validate_action(actions)
        if a.shape[-2:] != self.empirical.shape:
            raise ContractError(
                f"expected actions of shape (..., {len(self.empirical)}, 2), got {a.shape}"
            )
        accuracy = -np.abs(a - self.empirical).sum(axis=-1)
        first = np.broadcast_to(UNIFORM_ACTION, (*a.shape[:-2], 1, 2))
        moves = a - np.concatenate([first, a[..., :-1, :]], axis=-2)
        norms = np.sqrt((moves[..., None, :] @ moves[..., :, None])[..., 0, 0])
        smoothness = -self.reward_config.lambda1 * norms
        belief = np.broadcast_to(self._belief_terms, accuracy.shape)
        total = accuracy + smoothness + belief
        return a, RewardBreakdown(accuracy, smoothness, belief, total)

    def episode_totals(self, actions: np.ndarray) -> np.ndarray:
        """Each sequence's episode_rewards totals, summed in step order from 0.0."""
        steps = self.episode_rewards(actions)[1].total
        totals = np.zeros(steps.shape[:-1])
        for t in range(steps.shape[-1]):
            totals += steps[..., t]
        return totals


def write_trace(
    env: BudgetEnv, actions: np.ndarray, rewards: RewardBreakdown, path: str | Path
) -> None:
    """One JSON line per step of the (T, 2) actions and rewards of env.episode_rewards."""
    rows = zip(
        actions.tolist(), env.empirical.tolist(), env._alphas.tolist(),
        rewards.accuracy_term.tolist(), rewards.smoothness_term.tolist(),
        rewards.belief_term.tolist(), rewards.total.tolist(),
        strict=True,
    )
    with Path(path).open("w", encoding="utf-8") as fh:
        for t, (action, empirical, alpha, accuracy, smoothness, belief, total) in enumerate(rows):
            record = {
                "t": t,
                "action": action,
                "empirical": empirical,
                "reward_terms": {
                    "accuracy": accuracy,
                    "smoothness": smoothness,
                    "belief": belief,
                    "total": total,
                },
                "alpha": alpha,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
