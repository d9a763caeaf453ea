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
the constructor builds per-step tables once, as array expressions over
the series' (n, 3) values: the scaled states, the empirical shares,
the belief vectors (a sequential running sum from the prior) and, in
the one per-step loop, the belief penalties. A series with a
non-positive rnd + sga in any quarter after the first raises DataError;
a belief vector or penalty that is not finite (a prior or confidence
near the float maximum) raises ContractError. The states, empirical
shares and belief vectors are published as read-only tables.

One reward helper, rewards(a, prev, t), scores validated actions
against the tables at one step, a slice of steps or an array of step
indices. An episode is open-loop (state t is the scaled quarter t,
whatever the actions), so no caller needs a step loop: training scores
each block of steps (a warmup block, which may run across episode
ends, or one actor step) with one rewards() call over its step
indices, and episode_rewards scores a stack of whole action sequences
(GA fitness, evaluation and trace.jsonl). reset()/step() take one
action at a time; no production code calls them. All of them give
the same terms bit for bit. Each action sequence is validated exactly
once: validate_action renormalizes, so a second pass could move the
last ulp. An action row has two shares, so validate_action,
clip_to_simplex and rewards take its two columns as views and add
them, where a reduction over the length-2 axis would run numpy's
reduce loop once per row for the same bits.

State vectors are float64 arrays laid out [rnd, sga, net_income] in
scaled units; actions and empirical allocations are length-2 simplex
arrays [rnd_share, sga_share].
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_jsonl
from .data_ingest import FinancialSeries, ScalerParams
from .errors import ContractError, DataError
from .special_functions import dirichlet_kl

__all__ = [
    "RewardConfig",
    "BeliefConfig",
    "RewardBreakdown",
    "StepResult",
    "BudgetEnv",
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
            raise ContractError("penalty weights must be non-negative")


@dataclass(frozen=True)
class BeliefConfig:
    prior: tuple[float, ...] = (5.0, 3.0)
    confidence: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "prior", tuple(float(p) for p in self.prior))
        if len(self.prior) != 2:
            raise ContractError(
                "this environment models exactly two budget categories; "
                f"prior has {len(self.prior)}"
            )
        if any(p <= 0 for p in self.prior):
            raise ContractError("prior concentrations must be positive")
        if self.confidence < 0:
            raise ContractError("confidence must be non-negative")


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


def validate_action(action: np.ndarray) -> np.ndarray:
    """Accept near-simplex action rows, renormalizing float drift only.

    action is one (2,) row or any (..., 2) stack of rows, each checked
    and renormalized on its own. A component below -ACTION_TOLERANCE or
    a row sum further than ACTION_TOLERANCE from 1 indicates a logic bug
    in the caller and raises ContractError.
    """
    a = np.asarray(action, dtype=np.float64)
    if a.ndim < 1 or a.shape[-1] != 2:
        raise ContractError(f"action rows must have 2 components, got shape {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ContractError("action contains non-finite components")
    a0, a1 = a[..., 0], a[..., 1]
    off = (np.minimum(a0, a1) < -ACTION_TOLERANCE) | (np.abs(a0 + a1 - 1.0) > ACTION_TOLERANCE)
    if np.logical_or.reduce(off, axis=None):
        row = a.reshape(-1, 2)[np.flatnonzero(off)[0]]
        raise ContractError(f"action {row.tolist()} is off the simplex beyond {ACTION_TOLERANCE}")
    a = np.maximum(a, 0.0)  # np.clip(a, 0.0, None) is this very ufunc call
    return a / (a[..., :1] + a[..., 1:])


def clip_to_simplex(vec: np.ndarray) -> np.ndarray:
    """Project each row of a (..., 2) stack to the simplex.

    Each row is clamped to [0, 1] and renormalized; a row whose clamped
    sum is zero becomes uniform.
    """
    # The bits of v.clip(0.0, 1.0), the sign of zero included, without its wrapper.
    v = np.minimum(np.maximum(0.0, np.asarray(vec, dtype=np.float64)), 1.0)
    sums = v[..., :1] + v[..., 1:]
    out = np.empty_like(v)
    out.fill(0.5)
    # A NaN row is not degenerate: it stays NaN for the caller's finiteness checks.
    return np.divide(v, sums, out=out, where=~(sums <= 0.0))


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
        values = series.values
        # Read-only (n, 3) scaled quarters: state t is row t.
        self.states = scaler.scale(values)
        self.states.flags.writeable = False
        totals = values[1:, 0] + values[1:, 1]
        bad = np.flatnonzero(~(totals > 0))
        if bad.size:
            raise DataError(f"quarter {series.periods[bad[0] + 1]}: rnd + sga is not positive")
        # Read-only (T, 2) realized shares: action t is scored against row t.
        self.empirical = values[1:, :2] / totals[:, None]
        self.empirical.flags.writeable = False
        self._prior = np.array(self.belief_config.prior)
        # Read-only (T, 2) beliefs: row t is the belief after step t. An
        # overflow to inf fails dirichlet_kl below.
        with np.errstate(over="ignore"):
            self.alphas = np.add.accumulate(
                np.vstack([self._prior, self.belief_config.confidence * self.empirical])
            )[1:]
        self.alphas.flags.writeable = False
        self._belief_terms = np.empty(len(self.alphas))
        for t, alpha in enumerate(self.alphas):
            try:
                term = -self.reward_config.lambda2 * dirichlet_kl(alpha, self._prior)
            except OverflowError as exc:  # fsum of concentrations near the float maximum
                raise ContractError(f"belief at step {t} overflows: {exc}") from exc
            if not math.isfinite(term):
                raise ContractError(f"belief penalty at step {t} is not finite: {term}")
            self._belief_terms[t] = term
        self._t: int | None = None
        self._prev_action = UNIFORM_ACTION.copy()

    @property
    def done(self) -> bool:
        return self._t is not None and self._t >= len(self.empirical)

    def reset(self) -> np.ndarray:
        self._t = 0
        self._prev_action = UNIFORM_ACTION.copy()
        return self.states[0].copy()

    def step(self, action: np.ndarray) -> StepResult:
        if self._t is None:
            raise ContractError("step() before reset()")
        if self.done:
            raise ContractError("step() after the episode finished")
        a = validate_action(action)
        t = self._t
        reward = self.rewards(a, self._prev_action, t)
        self._prev_action = a
        self._t = t + 1
        return StepResult(self.states[self._t].copy(), reward, self.done, a)

    def episode_rewards(self, actions: np.ndarray) -> tuple[np.ndarray, RewardBreakdown]:
        """Validated actions and per-step rewards of a (..., T, 2) stack of action sequences.

        Action t of a sequence is the one taken at step t. The accuracy,
        smoothness and total terms are (..., T) arrays, the belief term
        the (T,) table they share; each equals, bit for bit, the one
        step() gives when a reset env takes the same actions.
        """
        a = validate_action(actions)
        if a.shape[-2:] != self.empirical.shape:
            raise ContractError(
                f"expected actions of shape (..., {len(self.empirical)}, 2), got {a.shape}"
            )
        first = np.broadcast_to(UNIFORM_ACTION, (*a.shape[:-2], 1, 2))
        prev = np.concatenate([first, a[..., :-1, :]], axis=-2)
        return a, self.rewards(a, prev, slice(None))

    def rewards(
        self, a: np.ndarray, prev: np.ndarray, t: int | slice | np.ndarray
    ) -> RewardBreakdown:
        """The reward terms of validated actions a after prev, at step(s) t of the tables.

        a and prev are one (2,) action or stacks whose (..., k, 2) rows
        line up with the k steps that the slice or index array t
        selects. The smoothness norm
        goes through the (1, 2) @ (2, 1) ddot that np.linalg.norm calls,
        so one action and a stack give the same bits.
        """
        gaps = np.abs(a - self.empirical[t])
        accuracy = -(gaps[..., 0] + gaps[..., 1])
        moves = a - prev
        norms = np.sqrt((moves[..., None, :] @ moves[..., :, None])[..., 0, 0])
        smoothness = -self.reward_config.lambda1 * norms
        belief = self._belief_terms[t]
        return RewardBreakdown(accuracy, smoothness, belief, accuracy + smoothness + belief)


def write_trace(
    env: BudgetEnv, actions: np.ndarray, rewards: RewardBreakdown, path: str | Path
) -> None:
    """One JSON line per step of the (T, 2) actions and rewards of env.episode_rewards."""
    rows = zip(
        actions.tolist(), env.empirical.tolist(), env.alphas.tolist(),
        rewards.accuracy_term.tolist(), rewards.smoothness_term.tolist(),
        rewards.belief_term.tolist(), rewards.total.tolist(),
        strict=True,
    )
    write_jsonl(path, (
        {"t": t, "action": action, "empirical": empirical, "alpha": alpha,
         "reward_terms": {"accuracy": accuracy, "smoothness": smoothness,
                          "belief": belief, "total": total}}
        for t, (action, empirical, alpha, accuracy, smoothness, belief, total) in enumerate(rows)
    ))
