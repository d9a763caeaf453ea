"""Twin-critic deterministic policy-gradient training loop.

Standard twin-delayed machinery scaled to a desk-size environment:
a ring replay buffer, two critics regressed onto the clipped double
estimate (min of both target critics), an actor updated every
``actor_delay`` critic steps by ascending critic 1, and slowly tracking
target copies of all three networks. Exploration is Gaussian noise on
the actor output, re-projected onto the allocation simplex; the warmup
phase fills the buffer with uniform-random allocations.

The twin critics and their targets are each one (2, P) stack. An update
runs one forward pass per network, the twin critics as one stacked
pass: the target actor and the target critics for the regression
targets, the online critics for their loss, and, on actor steps, the
actor and critic 1 for the policy gradient. Every gradient is taken
from the cache of that one pass. The replay buffer is a preallocated
struct-of-arrays ring, so a minibatch is one index gather per field.

Updates are plain gradient steps so every operation here stays a pure
function of its arguments; training as a whole is a deterministic
function of (environment, config) including the seed.
"""

from dataclasses import dataclass

import numpy as np

from .environment import BudgetEnv, clip_to_simplex
from .errors import ContractError, NumericError, ShapeError
from .neural_core import (
    LINEAR,
    SIMPLEX,
    ActorPolicy,
    MlpSpec,
    _as_batch,
    _backward,
    _forward_cached,
    forward_actor,
    forward_batch,
    init_params,
)

__all__ = [
    "ReplayBuffer",
    "TD3Config",
    "TrainedPolicy",
    "smoothed_target_actions",
    "compute_targets",
    "critic_update",
    "actor_update",
    "soft_update",
    "train",
    "ACTOR_HIDDEN",
    "CRITIC_HIDDEN",
]

STATE_DIM = 3
ACTION_DIM = 2
ACTOR_HIDDEN = (64, 64)
CRITIC_HIDDEN = (64, 64)


def actor_spec() -> MlpSpec:
    return MlpSpec(STATE_DIM, ACTOR_HIDDEN, ACTION_DIM, SIMPLEX)


def critic_spec() -> MlpSpec:
    return MlpSpec(STATE_DIM + ACTION_DIM, CRITIC_HIDDEN, 1, LINEAR)


class ReplayBuffer:
    """Fixed-capacity ring of transitions, oldest evicted first.

    Each field is one preallocated array with a row per slot; the
    pages are touched only as the ring fills.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractError("capacity must be positive")
        self.capacity = capacity
        self._states = np.empty((capacity, STATE_DIM))
        self._actions = np.empty((capacity, ACTION_DIM))
        self._rewards = np.empty(capacity)
        self._next_states = np.empty((capacity, STATE_DIM))
        self._dones = np.empty(capacity, dtype=bool)
        self._size = 0
        self._cursor = 0

    def push(self, state: np.ndarray, action: np.ndarray, reward: float,
             next_state: np.ndarray, done: bool) -> None:
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = reward
        self._next_states[i] = next_state
        self._dones[i] = done
        self._cursor = (i + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """(states, actions, rewards, next_states, dones) of uniform draws."""
        if self._size == 0:
            raise ContractError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return (self._states[idx], self._actions[idx], self._rewards[idx],
                self._next_states[idx], self._dones[idx])


@dataclass(frozen=True)
class TD3Config:
    total_timesteps: int = 50_000
    gamma: float = 0.99
    tau: float = 0.005
    actor_delay: int = 2
    batch_size: int = 64
    buffer_capacity: int = 10_000
    exploration_sigma: float = 0.1
    target_noise_sigma: float = 0.2
    target_noise_clip: float = 0.5
    learning_rate: float = 1e-3
    warmup_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.total_timesteps < 1:
            raise ContractError("total_timesteps must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ContractError("gamma must lie in [0, 1)")
        if not 0.0 <= self.tau <= 1.0:
            raise ContractError("tau must lie in [0, 1]")
        if self.actor_delay < 1 or self.batch_size < 1 or self.buffer_capacity < 1:
            raise ContractError("actor_delay, batch_size, buffer_capacity must be positive")
        if self.batch_size > self.buffer_capacity:
            raise ContractError(
                f"batch_size {self.batch_size} exceeds buffer_capacity {self.buffer_capacity}: "
                "no update would ever run"
            )
        if min(self.exploration_sigma, self.target_noise_sigma,
               self.target_noise_clip, self.learning_rate) < 0:
            raise ContractError("rates and noise scales must be non-negative")
        if self.warmup_steps < 0:
            raise ContractError("warmup_steps must be non-negative")


@dataclass(frozen=True)
class TrainedPolicy(ActorPolicy):
    """Actor policy plus its per-episode rewards and the other trained networks."""

    episode_rewards: tuple[float, ...]
    aux_params: dict[str, np.ndarray]
    critic_spec: MlpSpec


def smoothed_target_actions(
    params: np.ndarray,
    spec: MlpSpec,
    next_states: np.ndarray,
    sigma: float,
    clip: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Target-actor outputs plus clipped Gaussian noise, back on the simplex.

    One noise draw per row; each row is projected by clip_to_simplex.
    """
    a = forward_batch(params, spec, next_states)
    noise = np.clip(rng.normal(0.0, sigma, size=a.shape), -clip, clip)
    return clip_to_simplex(a + noise)


def compute_targets(
    actor_target: np.ndarray,
    critic_targets: np.ndarray,
    actor: MlpSpec,
    critic: MlpSpec,
    rewards: np.ndarray,
    next_states: np.ndarray,
    dones: np.ndarray,
    config: TD3Config,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bootstrapped regression targets with the clipped double estimate.

    r + gamma * min_k Q_k'(s', a') over the (K, P) target-critic stack,
    at the smoothed target action a', or r alone where the episode ended.
    """
    next_actions = smoothed_target_actions(
        actor_target, actor, next_states,
        config.target_noise_sigma, config.target_noise_clip, rng,
    )
    next_x = np.concatenate([next_states, next_actions], axis=1)
    q_next = forward_batch(critic_targets, critic, next_x)[..., 0].min(axis=0)
    return np.where(dones, rewards, rewards + config.gamma * q_next)


def critic_update(
    critics: np.ndarray,
    spec: MlpSpec,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    learning_rate: float,
) -> tuple[np.ndarray, float]:
    """One mean-squared-error descent step per critic of a (K, P) stack; returns mean loss."""
    x = _as_batch(spec, np.concatenate([states, actions], axis=1))
    n = x.shape[0]
    if n == 0:
        raise ContractError("empty batch")
    y = np.asarray(targets, dtype=np.float64).reshape(n, 1)
    pred, cache = _forward_cached(critics, spec, x)
    err = pred - y
    losses = (err * err).mean(axis=(-2, -1))
    if not np.all(np.isfinite(losses)):
        raise NumericError("critic loss diverged to a non-finite value")
    grad, _ = _backward(spec, cache, 2.0 * err / n)
    return critics - learning_rate * grad, float(losses.mean())


def actor_update(
    actor_params: np.ndarray,
    actor: MlpSpec,
    critic1_params: np.ndarray,
    critic: MlpSpec,
    states: np.ndarray,
    learning_rate: float,
) -> np.ndarray:
    """One ascent step on the batch mean of critic 1 at the actor's actions.

    The gradient reaches the actor through the action slice of the
    critic's input; critic parameters stay fixed.
    """
    states = _as_batch(actor, states)
    n = states.shape[0]
    actions, actor_cache = _forward_cached(actor_params, actor, states)
    x = _as_batch(critic, np.concatenate([states, actions], axis=1))
    _, critic_cache = _forward_cached(critic1_params, critic, x)
    _, input_grad = _backward(critic, critic_cache, np.full((n, 1), 1.0 / n))
    action_grad = input_grad[:, states.shape[1]:]
    actor_grad, _ = _backward(actor, actor_cache, action_grad)
    if not np.all(np.isfinite(actor_grad)):
        raise NumericError("actor gradient is non-finite")
    return actor_params + learning_rate * actor_grad


def soft_update(target_params: np.ndarray, online_params: np.ndarray, tau: float) -> np.ndarray:
    """Exponential tracking: (1 - tau) * target + tau * online."""
    target_params = np.asarray(target_params, dtype=np.float64)
    online_params = np.asarray(online_params, dtype=np.float64)
    if target_params.shape != online_params.shape:
        raise ShapeError("target and online parameter layouts differ")
    return (1.0 - tau) * target_params + tau * online_params


def train(env: BudgetEnv, config: TD3Config) -> TrainedPolicy:
    """Run episodes back-to-back until the timestep budget is spent."""
    a_spec = actor_spec()
    c_spec = critic_spec()
    actor = init_params(a_spec, config.seed)
    critics = np.stack([init_params(c_spec, config.seed + k) for k in (1, 2)])
    actor_t, critics_t = actor.copy(), critics.copy()
    rng = np.random.default_rng(config.seed + 3)

    buffer = ReplayBuffer(config.buffer_capacity)
    episode_rewards: list[float] = []
    episode_total = 0.0
    n_critic_updates = 0

    state = env.reset()
    for step in range(1, config.total_timesteps + 1):
        if step <= config.warmup_steps:
            action = rng.dirichlet([1.0, 1.0])
        else:
            noise = rng.normal(0.0, config.exploration_sigma, size=ACTION_DIM)
            action = clip_to_simplex(forward_actor(actor, a_spec, state) + noise)
        result = env.step(action)
        buffer.push(state, result.action, result.reward.total,
                    result.next_state, result.done)
        episode_total += result.reward.total
        state = result.next_state
        if result.done:
            episode_rewards.append(float(episode_total))
            episode_total = 0.0
            state = env.reset()

        if step <= config.warmup_steps or len(buffer) < config.batch_size:
            continue

        states, actions, rewards, next_states, dones = buffer.sample(config.batch_size, rng)
        targets = compute_targets(
            actor_t, critics_t, a_spec, c_spec, rewards, next_states, dones, config, rng,
        )

        critics, _ = critic_update(critics, c_spec, states, actions, targets, config.learning_rate)
        n_critic_updates += 1

        if n_critic_updates % config.actor_delay == 0:
            actor = actor_update(actor, a_spec, critics[0], c_spec, states, config.learning_rate)
            actor_t = soft_update(actor_t, actor, config.tau)
            critics_t = soft_update(critics_t, critics, config.tau)

    return TrainedPolicy(
        spec=a_spec,
        params=actor,
        episode_rewards=tuple(episode_rewards),
        aux_params={
            "critic1": critics[0],
            "critic2": critics[1],
            "actor_target": actor_t,
            "critic1_target": critics_t[0],
            "critic2_target": critics_t[1],
        },
        critic_spec=c_spec,
    )
