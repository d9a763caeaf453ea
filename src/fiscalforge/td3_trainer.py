"""Twin-critic deterministic policy-gradient training loop.

Standard twin-delayed machinery scaled to a desk-size environment:
a ring replay buffer, two critics regressed onto the clipped double
estimate (min of both target critics), an actor updated every
``actor_delay`` critic steps by ascending critic 1, and slowly tracking
target copies of all three networks. Exploration is Gaussian noise on
the actor output, re-projected onto the allocation simplex; the warmup
phase fills the buffer with uniform-random allocations.

The environment is open-loop (state t is quarter t, whatever the
actions), so training reads the env's tables and never steps it.
Episodes run back to back, so run step s is episode step s % T, and
actions are taken in blocks, each validated, scored and pushed once:
the warmup in blocks of at most buffer_capacity steps that run across
episode ends, each one Dirichlet draw (the same stream as one draw per
step), and after it one actor step per block. An episode's total is
closed at its last step index. The replay ring holds each transition's
step index, action and reward; a minibatch reads its states from the
env's tables.

The actor and the (2, P) twin critics are views of one flat online
buffer, their targets views of one flat target buffer of the same
layout. train splits each network into its unflatten views once and
keeps them valid by writing only in place: the critic and actor steps
into their parameter and gradient buffers (``Trainable``), soft_update
into the target buffer, and the minibatch into two preallocated
(batch, 5) critic-input buffers. An update runs one forward pass per
network, the twin critics as one stacked pass: the target actor and
critics for the regression targets, the online critics for their loss,
and, on actor steps, the actor and critic 1 for the policy gradient.
Each backward pass runs from its forward pass's cache and computes only
what its step reads. Training is deterministic given (env, config).
"""

from dataclasses import dataclass

import numpy as np

from .environment import UNIFORM_ACTION, BudgetEnv, clip_to_simplex, validate_action
from .errors import ContractError, NumericError
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
    unflatten,
)

__all__ = [
    "ReplayBuffer",
    "TD3Config",
    "TrainedPolicy",
    "Trainable",
    "smoothed_target_actions",
    "compute_targets",
    "critic_update",
    "actor_update",
    "soft_update",
    "train",
    "ACTOR_SPEC",
    "CRITIC_SPEC",
]

STATE_DIM = 3
ACTION_DIM = 2
ACTOR_SPEC = MlpSpec(STATE_DIM, (64, 64), ACTION_DIM, SIMPLEX)
CRITIC_SPEC = MlpSpec(STATE_DIM + ACTION_DIM, (64, 64), 1, LINEAR)


class ReplayBuffer:
    """Fixed-capacity ring of (step index, action, reward) transitions, oldest evicted first.

    Each field is one preallocated array with a row per slot; the
    pages are touched only as the ring fills.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractError("capacity must be positive")
        self.capacity = capacity
        # steps, actions, rewards
        self._fields = (np.empty(capacity, dtype=np.intp), np.empty((capacity, ACTION_DIM)),
                        np.empty(capacity))
        self._size = 0
        self._cursor = 0

    def push(self, steps: np.ndarray, actions: np.ndarray, rewards: np.ndarray) -> None:
        """Append a (k, ...) block of transitions in order, as k single pushes would.

        A block longer than the capacity keeps only its last capacity rows.
        """
        k = len(rewards)
        skip = max(k - self.capacity, 0)
        start = (self._cursor + skip) % self.capacity
        rows = k - skip
        first = min(rows, self.capacity - start)
        for dst, src in zip(self._fields, (steps, actions, rewards)):
            dst[start:start + first] = src[skip:skip + first]
            if first < rows:  # the block wraps past the end of the ring
                dst[:rows - first] = src[skip + first:]
        self._cursor = (start + rows) % self.capacity
        self._size = min(self._size + rows, self.capacity)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """(steps, actions, rewards) of uniform draws."""
        if self._size == 0:
            raise ContractError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return tuple(field[idx] for field in self._fields)


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
        if self.actor_delay < 1 or self.batch_size < 1 or not 0 < self.buffer_capacity < 2**31:
            raise ContractError("need actor_delay, batch_size >= 1, 0 < buffer_capacity < 2**31")
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
    aux_params: dict[str, tuple[MlpSpec, np.ndarray]]  # name -> (spec, params)


class Trainable:
    """A network's flat (..., P) parameters and a gradient buffer of their shape, each
    split into unflatten views once; the update steps write both only in place."""

    def __init__(self, params: np.ndarray, spec: MlpSpec):
        self.spec, self.params, self.grad = spec, params, np.empty_like(params)
        self.layers, self.grad_layers = unflatten(params, spec), unflatten(self.grad, spec)


def smoothed_target_actions(
    params, spec: MlpSpec, next_states: np.ndarray, sigma: float, clip: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Target-actor outputs plus clipped Gaussian noise, back on the simplex.

    One noise draw per row; each row is projected by clip_to_simplex.
    params is the target actor's flat parameters or their unflatten views.
    """
    a = forward_batch(params, spec, next_states)
    noise = rng.normal(0.0, sigma, size=a.shape).clip(-clip, clip)
    return clip_to_simplex(a + noise)


def compute_targets(
    actor_target, critic_targets, actor: MlpSpec, critic: MlpSpec, rewards: np.ndarray,
    next_x: np.ndarray, dones: np.ndarray, config: TD3Config, rng: np.random.Generator,
) -> np.ndarray:
    """Bootstrapped regression targets with the clipped double estimate.

    r + gamma * min_k Q_k'(s', a') over the (K, P) target-critic stack,
    at the smoothed target action a', or r alone where the episode ended.
    Each target network is flat parameters or their unflatten views.
    next_x is an (n, critic.input_dim) buffer whose first actor.input_dim
    columns hold the next states s'; a' is written into the others.
    """
    d = actor.input_dim
    next_x[:, d:] = smoothed_target_actions(
        actor_target, actor, next_x[:, :d],
        config.target_noise_sigma, config.target_noise_clip, rng,
    )
    q_next = np.minimum.reduce(forward_batch(critic_targets, critic, next_x)[..., 0], axis=0)
    return np.where(dones, rewards, rewards + config.gamma * q_next)


def critic_update(
    critics: Trainable, x: np.ndarray, targets: np.ndarray, learning_rate: float
) -> None:
    """One mean-squared-error descent step per critic of a (K, P) stack, in place.

    x holds the (n, input_dim) critic inputs and targets their (n,)
    regression targets. Writes critics.params and critics.grad only.
    """
    spec = critics.spec
    n = len(_as_batch(spec, x))
    pred, cache = _forward_cached(critics.layers, spec, x)
    err = pred - targets.reshape(n, 1)
    _backward(spec, cache, 2.0 * err / n, critics.grad_layers, False)
    # A non-finite loss or gradient always leaves non-finite parameters.
    critics.grad *= learning_rate
    critics.params -= critics.grad
    if not np.isfinite(critics.params).all():
        raise NumericError("critic step left non-finite parameters")


def actor_update(
    actor: Trainable, critic1: list, critic: MlpSpec, x: np.ndarray, learning_rate: float
) -> None:
    """One ascent step on the batch mean of critic 1 at the actor's actions, in place.

    critic1 is critic 1's unflatten views, of spec critic. x is an (n,
    critic.input_dim) buffer whose first actor.spec.input_dim columns
    hold the states; the actor's actions are written into the others,
    and the gradient reaches the actor through them. Writes actor.params,
    actor.grad and x's action columns only.
    """
    n, d = len(_as_batch(critic, x)), actor.spec.input_dim
    x[:, d:], actor_cache = _forward_cached(actor.layers, actor.spec, x[:, :d])
    _, critic_cache = _forward_cached(critic1, critic, x)
    input_grad = _backward(critic, critic_cache, np.full((n, 1), 1.0 / n), None, True)
    _backward(actor.spec, actor_cache, input_grad[:, d:], actor.grad_layers, False)
    actor.grad *= learning_rate
    actor.params += actor.grad
    if not np.isfinite(actor.params).all():
        raise NumericError("actor step left non-finite parameters")


def soft_update(target_params: np.ndarray, online_params: np.ndarray, tau: float) -> np.ndarray:
    """Exponential tracking, in place: target = (1 - tau) * target + tau * online."""
    if target_params.shape != online_params.shape:
        raise ContractError("target and online parameter layouts differ")
    target_params *= 1.0 - tau
    target_params += tau * online_params
    return target_params


@np.errstate(over="ignore", invalid="ignore")
def train(env: BudgetEnv, config: TD3Config) -> TrainedPolicy:
    """Run episodes back-to-back until the timestep budget is spent.

    A NumericError raised in an update, or in the exploration action
    after it, is re-raised naming the update's index (counted from 1)
    and the network, critic or actor, that failed. Each update checks
    the parameters it writes, so a divergence is charged to the update
    that caused it; a non-finite target after the last update is
    reported the same way.
    numpy's overflow and invalid-value warnings are off: these checks
    report the failure instead.
    """
    n_actor = ACTOR_SPEC.param_count()

    def split(flat):
        """The actor and (2, P) twin-critic views of a flat parameter buffer."""
        return flat[:n_actor], flat[n_actor:].reshape(2, -1)

    online = np.concatenate([init_params(ACTOR_SPEC, config.seed)]
                            + [init_params(CRITIC_SPEC, config.seed + k) for k in (1, 2)])
    target = online.copy()
    actor, critics = map(Trainable, split(online), (ACTOR_SPEC, CRITIC_SPEC))
    critic1 = unflatten(critics.params[0], CRITIC_SPEC)
    actor_t, critics_t = map(unflatten, split(target), (ACTOR_SPEC, CRITIC_SPEC))
    # The critic inputs (state, action) of the minibatch and of its next states.
    x, next_x = np.empty((2, config.batch_size, CRITIC_SPEC.input_dim))
    rng = np.random.default_rng(config.seed + 3)

    buffer = ReplayBuffer(config.buffer_capacity)
    states = env.states
    n_steps = len(env.empirical)
    episode_rewards: list[float] = []
    episode_total = 0.0
    prev = UNIFORM_ACTION
    n_updates = 0
    network = "actor"  # the network a NumericError is charged to

    def take(ts: np.ndarray, a: np.ndarray) -> None:
        """Score, push and total the validated actions a taken at the episode steps ts."""
        nonlocal episode_total, prev
        prevs = np.concatenate([prev[None], a[:-1]])
        prevs[ts == 0] = UNIFORM_ACTION  # each episode starts after the uniform action
        totals = env.rewards(a, prevs, ts).total
        buffer.push(ts, a, totals)
        for t, total in zip(ts.tolist(), totals.tolist()):
            episode_total += total
            if t == n_steps - 1:
                episode_rewards.append(episode_total)
                episode_total = 0.0
        prev = a[-1]

    # Episodes run back to back, so step s is episode step s % n_steps. A
    # warmup block is at most the ring's size, the most of it the ring keeps.
    warmup = min(config.warmup_steps, config.total_timesteps)
    for start in range(0, warmup, config.buffer_capacity):
        ts = np.arange(start, min(start + config.buffer_capacity, warmup)) % n_steps
        take(ts, validate_action(rng.dirichlet([1.0, 1.0], size=len(ts))))

    try:
        for step in range(warmup, config.total_timesteps):
            t = step % n_steps
            noise = rng.normal(0.0, config.exploration_sigma, size=ACTION_DIM)
            a = clip_to_simplex(forward_actor(actor.layers, ACTOR_SPEC, states[t]) + noise)
            take(np.array([t]), validate_action(a[None]))
            if len(buffer) < config.batch_size:
                continue

            n_updates += 1
            network = "critic"
            ts, x[:, STATE_DIM:], rewards = buffer.sample(config.batch_size, rng)
            x[:, :STATE_DIM], next_x[:, :STATE_DIM] = states[ts], states[ts + 1]
            targets = compute_targets(actor_t, critics_t, ACTOR_SPEC, CRITIC_SPEC, rewards, next_x,
                                      ts + 1 == n_steps, config, rng)
            critic_update(critics, x, targets, config.learning_rate)
            network = "actor"

            if n_updates % config.actor_delay == 0:
                actor_update(actor, critic1, CRITIC_SPEC, x, config.learning_rate)
                soft_update(target, online, config.tau)
        finite = np.isfinite(online) & np.isfinite(target)
        if not finite.all():
            network = "critic" if finite[:n_actor].all() else "actor"
            raise NumericError("parameters are non-finite after the last update")
    except NumericError as exc:
        raise NumericError(f"update {n_updates}, {network}: {exc}") from exc

    actor_t, critics_t = split(target)
    return TrainedPolicy(
        spec=ACTOR_SPEC, params=actor.params, episode_rewards=tuple(episode_rewards),
        aux_params={
            "critic1": (CRITIC_SPEC, critics.params[0]),
            "critic2": (CRITIC_SPEC, critics.params[1]),
            "actor_target": (ACTOR_SPEC, actor_t),
            "critic1_target": (CRITIC_SPEC, critics_t[0]),
            "critic2_target": (CRITIC_SPEC, critics_t[1]),
        },
    )
