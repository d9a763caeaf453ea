"""Trainer mechanics: targets, noise, replay, updates, end-to-end runs."""

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiscalforge import neural_core, td3_trainer
from fiscalforge.data_ingest import chrono_split, fit_scaler, load_series
from fiscalforge.environment import (
    BeliefConfig,
    BudgetEnv,
    RewardConfig,
    clip_to_simplex,
    validate_action,
)
from fiscalforge.errors import ContractError, NumericError
from fiscalforge.neural_core import (
    MlpSpec,
    forward_batch,
    init_params,
    unflatten,
    vjp_batch,
)
from fiscalforge.td3_trainer import (
    ACTION_DIM,
    ACTOR_SPEC,
    CRITIC_SPEC,
    ReplayBuffer,
    TD3Config,
    Trainable,
    actor_update,
    compute_targets,
    critic_update,
    smoothed_target_actions,
    soft_update,
    train,
)

from conftest import FIXTURE_CSV, make_series, oracle_tables

SMALL_CRITIC = MlpSpec(5, (4,), 1, "linear")
SMALL_ACTOR = MlpSpec(3, (4,), 2, "simplex")


def _constant_critic(q):
    """Critic parameters with Q(s, a) = q exactly: zero weights, output bias q."""
    params = np.zeros(SMALL_CRITIC.param_count())
    params[-1] = q
    return params


def _targets(rewards, dones, critic1, critic2, gamma=0.99, seed=0):
    """compute_targets with a fixed target actor; next states come from seed + 100."""
    rewards = np.atleast_1d(np.asarray(rewards, dtype=np.float64))
    n = rewards.size
    next_x = np.empty((n, SMALL_CRITIC.input_dim))
    next_x[:, :3] = np.random.default_rng(seed + 100).normal(size=(n, 3))
    return compute_targets(
        init_params(SMALL_ACTOR, 3), np.stack([critic1, critic2]), SMALL_ACTOR, SMALL_CRITIC,
        rewards, next_x, np.broadcast_to(np.asarray(dones), (n,)),
        TD3Config(gamma=gamma), np.random.default_rng(seed),
    )


class TestComputeTarget:
    def test_direct_arithmetic(self):
        """0.1 + 0.99 * min(1.0, 0.5) = 0.595."""
        got = _targets([0.1], False, _constant_critic(1.0), _constant_critic(0.5))
        assert got[0] == pytest.approx(0.595)

    def test_terminal_cuts_bootstrap(self):
        got = _targets([-3.2], True, _constant_critic(10.0), _constant_critic(20.0))
        assert got[0] == -3.2

    def test_myopic_limit(self):
        got = _targets([0.7], False, _constant_critic(5.0), _constant_critic(9.0), gamma=0.0)
        assert got[0] == 0.7

    def test_symmetric_in_critics(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=100)
        c1 = rng.normal(0, 0.5, size=SMALL_CRITIC.param_count())
        c2 = rng.normal(0, 0.5, size=SMALL_CRITIC.param_count())
        np.testing.assert_array_equal(
            _targets(rewards, False, c1, c2, gamma=0.9),
            _targets(rewards, False, c2, c1, gamma=0.9),
        )

    def test_never_exceeds_either_bootstrap(self):
        rng = np.random.default_rng(1)
        rewards = rng.normal(size=100)
        critics = [rng.normal(0, 0.5, size=SMALL_CRITIC.param_count()) for _ in range(2)]
        y = _targets(rewards, False, *critics, gamma=0.95, seed=4)
        next_states = np.random.default_rng(104).normal(size=(100, 3))
        next_actions = smoothed_target_actions(
            init_params(SMALL_ACTOR, 3), SMALL_ACTOR, next_states, 0.2, 0.5,
            np.random.default_rng(4),
        )
        x = np.concatenate([next_states, next_actions], axis=1)
        for critic in critics:
            q = forward_batch(critic, SMALL_CRITIC, x)[:, 0]
            assert np.all(y <= rewards + 0.95 * q + 1e-12)


class _FixedNoise:
    """Stand-in generator returning a preset noise array."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def normal(self, loc, scale, size):
        return self.values


class TestSmoothedTargetAction:
    def _params(self, seed=3):
        return init_params(SMALL_ACTOR, seed)

    def test_zero_sigma_is_plain_actor_output(self):
        params = self._params()
        states = np.array([[0.2, 0.4, 0.6], [-1.0, 0.0, 2.0]])
        rng = np.random.default_rng(0)
        out = smoothed_target_actions(params, SMALL_ACTOR, states, 0.0, 0.5, rng)
        np.testing.assert_allclose(out, forward_batch(params, SMALL_ACTOR, states), atol=1e-15)

    def test_always_on_simplex(self):
        params = self._params()
        rng = np.random.default_rng(12)
        out = smoothed_target_actions(params, SMALL_ACTOR, rng.normal(size=(200, 3)),
                                      0.3, 0.5, rng)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(out >= 0.0)

    def test_noise_is_clipped_before_projection(self):
        """A +0.9 draw with clip 0.5 acts as +0.5."""
        params = self._params()
        states = np.array([[0.1, 0.1, 0.1]])
        base = forward_batch(params, SMALL_ACTOR, states)[0]
        got = smoothed_target_actions(params, SMALL_ACTOR, states, 1.0, 0.5,
                                      _FixedNoise([[0.9, 0.0]]))
        raw = np.clip(base + np.array([0.5, 0.0]), 0.0, 1.0)
        np.testing.assert_allclose(got[0], raw / raw.sum(), atol=1e-15)


def _block(first, k):
    """Transitions first .. first + k - 1: step i, action (i, 1), reward -i."""
    i = np.arange(first, first + k)
    return i, np.stack([i, np.ones(k)], axis=1), -i.astype(np.float64)


def _push(buf, i):
    buf.push(*_block(i, 1))


def _assert_same_ring(got, want, pushed):
    """got and want, each pushed transitions 0 .. pushed - 1, hold the same rows: equal len
    and samples, and after one more push each, so the cursors must agree too."""
    for check in range(2):
        assert len(got) == len(want) == min(pushed + check, want.capacity)
        if len(want):
            for got_field, want_field in zip(got.sample(200, np.random.default_rng(check)),
                                             want.sample(200, np.random.default_rng(check))):
                np.testing.assert_array_equal(got_field, want_field)
        _push(got, pushed)
        _push(want, pushed)


class TestReplayBuffer:
    def test_eviction_keeps_most_recent(self):
        buf = ReplayBuffer(capacity=5)
        for i in range(8):
            _push(buf, i)
        assert len(buf) == 5
        # 500 seeded draws over 5 rows: each slot is drawn, none outside.
        steps, actions, rewards = buf.sample(500, np.random.default_rng(0))
        assert sorted(set(steps.tolist())) == [3, 4, 5, 6, 7]
        np.testing.assert_array_equal(rewards, -steps)
        np.testing.assert_array_equal(actions[:, 0], steps)

    def test_size_never_exceeds_capacity(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(10):
            _push(buf, i)
            assert len(buf) <= 3

    def test_sampling_deterministic(self):
        buf = ReplayBuffer(capacity=16)
        for i in range(16):
            _push(buf, i)
        a = buf.sample(8, np.random.default_rng(5))
        b = buf.sample(8, np.random.default_rng(5))
        assert a[2].tolist() == b[2].tolist()
        # Each gathered row is one whole transition.
        steps, actions, rewards = a
        assert steps.dtype == np.intp
        np.testing.assert_array_equal(steps, -rewards)
        np.testing.assert_array_equal(actions, np.stack([steps, np.ones(8)], axis=1))

    def test_empty_sample_rejected(self):
        with pytest.raises(ContractError):
            ReplayBuffer(4).sample(2, np.random.default_rng(0))

    @settings(max_examples=25, deadline=None)
    @given(capacity=st.integers(1, 6), before=st.integers(0, 10), data=st.data())
    def test_block_push_equals_single_pushes(self, capacity, before, data):
        """A (k, ...) block that ends at or before the last slot lands as k single pushes would."""
        k = data.draw(st.integers(0, capacity - before % capacity), label="k")
        single, block = ReplayBuffer(capacity), ReplayBuffer(capacity)
        for buf in (single, block):
            for i in range(before):
                _push(buf, i)
        for i in range(before, before + k):
            _push(single, i)
        block.push(*_block(before, k))
        _assert_same_ring(block, single, before + k)

    @settings(max_examples=25, deadline=None)
    @given(capacity=st.integers(1, 6), before=st.integers(0, 10), data=st.data())
    def test_block_past_the_last_slot_is_rejected_unwritten(self, capacity, before, data):
        """A block that would run past the last slot raises ContractError before
        any field is written: len, every later sample and the cursor are unchanged."""
        k = data.draw(st.integers(capacity - before % capacity + 1, 2 * capacity + 1), label="k")
        rejected, kept = ReplayBuffer(capacity), ReplayBuffer(capacity)
        for buf in (rejected, kept):
            for i in range(before):
                _push(buf, i)
        with pytest.raises(ContractError, match="overrun a ring"):
            rejected.push(*_block(100, k))
        _assert_same_ring(rejected, kept, before)


@pytest.mark.parametrize("k", [1, 2, 7, 777])
def test_batched_dirichlet_is_the_single_draw_stream(k):
    """Warmup draws a block's k actions at once: the same rows as k single
    draws, leaving the generator in the same state."""
    batched, single = np.random.default_rng(17), np.random.default_rng(17)
    block = batched.dirichlet([1.0, 1.0], size=k)
    np.testing.assert_array_equal(block, [single.dirichlet([1.0, 1.0]) for _ in range(k)])
    assert batched.bit_generator.state == single.bit_generator.state


def _batch(rng, n=6):
    states = rng.normal(size=(n, 3))
    actions = rng.dirichlet([1.0, 1.0], size=n)
    return states, actions


def _critic_step(critics, states, actions, targets, lr):
    """critic_update on a copy of a (K, P) critic stack; returns the updated copy."""
    net = Trainable(np.array(critics, dtype=np.float64), SMALL_CRITIC)
    critic_update(net, np.concatenate([states, actions], axis=1), targets, lr)
    return net.params


def _loss(critic, states, actions, targets):
    """Mean squared error of one critic against its regression targets."""
    x = np.concatenate([states, actions], axis=1)
    return float(((forward_batch(critic, SMALL_CRITIC, x)[:, 0] - targets) ** 2).mean())


def _actor_step(actor, critic1, states, lr):
    """actor_update on a copy of the actor, ascending critic1; returns the updated copy."""
    net = Trainable(actor.copy(), SMALL_ACTOR)
    x = np.concatenate([states, np.zeros((len(states), ACTION_DIM))], axis=1)
    actor_update(net, unflatten(critic1, SMALL_CRITIC), SMALL_CRITIC, x, lr)
    return net.params


class TestCriticUpdate:
    def test_stationary_at_exact_targets(self):
        rng = np.random.default_rng(2)
        params = init_params(SMALL_CRITIC, 2)
        states, actions = _batch(rng)
        x = np.concatenate([states, actions], axis=1)
        targets = forward_batch(params, SMALL_CRITIC, x)[:, 0]
        (updated,) = _critic_step(params[None], states, actions, targets, 0.1)
        np.testing.assert_array_equal(updated, params)

    def test_zero_learning_rate(self):
        rng = np.random.default_rng(3)
        params = init_params(SMALL_CRITIC, 3)
        states, actions = _batch(rng)
        (updated,) = _critic_step(params[None], states, actions, rng.normal(size=6), 0.0)
        np.testing.assert_array_equal(updated, params)

    def test_single_transition_loss_decreases(self):
        rng = np.random.default_rng(4)
        params = init_params(SMALL_CRITIC, 4)
        states, actions = _batch(rng, n=1)
        targets = np.array([-2.0])
        (updated,) = _critic_step(params[None], states, actions, targets, 0.05)
        assert _loss(updated, states, actions, targets) < _loss(params, states, actions, targets)

    def test_both_critics_updated_independently(self):
        rng = np.random.default_rng(5)
        p1, p2 = init_params(SMALL_CRITIC, 6), init_params(SMALL_CRITIC, 7)
        states, actions = _batch(rng)
        u1, u2 = _critic_step(np.stack([p1, p2]), states, actions, rng.normal(size=6), 0.01)
        assert np.any(u1 != p1) and np.any(u2 != p2)
        assert np.any(u1 != u2)

    def test_stack_matches_each_critic_alone(self):
        """Each row of a stacked update equals a one-critic update of that row."""
        rng = np.random.default_rng(9)
        critics = np.stack([init_params(SMALL_CRITIC, seed) for seed in (11, 12, 13)])
        states, actions = _batch(rng, n=17)
        targets = rng.normal(size=17)
        updated = _critic_step(critics, states, actions, targets, 0.01)
        for row, row_updated in zip(critics, updated):
            (alone,) = _critic_step(row[None], states, actions, targets, 0.01)
            np.testing.assert_array_equal(row_updated, alone)


# Finite values with signed zeros and subnormals among them.
_EDGY_FLOATS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
)


@st.composite
def _actor_cases(draw):
    """A small actor, critic 1 of the matching input width, states and a learning rate."""
    actor = MlpSpec(3, (draw(st.integers(1, 4)),), 2, "simplex")
    critic = MlpSpec(5, (draw(st.integers(1, 4)),), 1, "linear")
    n = draw(st.integers(1, 5))

    def vector(size):
        return np.array(draw(st.lists(_EDGY_FLOATS, min_size=size, max_size=size)))

    states = vector(3 * n).reshape(n, 3)
    lr = draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0]))
    return actor, vector(actor.param_count()), critic, vector(critic.param_count()), states, lr


def _signed_zero_biases():
    """An actor with -0.0 biases under a zero critic: every gradient is a sum that cancels."""
    actor = init_params(SMALL_ACTOR, 1)
    for _, b in unflatten(actor, SMALL_ACTOR):
        b[:] = -0.0
    states = np.random.default_rng(0).normal(size=(3, 3))
    return SMALL_ACTOR, actor, SMALL_CRITIC, np.zeros(SMALL_CRITIC.param_count()), states, 0.1


class TestActorUpdate:
    def test_zero_learning_rate(self):
        rng = np.random.default_rng(6)
        actor = init_params(SMALL_ACTOR, 8)
        critic = init_params(SMALL_CRITIC, 9)
        states = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(_actor_step(actor, critic, states, 0.0), actor)

    def test_gradient_matches_finite_differences(self):
        """Ascent direction equals d/dtheta of batch-mean Q1(s, pi(s))."""
        rng = np.random.default_rng(7)
        actor = rng.normal(0, 0.5, size=SMALL_ACTOR.param_count())
        critic = rng.normal(0, 0.5, size=SMALL_CRITIC.param_count())
        states = rng.normal(size=(4, 3))

        def objective(theta):
            acts = forward_batch(theta, SMALL_ACTOR, states)
            x = np.concatenate([states, acts], axis=1)
            return float(forward_batch(critic, SMALL_CRITIC, x).mean())

        lr = 1.0
        analytic = _actor_step(actor, critic, states, lr) - actor
        h = 1e-5
        numeric = np.zeros_like(actor)
        for j in range(actor.size):
            plus, minus = actor.copy(), actor.copy()
            plus[j] += h
            minus[j] -= h
            numeric[j] = (objective(plus) - objective(minus)) / (2 * h)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err <= 1e-3

    def test_constant_critic_leaves_actor_unchanged(self):
        rng = np.random.default_rng(8)
        actor = init_params(SMALL_ACTOR, 10)
        constant_critic = np.zeros(SMALL_CRITIC.param_count())  # Q(s, a) = 0
        states = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(_actor_step(actor, constant_critic, states, 0.5), actor)

    @settings(max_examples=60, deadline=None)
    @given(case=_actor_cases())
    @example(case=_signed_zero_biases())
    def test_descent_on_minus_q1_is_the_oracle_ascent_bit_for_bit(self, case):
        """actor_update descends -Q1 by the negated step; the oracle adds lr * grad of
        Q1 from vjp_batch. The bits agree, signed zeros and subnormals included.

        Both read the states through x's strided view: with a 1-wide hidden
        layer, numpy's (1, n) @ (n, 3) product can round a strided operand
        differently in the last bit from a contiguous one, which is layout, not sign.
        """
        actor_spec, actor, critic_spec, critic, states, lr = case
        x = np.concatenate([states, np.zeros((len(states), ACTION_DIM))], axis=1)
        want = _oracle_actor_update(actor, actor_spec, critic, critic_spec, x[:, :3], lr)
        net = Trainable(actor.copy(), actor_spec)
        actor_update(net, unflatten(critic, critic_spec), critic_spec, x, lr)
        np.testing.assert_array_equal(net.params.view(np.int64), want.view(np.int64))


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        t, o = np.zeros(4), np.arange(4.0)
        np.testing.assert_array_equal(soft_update(t, o, 1.0), o)

    def test_tau_zero_keeps_target(self):
        t, o = np.arange(4.0) - 9.0, np.arange(4.0)
        np.testing.assert_array_equal(soft_update(t.copy(), o, 0.0), t)

    def test_midpoint(self):
        out = soft_update(np.zeros(3), np.full(3, 2.0), 0.5)
        np.testing.assert_array_equal(out, np.ones(3))

    def test_layout_mismatch(self):
        with pytest.raises(ContractError):
            soft_update(np.zeros(3), np.zeros(4), 0.5)


class TestUpdatesInPlace:
    """Each update writes its own buffers in place and nothing else, as train lays them out.

    train keeps the actor and the twin critics as views of one flat
    online buffer and the targets as views of one flat target buffer;
    a write outside a step's own buffers, or a buffer rebound instead of
    written, would desynchronise those views.
    """

    def _layout(self, seed=0):
        rng = np.random.default_rng(seed)
        n_actor = SMALL_ACTOR.param_count()
        online = rng.normal(0, 0.5, size=n_actor + 2 * SMALL_CRITIC.param_count())
        target = rng.normal(0, 0.5, size=online.size)
        actor = Trainable(online[:n_actor], SMALL_ACTOR)
        critics = Trainable(online[n_actor:].reshape(2, -1), SMALL_CRITIC)
        states, actions = _batch(rng, n=9)
        return online, target, actor, critics, np.concatenate([states, actions], axis=1)

    def test_critic_update_writes_only_the_critics(self):
        online, target, actor, critics, x = self._layout()
        targets = np.random.default_rng(1).normal(size=len(x))
        before = [a.copy() for a in (online, target, x, targets)]
        critic_update(critics, x, targets, 0.1)
        n_actor = actor.params.size
        np.testing.assert_array_equal(online[:n_actor], before[0][:n_actor])
        assert np.all(online[n_actor:] != before[0][n_actor:])
        for got, want in zip((target, x, targets), before[1:]):
            np.testing.assert_array_equal(got, want)
        # The views split once still read the updated buffer.
        assert critics.params.base is online
        np.testing.assert_array_equal(forward_batch(critics.layers, SMALL_CRITIC, x),
                                      forward_batch(critics.params, SMALL_CRITIC, x))

    def test_actor_update_writes_only_the_actor_and_the_action_columns(self):
        online, target, actor, critics, x = self._layout(2)
        before = [a.copy() for a in (online, target, x)]
        critic1 = unflatten(critics.params[0], SMALL_CRITIC)
        actor_update(actor, critic1, SMALL_CRITIC, x, 0.1)
        n_actor = actor.params.size
        assert np.all(online[:n_actor] != before[0][:n_actor])
        np.testing.assert_array_equal(online[n_actor:], before[0][n_actor:])
        np.testing.assert_array_equal(target, before[1])
        np.testing.assert_array_equal(x[:, :3], before[2][:, :3])
        # The action columns hold the pre-step actor's actions.
        old_actor = before[0][:n_actor]
        np.testing.assert_array_equal(x[:, 3:], forward_batch(old_actor, SMALL_ACTOR, x[:, :3]))

    def test_soft_update_writes_only_the_target(self):
        online, target, *_ = self._layout(3)
        before = online.copy(), target.copy()
        assert soft_update(target, online, 0.25) is target
        np.testing.assert_array_equal(online, before[0])
        np.testing.assert_array_equal(target, 0.75 * before[1] + 0.25 * before[0])


def _small_series():
    rng = np.random.default_rng(13)
    return make_series([(rng.uniform(5, 50), rng.uniform(5, 50), rng.uniform(-5, 20))
                        for _ in range(8)])


def _small_env():
    series = _small_series()
    return BudgetEnv(series, fit_scaler(series))


class TestTrain:
    def test_warmup_only_run_leaves_actor_at_init(self):
        cfg = TD3Config(total_timesteps=100, warmup_steps=100, seed=1)
        policy = train(_small_env(), cfg)
        np.testing.assert_array_equal(policy.params, init_params(policy.spec, 1))
        assert len(policy.episode_rewards) > 0

    def test_deterministic_given_seed(self):
        cfg = TD3Config(total_timesteps=400, warmup_steps=50, seed=21)
        p1 = train(_small_env(), cfg)
        p2 = train(_small_env(), cfg)
        assert p1.episode_rewards == p2.episode_rewards
        np.testing.assert_array_equal(p1.params, p2.params)
        for key in p1.aux_params:
            np.testing.assert_array_equal(p1.aux_params[key][1], p2.aux_params[key][1])

    def test_all_actions_on_simplex(self, monkeypatch):
        """Every action row training takes, as drawn, before validate_action renormalizes it."""
        taken = []

        def recording(actions):
            taken.extend(np.array(actions, dtype=np.float64).reshape(-1, 2))
            return validate_action(actions)

        monkeypatch.setattr(td3_trainer, "validate_action", recording)
        train(_small_env(), TD3Config(total_timesteps=300, warmup_steps=40, seed=2))
        assert len(taken) == 300
        for a in taken:
            assert abs(a.sum() - 1.0) <= 1e-9
            assert np.all(a >= 0.0)

    def test_history_counts_completed_episodes(self):
        env = _small_env()
        steps_per_episode = 7  # _small_env has 8 quarters
        cfg = TD3Config(total_timesteps=steps_per_episode * 4 + 2,
                        warmup_steps=10, seed=3)
        policy = train(env, cfg)
        assert len(policy.episode_rewards) == 4


class TestPerUpdateWork:
    """Counted calls, not timings: what one run of train does per step and per update."""

    TRACKED = (
        (neural_core, "unflatten"), (neural_core, "forward_actor"),
        (td3_trainer, "critic_update"), (td3_trainer, "actor_update"),
        (td3_trainer, "soft_update"), (td3_trainer.ReplayBuffer, "sample"),
        (td3_trainer.ReplayBuffer, "push"), (td3_trainer.Trainable, "descend"),
    )

    def _calls(self, config):
        """Calls of each tracked function during one train run, seen by sys.setprofile."""
        names = {getattr(owner, name).__code__: name for owner, name in self.TRACKED}
        counts = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                counts[names[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            train(_small_env(), config)
        finally:
            sys.setprofile(None)
        return counts

    def test_buffers_are_split_once_and_each_step_runs_once(self):
        warmup, capacity, delay = 50, 20, 2
        runs = {}
        for past_warmup in (200, 400):
            config = TD3Config(total_timesteps=warmup + past_warmup, warmup_steps=warmup,
                               buffer_capacity=capacity, batch_size=16, actor_delay=delay,
                               seed=8)
            runs[past_warmup] = calls = self._calls(config)
            # Every step past warmup is one exploration action and one update.
            assert calls["forward_actor"] == past_warmup
            assert calls["critic_update"] == calls["sample"] == past_warmup
            assert calls["actor_update"] == calls["soft_update"] == past_warmup // delay
            # Every parameter step of either update is one descend.
            assert calls["descend"] == calls["critic_update"] + calls["actor_update"]
            # The warmup's 50 steps over 7-step episodes are 3 ring-sized blocks.
            assert calls["push"] == math.ceil(warmup / capacity) + past_warmup
        assert runs[200]["unflatten"] == runs[400]["unflatten"] > 0


# -- independent oracle: the step-by-step training loop -----------------------
#
# Each step is scored from conftest's plain-Python env tables with the
# per-step reward formula of test_rollout_oracle, and the next state and
# episode end come from the table index. A transition-object replay
# list, np.stack minibatches, a one-row forward_batch for each
# exploration action, vjp_batch for every gradient (each re-running its
# forward pass) and a scalar target per row. The fused trainer must
# reproduce it bit for bit.


@dataclass(frozen=True)
class _Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool


def _oracle_critic_update(critic_params, spec, states, actions, targets, lr):
    x = np.concatenate([states, actions], axis=1)
    n = x.shape[0]
    y = targets.reshape(n, 1)
    updated = []
    for params in critic_params:
        err = forward_batch(params, spec, x) - y
        grad, _ = vjp_batch(params, spec, x, 2.0 * err / n)
        updated.append(params - lr * grad)
    return updated


def _oracle_actor_update(actor_params, actor, critic1_params, critic, states, lr):
    n = states.shape[0]
    actions = forward_batch(actor_params, actor, states)
    x = np.concatenate([states, actions], axis=1)
    _, input_grad = vjp_batch(critic1_params, critic, x, np.full((n, 1), 1.0 / n))
    actor_grad, _ = vjp_batch(actor_params, actor, states, input_grad[:, states.shape[1]:])
    return actor_params + lr * actor_grad


def _oracle_train(series, config):
    """train on a BudgetEnv of series with the default reward and belief configs."""
    reward = RewardConfig()
    quarters, shares, _, belief_terms = oracle_tables(series, fit_scaler(series), reward,
                                                      BeliefConfig())
    a_spec, c_spec = ACTOR_SPEC, CRITIC_SPEC
    actor = init_params(a_spec, config.seed)
    critic1 = init_params(c_spec, config.seed + 1)
    critic2 = init_params(c_spec, config.seed + 2)
    actor_t, critic1_t, critic2_t = actor.copy(), critic1.copy(), critic2.copy()
    rng = np.random.default_rng(config.seed + 3)
    items, cursor = [], 0
    episode_rewards, episode_total, n_updates = [], 0.0, 0

    t, prev = 0, np.array([0.5, 0.5])
    for step in range(1, config.total_timesteps + 1):
        state = np.array(quarters[t])
        if step <= config.warmup_steps:
            action = rng.dirichlet([1.0, 1.0])
        else:
            noise = rng.normal(0.0, config.exploration_sigma, size=ACTION_DIM)
            action = clip_to_simplex(forward_batch(actor, a_spec, state[None])[0] + noise)
        a = validate_action(action)
        accuracy = -float(np.abs(a - np.array(shares[t])).sum())
        smoothness = -reward.lambda1 * float(np.linalg.norm(a - prev))
        total = accuracy + smoothness + belief_terms[t]
        done = t + 1 == len(shares)
        tr = _Transition(state, a, total, np.array(quarters[t + 1]), done)
        if len(items) < config.buffer_capacity:
            items.append(tr)
        else:
            items[cursor] = tr
        cursor = (cursor + 1) % config.buffer_capacity
        episode_total += total
        t, prev = t + 1, a
        if done:
            episode_rewards.append(episode_total)
            episode_total = 0.0
            t, prev = 0, np.array([0.5, 0.5])
        if step <= config.warmup_steps or len(items) < config.batch_size:
            continue

        batch = [items[i] for i in rng.integers(0, len(items), size=config.batch_size)]
        states = np.stack([tr.state for tr in batch])
        actions = np.stack([tr.action for tr in batch])
        next_states = np.stack([tr.next_state for tr in batch])
        a_next = forward_batch(actor_t, a_spec, next_states)
        noise = np.clip(rng.normal(0.0, config.target_noise_sigma, size=a_next.shape),
                        -config.target_noise_clip, config.target_noise_clip)
        a_next = np.stack([clip_to_simplex(row) for row in a_next + noise])
        next_x = np.concatenate([next_states, a_next], axis=1)
        q1 = forward_batch(critic1_t, c_spec, next_x)[:, 0]
        q2 = forward_batch(critic2_t, c_spec, next_x)[:, 0]
        targets = np.array([
            tr.reward if tr.done else tr.reward + config.gamma * min(q1[i], q2[i])
            for i, tr in enumerate(batch)
        ])
        critic1, critic2 = _oracle_critic_update(
            [critic1, critic2], c_spec, states, actions, targets, config.learning_rate
        )
        n_updates += 1
        if n_updates % config.actor_delay == 0:
            actor = _oracle_actor_update(actor, a_spec, critic1, c_spec, states,
                                         config.learning_rate)
            actor_t = soft_update(actor_t, actor, config.tau)
            critic1_t = soft_update(critic1_t, critic1, config.tau)
            critic2_t = soft_update(critic2_t, critic2, config.tau)
    return actor, (critic1, critic2, actor_t, critic1_t, critic2_t), episode_rewards


class TestFusedTrainOracle:
    @pytest.mark.parametrize(
        "config",
        [
            # Capacity 300 over 1500 steps wraps the ring four times.
            TD3Config(total_timesteps=1500, buffer_capacity=300, actor_delay=3,
                      batch_size=32, seed=5),
            # Updates start long before the ring is full.
            TD3Config(total_timesteps=600, warmup_steps=100, seed=6),
        ],
        ids=["wrapping-ring", "filling-ring"],
    )
    def test_bit_identical_to_step_by_step_loop(self, config):
        train_part, _ = chrono_split(load_series(FIXTURE_CSV), 0.8)
        scaler = fit_scaler(train_part)
        policy = train(BudgetEnv(train_part, scaler), config)
        actor, aux, rewards = _oracle_train(train_part, config)

        np.testing.assert_array_equal(policy.params, actor)
        names = ("critic1", "critic2", "actor_target", "critic1_target", "critic2_target")
        for name, expected in zip(names, aux):
            np.testing.assert_array_equal(policy.aux_params[name][1], expected, err_msg=name)
        assert list(policy.episode_rewards) == rewards


_EPISODE = 7  # steps per episode of _small_env's 8 quarters


@st.composite
def _small_configs(draw):
    total = draw(st.integers(1, 60))
    capacity = draw(st.integers(1, 40))
    warmup = draw(st.one_of(
        st.just(0),
        st.integers(1, _EPISODE - 1),
        st.integers(1, 4).map(lambda m: m * _EPISODE),
        st.integers(capacity + 1, capacity + 20),
        st.integers(total, total + 10),
    ))
    return TD3Config(
        total_timesteps=total, warmup_steps=warmup, buffer_capacity=capacity,
        batch_size=draw(st.integers(1, min(capacity, 8))),
        actor_delay=draw(st.integers(1, 3)), seed=draw(st.integers(0, 1000)),
    )


class TestTrainOracleProperty:
    """train against _oracle_train's step-by-step loop over drawn small configs."""

    @settings(max_examples=25, deadline=None)
    @given(config=_small_configs())
    @example(config=TD3Config(total_timesteps=40, warmup_steps=0, buffer_capacity=12,
                              batch_size=4, seed=1))
    @example(config=TD3Config(total_timesteps=40, warmup_steps=5, buffer_capacity=12,
                              batch_size=4, seed=2))
    @example(config=TD3Config(total_timesteps=40, warmup_steps=2 * _EPISODE,
                              buffer_capacity=12, batch_size=4, seed=3))
    @example(config=TD3Config(total_timesteps=40, warmup_steps=30, buffer_capacity=9,
                              batch_size=4, actor_delay=1, seed=4))
    @example(config=TD3Config(total_timesteps=20, warmup_steps=20, buffer_capacity=12,
                              batch_size=4, seed=5))
    @example(config=TD3Config(total_timesteps=20, warmup_steps=33, buffer_capacity=12,
                              batch_size=4, seed=6))
    # Two 7-step episodes of warmup over a 5-row ring: blocks of 5, 5 and 4 steps.
    @example(config=TD3Config(total_timesteps=30, warmup_steps=2 * _EPISODE,
                              buffer_capacity=5, batch_size=4, seed=7))
    # A warmup of three and a half episodes, longer than the 6-row ring: its
    # blocks of 6 steps run across episode ends.
    @example(config=TD3Config(total_timesteps=45, warmup_steps=3 * _EPISODE + 4,
                              buffer_capacity=6, batch_size=4, actor_delay=1, seed=8))
    def test_bit_identical_to_step_by_step_loop(self, config):
        policy = train(_small_env(), config)
        actor, aux, rewards = _oracle_train(_small_series(), config)
        np.testing.assert_array_equal(policy.params, actor)
        names = ("critic1", "critic2", "actor_target", "critic1_target", "critic2_target")
        for name, expected in zip(names, aux):
            np.testing.assert_array_equal(policy.aux_params[name][1], expected, err_msg=name)
        assert list(policy.episode_rewards) == rewards


class TestNumericGuards:
    def test_exploding_learning_rate_names_the_update_and_network(self):
        cfg = TD3Config(total_timesteps=200, warmup_steps=20, batch_size=8,
                        buffer_capacity=50, learning_rate=1e300, seed=4)
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^update 2, critic: critic step left non-finite parameters"
        ):
            train(_small_env(), cfg)

    def test_actor_failure_names_the_actor(self, monkeypatch):
        def failing(*args):
            raise NumericError("actor gradient is non-finite")

        monkeypatch.setattr(td3_trainer, "actor_update", failing)
        cfg = TD3Config(total_timesteps=50, warmup_steps=10, batch_size=4, actor_delay=3,
                        seed=4)
        with pytest.raises(NumericError, match=r"^update 3, actor: actor gradient"):
            train(_small_env(), cfg)

    def test_non_finite_critic_loss(self):
        states, actions = _batch(np.random.default_rng(0))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            _critic_step(init_params(SMALL_CRITIC, 1)[None], states, actions,
                         np.full(6, np.inf), 0.1)

    def test_non_finite_actor_gradient(self):
        critic = np.full(SMALL_CRITIC.param_count(), np.nan)
        states = np.random.default_rng(1).normal(size=(4, 3))
        with pytest.raises(NumericError):
            _actor_step(init_params(SMALL_ACTOR, 2), critic, states, 0.1)

    def test_update_input_shapes_checked(self):
        states, actions = _batch(np.random.default_rng(2))
        with pytest.raises(ContractError):
            _critic_step(init_params(SMALL_CRITIC, 1)[None], states[:, :2], actions,
                         np.zeros(6), 0.1)
        with pytest.raises(ContractError):
            _actor_step(init_params(SMALL_ACTOR, 2), init_params(SMALL_CRITIC, 1),
                        states[:, :2], 0.1)
