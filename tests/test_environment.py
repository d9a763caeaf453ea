"""Decision-process algebra: rewards, belief evolution, episode framing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiscalforge.data_ingest import fit_scaler
from fiscalforge.environment import (
    BeliefConfig,
    BudgetEnv,
    RewardConfig,
    clip_to_simplex,
    validate_action,
    write_trace,
)
from fiscalforge.errors import (
    ContractError,
    DataError,
    DomainError,
    SequenceError,
)

from conftest import DATA_DIR, make_series, oracle_tables


def _scaler():
    # Any non-degenerate bounds will do: rewards never touch scaled values.
    return fit_scaler(make_series([(1, 2, -5), (10, 20, 0), (40, 30, 10), (60, 50, 20)]))


def _env(rows, reward=None, belief=None):
    return BudgetEnv(make_series(rows), _scaler(), reward, belief)


BASIC_ROWS = [(10, 10, 1), (30, 10, 2), (10, 30, 3), (20, 20, 4)]


class TestEmpiricalAllocation:
    """env.empirical row t: the realized shares of quarter t + 1."""

    def test_direct_ratio(self):
        np.testing.assert_allclose(_env([(1, 1, 0), (3, 1, 0)]).empirical, [[0.75, 0.25]])

    def test_symmetric(self):
        np.testing.assert_allclose(_env([(1, 1, 0), (2, 2, 0)]).empirical, [[0.5, 0.5]])

    def test_simplex_boundary(self):
        np.testing.assert_allclose(_env([(1, 1, 0), (0, 5, 0)]).empirical, [[0.0, 1.0]])

    def test_degenerate_quarter(self):
        with pytest.raises(DataError):
            _env([(1, 1, 0), (0, 0, 0)])


def _belief_after_one_step(prior, rnd, sga, confidence):
    """env.alpha after the one step of a series whose quarter 1 spends (rnd, sga)."""
    env = _env([(1, 1, 0), (rnd, sga, 0)], belief=BeliefConfig(prior, confidence))
    env.reset()
    env.step(np.array([0.5, 0.5]))
    return env.alpha


class TestUpdateBelief:
    def test_direct_arithmetic(self):
        np.testing.assert_array_equal(_belief_after_one_step((5.0, 3.0), 3, 1, 4.0), [8.0, 4.0])

    def test_zero_confidence_identity(self):
        np.testing.assert_array_equal(_belief_after_one_step((5.0, 3.0), 3, 2, 0.0), [5.0, 3.0])

    def test_one_sided_evidence(self):
        np.testing.assert_array_equal(_belief_after_one_step((5.0, 3.0), 0, 5, 2.0), [5.0, 5.0])


class TestActionValidation:
    def test_drift_renormalized(self):
        a = validate_action(np.array([0.6 + 4e-7, 0.4]))
        assert abs(a.sum() - 1.0) <= 1e-12

    def test_off_simplex_rejected(self):
        with pytest.raises(ContractError):
            validate_action(np.array([0.7, 0.4]))
        with pytest.raises(ContractError):
            validate_action(np.array([1.2, -0.2]))

    def test_clip_to_simplex(self):
        np.testing.assert_allclose(clip_to_simplex(np.array([1.4, -0.2])), [1.0, 0.0])
        np.testing.assert_allclose(clip_to_simplex(np.array([-1.0, -2.0])), [0.5, 0.5])
        out = clip_to_simplex(np.array([0.9, 0.3]))
        assert abs(out.sum() - 1.0) <= 1e-12
        # NaN is not a zero sum: it reaches the caller's finiteness checks.
        assert np.all(np.isnan(clip_to_simplex(np.array([np.nan, 0.5]))))

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from([(1,), (5,), (2, 3), (3, 1, 2)]), data=st.data())
    def test_clip_to_simplex_rowwise(self, shape, data):
        """Rows land on the simplex, each as it would when projected on its own.

        A row with no positive value clamps to zero and becomes uniform.
        """
        n = math.prod(shape)
        values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n))
        stack = np.array(values).reshape(*shape, 2)
        out = clip_to_simplex(stack)
        one_by_one = np.array([clip_to_simplex(row) for row in stack.reshape(-1, 2)])
        assert out.shape == stack.shape
        assert out.reshape(-1, 2).tobytes() == one_by_one.tobytes()
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


class TestReset:
    def test_belief_equals_prior(self):
        env = _env(BASIC_ROWS, belief=BeliefConfig(prior=(5.0, 3.0)))
        env.reset()
        np.testing.assert_array_equal(env.alpha, [5.0, 3.0])

    def test_idempotent(self):
        env = _env(BASIC_ROWS)
        s1 = env.reset()
        env.step(np.array([0.5, 0.5]))
        s2 = env.reset()
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(env.alpha, env.belief_config.prior)

    def test_two_quarter_series_finishes_in_one_step(self):
        env = _env(BASIC_ROWS[:2])
        env.reset()
        result = env.step(np.array([0.5, 0.5]))
        assert result.done

    def test_too_short_series(self):
        with pytest.raises(DataError):
            _env(BASIC_ROWS[:1])

    def test_degenerate_quarter_rejected_at_construction(self):
        with pytest.raises(DataError, match="rnd \\+ sga is not positive"):
            _env([(10, 10, 1), (20, 20, 2), (0, 0, 3), (20, 20, 4)])

    @pytest.mark.parametrize(
        "belief",
        [BeliefConfig(prior=(1e308, 1e308)), BeliefConfig(confidence=1e308),
         BeliefConfig(prior=(float("nan"), 3.0))],
        ids=["prior-overflow", "confidence-overflow", "prior-nan"],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_belief_rejected_at_construction(self, belief):
        """Only DomainError: an overflowing belief table raises no RuntimeWarning."""
        with pytest.raises(DomainError):
            _env(BASIC_ROWS, belief=belief)

    def test_prior_needs_exactly_two_categories(self):
        with pytest.raises(DomainError, match="exactly two"):
            BeliefConfig(prior=(5.0, 3.0, 2.0))

    def test_degenerate_first_quarter_accepted(self):
        """Quarter 0 is only ever a state, never an allocation target."""
        env = _env([(0, 0, 1), (20, 20, 2)])
        env.reset()
        assert env.step(np.array([0.5, 0.5])).done


class TestStep:
    def test_triple_coincidence_zero_reward(self):
        """action == empirical == previous action and zero confidence."""
        rows = [(10, 30, 1), (20, 20, 2), (30, 10, 3)]
        env = _env(rows, belief=BeliefConfig(confidence=0.0))
        env.reset()
        result = env.step(np.array([0.5, 0.5]))
        assert result.reward.accuracy_term == 0.0
        assert result.reward.smoothness_term == 0.0
        assert result.reward.belief_term == 0.0
        assert result.reward.total == 0.0

    def test_maximal_l1_distance(self):
        rows = [(10, 10, 1), (0, 40, 2)]
        env = _env(rows, reward=RewardConfig(lambda1=0.0, lambda2=0.0))
        env.reset()
        result = env.step(np.array([1.0, 0.0]))
        assert result.reward.total == pytest.approx(-2.0, abs=1e-12)

    def test_total_is_sum_of_terms(self):
        env = _env(BASIC_ROWS)
        env.reset()
        r = env.step(np.array([0.3, 0.7])).reward
        assert r.total == r.accuracy_term + r.smoothness_term + r.belief_term

    def test_belief_updated_before_penalty(self):
        """With a nonzero confidence the very first step is already penalized."""
        env = _env(BASIC_ROWS, belief=BeliefConfig(confidence=1.0))
        env.reset()
        result = env.step(np.array([0.5, 0.5]))
        assert result.reward.belief_term < 0.0
        np.testing.assert_allclose(env.alpha, [5.0 + 0.75, 3.0 + 0.25])

    def test_step_after_done(self):
        env = _env(BASIC_ROWS[:2])
        env.reset()
        env.step(np.array([0.5, 0.5]))
        with pytest.raises(SequenceError):
            env.step(np.array([0.5, 0.5]))

    def test_step_before_reset(self):
        env = _env(BASIC_ROWS)
        with pytest.raises(SequenceError):
            env.step(np.array([0.5, 0.5]))

    def test_off_simplex_action_rejected(self):
        env = _env(BASIC_ROWS)
        env.reset()
        with pytest.raises(ContractError):
            env.step(np.array([0.8, 0.3]))

    def test_result_carries_validated_action(self):
        env = _env(BASIC_ROWS)
        env.reset()
        drifted = np.array([0.6 + 4e-7, 0.4])
        np.testing.assert_array_equal(env.step(drifted).action, validate_action(drifted))


class TestInvariants:
    def test_reward_never_positive(self):
        rng = np.random.default_rng(5)
        rows = [(rng.uniform(1, 50), rng.uniform(1, 50), rng.uniform(-10, 10))
                for _ in range(12)]
        env = _env(rows)
        for _ in range(20):
            env.reset()
            while True:
                a = rng.dirichlet([1.0, 1.0])
                result = env.step(a)
                assert result.reward.total <= 0.0
                assert -2.0 <= result.reward.accuracy_term <= 0.0
                if result.done:
                    break

    def test_belief_total_grows_by_confidence(self):
        c = 1.5
        env = _env(BASIC_ROWS, belief=BeliefConfig(confidence=c))
        env.reset()
        prior_total = float(np.sum(env.alpha))
        steps = 0
        before = prior_total
        while not env.done:
            env.step(np.array([0.5, 0.5]))
            steps += 1
            after = float(np.sum(env.alpha))
            assert after - before == pytest.approx(c, abs=1e-12)
            before = after
        assert float(np.sum(env.alpha)) == pytest.approx(
            prior_total + steps * c, abs=1e-12
        )

    def test_episode_length(self, fixture_series):
        scaler = fit_scaler(fixture_series)
        env = BudgetEnv(fixture_series, scaler)
        env.reset()
        steps = 0
        while not env.done:
            env.step(np.array([0.5, 0.5]))
            steps += 1
        assert steps == len(fixture_series) - 1

    def test_deterministic_reward_trace(self):
        rng = np.random.default_rng(9)
        actions = [rng.dirichlet([1.0, 1.0]) for _ in range(3)]
        env = _env(BASIC_ROWS)

        def rollout():
            env.reset()
            return [env.step(a).reward.total for a in actions]

        assert rollout() == rollout()


class TestTrace:
    def test_fixture_regression_trace(self, fixture_series):
        """Two scripted steps match the independently computed trace file."""
        expected = json.loads((DATA_DIR / "step_trace_expected.json").read_text())
        scaler = fit_scaler(fixture_series)
        env = BudgetEnv(
            fixture_series,
            scaler,
            RewardConfig(expected["lambda1"], expected["lambda2"]),
            BeliefConfig(tuple(expected["prior"]), expected["confidence"]),
        )
        env.reset()
        for action, exp in zip(expected["actions"], expected["trace"]):
            result = env.step(np.array(action))
            assert result.reward.accuracy_term == pytest.approx(exp["accuracy"], abs=1e-9)
            assert result.reward.smoothness_term == pytest.approx(exp["smoothness"], abs=1e-9)
            assert result.reward.belief_term == pytest.approx(exp["belief"], abs=1e-9)
            assert result.reward.total == pytest.approx(exp["total"], abs=1e-9)
            np.testing.assert_allclose(env.alpha, exp["alpha"], atol=1e-9)

    def test_trace_records_written_as_jsonl(self, tmp_path):
        env = _env(BASIC_ROWS)
        actions, rewards = env.episode_rewards(np.tile([0.6, 0.4], (len(BASIC_ROWS) - 1, 1)))
        path = tmp_path / "trace.jsonl"
        write_trace(env, actions, rewards, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(BASIC_ROWS) - 1
        record = json.loads(lines[0])
        assert set(record) == {"t", "action", "empirical", "reward_terms", "alpha"}


_positive = st.floats(0.0, 100.0, allow_nan=False)
_rows = st.lists(
    st.tuples(_positive, _positive, st.floats(-50.0, 50.0)).filter(lambda r: r[0] + r[1] > 0),
    min_size=2, max_size=8,
)


class TestStepTables:
    """The table-driven step against a direct per-step computation."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=_rows,
        shares=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
        lambdas=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
        prior=st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 20.0)),
        confidence=st.floats(0.0, 5.0),
    )
    def test_step_equals_direct_computation(self, rows, shares, lambdas, prior, confidence):
        series = make_series(rows)
        reward, belief = RewardConfig(*lambdas), BeliefConfig(prior, confidence)
        env = BudgetEnv(series, _scaler(), reward, belief)
        states, empirical, alphas, belief_terms = oracle_tables(series, _scaler(), reward, belief)
        np.testing.assert_array_equal(env.reset(), states[0])
        prev = np.array([0.5, 0.5])
        for t in range(len(series) - 1):
            action = np.array([shares[t], 1.0 - shares[t]])
            result = env.step(action)

            a = validate_action(action)
            accuracy = -float(np.abs(a - np.array(empirical[t])).sum())
            smoothness = -reward.lambda1 * float(np.linalg.norm(a - prev))
            belief_term = belief_terms[t]
            prev = a

            r = result.reward
            assert (r.accuracy_term, r.smoothness_term, r.belief_term, r.total) == (
                accuracy, smoothness, belief_term, accuracy + smoothness + belief_term
            )
            assert env.alpha.tolist() == alphas[t]
            assert result.next_state.tolist() == states[t + 1]
            np.testing.assert_array_equal(result.action, a)
            assert result.done == (t == len(series) - 2)
