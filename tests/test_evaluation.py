"""Metric definitions and held-out scoring."""

import math

import numpy as np
import pytest

from fiscalforge.data_ingest import fit_scaler
from fiscalforge.environment import BudgetEnv
from fiscalforge.errors import DataError, DomainError
from fiscalforge.evaluation import (
    cosine_similarity,
    evaluate_policy,
    kl_divergence,
    mae,
    rmse,
)

from conftest import make_series


def _arrays(*pairs):
    """(predicted, actual) (T, 2) arrays from (predicted row, actual row) pairs."""
    stacked = np.array(pairs, dtype=float)
    return stacked[:, 0], stacked[:, 1]


def _random_pairs(rng, n):
    return _arrays(*[(rng.dirichlet([1, 1]), rng.dirichlet([1, 1])) for _ in range(n)])


IDENTICAL = _arrays(([0.7, 0.3], [0.7, 0.3]))
EMPTY = (np.empty((0, 2)), np.empty((0, 2)))


class TestMae:
    def test_identical_is_zero(self):
        assert mae(*IDENTICAL) == 0.0

    def test_direct_arithmetic(self):
        assert mae(*_arrays(([0.6, 0.4], [0.5, 0.5]))) == pytest.approx(0.1, abs=1e-15)

    def test_flattened_average(self):
        pairs = _arrays(([0.6, 0.4], [0.5, 0.5]), ([0.8, 0.2], [0.5, 0.5]))
        assert mae(*pairs) == pytest.approx(0.2, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mae(*EMPTY)


class TestRmse:
    def test_identical_is_zero(self):
        assert rmse(*IDENTICAL) == 0.0

    def test_equal_residuals(self):
        assert rmse(*_arrays(([0.6, 0.4], [0.5, 0.5]))) == pytest.approx(0.1, abs=1e-15)

    def test_mixed_residuals(self):
        """Residuals {0.1, 0.3} -> sqrt(0.05)."""
        pairs = _arrays(([0.6, 0.7], [0.5, 0.4]))
        assert rmse(*pairs) == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_dominates_mae_on_flattened_residuals(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pairs = _random_pairs(rng, 5)
            assert rmse(*pairs) >= mae(*pairs) - 1e-15

    def test_equals_mae_when_errors_equal_magnitude(self):
        pairs = _arrays(([0.6, 0.4], [0.5, 0.5]), ([0.4, 0.6], [0.5, 0.5]))
        assert rmse(*pairs) == pytest.approx(mae(*pairs), abs=1e-15)


class TestCosineSimilarity:
    def test_identical_is_one(self):
        assert cosine_similarity(*IDENTICAL) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(*_arrays(([1.0, 0.0], [0.0, 1.0]))) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_hand_value(self):
        """[0.6,0.4] vs [0.5,0.5]: 0.5 / (sqrt(0.52) * sqrt(0.5))."""
        expected = 0.5 / (math.sqrt(0.52) * math.sqrt(0.5))
        got = cosine_similarity(*_arrays(([0.6, 0.4], [0.5, 0.5])))
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(0.9805806756909202, abs=1e-12)

    def test_simplex_pairs_land_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            value = cosine_similarity(*_random_pairs(rng, 1))
            assert 0.0 < value <= 1.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cosine_similarity(*_arrays(([0.0, 0.0], [0.5, 0.5])))


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence(*IDENTICAL) == 0.0

    def test_hand_value(self):
        """actual [0.75,0.25] vs predicted [0.5,0.5]."""
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        got = kl_divergence(*_arrays(([0.5, 0.5], [0.75, 0.25])))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.130812, abs=1e-6)

    def test_zero_mass_convention(self):
        """actual [1,0] vs predicted [1,0]: the zero component contributes 0."""
        assert kl_divergence(*_arrays(([1.0, 0.0], [1.0, 0.0]))) == 0.0

    def test_positive_for_differing_full_support(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            actual = rng.dirichlet([2, 2])
            predicted = rng.dirichlet([2, 2])
            if np.allclose(actual, predicted):
                continue
            assert kl_divergence(*_arrays((predicted, actual))) > 0.0

    def test_reference_is_actual(self):
        """Direction check: mass the prediction misses is penalized."""
        sharp_actual = _arrays(([0.5, 0.5], [0.99, 0.01]))
        sharp_pred = _arrays(([0.99, 0.01], [0.5, 0.5]))
        assert kl_divergence(*sharp_actual) != kl_divergence(*sharp_pred)


class TestPermutationInvariance:
    def test_all_metrics(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.dirichlet([1, 1]), rng.dirichlet([1, 1])) for _ in range(6)]
        shuffled = [pairs[i] for i in [3, 0, 5, 1, 4, 2]]
        for metric in (mae, rmse, cosine_similarity, kl_divergence):
            assert metric(*_arrays(*pairs)) == pytest.approx(
                metric(*_arrays(*shuffled)), abs=1e-15
            )


FIXTURE_ROWS = [(10, 30, 1), (30, 10, 2), (20, 20, 3), (25, 15, 4), (15, 25, 5), (30, 30, 6)]


class _OraclePolicy:
    """Replays each quarter's own upcoming empirical allocation."""

    def __init__(self, env):
        self.env = env

    def act(self, states):
        return self.env.empirical[: len(states)]


class _UniformPolicy:
    def act(self, states):
        return np.full((len(states), 2), 0.5)


class TestEvaluatePolicy:
    def _setup(self):
        series = make_series(FIXTURE_ROWS)
        return series, fit_scaler(series)

    def test_oracle_policy_scores_perfectly(self):
        series, scaler = self._setup()
        env = BudgetEnv(series, scaler)
        report, actions = evaluate_policy(_OraclePolicy(env), env)
        assert report.mae <= 1e-12
        assert abs(report.cosine_similarity - 1.0) <= 1e-12
        assert report.kl_divergence <= 1e-12
        assert len(actions) == len(series) - 1

    def test_quarter_count(self):
        series, scaler = self._setup()
        report, _ = evaluate_policy(_UniformPolicy(), BudgetEnv(series, scaler))
        assert report.n_quarters == len(series) - 1

    def test_uniform_policy_matches_independent_arithmetic(self):
        series, scaler = self._setup()
        report, _ = evaluate_policy(_UniformPolicy(), BudgetEnv(series, scaler))
        shares = []
        for rnd, sga, _ in FIXTURE_ROWS[1:]:
            shares.append(rnd / (rnd + sga))
        residuals = []
        for share in shares:
            residuals.extend([abs(0.5 - share), abs(0.5 - (1.0 - share))])
        assert report.mae == pytest.approx(float(np.mean(residuals)), abs=1e-12)
        assert report.rmse == pytest.approx(
            math.sqrt(float(np.mean(np.square(residuals)))), abs=1e-12
        )

    def test_uniform_policy_on_bundled_fixture(self, fixture_series):
        """Same oracle arithmetic, straight from the shipped CSV's raw rows."""
        import csv

        from fiscalforge.data_ingest import chrono_split
        from conftest import FIXTURE_CSV

        train_part, test_part = chrono_split(fixture_series, 0.8)
        scaler = fit_scaler(train_part)
        report, _ = evaluate_policy(_UniformPolicy(), BudgetEnv(test_part, scaler))

        with open(FIXTURE_CSV, newline="") as fh:
            raw = [(float(r["rnd"]), float(r["sga"])) for r in csv.DictReader(fh)]
        test_raw = raw[19:]  # floor(0.8 * 24) = 19 training quarters
        residuals = []
        for rnd, sga in test_raw[1:]:
            share = rnd / (rnd + sga)
            residuals.extend([abs(0.5 - share), abs(0.5 - (1.0 - share))])
        assert report.n_quarters == len(test_raw) - 1
        assert report.mae == pytest.approx(float(np.mean(residuals)), abs=1e-12)
        assert report.rmse == pytest.approx(
            math.sqrt(float(np.mean(np.square(residuals)))), abs=1e-12
        )

    def test_trace_emission(self, tmp_path):
        series, scaler = self._setup()
        trace_path = tmp_path / "trace.jsonl"
        evaluate_policy(_UniformPolicy(), BudgetEnv(series, scaler), trace_path=trace_path)
        assert len(trace_path.read_text().splitlines()) == len(series) - 1

    def test_report_dict_has_exactly_five_fields(self):
        series, scaler = self._setup()
        report, _ = evaluate_policy(_UniformPolicy(), BudgetEnv(series, scaler))
        assert set(report.to_dict()) == {
            "mae", "rmse", "cosine_similarity", "kl_divergence", "n_quarters",
        }
