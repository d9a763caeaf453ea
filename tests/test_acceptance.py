"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion. Criterion 9 is a soft directional check against real
quarterly data: it only runs when FISCALFORGE_APPLE_CSV points at a
user-supplied CSV, and it reports rather than gates.
"""

import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import skew

from fiscalforge.cli import main
from fiscalforge.data_ingest import chrono_split, fit_scaler, load_series
from fiscalforge.environment import BeliefConfig, BudgetEnv, RewardConfig
from fiscalforge.evaluation import (
    cosine_similarity,
    evaluate_policy,
    kl_divergence,
    mae,
    rmse,
)
from fiscalforge.neural_core import MlpSpec, forward_batch, vjp_batch
from fiscalforge.quantum_ga import GaConfig, evaluate_fitness, evolve, quantum_mutate
from fiscalforge.special_functions import digamma, dirichlet_kl, ln_gamma
from fiscalforge.td3_trainer import TD3Config, train

from conftest import DATA_DIR, FIXTURE_CSV

EULER_GAMMA = 0.5772156649015329


def _report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_special_functions():
    """Identities within 1e-9 plus Monte-Carlo agreement within 3e-3."""
    assert abs(ln_gamma(5.0) - math.log(24.0)) <= 1e-9
    assert abs(ln_gamma(1.0)) <= 1e-9
    assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-9
    assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-9
    assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) <= 1e-9
    for x in np.logspace(-2, 4, 200):
        x = float(x)
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) <= 1e-9
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-9

    closed = dirichlet_kl([2.0, 1.0], [1.0, 1.0])
    assert abs(closed - (math.log(2.0) - 0.5)) <= 1e-9

    rng = np.random.default_rng(60)
    x = rng.beta(2.0, 1.0, size=1_000_000)

    def log_beta_fn(v):
        return gammaln(v[0]) + gammaln(v[1]) - gammaln(v[0] + v[1])

    log_ratio = (log_beta_fn([1.0, 1.0]) - log_beta_fn([2.0, 1.0])) + np.log(x)
    mc = float(log_ratio.mean())
    assert abs(closed - mc) <= 3e-3
    _report(1, f"identities hold; closed-form KL {closed:.7f} vs MC {mc:.7f}")


def test_criterion_2_gradient_correctness():
    """100 random probes per head: analytic vs central differences, rel <= 1e-4."""
    specs = {
        "simplex": MlpSpec(3, (4,), 2, "simplex"),
        "linear": MlpSpec(5, (4,), 1, "linear"),
    }
    rng = np.random.default_rng(12)
    worst = 0.0
    for name, spec in specs.items():
        for _ in range(100):
            params = rng.normal(0.0, 0.8, size=spec.param_count())
            x = rng.normal(size=spec.input_dim)
            upstream = rng.normal(size=spec.output_dim)
            analytic = vjp_batch(params, spec, x[None, :], upstream[None, :])[0]
            h = 1e-5
            numeric = np.zeros_like(params)
            for j in range(params.size):
                plus, minus = params.copy(), params.copy()
                plus[j] += h
                minus[j] -= h
                f_p = float((forward_batch(plus, spec, x[None, :])[0] * upstream).sum())
                f_m = float((forward_batch(minus, spec, x[None, :])[0] * upstream).sum())
                numeric[j] = (f_p - f_m) / (2.0 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{name}: relative error {rel}"
    _report(2, f"200 probes, worst relative error {worst:.2e}")


def test_criterion_3_environment_algebra():
    """Belief growth, episode length, reward sign, and the frozen trace."""
    series = load_series(FIXTURE_CSV)
    scaler = fit_scaler(series)

    c = 1.0
    env = BudgetEnv(series, scaler, belief=BeliefConfig(confidence=c))
    env.reset()
    prior_total = float(np.sum(env.belief_config.prior))
    steps = 0
    before = prior_total
    rng = np.random.default_rng(4)
    while not env.done:
        result = env.step(rng.dirichlet([1.0, 1.0]))
        steps += 1
        after = float(np.sum(env.alphas[steps - 1]))
        assert abs((after - before) - c) <= 1e-12
        assert result.reward.total <= 0.0
        before = after
    assert steps == len(series) - 1
    assert abs(float(np.sum(env.alphas[steps - 1])) - (prior_total + steps * c)) <= 1e-12

    # Triple coincidence: uniform action, uniform empirical, zero confidence.
    from conftest import make_series

    flat = make_series([(10, 30, 1), (20, 20, 2), (30, 10, 3)])
    env0 = BudgetEnv(flat, scaler, belief=BeliefConfig(confidence=0.0))
    env0.reset()
    assert env0.step(np.array([0.5, 0.5])).reward.total == 0.0

    expected = json.loads((DATA_DIR / "step_trace_expected.json").read_text())
    env_trace = BudgetEnv(
        series,
        scaler,
        RewardConfig(expected["lambda1"], expected["lambda2"]),
        BeliefConfig(tuple(expected["prior"]), expected["confidence"]),
    )
    env_trace.reset()
    for action, exp in zip(expected["actions"], expected["trace"]):
        reward = env_trace.step(np.array(action)).reward
        assert abs(reward.total - exp["total"]) <= 1e-9
        assert abs(reward.accuracy_term - exp["accuracy"]) <= 1e-9
        assert abs(reward.smoothness_term - exp["smoothness"]) <= 1e-9
        assert abs(reward.belief_term - exp["belief"]) <= 1e-9
    total = float(np.sum(env.alphas[-1]))
    _report(3, f"{steps}-step episode, belief total {total:.6f}, trace matched")


class _UniformPolicy:
    def act(self, states):
        return np.full((len(states), 2), 0.5)


def test_criterion_4_td3_learning_progress():
    """10k timesteps on the fixture: later episodes beat early ones, and the
    trained policy beats the constant-uniform baseline on the test split."""
    series = load_series(FIXTURE_CSV)
    train_part, test_part = chrono_split(series, 0.8)
    scaler = fit_scaler(train_part)
    env = BudgetEnv(train_part, scaler)

    policy = train(env, TD3Config(total_timesteps=10_000))
    first5 = float(np.mean(policy.episode_rewards[:5]))
    last5 = float(np.mean(policy.episode_rewards[-5:]))
    assert last5 > first5, f"no learning progress: {first5} -> {last5}"

    trained_report = evaluate_policy(policy, BudgetEnv(test_part, scaler))[0]
    uniform_report = evaluate_policy(_UniformPolicy(), BudgetEnv(test_part, scaler))[0]
    assert trained_report.mae < uniform_report.mae, (
        f"trained MAE {trained_report.mae} vs uniform {uniform_report.mae}"
    )
    _report(
        4,
        f"episode reward {first5:.3f} -> {last5:.3f}; "
        f"MAE {trained_report.mae:.4f} < uniform {uniform_report.mae:.4f}",
    )


def test_criterion_5_ga_guarantees():
    """10 generations, population 5, elite fraction 0.4, mutation rate 0.1."""
    series = load_series(FIXTURE_CSV)
    train_part, _ = chrono_split(series, 0.8)
    scaler = fit_scaler(train_part)
    env = BudgetEnv(train_part, scaler)

    base = train(env, TD3Config(total_timesteps=1_500))
    base_fitness = evaluate_fitness(base.params[None], base.spec, env)[0]
    cfg = GaConfig(
        generations=10, population_size=5, elite_fraction=0.4, mutation_rate=0.1,
        seed=3,
    )
    best, logs = evolve(base, env, cfg)

    bests = [g.best for g in logs]
    assert len(bests) == 10
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:])), bests
    final_fitness = evaluate_fitness(best.params[None], best.spec, env)[0]
    assert final_fitness >= base_fitness
    assert bests[-1] >= base_fitness
    _report(5, f"best fitness {bests[0]:.4f} -> {bests[-1]:.4f}, base {base_fitness:.4f}")


def test_criterion_6_quantum_mutation_statistics():
    """1e5 offsets: centered, symmetric, and bounded by the strength."""
    eta = 0.05
    cfg = GaConfig(mutation_rate=1.0, mutation_strength=eta, rotation_sigma=0.3)
    rng = np.random.default_rng(60)
    _, deltas = quantum_mutate(np.zeros(100_000), cfg, rng)
    assert deltas.size == 100_000
    mean_bound = 4.0 * (eta / math.sqrt(2.0)) / math.sqrt(deltas.size)
    assert abs(deltas.mean()) <= mean_bound
    sample_skew = float(skew(deltas))
    assert abs(sample_skew) < 0.05
    assert np.all(np.abs(deltas) <= eta)
    _report(
        6,
        f"mean {deltas.mean():.2e} (bound {mean_bound:.2e}), "
        f"skew {sample_skew:.4f}, max |delta| {np.abs(deltas).max():.4f}",
    )


def test_criterion_7_metric_fixtures():
    """Worked metric examples at 1e-6; the oracle policy scores perfectly."""

    def pairs(*rows):
        """(predicted, actual) (T, 2) arrays from (predicted, actual) row pairs."""
        stacked = np.array(rows, float)
        return stacked[:, 0], stacked[:, 1]

    assert mae(*pairs(([0.6, 0.4], [0.5, 0.5]))) == pytest.approx(0.1, abs=1e-6)
    assert mae(*pairs(([0.6, 0.4], [0.5, 0.5]), ([0.8, 0.2], [0.5, 0.5]))) == (
        pytest.approx(0.2, abs=1e-6)
    )
    assert rmse(*pairs(([0.6, 0.4], [0.5, 0.5]))) == pytest.approx(0.1, abs=1e-6)
    assert rmse(*pairs(([0.6, 0.7], [0.5, 0.4]))) == pytest.approx(
        math.sqrt(0.05), abs=1e-6
    )
    assert cosine_similarity(*pairs(([0.6, 0.4], [0.5, 0.5]))) == pytest.approx(
        0.9805806756909202, abs=1e-6
    )
    assert cosine_similarity(*pairs(([1.0, 0.0], [0.0, 1.0]))) == pytest.approx(
        0.0, abs=1e-6
    )
    assert kl_divergence(*pairs(([0.5, 0.5], [0.75, 0.25]))) == pytest.approx(
        0.130812, abs=1e-6
    )
    assert kl_divergence(*pairs(([1.0, 0.0], [1.0, 0.0]))) == 0.0

    from conftest import make_series

    series = make_series([(10, 30, 1), (30, 10, 2), (20, 20, 3), (25, 15, 4)])
    env = BudgetEnv(series, fit_scaler(series))

    class Oracle:
        def act(self, states):
            return env.empirical[: len(states)]

    report = evaluate_policy(Oracle(), env)[0]
    assert report.mae <= 1e-12
    assert abs(report.cosine_similarity - 1.0) <= 1e-12
    assert report.kl_divergence <= 1e-12
    _report(7, "metric fixtures at 1e-6; oracle policy exact within 1e-12")


def test_criterion_8_pipeline_determinism(tmp_path):
    """Two pipeline runs with one config produce byte-identical artifacts."""
    config = {
        "data": {"path": str(FIXTURE_CSV), "train_fraction": 0.8},
        "environment": {},
        "td3": {"total_timesteps": 800, "warmup_steps": 150},
        "ga": {"generations": 3, "population_size": 4},
        "seed": 60,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "r2")]) == 0
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    assert names
    for name in names:
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2, f"artifact {name} differs between runs"
    _report(8, f"{len(names)} artifacts byte-identical across reruns")


REFERENCE_METRICS = {
    "mae": 0.0229,
    "rmse": 0.0283,
    "cosine_similarity": 0.9990,
    "kl_divergence": 0.0023,
}
REFERENCE_NOTE = (
    "Published reference values include a configuration whose MAE (0.1047) "
    "exceeds its RMSE (0.1044), which no single flattened-residual convention "
    "can produce; the reference metrics are context, not reproduction targets."
)


def test_criterion_9_soft_directional_check(tmp_path):
    """Non-gating: with SEED=60 on user-supplied real quarterly data, report
    post-refinement cosine similarity vs 0.95 and KL vs 0.05."""
    csv_path = os.environ.get("FISCALFORGE_APPLE_CSV")
    if not csv_path:
        pytest.skip("set FISCALFORGE_APPLE_CSV to a real quarterly CSV to run")

    series = load_series(csv_path)
    train_part, test_part = chrono_split(series, 0.8)
    scaler = fit_scaler(train_part)
    seed = 60
    env = BudgetEnv(train_part, scaler)
    policy = train(env, TD3Config(seed=seed + 2))
    refined, _ = evolve(policy, env, GaConfig(seed=seed + 3))
    report = evaluate_policy(refined, BudgetEnv(test_part, scaler))[0]

    outcome = {
        "seed": seed,
        "observed": asdict(report),
        "targets": {"cosine_similarity_min": 0.95, "kl_divergence_max": 0.05},
        "met": {
            "cosine_similarity": report.cosine_similarity >= 0.95,
            "kl_divergence": report.kl_divergence <= 0.05,
        },
        "published_reference": REFERENCE_METRICS,
        "reference_note": REFERENCE_NOTE,
    }
    out_path = tmp_path / "soft_directional_report.json"
    out_path.write_text(json.dumps(outcome, indent=2, sort_keys=True))
    print(json.dumps(outcome, indent=2, sort_keys=True))
    _report(9, f"reported (non-gating); written to {out_path}")
