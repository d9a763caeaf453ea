"""The greedy-episode path against an independent step-by-step oracle.

GA fitness and held-out evaluation both run one BudgetEnv.rollout. The
oracle below recomputes the same episode per quarter from the series
(empirical shares, sequential belief update, Dirichlet penalty) in the
step loop's reward order and trace-record layout. Fitness must match
bit for bit and trace.jsonl line for line.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fiscalforge.data_ingest import fit_scaler
from fiscalforge.environment import (
    BeliefConfig,
    BudgetEnv,
    RewardConfig,
    empirical_allocation,
    update_belief,
    validate_action,
)
from fiscalforge.evaluation import evaluate_policy
from fiscalforge.neural_core import ActorPolicy, MlpSpec, forward_actor, init_params
from fiscalforge.quantum_ga import evaluate_fitness
from fiscalforge.special_functions import dirichlet_kl
from fiscalforge.td3_trainer import ACTOR_HIDDEN

from conftest import make_series

SCALER = fit_scaler(make_series([(1, 2, -5), (10, 20, 0), (40, 30, 10), (60, 50, 20)]))


def _oracle_episode(genome, spec, series, reward, belief):
    """(cumulative reward, trace.jsonl lines) of one greedy episode."""
    prior = np.array(belief.prior)
    alpha, prev = prior.copy(), np.array([0.5, 0.5])
    total = 0.0
    lines = []
    for t in range(len(series) - 1):
        rec = series[t]
        state = np.array([
            SCALER.scale_value("rnd", rec.rnd),
            SCALER.scale_value("sga", rec.sga),
            SCALER.scale_value("net_income", rec.net_income),
        ])
        a = validate_action(forward_actor(genome, spec, state))
        empirical = empirical_allocation(series, t)
        alpha = update_belief(alpha, empirical, belief.confidence)
        accuracy = -float(np.abs(a - empirical).sum())
        smoothness = -reward.lambda1 * float(np.linalg.norm(a - prev))
        belief_term = -reward.lambda2 * dirichlet_kl(alpha, prior)
        step_total = accuracy + smoothness + belief_term
        total += step_total
        record = {
            "t": t,
            "action": a.tolist(),
            "empirical": empirical.tolist(),
            "reward_terms": {
                "accuracy": accuracy,
                "smoothness": smoothness,
                "belief": belief_term,
                "total": step_total,
            },
            "alpha": alpha.tolist(),
        }
        lines.append(json.dumps(record, sort_keys=True))
        prev = a
    return total, lines


_positive = st.floats(0.0, 100.0, allow_nan=False)
_rows = st.lists(
    st.tuples(_positive, _positive, st.floats(-50.0, 50.0)).filter(lambda r: r[0] + r[1] > 0),
    min_size=2, max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(
    rows=_rows,
    hidden=st.sampled_from([(4,), (8, 8), ACTOR_HIDDEN]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.1, 20.0),
    lambdas=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    prior=st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 20.0)),
    confidence=st.floats(0.0, 5.0),
)
def test_rollout_matches_step_oracle(
    rows, hidden, seed, scale, lambdas, prior, confidence, tmp_path_factory
):
    series = make_series(rows)
    spec = MlpSpec(3, hidden, 2, "simplex")
    genome = scale * init_params(spec, seed)
    reward, belief = RewardConfig(*lambdas), BeliefConfig(prior, confidence)
    expected_total, expected_lines = _oracle_episode(genome, spec, series, reward, belief)

    env = BudgetEnv(series, SCALER, reward, belief)
    assert evaluate_fitness(genome, spec, env) == expected_total

    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    _, pairs = evaluate_policy(ActorPolicy(spec, genome), env, trace_path=path)
    assert path.read_text(encoding="utf-8").splitlines() == expected_lines
    for pair, line in zip(pairs, expected_lines, strict=True):
        record = json.loads(line)
        assert pair.predicted.tolist() == record["action"]
        assert pair.actual.tolist() == record["empirical"]
