"""The greedy-episode path against an independent step-by-step oracle.

GA fitness and held-out evaluation score whole episodes at once
(forward_population, then BudgetEnv.episode_rewards or episode_totals).
The oracle below recomputes each episode per quarter from conftest's
plain-Python tables (scaled states, empirical shares, sequential belief
update, Dirichlet penalty) in the step loop's reward order and
trace-record layout. Fitness must match
bit for bit and trace.jsonl line for line, and evolve must match the
per-individual loop it replaced, which keeps its raw mutation offsets
and bins them in plain Python, and breeds with conftest's reference
operators (an np.where crossover and a boolean-mask mutation), not with
the production kernels.
"""

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiscalforge.data_ingest import fit_scaler
from fiscalforge.environment import (
    BeliefConfig,
    BudgetEnv,
    RewardConfig,
    validate_action,
    write_trace,
)
from fiscalforge.errors import ContractError
from fiscalforge.evaluation import evaluate_policy
from fiscalforge.neural_core import (
    ActorPolicy,
    MlpSpec,
    forward_actor,
    forward_population,
    init_params,
)
from fiscalforge.quantum_ga import (
    PERTURBATION_BINS,
    GaConfig,
    evaluate_fitness,
    evolve,
    perturbation_edges,
)
from fiscalforge.td3_trainer import ACTOR_SPEC

from conftest import make_series, oracle_tables, reference_crossover, reference_mutate

SCALER = fit_scaler(make_series([(1, 2, -5), (10, 20, 0), (40, 30, 10), (60, 50, 20)]))


def _oracle_episode(genome, spec, series, reward, belief):
    """(cumulative reward, trace.jsonl lines) of one greedy episode."""
    states, shares, alphas, belief_terms = oracle_tables(series, SCALER, reward, belief)
    prev = np.array([0.5, 0.5])
    total = 0.0
    lines = []
    for t, (empirical, alpha, belief_term) in enumerate(zip(shares, alphas, belief_terms)):
        a = validate_action(forward_actor(genome, spec, np.array(states[t])))
        accuracy = -float(np.abs(a - np.array(empirical)).sum())
        smoothness = -reward.lambda1 * float(np.linalg.norm(a - prev))
        step_total = accuracy + smoothness + belief_term
        total += step_total
        record = {
            "t": t,
            "action": a.tolist(),
            "empirical": empirical,
            "reward_terms": {
                "accuracy": accuracy,
                "smoothness": smoothness,
                "belief": belief_term,
                "total": step_total,
            },
            "alpha": alpha,
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
    hidden=st.sampled_from([(4,), (8, 8), ACTOR_SPEC.hidden_dims]),
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
    assert evaluate_fitness(genome[None], spec, env)[0] == expected_total

    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    _, actions, rewards = evaluate_policy(ActorPolicy(spec, genome), env)
    write_trace(env, actions, rewards, path)
    assert path.read_text(encoding="utf-8").splitlines() == expected_lines
    for action, actual, line in zip(actions, env.empirical, expected_lines, strict=True):
        record = json.loads(line)
        assert action.tolist() == record["action"]
        assert actual.tolist() == record["empirical"]


# Large enough that some softmax components underflow to exactly 0.0.
SATURATING_SCALE = 1000.0


@settings(max_examples=60, deadline=None)
@given(
    rows=_rows,
    n=st.integers(1, 6),
    hidden=st.sampled_from([(4,), (8, 8), ACTOR_SPEC.hidden_dims]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.one_of(st.floats(0.1, 20.0), st.just(SATURATING_SCALE)),
    lambdas=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    prior=st.tuples(st.floats(0.1, 20.0), st.floats(0.1, 20.0)),
    confidence=st.floats(0.0, 5.0),
)
@example(rows=[(1, 2, -5), (10, 20, 0), (40, 30, 10), (60, 50, 20), (5, 9, 1)], n=3,
         hidden=ACTOR_SPEC.hidden_dims, seed=11, scale=SATURATING_SCALE, lambdas=(0.1, 0.01),
         prior=(5.0, 3.0), confidence=1.0)
def test_population_matches_step_oracle(rows, n, hidden, seed, scale, lambdas, prior, confidence):
    """Every row of one evaluate_fitness call equals its own step-loop episode."""
    series = make_series(rows)
    spec = MlpSpec(3, hidden, 2, "simplex")
    rng = np.random.default_rng(seed)
    genomes = scale * np.stack([init_params(spec, int(s)) for s in rng.integers(0, 2**32, n)])
    genomes[:, -2:] = rng.normal(0.0, scale, size=(n, 2))  # non-zero output biases
    reward, belief = RewardConfig(*lambdas), BeliefConfig(prior, confidence)
    env = BudgetEnv(series, SCALER, reward, belief)

    totals = evaluate_fitness(genomes, spec, env)
    assert totals.shape == (n,)
    for genome, total in zip(genomes, totals):
        expected, _ = _oracle_episode(genome, spec, series, reward, belief)
        assert float(total).hex() == expected.hex()


def test_saturating_scale_gives_exact_zero_shares():
    """SATURATING_SCALE does drive shares to 0.0, so the oracle tests cover them."""
    spec = ACTOR_SPEC
    env = BudgetEnv(make_series([(1, 2, -5), (10, 20, 0), (40, 30, 10), (60, 50, 20)]), SCALER)
    genome = SATURATING_SCALE * init_params(spec, 11)
    assert np.any(forward_population(genome[None], spec, env.states[:-1]) == 0.0)


def _edges(strength):
    """PERTURBATION_BINS equal bins over [-strength, strength]; [-0.5, 0.5] at strength 0."""
    half = strength if strength > 0 else 0.5
    return np.linspace(-half, half, PERTURBATION_BINS + 1).tolist()


def _histogram(offsets, strength):
    """Count each offset in the bin whose [low, high) holds it; the last bin is closed."""
    edges = _edges(strength)
    counts = [0] * PERTURBATION_BINS
    for d in offsets:
        counts[min(bisect_right(edges, d) - 1, PERTURBATION_BINS - 1)] += 1
    return tuple(counts)


@dataclass
class _Individual:
    genome: np.ndarray
    fitness: float | None = None


def _individual_loop(base, config, series, reward, belief):
    """The GA as a list of individuals, each scored by its own step-loop episode."""
    def fitness(genome):
        return _oracle_episode(genome, base.spec, series, reward, belief)[0]

    rng = np.random.default_rng(config.seed)
    population = [_Individual(base.params.copy())]
    for _ in range(config.population_size - 1):
        population.append(_Individual(
            base.params + rng.normal(0.0, config.init_sigma, size=base.params.shape)))
    best_genome, best_fitness = base.params.copy(), -math.inf
    logs = []
    for generation in range(config.generations):
        for ind in population:
            if ind.fitness is None:
                ind.fitness = fitness(ind.genome)
        fitnesses = [ind.fitness for ind in population]
        gen_best = int(np.argmax(fitnesses))
        if fitnesses[gen_best] > best_fitness:
            best_fitness = fitnesses[gen_best]
            best_genome = population[gen_best].genome.copy()
        order = sorted(range(len(population)), key=lambda i: (-population[i].fitness, i))
        elites = [population[i] for i in order[:math.ceil(config.elite_fraction * len(population))]]
        offspring, perturbations = [], []
        for _ in range(config.population_size - 1):
            pa = elites[rng.integers(0, len(elites))]
            pb = elites[rng.integers(0, len(elites))]
            child, deltas = reference_mutate(reference_crossover(pa.genome, pb.genome, rng),
                                             config, rng)
            offspring.append(_Individual(child))
            perturbations.extend(deltas.tolist())
        logs.append((generation, float(fitnesses[gen_best]), float(np.mean(fitnesses)),
                     tuple(float(f) for f in fitnesses), len(perturbations),
                     _histogram(perturbations, config.mutation_strength)))
        population = [_Individual(best_genome.copy(), best_fitness)] + offspring
    return best_genome, logs


@settings(max_examples=25, deadline=None)
@given(
    rows=_rows,
    hidden=st.sampled_from([(4,), (8, 8), ACTOR_SPEC.hidden_dims]),
    seed=st.integers(0, 2**32 - 1),
    generations=st.integers(2, 4),
    population_size=st.integers(1, 6),
    elite_fraction=st.floats(0.05, 1.0),
    mutation_rate=st.floats(0.0, 1.0),
    mutation_strength=st.sampled_from([0.0, 0.05, 0.7]),
    init_sigma=st.sampled_from([0.0, 0.02, 0.5, 30.0]),
    lambdas=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)
# Saturated actors: distinct genomes tie on fitness, so the tie-break shows.
@example(rows=[(1, 2, -5), (10, 20, 0), (40, 30, 10), (60, 50, 20), (5, 9, 1)],
         hidden=(8, 8), seed=2, generations=3, population_size=6, elite_fraction=0.5,
         mutation_rate=0.5, mutation_strength=0.05, init_sigma=30.0, lambdas=(0.1, 0.01))
# Zero strength: every offset is exactly 0.0. Zero rate: no offset at all.
@example(rows=[(1, 2, -5), (10, 20, 0), (40, 30, 10)], hidden=(4,), seed=3, generations=2,
         population_size=5, elite_fraction=0.4, mutation_rate=0.5, mutation_strength=0.0,
         init_sigma=0.02, lambdas=(0.1, 0.01))
@example(rows=[(1, 2, -5), (10, 20, 0), (40, 30, 10)], hidden=(4,), seed=4, generations=2,
         population_size=5, elite_fraction=0.4, mutation_rate=0.0, mutation_strength=0.05,
         init_sigma=0.02, lambdas=(0.1, 0.01))
def test_evolve_matches_individual_loop(
    rows, hidden, seed, generations, population_size, elite_fraction, mutation_rate,
    mutation_strength, init_sigma, lambdas,
):
    """The array GA refines to the same genome bytes and logs as the per-individual loop."""
    series = make_series(rows)
    spec = MlpSpec(3, hidden, 2, "simplex")
    base = ActorPolicy(spec, init_params(spec, seed))
    reward, belief = RewardConfig(*lambdas), BeliefConfig()
    env = BudgetEnv(series, SCALER, reward, belief)
    config = GaConfig(generations=generations, population_size=population_size,
                      elite_fraction=elite_fraction, mutation_rate=mutation_rate,
                      init_sigma=init_sigma, mutation_strength=mutation_strength, seed=seed)

    best, logs = evolve(base, env, config)
    expected_genome, expected_logs = _individual_loop(base, config, series, reward, belief)
    assert best.params.tobytes() == expected_genome.tobytes()
    got = [(g.generation, g.best, g.mean, g.fitnesses, g.n_mutations, g.histogram)
           for g in logs]
    assert repr(got) == repr(expected_logs)
    assert perturbation_edges(config).tolist() == _edges(mutation_strength)
    # Offsets never exceed the strength (criterion 6), so the edges hold every one.
    assert all(sum(g.histogram) == g.n_mutations for g in logs)


# A row near the simplex (drift within tolerance, a share of 0 or 1 can
# dip just below zero) and a row drawn anywhere around it.
_near_row = st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 4e-7, -4e-7]),
                      st.sampled_from([0.0, 4e-7, -4e-7]))
_any_row = st.tuples(st.floats(-0.5, 1.5), st.sampled_from([0.0, 4e-7, 2e-6, 0.3]),
                     st.sampled_from([0.0, -2e-6]))


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(1,), (5,), (2, 3), (3, 1, 2)]), data=st.data())
def test_rowwise_validation_matches_one_row_calls(shape, data):
    """A (..., 2) stack is validated as each of its rows would be on its own."""
    n = math.prod(shape)
    rows = data.draw(st.lists(_near_row, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, n - 1))] = data.draw(_any_row)
    stack = np.array([[p + d0, 1.0 - p + d1] for p, d0, d1 in rows]).reshape(*shape, 2)

    one_by_one = []
    for row in stack.reshape(-1, 2):
        try:
            one_by_one.append(validate_action(row))
        except ContractError:
            with pytest.raises(ContractError):
                validate_action(stack)
            return
    out = validate_action(stack)
    assert out.shape == stack.shape
    assert out.reshape(-1, 2).tobytes() == np.array(one_by_one).tobytes()
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [[np.nan, 0.5], [np.inf, 0.0], [0.7, 0.4], [1.2, -0.2]])
def test_one_bad_row_rejects_the_stack(bad):
    with pytest.raises(ContractError):
        validate_action(np.array(bad))
    with pytest.raises(ContractError):
        validate_action(np.array([[0.5, 0.5], bad, [0.25, 0.75]]))
