"""Evolutionary refinement operators and their statistical guarantees."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, psi
from scipy.stats import skew

from fiscalforge.data_ingest import fit_scaler
from fiscalforge.environment import BudgetEnv
from fiscalforge.errors import ContractError
from fiscalforge.neural_core import ActorPolicy, MlpSpec, init_params
from fiscalforge.quantum_ga import (
    GaConfig,
    evaluate_fitness,
    evolve,
    init_population,
    quantum_mutate,
    select_elites,
    uniform_crossover,
)

from conftest import make_series, reference_crossover, reference_mutate

ACTOR_SPEC = MlpSpec(3, (4,), 2, "simplex")


def _ga_env(n_quarters=6, seed=23):
    rng = np.random.default_rng(seed)
    rows = [(rng.uniform(5, 50), rng.uniform(5, 50), rng.uniform(-5, 20))
            for _ in range(n_quarters)]
    series = make_series(rows)
    return BudgetEnv(series, fit_scaler(series))


def _population(base, config):
    """init_population from a fresh generator at the config's seed, as evolve starts."""
    return init_population(base, config, np.random.default_rng(config.seed))


class TestInitPopulation:
    def test_zero_sigma_gives_clones(self):
        base = np.arange(10.0)
        pop = _population(base, GaConfig(init_sigma=0.0, seed=1))
        assert pop.shape == (5, 10)
        for genome in pop:
            np.testing.assert_array_equal(genome, base)

    def test_population_of_one_is_just_the_base(self):
        base = np.arange(5.0)
        pop = _population(base, GaConfig(population_size=1, seed=1))
        assert pop.shape == (1, 5)
        np.testing.assert_array_equal(pop[0], base)

    def test_individual_zero_is_unperturbed(self):
        base = np.arange(20.0)
        pop = _population(base, GaConfig(population_size=5, seed=2))
        np.testing.assert_array_equal(pop[0], base)
        for genome in pop[1:]:
            assert np.any(genome != base)

    def test_perturbations_are_centered(self):
        """1e5 pooled draws have mean within 4*sigma/sqrt(n) of zero."""
        sigma = 0.02
        base = np.zeros(1000)
        cfg = GaConfig(population_size=101, init_sigma=sigma, seed=3)
        pop = _population(base, cfg)
        draws = pop[1:].ravel()
        assert draws.size == 100_000
        assert abs(draws.mean()) <= 4.0 * sigma / math.sqrt(draws.size)

    def test_deterministic_given_seed(self):
        base = np.zeros(16)
        cfg = GaConfig(population_size=4, seed=9)
        np.testing.assert_array_equal(_population(base, cfg), _population(base, cfg))


class TestEvaluateFitness:
    def test_deterministic(self):
        env = _ga_env()
        genome = init_params(ACTOR_SPEC, 4)
        f1 = evaluate_fitness(genome[None], ACTOR_SPEC, env)[0]
        f2 = evaluate_fitness(genome[None], ACTOR_SPEC, env)[0]
        assert f1 == f2

    @settings(max_examples=25, deadline=None)
    @given(population_size=st.integers(1, 7), hidden=st.sampled_from([(4,), (64, 64)]),
           seed=st.integers(0, 2**32 - 1))
    @example(population_size=1, hidden=(4,), seed=0)
    def test_row_view_scores_bit_for_bit(self, population_size, hidden, seed):
        """evolve scores the view population[1:]: it equals the whole stack's rows
        and each row's one-row call, bit for bit; at population_size 1 it is empty."""
        spec = MlpSpec(3, hidden, 2, "simplex")
        env = _ga_env()
        config = GaConfig(population_size=population_size, init_sigma=0.5, seed=seed)
        pop = _population(init_params(spec, 4), config)
        view = evaluate_fitness(pop[1:], spec, env)
        assert view.shape == (population_size - 1,)
        assert view.tobytes() == evaluate_fitness(pop, spec, env)[1:].tobytes()
        singles = [evaluate_fitness(genome[None], spec, env).tobytes() for genome in pop[1:]]
        assert singles == [score.tobytes() for score in view]

    def test_never_positive(self):
        env = _ga_env()
        rng = np.random.default_rng(5)
        for _ in range(10):
            genome = rng.normal(0, 1.0, size=ACTOR_SPEC.param_count())
            assert evaluate_fitness(genome[None], ACTOR_SPEC, env)[0] <= 0.0

    def test_uniform_policy_matches_independent_arithmetic(self):
        """Zero parameters force [0.5, 0.5]; reward recomputed from raw data."""
        rows = [(10, 30, 1), (30, 10, 2), (20, 20, 3), (25, 15, 4)]
        series = make_series(rows)
        env = BudgetEnv(series, fit_scaler(series))
        genome = np.zeros(ACTOR_SPEC.param_count())
        got = evaluate_fitness(genome[None], ACTOR_SPEC, env)[0]

        def kl(a, b):
            a, b = np.asarray(a, float), np.asarray(b, float)
            return float(
                gammaln(a.sum()) - gammaln(b.sum())
                - (gammaln(a) - gammaln(b)).sum()
                + ((a - b) * (psi(a) - psi(a.sum()))).sum()
            )

        prior = np.array([5.0, 3.0])
        alpha = prior.copy()
        action = np.array([0.5, 0.5])
        expected = 0.0
        for t in range(len(rows) - 1):
            rnd, sga, _ = rows[t + 1]
            emp = np.array([rnd / (rnd + sga), sga / (rnd + sga)])
            alpha = alpha + emp
            expected += (
                -np.abs(action - emp).sum()
                - 0.1 * np.linalg.norm(action - action)
                - 0.01 * kl(alpha, prior)
            )
        assert got == pytest.approx(expected, abs=1e-12)


class TestSelectElites:
    def test_two_of_five_at_forty_percent(self):
        fitness = np.array([-5.0, -1.0, -3.0, -2.0, -4.0])
        elites = select_elites(fitness, 0.4)
        assert fitness[elites].tolist() == [-1.0, -2.0]

    def test_fraction_one_keeps_everyone(self):
        assert len(select_elites(np.array([-5.0, -1.0, -3.0]), 1.0)) == 3

    def test_ties_broken_by_lower_index(self):
        elites = select_elites(np.array([-2.0, -2.0, -2.0, -2.0]), 0.5)
        assert elites.tolist() == [0, 1]

    def test_unevaluated_individual_rejected(self):
        with pytest.raises(ContractError):
            select_elites(np.array([-1.0, np.nan]), 0.5)


class TestUniformCrossover:
    def test_identical_parents_identical_child(self):
        rng = np.random.default_rng(0)
        parent = np.arange(12.0)
        np.testing.assert_array_equal(uniform_crossover(parent, parent, rng), parent)

    def test_child_genes_come_from_a_parent(self):
        rng = np.random.default_rng(1)
        a, b = np.zeros(50), np.ones(50)
        child = uniform_crossover(a, b, rng)
        assert np.all((child == 0.0) | (child == 1.0))

    def test_mask_patterns_uniform(self):
        """On a 2-gene genome each of the 4 masks appears ~25% of the time."""
        rng = np.random.default_rng(2)
        a, b = np.zeros(2), np.ones(2)
        counts = {}
        trials = 100_000
        for _ in range(trials):
            child = uniform_crossover(a, b, rng)
            key = (int(child[0]), int(child[1]))
            counts[key] = counts.get(key, 0) + 1
        for key in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert counts[key] / trials == pytest.approx(0.25, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            uniform_crossover(np.zeros(3), np.zeros(4), np.random.default_rng(0))


class TestQuantumMutate:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(5)
        genome = np.arange(30.0)
        out, deltas = quantum_mutate(genome, GaConfig(mutation_rate=0.0), rng)
        np.testing.assert_array_equal(out, genome)
        assert deltas.size == 0

    def test_offsets_bounded_by_strength(self):
        rng = np.random.default_rng(6)
        cfg = GaConfig(mutation_rate=1.0, mutation_strength=0.05, rotation_sigma=5.0)
        _, deltas = quantum_mutate(np.zeros(10_000), cfg, rng)
        assert np.all(np.abs(deltas) <= cfg.mutation_strength)

    def test_unselected_genes_untouched(self):
        rng = np.random.default_rng(7)
        genome = np.arange(500.0)
        cfg = GaConfig(mutation_rate=0.2, mutation_strength=0.05)
        out, deltas = quantum_mutate(genome, cfg, rng)
        changed = np.flatnonzero(out != genome)
        assert changed.size <= deltas.size
        untouched = np.setdiff1d(np.arange(genome.size), changed)
        np.testing.assert_array_equal(out[untouched], genome[untouched])

    def test_offsets_centered_and_symmetric(self):
        """1e5 offsets: mean within 4*(eta/sqrt(2))/sqrt(n), |skew| < 0.05."""
        rng = np.random.default_rng(8)
        eta = 0.05
        cfg = GaConfig(mutation_rate=1.0, mutation_strength=eta, rotation_sigma=0.3)
        _, deltas = quantum_mutate(np.zeros(100_000), cfg, rng)
        assert deltas.size == 100_000
        assert abs(deltas.mean()) <= 4.0 * (eta / math.sqrt(2.0)) / math.sqrt(deltas.size)
        assert abs(skew(deltas)) < 0.05

    def test_matches_rotation_semantics(self):
        """An offset is strength times the |1> amplitude of a rotated ground state."""
        rng = np.random.default_rng(9)
        cfg = GaConfig(mutation_rate=1.0, mutation_strength=0.05, rotation_sigma=0.3)
        out, deltas = quantum_mutate(np.zeros(4), cfg, rng)
        replay = np.random.default_rng(9)
        replay.random(4)  # the selection draw
        dtheta = replay.normal(0.0, cfg.rotation_sigma, size=4)
        ground = np.array([1.0, 0.0])
        expected = np.array(
            [cfg.mutation_strength
             * (np.array([[math.cos(dt), -math.sin(dt)],
                          [math.sin(dt), math.cos(dt)]]) @ ground)[1]
             for dt in dtheta]
        )
        np.testing.assert_allclose(deltas, expected, atol=1e-15)
        np.testing.assert_allclose(out, expected, atol=1e-15)


# Bit patterns whose float64 arithmetic is easy to get wrong: +0.0 and -0.0,
# quiet and signalling NaNs with payloads (one with its sign bit set), +-inf,
# the smallest and largest subnormals, and the largest finite value.
_SPECIAL_BITS = np.array(
    [0x0000000000000000, 0x8000000000000000, 0x7FF8000000001234, 0xFFF0000000000001,
     0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
     0x7FEFFFFFFFFFFFFF],
    dtype=np.uint64,
)
_SPECIALS = _SPECIAL_BITS.view(np.float64)
_gene_bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS.tolist()))
_shapes = st.one_of(st.tuples(st.integers(0, 40)),
                    st.tuples(st.integers(1, 6), st.integers(1, 6)))


@st.composite
def _genomes(draw, count):
    """count float64 arrays of one 1-D or 2-D shape, from arbitrary bit patterns.

    A 2-D draw may come transposed, so the kernels also see F-ordered input.
    """
    shape = draw(_shapes)
    size = math.prod(shape)
    arrays = [np.array(draw(st.lists(_gene_bits, min_size=size, max_size=size)),
                       dtype=np.uint64).view(np.float64).reshape(shape)
              for _ in range(count)]
    if len(shape) == 2 and draw(st.booleans()):
        arrays = [a.T for a in arrays]
    return arrays


class TestKernelOracle:
    """The branch-free kernels against the per-gene select and mask forms they
    replaced (conftest's reference operators): same bytes, same draws."""

    @settings(max_examples=150, deadline=None)
    @given(parents=_genomes(2), seed=st.integers(0, 2**32 - 1))
    @example(parents=[_SPECIALS, _SPECIALS[::-1].copy()], seed=0)
    @example(parents=[np.tile(_SPECIALS, (9, 1)), np.tile(_SPECIALS, (9, 1)).T.copy()], seed=1)
    def test_crossover_matches_select(self, parents, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = uniform_crossover(*parents, got_rng)
        want = reference_crossover(*parents, want_rng)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        genome=_genomes(1).map(lambda arrays: arrays[0]),
        seed=st.integers(0, 2**32 - 1),
        rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        strength=st.sampled_from([0.0, 0.05, 0.7]),
        rotation_sigma=st.sampled_from([0.0, 0.3, 5.0]),
    )
    @example(genome=_SPECIALS, seed=2, rate=1.0, strength=0.05, rotation_sigma=0.3)
    @example(genome=np.tile(_SPECIALS, (5, 1)), seed=3, rate=0.5, strength=0.7,
             rotation_sigma=5.0)
    def test_mutation_matches_mask(self, genome, seed, rate, strength, rotation_sigma):
        config = GaConfig(mutation_rate=rate, mutation_strength=strength,
                          rotation_sigma=rotation_sigma)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        before = genome.tobytes()
        with np.errstate(invalid="ignore"):  # a signalling NaN gene plus an offset
            got, got_deltas = quantum_mutate(genome, config, got_rng)
            want, want_deltas = reference_mutate(genome, config, want_rng)
        assert genome.tobytes() == before  # the input is not mutated in place
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_deltas.dtype == want_deltas.dtype and got_deltas.shape == want_deltas.shape
        assert got_deltas.tobytes() == want_deltas.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestEvolve:
    def _base_policy(self, seed=10):
        return ActorPolicy(ACTOR_SPEC, init_params(ACTOR_SPEC, seed))

    def test_zero_generations_returns_base(self):
        base = self._base_policy()
        best, logs = evolve(base, _ga_env(), GaConfig(generations=0))
        assert logs == []
        np.testing.assert_array_equal(best.params, base.params)

    def test_best_fitness_never_decreases(self):
        base = self._base_policy()
        _, logs = evolve(base, _ga_env(), GaConfig(generations=8, population_size=5, seed=1))
        bests = [g.best for g in logs]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_final_best_at_least_base_fitness(self):
        base = self._base_policy()
        env = _ga_env()
        base_fitness = evaluate_fitness(base.params[None], base.spec, env)[0]
        best, logs = evolve(base, env, GaConfig(generations=5, seed=2))
        assert logs[-1].best >= base_fitness
        assert evaluate_fitness(best.params[None], best.spec, env)[0] >= base_fitness

    def test_population_size_constant(self):
        _, logs = evolve(self._base_policy(), _ga_env(),
                         GaConfig(generations=4, population_size=5, seed=3))
        assert all(len(g.fitnesses) == 5 for g in logs)

    def test_log_ordering_invariant(self):
        _, logs = evolve(self._base_policy(), _ga_env(),
                         GaConfig(generations=4, population_size=6, seed=4))
        for g in logs:
            assert g.best >= g.mean >= min(g.fitnesses)

    def test_genome_length_preserved(self):
        best, _ = evolve(self._base_policy(), _ga_env(), GaConfig(generations=3, seed=5))
        assert best.params.size == ACTOR_SPEC.param_count()

    def test_deterministic(self):
        cfg = GaConfig(generations=4, seed=6)
        b1, l1 = evolve(self._base_policy(), _ga_env(), cfg)
        b2, l2 = evolve(self._base_policy(), _ga_env(), cfg)
        np.testing.assert_array_equal(b1.params, b2.params)
        assert l1 == l2
