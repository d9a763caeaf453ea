"""Evolutionary refinement of a trained actor genome.

The genome is the actor's flat parameter vector. A small population is
seeded around the trained policy with Gaussian noise (the unperturbed
policy itself is individual 0), scored by cumulative greedy reward,
thinned to an elite fraction, and refilled by uniform crossover of
random elite pairs plus a quantum-inspired mutation: each selected gene
is read as a qubit in its ground state, rotated through a Gaussian
angle dtheta, and nudged by the resulting |1> amplitude, sin(dtheta),
scaled by the mutation strength. The perturbations are therefore
zero-centered, symmetric, and bounded by the strength.

Fitness is the cumulative reward of one greedy episode,
BudgetEnv.rollout with the genome's noise-free actor; the episode is
deterministic, so one suffices.

The best individual ever seen is carried forward unmodified each
generation, so the best fitness can never regress below the input
policy's own score.
"""

import math
from dataclasses import dataclass

import numpy as np

from .environment import BudgetEnv
from .errors import ContractError, ShapeError
from .neural_core import ActorPolicy, MlpSpec, forward_actor

__all__ = [
    "Individual",
    "GaConfig",
    "GenerationLog",
    "init_population",
    "evaluate_fitness",
    "select_elites",
    "uniform_crossover",
    "quantum_mutate",
    "evolve",
]


@dataclass
class Individual:
    genome: np.ndarray
    fitness: float | None = None


@dataclass(frozen=True)
class GaConfig:
    generations: int = 10
    population_size: int = 5
    elite_fraction: float = 0.4
    mutation_rate: float = 0.1
    init_sigma: float = 0.02
    mutation_strength: float = 0.05
    rotation_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.generations < 0 or self.population_size < 1:
            raise ContractError("need generations >= 0 and population_size >= 1")
        if not 0.0 < self.elite_fraction <= 1.0:
            raise ContractError("elite_fraction must lie in (0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ContractError("mutation_rate must lie in [0, 1]")
        if min(self.init_sigma, self.mutation_strength, self.rotation_sigma) < 0:
            raise ContractError("noise scales must be non-negative")


@dataclass(frozen=True)
class GenerationLog:
    generation: int
    best: float
    mean: float
    fitnesses: tuple[float, ...]
    n_mutations: int
    perturbations: tuple[float, ...]


def init_population(
    base: np.ndarray, config: GaConfig, rng: np.random.Generator | None = None
) -> list[Individual]:
    """Gaussian cloud around the base genome; individual 0 is the base itself."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    base = np.asarray(base, dtype=np.float64)
    population = [Individual(base.copy())]
    for _ in range(config.population_size - 1):
        population.append(
            Individual(base + rng.normal(0.0, config.init_sigma, size=base.shape))
        )
    return population


def evaluate_fitness(genome: np.ndarray, spec: MlpSpec, env: BudgetEnv) -> float:
    """Cumulative reward of a greedy (noise-free) rollout from reset."""
    total = 0.0
    for reward in env.rollout(lambda state: forward_actor(genome, spec, state)).rewards:
        total += reward.total
    return total


def select_elites(population: list[Individual], elite_fraction: float) -> list[Individual]:
    """Top ceil(fraction * N) by fitness, ties broken by lower index."""
    for i, ind in enumerate(population):
        if ind.fitness is None:
            raise ContractError(f"individual {i} has no fitness yet")
    k = math.ceil(elite_fraction * len(population))
    order = sorted(range(len(population)), key=lambda i: (-population[i].fitness, i))
    return [population[i] for i in order[:k]]


def uniform_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Each gene drawn from either parent with probability one half."""
    parent_a = np.asarray(parent_a, dtype=np.float64)
    parent_b = np.asarray(parent_b, dtype=np.float64)
    if parent_a.shape != parent_b.shape:
        raise ShapeError("parents have different genome lengths")
    mask = rng.random(parent_a.shape) < 0.5
    return np.where(mask, parent_a, parent_b)


def quantum_mutate(
    genome: np.ndarray, config: GaConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-read mutation of randomly selected genes.

    Each selected gene is read as a qubit in its ground state |0>. The
    planar rotation gate [[cos, -sin], [sin, cos]] through an angle
    dtheta ~ N(0, sigma^2) takes it to cos(dtheta)|0> + sin(dtheta)|1>,
    and the gene moves by strength times that |1> amplitude:
    strength * sin(dtheta). Returns the mutated genome and the recorded
    offsets.
    """
    genome = np.asarray(genome, dtype=np.float64).copy()
    mask = rng.random(genome.shape) < config.mutation_rate
    count = int(mask.sum())
    if count == 0:
        return genome, np.empty(0)
    dtheta = rng.normal(0.0, config.rotation_sigma, size=count)
    deltas = config.mutation_strength * np.sin(dtheta)
    genome[mask] += deltas
    return genome, deltas


def evolve(
    base_policy: ActorPolicy, env: BudgetEnv, config: GaConfig
) -> tuple[ActorPolicy, list[GenerationLog]]:
    """Refine the base policy; returns the all-time best and per-generation logs."""
    logs: list[GenerationLog] = []
    if config.generations == 0:
        return base_policy, logs

    rng = np.random.default_rng(config.seed)
    population = init_population(base_policy.params, config, rng)
    best_genome = base_policy.params.copy()
    best_fitness = -math.inf

    for generation in range(config.generations):
        for ind in population:
            if ind.fitness is None:
                ind.fitness = evaluate_fitness(ind.genome, base_policy.spec, env)
        fitnesses = [ind.fitness for ind in population]
        gen_best_idx = int(np.argmax(fitnesses))
        if fitnesses[gen_best_idx] > best_fitness:
            best_fitness = fitnesses[gen_best_idx]
            best_genome = population[gen_best_idx].genome.copy()

        elites = select_elites(population, config.elite_fraction)
        offspring: list[Individual] = []
        perturbations: list[float] = []
        for _ in range(config.population_size - 1):
            pa = elites[rng.integers(0, len(elites))]
            pb = elites[rng.integers(0, len(elites))]
            child = uniform_crossover(pa.genome, pb.genome, rng)
            child, deltas = quantum_mutate(child, config, rng)
            offspring.append(Individual(child))
            perturbations.extend(deltas.tolist())

        logs.append(
            GenerationLog(
                generation=generation,
                best=float(fitnesses[gen_best_idx]),
                mean=float(np.mean(fitnesses)),
                fitnesses=tuple(float(f) for f in fitnesses),
                n_mutations=len(perturbations),
                perturbations=tuple(perturbations),
            )
        )
        # The all-time best re-enters unmodified (elitist hall of fame).
        population = [Individual(best_genome.copy(), best_fitness)] + offspring

    return ActorPolicy(base_policy.spec, best_genome.copy()), logs
