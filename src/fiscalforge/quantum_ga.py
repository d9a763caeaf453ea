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

Each generation's offsets are kept only as counts: a histogram of
PERTURBATION_BINS equal bins whose edges, perturbation_edges, span
[-strength, +strength] (numpy widens a zero strength to [-0.5, 0.5]).
Since no offset exceeds the strength, every offset is counted, and a
generation's counts sum to its n_mutations.

The population is one (N, P) array of genome rows with a fitness
vector beside it. Fitness is the cumulative reward of one greedy episode
with the genome's noise-free actor; the episode is deterministic, so one
suffices. It is also open-loop, since the state of step t is quarter t
whatever the actions, so evaluate_fitness scores a whole stack of rows
at once: one forward_population call gives all their actions and one
BudgetEnv.episode_rewards call all their rewards, and each total, summed
in step order, is bit-identical to the sum of step()'s rewards for the
same actions and to a one-row call.

The best individual ever seen is carried forward unmodified each
generation as row 0, so the best fitness can never regress below the
input policy's own score. Row 0 keeps its recorded score; each later
generation scores only the contiguous view population[1:].

The two operators never branch per gene on their random masks: a branch
on a random mask is mispredicted on a large share of the genes (about
half of them for crossover's even draw). Crossover selects bits: with m all ones where
the mask picks parent a and zero elsewhere, the child's int64 view is
b ^ ((a ^ b) & m), which copies every bit of the chosen parent exactly
as a per-gene select would, -0.0, NaN payloads, infinities and
subnormals included. Mutation turns its mask into the ascending list of
selected flat indices, the order boolean indexing visits them in, and
adds the offsets at those indices. Both make the same rng draws in the
same order as the masked forms, so every genome and fitness keeps its
bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .environment import BudgetEnv
from .errors import ContractError
from .neural_core import ActorPolicy, MlpSpec, forward_population

__all__ = [
    "GaConfig",
    "GenerationLog",
    "init_population",
    "evaluate_fitness",
    "select_elites",
    "uniform_crossover",
    "quantum_mutate",
    "PERTURBATION_BINS",
    "perturbation_edges",
    "evolve",
]

PERTURBATION_BINS = 20


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
        if self.generations < 0 or not 0 < self.population_size < 2**31:
            raise ContractError("need generations >= 0 and 0 < population_size < 2**31")
        if not 0.0 < self.elite_fraction <= 1.0:
            raise ContractError("elite_fraction must lie in (0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ContractError("mutation_rate must lie in [0, 1]")
        if min(self.init_sigma, self.mutation_strength, self.rotation_sigma) < 0:
            raise ContractError("noise scales must be non-negative")
        try:  # numpy's rule for evolve's histogram: (-s, s) must split into finite bins
            with np.errstate(over="ignore", invalid="ignore"):
                perturbation_edges(self)
        except ValueError as exc:
            raise ContractError(f"mutation_strength {self.mutation_strength}: {exc}") from None


@dataclass(frozen=True)
class GenerationLog:
    generation: int
    best: float
    mean: float
    fitnesses: tuple[float, ...]
    n_mutations: int
    histogram: tuple[int, ...]  # offset counts per bin of perturbation_edges


def init_population(base: np.ndarray, config: GaConfig, rng: np.random.Generator) -> np.ndarray:
    """(population_size, P) Gaussian cloud around the base genome; row 0 is the base itself."""
    base = np.asarray(base, dtype=np.float64)
    noise = rng.normal(0.0, config.init_sigma, size=(config.population_size - 1, base.size))
    return np.vstack([base, base + noise])


def evaluate_fitness(genomes: np.ndarray, spec: MlpSpec, env: BudgetEnv) -> np.ndarray:
    """Cumulative greedy-episode reward of each row of an (N, P) genome stack: (N,).

    A greedy episode is open-loop: the state of step t is quarter t
    whatever the actions, so every action of every genome comes from one
    forward_population call and every reward from one
    env.episode_rewards call. Each total is summed in step order from 0.0.
    """
    steps = env.episode_rewards(forward_population(genomes, spec, env.states[:-1]))[1].total
    totals = np.zeros(len(steps))
    for t in range(steps.shape[-1]):
        totals += steps[:, t]
    return totals


def select_elites(fitness: np.ndarray, elite_fraction: float) -> np.ndarray:
    """Indices of the top ceil(fraction * N) fitnesses, ties broken by lower index."""
    fitness = np.asarray(fitness, dtype=np.float64)
    nan = np.flatnonzero(np.isnan(fitness))
    if nan.size:
        raise ContractError(f"individual {nan[0]} has a NaN fitness")
    k = math.ceil(elite_fraction * len(fitness))
    return np.argsort(-fitness, kind="stable")[:k]


def uniform_crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Each gene drawn from either parent with probability one half."""
    parent_a = np.asarray(parent_a, dtype=np.float64)
    parent_b = np.asarray(parent_b, dtype=np.float64)
    if parent_a.shape != parent_b.shape:
        raise ContractError("parents have different genome lengths")
    mask = rng.random(parent_a.shape) < 0.5
    a, b = parent_a.view(np.int64), parent_b.view(np.int64)
    child = np.negative(mask, dtype=np.int64)  # -1 (all bits set) picks parent_a
    child &= a ^ b
    child ^= b
    return child.view(np.float64)


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
    selected = np.flatnonzero(rng.random(genome.shape) < config.mutation_rate)
    dtheta = rng.normal(0.0, config.rotation_sigma, size=selected.size)
    deltas = config.mutation_strength * np.sin(dtheta)
    genome.reshape(-1)[selected] += deltas  # a view: the copy is C-contiguous
    return genome, deltas


def perturbation_edges(config: GaConfig) -> np.ndarray:
    """The PERTURBATION_BINS + 1 edges of every generation's offset histogram."""
    s = config.mutation_strength
    return np.histogram_bin_edges((), PERTURBATION_BINS, (-s, s))


def evolve(
    base_policy: ActorPolicy, env: BudgetEnv, config: GaConfig
) -> tuple[ActorPolicy, list[GenerationLog]]:
    """Refine the base policy; returns the all-time best and per-generation logs."""
    logs: list[GenerationLog] = []
    if config.generations == 0:
        return base_policy, logs

    rng = np.random.default_rng(config.seed)
    population = init_population(base_policy.params, config, rng)
    fitness = evaluate_fitness(population, base_policy.spec, env)
    best_genome = base_policy.params.copy()
    best_fitness = -math.inf

    for generation in range(config.generations):
        if generation:  # row 0, the carried all-time best, keeps its recorded score
            fitness[0] = best_fitness
            fitness[1:] = evaluate_fitness(population[1:], base_policy.spec, env)
        gen_best_idx = int(np.argmax(fitness))
        if fitness[gen_best_idx] > best_fitness:
            best_fitness = fitness[gen_best_idx]
            best_genome = population[gen_best_idx].copy()

        elites = select_elites(fitness, config.elite_fraction)
        # The all-time best re-enters unmodified (elitist hall of fame).
        children = np.empty_like(population)
        children[0] = best_genome
        deltas = [np.empty(0)]  # this generation's offsets, one array per child
        for i in range(1, len(children)):
            pa = population[elites[rng.integers(0, len(elites))]]
            pb = population[elites[rng.integers(0, len(elites))]]
            children[i], child_deltas = quantum_mutate(uniform_crossover(pa, pb, rng), config, rng)
            deltas.append(child_deltas)
        offsets = np.concatenate(deltas)
        s = config.mutation_strength
        histogram, _ = np.histogram(offsets, PERTURBATION_BINS, (-s, s))

        logs.append(
            GenerationLog(
                generation=generation,
                best=float(fitness[gen_best_idx]),
                mean=float(np.mean(fitness)),
                fitnesses=tuple(fitness.tolist()),
                n_mutations=offsets.size,
                histogram=tuple(histogram.tolist()),
            )
        )
        population = children

    return ActorPolicy(base_policy.spec, best_genome.copy()), logs
