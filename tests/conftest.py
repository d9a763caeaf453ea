from pathlib import Path

import numpy as np
import pytest

from fiscalforge.data_ingest import FinancialSeries
from fiscalforge.special_functions import dirichlet_kl

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO_ROOT / "fixtures" / "synthetic_quarters.csv"
DATA_DIR = Path(__file__).resolve().parent / "data"


def make_series(rows, start_year=2000):
    """Build a FinancialSeries from (rnd, sga, net_income) tuples."""
    periods = tuple(f"{start_year + i // 4}-Q{i % 4 + 1}" for i in range(len(rows)))
    return FinancialSeries(periods, [[float(v) for v in row] for row in rows])


def oracle_tables(series, scaler, reward, belief):
    """The env's per-quarter tables, one quarter at a time in plain Python floats.

    Returns (states, empirical, alphas, belief_terms) as lists: state t
    is quarter t scaled, and step t is scored against the shares of
    quarter t + 1 and the belief updated by them.
    """
    rows = series.values.tolist()
    bounds = list(zip(scaler.low.tolist(), scaler.high.tolist()))
    states = [[(v - lo) / (hi - lo) for v, (lo, hi) in zip(row, bounds)] for row in rows]
    empirical, alphas, belief_terms = [], [], []
    alpha = list(belief.prior)
    for rnd, sga, _ in rows[1:]:
        shares = [rnd / (rnd + sga), sga / (rnd + sga)]
        alpha = [a + belief.confidence * e for a, e in zip(alpha, shares)]
        empirical.append(shares)
        alphas.append(alpha)
        belief_terms.append(-reward.lambda2 * dirichlet_kl(alpha, belief.prior))
    return states, empirical, alphas, belief_terms


def reference_crossover(parent_a, parent_b, rng):
    """Uniform crossover as a per-gene select: np.where on one rng.random mask."""
    mask = rng.random(parent_a.shape) < 0.5
    return np.where(mask, parent_a, parent_b)


def reference_mutate(genome, config, rng):
    """Quantum mutation through a boolean mask: (mutated copy, offsets).

    One rng.random selection draw, then, only if a gene is selected, one
    rng.normal angle per selected gene, added in the mask's C order.
    """
    genome = np.asarray(genome, dtype=np.float64).copy()
    mask = rng.random(genome.shape) < config.mutation_rate
    count = int(mask.sum())
    if count == 0:
        return genome, np.empty(0)
    deltas = config.mutation_strength * np.sin(rng.normal(0.0, config.rotation_sigma, size=count))
    genome[mask] += deltas
    return genome, deltas


@pytest.fixture(scope="session")
def fixture_series():
    from fiscalforge.data_ingest import load_series

    return load_series(FIXTURE_CSV)
