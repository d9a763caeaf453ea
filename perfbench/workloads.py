"""Benchmark workloads and their seeded inputs.

Each workload is one generated quarterly CSV plus one run config. The
benchmark seed only shapes the CSV; the program's master seed in the
config is fixed, so quality figures vary with the data alone and repeat
exactly for one benchmark seed.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Master seed written into every config (the value criterion 9 uses).
MASTER_SEED = 60

# Log-normal walk in the scale of fixtures/synthetic_quarters.csv: its
# first quarter, its mean quarterly log growth of R&D and SG&A, an SG&A
# step in Q3 paid back over the other quarters, and Q4 income peaks.
FIRST_RND, FIRST_SGA = 3400.0, 2100.0
RND_DRIFT, SGA_DRIFT = 0.033, 0.023
SGA_SEASON = (-0.02, -0.02, 0.06, -0.02)
EXPENSE_SIGMA = 0.005
INCOME_MULTIPLE = (2.0, 2.0, 2.0, 3.2)
INCOME_SIGMA = 0.06
LAST_YEAR = 2023


@dataclass(frozen=True)
class Workload:
    name: str
    quarters: int
    td3: dict = field(default_factory=dict)
    ga: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # Default config but a short TD3 budget: the batch-64 update step
        # dominates and the default GA (10 x 5) does almost nothing.
        Workload("train-default", 24, td3={"total_timesteps": 1500}),
        # TD3 just past its 500-step warmup, then a wide GA: greedy
        # rollouts and the perturbations.csv writes dominate.
        Workload(
            "refine-wide", 24,
            td3={"total_timesteps": 550},
            ga={"generations": 20, "population_size": 20},
        ),
        # 40 years of quarters: 127-step episodes, a 32-quarter test
        # split, train about 60% and refine about 35% of the pipeline.
        Workload(
            "history-long", 160,
            td3={"total_timesteps": 1000},
            ga={"generations": 5, "population_size": 8},
        ),
    )
}


def series_csv(quarters: int, seed: int) -> str:
    """CSV text of a seeded quarterly series that load_series accepts."""
    rng = random.Random(seed)
    rnd, sga = FIRST_RND, FIRST_SGA
    first_year = LAST_YEAR + 1 - quarters // 4
    lines = ["period,rnd,sga,net_income"]
    for i in range(quarters):
        q = i % 4
        net = (rnd + sga) * INCOME_MULTIPLE[q] * math.exp(rng.gauss(0.0, INCOME_SIGMA))
        lines.append(f"{first_year + i // 4}-Q{q + 1},{rnd:.2f},{sga:.2f},{net:.2f}")
        rnd *= math.exp(RND_DRIFT + rng.gauss(0.0, EXPENSE_SIGMA))
        sga *= math.exp(SGA_DRIFT + SGA_SEASON[q] + rng.gauss(0.0, EXPENSE_SIGMA))
    return "\n".join(lines) + "\n"


def config_doc(workload: Workload) -> dict:
    return {
        "data": {"path": "data.csv", "train_fraction": 0.8},
        "environment": {},
        "td3": dict(workload.td3),
        "ga": dict(workload.ga),
        "seed": MASTER_SEED,
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write data.csv and config.json; returns the config path.

    The config names its CSV relative to its own directory, so the
    program must run with that directory as its working directory.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "data.csv").write_text(series_csv(workload.quarters, seed), encoding="utf-8")
    config = directory / "config.json"
    config.write_text(
        json.dumps(config_doc(workload), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return config
