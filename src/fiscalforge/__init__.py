"""fiscalforge: deterministic quarterly budget-allocation policy engine.

Learns two-way R&D vs SG&A allocation policies from quarterly financial
data with a belief-penalized reward, twin-critic deterministic policy
gradients, and quantum-inspired genetic refinement, then scores the
result against held-out allocations.
"""

__version__ = "0.1.0"

from .data_ingest import (  # noqa: F401
    FinancialSeries,
    ScalerParams,
    chrono_split,
    fit_scaler,
    load_series,
)
from .environment import (  # noqa: F401
    BeliefConfig,
    BudgetEnv,
    RewardConfig,
)
from .evaluation import MetricsReport, evaluate_policy  # noqa: F401
from .neural_core import ActorPolicy, MlpSpec  # noqa: F401
from .quantum_ga import GaConfig, evolve  # noqa: F401
from .special_functions import digamma, dirichlet_kl, ln_gamma  # noqa: F401
from .td3_trainer import TD3Config, TrainedPolicy, train  # noqa: F401
