"""Upstream-merger fee analysis over portfolio profit functions.

The package answers one question end to end: when two upstream suppliers
selling through a common monopoly intermediary merge, do the negotiated
lump-sum fees rise or fall? The sign is decided by whether the merging
products are complements or substitutes *in the intermediary's profits*,
which the library classifies from closed-form one-stop-shopping markets or
from priced demand systems via box-constrained profit maximization, and
then feeds through Nash-in-Nash (or Shapley) bargaining.
"""

from .portfolios import (
    DEFAULT_TOLERANCE,
    ModularityKind,
    ModularityReport,
    PairKind,
    PairRelation,
    Portfolio,
    SetFunction,
    classify_modularity,
    classify_pair,
    second_difference,
)
from .reduced_form import (
    AffineClampedCdf,
    ExponentialCdf,
    LossRatioReport,
    PowerCdf,
    ReducedFormMarket,
    ShoppingCostCdf,
    SpilloverReport,
    StepCdf,
    TableCdf,
    hin_step_cdf,
)
from .demand_systems import (
    AppendixBDemand,
    CustomDemand,
    DemandModel,
    Eq7Demand,
    EvaluationRegion,
    GrossKind,
    InverseModularityKind,
    LinearDemand,
    OneStopDemand,
    gross_relation,
    inverse_modularity,
)
from .optimize import (
    DEFAULT_CONFIG,
    FocSolution,
    FocVariant,
    OptimizerConfig,
    OptResult,
    OptStatus,
    counterexample_search,
    max_profit,
    merger_delta,
    mixed_partial_grid,
    partial_max,
    profit_oracle,
    solve_foc_eq7,
)
from .bargaining import (
    BargainingEnv,
    FeeSchedule,
    MergerReport,
    OwnershipStructure,
    merger_report,
    nash_in_nash,
    shapley_fees,
)
from .errors import ConvergenceError, DomainError, ScenarioError

__version__ = "0.1.0"
