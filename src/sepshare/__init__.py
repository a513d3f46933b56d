"""Separable cost sharing for congestion games.

Exact-rational tooling for deciding when a strategy profile can be made a
pure Nash equilibrium by splitting resource costs among users, and for
rewriting profiles until it can: matroid games, single-source connection
games with fixed costs, and series-parallel multi-pair path games.
"""

from .errors import (
    BudgetExceeded,
    Disconnected,
    InfeasibleProfile,
    InputError,
    InternalInvariant,
    InvalidCostOracle,
    InvalidMatroid,
    NoTightAlternative,
    NotABasis,
    NotEnforceable,
    NotSeriesParallel,
    SepshareError,
    UnsupportedSpace,
)
from .game import (
    CostFunction,
    GameModel,
    PathSpace,
    Profile,
    Step,
    move_cost,
    total_cost,
)
from .matroids import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    build_matroid_protocol,
    check_enforceable_matroid,
    deviation_cost,
    matroid_from_descriptor,
    transform_matroid,
    virtual_cost,
)
from .network import Network
from .nsepa import (
    counterexample_fixture,
    is_enforceable,
    is_two_terminal_sp,
    nsepa_transform,
    smallest_tight_alternative,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    brute_force_optimum,
    enforcing_protocol,
    enumerate_strategies,
)
from .protocol import (
    SeparableProtocol,
    best_response,
    verify_budget_balance,
    verify_pne,
)
from .rationals import exact, format_rational, parse_rational
from .singlesource import to_tree_profile, transform_single_source

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
