"""Separable cost sharing for congestion games.

Exact-rational tooling for deciding when a strategy profile can be made a
pure Nash equilibrium by splitting resource costs among users, and for
rewriting profiles until it can: matroid games, single-source connection
games with fixed costs, and series-parallel multi-pair path games.

Each public name is imported from its module when it is first read, so
`import sepshare` loads no algorithm module that the caller never uses.
"""

import importlib

# public name -> the module that defines it
_HOME = {name: module for module, names in {
    "errors": "BudgetExceeded Disconnected InfeasibleProfile InputError InternalInvariant "
              "InvalidCostOracle InvalidMatroid NoTightAlternative NotABasis NotEnforceable "
              "NotSeriesParallel SepshareError UnsupportedSpace",
    "game": "CostFunction GameModel PathSpace Profile Step move_cost total_cost",
    "matroids": "GraphicMatroid MatroidOracle PartitionMatroid UniformMatroid "
                "build_matroid_protocol check_enforceable_matroid deviation_cost "
                "matroid_from_descriptor transform_matroid virtual_cost",
    "network": "Network",
    "nsepa": "counterexample_fixture is_enforceable is_two_terminal_sp nsepa_transform "
             "smallest_tight_alternative",
    "oracle": "DEFAULT_BUDGET EnumerationBudget brute_force_optimum enforcing_protocol "
              "enumerate_strategies",
    "protocol": "SeparableProtocol best_response verify_budget_balance verify_pne",
    "rationals": "exact format_rational parse_rational",
    "singlesource": "to_tree_profile transform_single_source",
}.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
