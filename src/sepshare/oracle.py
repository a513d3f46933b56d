"""Reference oracles: exhaustive enumeration, optimum, enforceability.

The enumerators are deliberately brute force; `enforcing_protocol`
enumerates nothing and defers to the exact characterizations.  These
functions pin down ground truth for tests and small CLI runs; budgets
raise BudgetExceeded rather than ever returning a truncated answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .errors import BudgetExceeded, NotEnforceable, UnsupportedSpace
from .game import GameModel, Profile, total_cost
from .protocol import SeparableProtocol


class EnumerationBudget(NamedTuple):
    max_profiles: int = 10**6
    max_paths_per_player: int = 10**4


DEFAULT_BUDGET = EnumerationBudget()


def enumerate_strategies(
    game: GameModel, i: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[frozenset]:
    """All strategies of player i in deterministic order.

    Matroid spaces list bases in ground order; path spaces list simple
    terminal-source paths in DFS order.  The per-player budget applies to
    both kinds.
    """
    sp = game.spaces[i]
    out: list[frozenset] = []
    if game.kind == "matroid":
        for basis in sp.bases():
            out.append(basis)
            if len(out) > budget.max_paths_per_player:
                raise BudgetExceeded(
                    f"player {i} has more than {budget.max_paths_per_player} bases"
                )
    else:
        for epath in game.network.simple_paths(
            sp.terminal, sp.source, max_paths=budget.max_paths_per_player
        ):
            out.append(frozenset(epath))
    return out


def profiles_iter(
    game: GameModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Iterator[Profile]:
    """Every profile of the game; raises BudgetExceeded before yielding
    anything if the count would exceed the budget."""
    per_player = [enumerate_strategies(game, i, budget) for i in range(game.n)]
    count = 1
    for choices in per_player:
        count *= len(choices)
    if count > budget.max_profiles:
        raise BudgetExceeded(f"{count} profiles exceed limit {budget.max_profiles}")
    for combo in itertools.product(*per_player):
        yield Profile(combo)


class OptimumResult(NamedTuple):
    profile: Profile
    cost: int | Fraction
    unique: bool


def brute_force_optimum(
    game: GameModel, budget: EnumerationBudget = DEFAULT_BUDGET
) -> OptimumResult:
    """Exact social optimum by full enumeration.

    Reports the first optimum in enumeration order and whether the optimal
    cost is attained by exactly one profile.
    """
    best: Optional[Profile] = None
    best_cost: Optional[int | Fraction] = None
    ties = 0
    for profile in profiles_iter(game, budget):
        cost = total_cost(game, profile)
        if best_cost is None or cost < best_cost:
            best, best_cost, ties = profile, cost, 1
        elif cost == best_cost:
            ties += 1
    if best is None or best_cost is None:
        raise UnsupportedSpace("game has a player without strategies")
    return OptimumResult(profile=best, cost=best_cost, unique=(ties == 1))


def enforcing_protocol(game: GameModel, profile: Profile) -> Optional[SeparableProtocol]:
    """A protocol that makes the profile a stable equilibrium, or None if
    no separable protocol does.

    Path games, and a game without players that has a network, take the
    shares of the exact LP characterization (fixed costs only), which
    generates its path rows lazily, so no path is enumerated; other games
    take the water-filling construction, whose exchange conditions are exact.
    """
    if game.kind == "path" or game.kind is None and game.network is not None:
        from .nsepa import is_enforceable

        report = is_enforceable(game, profile)
        return SeparableProtocol(game, profile, report.shares) if report.enforceable else None
    from .matroids import build_matroid_protocol

    try:
        return build_matroid_protocol(game, profile)
    except NotEnforceable:
        return None

