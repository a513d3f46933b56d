"""Separable cost sharing protocols and their verifiers.

A protocol is induced by shares on one base profile: on any profile with
the same user set on a resource as the base it charges the base share,
and otherwise it follows a fixed case rule that charges joining or
shrunken user sets to the smallest player id involved.  This makes the
protocol separable by construction and budget balanced everywhere
provided the shares themselves are balanced on the base profile.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import InputError, InternalInvariant
from .game import GameModel, Profile
from .rationals import exact, shown


def water_fill(
    amount: int | Fraction, caps: Iterable[tuple[Hashable, int | Fraction]]
) -> dict[Hashable, int | Fraction]:
    """Split `amount` over ordered (key, cap) pairs: each key takes the
    smaller of its cap and what is left, zero takes included.  The caps
    must hold the whole amount."""
    takes = {}
    for key, cap in caps:
        takes[key] = take = min(cap, amount)
        amount -= take
    if amount != 0:
        raise InternalInvariant(f"water-filling left {amount} over the caps")
    return takes


class SeparableProtocol:
    """Cost shares for every profile, induced by nonnegative shares for
    (player, resource) pairs of one base profile.

    Only pairs with the resource in the player's base strategy may carry a
    share.  Budget balance on the base is a property to verify, not a
    construction-time requirement, so deliberately unbalanced protocols can
    be built for testing.  Shares are stored by the rule of
    `rationals.exact` (an int when integral, a Fraction otherwise), and
    only when nonzero.
    """

    def __init__(
        self, game: GameModel, base: Profile, shares: Mapping[tuple[int, int], int | Fraction]
    ) -> None:
        if len(base) != game.n:
            raise InputError("base does not match player count")
        stored: dict[tuple[int, int], int | Fraction] = {}
        for (i, e), v in shares.items():
            if not (0 <= i < len(base)):
                raise InputError(f"share for unknown player {shown(i)}")
            if e not in base[i]:
                raise InputError(f"share for ({i}, {shown(e)}) but resource not in base choice")
            value = exact(v)
            if value < 0:
                raise InputError(f"negative share for ({i}, {shown(e)})")
            if value != 0:
                stored[(i, e)] = value
        self.game = game
        self.base = base
        self.shares = stored

    def share(self, i: int, e: int) -> int | Fraction:
        """Player i's share of resource e on the base profile."""
        return self.shares.get((i, e), 0)

    def cost_share(self, profile: Profile, i: int, e: int) -> int | Fraction:
        """Share of player i on resource e under the given profile.

        Case rule relative to the base occupancy N_e:
        same users -> base share; new users present -> smallest joining
        player pays the full cost; strictly fewer users -> smallest
        remaining player pays; everyone else pays nothing.  For set
        costs "full cost" is evaluated at the profile's own user set.
        """
        if e not in profile[i]:
            return 0
        users = profile.users(e)
        base_users = self.base.users(e)
        if users == base_users:
            return self.share(i, e)
        joined = users - base_users
        if joined:
            return self.game.cost(e, users) if i == min(joined) else 0
        # users is a strict subset of the base occupancy
        return self.game.cost(e, users) if i == min(users) else 0


class BalanceViolation(NamedTuple):
    resource: int
    paid: int | Fraction
    cost: int | Fraction


class BalanceReport(NamedTuple):
    ok: bool
    violations: tuple[BalanceViolation, ...] = ()


def verify_budget_balance(
    game: GameModel, protocol: SeparableProtocol, profile: Profile
) -> BalanceReport:
    """Exact budget balance of the protocol on one profile."""
    game.validate_profile(profile)
    bad = []
    for e in game.resources:
        users = profile.users(e)
        # cost_share is zero off the player's own choice, so only users pay
        paid = sum(protocol.cost_share(profile, i, e) for i in sorted(users))
        cost = game.cost(e, users) if users else 0
        if paid != cost:
            bad.append(BalanceViolation(e, paid, cost))
    return BalanceReport(ok=not bad, violations=tuple(bad))


class Deviation(NamedTuple):
    player: int
    current_cost: int | Fraction
    best_cost: int | Fraction
    better_choice: frozenset


class PneReport(NamedTuple):
    ok: bool
    deviations: tuple[Deviation, ...] = ()


def _deviation_weight(game: GameModel, protocol: SeparableProtocol, i: int):
    """Per-resource cost of player i's unilateral deviations from the base.

    Staying on a base resource keeps the base share; joining a resource
    charges the full cost at the joined user set (the case rule makes the
    single newcomer pay).  Either way the deviation cost is additive, so
    best responses are shortest paths / min-weight bases in these weights.
    """
    base, delays, mine = protocol.base, game.delays[i], protocol.base[i]

    def weight(e: int) -> int | Fraction:
        if e in mine:
            return protocol.share(i, e) + delays.get(e, 0)
        return game.join_cost(e, base.users(e), i) + delays.get(e, 0)

    return weight


def best_response(
    game: GameModel, protocol: SeparableProtocol, i: int
) -> tuple[frozenset, int | Fraction]:
    """Cheapest unilateral deviation of player i from the protocol's base;
    on a matroid space each key of `MatroidOracle.ranking` is weighed once."""
    weight = _deviation_weight(game, protocol, i)
    sp = game.spaces[i]
    if game.kind == "matroid":
        keys = sp.ranking(weight, game.resource_order)
        choice = sp.greedy(e for _weight, _order, e in keys)
        return choice, sum(w for w, _order, e in keys if e in choice)
    hit = game.network.shortest_path(sp.terminal, sp.source, weight)
    if hit is None:
        raise InputError(f"player {i} has no feasible path")
    choice = frozenset(hit[1])
    return choice, sum(weight(e) for e in choice)


def verify_pne(game: GameModel, protocol: SeparableProtocol) -> PneReport:
    """Check the protocol's base profile is a pure Nash equilibrium."""
    base = protocol.base
    game.validate_profile(base)
    bad = []
    for i in range(game.n):
        weight = _deviation_weight(game, protocol, i)
        current = sum(weight(e) for e in base[i])
        choice, value = best_response(game, protocol, i)
        if value < current:
            bad.append(Deviation(i, current, value, choice))
    return PneReport(ok=not bad, deviations=tuple(bad))

