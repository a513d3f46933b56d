"""Core game model: resources, cost functions, strategy spaces, profiles.

A game has players 0..n-1 (this numbering is the global player order used
by every tie-break in the package), an ordered list of resource ids, a
shareable cost function per resource, a non-shareable delay per (player,
resource), kept as one row per player, and one strategy space per player.
A space is either a `matroids.MatroidOracle`, whose bases over a subset
of the resources are the strategies, or a `PathSpace` of simple
source-terminal paths in an attached network.  All spaces of one game
are of one kind, which the game fixes when it is built as
`GameModel.kind`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import InfeasibleProfile, InputError, InvalidCostOracle, UnsupportedSpace
from .network import Network, Vertex
from .rationals import exact, shown, shown_rational


class CostFunction:
    """Shareable cost of one resource as a function of its user set.

    Two flavours: a fixed cost (same value for every non-empty user set)
    and a general monotone subadditive set function given by a table.  Fixed
    and table values are stored by the rule of `rationals.exact`: an int
    when integral, a Fraction otherwise, so `value` answers the same way.
    A table is an index, from each user set (a frozenset) to a position,
    and the values in position order.  A hand-built table is copied into
    its own, each key made a frozenset and each value stored by that rule.
    `schema.game_from_json` passes one `index` to all tables of a document
    that list the same keys in the same order, and as `table` each one's
    values, stored by the rule already; nothing mutates a shared index, and
    a malformed entry fails that read, naming the first bad entry.  Tables
    are validated lazily: every newly cached value is checked against all
    previously cached values for monotonicity, and for subadditivity on
    every pair of cached sets whose union is cached, raising
    InvalidCostOracle on the first violation; so whether a table's answers
    are rejected does not depend on the order in which they are asked.

    Instances cache table answers and are not thread-safe.
    """

    def __init__(self, fixed=None, table=None, *, index: Optional[Mapping] = None) -> None:
        if (fixed is None) == (table is None):
            raise InputError("exactly one of fixed / table required")
        self._fixed: Optional[int | Fraction] = None
        if fixed is not None:
            value = exact(fixed)
            if value < 0:
                raise InputError(f"negative cost {shown_rational(value)}")
            self._fixed = value
        else:
            if index is None:
                own = {frozenset(key): exact(val) for key, val in table.items()}
                index, table = dict(zip(own, range(len(own)))), list(own.values())
            self._index, self._values = index, table
            empty = index.get(frozenset())
            if empty is not None and table[empty] != 0:
                raise InvalidCostOracle("cost of the empty set must be 0")
        self._cache: dict[frozenset, int | Fraction] = {}

    @property
    def table(self) -> Optional[dict]:
        """The explicit table this function was built from, if any, as a new dict."""
        return None if self.is_fixed else {u: self._values[k] for u, k in self._index.items()}

    @property
    def is_fixed(self) -> bool:
        return self._fixed is not None

    @property
    def fixed_value(self) -> int | Fraction:
        if self._fixed is None:
            raise UnsupportedSpace("cost function is not fixed")
        return self._fixed

    def value(self, users: Iterable[int]) -> int | Fraction:
        s = frozenset(users)
        if not s:
            return 0
        if self._fixed is not None:
            return self._fixed
        if s in self._cache:
            return self._cache[s]
        try:
            v = self._values[self._index[s]]
        except KeyError:
            raise InputError(
                f"cost table has no entry for user set {sorted(s)}"
            ) from None
        if v < 0:
            raise InvalidCostOracle(f"negative cost {shown_rational(v)} for {sorted(s)}")
        self._check_against_cache(s, v)
        self._cache[s] = v
        return v

    def _check_against_cache(self, s: frozenset, v: int | Fraction) -> None:
        parts: list = []  # the cached proper subsets of s met so far
        for t, w in self._cache.items():
            for (a, x), (b, y) in (((s, v), (t, w)), ((t, w), (s, v))):
                if a <= b and x > y:
                    x, y = shown_rational(x), shown_rational(y)
                    raise InvalidCostOracle(
                        f"monotonicity violated: c({sorted(a)})={x} > c({sorted(b)})={y}")
            # (other part, value of the union, sum of the parts) of each pair
            # of t and a part it shares a cached union with, s among the three
            if t < s:
                pairs = [(r, v, x + w) for r, x in parts if r | t == s]
                parts.append((t, w))
            else:
                union = s | t
                cached = union != t and union in self._cache
                pairs = [(s, self._cache[union], v + w)] if cached else []
            for r, whole, total in pairs:
                if whole > total:
                    raise InvalidCostOracle(
                        f"subadditivity violated on {sorted(r)} and {sorted(t)}")


@dataclass(frozen=True)
class Step:
    """One local rewrite step of a transform.

    `kind` is "delay" or "cover" for a matroid packet move (the player
    leaves `source` for `resource`), "close" or "drop" for a tree edge,
    "repair" for a series-parallel reroute (no single resource) and
    "substitute" for a tight-detour substitution in phase `phase`.
    `cost_delta` is the exact change in total cost, except for "drop",
    where it is the change in auxiliary-graph tree cost.  Fields that do
    not apply to a kind are None.
    """

    kind: str
    player: int
    resource: Optional[int]
    cost_delta: int | Fraction
    source: Optional[int] = None
    phase: Optional[int] = None


@dataclass(frozen=True)
class PathSpace:
    """Simple paths between `terminal` and `source` in the game network.

    In directed networks players walk terminal -> source, so a feasible
    strategy is an edge set forming a directed simple path in that
    direction.  `source == terminal` admits exactly the empty strategy.
    """

    source: Vertex
    terminal: Vertex

    kind = "path"


class Profile:
    """One strategy per player, as frozensets of resource ids; the users of
    each resource are found once and kept through `replace`."""

    def __init__(self, choices: Iterable[Iterable[int]]) -> None:
        self.choices: tuple[frozenset, ...] = tuple(frozenset(c) for c in choices)
        self._occupancy: Optional[dict[int, frozenset]] = None

    def __len__(self) -> int:
        return len(self.choices)

    def __getitem__(self, i: int) -> frozenset:
        return self.choices[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Profile) and self.choices == other.choices

    def __hash__(self) -> int:
        return hash(self.choices)

    def __repr__(self) -> str:
        parts = ", ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in self.choices)
        return f"Profile({parts})"

    def users(self, rid: int) -> frozenset:
        if self._occupancy is None:
            occ: dict[int, set] = {}
            for i, choice in enumerate(self.choices):
                for e in choice:
                    occ.setdefault(e, set()).add(i)
            self._occupancy = {e: frozenset(s) for e, s in occ.items()}
        return self._occupancy.get(rid, frozenset())

    def used_resources(self) -> frozenset:
        return frozenset().union(*self.choices) if self.choices else frozenset()

    def replace(self, i: int, choice: Iterable[int]) -> "Profile":
        """The profile with player i on `choice`.  Users already found are
        kept, changed only on the resources that i leaves or joins."""
        old, new = self.choices[i], frozenset(choice)
        out = object.__new__(Profile)  # the other choices are frozen already
        out.choices = self.choices[:i] + (new,) + self.choices[i + 1:]
        out._occupancy = None
        if self._occupancy is not None:
            occ = out._occupancy = dict(self._occupancy)
            for e in old ^ new:
                if users := occ.pop(e, frozenset()) ^ {i}:
                    occ[e] = users
        return out


class GameModel:
    """Immutable description of one congestion game with shareable costs.

    `kind` is the one kind of all its spaces, "matroid" or "path", or
    None for a game without players; mixed spaces raise UnsupportedSpace.
    `delays` is one mapping per player, from resource to delay (a missing
    resource has delay 0), or None for no delays.  Each row is kept as
    `delays[i]`, a dict of the nonzero delays stored by the rule of
    `rationals.exact` (an int when integral, a Fraction otherwise); it is
    checked with set operations, and re-stored only when it holds
    something other than a nonzero int.  Next to the delay rows sits one
    fixed-cost row, `fixed`, from each resource whose cost is fixed to
    that value, built once; `cost`, `join_cost`, `fixed_cost`,
    `total_cost` and `move_cost` read it, so only a cost table is asked
    for its value on a user set.  Each answers in the stored form.  A
    matroid space that players share is checked once.
    `validate_profile` remembers the profiles that passed, so checking
    one again is a set lookup.
    """

    def __init__(
        self,
        players: int,
        resources: Sequence[int],
        costs: Mapping[int, CostFunction],
        spaces: Sequence,
        delays: Optional[Sequence[Mapping]] = None,
        network: Optional[Network] = None,
    ) -> None:
        if players < 0:
            raise InputError("negative player count")
        if len(set(resources)) != len(resources):
            raise InputError("duplicate resource ids")
        self.n = players
        self.resources: tuple[int, ...] = tuple(resources)
        self.resource_order: dict[int, int] = {e: k for k, e in enumerate(self.resources)}
        self.costs = dict(costs)
        for e in self.resources:
            if e not in self.costs:
                raise InputError(f"resource {e} has no cost function")
        self.fixed: dict[int, int | Fraction] = {
            e: value for e in self.resources if (value := self.costs[e]._fixed) is not None}
        self.network = network
        if len(spaces) != players:
            raise InputError("one strategy space per player required")
        self.spaces = tuple(spaces)
        self.kind: Optional[str] = self.spaces[0].kind if self.spaces else None
        grounds_checked: set[int] = set()  # ids of the matroid spaces checked so far
        for i, sp in enumerate(self.spaces):
            if sp.kind == "path":
                if network is None:
                    raise InputError("path spaces require a network")
                for v in (sp.source, sp.terminal):
                    if v not in network.vindex:
                        raise InputError(f"vertex {shown(v)} of player {i} not in network")
            elif sp.kind != "matroid":
                raise UnsupportedSpace(f"unknown space kind {shown(sp.kind)}")
            elif id(sp) not in grounds_checked:  # a space players share is checked once
                grounds_checked.add(id(sp))
                for e in sp.ground:
                    if e not in self.resource_order:
                        raise InputError(f"matroid ground element {shown(e)} is not a resource")
            if sp.kind != self.kind:
                raise UnsupportedSpace("mixed strategy spaces are not supported")
        rows = [dict(row) for row in (delays if delays is not None else [{}] * players)]
        if len(rows) != players:
            raise InputError("delays must have one row per player")
        for i, row in enumerate(rows):
            if not row.keys() <= self.resource_order.keys():
                e = next(e for e in row if e not in self.resource_order)
                raise InputError(f"delay for unknown pair ({i}, {shown(e)})")
            if {*map(type, row.values())} - {int}:
                row = rows[i] = {e: exact(d) for e, d in row.items()}
            if row and min(row.values()) <= 0:
                if (e := next((e for e, d in row.items() if d < 0), None)) is not None:
                    raise InputError(f"negative delay for ({i}, {shown(e)})")
                rows[i] = {e: d for e, d in row.items() if d}
        self.delays: tuple[dict[int, int | Fraction], ...] = tuple(rows)

        self._valid: set[Profile] = set()

    def require(self, kind: str) -> None:
        """Raise unless the spaces are of `kind`, "matroid" or "path" (a
        game without players passes both); a path game needs a network."""
        if self.kind not in (None, kind):
            raise UnsupportedSpace(f"the game has {self.kind} spaces, not {kind} spaces")
        if kind == "path" and self.network is None:
            raise InputError("game has no network")

    def delay(self, i: int, e: int) -> int | Fraction:
        return self.delays[i].get(e, 0)

    @property
    def has_delays(self) -> bool:
        return any(self.delays)

    def cost(self, e: int, users: Collection[int]) -> int | Fraction:
        """Cost of e on `users`; a fixed cost is read off its row."""
        if (value := self.fixed.get(e)) is None:
            return self.costs[e].value(users)
        return value if users else 0

    def join_cost(self, e: int, users: frozenset, i: int) -> int | Fraction:
        """Cost of e once player i joins `users`: a fixed cost is read
        off its row, with no user set built."""
        if (value := self.fixed.get(e)) is None:
            return self.costs[e].value(users | {i})
        return value

    def fixed_cost(self, e: int) -> int | Fraction:
        """The fixed cost of e; UnsupportedSpace for a cost table."""
        return self.fixed[e] if e in self.fixed else self.costs[e].fixed_value

    def resource_key(self, e: int) -> int:
        """Position of e in the global resource order, for tie-breaking."""
        return self.resource_order[e]

    def is_feasible_choice(self, i: int, choice: frozenset) -> bool:
        sp = self.spaces[i]
        if self.kind == "matroid":
            return sp.is_basis(choice)
        net = self.network
        return all(e in net.endpoints for e in choice) and (
            net.order_path_edges(choice, frm=sp.terminal, to=sp.source) is not None
        )

    def validate_profile(self, profile: Profile) -> None:
        if profile in self._valid:
            return
        if len(profile) != self.n:
            raise InfeasibleProfile(
                f"profile has {len(profile)} choices for {self.n} players"
            )
        for i, choice in enumerate(profile.choices):
            for e in choice:
                if e not in self.resource_order:
                    raise InfeasibleProfile(f"player {i} uses unknown resource {shown(e)}")
            if not self.is_feasible_choice(i, choice):
                raise InfeasibleProfile(f"choice of player {i} is not in their space")
        self._valid.add(profile)


def total_cost(game: GameModel, profile: Profile) -> int | Fraction:
    """Shareable costs of used resources plus all incurred delays of a
    validated profile (callers validate once, where a profile enters)."""
    total = 0
    for e in game.resources:
        users = profile.users(e)
        if users:
            total += game.cost(e, users)
    for i in range(game.n):
        for e in profile[i]:
            total += game.delay(i, e)
    return exact(total)


def move_cost(game: GameModel, profile: Profile, i: int, choice: Iterable[int]) -> int | Fraction:
    """Exact change of total cost when player i moves to `choice`, priced
    on the resources the player leaves, first, and joins."""
    old, new = profile[i], frozenset(choice)
    delta = 0
    for e in old - new:
        users = profile.users(e)
        delta += game.cost(e, users - {i}) - game.cost(e, users) - game.delay(i, e)
    for e in new - old:
        users = profile.users(e)
        delta += game.join_cost(e, users, i) - game.cost(e, users) + game.delay(i, e)
    return exact(delta)
