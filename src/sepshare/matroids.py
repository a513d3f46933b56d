"""Matroid strategy spaces: oracles, enforceability, and the transform
that turns any basis profile into an enforceable one.

The transform repeatedly moves single packets (one player leaves a
resource for an exchange partner of strictly smaller virtual cost), so it
terminates and never raises total cost.  Virtual costs price a resource as
if the player were alone on it; checking stability against virtual
deviations is what makes the local moves sound for general monotone
subadditive costs.

A virtual price depends only on the player and the element, so the
transform ranks each player's elements once and walks that ranking for
every cheapest exchange; a move invalidates only the mover's deviations
and the verdicts of the resources whose users or deviations it changes.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    InputError,
    InternalInvariant,
    InvalidCostOracle,
    InvalidMatroid,
    NotABasis,
    NotEnforceable,
)
from .game import GameModel, Profile, Step, move_cost, total_cost
from .protocol import SeparableProtocol, water_fill
from .rationals import integer, shown

Ranked = Sequence[tuple[int | Fraction, int, int]]  # (price, order, f), ascending
Exchanges = dict[int, tuple[int | Fraction, int, int]]  # e -> (price, order, f) of its pick


class MatroidOracle:
    """Independence oracle over a finite ground set, and the strategy space
    of a matroid player: the strategies are its bases.

    Subclasses implement `_independent`; `is_independent` answers False
    for any set that leaves the ground.  The built-in kinds are matroids
    by construction: uniform (sets of size at most k), partition (at most
    a quota from each block) and graphic (forests); they set `rank` and
    `loops` and answer `cheapest_exchanges` and `greedy` by rule, where a
    subclass falls back to independence queries.  An oracle keeps no
    state between the bases it is asked about.
    `validate_axioms` is the one axiom check, and it is complete: custom
    subclasses and tests should call it.
    """

    kind = "matroid"

    def __init__(self, ground: Iterable[int]) -> None:
        ground = list(ground)
        self.ground: tuple[int, ...] = tuple(sorted(set(ground)))
        if len(self.ground) < len(ground):
            raise InputError("matroid ground repeats an element")
        self._ground_set = frozenset(self.ground)

    def _independent(self, subset: frozenset) -> bool:
        raise NotImplementedError

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return s <= self._ground_set and bool(self._independent(s))

    def _check_basis(self, basis: frozenset) -> None:
        if not self.is_basis(basis):
            raise NotABasis(f"{sorted(basis)} is not a basis")

    @cached_property
    def loops(self) -> frozenset:
        """The elements that lie in no basis."""
        return frozenset(f for f in self.ground if not self.is_independent((f,)))

    def ranking(self, price: Callable[[int], int | Fraction], order: Mapping[int, int]) -> Ranked:
        """(price(f), order[f], f) for each f outside `loops`, ascending: the
        walk of `cheapest_exchanges`, ties to the smaller position in `order`."""
        return sorted((price(f), order[f], f) for f in self.ground if f not in self.loops)

    def cheapest_exchanges(self, basis: frozenset, ranked: Ranked) -> Exchanges:
        """Each e of the basis to the first key of `ranked` whose f is e
        or has basis - e + f a basis: e's cheapest exchange."""
        self._check_basis(basis)
        return {e: next(key for key in ranked if key[2] == e or key[2] not in basis
                        and self.is_independent((basis - {e}) | {key[2]})) for e in basis}

    def greedy(self, order: Iterable[int]) -> frozenset:
        """Take each element of `order` in turn unless it breaks
        independence; along the ground sorted by weight, the result is a
        min-weight basis."""
        picked: set[int] = set()
        for e in order:
            if self.is_independent(frozenset(picked | {e})):
                picked.add(e)
        return frozenset(picked)

    @cached_property
    def rank(self) -> int:
        return len(self.greedy(self.ground))

    def is_basis(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return len(s) == self.rank and self.is_independent(s)

    def bases(self) -> Iterator[frozenset]:
        for combo in itertools.combinations(self.ground, self.rank):
            s = frozenset(combo)
            if self.is_independent(s):
                yield s

    def validate_axioms(self) -> None:
        """Full axiom check by enumeration; exponential in |ground|."""
        if len(self.ground) > 16:
            raise InputError("ground too large for exhaustive validation")
        indep = {frozenset(c) for r in range(len(self.ground) + 1)
                 for c in itertools.combinations(self.ground, r) if self.is_independent(c)}
        if frozenset() not in indep:
            raise InvalidMatroid("empty set must be independent")
        for s in indep:
            if any(s - {e} not in indep for e in s):
                raise InvalidMatroid(f"hereditary axiom violated at {sorted(s)}")
        for s, t in itertools.product(indep, indep):
            if len(s) < len(t) and not any(s | {e} in indep for e in t - s):
                raise InvalidMatroid(f"exchange axiom violated for {sorted(s)}, {sorted(t)}")


class UniformMatroid(MatroidOracle):
    def __init__(self, ground: Iterable[int], rank: int) -> None:
        super().__init__(ground)
        if not (0 <= rank <= len(self.ground)):
            raise InputError(f"rank {rank} out of range for {len(self.ground)} elements")
        self.rank = rank
        self.loops = frozenset() if rank else self._ground_set

    def _independent(self, subset: frozenset) -> bool:
        return len(subset) <= self.rank

    def cheapest_exchanges(self, basis: frozenset, ranked: Ranked) -> Exchanges:
        self._check_basis(basis)
        return _first_outside(basis, ranked, lambda f: self._ground_set)

    def greedy(self, order: Iterable[int]) -> frozenset:
        firsts = dict.fromkeys(e for e in order if e in self._ground_set)
        return frozenset(itertools.islice(firsts, self.rank))

    @property
    def descriptor(self) -> dict:
        return {"uniform": {"ground": list(self.ground), "rank": self.rank}}


class PartitionMatroid(MatroidOracle):
    def __init__(self, blocks: Sequence[Iterable[int]], quotas: Sequence[int]) -> None:
        blocks = [list(b) for b in blocks]
        if len(blocks) != len(quotas):
            raise InputError("one quota per block required")
        super().__init__(e for b in blocks for e in b)  # no repeat within or across blocks
        self._blocks = [frozenset(b) for b in blocks]
        self._quotas = list(quotas)
        for b, q in zip(self._blocks, self._quotas):
            if not (0 <= q <= len(b)):
                raise InputError(f"quota {q} out of range for block of size {len(b)}")
        self.rank = sum(self._quotas)
        self.loops = frozenset().union(*(b for b, q in zip(self._blocks, self._quotas) if not q))
        self._block_of = {e: b for b in self._blocks for e in b}

    def _independent(self, subset: frozenset) -> bool:
        return all(len(subset & b) <= q for b, q in zip(self._blocks, self._quotas))

    def cheapest_exchanges(self, basis: frozenset, ranked: Ranked) -> Exchanges:
        # a basis fills every block to its quota, so f must share e's block
        self._check_basis(basis)
        return _first_outside(basis, ranked, self._block_of.__getitem__)

    def greedy(self, order: Iterable[int]) -> frozenset:
        firsts = list(dict.fromkeys(order))
        return frozenset().union(
            *([e for e in firsts if e in b][:q] for b, q in zip(self._blocks, self._quotas)))

    @property
    def descriptor(self) -> dict:
        return {"partition": {"blocks": [sorted(b) for b in self._blocks],
                              "quotas": list(self._quotas)}}


class GraphicMatroid(MatroidOracle):
    """Forests of a multigraph; element ids map to edges."""

    def __init__(self, edges: Mapping[int, tuple]) -> None:
        super().__init__(edges.keys())
        self._edges = {eid: (u, v) for eid, (u, v) in edges.items()}
        self.rank = len(self._components(self.ground))
        self.loops = frozenset(eid for eid, (u, v) in self._edges.items() if u == v)

    def _components(self, subset: Iterable[int]) -> list[int]:
        """Kruskal's union-find along `subset`: the edges that join two trees."""
        parent: dict = {}
        joins = []
        for eid in subset:
            u, v = self._edges[eid]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                joins.append(eid)
        return joins

    def _independent(self, subset: frozenset) -> bool:
        return len(self._components(subset)) == len(subset)

    def greedy(self, order: Iterable[int]) -> frozenset:
        return frozenset(self._components(e for e in order if e in self._ground_set))

    def cheapest_exchanges(self, basis: frozenset, ranked: Ranked) -> Exchanges:
        # f exchanges for the edges of its fundamental cycle (a basis edge's
        # is itself): walked in order, each f answers the cycle edges still
        # unanswered; `answered` skips the others (Tarjan, JACM 1979).
        self._check_basis(basis)
        adjacent: dict = {}
        for e in basis:
            u, v = self._edges[e]
            adjacent.setdefault(u, []).append((v, e))
            adjacent.setdefault(v, []).append((u, e))
        parent: dict = {}  # vertex -> its depth, its parent and the edge to it
        stack = list(adjacent)
        while stack:
            x = stack.pop()
            parent.setdefault(x, (0, None, None))  # not reached yet: a new root
            for y, e in adjacent[x]:
                if y not in parent:
                    parent[y] = (parent[x][0] + 1, x, e)
                    stack.append(y)
        cheapest: Exchanges = {}
        answered: dict = {}
        for key in ranked:
            u, v = (_find(answered, x) for x in self._edges[key[2]])
            while u != v:
                if parent[u][0] < parent[v][0]:
                    u, v = v, u
                _depth, x, e = parent[u]
                cheapest[e] = key
                answered[u] = x
                u = _find(answered, x)
            if len(cheapest) == len(basis):
                break
        return cheapest

    @property
    def descriptor(self) -> dict:
        # edges listed in ground order; "ground" pins the element ids
        return {"graphic": {"ground": list(self.ground),
                            "edges": [list(self._edges[eid]) for eid in self.ground]}}


def _first_outside(basis: frozenset, ranked: Ranked, block: Callable) -> Exchanges:
    """Each e of the basis to the first key of `ranked` that is e or lies
    outside the basis in e's block, every element of which exchanges for e."""
    cheapest: Exchanges = {}
    opened = set()
    for key in ranked:
        if key[2] in basis:
            cheapest.setdefault(key[2], key)
        elif (b := block(key[2])) not in opened:
            opened.add(b)
            cheapest.update((e, key) for e in b & basis if e not in cheapest)
        if len(cheapest) == len(basis):
            break
    return cheapest


def _find(parent: dict, x):
    """The root of x in the union-find forest `parent` (roots are not
    keys), pointing each vertex on the way straight at it."""
    root = x
    while root in parent:
        root = parent[root]
    while x != root:
        parent[x], x = root, parent[x]
    return root


def matroid_from_descriptor(desc: Mapping) -> MatroidOracle:
    """Inverse of the `descriptor` properties."""
    if not isinstance(desc, Mapping) or len(desc) != 1:
        raise InputError("matroid descriptor must have exactly one kind")
    kind, body = next(iter(desc.items()))

    def elements(ids: Iterable) -> list[int]:
        return [integer(e, "a matroid element") for e in ids]

    if kind == "uniform":
        return UniformMatroid(elements(body["ground"]), integer(body["rank"], "a rank"))
    if kind == "partition":
        return PartitionMatroid([elements(b) for b in body["blocks"]],
                                [integer(q, "a quota") for q in body["quotas"]])
    if kind == "graphic":
        edges = body["edges"]
        ground = elements(body.get("ground", range(len(edges))))
        if len(ground) != len(edges):
            raise InputError("graphic descriptor ground/edges length mismatch")
        if len(set(ground)) < len(ground):
            raise InputError("matroid ground repeats an element")
        return GraphicMatroid({g: (u, v) for g, (u, v) in zip(ground, edges)})
    raise InputError(f"unknown matroid kind {shown(kind)}")


# -- deviation costs -------------------------------------------------------


def virtual_cost(game: GameModel, i: int, e: int) -> int | Fraction:
    """Cost of the resource as if player i were alone on it, plus delay."""
    return game.join_cost(e, frozenset(), i) + game.delays[i].get(e, 0)


def deviation_cost(
    game: GameModel, profile: Profile, i: int, virtual: bool = False
) -> dict[int, tuple[int | Fraction, int]]:
    """Cheapest packet move for player i away from each e of their basis
    (staying counts), as {e: (value, chosen element)}, ties to the
    smallest resource in global order.  True mode prices the landing
    resource at the user set it would have after the move; virtual mode
    prices it as if i were alone."""
    game.require("matroid")
    delays = game.delays[i]

    def price(f: int) -> int | Fraction:
        if virtual:
            return virtual_cost(game, i, f)
        return game.join_cost(f, profile.users(f), i) + delays.get(f, 0)

    space = game.spaces[i]
    cheapest = space.cheapest_exchanges(profile[i], space.ranking(price, game.resource_order))
    return {e: (value, f) for e, (value, _order, f) in cheapest.items()}


@dataclass(frozen=True)
class EnforceabilityViolation:
    kind: str  # "delay" or "cover"
    resource: int
    player: Optional[int]
    lhs: int | Fraction
    rhs: int | Fraction


@dataclass(frozen=True)
class EnforceabilityReport:
    ok: bool
    violations: tuple[EnforceabilityViolation, ...] = ()


def check_enforceable_matroid(
    game: GameModel, profile: Profile, virtual: bool = False
) -> EnforceabilityReport:
    """Delay and coverage conditions characterizing enforceable profiles.

    Per resource in a player's basis the delay may not exceed the player's
    cheapest exchange ("delay" condition); per used resource the headroom
    of its users must cover the shareable cost ("cover" condition).
    Virtual mode replaces exchange costs by virtual ones, giving a
    sufficient condition that the transform below establishes.
    """
    return _check_conditions(game, profile, virtual)[0]


def _check_conditions(
    game: GameModel, profile: Profile, virtual: bool, ranked: Optional[Sequence[Ranked]] = None
) -> tuple[EnforceabilityReport, dict[tuple[int, int], int | Fraction]]:
    """The report of `check_enforceable_matroid` and the deviation cost
    of every (player, resource in their basis) pair it priced; it walks
    `ranked`, each player's virtual ranking, if given."""
    game.require("matroid")
    game.validate_profile(profile)
    bad = []
    deltas: dict[tuple[int, int], int | Fraction] = {}
    for i in range(game.n):
        cheapest = (deviation_cost(game, profile, i, virtual=virtual) if ranked is None
                    else game.spaces[i].cheapest_exchanges(profile[i], ranked[i]))
        for e in profile[i]:
            value = deltas[(i, e)] = cheapest[e][0]
            d = game.delay(i, e)
            if d > value:
                bad.append(EnforceabilityViolation("delay", e, i, d, value))
    for e in game.resources:
        users = profile.users(e)
        if not users:
            continue
        headroom = sum(deltas[(i, e)] - game.delay(i, e) for i in sorted(users))
        cost = game.cost(e, users)
        if cost > headroom:
            bad.append(EnforceabilityViolation("cover", e, None, cost, headroom))
    return EnforceabilityReport(ok=not bad, violations=tuple(bad)), deltas


# -- the transform ---------------------------------------------------------


@dataclass(frozen=True)
class MatroidTransformResult:
    profile: Profile
    moves: tuple[Step, ...]  # "delay" and "cover" packet moves
    input_cost: int | Fraction
    output_cost: int | Fraction

    @property
    def iterations(self) -> int:
        return len(self.moves)


def transform_matroid(game: GameModel, profile: Profile) -> MatroidTransformResult:
    """Rewrite a basis profile into one the virtual conditions accept.

    Packet moves send one player from a violated resource to their
    cheapest virtual exchange.  Each move strictly lowers the moving
    packet's virtual cost, total cost never increases (strictly per delay
    move and per cover batch), and the move count stays below
    n * m * max-rank; all three facts are asserted.  Each move carries its
    exact total-cost delta, priced on the two resources it touches; the
    deltas of each delay move or cover batch are asserted to add up to
    less than zero, and all deltas together to `output_cost - input_cost`,
    so total cost is summed only for the input and the output.

    The loop fixes the first violated resource in global order.  It ranks
    each player's elements by virtual cost once, for every walk of the
    loop and of the final certificate.  It keeps each player's virtual
    deviations (value and landing resource) from all of their current
    basis, and a verdict per resource: None, "delay" or "cover".  A move
    of player i from e to f changes the users of e and f and the basis of
    i, so it drops i's deviations and the verdicts of e, f and the
    resources of i's new basis; every other verdict reads users and
    deviations that did not change.  The scan for the next violation
    computes missing verdicts in order and stops at the first violated
    one, so it picks the same resource as a full rescan would.
    """
    game.require("matroid")
    game.validate_profile(profile)
    bound = game.n * len(game.resources) * max((sp.rank for sp in game.spaces), default=0)
    current = profile
    input_cost = total_cost(game, current)
    moves: list[Step] = []
    ranked = [space.ranking(lambda f, i=i: virtual_cost(game, i, f), game.resource_order)
              for i, space in enumerate(game.spaces)]
    alone = {(i, f): price for i, keys in enumerate(ranked) for price, _order, f in keys}
    deviations: list[Optional[Exchanges]] = [None] * game.n
    verdicts: dict[int, Optional[str]] = {}

    def vdev(i: int, e: int) -> tuple[int | Fraction, int, int]:
        """(value, order, landing resource) of i's cheapest virtual move from e."""
        if deviations[i] is None:
            deviations[i] = game.spaces[i].cheapest_exchanges(current[i], ranked[i])
        return deviations[i][e]

    def uncovered(e: int, users: list[int]) -> bool:
        headroom = sum(vdev(i, e)[0] - game.delay(i, e) for i in users)
        return game.cost(e, users) > headroom

    def verdict(e: int) -> Optional[str]:
        if e not in verdicts:
            users = sorted(current.users(e))
            verdicts[e] = ("delay" if any(game.delay(i, e) > vdev(i, e)[0] for i in users)
                           else "cover" if users and uncovered(e, users) else None)
        return verdicts[e]

    def move_packet(i: int, e: int, kind: str) -> None:
        nonlocal current
        value, _order, f = vdev(i, e)
        if alone[(i, e)] <= value or f == e:
            raise InternalInvariant("packet move must strictly reduce virtual cost")
        choice = (current[i] - {e}) | {f}
        delta = move_cost(game, current, i, choice)
        current = current.replace(i, choice)
        deviations[i] = None
        for r in current[i] | {e}:
            verdicts.pop(r, None)
        moves.append(Step(kind, i, f, delta, source=e))
        if len(moves) > bound:
            raise InternalInvariant(f"transform exceeded {bound} packet moves")

    def settle(first_move: int, what: str) -> None:
        if sum(mv.cost_delta for mv in moves[first_move:]) >= 0:
            raise InternalInvariant(f"{what} failed to reduce total cost")

    while True:
        e = next((e for e in game.resources if verdict(e) is not None), None)
        if e is None:
            break
        first_move = len(moves)
        if verdicts[e] == "delay":
            users = sorted(current.users(e))
            i = next(i for i in users if game.delay(i, e) > vdev(i, e)[0])
            move_packet(i, e, "delay")
            settle(first_move, "delay move")
            continue
        # cover condition: drain players whose virtual cost on e is not
        # already their cheapest option, until the rest can pay for e.
        while uncovered(e, users := sorted(current.users(e))):
            movable = [i for i in users if alone[(i, e)] > vdev(i, e)[0]]
            if not movable:
                raise InvalidCostOracle(
                    f"cover condition stuck on resource {e}; cost function is "
                    "not subadditive on the queried sets"
                )
            move_packet(movable[0], e, "cover")
        settle(first_move, "cover batch")

    output_cost = total_cost(game, current)
    if sum(mv.cost_delta for mv in moves) != output_cost - input_cost:
        raise InternalInvariant("step cost deltas do not add up to the cost change")
    report = _check_conditions(game, current, True, ranked)[0]
    if not report.ok:
        raise InternalInvariant("transform terminated on a violated profile")
    return MatroidTransformResult(
        profile=current, moves=tuple(moves), input_cost=input_cost, output_cost=output_cost
    )


def build_matroid_protocol(game: GameModel, profile: Profile) -> SeparableProtocol:
    """Water-fill shares within deviation headroom; smallest players first.

    Requires the (true mode) enforceability conditions; raises
    NotEnforceable otherwise.
    """
    report, deltas = _check_conditions(game, profile, virtual=False)
    if not report.ok:
        raise NotEnforceable(f"{len(report.violations)} condition(s) violated")
    shares: dict[tuple[int, int], int | Fraction] = {}
    for e in game.resources:
        users = sorted(profile.users(e))
        if users:
            caps = [((i, e), deltas[(i, e)] - game.delay(i, e)) for i in users]
            shares.update(water_fill(game.cost(e, users), caps))
    return SeparableProtocol(game, profile, shares)
