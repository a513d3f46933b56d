"""Multi-pair path games on series-parallel player subgraphs.

For a profile P of source-terminal paths, enforceability is characterized
by a linear program: maximize the total assigned shares subject to
nonnegativity, per-resource capacity, and one stability row per deviation.
P is enforceable exactly when the optimum pays for every used edge.  On
any network the exponentially many deviation rows, one per simple path,
are generated lazily from best responses under the current shares.  On
series-parallel player subgraphs they collapse to one row per
"alternative", the cheapest detour between two path nodes that one piece
of the subgraph off the path joins.  A piece meets the path in at most
two nodes, so the detours are edge-disjoint; rows run by left node, then
by the fewest edges to the right node, then by its position.  The
transform below rewrites any profile into an enforceable one by letting
players slide along tight alternatives.

Fixed edge costs throughout; delays are allowed and always charged on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    InputError,
    InternalInvariant,
    NoTightAlternative,
    NotSeriesParallel,
    UnsupportedSpace,
)
from .game import CostFunction, GameModel, PathSpace, Profile, Step, move_cost, total_cost
from .lp import OPTIMAL, LinearProgram, Row, solve
from .network import Network, Vertex
from .protocol import SeparableProtocol, verify_pne, water_fill
from .rationals import exact


def _require_path_game(game: GameModel) -> None:
    game.require("path")
    if game.network.directed:
        raise UnsupportedSpace("series-parallel analysis expects undirected networks")


# -- series-parallel recognition ------------------------------------------


def is_two_terminal_sp(network: Network, s: Vertex, t: Vertex, edge_ids) -> bool:
    """Whether the subgraph on `edge_ids` is two-terminal series-parallel
    between s and t, by one linear reduction.

    Neighbour sets merge parallel edges.  A worklist contracts each vertex
    other than s and t that has exactly two neighbours into an edge
    between them, and queues both again.  SP iff only s and t remain,
    joined by an edge.  The reductions are confluent (Valdes, Tarjan and
    Lawler, 1982), so the worklist order does not change the answer.
    s == t counts as SP only without edges."""
    nbrs: dict[Vertex, set] = {}
    for eid in edge_ids:
        u, v = network.endpoints[eid]
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    if s == t:
        return not nbrs
    work = list(nbrs)
    while work:
        v = work.pop()
        if v in (s, t) or len(nbrs.get(v, ())) != 2:
            continue
        a, b = nbrs.pop(v)
        for x, y in ((a, b), (b, a)):
            nbrs[x].discard(v)
            nbrs[x].add(y)
            work.append(x)
    return nbrs.keys() == {s, t} and t in nbrs[s]


# -- alternatives ----------------------------------------------------------


@dataclass(frozen=True)
class Alternative:
    """A detour of one player: replaces the path segment between `frm` and
    `to` by `edges`, which are internally disjoint from the path."""

    owner: int
    frm: Vertex
    to: Vertex
    edges: tuple[int, ...]
    substituted: tuple[int, ...]
    weight: int | Fraction  # cost + owner delay, summed over `edges`


def _ordered_path(game: GameModel, i: int, choice: frozenset) -> tuple[int, ...]:
    sp: PathSpace = game.spaces[i]
    order = game.network.order_path_edges(choice, frm=sp.source, to=sp.terminal)
    if order is None:
        raise InputError(f"choice of player {i} is not a source-terminal path")
    return order


def _detour_search(game: GameModel, i: int, ordered: tuple[int, ...]) -> tuple[dict, Callable]:
    """Position index of player i's ordered path (each node to its position
    from the source), and the search from a path node through the player's
    region minus the path edges.  The index is the barrier: every path node
    is reached but never left, so a tree's entry at another path node is the
    cheapest detour between the two, and a tree's path nodes are found by
    looking its entries up in the index.  Edges weigh fixed cost plus the
    player's delay unless `weight` says otherwise."""
    net = game.network
    sp: PathSpace = game.spaces[i]
    position, node = {sp.source: 0}, sp.source
    for eid in ordered:
        node = net.other_end(eid, node)
        position[node] = len(position)
    allowed = net.blocks_between(sp.source, sp.terminal) - frozenset(ordered)
    delays = game.delays[i]

    def detour_weight(eid: int) -> int | Fraction:
        return game.fixed_cost(eid) + delays.get(eid, 0)

    def search(node: Vertex, weight: Callable = detour_weight) -> dict:
        return net.dijkstra(node, weight, blocked_vertices=position, edges=allowed)

    return position, search


def alternatives(game: GameModel, i: int, choice: frozenset) -> list[Alternative]:
    """Edge-disjoint detour system of player i against their current path:
    the cheapest detour between each pair of path nodes that one piece of
    the player's subgraph off the path joins.

    On a series-parallel subgraph a piece meets the path in at most two
    nodes, as a third would give a K4 minor with the path and the virtual
    source-terminal edge.  So the detours are edge-disjoint, and their
    stability rows imply the rows of all simple-path deviations.  Rows run
    by left node along the path, then by the fewest edges of any detour to
    the right node, then by the right node's position.
    """
    _require_path_game(game)
    net = game.network
    sp: PathSpace = game.spaces[i]
    if sp.source == sp.terminal:
        return []
    region = net.blocks_between(sp.source, sp.terminal)
    if not is_two_terminal_sp(net, sp.source, sp.terminal, edge_ids=region):
        raise NotSeriesParallel(f"player {i}'s subgraph is not series-parallel")
    ordered = _ordered_path(game, i, choice)
    position, search = _detour_search(game, i, ordered)
    found: list[Alternative] = []
    for v, a in list(position.items())[:-1]:
        tree = search(v)
        later = sorted((w for w in tree if position.get(w, -1) > a), key=position.__getitem__)
        if len(later) > 1:  # fewest edges first; the stable sort keeps path order on ties
            hops = search(v, lambda eid: 1)
            later.sort(key=lambda w: len(hops[w][1]))
        for w in later:
            cost, eseq = tree[w]
            found.append(Alternative(i, v, w, eseq, ordered[a:position[w]], cost))
    used = [e for alt in found for e in alt.edges]
    if len(used) != len(set(used)):
        raise InternalInvariant("alternatives are not edge-disjoint")
    return found


# -- the enforceability LP -------------------------------------------------


@dataclass(frozen=True)
class LPInstance:
    lp: LinearProgram
    var_index: dict
    not_series_parallel: Optional[NotSeriesParallel]  # None: all detour rows are in


def _stability_row(
    game: GameModel, var_index: dict, i: int, joined, left
) -> tuple[Row, int | Fraction]:
    """Row of player i's deviation that adopts `joined` and drops `left`:
    the shares on `left` may not exceed the full cost plus delay of
    `joined` minus the delay saved on `left`."""
    bound = sum(game.fixed_cost(e) + game.delay(i, e) for e in joined)
    for e in left:
        bound -= game.delay(i, e)
    return tuple(sorted((var_index[(i, e)], 1) for e in left)), exact(bound)


def build_lp(game: GameModel, profile: Profile) -> LPInstance:
    """Shares-maximizing LP whose optimum decides enforceability.

    Variables are the shares of (player, own path edge); capacity rows cap
    each used edge by its cost.  When every player's subgraph is
    series-parallel, one stability row per detour follows, and these rows
    imply every simple-path row.  Otherwise the LP holds the capacity rows
    only: `is_enforceable` generates its simple-path rows on demand.
    """
    _require_path_game(game)
    game.validate_profile(profile)
    var_index: dict = {}
    for i in range(game.n):
        for e in sorted(profile[i], key=game.resource_key):
            var_index[(i, e)] = len(var_index)
    rows: list[Row] = []
    rhs: list[int | Fraction] = []

    # a player's columns all come before the next player's, so ascending
    # players give ascending columns
    for e in game.resources:
        users = profile.users(e)
        if not users:
            continue
        rows.append(tuple((var_index[(i, e)], 1) for i in sorted(users)))
        rhs.append(game.fixed_cost(e))

    not_sp = None
    try:
        detours = [alt for i in range(game.n) for alt in alternatives(game, i, profile[i])]
    except NotSeriesParallel as ex:
        detours, not_sp = [], ex
    for alt in detours:
        row, bound = _stability_row(game, var_index, alt.owner, alt.edges, alt.substituted)
        rows.append(row)
        rhs.append(bound)

    lp = LinearProgram(
        objective=(1,) * len(var_index),
        rows=tuple(rows),
        rhs=tuple(rhs),
    )
    return LPInstance(lp=lp, var_index=var_index, not_series_parallel=not_sp)


@dataclass(frozen=True)
class EnforceabilityLPReport:
    enforceable: bool
    status: str
    lp_value: Optional[int | Fraction]
    used_cost: int | Fraction
    shares: Optional[dict] = None  # (player, resource) -> share


def is_enforceable(game: GameModel, profile: Profile) -> EnforceabilityLPReport:
    """Solve the LP; the profile is enforceable iff the optimum covers the
    full cost of all used edges (shares are then budget balanced).

    On series-parallel player subgraphs the detour rows of `build_lp`
    imply the stability row of every simple path, so one solve decides.
    Elsewhere the path rows are generated lazily: after each solve,
    `verify_pne` under the current shares adds the row of each player's
    cheapest deviation that beats their path, until none does.  The final
    point then violates no path row, so its optimum is the full LP's.
    """
    return _optimize(game, profile, build_lp(game, profile))


def _optimize(game: GameModel, profile: Profile, inst: LPInstance) -> EnforceabilityLPReport:
    used_cost = exact(sum(game.fixed_cost(e) for e in game.resources if profile.users(e)))
    lp = inst.lp
    generated: set = set()
    while True:
        sol = solve(lp)
        if sol.status != OPTIMAL:
            return EnforceabilityLPReport(
                enforceable=False, status=sol.status, lp_value=None, used_cost=used_cost
            )
        shares = {pair: sol.values[col] for pair, col in inst.var_index.items()}
        if inst.not_series_parallel is None:
            break
        protocol = SeparableProtocol(game, profile, shares)
        cuts = [
            _stability_row(
                game,
                inst.var_index,
                d.player,
                d.better_choice - profile[d.player],
                profile[d.player] - d.better_choice,
            )
            for d in verify_pne(game, protocol).deviations
        ]
        if not cuts:
            break
        for cut in cuts:
            if cut in generated:
                raise InternalInvariant("stability row generated twice")
            generated.add(cut)
        lp = LinearProgram(
            objective=lp.objective,
            rows=lp.rows + tuple(row for row, _ in cuts),
            rhs=lp.rhs + tuple(bound for _, bound in cuts),
        )
    return EnforceabilityLPReport(
        enforceable=(sol.objective_value == used_cost),
        status=sol.status,
        lp_value=sol.objective_value,
        used_cost=used_cost,
        shares=shares,
    )


# -- tight alternatives and the transform ----------------------------------


def smallest_tight_alternative(
    game: GameModel,
    i: int,
    ordered_path: tuple[int, ...],
    share_of: Callable[[int], int | Fraction],
    f: int,
) -> Alternative:
    """Cheapest-possible detour around f whose cost exactly matches the
    shares plus delays it would absorb, substituting as few edges as
    possible.

    Candidate detours connect two nodes of the current path, avoid all its
    other nodes, and must enclose f.  A detour strictly cheaper than the
    absorbed amount would contradict LP feasibility, so it raises.
    """
    _require_path_game(game)
    if f not in ordered_path:
        raise InputError(f"edge {f} is not on the player's current path")
    position, search = _detour_search(game, i, ordered_path)
    fpos = ordered_path.index(f)
    best: Optional[tuple] = None
    for v, a in list(position.items())[:fpos + 1]:
        tree = search(v)
        for w, (cost, eseq) in tree.items():
            if (b := position.get(w, -1)) <= fpos:
                continue
            substituted = tuple(ordered_path[a:b])
            absorbed = sum(share_of(e) + game.delay(i, e) for e in substituted)
            if cost < absorbed:
                raise InternalInvariant(
                    "detour cheaper than current shares; share vector is not "
                    "an LP-feasible optimum"
                )
            if cost > absorbed:
                continue
            key = (len(substituted), eseq, a, b)
            if best is None or key < best[0]:
                best = (key, Alternative(i, v, w, eseq, substituted, cost))
    if best is None:
        raise NoTightAlternative(f"no tight detour around edge {f} for player {i}")
    return best[1]


@dataclass(frozen=True)
class NsepaTransformResult:
    profile: Profile
    protocol: SeparableProtocol
    phases: int
    input_enforceable: bool
    lp_value: int | Fraction
    input_cost: int | Fraction
    output_cost: int | Fraction
    substitutions: tuple[Step, ...] = ()
    repairs: tuple[Step, ...] = ()


def nsepa_transform(game: GameModel, profile: Profile) -> NsepaTransformResult:
    """Rewrite a profile into an enforceable one with balanced shares.

    Starts from the detour LP optimum.  While some used edge is
    not fully paid, every player holding such edges replaces all of them
    in one phase, walking their path from the source and substituting each
    unpaid edge by its smallest tight detour; substituted segments keep
    their shares on kept edges, adopted edges are paid in full by the
    adopter.  Phase count is bounded by the number of initially used
    edges, each phase conserves every deviating player's private cost, and
    total cost strictly decreases unless the input was already
    enforceable; all of this is asserted.  Finally, overpaid edges are
    reduced to exact balance, highest player index first.

    A profile can be so delay-heavy that a player improves by rerouting
    even when paying every new edge alone; no share vector stabilizes it
    and the LP is infeasible.  Such players are first moved to their
    cheapest reroute (new edges at full cost plus own delays, repeated
    until none improves).  Every such move lowers the mover's delay total
    by more than the newly opened edges cost, so it strictly lowers total
    cost, and afterwards the all-zero share vector is LP-feasible.  The
    moves are reported as `repairs`.

    The working profile, which keeps each edge's users, the ordered paths
    and the paid ledger, each edge's total share, are updated move by move:
    the ledger starts from the LP optimum and changes only where a
    substitution drops or adopts shares.  Each step's `cost_delta` is
    `move_cost`, priced from the edges that leave and join the mover's
    path alone, and the deltas of all steps must add up to
    `output_cost - input_cost`.
    """
    _require_path_game(game)
    game.validate_profile(profile)
    input_cost = total_cost(game, profile)
    for e in profile.used_resources():
        game.fixed_cost(e)  # fixed costs only: a used table raises before any move

    current = profile
    paths = [_ordered_path(game, i, profile[i]) for i in range(game.n)]

    def move(i: int, row: tuple[int, ...]) -> int | Fraction:
        """Put player i on `row`; return the exact change of total cost."""
        nonlocal current
        delta = move_cost(game, current, i, row)
        current = current.replace(i, row)
        paths[i] = row
        return delta

    repairs: list[Step] = []
    for i in range(game.n):
        sp: PathSpace = game.spaces[i]
        delays = game.delays[i]
        while True:
            held = current[i]

            def reroute_price(e: int) -> int | Fraction:
                opened = 0 if e in held else game.fixed_cost(e)
                return opened + delays.get(e, 0)

            hit = game.network.shortest_path(sp.source, sp.terminal, reroute_price)
            if hit is None:
                raise InternalInvariant(f"player {i} lost connectivity")
            price, edges = hit
            stay = sum(delays.get(e, 0) for e in paths[i])
            if price >= stay:
                break
            repairs.append(Step("repair", i, None, move(i, tuple(edges))))

    inst = build_lp(game, current)
    if inst.not_series_parallel is not None:
        raise inst.not_series_parallel
    report = _optimize(game, current, inst)
    if report.status != OPTIMAL or report.shares is None:
        raise InternalInvariant(f"enforceability LP ended {report.status}")

    shares: dict[tuple[int, int], int | Fraction] = dict(report.shares)
    paid: dict[int, int | Fraction] = {}
    for (i, e), share in shares.items():
        paid[e] = paid.get(e, 0) + share
    dropped: dict[int, set] = {i: set() for i in range(game.n)}

    def private(i: int) -> int | Fraction:
        delays = game.delays[i]
        return sum(shares.get((i, e), 0) + delays.get(e, 0) for e in paths[i])

    substitutions: list[Step] = []
    phase_bound = len(current.used_resources())
    phases = 0
    while True:
        snapshot = [{e for e in paths[i] if paid[e] < game.fixed_cost(e)}
                    for i in range(game.n)]
        if not any(snapshot):
            break
        phases += 1
        if phases > phase_bound:
            raise InternalInvariant(f"more than {phase_bound} phases")
        for i, targets in enumerate(snapshot):
            while True:
                f = next((e for e in paths[i]
                          if e in targets and paid[e] < game.fixed_cost(e)), None)
                if f is None:
                    break
                before = private(i)
                if (i, f) not in report.shares:
                    raise InternalInvariant("unpaid edge outside the original path")
                alt = smallest_tight_alternative(game, i, paths[i],
                                                 lambda e: shares.get((i, e), 0), f)
                readopted = set(alt.edges) & dropped[i]
                if readopted:
                    raise InternalInvariant(
                        f"player {i} re-adopted substituted edges {sorted(readopted)}"
                    )
                old = paths[i]
                a = old.index(alt.substituted[0])
                b = a + len(alt.substituted)
                delta = move(i, old[:a] + alt.edges + old[b:])
                for e in alt.substituted:
                    dropped[i].add(e)
                    paid[e] -= shares.pop((i, e), 0)
                for e in alt.edges:
                    shares[(i, e)] = game.fixed_cost(e)
                    paid[e] = paid.get(e, 0) + shares[(i, e)]
                after = private(i)
                if after != before:
                    raise InternalInvariant(
                        f"private cost of player {i} drifted from {before} to {after}"
                    )
                substitutions.append(Step("substitute", i, f, delta, phase=phases))

    # reduce overpaid edges to exact balance, highest player index first
    for e in game.resources:
        users = current.users(e)
        if not users:
            continue
        excess = paid[e] - game.fixed_cost(e)
        if excess < 0:
            raise InternalInvariant(f"edge {e} left unpaid after all phases")
        if excess:
            held = [((i, e), shares.get((i, e), 0)) for i in sorted(users, reverse=True)]
            for pair, cut in water_fill(excess, held).items():
                if cut:
                    shares[pair] -= cut

    game.validate_profile(current)
    output_cost = total_cost(game, current)
    stepped = sum(step.cost_delta for step in repairs + substitutions)
    if stepped != output_cost - input_cost:
        raise InternalInvariant("step cost deltas do not add up to the cost change")
    if report.enforceable and not repairs:
        if current != profile:
            raise InternalInvariant("enforceable input must pass through unchanged")
    elif not output_cost < input_cost:
        raise InternalInvariant("transform failed to strictly reduce total cost")
    return NsepaTransformResult(
        profile=current,
        protocol=SeparableProtocol(game, current, shares),
        phases=phases,
        input_enforceable=report.enforceable and not repairs,
        lp_value=report.lp_value,
        input_cost=input_cost,
        output_cost=output_cost,
        substitutions=tuple(substitutions),
        repairs=tuple(repairs),
    )


# -- the hard instance -----------------------------------------------------

_FIXTURE_EDGES = [
    ("s1", "s2", 84),
    ("s1", "t1", 100),
    ("t3", "s3", 69),
    ("t2", "t3", 86),
    ("s1", "s3", 60),
    ("s1", "t3", 57),
    ("a", "s2", 71),
    ("a", "t1", 38),
    ("a", "t3", 38),
    ("t2", "s3", 82),
]

_FIXTURE_PAIRS = [("s1", "t1"), ("s2", "t2"), ("s3", "t3")]

_FIXTURE_OPT = [(5, 8, 7), (6, 8, 5, 4, 9), (4, 5)]


def counterexample_fixture() -> tuple[GameModel, Profile]:
    """Three-pair instance whose unique social optimum is not enforceable.

    The optimum costs 346, while no stable share vector collects more
    than 339 of it, so every separable protocol stabilizes only costlier
    profiles.  Useful as a hard regression case: its player subgraphs are
    not all series-parallel.
    """
    net = Network(
        [(k, u, v) for k, (u, v, _c) in enumerate(_FIXTURE_EDGES)],
        directed=False,
        vertices=["s1", "t1", "s2", "t2", "s3", "t3", "a"],
    )
    costs = {k: CostFunction(fixed=c) for k, (_u, _v, c) in enumerate(_FIXTURE_EDGES)}
    game = GameModel(
        players=3,
        resources=list(range(len(_FIXTURE_EDGES))),
        costs=costs,
        spaces=[PathSpace(source=s, terminal=t) for s, t in _FIXTURE_PAIRS],
        network=net,
    )
    return game, Profile([frozenset(p) for p in _FIXTURE_OPT])
