"""Single-source connection games with fixed costs: tree sharing transform.

Players connect terminals to one shared source.  Any profile is first
rewritten into a tree profile; the tree is then priced bottom-up.  For the
edge under consideration each user's maximum contribution is the price gap
between their situation with the edge free and with the edge at full cost,
where deviations may jump along "auxiliary edges": stored shortest paths of
the original graph between two nodes of the player's own initial path.  An
edge whose users can cover it is closed and shared; otherwise it is dropped
and the affected subtrees are rerouted over one auxiliary edge each, paid
in full by a single representative player while all other rerouted players
ride it for free.  Expansion finally replaces auxiliary edges by their
stored paths and charges each expansion edge to its auxiliary payer unless
the edge already carries shares.

Delays must be zero here, and all players share one source.  Costs,
shares, search distances and sums follow the rule of `rationals.exact`,
so integral games price on ints throughout.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (
    Disconnected,
    InputError,
    InternalInvariant,
    UnsupportedSpace,
)
from .game import GameModel, PathSpace, Profile, Step, total_cost
from .network import Network, Vertex
from .protocol import SeparableProtocol, water_fill
from .rationals import exact, shown

ItemId = object  # int for graph edges, ("aux", deep, shallow) for auxiliary edges


def _require_single_source(game: GameModel) -> Vertex:
    game.require("path")
    sources = {sp.source for sp in game.spaces}
    if len(sources) > 1:
        raise UnsupportedSpace(f"multiple sources {sorted(map(str, sources))}")
    if game.has_delays:
        raise UnsupportedSpace("tree transform requires zero delays")
    if not sources:
        return game.network.vertices[0] if game.network.vertices else None
    return sources.pop()


def to_tree_profile(game: GameModel, profile: Profile) -> Profile:
    """Reroute every player inside the union of used edges along a
    shortest-path tree from the source; never more expensive."""
    source = _require_single_source(game)
    game.validate_profile(profile)
    if game.n == 0:
        return profile  # without players there is no source to search from
    union = profile.used_resources()
    net = game.network
    tree = net.dijkstra(source, game.fixed.__getitem__, reverse=net.directed, edges=union)
    choices = []
    for i in range(game.n):
        t = game.spaces[i].terminal
        if t == source:
            choices.append(frozenset())
            continue
        if t not in tree:
            raise Disconnected(f"terminal {shown(t)} cannot reach the source")
        choices.append(frozenset(tree[t][1]))
    out = Profile(choices)
    game.validate_profile(out)
    if total_cost(game, out) > total_cost(game, profile):
        raise InternalInvariant("tree profile costs more than the input")
    return out


# -- working state ---------------------------------------------------------


class AuxEdge(NamedTuple):
    gpath: tuple[int, ...]  # ordered deep -> shallow, the ends in its key
    cost: int | Fraction


class AuxiliaryGraph:
    """Mutable working state of the bottom-up pricing pass.

    `cost` prices every item once: graph edges by id and auxiliary edges
    by key, each stored by the rule of `rationals.exact`.  Open tree edges
    are priced in a kept order (`order`), rebuilt only when a drop changes
    the tree's depths."""

    def __init__(self, game: GameModel, tree_profile: Profile) -> None:
        self.game = game
        self.net: Network = game.network
        self.source = _require_single_source(game)
        game.validate_profile(tree_profile)
        self.paths: dict[int, tuple[ItemId, ...]] = {}
        for i in range(game.n):
            sp: PathSpace = game.spaces[i]
            order = self.net.order_path_edges(
                tree_profile[i], frm=sp.terminal, to=self.source
            )
            if order is None:
                raise InputError(f"choice of player {i} is not a terminal-source path")
            self.paths[i] = order
        self.aux: dict[tuple, AuxEdge] = {}
        self.open_edges: set[int] = set()
        for items in self.paths.values():
            self.open_edges.update(items)
        # shares of closed items; users only, zero entries kept on purpose
        self.closed_shares: dict[ItemId, dict[int, int | Fraction]] = {}
        self.aux_payer: dict[tuple, int] = {}
        self.events: list[Step] = []  # "close" and "drop"
        self._build_aux_edges()
        self.cost: dict[ItemId, int | Fraction] = game.fixed | {
            key: aux.cost for key, aux in self.aux.items()}
        self._check_tree()  # sets walks, users, depth, adj and the pricing order

    # ---- structure helpers ------------------------------------------

    def item_ends(self, item: ItemId) -> tuple[Vertex, Vertex]:
        if isinstance(item, tuple) and item and item[0] == "aux":
            return (item[1], item[2])
        return self.net.endpoints[item]

    def tree_cost(self) -> int | Fraction:
        return exact(sum(self.cost[it] for it in self.users))

    def _check_tree(self) -> None:
        """Verify the union of paths is a tree rooted at the source and
        keep what the pricing pass reads of the current paths: each
        player's vertex walk (`walks`), each tree item's users in player
        order (`users`), the vertex depths in items (`depth`, for the
        pricing order), the auxiliary graph's adjacency (`adj`: tree
        items plus the auxiliary edges not in the tree, walked in arc
        direction on directed graphs) and the open tree edges in pricing
        order (`order`: by depth, then largest id, the next pick last).
        Paths change only in `_drop_edge`, which calls this again; the
        auxiliary edges are fixed once built."""
        self.walks = {i: self._vertex_walk(i) for i in self.paths}
        users: dict[ItemId, list[int]] = {}
        for i, items in self.paths.items():
            for it in items:
                users.setdefault(it, []).append(i)
        tree: dict[Vertex, list] = {self.source: []}
        adj: dict[Vertex, list] = {}
        directed = self.net.directed
        for it in list(users) + [key for key in self.aux if key not in users]:
            u, v = self.item_ends(it)  # aux edges run deep -> shallow
            adj.setdefault(u, []).append((v, it))
            if not directed:
                adj.setdefault(v, []).append((u, it))
            if it in users:
                tree.setdefault(u, []).append(v)
                tree.setdefault(v, []).append(u)
        depth = {self.source: 0}
        frontier = [self.source]
        while frontier:
            nxt = []
            for x in frontier:
                for y in tree.get(x, ()):
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(depth) != len(users) + 1 or any(v not in depth for v in tree):
            raise InternalInvariant("player paths do not form a tree")
        self.users, self.depth, self.adj = users, depth, adj
        ends = self.net.endpoints
        self.order = sorted(
            (e for e in self.open_edges if e in users),
            key=lambda e: (max(depth[ends[e][0]], depth[ends[e][1]]), -e),
        )

    def _vertex_walk(self, i: int) -> list[Vertex]:
        sp: PathSpace = self.game.spaces[i]
        out = [sp.terminal]
        for it in self.paths[i]:
            u, v = self.item_ends(it)
            out.append(v if out[-1] == u else u)
        if out[-1] != self.source:
            raise InternalInvariant(f"path of player {i} does not end at the source")
        return out

    def _build_aux_edges(self) -> None:
        """One auxiliary edge per (deeper, shallower) vertex pair of a
        player's walk: the cheapest graph path between them.  One search
        per deeper vertex, ended once it has settled every shallower vertex
        of the walks through it."""
        net, weight = self.net, self.game.fixed.__getitem__
        # pairs (deeper, shallower): walk runs terminal -> source
        walks = [self._vertex_walk(i) for i in range(self.game.n)]
        targets: dict[Vertex, set] = {}
        for walk in walks:
            for a in range(0, len(walk) - 1):
                targets.setdefault(walk[a], set()).update(walk[a + 1 :])
        trees: dict[Vertex, dict] = {}
        for walk in walks:
            for a in range(0, len(walk) - 1):
                deep = walk[a]
                if deep not in trees:
                    trees[deep] = net.dijkstra(deep, weight, stop=targets[deep])
                reach = trees[deep]
                for b in range(a + 1, len(walk)):
                    shallow = walk[b]
                    key = ("aux", deep, shallow)
                    if key in self.aux or shallow not in reach:
                        continue
                    cost, eseq = reach[shallow]
                    self.aux[key] = AuxEdge(eseq, cost)

    # ---- pricing ----------------------------------------------------

    def _working_cost(
        self, i: int, item: ItemId, restored: Optional[int] = None
    ) -> int | Fraction:
        """Price of one auxiliary-graph edge for player i.

        Open tree edges are free for everyone; closed items cost their
        assigned share for users and the full price for joiners; the edge
        currently being processed (`restored`) costs its full price."""
        if item == restored:
            return self.cost[item]
        assigned = self.closed_shares.get(item)
        if assigned is not None:
            return assigned.get(i, self.cost[item])
        if item in self.open_edges:
            return 0
        return self.cost[item]

    def _ghat_best(self, i: int, restored: int) -> int | Fraction:
        """Cheapest terminal-source connection for player i in the
        auxiliary graph, with `restored` at full price.  Cross-check for
        the structured deviation search."""
        start = self.game.spaces[i].terminal
        dist = {start: 0}
        heap = [(0, 0, start)]
        tick = 0
        while heap:
            d, _k, x = heapq.heappop(heap)
            if x == self.source:
                return d
            if d > dist[x]:
                continue
            for y, it in self.adj.get(x, ()):
                nd = d + self._working_cost(i, it, restored=restored)
                if y not in dist or nd < dist[y]:
                    dist[y] = nd
                    tick += 1
                    heapq.heappush(heap, (nd, tick, y))
        raise InternalInvariant("auxiliary graph lost source connectivity")

    def max_contribution(self, i: int, e: int) -> tuple[int | Fraction, Optional[tuple]]:
        """Willingness of player i to pay for open edge e on their path.

        Returns (delta, deviation) where deviation is None when staying is
        weakly best, else (deviation vertex, rejoin vertex, aux key).
        Deviations follow the player's path to a vertex below e, take one
        auxiliary edge over e, and continue along the tree above.
        """
        items = self.paths[i]
        if e not in items:
            raise InputError(f"edge {e} is not on the path of player {i}")
        walk = self.walks[i]
        p = items.index(e)
        upto = [0]  # upto[k]: working cost of the first k items
        for it in items:
            upto.append(upto[-1] + self._working_cost(i, it, restored=e))
        stay = upto[-1]
        base = stay - self.cost[e]
        best: Optional[tuple] = None  # (cost, -a, b, key)
        for a in range(0, p + 1):
            for b in range(p + 1, len(walk)):
                key = ("aux", walk[a], walk[b])
                aux = self.aux.get(key)
                if aux is None:
                    continue
                cost = upto[a] + aux.cost + (stay - upto[b])
                rank = (cost, -a, b)
                if best is None or rank < best[0]:
                    best = (rank, (walk[a], walk[b], key))
        ghat = self._ghat_best(i, restored=e)
        structured = stay if best is None else min(stay, best[0][0])
        if ghat < structured:
            raise InternalInvariant(
                f"unstructured deviation beats the structured ones for player {i}"
            )
        if best is None or stay <= best[0][0]:
            return self.cost[e], None
        return best[0][0] - base, best[1]

    # ---- bottom-up loop ---------------------------------------------

    def _next_open_edge(self) -> Optional[int]:
        """The deepest open edge, the smallest id first among equals.  Open
        edges only close or leave the tree between two `_check_tree`
        calls, so the kept order holds: entries no longer open are skipped."""
        while self.order:
            e = self.order.pop()
            if e in self.open_edges:
                return e
        return None

    def process_next(self) -> bool:
        """Price one open edge; True while work remains."""
        e = self._next_open_edge()
        if e is None:
            return False
        users = self.users.get(e)
        if not users:
            raise InternalInvariant(f"open edge {e} has no users")
        contrib = {i: self.max_contribution(i, e) for i in users}
        cost = self.cost[e]
        if cost <= sum(contrib[i][0] for i in users):
            takes = water_fill(cost, [(i, contrib[i][0]) for i in users])
            self.closed_shares[e] = {i: exact(v) for i, v in takes.items()}
            self.open_edges.discard(e)
            self.events.append(Step("close", users[0], e, 0))
            return True
        self._drop_edge(e, users, contrib)
        return True

    def _drop_edge(self, e: int, users: list[int], contrib: dict) -> None:
        before = self.tree_cost()
        deviation: dict[int, tuple] = {}
        for i in users:
            if contrib[i][1] is None:
                raise InternalInvariant(
                    "player without deviation vertex on a dropped edge"
                )
            deviation[i] = contrib[i][1]
        walks = self.walks  # of the paths before the reroute, until _check_tree
        positions = {i: self.paths[i].index(e) for i in users}
        dev_vertices = {v for v, _u, _k in deviation.values()}
        highest: dict[int, Vertex] = {}
        for i in users:
            below = walks[i][: positions[i] + 1]
            options = [a for a, v in enumerate(below) if v in dev_vertices]
            if not options:
                raise InternalInvariant("no deviation vertex on a user's path")
            highest[i] = below[max(options)]
        chosen: list[Vertex] = sorted(set(highest.values()), key=self.net.vindex.get)
        payers = []
        for v in chosen:
            reps = [i for i in users if deviation[i][0] == v]
            if not reps:
                raise InternalInvariant("deviation group without a representative")
            rep = min(reps)
            _v, u, key = deviation[rep]
            aux = self.aux[key]
            riders = [j for j in users if highest[j] == v]
            tail = self.paths[rep][walks[rep].index(u) :]
            share_map = {rep: aux.cost}
            for j in riders:
                prefix = self.paths[j][: walks[j].index(v)]
                self.paths[j] = tuple(prefix) + (key,) + tuple(tail)
                if j != rep:
                    share_map[j] = 0
            self.closed_shares[key] = share_map
            self.aux_payer[key] = rep
            payers.append(rep)
        self._check_tree()
        self.open_edges.discard(e)
        # edges below e were closed earlier (bottom-up order), but open
        # edges above e may lose all users when reroutes jump over them;
        # they simply leave the tree unpriced
        self.open_edges &= self.users.keys()
        after = self.tree_cost()
        if not after < before:
            raise InternalInvariant("tree replacement failed to reduce tree cost")
        self.events.append(Step("drop", payers[0], e, exact(after - before)))

    def run(self) -> None:
        guard = 0
        limit = 2 * len(self.net.edge_ids) + len(self.aux) + 10
        while self.process_next():
            guard += 1
            if guard > limit:
                raise InternalInvariant("bottom-up loop failed to terminate")


# -- expansion -------------------------------------------------------------


class SingleSourceResult(NamedTuple):
    profile: Profile
    protocol: SeparableProtocol
    input_cost: int | Fraction
    output_cost: int | Fraction
    repairs: tuple[tuple, ...]  # (resource, player, amount) balance fixes
    events: tuple[Step, ...] = ()  # "close" and "drop"; drop deltas are tree-cost changes


def _loop_erased(
    state: AuxiliaryGraph, start: Vertex, walk_edges: list[int]
) -> list[int]:
    """Erase loops from a walk given by graph edge ids, keeping order."""
    net = state.net
    stack: list[tuple[Vertex, Optional[int]]] = [(start, None)]
    at = start
    for eid in walk_edges:
        at = net.other_end(eid, at)
        hit = next((k for k, (v, _e) in enumerate(stack) if v == at), None)
        if hit is not None:
            del stack[hit + 1 :]
        else:
            stack.append((at, eid))
    return [e for _v, e in stack[1:] if e is not None]


def expand_and_assign(state: AuxiliaryGraph) -> tuple[Profile, dict, tuple]:
    """Replace auxiliary edges by their stored paths and settle payments:
    the expanded profile, its (player, edge) shares and the repairs.

    Kept tree edges keep their closed shares for players who still use
    them.  Expansion edges are charged in global player order: the payer
    of the auxiliary edge pays an expansion edge in full unless it already
    carries shares.  Walks that self-intersect after expansion are
    loop-erased; if that strands part of a closed edge's cost, the deficit
    is assigned to the smallest-index remaining user and reported."""
    game = state.game
    expanded: dict[int, list[int]] = {}
    expansion_of: dict[int, list[int]] = {i: [] for i in range(game.n)}
    for i in range(game.n):
        walk: list[int] = []
        for it in state.paths[i]:
            if isinstance(it, tuple) and it and it[0] == "aux":
                aux = state.aux[it]
                walk.extend(aux.gpath)
                if state.aux_payer.get(it) == i:
                    expansion_of[i].extend(aux.gpath)
            else:
                walk.append(it)
        start = game.spaces[i].terminal
        expanded[i] = _loop_erased(state, start, walk)
    profile = Profile([frozenset(expanded[i]) for i in range(game.n)])
    game.validate_profile(profile)

    shares: dict[tuple[int, int], int | Fraction] = {}
    paid: dict[int, int | Fraction] = {}  # per edge, the sum of its shares so far
    for item, table in state.closed_shares.items():
        if isinstance(item, tuple):
            continue  # auxiliary; settled through expansion charging
        for i, v in table.items():
            if v != 0 and item in profile[i]:
                shares[(i, item)] = v
                paid[item] = paid.get(item, 0) + v
    for i in range(game.n):
        for e in expansion_of[i]:
            if e in profile[i] and paid.get(e, 0) == 0:
                shares[(i, e)] = paid[e] = game.fixed[e]
    repairs: list[tuple] = []
    for e in sorted(profile.used_resources(), key=game.resource_order.__getitem__):
        cost = game.fixed[e]
        total = paid.get(e, 0)
        if total > cost:
            raise InternalInvariant(f"edge {e} overpaid after expansion")
        if total < cost:
            payer = min(i for i in range(game.n) if e in profile[i])
            shares[(payer, e)] = shares.get((payer, e), 0) + cost - total
            repairs.append((e, payer, exact(cost - total)))
    return profile, shares, tuple(repairs)


def transform_single_source(game: GameModel, profile: Profile) -> SingleSourceResult:
    """Full pipeline: tree profile, bottom-up pricing, expansion.

    The result's protocol is budget balanced by construction; equilibrium
    of the output profile is established by the pricing pass and should be
    re-verified by callers that need a certificate.
    """
    game.validate_profile(profile)
    input_cost = total_cost(game, profile)
    tree_profile = to_tree_profile(game, profile)
    state = AuxiliaryGraph(game, tree_profile)
    state.run()
    out, shares, repairs = expand_and_assign(state)
    protocol = SeparableProtocol(game, out, shares)
    output_cost = total_cost(game, out)
    if output_cost > input_cost:
        raise InternalInvariant("transform increased total cost")
    for it in sorted(state.users, key=str):
        if not isinstance(it, tuple):
            continue
        payers = [i for i, v in state.closed_shares[it].items() if v != 0]
        expected = [state.aux_payer[it]] if state.aux[it].cost != 0 else []
        if payers != expected:
            raise InternalInvariant(f"auxiliary edge {it} not paid by one player")
    return SingleSourceResult(
        profile=out,
        protocol=protocol,
        input_cost=input_cost,
        output_cost=output_cost,
        repairs=repairs,
        events=tuple(state.events),
    )

