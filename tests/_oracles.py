"""Independent reference implementations used to pin expected values.

These are deliberately written with different algorithms than the package
(vertex enumeration and Fourier-Motzkin instead of simplex, exhaustive
search instead of greedy structure) so agreement is meaningful.  The
matroid rewrite reference rescans every resource and reprices every
deviation after each move, where the package keeps both up to date.  The
tight-detour reference runs one search per pair of path nodes, where the
package runs one per left node.  The detour-system reference discovers each
detour by a breadth-first search, deletes its interior and keeps the
cheapest detour per pair of path nodes, where the package reads every pair
off one search per left node.  The full-path LP reference writes one
stability row per enumerated simple path, where the package generates the
rows it needs from best responses.  The reference loader parses every cost
table entry and delay cell where it stands, where the package parses each
distinct string of a document once and shares one key index among the
tables that list the same keys in the same order.  The series-parallel
recognition reference restarts its reduction and rebuilds its
parallel-edge and degree maps after every contraction, where the package
runs one worklist over neighbour sets.  The path-game transform reference re-sums the whole
profile around every step and scans every player for an edge's users,
where the package keeps one per-edge user map and prices each move from
the edges it changes.  The single-source pricing reference runs a full
search from every path vertex for its auxiliary edges, rescans every
player for an item's users, re-walks paths and re-sums every prefix and
tail of a path per query, and rebuilds the auxiliary graph for each
cross-check search, where the package keeps walks, users, depths and
adjacency from one tree check to the next and stops its searches once
their answers are settled.  The shortest-path reference keeps every
distance a Fraction, where the package keeps integral distances as ints
inside the search.  The whole-tableau simplex reference pivots on every row
of the program, where the package pivots each connected component of the
program on its own rows.  The priced cheapest-exchange rules take a price
callable and price every element they consider on each call, where the
package walks a ranking of keys that its caller priced and sorted once.
The exhaustive separability check and a player's private cost under a
protocol have no caller in the package, so they live here with the tests
that use them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from typing import Collection, Mapping, Optional, Sequence

from sepshare.errors import InputError, InternalInvariant, NoTightAlternative, NotSeriesParallel
from sepshare.game import (
    CostFunction,
    GameModel,
    PathSpace,
    Profile,
    Step,
    total_cost,
)
from sepshare.lp import (
    LinearProgram,
    Number,
    Solution,
    SparseRow,
    _certify,
    _pivot,
    _simplex_loop,
)
from sepshare.matroids import (
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    _find,
    matroid_from_descriptor,
    virtual_cost,
)
from sepshare.network import Network, Vertex
from sepshare.nsepa import (
    Alternative,
    NsepaTransformResult,
    _optimize,
    _ordered_path,
    _require_path_game,
    build_lp,
    is_two_terminal_sp,
    smallest_tight_alternative,
)
from sepshare.oracle import EnumerationBudget, profiles_iter
from sepshare.protocol import SeparableProtocol
from sepshare.rationals import parse_rational, parse_users
from sepshare.schema import _reading
from sepshare.singlesource import (
    SingleSourceResult,
    _require_single_source,
    expand_and_assign,
    to_tree_profile,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[k]] for k, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = _ONE / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


def _feasible_vertices(rows, rhs, n):
    """All basic feasible points of {A x <= b, x >= 0}."""
    # constraint list: (coeffs, bound) covering A rows and -x_i <= 0
    cons = [(tuple(row), b) for row, b in zip(rows, rhs)]
    for i in range(n):
        unit = [_ZERO] * n
        unit[i] = Fraction(-1)
        cons.append((tuple(unit), _ZERO))
    seen = set()
    out = []
    for picked in combinations(range(len(cons)), n):
        matrix = [cons[k][0] for k in picked]
        vector = [cons[k][1] for k in picked]
        point = solve_square(matrix, vector)
        if point is None:
            continue
        key = tuple(point)
        if key in seen:
            continue
        if all(
            sum(c * x for c, x in zip(coeffs, point)) <= b for coeffs, b in cons
        ):
            seen.add(key)
            out.append(point)
    return out


def vertex_lp(objective, rows, rhs) -> tuple[str, Optional[Fraction]]:
    """Reference LP: maximize c.x over {A x <= b, x >= 0}.

    The region is pointed (inside the nonnegative orthant), so it is
    nonempty exactly when it has a vertex, and a bounded objective attains
    its maximum at one.  Unboundedness is checked on the recession cone
    through the scaled polytope {d >= 0, A d <= 0, sum d <= 1}.
    """
    n = len(objective)
    if n == 0:
        ok = all(b >= 0 for b in rhs)
        return (OPTIMAL, _ZERO) if ok else (INFEASIBLE, None)
    vertices = _feasible_vertices(rows, rhs, n)
    if not vertices:
        return INFEASIBLE, None
    cone_rows = [list(row) for row in rows] + [[_ONE] * n]
    cone_rhs = [_ZERO] * len(rows) + [_ONE]
    best_direction = max(
        sum(c * d for c, d in zip(objective, point))
        for point in _feasible_vertices(cone_rows, cone_rhs, n)
    )
    if best_direction > 0:
        return UNBOUNDED, None
    return OPTIMAL, max(
        sum(c * x for c, x in zip(objective, point)) for point in vertices
    )


def _fm_eliminate(cons: list[tuple[list[Fraction], Fraction]], var: int):
    pos, neg, rest = [], [], []
    for coeffs, b in cons:
        if coeffs[var] > 0:
            pos.append((coeffs, b))
        elif coeffs[var] < 0:
            neg.append((coeffs, b))
        else:
            rest.append((coeffs, b))
    for pc, pb in pos:
        for nc, nb in neg:
            scale_p = _ONE / pc[var]
            scale_n = -_ONE / nc[var]
            coeffs = [
                a * scale_p + c * scale_n for a, c in zip(pc, nc)
            ]
            rest.append((coeffs, pb * scale_p + nb * scale_n))
    return rest


def fourier_motzkin_status(objective, rows, rhs) -> tuple[str, Optional[Fraction]]:
    """Same LP semantics as vertex_lp via variable elimination.

    Adds t <= c.x, eliminates all x, and reads feasibility and the best
    upper bound on t from the surviving one-variable rows.  Exponential;
    use for three variables or fewer.
    """
    n = len(objective)
    cons: list[tuple[list[Fraction], Fraction]] = []
    for row, b in zip(rows, rhs):
        cons.append((list(row) + [_ZERO], Fraction(b)))
    for i in range(n):
        unit = [_ZERO] * (n + 1)
        unit[i] = Fraction(-1)
        cons.append((unit, _ZERO))
    # t - c.x <= 0
    cons.append(([-c for c in objective] + [_ONE], _ZERO))
    for var in range(n):
        cons = _fm_eliminate(cons, var)
    upper = None
    feasible = True
    for coeffs, b in cons:
        a = coeffs[n]
        if a > 0:
            bound = b / a
            upper = bound if upper is None else min(upper, bound)
        elif a == 0 and b < 0:
            feasible = False
    if not feasible:
        return INFEASIBLE, None
    if upper is None:
        return UNBOUNDED, None
    return OPTIMAL, upper


def whole_tableau_solve(lp: LinearProgram) -> Solution:
    """`sepshare.lp.solve` as one two-phase tableau over all of the
    program's rows, so that every pivot visits every row."""
    n = len(lp.objective)
    m = len(lp.rows)
    ncols = n + m  # structural + slack
    rows: list[SparseRow] = []
    rhs: list[Number] = []
    basis: list[int] = []
    artificials: SparseRow = {}  # phase-1 costs: -1 on each artificial column
    for k, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        if b < 0:
            art = ncols + len(artificials)
            artificials[art] = -1
            row = {j: -a for j, a in row}
            row[n + k] = -1
            row[art] = 1
            rhs.append(-b)
            basis.append(art)
        else:
            row = dict(row)
            row[n + k] = 1
            rhs.append(b)
            basis.append(n + k)
        rows.append(row)

    if artificials:
        status, value, _z = _simplex_loop(rows, rhs, basis, artificials)
        if status != OPTIMAL:
            raise InternalInvariant("phase 1 cannot be unbounded")
        if value != 0:
            return Solution(status=INFEASIBLE)
        # Drive leftover (zero-valued) artificials out of the basis.  Every
        # row has its own slack, so [A | I] has full row rank and a basic
        # artificial's row always has a nonzero below the artificials.
        for r in range(m - 1, -1, -1):
            if basis[r] < ncols:
                continue
            pivot_col = min((j for j in rows[r] if j < ncols), default=None)
            if pivot_col is None:
                raise InternalInvariant(f"no pivot column to drive out the artificial of row {r}")
            _pivot(rows, rhs, basis, r, pivot_col)
        for row in rows:
            for j in [j for j in row if j >= ncols]:
                del row[j]

    costs = {j: c for j, c in enumerate(lp.objective) if c}
    status, value, z = _simplex_loop(rows, rhs, basis, costs)
    if status == UNBOUNDED:
        return Solution(status=UNBOUNDED)
    x = [0] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = rhs[r]
    y = [-z.get(n + k, 0) for k in range(m)]
    _certify(lp, x, y, value)
    return Solution(status=OPTIMAL, values=tuple(x), objective_value=value)


def _priced_query_loop(self, basis: frozenset, price, order) -> dict:
    """The query loop over a price callable: the least (price(f),
    order[f], f) among e and the f with basis - e + f a basis."""
    self._check_basis(basis)
    return {e: min((price(f), order[f], f) for f in self.ground if f == e or f not in basis
                   and self.is_independent((basis - {e}) | {f})) for e in basis}


def _priced_uniform(self, basis: frozenset, price, order) -> dict:
    """Uniform: one minimum over the elements outside the basis."""
    self._check_basis(basis)
    return _staying_or(basis, [f for f in self.ground if f not in basis], price, order)


def _priced_partition(self, basis: frozenset, price, order) -> dict:
    """Partition: one minimum per block."""
    # a basis fills every block to its quota, so f must share e's block
    self._check_basis(basis)
    return {e: pick for b in self._blocks
            for e, pick in _staying_or(b & basis, b - basis, price, order).items()}


def _priced_graphic(self, basis: frozenset, price, order) -> dict:
    """Graphic: the non-loop edges outside the basis, sorted, each the
    answer of the unanswered edges of its fundamental cycle."""
    # f exchanges for the edges of its fundamental cycle, the path
    # between its ends in the basis forest (a loop for none).  Taken
    # cheapest first, each f answers the cycle edges still unanswered;
    # `answered` skips the others (Tarjan, JACM 1979).
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
    cheapest = {e: (price(e), order[e], e) for e in basis}
    answered: dict = {}
    for key in sorted((price(f), order[f], f) for f in self.ground
                      if f not in basis and self._edges[f][0] != self._edges[f][1]):
        u, v = (_find(answered, x) for x in self._edges[key[2]])
        while u != v:
            if parent[u][0] < parent[v][0]:
                u, v = v, u
            _depth, x, e = parent[u]
            cheapest[e] = min(cheapest[e], key)
            answered[u] = x
            u = _find(answered, x)
    return cheapest


def _staying_or(part: frozenset, outside: Collection, price, order) -> dict:
    """Each e of a part of a basis to the least of e itself and `outside`,
    every element of which exchanges for every such e."""
    least = [min((price(f), order[f], f) for f in outside)] if part and outside else []
    return {e: min([(price(e), order[e], e), *least]) for e in part}


_PRICED_RULES = {UniformMatroid: _priced_uniform, PartitionMatroid: _priced_partition,
                 GraphicMatroid: _priced_graphic}


def priced_cheapest_exchanges(m, basis: frozenset, price, order) -> dict:
    """Each e of the basis to (price(f), order[f], f) for the least f
    among e and its exchanges, by the price-callable rule of m's kind (the
    query loop for any other subclass)."""
    return _PRICED_RULES.get(type(m), _priced_query_loop)(m, basis, price, order)


def virtual_exchanges(game, profile, i) -> dict:
    """Player i's cheapest virtual exchange from each e of their basis, as
    {e: (value, order, landing resource)}: every element priced as if i
    were alone on it, by the priced cheapest-exchange rules."""
    return priced_cheapest_exchanges(game.spaces[i], profile[i],
                                     lambda f: virtual_cost(game, i, f), game.resource_order)


def first_virtual_violation(game, profile):
    """("delay" or "cover", resource) for the first resource in global
    order whose users break the virtual conditions, delay before cover,
    or None when the virtual conditions hold."""
    exchanges = [virtual_exchanges(game, profile, i) for i in range(game.n)]
    for e in game.resources:
        users = sorted(profile.users(e))
        if not users:
            continue
        vdev = {i: exchanges[i][e][0] for i in users}
        if any(game.delay(i, e) > vdev[i] for i in users):
            return "delay", e
        headroom = sum((vdev[i] - game.delay(i, e) for i in users), _ZERO)
        if game.cost(e, frozenset(users)) > headroom:
            return "cover", e
    return None


def rescan_transform_matroid(game, profile):
    """The matroid rewrite loop with a full rescan after every move.

    Same rules as `transform_matroid`: the first violated resource in
    global order, delay before cover, the first violating (delay) or
    movable (cover) player in id order, and the cheapest virtual exchange.
    Returns the output profile and the tuple of `Step` records.
    """
    current = profile
    moves: list[Step] = []

    def vdev(i, e):
        return virtual_exchanges(game, current, i)[e][0]

    def move_packet(i, e, kind):
        nonlocal current
        value, _order, f = virtual_exchanges(game, current, i)[e]
        assert virtual_cost(game, i, e) > value and f != e
        before = total_cost(game, current)
        current = current.replace(i, (current[i] - {e}) | {f})
        moves.append(Step(kind, i, f, total_cost(game, current) - before, source=e))

    while (hit := first_virtual_violation(game, current)) is not None:
        kind, e = hit
        if kind == "delay":
            i = next(i for i in sorted(current.users(e)) if game.delay(i, e) > vdev(i, e))
            move_packet(i, e, "delay")
            continue
        while True:
            users = sorted(current.users(e))
            headroom = sum((vdev(i, e) - game.delay(i, e) for i in users), _ZERO)
            if game.cost(e, frozenset(users)) <= headroom:
                break
            movable = [i for i in users if virtual_cost(game, i, e) > vdev(i, e)]
            move_packet(movable[0], e, "cover")
    return current, tuple(moves)


def _arcs(net, x, reverse):
    """(neighbour, edge id) of each edge the search may leave x by, read
    from the endpoints alone: every incident edge when undirected, else
    the edges out of x (into x when `reverse`)."""
    for eid, (u, v) in net.endpoints.items():
        if u == x and not (net.directed and reverse):
            yield v, eid
        if v == x and (reverse or not net.directed):
            yield u, eid


def fraction_dijkstra(
    net, start, weight, reverse=False, blocked_vertices=frozenset(), edges=None, stop=None
):
    """`Network.dijkstra` with every distance a Fraction from the start,
    including inside the search: vertex -> (distance, edge ids)."""
    pending = None if stop is None else set(stop)
    result = {}
    heap = [(_ZERO, (net.vindex[start],), (), start)]
    while heap:
        dist, vkey, epath, x = heapq.heappop(heap)
        if x in result:
            continue
        result[x] = (dist, epath)
        if pending is not None:
            pending.discard(x)
            if not pending:
                break
        if x in blocked_vertices and x != start:
            continue
        for nbr, eid in _arcs(net, x, reverse):
            if nbr in result or (edges is not None and eid not in edges):
                continue
            w = weight(eid)
            if w < 0:
                raise InputError(f"negative weight on edge {eid}")
            heapq.heappush(heap, (dist + w, vkey + (net.vindex[nbr],), epath + (eid,), nbr))
    return result


def per_pair_tight_alternative(game, i, ordered_path, share_of, f):
    """`smallest_tight_alternative` with one search per (left node, right
    node) pair, each blocking every other path node."""
    net = game.network
    sp = game.spaces[i]
    if f not in ordered_path:
        raise InputError(f"edge {f} is not on the player's current path")
    region = net.blocks_between(sp.source, sp.terminal)
    nodes = [sp.source]
    for eid in ordered_path:
        nodes.append(net.other_end(eid, nodes[-1]))
    fpos = ordered_path.index(f)

    def weight(eid):
        return game.costs[eid] + game.delay(i, eid)

    allowed = frozenset(region) - frozenset(ordered_path)
    best = None
    for a in range(0, fpos + 1):
        for b in range(fpos + 1, len(nodes)):
            x, y = nodes[a], nodes[b]
            barrier = frozenset(set(nodes) - {x, y})
            hit = net.dijkstra(x, weight, blocked_vertices=barrier, edges=allowed,
                               stop=(y,)).get(y)
            if hit is None:
                continue
            cost, eseq = hit
            substituted = tuple(ordered_path[a:b])
            absorbed = sum((share_of(e) + game.delay(i, e) for e in substituted), _ZERO)
            if cost < absorbed:
                raise InternalInvariant(
                    "detour cheaper than current shares; share vector is not "
                    "an LP-feasible optimum"
                )
            if cost > absorbed:
                continue
            key = (len(substituted), eseq, a, b)
            if best is None or key < best[0]:
                best = (key, Alternative(i, x, y, eseq, substituted, cost))
    if best is None:
        raise NoTightAlternative(f"no tight detour around edge {f} for player {i}")
    return best[1]


def _path_vertices(network: Network, ordered: tuple[int, ...], start: Vertex) -> list[Vertex]:
    out = [start]
    for eid in ordered:
        out.append(network.other_end(eid, out[-1]))
    return out


def discovery_alternatives(game: GameModel, i: int, choice: frozenset) -> list[Alternative]:
    """`alternatives` by discovery: edge-disjoint detour system of player i
    against their current path.

    Discovery walks the path from the source; from each path node a
    BFS into the off-path region finds the next reachable path node, the
    cheapest connecting detour is recorded, and its interior is deleted.
    On series-parallel player subgraphs the stability rows of these
    detours imply the rows of all simple-path deviations.
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
    nodes = _path_vertices(net, ordered, sp.source)
    pos = {v: k for k, v in enumerate(nodes)}

    def weight(eid: int) -> int | Fraction:
        return game.costs[eid] + game.delay(i, eid)

    live_edges = set(region) - set(choice)
    # path nodes and the interiors of detours found so far
    blocked: set[Vertex] = set(nodes)
    found: list[Alternative] = []
    for u in nodes:
        while True:
            hit = _discover(net, u, pos, live_edges, blocked)
            if hit is None:
                break
            v = hit
            path = net.dijkstra(u, weight, blocked_vertices=blocked, edges=live_edges,
                                stop=(v,)).get(v)
            if path is None:
                raise InternalInvariant("discovered node without a connecting path")
            cost, eseq = path
            a, b = sorted((pos[u], pos[v]))
            found.append(
                Alternative(
                    owner=i,
                    frm=nodes[a],
                    to=nodes[b],
                    edges=eseq,
                    substituted=tuple(ordered[a:b]),
                    weight=cost,
                )
            )
            live_edges -= set(eseq)
            blocked.update(_path_vertices(net, eseq, u)[1:-1])
    if len(found) > len(net.edge_ids):
        raise InternalInvariant("more alternatives than edges")
    used = [e for alt in found for e in alt.edges]
    if len(used) != len(set(used)):
        raise InternalInvariant("alternatives are not edge-disjoint")
    # same endpoints mean same substituted subpath, so the cheapest detour's
    # stability row implies the rows of all costlier ones; keep only it
    cheapest: dict[tuple, Alternative] = {}
    for alt in found:
        key = (alt.frm, alt.to)
        if key not in cheapest or alt.weight < cheapest[key].weight:
            cheapest[key] = alt
    return [alt for alt in found if cheapest[(alt.frm, alt.to)] is alt]


def _discover(
    net: Network,
    u: Vertex,
    pos: dict,
    live_edges: set,
    blocked: set,
) -> Optional[Vertex]:
    """Breadth-first search from u through off-path territory, which is
    neither a path node nor in `blocked`; returns the first other path
    node reached, preferring earlier path position on the same layer, or
    None."""
    visited = {u}
    frontier = [u]
    while frontier:
        layer_hits: list[Vertex] = []
        nxt: list[Vertex] = []
        for x in frontier:
            for nbr, eid in net.neighbors(x):
                if eid not in live_edges or nbr in visited or (nbr in blocked and nbr not in pos):
                    continue
                visited.add(nbr)
                if nbr in pos:
                    layer_hits.append(nbr)
                else:
                    nxt.append(nbr)
        if layer_hits:
            layer_hits.sort(key=lambda v: (pos[v], net.vindex[v]))
            return layer_hits[0]
        frontier = nxt
    return None


def full_path_lp(game, profile) -> LinearProgram:
    """The enforceability LP with every stability row written out: capacity
    rows for the used edges, then one row per player and simple path other
    than the player's own, enumerated by `Network.simple_paths`.  Columns
    are the (player, own edge) shares in player and resource order."""
    var_index = {}
    for i in range(game.n):
        for e in sorted(profile[i], key=game.resource_order.__getitem__):
            var_index[(i, e)] = len(var_index)
    nvars = len(var_index)
    rows, rhs = [], []
    for e in game.resources:
        if profile.users(e):
            rows.append([_ONE if f == e else _ZERO for (_j, f) in var_index])
            rhs.append(game.costs[e])
    for i, sp in enumerate(game.spaces):
        own = profile[i]
        for epath in game.network.simple_paths(sp.terminal, sp.source):
            q = frozenset(epath)
            if q == own:
                continue
            row = [_ZERO] * nvars
            bound = _ZERO
            for e in q - own:
                bound += game.costs[e] + game.delay(i, e)
            for e in own - q:
                row[var_index[(i, e)]] = _ONE
                bound -= game.delay(i, e)
            rows.append(row)
            rhs.append(bound)
    return LinearProgram.build([_ONE] * nvars, rows, rhs)


def per_entry_cost_from_json(data) -> Fraction | CostFunction:
    """A fixed cost as its number, or a cost table with every key and value
    parsed in place."""
    if isinstance(data, str):
        return parse_rational(data)
    if isinstance(data, Mapping) and set(data) == {"subadditive_table"}:
        table = {
            parse_users(k): parse_rational(v)
            for k, v in data["subadditive_table"].items()
        }
        return CostFunction(table=table)
    raise InputError(f"unrecognized cost encoding {data!r}")


@_reading("game object")
def per_entry_game_from_json(data) -> GameModel:
    """`game_from_json` for a matroid game, parsing each cost and delay
    string where it stands; the same checks in the same order."""
    players = int(data["players"])
    resources = [int(e) for e in data["resources"]]
    raw_costs = data["costs"]
    costs = {}
    for e in resources:
        key = str(e)
        if key not in raw_costs:
            raise InputError(f"no cost for resource {e}")
        costs[e] = per_entry_cost_from_json(raw_costs[key])
    delays = None
    if "delays" in data and data["delays"] is not None:
        rows = data["delays"]
        if len(rows) != players:
            raise InputError("delays must have one row per player")
        delays = []
        for i, row in enumerate(rows):
            if len(row) != len(resources):
                raise InputError(f"delay row {i} has wrong length")
            delays.append({e: value for e, cell in zip(resources, row)
                           if (value := parse_rational(cell)) != 0})
    spaces = [matroid_from_descriptor(sp["matroid"]) for sp in data["spaces"]]
    return GameModel(players, resources, costs, spaces, delays=delays)


def restart_is_two_terminal_sp(network, s, t, edge_ids) -> bool:
    """`is_two_terminal_sp` as a restart loop: merge every parallel group,
    else contract the first non-terminal vertex of degree 2, and rebuild
    both maps from scratch after each change."""
    edges = {eid: frozenset(network.endpoints[eid]) for eid in set(edge_ids)}
    if s == t:
        return not edges
    if not edges:
        return False
    fresh = count()
    changed = True
    while changed:
        changed = False
        by_ends = {}
        for eid, ends in edges.items():
            by_ends.setdefault(ends, []).append(eid)
        for ends, group in by_ends.items():
            if len(group) > 1:
                for extra in group[1:]:
                    del edges[extra]
                changed = True
        if changed:
            continue
        degree = {}
        for eid, ends in edges.items():
            for v in ends:
                degree.setdefault(v, []).append(eid)
        for v, incident in degree.items():
            if v in (s, t) or len(incident) != 2:
                continue
            e1, e2 = incident
            (a,) = edges[e1] - {v}
            (b,) = edges[e2] - {v}
            if a == b:
                continue
            del edges[e1]
            del edges[e2]
            edges[("sp", next(fresh))] = frozenset((a, b))
            changed = True
            break
    return len(edges) == 1 and next(iter(edges.values())) == frozenset((s, t))


def rescan_nsepa_transform(game, profile) -> NsepaTransformResult:
    """`nsepa_transform` that re-sums the whole profile before and after
    every step for its `cost_delta`, and scans every player for the users
    of an edge.  Same repairs, phases, substitution order and rebate."""
    _require_path_game(game)
    game.validate_profile(profile)
    input_cost = total_cost(game, profile)
    work = [_ordered_path(game, i, profile[i]) for i in range(game.n)]

    def total_of(rows):
        used = {e for row in rows for e in row}
        fixed = sum((game.costs[e] for e in used), _ZERO)
        lag = sum((game.delay(i, e) for i in range(game.n) for e in rows[i]), _ZERO)
        return fixed + lag

    repairs = []
    for i in range(game.n):
        sp: PathSpace = game.spaces[i]
        while True:
            held = frozenset(work[i])

            def reroute_price(e):
                opened = _ZERO if e in held else game.costs[e]
                return opened + game.delay(i, e)

            hit = game.network.shortest_path(sp.source, sp.terminal, reroute_price)
            if hit is None:
                raise InternalInvariant(f"player {i} lost connectivity")
            price, edges = hit
            stay = sum((game.delay(i, e) for e in work[i]), _ZERO)
            if price >= stay:
                break
            before_total = total_of(work)
            work[i] = tuple(edges)
            repairs.append(Step("repair", i, None, total_of(work) - before_total))

    base = Profile([frozenset(row) for row in work])
    inst = build_lp(game, base)
    if inst.not_series_parallel is not None:
        raise inst.not_series_parallel
    report = _optimize(game, base, inst)
    if report.status != OPTIMAL or report.shares is None:
        raise InternalInvariant(f"enforceability LP ended {report.status}")

    paths = list(work)
    shares = {(i, e): v for (i, e), v in report.shares.items()}
    dropped = {i: set() for i in range(game.n)}

    def paid(e):
        return sum(
            (shares.get((i, e), _ZERO) for i in range(game.n) if e in paths[i]), _ZERO
        )

    def unpaid_edges():
        return [
            (i, e)
            for i in range(game.n)
            for e in paths[i]
            if paid(e) < game.costs[e]
        ]

    def private(i):
        return sum((shares.get((i, e), _ZERO) + game.delay(i, e) for e in paths[i]), _ZERO)

    substitutions = []
    phase_bound = len(base.used_resources())
    phases = 0
    while True:
        snapshot = unpaid_edges()
        if not snapshot:
            break
        phases += 1
        if phases > phase_bound:
            raise InternalInvariant(f"more than {phase_bound} phases")
        for i in range(game.n):
            targets = {e for j, e in snapshot if j == i}
            while True:
                mine = [
                    e for e in paths[i] if e in targets and paid(e) < game.costs[e]
                ]
                if not mine:
                    break
                before = private(i)
                f = mine[0]
                if (i, f) not in report.shares:
                    raise InternalInvariant("unpaid edge outside the original path")
                alt = smallest_tight_alternative(
                    game, i, paths[i], lambda e: shares.get((i, e), _ZERO), f
                )
                readopted = set(alt.edges) & dropped[i]
                if readopted:
                    raise InternalInvariant(
                        f"player {i} re-adopted substituted edges {sorted(readopted)}"
                    )
                total_before = total_of(paths)
                old = paths[i]
                a = old.index(alt.substituted[0])
                b = a + len(alt.substituted)
                paths[i] = old[:a] + alt.edges + old[b:]
                for e in alt.substituted:
                    dropped[i].add(e)
                    shares.pop((i, e), None)
                for e in alt.edges:
                    shares[(i, e)] = game.costs[e]
                after = private(i)
                if after != before:
                    raise InternalInvariant(
                        f"private cost of player {i} drifted from {before} to {after}"
                    )
                substitutions.append(
                    Step("substitute", i, f, total_of(paths) - total_before, phase=phases)
                )

    for e in game.resources:
        users = [i for i in range(game.n) if e in paths[i]]
        if not users:
            continue
        excess = paid(e) - game.costs[e]
        if excess < 0:
            raise InternalInvariant(f"edge {e} left unpaid after all phases")
        for i in sorted(users, reverse=True):
            if excess == 0:
                break
            cut = min(shares.get((i, e), _ZERO), excess)
            if cut:
                shares[(i, e)] -= cut
                excess -= cut
        if excess != 0:
            raise InternalInvariant(f"cannot balance overpaid edge {e}")

    out_profile = Profile([frozenset(paths[i]) for i in range(game.n)])
    game.validate_profile(out_profile)
    output_cost = total_cost(game, out_profile)
    if report.enforceable and not repairs:
        if out_profile != profile:
            raise InternalInvariant("enforceable input must pass through unchanged")
    elif not output_cost < input_cost:
        raise InternalInvariant("transform failed to strictly reduce total cost")
    kept = {pair: v for pair, v in shares.items() if v != 0}
    return NsepaTransformResult(
        profile=out_profile,
        protocol=SeparableProtocol(game, out_profile, kept),
        phases=phases,
        input_enforceable=report.enforceable and not repairs,
        lp_value=report.lp_value,
        input_cost=input_cost,
        output_cost=output_cost,
        substitutions=tuple(substitutions),
        repairs=tuple(repairs),
    )


@dataclass(frozen=True)
class _RebuildAuxEdge:
    gpath: tuple
    cost: Fraction


class RebuildAuxiliaryGraph:
    """The bottom-up pricing state that rebuilds what it reads: one full
    search per path vertex, users by a scan over every player, walks and
    path sums per query, and the auxiliary graph per cross-check search.
    Same pricing order, deviations, drops and invariants as
    `AuxiliaryGraph`; `expand_and_assign` reads either."""

    def __init__(self, game, tree_profile) -> None:
        self.game = game
        self.net = game.network
        self.source = _require_single_source(game)
        game.validate_profile(tree_profile)
        self.paths = {}
        for i in range(game.n):
            sp = game.spaces[i]
            order = self.net.order_path_edges(tree_profile[i], frm=sp.terminal, to=self.source)
            if order is None:
                raise InputError(f"choice of player {i} is not a terminal-source path")
            self.paths[i] = order
        self.aux = {}
        self.open_edges = set()
        for items in self.paths.values():
            self.open_edges.update(items)
        self.closed_shares = {}
        self.aux_payer = {}
        self.events = []
        self._check_tree()
        self._build_aux_edges()

    def item_ends(self, item):
        if isinstance(item, tuple) and item and item[0] == "aux":
            return (item[1], item[2])
        return self.net.endpoints[item]

    def item_cost(self, item):
        if isinstance(item, tuple) and item and item[0] == "aux":
            return self.aux[item].cost
        return self.game.costs[item]

    def tree_items(self):
        out = set()
        for items in self.paths.values():
            out.update(items)
        return out

    def tree_cost(self):
        return sum((self.item_cost(it) for it in self.tree_items()), _ZERO)

    def users(self, item):
        return [i for i in range(self.game.n) if item in self.paths[i]]

    def _check_tree(self):
        items = self.tree_items()
        adj = {self.source: []}
        for it in items:
            u, v = self.item_ends(it)
            adj.setdefault(u, []).append((v, it))
            adj.setdefault(v, []).append((u, it))
        depth = {self.source: 0}
        frontier = [self.source]
        while frontier:
            nxt = []
            for x in frontier:
                for y, _it in adj.get(x, ()):
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(depth) != len(items) + 1 or any(v not in depth for v in adj):
            raise InternalInvariant("player paths do not form a tree")
        self.depth = depth

    def _vertex_walk(self, i):
        out = [self.game.spaces[i].terminal]
        for it in self.paths[i]:
            u, v = self.item_ends(it)
            out.append(v if out[-1] == u else u)
        if out[-1] != self.source:
            raise InternalInvariant(f"path of player {i} does not end at the source")
        return out

    def _build_aux_edges(self):
        def weight(eid):
            return self.game.costs[eid]

        trees = {}
        for i in range(self.game.n):
            walk = self._vertex_walk(i)
            for a in range(0, len(walk) - 1):
                deep = walk[a]
                if deep not in trees:
                    trees[deep] = self.net.dijkstra(deep, weight)
                reach = trees[deep]
                for b in range(a + 1, len(walk)):
                    shallow = walk[b]
                    key = ("aux", deep, shallow)
                    if key in self.aux or shallow not in reach:
                        continue
                    cost, eseq = reach[shallow]
                    self.aux[key] = _RebuildAuxEdge(eseq, cost)

    def _working_cost(self, i, item, restored=None):
        if item == restored:
            return self.item_cost(item)
        assigned = self.closed_shares.get(item)
        if assigned is not None:
            return assigned.get(i, self.item_cost(item))
        if isinstance(item, tuple) and item and item[0] == "aux":
            return self.aux[item].cost
        if item in self.open_edges:
            return _ZERO
        return self.item_cost(item)

    def _ghat_best(self, i, restored):
        tree = self.tree_items()
        items = list(tree) + [key for key in self.aux if key not in tree]
        adj = {}
        for it in items:
            u, v = self.item_ends(it)
            adj.setdefault(u, []).append((v, it))
            if not self.net.directed:
                adj.setdefault(v, []).append((u, it))
        start = self.game.spaces[i].terminal
        dist = {start: _ZERO}
        heap = [(_ZERO, 0, start)]
        tick = 0
        while heap:
            d, _k, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            if x == self.source:
                continue
            for y, it in adj.get(x, ()):
                nd = d + self._working_cost(i, it, restored=restored)
                if y not in dist or nd < dist[y]:
                    dist[y] = nd
                    tick += 1
                    heapq.heappush(heap, (nd, tick, y))
        if self.source not in dist:
            raise InternalInvariant("auxiliary graph lost source connectivity")
        return dist[self.source]

    def max_contribution(self, i, e):
        items = self.paths[i]
        walk = self._vertex_walk(i)
        p = items.index(e)
        stay = sum((self._working_cost(i, it, restored=e) for it in items), _ZERO)
        base = stay - self.item_cost(e)
        best = None
        for a in range(0, p + 1):
            prefix = sum((self._working_cost(i, items[j], restored=e) for j in range(a)), _ZERO)
            for b in range(p + 1, len(walk)):
                key = ("aux", walk[a], walk[b])
                aux = self.aux.get(key)
                if aux is None:
                    continue
                tail = sum(
                    (self._working_cost(i, items[j], restored=e) for j in range(b, len(items))),
                    _ZERO,
                )
                rank = (prefix + aux.cost + tail, -a, b)
                if best is None or rank < best[0]:
                    best = (rank, (walk[a], walk[b], key))
        ghat = self._ghat_best(i, restored=e)
        structured = stay if best is None else min(stay, best[0][0])
        if ghat < structured:
            raise InternalInvariant(
                f"unstructured deviation beats the structured ones for player {i}"
            )
        if best is None or stay <= best[0][0]:
            return self.item_cost(e), None
        return best[0][0] - base, best[1]

    def _next_open_edge(self):
        if not self.open_edges:
            return None

        def edge_depth(eid):
            u, v = self.item_ends(eid)
            return max(self.depth[u], self.depth[v])

        return max(self.open_edges, key=lambda eid: (edge_depth(eid), -eid))

    def process_next(self):
        e = self._next_open_edge()
        if e is None:
            return False
        users = self.users(e)
        if not users:
            raise InternalInvariant(f"open edge {e} has no users")
        contrib = {i: self.max_contribution(i, e) for i in users}
        cost = self.item_cost(e)
        if cost <= sum((contrib[i][0] for i in users), _ZERO):
            shares = {}
            remaining = cost
            for i in users:
                take = min(contrib[i][0], remaining)
                shares[i] = take
                remaining -= take
            if remaining != 0:
                raise InternalInvariant(f"edge {e} left unpaid by water-filling")
            self.closed_shares[e] = shares
            self.open_edges.discard(e)
            self.events.append(Step("close", users[0], e, _ZERO))
            return True
        self._drop_edge(e, users, contrib)
        return True

    def _drop_edge(self, e, users, contrib):
        before = self.tree_cost()
        deviation = {}
        for i in users:
            if contrib[i][1] is None:
                raise InternalInvariant("player without deviation vertex on a dropped edge")
            deviation[i] = contrib[i][1]
        walks = {i: self._vertex_walk(i) for i in users}
        positions = {i: self.paths[i].index(e) for i in users}
        dev_vertices = {v for v, _u, _k in deviation.values()}
        highest = {}
        for i in users:
            below = walks[i][: positions[i] + 1]
            options = [a for a, v in enumerate(below) if v in dev_vertices]
            if not options:
                raise InternalInvariant("no deviation vertex on a user's path")
            highest[i] = below[max(options)]
        chosen = sorted(set(highest.values()), key=self.net.vindex.get)
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
                    share_map[j] = _ZERO
            self.closed_shares[key] = share_map
            self.aux_payer[key] = rep
            payers.append(rep)
        self.open_edges.discard(e)
        self.open_edges &= self.tree_items()
        after = self.tree_cost()
        if not after < before:
            raise InternalInvariant("tree replacement failed to reduce tree cost")
        self._check_tree()
        self.events.append(Step("drop", payers[0], e, after - before))

    def run(self):
        guard = 0
        limit = 2 * len(self.net.edge_ids) + len(self.aux) + 10
        while self.process_next():
            guard += 1
            if guard > limit:
                raise InternalInvariant("bottom-up loop failed to terminate")


def rebuild_transform_single_source(game, profile) -> SingleSourceResult:
    """`transform_single_source` over `RebuildAuxiliaryGraph`."""
    game.validate_profile(profile)
    input_cost = total_cost(game, profile)
    state = RebuildAuxiliaryGraph(game, to_tree_profile(game, profile))
    state.run()
    out, shares, repairs = expand_and_assign(state)
    output_cost = total_cost(game, out)
    if output_cost > input_cost:
        raise InternalInvariant("transform increased total cost")
    for it in sorted(state.tree_items(), key=str):
        if not isinstance(it, tuple):
            continue
        payers = [i for i, v in state.closed_shares[it].items() if v != 0]
        expected = [state.aux_payer[it]] if state.aux[it].cost != 0 else []
        if payers != expected:
            raise InternalInvariant(f"auxiliary edge {it} not paid by one player")
    return SingleSourceResult(
        profile=out,
        protocol=SeparableProtocol(game, out, shares),
        input_cost=input_cost,
        output_cost=output_cost,
        repairs=repairs,
        events=tuple(state.events),
    )


@dataclass(frozen=True)
class SeparabilityReport:
    ok: bool
    profiles_checked: int
    counterexample: Optional[tuple] = None  # (resource, users, details)


def verify_separability_bruteforce(
    game: GameModel, protocol: SeparableProtocol, max_profiles: int = 10**5
) -> SeparabilityReport:
    """Exhaustively confirm equal user sets always get equal share vectors.

    Enumerates every profile of the game (raising BudgetExceeded beyond
    `max_profiles` profiles, or strategies for one player) and indexes
    share vectors by (resource, user set); any clash is returned as a
    counterexample.
    """
    budget = EnumerationBudget(max_profiles=max_profiles, max_paths_per_player=max_profiles)
    seen: dict[tuple[int, frozenset], tuple] = {}
    checked = 0
    for profile in profiles_iter(game, budget):
        checked += 1
        for e in game.resources:
            users = profile.users(e)
            if not users:
                continue
            vec = tuple(protocol.cost_share(profile, i, e) for i in sorted(users))
            key = (e, users)
            if key not in seen:
                seen[key] = vec
            elif seen[key] != vec:
                return SeparabilityReport(
                    ok=False,
                    profiles_checked=checked,
                    counterexample=(e, tuple(sorted(users)), (seen[key], vec)),
                )
    return SeparabilityReport(ok=True, profiles_checked=checked)


def private_cost(game: GameModel, protocol, profile: Profile, i: int) -> int | Fraction:
    """Player i's shares under the protocol plus their delays."""
    game.validate_profile(profile)
    out = 0
    for e in profile[i]:
        out += protocol.cost_share(profile, i, e) + game.delay(i, e)
    return out
