"""Independent reference implementations used to pin expected values.

These are deliberately written with different algorithms than the package
(vertex enumeration and Fourier-Motzkin instead of simplex, exhaustive
search instead of greedy structure) so agreement is meaningful.  The
matroid rewrite reference rescans every resource and reprices every
deviation after each move, where the package keeps both up to date.
The tight-detour reference runs one search per pair of path nodes, where
the package runs one per left node.  The full-path LP reference writes one
stability row per enumerated simple path, where the package generates the
rows it needs from best responses.  The reference loader parses every cost
table entry and delay cell where it stands, where the package parses each
distinct string of a document once.  The series-parallel recognition
reference restarts its reduction and rebuilds its parallel-edge and degree
maps after every contraction, where the package runs one worklist over
neighbour sets.  The path-game transform reference re-sums the whole
profile around every step and scans every player for an edge's users,
where the package keeps one per-edge user map and prices each move from
the edges it changes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from typing import Mapping, Optional, Sequence

from sepshare.errors import InputError, InternalInvariant, NoTightAlternative
from sepshare.game import (
    CostFunction,
    GameModel,
    MatroidSpace,
    PathSpace,
    Profile,
    Step,
    total_cost,
)
from sepshare.lp import LinearProgram
from sepshare.matroids import deviation_cost, matroid_from_descriptor, virtual_cost
from sepshare.nsepa import (
    Alternative,
    NsepaTransformResult,
    _fixed_cost,
    _optimize,
    _ordered_path,
    _require_path_game,
    build_lp,
    smallest_tight_alternative,
)
from sepshare.protocol import SeparableProtocol, SharingTable
from sepshare.rationals import parse_rational
from sepshare.schema import _reading, _users_from_key

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
        return deviation_cost(game, current, i, e, virtual=True)[0]

    def first_violation():
        for e in game.resources:
            users = sorted(current.users(e))
            if not users:
                continue
            if any(game.delay(i, e) > vdev(i, e) for i in users):
                return "delay", e
            headroom = sum((vdev(i, e) - game.delay(i, e) for i in users), _ZERO)
            if game.cost(e, frozenset(users)) > headroom:
                return "cover", e
        return None

    def move_packet(i, e, kind):
        nonlocal current
        value, f = deviation_cost(game, current, i, e, virtual=True)
        assert virtual_cost(game, i, e) > value and f != e
        before = total_cost(game, current)
        current = current.replace(i, (current[i] - {e}) | {f})
        moves.append(Step(kind, i, f, total_cost(game, current) - before, source=e))

    while (hit := first_violation()) is not None:
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
        return game.costs[eid].fixed_value + game.delay(i, eid)

    allowed = frozenset(region) - frozenset(ordered_path)
    best = None
    for a in range(0, fpos + 1):
        for b in range(fpos + 1, len(nodes)):
            x, y = nodes[a], nodes[b]
            barrier = frozenset(set(nodes) - {x, y})
            hit = net.shortest_path(x, y, weight, blocked_vertices=barrier, edges=allowed)
            if hit is None:
                continue
            cost, _vseq, eseq = hit
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


def full_path_lp(game, profile) -> LinearProgram:
    """The enforceability LP with every stability row written out: capacity
    rows for the used edges, then one row per player and simple path other
    than the player's own, enumerated by `Network.simple_paths`.  Columns
    are the (player, own edge) shares in player and resource order."""
    var_index = {}
    for i in range(game.n):
        for e in sorted(profile[i], key=game.resource_key):
            var_index[(i, e)] = len(var_index)
    nvars = len(var_index)
    rows, rhs = [], []
    for e in game.resources:
        if profile.users(e):
            rows.append([_ONE if f == e else _ZERO for (_j, f) in var_index])
            rhs.append(game.costs[e].fixed_value)
    for i, sp in enumerate(game.spaces):
        own = profile[i]
        for epath in game.network.simple_paths(sp.terminal, sp.source):
            q = frozenset(epath)
            if q == own:
                continue
            row = [_ZERO] * nvars
            bound = _ZERO
            for e in q - own:
                bound += game.costs[e].fixed_value + game.delay(i, e)
            for e in own - q:
                row[var_index[(i, e)]] = _ONE
                bound -= game.delay(i, e)
            rows.append(row)
            rhs.append(bound)
    return LinearProgram.build([_ONE] * nvars, rows, rhs)


def per_entry_cost_from_json(data) -> CostFunction:
    """A cost function with every table key and value parsed in place."""
    if isinstance(data, str):
        return CostFunction(fixed=parse_rational(data))
    if isinstance(data, Mapping) and set(data) == {"subadditive_table"}:
        table = {
            _users_from_key(k): parse_rational(v)
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
        delays = {}
        for i, row in enumerate(rows):
            if len(row) != len(resources):
                raise InputError(f"delay row {i} has wrong length")
            for e, cell in zip(resources, row):
                value = parse_rational(cell)
                if value != 0:
                    delays[(i, e)] = value
    spaces = [MatroidSpace(matroid_from_descriptor(sp["matroid"])) for sp in data["spaces"]]
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
        fixed = sum((_fixed_cost(game, e) for e in used), _ZERO)
        lag = sum((game.delay(i, e) for i in range(game.n) for e in rows[i]), _ZERO)
        return fixed + lag

    repairs = []
    for i in range(game.n):
        sp: PathSpace = game.spaces[i]
        while True:
            held = frozenset(work[i])

            def reroute_price(e):
                opened = _ZERO if e in held else _fixed_cost(game, e)
                return opened + game.delay(i, e)

            hit = game.network.shortest_path(sp.source, sp.terminal, reroute_price)
            if hit is None:
                raise InternalInvariant(f"player {i} lost connectivity")
            price, _vs, edges = hit
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
            if paid(e) < _fixed_cost(game, e)
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
                    e for e in paths[i] if e in targets and paid(e) < _fixed_cost(game, e)
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
                    shares[(i, e)] = _fixed_cost(game, e)
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
        excess = paid(e) - _fixed_cost(game, e)
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
    table = SharingTable(out_profile, {pair: v for pair, v in shares.items() if v != 0})
    return NsepaTransformResult(
        profile=out_profile,
        protocol=SeparableProtocol(game, table),
        phases=phases,
        input_enforceable=report.enforceable and not repairs,
        lp_value=report.lp_value,
        input_cost=input_cost,
        output_cost=output_cost,
        substitutions=tuple(substitutions),
        repairs=tuple(repairs),
    )
