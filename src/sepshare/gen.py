"""Seeded random instance generators.

Every generator takes a `random.Random` so identical seeds reproduce
identical instances byte for byte.  Distributions are simple on purpose:
small integer costs, geometric-ish sizes, uniform structure choices.

Families:
  - UFL: facilities with opening costs, clients as rank-1 matroid players,
    connection distances as delays.
  - general matroid games: uniform / partition / graphic bases per player,
    fixed or subadditive-table costs, delays.
  - single-source graph games: random connected graphs, fixed costs.
  - series-parallel games: a chain of parallel bundles, so every
    player pair along the chain induces a two-terminal series-parallel
    subgraph; random delays.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional

from .errors import InputError
from .game import CostFunction, GameModel, PathSpace, Profile
from .matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from .network import Network


def _subadditive_table(rng: random.Random, players: int) -> dict[frozenset, int]:
    """Monotone subadditive set function over all player subsets.

    Two families: concave in cardinality (nonincreasing increments) and
    budget-capped additive min(B, sum of weights)."""
    everyone = range(players)
    if rng.random() < 0.5:
        first = rng.randint(2, 12)
        increments = [first]
        for _ in range(players - 1):
            increments.append(rng.randint(0, increments[-1]))
        table = {}
        for size in range(players + 1):
            for subset in combinations(everyone, size):
                table[frozenset(subset)] = sum(increments[:size])
        return table
    weights = [rng.randint(1, 9) for _ in everyone]
    budget = rng.randint(4, 18)
    return {
        frozenset(sub): min(budget, sum(weights[i] for i in sub))
        for size in range(players + 1)
        for sub in combinations(everyone, size)
    }


def gen_ufl(rng: random.Random, players: int, facilities: int) -> GameModel:
    """Facility location: every client picks exactly one open facility."""
    if facilities < 1:
        raise InputError(f"facilities must be at least 1, not {facilities}")
    resources = list(range(facilities))
    costs = {e: rng.randint(1, 20) for e in resources}
    delays = [{e: d for e in resources if (d := rng.randint(0, 9))} for _ in range(players)]
    spaces = [UniformMatroid(resources, 1) for _ in range(players)]
    return GameModel(
        players=players, resources=resources, costs=costs, spaces=spaces, delays=delays
    )


def gen_matroid(
    rng: random.Random,
    players: Optional[int] = None,
    resources: Optional[int] = None,
) -> GameModel:
    if resources is not None and resources < 1:
        raise InputError(f"resources must be at least 1, not {resources}")
    n = players if players is not None else rng.randint(1, 5)
    m = resources if resources is not None else rng.randint(2, 8)
    ids = list(range(m))
    costs: dict[int, int | CostFunction] = {}
    for e in ids:
        if rng.random() * 3 < 1:
            costs[e] = CostFunction(table=_subadditive_table(rng, n))
        else:
            costs[e] = rng.randint(1, 20)
    spaces = []
    for _ in range(n):
        size = rng.randint(1, m)
        ground = sorted(rng.sample(ids, size))
        kind = rng.choice(("uniform", "partition", "graphic"))
        if kind == "uniform":
            spaces.append(UniformMatroid(ground, rng.randint(1, size)))
        elif kind == "partition":
            cut = sorted(rng.sample(range(1, size), rng.randint(0, min(2, size - 1))) if size > 1 else [])
            bounds = [0, *cut, size]
            blocks = [ground[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
            quotas = [rng.randint(1, len(b)) for b in blocks]
            spaces.append(PartitionMatroid(blocks, quotas))
        else:
            verts = list(range(rng.randint(2, size + 1)))
            edges = {}
            for eid in ground:
                u = rng.choice(verts)
                v = rng.choice([x for x in verts if x != u] or verts)
                edges[eid] = (f"g{u}", f"g{v}")
            spaces.append(GraphicMatroid(edges))
    delays = [{e: d for e in ids if (d := rng.randint(0, 6)) and rng.random() < 0.5}
              for _ in range(n)]
    return GameModel(
        players=n, resources=ids, costs=costs, spaces=spaces, delays=delays
    )


def random_bases_profile(rng: random.Random, game: GameModel) -> Profile:
    """Feasible matroid profile: greedy bases under random element orders."""
    choices = []
    for i in range(game.n):
        oracle = game.spaces[i]
        order = list(oracle.ground)
        rng.shuffle(order)
        choices.append(oracle.greedy(order))
    return Profile(choices)


def gen_tree(
    rng: random.Random,
    vertices: Optional[int] = None,
    players: Optional[int] = None,
) -> tuple[GameModel, Profile]:
    """Random connected single-source instance plus a feasible profile."""
    if vertices is not None and vertices < 2:
        raise InputError(f"vertices must be at least 2, not {vertices}")
    nv = vertices if vertices is not None else rng.randint(3, 10)
    verts = [f"v{k}" for k in range(nv)]
    pairs = []
    for k in range(1, nv):  # spanning tree first, so it is connected
        pairs.append((verts[rng.randrange(k)], verts[k]))
    seen = {frozenset(p) for p in pairs}
    for _ in range(rng.randint(0, nv)):
        u, v = rng.sample(verts, 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v))
    net = Network([(i, u, v) for i, (u, v) in enumerate(pairs)])
    ids = list(range(len(pairs)))
    costs = {e: rng.randint(1, 20) for e in ids}
    n = players if players is not None else rng.randint(1, 4)
    source = verts[0]
    spaces = [
        PathSpace(source=source, terminal=rng.choice(verts)) for _ in range(n)
    ]
    game = GameModel(
        players=n, resources=ids, costs=costs, spaces=spaces, network=net
    )
    choices = []
    for i in range(n):
        weights = {e: rng.randint(1, 30) for e in ids}
        hit = net.shortest_path(spaces[i].terminal, source, lambda e: weights[e])
        choices.append(frozenset(hit[1]))
    return game, Profile(choices)


def gen_sp(
    rng: random.Random,
    players: Optional[int] = None,
    max_edges: int = 12,
) -> tuple[GameModel, Profile]:
    """Chain of parallel bundles of short paths; player pairs sit on chain
    cut vertices, so every induced subgraph is two-terminal series-parallel."""
    if max_edges < 3:
        raise InputError(f"max_edges must be at least 3, not {max_edges}")
    n = players if players is not None else rng.randint(1, 3)
    cuts = ["c0"]
    pairs: list[tuple[str, str]] = []
    fresh = 0
    while len(pairs) < max_edges - 2 and (len(cuts) < 2 or rng.random() * 3 < 2):
        a = cuts[-1]
        b = f"c{len(cuts)}"
        arms = rng.randint(1, 3)
        for _ in range(arms):
            length = rng.randint(1, 2)
            prev = a
            for step in range(length - 1):
                mid = f"m{fresh}"
                fresh += 1
                pairs.append((prev, mid))
                prev = mid
            pairs.append((prev, b))
            if len(pairs) >= max_edges:
                break
        cuts.append(b)
    net = Network([(i, u, v) for i, (u, v) in enumerate(pairs)])
    ids = list(range(len(pairs)))
    costs = {e: rng.randint(1, 20) for e in ids}
    spaces = []
    for _ in range(n):
        a, b = sorted(rng.sample(range(len(cuts)), 2))
        spaces.append(PathSpace(source=cuts[a], terminal=cuts[b]))
    delays = [{e: d for e in ids if (d := rng.randint(0, 5)) and rng.random() * 3 < 1}
              for _ in range(n)]
    game = GameModel(
        players=n,
        resources=ids,
        costs=costs,
        spaces=spaces,
        delays=delays,
        network=net,
    )
    choices = []
    for i in range(n):
        weights = {e: rng.randint(1, 30) for e in ids}
        hit = net.shortest_path(spaces[i].terminal, spaces[i].source, lambda e: weights[e])
        choices.append(frozenset(hit[1]))
    return game, Profile(choices)
