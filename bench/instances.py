"""Seeded instance builders for the four benchmark workloads.

The builders write instance documents in the package's JSON schema
directly and use nothing from `sepshare`, so a change to `sepshare.gen`
cannot change what the benchmark feeds the program.  Each instance draws
from its own `random.Random` keyed by (workload, seed, size class, index);
the same seed always gives byte-identical documents.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

from checker import Matroid, shortest_path

HERE = Path(__file__).resolve().parent


def _r(k: int) -> str:
    return f"{k}/1"


def _path_profile(rng, edges, spaces, cheapest=False):
    """One simple terminal-source path per player: a cheapest one, or one
    that is shortest under random edge weights 1..30."""
    adj: dict = {}
    for e, (u, v, _c) in enumerate(edges):
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    rows = []
    for sp in spaces:
        if cheapest:
            weights = [int(c.split("/")[0]) for _u, _v, c in edges]
        else:
            weights = [rng.randint(1, 30) for _ in edges]
        path = sp["path"]
        rows.append(sorted(shortest_path(adj, path["terminal"], path["source"],
                                         weights.__getitem__)[1]))
    return rows


def ufl(rng, players: int, facilities: int, regions: int) -> dict:
    """Facility location in `regions` equal markets: every client picks one
    facility of its own market (a rank-1 uniform matroid); opening costs
    1..20, connection delays 1..9, random start.  Independent markets keep
    the work of one instance close to its mean."""
    ids = list(range(facilities))
    per = facilities // regions
    markets = [ids[r * per:(r + 1) * per] for r in range(regions)]
    spaces = [{"matroid": {"uniform": {"ground": markets[i % regions], "rank": 1}}}
              for i in range(players)]
    return {
        "players": players,
        "resources": ids,
        "costs": {str(e): _r(rng.randint(1, 20)) for e in ids},
        "delays": [[_r(rng.randint(1, 9)) for _ in ids] for _ in range(players)],
        "spaces": spaces,
        "profile": [[rng.choice(sp["matroid"]["uniform"]["ground"])] for sp in spaces],
    }


def _table(rng, players: int) -> dict:
    """Monotone subadditive cost over every player subset: concave in the
    cardinality, or a budget-capped additive sum."""
    if rng.random() < 0.5:
        steps = [rng.randint(2, 12)]
        for _ in range(players - 1):
            steps.append(rng.randint(0, steps[-1]))
        value = lambda sub: sum(steps[: len(sub)])
    else:
        weights = [rng.randint(1, 9) for _ in range(players)]
        budget = rng.randint(4, 18)
        value = lambda sub: min(budget, sum(weights[i] for i in sub))
    return {
        ",".join(map(str, sub)): _r(value(sub))
        for size in range(1, players + 1)
        for sub in combinations(range(players), size)
    }


_KINDS = ("uniform", "partition", "graphic")


def _matroid(rng, ground: list, kind: str) -> dict:
    if kind == "uniform":
        return {"uniform": {"ground": ground, "rank": rng.randint(1, max(1, len(ground) // 3))}}
    if kind == "partition":
        cuts = sorted(rng.sample(range(1, len(ground)), min(3, len(ground) - 1)))
        bounds = [0, *cuts, len(ground)]
        blocks = [ground[a:b] for a, b in zip(bounds, bounds[1:])]
        return {"partition": {"blocks": blocks,
                              "quotas": [rng.randint(1, max(1, len(b) // 2)) for b in blocks]}}
    verts = [f"g{k}" for k in range(max(2, len(ground) // 2))]
    edges = [list(rng.sample(verts, 2)) for _ in ground]
    return {"graphic": {"ground": ground, "edges": edges}}


def matroid_mixed(rng, players: int, resources: int) -> dict:
    """Uniform, partition and graphic spaces in turn, over random grounds
    of a third to a half of the resources; a third of the resources carry
    a subadditive table over all player subsets, the rest a fixed cost;
    delays 1..6 on about half of the pairs."""
    ids = list(range(resources))
    tables = set(rng.sample(ids, resources // 3))
    costs = {
        str(e): ({"subadditive_table": _table(rng, players)} if e in tables
                 else _r(rng.randint(1, 20)))
        for e in ids
    }
    delays = [[_r(rng.randint(1, 6) if rng.random() < 0.5 else 0) for _ in ids]
              for _ in range(players)]
    spaces = []
    for i in range(players):
        ground = sorted(rng.sample(ids, rng.randint(resources // 3, resources // 2)))
        spaces.append({"matroid": _matroid(rng, ground, _KINDS[i % 3])})
    profile = [sorted(_random_basis(rng, sp["matroid"])) for sp in spaces]
    return {"players": players, "resources": ids, "costs": costs,
            "delays": delays, "spaces": spaces, "profile": profile}


def _random_basis(rng, descriptor: dict) -> list:
    m = Matroid(descriptor)
    order = sorted(m.ground)
    rng.shuffle(order)
    picked: list = []
    for e in order:
        if m.independent(picked + [e]):
            picked.append(e)
    return picked


def tree(rng, sectors: int, layers: int, width: int, players: int) -> dict:
    """Single-source connection game: `sectors` layered graphs of `layers`
    rows of `width` vertices hang from the source v0; every vertex links to
    a random vertex of the row above and, half of the time, by a chord to
    another one; costs 1..20, no delays.  Player i's terminal is a random
    vertex of the last row of sector i mod `sectors`, and the player
    starts on a cheapest path.  Independent sectors keep the work of one
    instance close to its mean.

    Starting from cheapest paths, no auxiliary detour undercuts the edge
    it jumps over, so every edge is closed and none is dropped: the
    transform's drop step returns profiles that are not equilibria on
    some instances, and the workload stays clear of it (the benchmark
    runs one such instance as a fixed, failing operation instead)."""
    edges = []
    last_rows = []
    for s in range(sectors):
        above = ["v0"]
        for k in range(1, layers + 1):
            row = [f"v{s}_{k}_{j}" for j in range(width)]
            for v in row:
                ends = rng.sample(above, min(2, len(above)))
                for u in ends[: 1 + (rng.random() < 0.5)]:
                    edges.append([u, v, _r(rng.randint(1, 20))])
            above = row
        last_rows.append(above)
    spaces = [{"path": {"source": "v0", "terminal": rng.choice(last_rows[i % sectors])}}
              for i in range(players)]
    return _graph_doc(players, edges, spaces, None,
                      _path_profile(rng, edges, spaces, cheapest=True))


def sp_chain(rng, bundles: int, players: int) -> dict:
    """Chain c0 - c1 - ... of parallel bundles, each of three arms of one
    or two edges; costs 1..20; every player joins two cut vertices half
    the chain apart; delays 1..5 on a third of the pairs."""
    edges = []
    fresh = 0
    for k in range(bundles):
        for _ in range(3):
            prev = f"c{k}"
            if rng.random() < 0.5:
                edges.append([prev, f"m{fresh}", _r(rng.randint(1, 20))])
                prev = f"m{fresh}"
                fresh += 1
            edges.append([prev, f"c{k + 1}", _r(rng.randint(1, 20))])
    span = (bundles + 1) // 2
    spaces = []
    for _ in range(players):
        a = rng.randint(0, bundles - span)
        spaces.append({"path": {"source": f"c{a}", "terminal": f"c{a + span}"}})
    delays = [[_r(rng.randint(1, 5) if rng.random() < 1 / 3 else 0) for _ in edges]
              for _ in range(players)]
    return _graph_doc(players, edges, spaces, delays, _path_profile(rng, edges, spaces))


def _graph_doc(players, edges, spaces, delays, profile) -> dict:
    ids = list(range(len(edges)))
    doc = {
        "players": players,
        "resources": ids,
        "costs": {str(e): edges[e][2] for e in ids},
        "spaces": spaces,
        "graph": {"directed": False, "edges": edges},
        "profile": profile,
    }
    if delays is not None:
        doc["delays"] = delays
    return doc


# name -> (CLI arguments, builder, [(size class, builder arguments, count)])
WORKLOADS = {
    "ufl": (["transform-matroid"], ufl,
            [("small", (6, 8, 1), 96), ("medium", (20, 28, 2), 16), ("large", (60, 80, 4), 12)]),
    "matroid-mixed": (["transform-matroid"], matroid_mixed,
                      [("small", (4, 12), 96), ("medium", (7, 30), 16), ("large", (10, 60), 12)]),
    "tree": (["transform-tree"], tree,
             [("small", (1, 3, 5, 4), 64), ("medium", (2, 4, 6, 12), 8),
              ("large", (4, 5, 8, 40), 4)]),
    "sp-chain": (["nsepa", "transform"], sp_chain,
                 [("small", (4, 3), 64), ("medium", (10, 6), 8), ("large", (28, 12), 3)]),
}


# Instances that fail on every run because of a fault in the program; they
# do not depend on the seed, so every round fails the same share of its
# operations.  tree_not_pne.json: after a drop, two players ride one
# auxiliary edge whose stored path runs through a closed tree edge; one
# rider then reaches that edge directly for less (22 -> 20), and
# transform-tree exits 1 with pne_verified false.
FIXED = {"tree": ["tree_not_pne.json"]}


def build(workload: str, seed: int) -> list[tuple[str, str]]:
    """(size class, instance JSON text) for every instance of one run."""
    _argv, builder, classes = WORKLOADS[workload]
    out = []
    for label, args, count in classes:
        for k in range(count):
            rng = random.Random(f"{workload}/{seed}/{label}/{k}")
            out.append((label, json.dumps(builder(rng, *args), sort_keys=True)))
    for name in FIXED.get(workload, ()):
        out.append(("fixed", (HERE / name).read_text().strip()))
    return out
