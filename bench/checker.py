"""Independent checker for the reports of the three transform commands.

It imports nothing from `sepshare`: costs, matroid independence, path
validity and best responses are recomputed here from the instance
document alone, and the report's own `enforceable`, `pne_verified` and
`budget_balanced` flags are never read.

`check(command, instance, report)` returns a list of problems; an empty
list means the report passed.  Checked:

- every output strategy is a basis of the player's matroid, or a simple
  source-terminal path in the instance graph;
- `input_cost` and `output_cost` equal the exact total costs of the input
  and output profiles, and the output costs no more than the input;
- the protocol's base is the output profile, every share is nonnegative,
  sits on a pair (player, resource) of the profile, and the shares of each
  used resource add up to its cost at its user set;
- no player can deviate to a cheaper strategy under the protocol's case
  rule: a kept resource costs the player's share, a joined resource its
  full cost at the joined user set, plus the player's delays (greedy
  min-weight basis or Dijkstra);
- the paper's bounds: matroid moves <= n * m * max-rank, and phases (and
  tree rewrite steps) <= the number of edges the input profile uses.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

_ZERO = Fraction(0)


def rational(text: str) -> Fraction:
    """Strict "p/q" or integer string to Fraction."""
    num, sep, den = text.partition("/")
    return Fraction(int(num), int(den)) if sep else Fraction(int(num))


def shortest_path(adj, start, goal, weight):
    """Dijkstra over `adj` (vertex -> [(neighbour, edge id)]); returns
    (distance, edge list) of a cheapest start-goal path, or None."""
    best = {start: 0}
    back = {}
    heap = [(0, 0, start)]
    tick = 0
    done = set()
    while heap:
        dist, _k, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        if x == goal:
            edges = []
            while x != start:
                x, eid = back[x]
                edges.append(eid)
            return dist, edges[::-1]
        for y, eid in adj.get(x, ()):
            nd = dist + weight(eid)
            if y not in done and (y not in best or nd < best[y]):
                best[y] = nd
                back[y] = (x, eid)
                tick += 1
                heapq.heappush(heap, (nd, tick, y))
    return None


# -- matroids --------------------------------------------------------------


class Matroid:
    """Independence test for the three descriptor kinds of the schema."""

    def __init__(self, descriptor: dict) -> None:
        (kind, body), = descriptor.items()
        self.kind = kind
        if kind == "uniform":
            self.ground = frozenset(body["ground"])
            self.k = int(body["rank"])
        elif kind == "partition":
            self.blocks = [frozenset(b) for b in body["blocks"]]
            self.quotas = [int(q) for q in body["quotas"]]
            self.ground = frozenset().union(*self.blocks)
        elif kind == "graphic":
            self.edges = {int(g): tuple(uv) for g, uv in zip(body["ground"], body["edges"])}
            self.ground = frozenset(self.edges)
        else:
            raise ValueError(f"unknown matroid kind {kind!r}")
        self.rank = len(self.greedy(lambda e: 0))

    def independent(self, subset) -> bool:
        s = set(subset)
        if not s <= self.ground:
            return False
        if self.kind == "uniform":
            return len(s) <= self.k
        if self.kind == "partition":
            return all(len(s & b) <= q for b, q in zip(self.blocks, self.quotas))
        root = {}

        def find(x):
            while root.get(x, x) != x:
                x = root[x]
            return x

        for eid in s:
            a, b = (find(v) for v in self.edges[eid])
            if a == b:
                return False
            root[a] = b
        return True

    def greedy(self, weight) -> frozenset:
        """Minimum-weight basis."""
        picked: list = []
        for e in sorted(self.ground, key=lambda e: (weight(e), e)):
            if self.independent(picked + [e]):
                picked.append(e)
        return frozenset(picked)

    def is_basis(self, subset) -> bool:
        return len(set(subset)) == self.rank and self.independent(subset)


# -- the instance ----------------------------------------------------------


class Instance:
    def __init__(self, doc: dict) -> None:
        self.n = int(doc["players"])
        self.resources = [int(e) for e in doc["resources"]]
        self.fixed = {}
        self.table = {}
        for e in self.resources:
            spec = doc["costs"][str(e)]
            if isinstance(spec, str):
                self.fixed[e] = rational(spec)
            else:
                self.table[e] = {
                    frozenset(int(p) for p in key.split(",") if p): rational(v)
                    for key, v in spec["subadditive_table"].items()
                }
        self.delays = {}
        for i, row in enumerate(doc.get("delays") or []):
            for e, cell in zip(self.resources, row):
                if rational(cell):
                    self.delays[(i, e)] = rational(cell)
        self.spaces = doc["spaces"]
        self.matroids = {
            i: Matroid(sp["matroid"]) for i, sp in enumerate(self.spaces) if "matroid" in sp
        }
        self.adj: dict = {}
        self.ends = {}
        if doc.get("graph"):
            if doc["graph"].get("directed"):
                raise ValueError("directed graphs are not checked")
            for e, (u, v, _c) in zip(self.resources, doc["graph"]["edges"]):
                self.ends[e] = (u, v)
                self.adj.setdefault(u, []).append((v, e))
                self.adj.setdefault(v, []).append((u, e))

    def cost(self, e: int, users) -> Fraction:
        users = frozenset(users)
        if not users:
            return _ZERO
        if e in self.fixed:
            return self.fixed[e]
        return self.table[e][users]

    def delay(self, i: int, e: int) -> Fraction:
        return self.delays.get((i, e), _ZERO)

    def users(self, profile) -> dict:
        out: dict = {}
        for i, choice in enumerate(profile):
            for e in choice:
                out.setdefault(e, set()).add(i)
        return out

    def total_cost(self, profile) -> Fraction:
        users = self.users(profile)
        shared = sum((self.cost(e, u) for e, u in users.items()), _ZERO)
        return shared + sum(
            (self.delay(i, e) for i, choice in enumerate(profile) for e in choice), _ZERO
        )

    def is_simple_path(self, edges, source, terminal) -> bool:
        edges = list(edges)
        if len(set(edges)) != len(edges) or any(e not in self.ends for e in edges):
            return False
        left = set(edges)
        at, seen = source, {source}
        while left:
            step = [e for e in left if at in self.ends[e]]
            if len(step) != 1:
                return False
            e = step[0]
            u, v = self.ends[e]
            at = v if at == u else u
            if at in seen:
                return False
            seen.add(at)
            left.discard(e)
        return at == terminal

    def feasible(self, i: int, choice) -> bool:
        if i in self.matroids:
            return self.matroids[i].is_basis(choice)
        path = self.spaces[i]["path"]
        return self.is_simple_path(choice, path["source"], path["terminal"])

    def best_response(self, i: int, weight) -> Fraction:
        if i in self.matroids:
            return sum((weight(e) for e in self.matroids[i].greedy(weight)), _ZERO)
        path = self.spaces[i]["path"]
        hit = shortest_path(self.adj, path["terminal"], path["source"], weight)
        if hit is None:
            raise ValueError(f"player {i} has no path")
        return hit[0]


# -- the check -------------------------------------------------------------


def check(command: str, instance: dict, report: dict) -> list[str]:
    """Problems found in `report`, the output of `command` on `instance`."""
    inst = Instance(instance)
    problems: list[str] = []
    start = [frozenset(row) for row in instance["profile"]]
    out = [frozenset(int(e) for e in row) for row in report["profile"]]
    if len(out) != inst.n:
        return [f"profile has {len(out)} strategies for {inst.n} players"]
    for i, choice in enumerate(out):
        if not inst.feasible(i, choice):
            problems.append(f"strategy of player {i} is not a basis or simple path")

    input_cost, output_cost = inst.total_cost(start), inst.total_cost(out)
    if rational(report["input_cost"]) != input_cost:
        problems.append(f"input_cost {report['input_cost']} != recomputed {input_cost}")
    if rational(report["output_cost"]) != output_cost:
        problems.append(f"output_cost {report['output_cost']} != recomputed {output_cost}")
    if output_cost > input_cost:
        problems.append(f"output cost {output_cost} exceeds input cost {input_cost}")

    protocol = report["protocol"]
    if [frozenset(row) for row in protocol["base"]] != out:
        problems.append("protocol base differs from the output profile")
    shares: dict = {}
    for row in protocol["shares"]:
        i, e, v = int(row["player"]), int(row["resource"]), rational(row["share"])
        if v < 0:
            problems.append(f"negative share {v} for ({i}, {e})")
        if not (0 <= i < inst.n) or e not in out[i]:
            problems.append(f"share for ({i}, {e}) off the profile")
        if (i, e) in shares:
            problems.append(f"two shares for ({i}, {e})")
        shares[(i, e)] = v
    users = inst.users(out)
    for e, who in users.items():
        paid = sum((shares.get((i, e), _ZERO) for i in who), _ZERO)
        if paid != inst.cost(e, who):
            problems.append(f"resource {e}: shares {paid} != cost {inst.cost(e, who)}")

    for i in range(inst.n):
        def weight(e, i=i):
            if e in out[i]:
                return shares.get((i, e), _ZERO) + inst.delay(i, e)
            return inst.cost(e, users.get(e, set()) | {i}) + inst.delay(i, e)

        current = sum((weight(e) for e in out[i]), _ZERO)
        best = inst.best_response(i, weight)
        if best < current:
            problems.append(f"player {i} can deviate from {current} to {best}")

    used_edges = len(inst.users(start))
    if command == "transform-matroid":
        max_rank = max((m.rank for m in inst.matroids.values()), default=0)
        bound = inst.n * len(inst.resources) * max_rank
        if report["iterations"] > bound:
            problems.append(f"{report['iterations']} moves exceed n*m*max-rank = {bound}")
    elif command == "transform-tree":
        for key in ("phases", "iterations"):
            if report[key] > used_edges:
                problems.append(f"{key} {report[key]} exceed {used_edges} used edges")
    else:
        # repairs reroute players before the phases start, so the edges
        # used at that point are only known to lie in the graph
        bound = used_edges if report["repairs"] == 0 else len(inst.resources)
        if report["phases"] > bound:
            problems.append(f"{report['phases']} phases exceed {bound} edges")
    return problems
