"""Graph substrate for path-based congestion games.

A `Network` is a multigraph whose edges carry the resource ids of the game;
parallel edges are distinct resources.  Vertices may be arbitrary hashable
labels; their global order is the order of first appearance, and all
tie-breaking (shortest paths, enumeration order) is derived from it so that
every operation in the package is deterministic.

Directed networks orient each edge u -> v.  Players in directed games walk
from their terminal towards the source, so feasibility and shortest-path
queries take an explicit direction.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Collection, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceeded, Disconnected, InputError
from .rationals import exact, shown

Vertex = Hashable
EdgeId = int


class Network:
    """Multigraph with stable vertex order and integer edge ids."""

    def __init__(
        self,
        edges: Iterable[tuple[EdgeId, Vertex, Vertex]],
        directed: bool = False,
        vertices: Sequence[Vertex] = (),
    ) -> None:
        self.directed = directed
        self.endpoints: dict[EdgeId, tuple[Vertex, Vertex]] = {}
        order: list[Vertex] = []
        seen: set[Vertex] = set()
        for v in vertices:
            if v not in seen:
                seen.add(v)
                order.append(v)
        for eid, u, v in edges:
            if eid in self.endpoints:
                raise InputError(f"duplicate edge id {shown(eid)}")
            if u == v:
                raise InputError(f"self-loop on vertex {shown(u)} (edge {shown(eid)})")
            self.endpoints[eid] = (u, v)
            for w in (u, v):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        self.vertices: tuple[Vertex, ...] = tuple(order)
        self.vindex: dict[Vertex, int] = {v: k for k, v in enumerate(order)}
        self.edge_ids: tuple[EdgeId, ...] = tuple(sorted(self.endpoints))
        # undirected edges run both ways, so there `_radj` is `_adj` itself
        self._adj: dict[Vertex, list[tuple[Vertex, EdgeId]]] = {v: [] for v in order}
        self._radj = {v: [] for v in order} if directed else self._adj
        for eid in self.edge_ids:
            u, v = self.endpoints[eid]
            self._adj[u].append((v, eid))
            self._radj[v].append((u, eid))
        key = lambda pair: (self.vindex[pair[0]], pair[1])
        for v in order:
            self._adj[v].sort(key=key)
            if directed:
                self._radj[v].sort(key=key)
        self._blocks: dict[tuple[Vertex, Vertex], frozenset] = {}

    # -- basic queries -------------------------------------------------

    def other_end(self, eid: EdgeId, v: Vertex) -> Vertex:
        u, w = self.endpoints[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise InputError(f"vertex {shown(v)} not an endpoint of edge {eid}")

    def neighbors(self, v: Vertex) -> list[tuple[Vertex, EdgeId]]:
        return self._adj[v]

    # -- shortest paths ------------------------------------------------

    def dijkstra(
        self,
        start: Vertex,
        weight: Callable[[EdgeId], int | Fraction],
        reverse: bool = False,
        blocked_vertices: Collection[Vertex] = frozenset(),
        edges: Optional[Collection[EdgeId]] = None,
        stop: Optional[Collection[Vertex]] = None,
    ) -> dict[Vertex, tuple[int | Fraction, tuple[EdgeId, ...]]]:
        """Single-source shortest paths with exact weights: each reached
        vertex maps to its distance and the edge ids of its path.

        Weights must be exact and nonnegative.  Among equal-cost paths the
        lexicographically smallest vertex-index sequence wins (then smallest
        edge-id sequence), which pins down a unique answer on multigraphs.
        Only edges in `edges` are walked (all edges when None).  Vertices
        in `blocked_vertices` may be reached but never left, so they can
        only be path endpoints; their own entries are the same as in a
        search where they are not blocked.  When `stop` is given, the
        search returns as soon as it has settled every vertex in it, so
        only the entries settled by then are present (each the same as in
        a full search); a stop vertex that cannot be reached leaves the
        search running to the end.  Distances follow `rationals.exact`.
        """
        pending = None if stop is None else set(stop)
        vindex = self.vindex
        adj = self._radj if reverse else self._adj
        push, pop = heapq.heappush, heapq.heappop
        result: dict[Vertex, tuple[int | Fraction, tuple[EdgeId, ...]]] = {}
        heap: list[tuple[int | Fraction, tuple[int, ...], tuple[EdgeId, ...], Vertex]] = [
            (0, (vindex[start],), (), start)
        ]
        while heap:
            dist, vkey, epath, x = pop(heap)
            if x in result:
                continue
            dist = exact(dist)
            result[x] = (dist, epath)
            if pending is not None:
                pending.discard(x)
                if not pending:
                    break
            if x in blocked_vertices and x != start:
                continue
            for nbr, eid in adj[x]:
                if nbr in result or (edges is not None and eid not in edges):
                    continue
                w = weight(eid)
                if w.numerator < 0:
                    raise InputError(f"negative weight on edge {eid}")
                push(heap, (dist + w, vkey + (vindex[nbr],), epath + (eid,), nbr))
        return result

    def shortest_path(
        self,
        frm: Vertex,
        to: Vertex,
        weight: Callable[[EdgeId], int | Fraction],
    ) -> Optional[tuple[int | Fraction, tuple[EdgeId, ...]]]:
        """Cheapest frm -> to path over every edge as (distance, edge ids), or
        None if unreachable: the `to` entry of a `dijkstra` search from frm
        that stops once it settles `to`.

        In directed networks the path follows edge orientation frm -> to.
        """
        return self.dijkstra(frm, weight, stop=(to,)).get(to)

    # -- enumeration ---------------------------------------------------

    def simple_paths(
        self,
        frm: Vertex,
        to: Vertex,
        max_paths: Optional[int] = None,
    ) -> Iterator[tuple[EdgeId, ...]]:
        """All simple frm -> to paths as edge-id tuples, DFS order.
        Raises BudgetExceeded instead of truncating."""
        if frm not in self.vindex or to not in self.vindex:
            raise InputError("endpoint not in network")
        count = 0
        if frm == to:
            yield ()
            return
        # stack holds frames in reverse visit order so pop() walks ascending.
        stack: list[tuple[Vertex, tuple[EdgeId, ...], frozenset]] = [
            (nbr, (eid,), frozenset((frm,))) for nbr, eid in reversed(self.neighbors(frm))
        ]
        while stack:
            x, epath, visited = stack.pop()
            if x == to:
                count += 1
                if max_paths is not None and count > max_paths:
                    raise BudgetExceeded(
                        f"more than {max_paths} simple paths between {shown(frm)} and {shown(to)}"
                    )
                yield epath
                continue
            nvisited = visited | {x}
            for nbr, eid in reversed(self.neighbors(x)):
                if nbr not in nvisited:
                    stack.append((nbr, epath + (eid,), nvisited))

    # -- feasibility ---------------------------------------------------

    def order_path_edges(
        self, edge_ids: Iterable[EdgeId], frm: Vertex, to: Vertex
    ) -> Optional[tuple[EdgeId, ...]]:
        """Order an edge set into the simple frm -> to walk, or None if it
        is not one.  Directed networks walk each edge along its orientation.
        """
        eids = set(edge_ids)
        leaving: dict[Vertex, list[EdgeId]] = {}
        for eid in eids:
            if eid not in self.endpoints:
                raise InputError(f"unknown edge id {shown(eid)}")
            u, v = self.endpoints[eid]
            leaving.setdefault(u, []).append(eid)
            if not self.directed:
                leaving.setdefault(v, []).append(eid)
        if not eids:
            return () if frm == to else None
        walk: list[EdgeId] = []
        seen = {frm}
        x, arrived = frm, None
        while x != to or not walk:
            step = [e for e in leaving.get(x, ()) if e != arrived]
            if len(step) != 1:
                return None
            arrived = step[0]
            x = self.other_end(arrived, x)
            if x in seen:
                return None
            seen.add(x)
            walk.append(arrived)
        return tuple(walk) if len(walk) == len(eids) else None

    # -- structure -----------------------------------------------------

    def blocks_between(self, s: Vertex, t: Vertex) -> frozenset:
        """Edge ids of the union of all simple s-t paths.

        An edge lies on a simple s-t path exactly when it shares a
        biconnected component with a virtual s-t edge (Hopcroft and Tarjan,
        1973).  One iterative lowpoint search of the underlying undirected
        graph from s finds that component: the virtual edge is seen only as
        a back edge from t, and the component is the one closed when the
        child of s whose subtree holds t finishes.  Raises Disconnected when
        no s-t path exists; returns the empty set for s == t.  The network
        does not change, so each (s, t) answer is kept and searched once.
        """
        if s not in self.vindex or t not in self.vindex:
            raise InputError("endpoint not in network")
        if s == t:
            return frozenset()
        if (s, t) in self._blocks:
            return self._blocks[(s, t)]

        def incident(v: Vertex) -> list[tuple[Vertex, EdgeId]]:
            return self._adj[v] + self._radj[v] if self.directed else self._adj[v]

        disc = {s: 0}
        low = {s: 0}
        edges: list[EdgeId] = []
        # frame: (vertex, id of its tree edge, where that edge sits in
        # `edges`, its incidence iterator)
        stack = [(s, None, 0, iter(incident(s)))]
        while stack:
            v, into, mark, it = stack[-1]
            for w, eid in it:
                if eid == into:
                    continue
                if w not in disc:
                    disc[w] = len(disc)
                    low[w] = 0 if w == t else disc[w]
                    stack.append((w, eid, len(edges), iter(incident(w))))
                    edges.append(eid)
                    break
                if disc[w] < disc[v]:
                    edges.append(eid)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    block = edges[mark:]
                    del edges[mark:]
                    if p == s and t in disc:
                        return self._blocks.setdefault((s, t), frozenset(block))
        raise Disconnected(f"no path between {shown(s)} and {shown(t)}")
