"""Multigraph substrate: shortest paths, enumeration, path feasibility."""

import random
import time
from fractions import Fraction as F

import pytest

from _helpers import path_subsets, stored
from _oracles import _path_vertices, fraction_dijkstra
from sepshare.errors import BudgetExceeded, Disconnected, InputError
from sepshare.network import Network


def w(costs):
    return lambda eid: F(costs[eid])


class TestConstruction:
    def test_vertex_order_is_first_appearance(self):
        net = Network([(0, "b", "a"), (1, "a", "c")], vertices=["z"])
        assert net.vertices == ("z", "b", "a", "c")
        assert net.vindex["b"] == 1

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(InputError):
            Network([(0, "a", "b"), (0, "b", "c")])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            Network([(0, "a", "a")])

    def test_parallel_edges_are_distinct(self):
        net = Network([(0, "a", "b"), (1, "a", "b")])
        assert net.edge_ids == (0, 1)
        assert net.endpoints[0] == net.endpoints[1]


class TestShortestPath:
    def test_basic_path(self):
        net = Network([(0, "s", "a"), (1, "a", "t"), (2, "s", "t")])
        hit = net.shortest_path("s", "t", w({0: 1, 1: 1, 2: 5}))
        assert hit == (2, (0, 1)) and stored(hit[0])
        assert _path_vertices(net, hit[1], "s") == ["s", "a", "t"]

    def test_tie_broken_by_vertex_order(self):
        # two cost-2 routes; the one through the earlier vertex wins
        net = Network([(0, "s", "a"), (1, "a", "t"), (2, "s", "b"), (3, "b", "t")])
        hit = net.shortest_path("s", "t", w({0: 1, 1: 1, 2: 1, 3: 1}))
        assert _path_vertices(net, hit[1], "s") == ["s", "a", "t"]

    def test_parallel_edge_tie_broken_by_edge_id(self):
        net = Network([(0, "s", "t"), (1, "s", "t")])
        assert net.shortest_path("s", "t", w({0: 3, 1: 3}))[1] == (0,)

    def test_unreachable_returns_none(self):
        net = Network([(0, "s", "a")], vertices=["s", "a", "x"])
        assert net.shortest_path("s", "x", w({0: 1})) is None

    def test_directed_orientation_respected(self):
        net = Network([(0, "s", "t"), (1, "t", "s")], directed=True)
        assert net.shortest_path("s", "t", w({0: 4, 1: 1}))[1] == (0,)
        assert net.shortest_path("t", "s", w({0: 4, 1: 1}))[1] == (1,)

    def test_blocked_vertices_are_endpoints_only(self):
        # the barrier vertex may terminate a path but not be crossed
        net = Network([(0, "s", "m"), (1, "m", "t"), (2, "s", "t")])
        tree = net.dijkstra(
            "s", w({0: 1, 1: 1, 2: 9}), blocked_vertices=frozenset({"m"}), stop=("t",)
        )
        assert tree["t"][1] == (2,)

    def test_search_walks_only_the_given_edges(self):
        net = Network([(0, "s", "a"), (1, "a", "t"), (2, "s", "t"), (3, "t", "b")])
        tree = net.dijkstra("s", w({0: 1, 1: 1, 2: 9, 3: 1}), edges={2, 3})
        assert tree == {"s": (0, ()), "t": (9, (2,)), "b": (10, (2, 3))}
        assert all(stored(dist) for dist, _es in tree.values())
        assert [_path_vertices(net, edges, "s") for _dist, edges in tree.values()] == [
            ["s"], ["s", "t"], ["s", "t", "b"]
        ]
        assert net.dijkstra("s", w({0: 1}), edges=(), stop=("a",)).get("a") is None

    def test_negative_weight_rejected(self):
        net = Network([(0, "s", "t")])
        for weight in (F(-1), F(-1, 2)):
            with pytest.raises(InputError):
                net.shortest_path("s", "t", w({0: weight}))

    def test_search_matches_the_all_fraction_search(self):
        """On 2,000 seeded random multigraphs, directed and undirected, the
        search equals one that keeps every distance a Fraction: the same
        entries settled in the same order, every distance an int exactly
        when integral.
        Weights are integral, half-integral or mixed, with zeros and forced
        ties, under blocked vertices, edge subsets, stop sets and reverse."""
        rng = random.Random(2718)
        kinds = (  # integral, half-integral, mixed, tie-forcing
            lambda: F(rng.randint(0, 4)),
            lambda: F(rng.randint(0, 8), 2),
            lambda: F(rng.randint(0, 6), rng.choice((1, 1, 2, 3))),
            lambda: F(rng.randint(0, 1)),
        )
        fractional = 0
        for k in range(2000):
            nv = rng.randint(1, 8)
            names = [f"v{j}" for j in range(nv)]
            edges = [(e, *rng.sample(names, 2)) for e in range(rng.randint(0, 3 * nv))
                     if nv > 1]
            net = Network(edges, directed=rng.random() < 0.4, vertices=names)
            make = kinds[k % len(kinds)]
            costs = {e: make() for e, _u, _v in edges}
            options = {"reverse": rng.random() < 0.5}
            if rng.random() < 0.5:
                options["blocked_vertices"] = frozenset(rng.sample(names, rng.randint(0, nv)))
            if rng.random() < 0.5:
                options["edges"] = set(rng.sample(sorted(costs), rng.randint(0, len(costs))))
            if rng.random() < 0.5:
                options["stop"] = set(rng.sample(names, rng.randint(1, nv)))
            start = rng.choice(names)
            got = net.dijkstra(start, w(costs), **options)
            want = fraction_dijkstra(net, start, w(costs), **options)
            assert list(got.items()) == list(want.items()), k
            assert all(stored(dist) for dist, _es in got.values()), k
            fractional += any(dist.denominator > 1 for dist, _es in got.values())
        assert fractional > 300

    def test_early_exit_gives_the_full_search_entry(self):
        """On seeded random multigraphs with blocked vertices, edge subsets
        and directed edges, a search that stops at its target gives that
        target the entry of a search that settles every vertex."""
        rng = random.Random(5150)
        reached = missed = 0
        for _ in range(400):
            nv = rng.randint(2, 9)
            edges = [(k, *rng.sample(range(nv), 2)) for k in range(rng.randint(1, 3 * nv))]
            net = Network(edges, directed=rng.random() < 0.3, vertices=list(range(nv)))
            costs = {e: rng.randint(0, 5) for e, _u, _v in edges}  # zeros make ties
            blocked = frozenset(rng.sample(range(nv), rng.randint(0, nv // 2)))
            allowed = None
            if rng.random() < 0.5:
                allowed = set(rng.sample(sorted(costs), rng.randint(0, len(costs))))
            s, t = rng.randrange(nv), rng.randrange(nv)
            full = net.dijkstra(s, w(costs), blocked_vertices=blocked, edges=allowed)
            hit = net.dijkstra(s, w(costs), blocked_vertices=blocked, edges=allowed,
                               stop=(t,)).get(t)
            assert hit == full.get(t)
            reached += hit is not None
            missed += hit is None
        assert reached > 100 and missed > 100

    def test_search_stops_at_its_target(self):
        # a line s - t - x0 - ... - x7: the full search prices all 9 edges,
        # the search for t only the one it crosses
        names = ["s", "t"] + [f"x{k}" for k in range(8)]
        net = Network([(k, names[k], names[k + 1]) for k in range(9)])
        priced = []

        def weight(eid):
            priced.append(eid)
            return F(1)

        assert net.shortest_path("s", "t", weight) == (1, (0,))
        assert priced == [0]
        net.dijkstra("s", weight)
        assert len(priced) == 1 + 9

    def test_stop_set_settles_every_stop_vertex_with_the_full_entry(self):
        """A search with a set of stop vertices holds every reachable one,
        and every vertex it settled has the entry of a full search."""
        rng = random.Random(6160)
        early = 0
        for _ in range(400):
            nv = rng.randint(2, 10)
            edges = [(k, *rng.sample(range(nv), 2)) for k in range(rng.randint(1, 3 * nv))]
            net = Network(edges, directed=rng.random() < 0.3, vertices=list(range(nv)))
            costs = {e: rng.randint(0, 5) for e, _u, _v in edges}  # zeros make ties
            blocked = frozenset(rng.sample(range(nv), rng.randint(0, nv // 3)))
            s = rng.randrange(nv)
            stop = set(rng.sample(range(nv), rng.randint(1, nv)))
            full = net.dijkstra(s, w(costs), blocked_vertices=blocked)
            part = net.dijkstra(s, w(costs), blocked_vertices=blocked, stop=stop)
            assert all(full[v] == entry for v, entry in part.items())
            assert stop & full.keys() <= part.keys()
            early += len(part) < len(full)
        assert early > 50


class TestSimplePaths:
    def test_triangle_has_two_paths(self):
        net = Network([(0, "s", "a"), (1, "a", "t"), (2, "s", "t")])
        assert sorted(net.simple_paths("s", "t")) == [(0, 1), (2,)]

    def test_equal_source_and_target_yields_empty_path(self):
        net = Network([(0, "s", "t")])
        assert list(net.simple_paths("s", "s")) == [()]

    def test_budget_raises_instead_of_truncating(self):
        net = Network([(0, "s", "t"), (1, "s", "t"), (2, "s", "t")])
        with pytest.raises(BudgetExceeded):
            list(net.simple_paths("s", "t", max_paths=2))

    def test_reversed_scan_finds_the_same_paths(self):
        """The enumeration is every edge subset that `order_path_edges`
        accepts as an s-t path, each once."""
        net = Network(
            [(0, "s", "a"), (1, "a", "t"), (2, "s", "b"), (3, "b", "t"), (4, "a", "b")]
        )
        found = list(net.simple_paths("s", "t"))
        assert len(found) == len(set(map(frozenset, found))) == 4
        assert set(map(frozenset, found)) == path_subsets(net, "s", "t")


class TestPathEdgeSets:
    def test_valid_and_invalid_sets(self):
        net = Network([(0, "s", "a"), (1, "a", "t"), (2, "s", "t")])

        def is_path(eids, frm, to):
            return net.order_path_edges(eids, frm, to) is not None

        assert is_path({0, 1}, "s", "t")
        assert is_path({2}, "s", "t")
        assert not is_path({0, 2}, "s", "t")  # not a single walk
        assert not is_path({0, 1, 2}, "s", "t")  # cycle
        assert is_path(set(), "s", "s")
        assert not is_path(set(), "s", "t")

    def test_order_path_edges(self):
        net = Network([(0, "s", "a"), (1, "a", "t")])
        assert net.order_path_edges({0, 1}, "t", "s") == (1, 0)
        assert net.order_path_edges({0}, "t", "s") is None
        with pytest.raises(InputError):
            net.order_path_edges({9}, "s", "a")

    def test_directed_sets_must_follow_orientation(self):
        net = Network([(0, "t", "s")], directed=True)
        assert net.order_path_edges({0}, "t", "s") is not None
        assert net.order_path_edges({0}, "s", "t") is None

    def test_order_matches_the_simple_path_with_that_edge_set(self):
        """Differential check on random multigraphs: directed ones, parallel
        edges and negative ids.  Samples are the edge sets of simple paths,
        those sets with one edge dropped or added, and random subsets."""
        rng = random.Random(20261018)
        cases = 0
        for _ in range(3000):
            labels = list(range(rng.randint(1, 6)))
            edges = []
            if len(labels) > 1:
                ids = rng.sample(range(-12, 12), rng.randint(0, 9))
                edges = [(e, *rng.sample(labels, 2)) for e in ids]
            net = Network(edges, directed=rng.random() < 0.4, vertices=labels)
            ids = list(net.edge_ids)
            frm, to = rng.choice(labels), rng.choice(labels)
            by_set = {frozenset(p): p for p in net.simple_paths(frm, to)}
            samples = [set(rng.sample(ids, rng.randint(0, len(ids))))]
            for p in list(by_set)[:3]:
                samples.append(set(p))
                if p:
                    samples.append(set(p) - {rng.choice(sorted(p))})
                if ids:
                    samples.append(set(p) | {rng.choice(ids)})
            for eids in samples:
                cases += 1
                expected = by_set.get(frozenset(eids))
                assert net.order_path_edges(eids, frm, to) == expected, (edges, eids, frm, to)
        assert cases > 10000

    def test_ordering_grows_linearly(self):
        n = 20000
        net = Network([(k, k, k + 1) for k in range(n)])
        t0 = time.perf_counter()
        order = net.order_path_edges(range(n), n, 0)
        assert time.perf_counter() - t0 < 1
        assert order == tuple(reversed(range(n)))


class TestBlocks:
    def test_bridge_separates_blocks(self):
        net = Network(
            [(0, "a", "b"), (1, "b", "c"), (2, "c", "a"), (3, "c", "d")]
        )
        assert net.blocks_between("a", "b") == frozenset({0, 1, 2})
        assert net.blocks_between("c", "d") == frozenset({3})

    def test_blocks_between_collects_the_route(self):
        net = Network(
            [(0, "a", "b"), (1, "b", "c"), (2, "c", "a"), (3, "c", "d"), (4, "d", "e")]
        )
        assert net.blocks_between("a", "d") == frozenset({0, 1, 2, 3})
        assert net.blocks_between("c", "d") == frozenset({3})

    def test_blocks_between_raises_disconnected(self):
        net = Network([(0, "s", "a"), (1, "t", "b")], vertices=["z"])
        with pytest.raises(Disconnected, match="no path between 's' and 't'"):
            net.blocks_between("s", "t")
        with pytest.raises(Disconnected, match="no path between 's' and 'z'"):
            net.blocks_between("s", "z")  # an isolated vertex is in no block

    def test_blocks_between_rejects_an_unknown_endpoint(self):
        with pytest.raises(InputError, match="endpoint not in network"):
            Network([(0, "s", "t")]).blocks_between("s", "z")

    def test_blocks_between_is_the_union_of_simple_paths(self):
        """Differential check on random multigraphs: parallel edges, negative
        and large ids, int and str labels, directed and disconnected ones."""
        rng = random.Random(20240611)
        pairs = 0
        for _ in range(400):
            labels = list(dict.fromkeys(
                rng.choice([k, -k, f"v{k}"]) for k in range(rng.randint(1, 7))
            ))
            edges = []
            if len(labels) > 1:
                ids = rng.sample(range(-20, 20), rng.randint(0, 9))
                edges = [(e, *rng.sample(labels, 2)) for e in ids]
                if edges and rng.random() < 0.5:
                    _, u, v = rng.choice(edges)
                    edges.append((10**9 + len(edges), v, u))
            net = Network(edges, directed=rng.random() < 0.3, vertices=labels)
            twin = Network(edges, vertices=labels)
            for s in net.vertices:
                for t in net.vertices:
                    pairs += 1
                    union = frozenset(e for p in twin.simple_paths(s, t) for e in p)
                    for _asked in range(2):  # the second answer is the kept one
                        if s != t and not union:
                            with pytest.raises(Disconnected):
                                net.blocks_between(s, t)
                        else:
                            assert net.blocks_between(s, t) == union, (edges, s, t)
        assert pairs > 5000

    def test_answers_are_kept_and_raises_repeat(self):
        net = Network([(0, "a", "b"), (1, "b", "c"), (2, "c", "a"), (3, "c", "d")],
                      vertices=["z"])
        first = net.blocks_between("a", "d")
        assert net.blocks_between("a", "d") is first
        for _asked in range(2):
            with pytest.raises(Disconnected):
                net.blocks_between("a", "z")
            with pytest.raises(InputError):
                net.blocks_between("a", "y")
