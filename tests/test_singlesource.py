"""Single-source connection games: tree rebuilding and pricing."""

import random
from fractions import Fraction as F

import pytest

from _helpers import assert_scaled, path_game, scaled_doc, transform_run
from _oracles import rebuild_transform_single_source
from sepshare.errors import InfeasibleProfile, UnsupportedSpace
from sepshare.game import Profile, total_cost
from sepshare.gen import gen_tree
from sepshare.protocol import verify_budget_balance, verify_pne
from sepshare.schema import game_to_json, profile_to_json
from sepshare.singlesource import (
    AuxiliaryGraph,
    to_tree_profile,
    transform_single_source,
)


def drops(res):
    """(dropped edge, first payer, tree-cost change) of each drop step."""
    return [(s.resource, s.player, s.cost_delta) for s in res.events if s.kind == "drop"]


class TestTreeProfile:
    def test_tree_input_is_unchanged(self):
        g = path_game([("s", "a", 2), ("a", "t", 3)], [("s", "t"), ("s", "a")])
        p = Profile([{0, 1}, {0}])
        assert to_tree_profile(g, p) == p

    def test_cycle_loses_its_dearest_edge(self):
        g = path_game(
            [("s", "u", 3), ("u", "v", 4), ("v", "s", 3)], [("s", "u"), ("s", "v")]
        )
        p = Profile([{1, 2}, {1, 0}])  # paths overlap into a 10-cost cycle
        tree = to_tree_profile(g, p)
        assert tree == Profile([{0}, {2}])
        assert total_cost(g, tree) == 6

    def test_single_player_path_is_identical(self):
        g = path_game([("s", "a", 2), ("a", "t", 3), ("s", "t", 9)], [("s", "t")])
        assert to_tree_profile(g, Profile([{0, 1}])) == Profile([{0, 1}])

    def test_unreachable_terminal_raises(self):
        from sepshare.game import GameModel, PathSpace
        from sepshare.network import Network

        net = Network([(0, "s", "a")], vertices=["s", "a", "z"])
        g = GameModel(
            players=1,
            resources=[0],
            costs={0: 1},
            spaces=[PathSpace(source="s", terminal="z")],
            network=net,
        )
        with pytest.raises(InfeasibleProfile):
            to_tree_profile(g, Profile([frozenset()]))

    @pytest.mark.parametrize("choices", [[], [{0}, {0}], [{1}]], ids=["short", "long", "off-path"])
    def test_transform_rejects_an_infeasible_profile(self, choices):
        g = path_game([("s", "a", 2), ("a", "t", 3), ("s", "t", 9)], [("s", "t")])
        with pytest.raises(InfeasibleProfile):
            transform_single_source(g, Profile(choices))


class TestContribution:
    """Willingness-to-pay queries against the working auxiliary graph."""

    def test_chain_without_detours_pays_in_full(self):
        g = path_game([("s", "a", 5), ("a", "b", 3)], [("s", "b")])
        state = AuxiliaryGraph(g, Profile([{0, 1}]))
        delta, deviation = state.max_contribution(0, 1)
        assert (delta, deviation) == (F(3), None)

    def test_cheap_bypass_caps_the_contribution(self):
        g = path_game(
            [("s", "a", 10), ("a", "t", 1), ("a", "s", 4)], [("s", "t")]
        )
        state = AuxiliaryGraph(g, Profile([{0, 1}]))
        delta, deviation = state.max_contribution(0, 0)
        assert delta == 4
        vertex, rejoin, key = deviation
        assert (vertex, rejoin) == ("a", "s")
        assert state.aux[key].cost == 4

    def test_price_tie_prefers_staying(self):
        g = path_game(
            [("s", "a", 10), ("a", "t", 1), ("a", "s", 10)], [("s", "t")]
        )
        state = AuxiliaryGraph(g, Profile([{0, 1}]))
        assert state.max_contribution(0, 0) == (F(10), None)


class TestTransform:
    def test_star_players_pay_their_own_leaves(self):
        g = path_game(
            [("s", "x", 2), ("s", "y", 3), ("s", "z", 4)],
            [("s", "x"), ("s", "y"), ("s", "z")],
        )
        p = Profile([{0}, {1}, {2}])
        res = transform_single_source(g, p)
        assert res.profile == p
        assert sorted(res.protocol.shares.items()) == [
            ((0, 0), F(2)),
            ((1, 1), F(3)),
            ((2, 2), F(4)),
        ]

    def test_capped_trunk_is_dropped_for_private_bypasses(self):
        g = path_game(
            [("s", "m", 10), ("s", "m", 4), ("s", "m", 4)], [("s", "m"), ("s", "m")]
        )
        res = transform_single_source(g, Profile([{0}, {0}]))
        assert res.profile == Profile([{1}, {1}])
        assert (res.input_cost, res.output_cost) == (F(10), F(4))
        assert dict(res.protocol.shares) == {(0, 1): F(4)}
        assert drops(res) == [(0, 0, -6)]  # tree cost 10 -> 4

    def test_dear_bypasses_keep_the_trunk(self):
        g = path_game(
            [("s", "m", 10), ("m", "t1", 1), ("m", "t2", 1), ("t1", "s", 9), ("t2", "s", 9)],
            [("s", "t1"), ("s", "t2")],
        )
        res = transform_single_source(g, Profile([{1, 0}, {2, 0}]))
        assert res.profile == Profile([{0, 1}, {0, 2}])
        assert drops(res) == []
        # trunk shares fill caps in player order: 8 then the remaining 2
        assert dict(res.protocol.shares) == {
            (0, 0): F(8),
            (0, 1): F(1),
            (1, 0): F(2),
            (1, 2): F(1),
        }

    def test_second_player_rides_the_replacement_for_free(self):
        g = path_game(
            [("s", "a", 12), ("a", "t1", 1), ("a", "t2", 1), ("a", "s", 5)],
            [("s", "t1"), ("s", "t2")],
        )
        res = transform_single_source(g, Profile([{1, 0}, {2, 0}]))
        assert res.profile == Profile([{1, 3}, {2, 3}])
        assert (res.input_cost, res.output_cost) == (F(14), F(7))
        # the rider keeps a zero share on the bought bypass
        assert dict(res.protocol.shares) == {
            (0, 1): F(1),
            (0, 3): F(5),
            (1, 2): F(1),
        }
        assert drops(res) == [(0, 0, -7)]  # tree cost 14 -> 7

    def test_shared_expansion_edge_is_paid_once(self):
        g = path_game(
            [
                ("s", "b1", 10),
                ("b1", "t1", 1),
                ("s", "b2", 10),
                ("b2", "t2", 1),
                ("s", "h", 3),
                ("h", "t1", 2),
                ("h", "t2", 2),
            ],
            [("s", "t1"), ("s", "t2")],
        )
        res = transform_single_source(g, Profile([{1, 0}, {3, 2}]))
        assert res.profile == Profile([{4, 5}, {4, 6}])
        assert (res.input_cost, res.output_cost) == (F(22), F(7))
        # both reroutes pass the h-s edge; only the first payer is charged
        assert dict(res.protocol.shares) == {
            (0, 4): F(3),
            (0, 5): F(2),
            (1, 6): F(2),
        }
        assert drops(res) == [(0, 0, -6), (2, 1, -6)]  # tree cost 22 -> 16 -> 10
        assert res.repairs == ()

    def test_each_replacement_strictly_reduces_tree_cost(self):
        g = path_game(
            [
                ("s", "b1", 10),
                ("b1", "t1", 1),
                ("s", "b2", 10),
                ("b2", "t2", 1),
                ("s", "h", 3),
                ("h", "t1", 2),
                ("h", "t2", 2),
            ],
            [("s", "t1"), ("s", "t2")],
        )
        res = transform_single_source(g, Profile([{1, 0}, {3, 2}]))
        deltas = [delta for _e, _i, delta in drops(res)]
        assert len(deltas) == 2 and all(delta < 0 for delta in deltas)

    def test_empty_game_passes_through(self):
        g = path_game([("s", "a", 1)], [])
        res = transform_single_source(g, Profile([]))
        assert res.profile == Profile([])
        assert res.output_cost == 0

    def test_empty_game_on_an_empty_graph_passes_through(self):
        g = path_game([], [])
        res = transform_single_source(g, Profile([]))
        assert (res.profile, res.output_cost, res.events) == (Profile([]), 0, ())
        assert verify_pne(g, res.protocol).ok

    def test_delays_are_rejected(self):
        g = path_game(
            [("s", "a", 1), ("a", "t", 1)], [("s", "t")], delays=[{0: F(1)}]
        )
        with pytest.raises(UnsupportedSpace):
            transform_single_source(g, Profile([{0, 1}]))

    def test_random_instances_end_stable_and_balanced(self):
        rng = random.Random(2025)
        dropped = 0
        for _ in range(60):
            game, profile = gen_tree(rng)
            res = transform_single_source(game, profile)
            assert res.output_cost <= res.input_cost
            assert verify_pne(game, res.protocol).ok
            assert verify_budget_balance(game, res.protocol, res.profile).ok
            deltas = [delta for _e, _i, delta in drops(res)]
            assert all(delta < 0 for delta in deltas)
            dropped += len(deltas)
        assert dropped > 0  # the sample must exercise the drop branch

    def test_kept_depths_match_a_fresh_walk(self, monkeypatch):
        # pricing reads the walks, users, depths and adjacency kept since
        # the last tree check; before every pick each must equal a fresh
        # recomputation from the current paths
        def ends(state, item):
            return item[1:] if isinstance(item, tuple) else state.net.endpoints[item]

        def fresh_walks(state):
            walks = {}
            for i, items in state.paths.items():
                walk = [state.game.spaces[i].terminal]
                for item in items:
                    u, v = ends(state, item)
                    walk.append(v if walk[-1] == u else u)
                walks[i] = walk
            return walks

        def fresh_users(state):
            every = {item for items in state.paths.values() for item in items}
            return {
                item: [i for i in range(state.game.n) if item in state.paths[i]]
                for item in every
            }

        def fresh_depths(state):
            adj = {}
            for items in state.paths.values():
                for item in items:
                    u, v = ends(state, item)
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
            depth, frontier = {state.source: 0}, [state.source]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in adj.get(x, ()):
                        if y not in depth:
                            depth[y] = depth[x] + 1
                            nxt.append(y)
                frontier = nxt
            return depth

        def fresh_arcs(state):
            items = {item for items in state.paths.values() for item in items} | set(state.aux)
            arcs = []
            for item in items:
                u, v = ends(state, item)
                arcs.append((u, v, item))
                if not state.net.directed:
                    arcs.append((v, u, item))
            return sorted(arcs, key=repr)

        def kept_arcs(state):
            return sorted(
                ((x, y, item) for x, out in state.adj.items() for y, item in out), key=repr
            )

        picks = 0
        original = AuxiliaryGraph._next_open_edge

        def next_open_edge(state):
            nonlocal picks
            assert state.walks == fresh_walks(state)
            assert state.users == fresh_users(state)
            assert state.depth == fresh_depths(state)
            assert kept_arcs(state) == fresh_arcs(state)
            picks += 1
            return original(state)

        monkeypatch.setattr(AuxiliaryGraph, "_next_open_edge", next_open_edge)
        rng = random.Random(2026)
        dropped = 0
        for _ in range(100):
            game, profile = gen_tree(rng)
            dropped += len(drops(transform_single_source(game, profile)))
        assert dropped >= 20 and picks > 300

    def test_same_results_as_the_rebuilding_pass(self):
        # every result field and step of the kept-state pass equals the
        # reference that rebuilds walks, users, sums and adjacency per query
        # and runs a full search from every path vertex
        def outcome(transform, game, profile):
            res = transform(game, profile)
            shares = sorted(res.protocol.shares.items())
            return (res.profile, shares, res.input_cost, res.output_cost, res.repairs,
                    res.events)

        seeds = [(s, {"vertices": 16, "players": 4}) for s in range(3000)]
        seeds += [(s, {}) for s in range(1000)]
        dropped = 0
        for seed, sizes in seeds:
            game, profile = gen_tree(random.Random(seed), **sizes)
            got = outcome(transform_single_source, game, profile)
            assert got == outcome(rebuild_transform_single_source, game, profile), seed
            dropped += sum(step.kind == "drop" for step in got[-1])
        assert dropped >= 2000

    @pytest.mark.xfail(strict=True, reason="the pricing pass can end off equilibrium")
    @pytest.mark.parametrize("seed", [324, 568, 1686, 2146, 2415])
    def test_known_non_equilibrium_outputs(self, seed):
        # these seeds end in a profile that a player can leave for less;
        # once the pricing pass is fixed this XPASSes and becomes a plain test
        game, profile = gen_tree(random.Random(seed), vertices=16, players=4)
        res = transform_single_source(game, profile)
        assert verify_pne(game, res.protocol).ok

    def test_directed_instances_work_too(self):
        g = path_game(
            [("a", "s", 3), ("t", "a", 2), ("t", "s", 9)],
            [("s", "t")],
            directed=True,
        )
        res = transform_single_source(g, Profile([{1, 0}]))
        assert res.profile == Profile([{1, 0}])
        assert verify_pne(g, res.protocol).ok


def test_scaled_tree_games_transform_to_scaled_reports(tmp_path):
    """Dividing every edge cost by q divides every cost, cost delta, share
    and repair of the `transform-tree` report and trace by q and leaves the
    rest as it was: the integral games price on ints, the scaled ones on
    Fractions mixed with ints, and a float or a lost denominator in either
    shows as a mismatch or as a failed command."""
    fractional = {3: 0, 7: 0}
    dropped = 0
    for seed in range(300):
        game, profile = gen_tree(random.Random(seed))
        doc = game_to_json(game)
        doc["profile"] = profile_to_json(profile)["profile"]
        code, integral = transform_run(tmp_path, ["transform-tree"], doc)
        assert code in (0, 1) and integral, (seed, code)
        dropped += integral[0]["phases"] > 0
        for q in fractional:
            scaled = transform_run(tmp_path, ["transform-tree"], scaled_doc(doc, q))
            fractional[q] += assert_scaled([code, *integral], [scaled[0], *scaled[1]], q)
    assert dropped > 50 and fractional[3] > 500, (dropped, fractional)
