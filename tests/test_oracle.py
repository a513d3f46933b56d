"""Brute-force reference oracles: enumeration, optimum, enforceability."""

from fractions import Fraction as F

import pytest

from _helpers import path_game, path_subsets, ufl_game
from sepshare.errors import BudgetExceeded, UnsupportedSpace
from sepshare.game import GameModel, PathSpace, Profile
from sepshare.matroids import UniformMatroid, transform_matroid
from sepshare.network import Network
from sepshare.nsepa import counterexample_fixture, nsepa_transform
from sepshare.oracle import (
    EnumerationBudget,
    brute_force_optimum,
    enforcing_protocol,
    enumerate_strategies,
    profiles_iter,
)

TRIANGLE = [("s", "a", 2), ("a", "t", 3), ("s", "t", 9)]


class TestEnumeration:
    def test_rank_one_matroid_lists_singletons_in_ground_order(self):
        g = ufl_game((10, 8), players=1)
        assert enumerate_strategies(g, 0) == [frozenset({0}), frozenset({1})]

    def test_triangle_paths(self):
        g = path_game(TRIANGLE, [("s", "t")])
        out = enumerate_strategies(g, 0)
        assert set(out) == {frozenset({2}), frozenset({0, 1})}
        assert out == enumerate_strategies(g, 0)  # deterministic order

    def test_path_budget_is_enforced(self):
        g = path_game(TRIANGLE, [("s", "t")])
        with pytest.raises(BudgetExceeded):
            enumerate_strategies(g, 0, EnumerationBudget(max_paths_per_player=1))

    def test_fixture_counts_match_an_independent_traversal(self):
        game, _opt = counterexample_fixture()
        counts = []
        for i in range(game.n):
            sp = game.spaces[i]
            fwd = list(game.network.simple_paths(sp.terminal, sp.source))
            assert set(map(frozenset, fwd)) == path_subsets(game.network, sp.terminal, sp.source)
            assert len(enumerate_strategies(game, i)) == len(fwd)
            counts.append(len(fwd))
        assert counts == [5, 13, 5]

    def test_profile_count_is_the_product(self):
        g = path_game(TRIANGLE, [("s", "t"), ("s", "t")])
        profs = list(profiles_iter(g))
        assert len(profs) == 4
        assert len(set(profs)) == 4

    def test_profile_budget_raises_before_yielding(self):
        g = path_game(TRIANGLE, [("s", "t"), ("s", "t")])
        it = profiles_iter(g, EnumerationBudget(max_profiles=3))
        with pytest.raises(BudgetExceeded):
            next(it)


class TestOptimum:
    def test_fixture_optimum_is_unique_at_346(self):
        game, opt = counterexample_fixture()
        res = brute_force_optimum(game)
        assert res.profile == opt
        assert res.cost == F(346)
        assert res.unique

    def test_facility_players_gather_on_the_cheap_one(self):
        g = ufl_game((10, 3))
        res = brute_force_optimum(g)
        assert res.profile == Profile([{1}, {1}])
        assert res.cost == F(3)
        assert res.unique

    def test_parallel_tie_is_not_unique(self):
        g = path_game([("s", "t", 3), ("s", "t", 3)], [("s", "t")])
        res = brute_force_optimum(g)
        assert res.cost == F(3)
        assert not res.unique

    def test_empty_game_costs_nothing(self):
        g = path_game([("s", "t", 1)], [])
        res = brute_force_optimum(g)
        assert (res.profile, res.cost) == (Profile([]), F(0))

    def test_delays_enter_the_objective(self):
        g = path_game(
            [("s", "t", 3), ("s", "t", 4)], [("s", "t")], delays=[{0: F(5)}]
        )
        res = brute_force_optimum(g)
        assert res.profile == Profile([{1}])
        assert res.cost == F(4)


class TestEnforceable:
    def test_fixture_optimum_is_not(self):
        game, opt = counterexample_fixture()
        assert enforcing_protocol(game, opt) is None

    def test_shortest_single_path_is(self):
        g = path_game([("s", "t", 3), ("s", "t", 5)], [("s", "t")])
        assert enforcing_protocol(g, Profile([{0}])) is not None
        assert enforcing_protocol(g, Profile([{1}])) is None

    def test_transform_outputs_always_are(self):
        g = path_game(
            [("c0", "c1", 10), ("c0", "c1", 4)], [("c0", "c1"), ("c0", "c1")]
        )
        res = nsepa_transform(g, Profile([{0}, {0}]))
        assert enforcing_protocol(g, res.profile) is not None

        u = ufl_game((10, 3))
        out = transform_matroid(u, Profile([{0}, {0}]))
        assert enforcing_protocol(u, out.profile) is not None

    def test_mixed_space_kinds_are_rejected(self):
        """A game fixes its one family when it is built, so a game that
        mixes path and matroid spaces is rejected before any check runs."""
        net = Network([(0, "s", "t")])
        with pytest.raises(UnsupportedSpace, match="mixed strategy spaces"):
            GameModel(
                players=2,
                resources=[0],
                costs={0: 1},
                spaces=[
                    PathSpace(source="s", terminal="t"),
                    UniformMatroid([0], 1),
                ],
                network=net,
            )
