"""Cost functions, profiles, and the two cost aggregates."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from _helpers import path_game, ufl_game
from _oracles import private_cost
from sepshare.errors import InfeasibleProfile, InputError, InvalidCostOracle
from sepshare.game import (
    CostFunction,
    GameModel,
    PathSpace,
    Profile,
    move_cost,
    total_cost,
)
from sepshare.gen import gen_matroid, gen_sp, gen_ufl, random_bases_profile
from sepshare.matroids import transform_matroid
from sepshare.network import Network
from sepshare.nsepa import counterexample_fixture, is_enforceable
from sepshare.oracle import enumerate_strategies
from sepshare.protocol import SeparableProtocol
from sepshare.rationals import exact, format_rational, parse_rational
from sepshare.schema import game_from_json


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


class TestRationals:
    def test_parse_format_round_trip_examples(self):
        assert parse_rational("3/7") == F(3, 7)
        assert format_rational(F(3, 7)) == "3/7"
        # the denominator is always explicit in serialized form
        assert format_rational(F(5)) == "5/1"
        assert parse_rational("5") == F(5)
        assert parse_rational("-2/4") == F(-1, 2)

    @given(rationals)
    def test_parse_format_round_trip(self, r):
        assert parse_rational(format_rational(r)) == r

    def test_rat_rejects_floats(self):
        with pytest.raises(InputError):
            exact(0.5)

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "a/b", "1.5"):
            with pytest.raises(InputError):
                parse_rational(bad)


class TestCostFunction:
    def test_fixed_cost_ignores_user_set(self):
        cf = CostFunction(fixed=5)
        assert cf.value({0}) == 5
        assert cf.value({0, 1, 2}) == 5
        assert cf.value(set()) == 0

    def test_exactly_one_kind_required(self):
        with pytest.raises(InputError):
            CostFunction(fixed=1, table={frozenset({0}): F(1)})
        with pytest.raises(InputError):
            CostFunction()

    def test_negative_cost_rejected(self):
        with pytest.raises(InputError):
            CostFunction(fixed=-1)

    def test_table_lookup_and_round_trip(self):
        cf = CostFunction(table={frozenset({0}): F(2), frozenset({0, 1}): F(3)})
        assert cf.value({0, 1}) == 3
        assert cf.table == {frozenset({0}): F(2), frozenset({0, 1}): F(3)}
        assert CostFunction(fixed=1).table is None

    def test_monotonicity_checked_on_cached_pairs(self):
        cf = CostFunction(table={frozenset({0}): F(5), frozenset({0, 1}): F(3)})
        cf.value({0})
        with pytest.raises(InvalidCostOracle):
            cf.value({0, 1})

    def test_subadditivity_checked_on_cached_pairs(self):
        table = {frozenset({0}): F(2), frozenset({1}): F(2), frozenset({0, 1}): F(5)}
        cf = CostFunction(table=table)
        cf.value({0})
        cf.value({0, 1})
        with pytest.raises(InvalidCostOracle):
            cf.value({1})

    def test_subadditivity_caught_in_every_query_order(self):
        table = {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 5}
        for order in itertools.permutations(table):
            cf = CostFunction(table=table)
            with pytest.raises(InvalidCostOracle, match="subadditivity violated on"):
                for users in order:
                    cf.value(users)

    def test_verdict_does_not_depend_on_the_query_order(self):
        # every set of a seeded table over three or four players asked in
        # shuffled orders: rejected exactly when some pair of sets breaks
        # monotonicity or subadditivity.  Each table is a capped sum with
        # one entry moved, which breaks it or not.
        rng = random.Random(6161)
        verdicts = Counter()
        for _ in range(300):
            players = rng.choice((3, 4))
            sets = [frozenset(c) for r in range(1, players + 1)
                    for c in itertools.combinations(range(players), r)]
            weight = [rng.choice((1, 2, 3, F(5, 2))) for _ in range(players)]
            cap = rng.randint(2, 8)
            table = {s: min(cap, sum(weight[i] for i in s)) for s in sets}
            table[rng.choice(sets)] += rng.choice((-2, -1, F(-1, 2), F(1, 2), 1, 3))
            if min(table.values()) < 0:
                continue
            bad = any(s <= t and table[s] > table[t] or table[s | t] > table[s] + table[t]
                      for s in sets for t in sets)
            for _shuffle in range(6):
                cf = CostFunction(table=table)
                try:
                    for users in rng.sample(sets, len(sets)):
                        cf.value(users)
                except InvalidCostOracle:
                    assert bad, table
                else:
                    assert not bad, table
            verdicts[bad] += 1
        assert min(verdicts.values()) >= 50, verdicts

    def test_nonzero_empty_set_rejected(self):
        with pytest.raises(InvalidCostOracle):
            CostFunction(table={frozenset(): F(1)})

    @staticmethod
    def _loaded(*tables) -> list:
        """The cost functions of a game document with these JSON tables,
        one resource each, over as many players as the widest key names."""
        players = 1 + max((int(i) for t in tables for k in t for i in k.split(",") if i),
                          default=0)
        uniform = {"uniform": {"ground": list(range(len(tables))), "rank": 1}}
        game = game_from_json({
            "players": players,
            "resources": list(range(len(tables))),
            "costs": {str(e): {"subadditive_table": t} for e, t in enumerate(tables)},
            "spaces": [{"matroid": uniform}] * players,
        })
        return [game.costs[e] for e in range(len(tables))]

    def test_functions_on_one_index_keep_their_own_caches(self):
        good, bad = self._loaded({"0": "2/1", "1": "3/1", "0,1": "4/1"},
                                 {"0": "5/1", "1": "-1/1", "0,1": "3/1"})
        assert good._index is bad._index
        index = dict(good._index)
        assert good.value({0, 1}) == 4
        assert bad.value({0}) == 5
        with pytest.raises(InvalidCostOracle, match=r"monotonicity violated: c\(\[0\]\)=5"):
            bad.value({0, 1})
        with pytest.raises(InvalidCostOracle, match="negative cost -1"):
            bad.value({1})
        assert [good.value(s) for s in ({1}, {0}, {0, 1})] == [3, 2, 4]
        assert good.table == {frozenset({0}): 2, frozenset({1}): 3, frozenset({0, 1}): 4}
        assert good._index == index

    def test_the_table_is_a_new_dict_on_each_call(self):
        built = CostFunction(table={frozenset({0}): 2, frozenset({0, 1}): 3})
        loaded, twin = self._loaded({"0": "2/1", "0,1": "3/1"}, {"0": "2/1", "0,1": "3/1"})
        for cf in (built, loaded):
            table = cf.table
            table[frozenset({0})] = 9
            table[frozenset({1})] = 1
            del table[frozenset({0, 1})]
            assert cf.table == twin.table == {frozenset({0}): 2, frozenset({0, 1}): 3}
            assert cf.value({0}) == 2 and cf.value({0, 1}) == 3
            with pytest.raises(InputError, match=r"no entry for user set \[1\]"):
                cf.value({1})

    def test_hand_built_tables_answer_as_loaded_ones(self):
        # the same seeded entries as a hand-built table and as a JSON table
        # beside a second table in its key order; keys in shuffled id order,
        # some sets listed twice (the later entry wins), some values
        # negative, some tables breaking monotonicity or subadditivity
        rng = random.Random(3030)
        outcomes = Counter()

        def answers(make, queries):
            try:
                cf = make()
            except InputError as ex:
                return [(type(ex).__name__, str(ex))]
            out = [cf.table]
            for users in queries:
                try:
                    out.append(cf.value(users))
                except InputError as ex:
                    out.append((type(ex).__name__, str(ex)))
            return out

        for n in range(200):
            players = rng.randint(1, 4)
            sets = [c for r in range(players + 1)
                    for c in itertools.combinations(range(players), r)]
            picked = sets if rng.random() < 0.7 else rng.sample(sets, rng.randint(1, len(sets)))
            keys = [tuple(rng.sample(c, len(c))) for c in rng.sample(picked, len(picked))]
            twice = rng.sample(keys, rng.randint(0, min(len(keys), 2)))
            keys += [tuple(rng.sample(k, len(k))) for k in twice]
            weights = [rng.choice((1, 2, F(5, 2), 3)) for _ in range(players)]
            cap = rng.randint(2, 6)
            values = [min(cap, sum(weights[i] for i in k)) for k in keys]
            if rng.random() < 0.5:
                values[rng.randrange(len(keys))] = rng.choice((-1, 1, 7, F(7, 3)))
            text = {",".join(map(str, k)): format_rational(v) for k, v in zip(keys, values)}
            queries = rng.sample(sets, len(sets))
            built = answers(lambda: CostFunction(table=dict(zip(keys, values))), queries)
            loaded = answers(lambda: self._loaded(text, dict(text))[0], queries)
            assert built == loaded, n
            outcomes[any(isinstance(a, tuple) for a in built)] += 1
        assert min(outcomes.values()) >= 60, outcomes


class TestProfile:
    def test_occupancy_and_used_resources(self):
        p = Profile([{0, 1}, {1, 2}])
        assert p.users(1) == frozenset({0, 1})
        assert p.users(0) == frozenset({0})
        assert p.users(9) == frozenset()
        assert p.used_resources() == frozenset({0, 1, 2})

    def test_replace_is_persistent(self):
        p = Profile([{0}, {1}])
        q = p.replace(0, {2})
        assert p[0] == frozenset({0})
        assert q[0] == frozenset({2})
        assert q.users(2) == frozenset({0})

    def test_equality_and_hash(self):
        assert Profile([{0}]) == Profile([[0]])
        assert hash(Profile([{0}])) == hash(Profile([{0}]))
        assert Profile([{0}]) != Profile([{1}])

    @pytest.mark.parametrize("family", ["ufl", "matroid", "sp"])
    def test_kept_users_and_move_cost_match_a_fresh_profile(self, family):
        """Along chains of random feasible moves on seeded generated games,
        `move_cost` is the change of `total_cost`, and the users that
        `replace` carries forward are those of a freshly built profile."""
        moves = 0
        for seed in range(40):
            rng = random.Random(seed)
            if family == "sp":
                game, p = gen_sp(rng)
            else:
                game = gen_ufl(rng, 4, 5) if family == "ufl" else gen_matroid(rng)
                p = random_bases_profile(rng, game)
            options = [enumerate_strategies(game, i) for i in range(game.n)]
            for _ in range(15):
                i = rng.randrange(game.n)
                choice = rng.choice(options[i])
                before = total_cost(game, p)  # finds p's users, so `replace` keeps them
                q = p.replace(i, choice)
                fresh = Profile(q.choices)
                assert [q.users(e) for e in (*game.resources, -1)] == [
                    fresh.users(e) for e in (*game.resources, -1)]
                assert move_cost(game, p, i, choice) == total_cost(game, fresh) - before
                moves += choice != p[i]
                p = q
        assert moves > 200


class TestGameModel:
    def test_validation_errors(self):
        with pytest.raises(InputError):
            ufl_game([5]).validate_profile(Profile([{0}]))  # wrong player count
        g = ufl_game([5, 3])
        with pytest.raises(InfeasibleProfile):
            g.validate_profile(Profile([{0}, {0, 1}]))  # not a rank-1 basis
        with pytest.raises(InfeasibleProfile):
            g.validate_profile(Profile([{0}, {7}]))

    def test_path_choice_off_the_network_is_infeasible(self):
        g = GameModel(
            players=1,
            resources=[0, 5],
            costs={0: CostFunction(fixed=1), 5: CostFunction(fixed=1)},
            spaces=[PathSpace(source="s", terminal="t")],
            network=Network([(0, "s", "t")]),
        )
        g.validate_profile(Profile([{0}]))
        with pytest.raises(InfeasibleProfile, match="choice of player 0 is not in their space"):
            g.validate_profile(Profile([{5}]))

    def test_duplicate_resources_rejected(self):
        with pytest.raises(InputError):
            GameModel(
                players=0,
                resources=[0, 0],
                costs={0: CostFunction(fixed=1)},
                spaces=[],
            )

    def test_delays_must_be_nonnegative_and_known(self):
        """One row per player, keyed by resources, with no negative value;
        each breach has its own message."""
        for delays, error in [
            ([{0: F(-1)}], r"negative delay for \(0, 0\)"),
            ([{0: 2, 1: -1}], r"negative delay for \(0, 1\)"),
            ([{0: 2, 1: "-1/2"}], r"negative delay for \(0, 1\)"),
            ([{0: F(1)}, {0: F(1)}], "delays must have one row per player"),
            ([], "delays must have one row per player"),
            ([{3: F(1)}], r"delay for unknown pair \(0, 3\)"),
            ([{0: 1, "x": F(1)}], r"delay for unknown pair \(0, 'x'\)"),
        ]:
            with pytest.raises(InputError, match=f"^{error}$"):
                ufl_game([1, 1], delays=delays, players=1)

    def test_delay_rows_keep_only_nonzero_values(self):
        g = ufl_game([1, 2], delays=[{0: F(0), 1: 3}, {0: "0/4", 1: 0}])
        assert g.delays == ({1: 3}, {}) and (g.delay(0, 0), g.delay(0, 1)) == (0, 3)

    def test_has_delays(self):
        assert not ufl_game([1, 2]).has_delays
        assert not ufl_game([1, 2], delays=[{0: F(0)}, {}]).has_delays
        assert ufl_game([1, 2], delays=[{0: F(2)}, {}]).has_delays


    def test_a_zero_fixed_cost_is_read_off_the_row(self, monkeypatch):
        """A "0/1" fixed cost is an entry of the fixed-cost row, so a join
        prices it at 0 without asking its cost function."""
        uniform = {"matroid": {"uniform": {"ground": [0, 1], "rank": 1}}}
        game = game_from_json({"players": 2, "resources": [0, 1],
                               "costs": {"0": "0/1", "1": "3/1"}, "spaces": [uniform] * 2})
        assert game.fixed == {0: 0, 1: 3}

        def asked(cost_function, users):
            raise AssertionError(f"a fixed cost was asked for {sorted(users)}")

        monkeypatch.setattr(CostFunction, "value", asked)
        p = Profile([{1}, {1}])
        assert [game.join_cost(0, p.users(0), 1), game.fixed_cost(0), game.cost(0, {1})] == [0] * 3
        assert (total_cost(game, p), move_cost(game, p, 0, {0})) == (3, 0)

    @pytest.mark.parametrize("table, error", [
        ({"0": "2/1", "1": "2/1", "0,1": "1/1"}, "monotonicity violated: c([0])=2 > c([0, 1])=1"),
        ({"0": "1/1", "1": "1/1", "0,1": "3/1"}, "subadditivity violated on [0] and [1]"),
    ], ids=["monotonicity", "subadditivity"])
    def test_a_table_among_fixed_costs_fails_at_the_same_query(self, monkeypatch, table, error):
        """A bad table next to fixed costs is asked the same user sets, in
        the same order, as when every fixed cost was asked too, and its
        first bad answer raises the same error."""
        asked = []
        real = CostFunction.value

        def recording(cost_function, users):
            if not cost_function.is_fixed:
                asked.append(sorted(users))
            return real(cost_function, users)

        monkeypatch.setattr(CostFunction, "value", recording)
        uniform = {"matroid": {"uniform": {"ground": [0, 1, 2], "rank": 1}}}
        game = game_from_json({
            "players": 2, "resources": [0, 1, 2], "spaces": [uniform] * 2,
            "costs": {"0": "4/1", "1": {"subadditive_table": table}, "2": "6/1"},
            "delays": [["0/1", "1/1", "3/1"], ["2/1", "0/1", "0/1"]]})
        with pytest.raises(InvalidCostOracle) as caught:
            transform_matroid(game, Profile([{0}, {2}]))
        assert str(caught.value) == error
        assert asked == [[0], [1], [0], [], [0], [0, 1]]


class TestTotalCost:
    def test_zero_player_game_costs_nothing(self):
        g = GameModel(
            players=0, resources=[0], costs={0: CostFunction(fixed=9)}, spaces=[]
        )
        assert total_cost(g, Profile([])) == 0

    def test_single_resource_with_delay(self):
        g = ufl_game([5], delays=[{0: F(2)}], players=1)
        assert total_cost(g, Profile([{0}])) == 7

    def test_shared_resource_counted_once(self):
        g = ufl_game([10, 3])
        assert total_cost(g, Profile([{0}, {0}])) == 10
        assert total_cost(g, Profile([{0}, {1}])) == 13

    def test_counterexample_optimum_costs_346(self):
        game, opt = counterexample_fixture()
        assert total_cost(game, opt) == 346


class TestPrivateCost:
    def _protocol(self, game, base, shares):
        return SeparableProtocol(game, base, shares)

    def test_single_player_pays_cost_plus_delay(self):
        g = ufl_game([5], delays=[{0: F(2)}], players=1)
        base = Profile([{0}])
        proto = self._protocol(g, base, {(0, 0): F(5)})
        assert private_cost(g, proto, base, 0) == 7

    def test_budget_balanced_split(self):
        g = ufl_game([10])
        base = Profile([{0}, {0}])
        proto = self._protocol(g, base, {(0, 0): F(3), (1, 0): F(7)})
        assert private_cost(g, proto, base, 0) == 3
        assert private_cost(g, proto, base, 1) == 7

    def test_counterexample_stable_shares_total_at_most_339(self):
        game, opt = counterexample_fixture()
        report = is_enforceable(game, opt)
        proto = self._protocol(game, opt, report.shares)
        paid = sum(private_cost(game, proto, opt, i) for i in range(game.n))
        assert paid == report.lp_value
        assert paid <= 339

    def test_budget_balance_recovers_total_cost(self):
        # fixed costs: shares summing to each edge cost reproduce the total
        g = path_game([("s", "a", 4), ("a", "t", 6)], [("s", "t"), ("s", "a")])
        base = Profile([{0, 1}, {0}])
        proto = self._protocol(
            g, base, {(0, 0): F(1), (1, 0): F(3), (0, 1): F(6)}
        )
        paid = sum(private_cost(g, proto, base, i) for i in range(2))
        assert paid == total_cost(g, base) == 10
