"""Base shares, the occupancy case rule, and the three verifiers."""

import random
from fractions import Fraction as F

import pytest

from _helpers import path_game, ufl_game
from _oracles import verify_separability_bruteforce
from sepshare.errors import BudgetExceeded, InputError, InternalInvariant
from sepshare.game import CostFunction, GameModel, Profile
from sepshare.matroids import UniformMatroid
from sepshare.nsepa import counterexample_fixture, is_enforceable
from sepshare.protocol import (
    SeparableProtocol,
    best_response,
    verify_budget_balance,
    verify_pne,
    water_fill,
)


def make_protocol(game, base_choices, shares):
    return SeparableProtocol(game, Profile(base_choices), {k: F(v) for k, v in shares.items()})


class TestBaseShares:
    """The share conditions `SeparableProtocol` checks on construction."""

    def _protocol(self, base, shares):
        return SeparableProtocol(ufl_game([4, 6], players=1), Profile(base), shares)

    def test_share_defaults_to_zero(self):
        proto = self._protocol([{0}], {(0, 0): F(4)})
        assert proto.share(0, 0) == 4
        assert proto.share(0, 1) == 0

    def test_rejects_share_outside_base(self):
        with pytest.raises(InputError, match="resource not in base choice"):
            self._protocol([{0}], {(0, 1): F(1)})
        with pytest.raises(InputError, match="share for unknown player 2"):
            self._protocol([{0}], {(2, 0): F(1)})

    def test_rejects_negative_share(self):
        with pytest.raises(InputError, match="negative share"):
            self._protocol([{0}], {(0, 0): F(-1)})

    @pytest.mark.parametrize("base", [[], [{0}, {0}]], ids=["short", "long"])
    def test_rejects_a_base_of_the_wrong_length(self, base):
        with pytest.raises(InputError, match="base does not match player count"):
            self._protocol(base, {})


class TestCaseRule:
    """The off-base share rule, one case per test."""

    def test_same_users_get_table_shares(self):
        g = ufl_game([10])
        proto = make_protocol(g, [{0}, {0}], {(0, 0): 3, (1, 0): 7})
        p = Profile([{0}, {0}])
        assert proto.cost_share(p, 0, 0) == 3
        assert proto.cost_share(p, 1, 0) == 7

    def test_smallest_joiner_pays_everything(self):
        g = ufl_game([10, 3])
        proto = make_protocol(g, [{0}, {1}], {(0, 0): 10, (1, 1): 3})
        p = Profile([{0}, {0}])  # player 1 joins resource 0
        assert proto.cost_share(p, 1, 0) == 10
        # incumbents are relieved, keeping the resource exactly paid
        assert proto.cost_share(p, 0, 0) == 0
        assert proto.cost_share(p, 1, 1) == 0  # not using it
        paid = sum(proto.cost_share(p, i, 0) for i in range(2))
        assert paid == g.cost(0, p.users(0))

    def test_smallest_remaining_player_pays_on_shrunk_set(self):
        g = ufl_game([10, 3])
        proto = make_protocol(g, [{0}, {0}], {(0, 0): 6, (1, 0): 4})
        p = Profile([{1}, {0}])  # only player 1 left on resource 0
        assert proto.cost_share(p, 1, 0) == 10
        # the leaver became the sole newcomer on resource 1
        assert proto.cost_share(p, 0, 1) == 3

    def test_nonusers_pay_nothing(self):
        g = ufl_game([10])
        proto = make_protocol(g, [{0}, {0}], {(0, 0): 10})
        assert proto.cost_share(Profile([{0}, {0}]), 1, 1) == 0

    def test_set_cost_evaluated_at_profile_occupancy(self):
        table = {
            frozenset({0}): F(6),
            frozenset({1}): F(6),
            frozenset({2}): F(6),
            frozenset({0, 1}): F(8),
            frozenset({0, 2}): F(8),
            frozenset({1, 2}): F(8),
            frozenset({0, 1, 2}): F(9),
        }
        g = GameModel(
            players=3,
            resources=[0, 1],
            costs={0: CostFunction(table=table), 1: 1},
            spaces=[UniformMatroid([0, 1], 1) for _ in range(3)],
        )
        proto = make_protocol(g, [{0}, {1}, {1}], {(0, 0): 6})
        p = Profile([{0}, {0}, {0}])
        # joiners {1, 2}: the smaller one pays the three-user cost
        assert proto.cost_share(p, 1, 0) == 9
        assert proto.cost_share(p, 2, 0) == 0

    def test_share_depends_only_on_occupancy(self):
        g = ufl_game([10, 3, 4], players=3)
        proto = make_protocol(g, [{0}, {0}, {1}], {(0, 0): 6, (1, 0): 4, (2, 1): 3})
        a = Profile([{0}, {0}, {1}])
        b = Profile([{0}, {0}, {2}])  # same users on resource 0
        for i in range(3):
            assert proto.cost_share(a, i, 0) == proto.cost_share(b, i, 0)


class TestWaterFill:
    def test_keys_take_in_their_given_order(self):
        assert list(water_fill(F(7), [("b", F(5)), ("a", F(5))]).items()) == [
            ("b", F(5)), ("a", F(2))]
        assert list(water_fill(F(7), [("a", F(5)), ("b", F(5))]).items()) == [
            ("a", F(5)), ("b", F(2))]

    def test_zero_takes_are_kept(self):
        takes = water_fill(F(3), [(0, F(0)), (1, F(3)), (2, F(4))])
        assert takes == {0: F(0), 1: F(3), 2: F(0)}

    def test_a_leftover_raises(self):
        with pytest.raises(InternalInvariant, match="1/2"):
            water_fill(F(5, 2), [(0, F(1)), (1, F(1))])

    def test_takes_add_up_within_their_caps(self):
        rng = random.Random(2024)
        for _ in range(500):
            caps = [F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
            amount = sum(caps, F(0)) * F(rng.randint(0, 8), 8)
            takes = water_fill(amount, list(enumerate(caps)))
            assert list(takes) == list(range(len(caps)))
            assert sum(takes.values(), F(0)) == amount
            assert all(0 <= takes[k] <= cap for k, cap in enumerate(caps))


class TestBudgetBalance:
    def test_balanced_table_passes(self):
        g = ufl_game([10])
        proto = make_protocol(g, [{0}, {0}], {(0, 0): 3, (1, 0): 7})
        assert verify_budget_balance(g, proto, proto.base).ok

    def test_underpaid_resource_is_reported(self):
        g = ufl_game([10])
        proto = make_protocol(g, [{0}, {0}], {(0, 0): 3, (1, 0): 6})
        report = verify_budget_balance(g, proto, proto.base)
        assert not report.ok
        [violation] = report.violations
        assert violation.resource == 0
        assert violation.paid == 9
        assert violation.cost == 10

    def test_lp_shares_on_counterexample_underpay(self):
        game, opt = counterexample_fixture()
        shares = is_enforceable(game, opt).shares
        proto = SeparableProtocol(game, opt, shares)
        report = verify_budget_balance(game, proto, opt)
        assert not report.ok
        assert all(v.paid < v.cost for v in report.violations)


class TestPne:
    def test_single_player_on_shortest_path(self):
        g = path_game([("s", "a", 1), ("a", "t", 1), ("s", "t", 5)], [("s", "t")])
        proto = make_protocol(g, [{0, 1}], {(0, 0): 1, (0, 1): 1})
        assert verify_pne(g, proto).ok

    def test_non_minimal_base_path_yields_deviation(self):
        g = path_game([("s", "a", 1), ("a", "t", 1), ("s", "t", 5)], [("s", "t")])
        proto = make_protocol(g, [{2}], {(0, 2): 5})
        report = verify_pne(g, proto)
        assert not report.ok
        [dev] = report.deviations
        assert dev.player == 0
        assert dev.current_cost == 5
        assert dev.best_cost == 2
        assert dev.better_choice == frozenset({0, 1})

    def test_joining_charges_full_cost(self):
        # a joiner pays the full facility price, not a split of it
        g = ufl_game([10, 8])
        proto = make_protocol(g, [{0}, {1}], {(0, 0): 10, (1, 1): 8})
        choice, value = best_response(g, proto, 0)
        assert (choice, value) == (frozenset({1}), F(8))
        report = verify_pne(g, proto)
        assert not report.ok
        [dev] = report.deviations
        assert (dev.player, dev.best_cost) == (0, F(8))
        # player 1 is fine: joining facility 0 would cost the full 10
        assert best_response(g, proto, 1) == (frozenset({1}), F(8))


class TestSeparability:
    def test_case_rule_protocol_is_separable(self):
        g = ufl_game([10, 3])
        proto = make_protocol(g, [{0}, {0}], {(0, 0): 6, (1, 0): 4})
        report = verify_separability_bruteforce(g, proto)
        assert report.ok
        assert report.profiles_checked == 4

    def test_rule_reading_foreign_choices_is_caught(self):
        g = ufl_game([10, 3, 4], players=2)

        class Peeking:
            # share on a resource depends on where the other player went
            def cost_share(self, profile, i, e):
                if e not in profile[i]:
                    return F(0)
                return F(max(profile[1 - i] | {0}))

        report = verify_separability_bruteforce(g, Peeking())
        assert not report.ok
        assert report.counterexample is not None

    def test_profile_bound_is_enforced(self):
        g = ufl_game([1, 2, 3], players=4)
        proto = make_protocol(g, [{0}] * 4, {(0, 0): 1})
        with pytest.raises(BudgetExceeded):
            verify_separability_bruteforce(g, proto, max_profiles=10)
