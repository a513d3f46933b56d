"""Matroid oracles, exchange deviations, and the packet-move transform."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from _helpers import assert_scaled, scaled_doc, transform_run, ufl_game
from _oracles import (
    first_virtual_violation,
    priced_cheapest_exchanges,
    rescan_transform_matroid,
)
from sepshare import matroids
from sepshare.errors import (
    InfeasibleProfile,
    InvalidMatroid,
    NotABasis,
    NotEnforceable,
)
from sepshare.game import GameModel, Profile, total_cost
from sepshare.gen import gen_matroid, gen_ufl, random_bases_profile
from sepshare.lp import INFEASIBLE, OPTIMAL, LinearProgram, solve
from sepshare.matroids import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    build_matroid_protocol,
    check_enforceable_matroid,
    deviation_cost,
    matroid_from_descriptor,
    transform_matroid,
    virtual_cost,
)
from sepshare.protocol import SeparableProtocol, verify_budget_balance, verify_pne
from sepshare.schema import game_to_json, profile_to_json


class TestOracles:
    def test_builtin_kinds_satisfy_the_axioms(self):
        UniformMatroid([0, 1, 2, 3], 2).validate_axioms()
        PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2]).validate_axioms()
        GraphicMatroid({0: ("x", "y"), 1: ("y", "z"), 2: ("z", "x")}).validate_axioms()

    def test_rank_and_bases(self):
        tri = GraphicMatroid({0: ("x", "y"), 1: ("y", "z"), 2: ("z", "x")})
        assert tri.rank == 2
        assert sorted(sorted(b) for b in tri.bases()) == [[0, 1], [0, 2], [1, 2]]
        assert tri.is_basis({0, 2})
        assert not tri.is_basis({0})

    def test_hereditary_violation_caught_by_validate_axioms(self):
        class Broken(MatroidOracle):
            def _independent(self, subset):
                return subset in (frozenset(), frozenset({0, 1}))  # no singletons

        with pytest.raises(InvalidMatroid, match="hereditary"):
            Broken([0, 1]).validate_axioms()

    def test_random_builtin_descriptors_satisfy_the_axioms(self):
        # the evidence that the built-in kinds need no per-query axiom check
        rng = random.Random(8080)
        kinds = ("uniform", "partition", "graphic")
        for n in range(300):
            ground = rng.sample(range(20), rng.randint(1, 7))
            kind = kinds[n % 3]
            if kind == "uniform":
                desc = {"uniform": {"ground": ground, "rank": rng.randint(0, len(ground))}}
            elif kind == "partition":
                cuts = sorted(rng.sample(range(1, len(ground)), rng.randint(0, len(ground) - 1)))
                blocks = [ground[a:b] for a, b in zip([0] + cuts, cuts + [len(ground)])]
                quotas = [rng.randint(0, len(b)) for b in blocks]
                desc = {"partition": {"blocks": blocks, "quotas": quotas}}
            else:
                # multigraph on few vertices: loops and parallel edges occur
                edges = [[rng.randint(0, 3), rng.randint(0, 3)] for _ in ground]
                desc = {"graphic": {"ground": ground, "edges": edges}}
            matroid_from_descriptor(desc).validate_axioms()

    def test_descriptor_round_trip(self):
        for m in (
            UniformMatroid([3, 5, 7], 2),
            PartitionMatroid([[0, 1], [4]], [1, 1]),
            GraphicMatroid({2: ("a", "b"), 6: ("b", "c")}),
        ):
            again = matroid_from_descriptor(m.descriptor)
            assert again.ground == m.ground
            assert sorted(again.bases()) == sorted(m.bases())


class QueryLoop(MatroidOracle):
    """The same matroid seen only through its independence queries, so
    that `rank` and the cheapest exchanges come from the base class's
    loop."""

    def __init__(self, inner: MatroidOracle) -> None:
        super().__init__(inner.ground)
        self._independent = inner._independent


def random_descriptor(rng, kind):
    """A built-in descriptor over up to 9 elements: graphic ones have
    loops, parallel edges and several components, partition ones may have
    quota-0 blocks."""
    ground = rng.sample(range(30), rng.randint(1, 9))
    if kind == "uniform":
        return {"uniform": {"ground": ground, "rank": rng.randint(0, len(ground))}}
    if kind == "partition":
        cuts = sorted(rng.sample(range(1, len(ground)), rng.randint(0, len(ground) - 1)))
        blocks = [ground[a:b] for a, b in zip([0] + cuts, cuts + [len(ground)])]
        return {"partition": {"blocks": blocks, "quotas": [rng.randint(0, len(b)) for b in blocks]}}
    edges = [[rng.randint(0, 5), rng.randint(0, 5)] for _ in ground]
    return {"graphic": {"ground": ground, "edges": edges}}


def random_pricing(rng, ground):
    """Prices over `ground` with ties, ints next to halves, and a shuffled
    resource order."""
    price = {f: rng.choice((0, 1, 2, F(1, 2), F(3, 2))) for f in ground}
    shuffled = rng.sample(ground, len(ground))
    return price, {f: k for k, f in enumerate(shuffled)}


def exchange_set(m, basis, e):
    """e and every f with basis - e + f a basis, read off the oracle's
    cheapest exchanges: f is one exactly when pricing f alone at 0 makes
    it e's answer."""
    order = {f: k for k, f in enumerate(m.ground)}
    return sorted(f for f in m.ground if m.cheapest_exchanges(
        basis, m.ranking(lambda g: int(g != f), order))[e][2] == f)


class TestExchanges:
    def test_direct_rules_match_the_query_loop(self):
        # each built-in rule answers like the query loop, and prices each
        # element at most once, and only those that exchange for some e
        rng = random.Random(4711)
        kinds = ("uniform", "partition", "graphic")
        seen = Counter()
        for n in range(450):
            desc = random_descriptor(rng, kinds[n % 3])
            m = matroid_from_descriptor(desc)
            loop = QueryLoop(m)
            assert m.rank == loop.rank, desc
            bases = sorted(loop.bases(), key=sorted)
            assert sorted(m.bases(), key=sorted) == bases, desc
            for basis in rng.sample(bases, min(len(bases), 10)):
                price, order = random_pricing(rng, m.ground)
                priced = []
                ranked = m.ranking(lambda f: priced.append(f) or price[f], order)
                answer = m.cheapest_exchanges(basis, ranked)
                assert answer == loop.cheapest_exchanges(
                    basis, loop.ranking(price.__getitem__, order)), (desc, basis, price, order)
                assert len(priced) == len(set(priced)) <= len(m.ground), (desc, basis)
                exchanging = {f for e in basis for f in m.ground if f == e or f not in basis
                              and loop.is_independent((basis - {e}) | {f})}
                assert set(priced) == exchanging, (desc, basis)
                seen["ties"] += len(set(price.values())) < len(price)
            body = desc.get("graphic") or desc.get("partition") or {}
            ends = [tuple(edge) for edge in body.get("edges", [])]
            seen["loop"] += any(u == v for u, v in ends)
            seen["parallel"] += len(set(map(frozenset, ends))) < len(ends)
            seen["components"] += bool(ends) and m.rank < len({v for e in ends for v in e}) - 1
            seen["quota 0"] += 0 in body.get("quotas", [1])
        assert min(seen.values()) >= 20, seen
        assert seen["ties"] >= 1000, seen

    def test_greedy_takes_the_cheapest_basis(self):
        rng = random.Random(4711)
        kinds = ("uniform", "partition", "graphic")
        for n in range(450):
            desc = random_descriptor(rng, kinds[n % 3])
            m = matroid_from_descriptor(desc)
            loop = QueryLoop(m)
            weight = {e: rng.randint(0, 3) for e in m.ground}
            order = sorted(m.ground, key=lambda e: (weight[e], e))
            cheapest = min(loop.bases(), key=lambda b: (
                sum(weight[e] for e in b), sorted((weight[e], e) for e in b)))
            for oracle in (m, loop):
                assert oracle.greedy(order) == cheapest, desc
                assert len(oracle.greedy(oracle.ground)) == m.rank, desc

    def test_greedy_by_rule_matches_the_query_loop_on_any_order(self):
        # orders that repeat elements and name ids outside the ground
        rng = random.Random(2323)
        kinds = ("uniform", "partition", "graphic")
        for n in range(450):
            desc = random_descriptor(rng, kinds[n % 3])
            m = matroid_from_descriptor(desc)
            loop = QueryLoop(m)
            for _ in range(5):
                order = list(m.ground) + rng.choices(m.ground, k=rng.randint(0, 6))
                order += rng.sample(range(-3, 40), rng.randint(0, 4))
                rng.shuffle(order)
                assert m.greedy(order) == loop.greedy(order), (desc, order)

    def test_rank_one_swaps_freely(self):
        m = UniformMatroid([0, 1], 1)
        assert exchange_set(m, frozenset({0}), 0) == [0, 1]

    def test_triangle_keeps_acyclic_swaps(self):
        tri = GraphicMatroid({0: ("x", "y"), 1: ("y", "z"), 2: ("z", "x")})
        basis = frozenset({0, 1})
        assert exchange_set(tri, basis, 0) == [0, 2]
        assert exchange_set(tri, basis, 1) == [1, 2]

    def test_partition_swaps_stay_in_block(self):
        m = PartitionMatroid([[0, 1], [2]], [1, 1])
        assert exchange_set(m, frozenset({0, 2}), 0) == [0, 1]
        assert exchange_set(m, frozenset({0, 2}), 2) == [2]

    def test_requires_a_basis(self):
        for m in (UniformMatroid([0, 1], 1), QueryLoop(UniformMatroid([0, 1], 1))):
            with pytest.raises(NotABasis):
                m.cheapest_exchanges(frozenset({0, 1}), [(0, 0, 0), (0, 1, 1)])


class TestRankedWalk:
    """Walking a ranking priced and sorted once answers like the
    price-callable rules, which price and pick on every call."""

    def test_matches_the_priced_rules_and_the_query_loop(self):
        rng = random.Random(2929)
        kinds = ("uniform", "partition", "graphic")
        seen = Counter()
        for n in range(600):
            desc = random_descriptor(rng, kinds[n % 3])
            if n % 30 == 0:  # a rank-0 or a full-rank uniform space
                ground = rng.sample(range(30), rng.randint(1, 6))
                desc = {"uniform": {"ground": ground, "rank": rng.choice((0, len(ground)))}}
            m = matroid_from_descriptor(desc)
            loop = QueryLoop(m)
            bases = sorted(m.bases(), key=sorted)
            assert m.loops == loop.loops == set(m.ground).difference(*bases), desc
            for basis in rng.sample(bases, min(len(bases), 8)):
                price = {f: rng.choice((0, 1, 2, F(2), F(1, 2), F(3, 2))) for f in m.ground}
                order = {f: k for k, f in enumerate(rng.sample(m.ground, len(m.ground)))}
                ranked = m.ranking(price.__getitem__, order)
                answers = [m.cheapest_exchanges(basis, ranked),
                           loop.cheapest_exchanges(basis, ranked),
                           priced_cheapest_exchanges(m, basis, price.__getitem__, order),
                           priced_cheapest_exchanges(loop, basis, price.__getitem__, order)]
                typed = [{e: (key, type(key[0])) for e, key in a.items()} for a in answers]
                assert typed[1:] == typed[:1] * 3, (desc, basis, price, order)
                seen["ties"] += len(set(price.values())) < len(price)
            seen["loops"] += bool(m.loops)
            seen["rank 0"] += m.rank == 0
            seen["full rank"] += m.rank == len(m.ground)
            seen["quota 0"] += 0 in desc.get("partition", {}).get("quotas", [1])
        assert min(seen.values()) >= 20, seen

    def test_the_ranking_leaves_out_exactly_the_loops(self):
        g = GraphicMatroid({0: ("x", "x"), 1: ("x", "y"), 2: ("y", "x"), 3: ("z", "z")})
        p = PartitionMatroid([[0, 1], [2], [3, 4]], [1, 0, 2])
        u = UniformMatroid([5, 6], 0)
        price = {f: 7 - f for f in range(7)}
        order = dict.fromkeys(range(7), 0)
        assert g.ranking(price.__getitem__, order) == [(5, 0, 2), (6, 0, 1)]
        assert p.ranking(price.__getitem__, order) == [(3, 0, 4), (4, 0, 3), (6, 0, 1), (7, 0, 0)]
        assert u.ranking(price.__getitem__, order) == []
        assert u.cheapest_exchanges(frozenset(), []) == {}


def _oracle_makers():
    """Five descriptors per built-in kind with at least three bases, each
    built as itself and seen through the query loop."""
    rng = random.Random(99)
    for kind in ("uniform", "partition", "graphic"):
        for n in range(5):
            desc = random_descriptor(rng, kind)
            while len(list(itertools.islice(matroid_from_descriptor(desc).bases(), 3))) < 3:
                desc = random_descriptor(rng, kind)
            yield pytest.param(lambda d=desc: matroid_from_descriptor(d), id=f"{kind}-{n}")
            yield pytest.param(lambda d=desc: QueryLoop(matroid_from_descriptor(d)),
                               id=f"{kind}-{n}-query-loop")


def _ask(m, basis, seed=0):
    """The oracle's cheapest exchanges for `basis` under seeded prices."""
    price, order = random_pricing(random.Random(seed), m.ground)
    return m.cheapest_exchanges(basis, m.ranking(price.__getitem__, order))


@pytest.mark.parametrize("make", list(_oracle_makers()))
class TestKeptTable:
    """An oracle keeps nothing from one basis to the next: every answer is
    the one a fresh oracle gives, and it names the basis elements only."""

    def test_interleaved_bases_answer_like_a_fresh_oracle(self, make):
        m = make()
        bases = sorted(m.bases(), key=sorted)
        rng = random.Random(len(bases))
        for n in range(30):
            basis = rng.choice(bases)
            assert _ask(m, basis, n) == _ask(make(), basis, n)

    def test_a_non_basis_after_a_kept_basis_raises(self, make):
        m = make()
        basis = next(m.bases())
        e = min(basis)
        _ask(m, basis)
        for other in (basis - {e}, basis | {max(m.ground) + 1}):
            with pytest.raises(NotABasis):
                _ask(m, other)
            assert _ask(m, basis) == _ask(make(), basis)

    def test_an_element_outside_a_kept_basis_raises(self, make):
        m = make()
        basis = next(m.bases())
        answer = _ask(m, basis)
        assert set(answer) == basis
        for e in [f for f in m.ground if f not in basis] + [max(m.ground) + 1]:
            with pytest.raises(KeyError):
                answer[e]

    def test_the_answers_are_immutable(self, make):
        # an answer is the caller's own: changing it changes no later one
        m = make()
        basis = next(m.bases())
        answer = _ask(m, basis)
        answer.clear()
        assert _ask(m, basis) == _ask(make(), basis) != answer


class TestDeviationCost:
    def test_lone_player_takes_cheapest_swap(self):
        g = ufl_game([4, 7], delays=[{0: F(1), 1: F(2)}], players=1)
        assert deviation_cost(g, Profile([{0}]), 0) == {0: (5, 0)}  # min(4+1, 7+2)

    def test_virtual_cost_ignores_occupancy(self):
        g = ufl_game([10, 3])
        space = g.spaces[0]
        ranked = space.ranking(lambda f: virtual_cost(g, 0, f), g.resource_order)
        assert space.cheapest_exchanges(frozenset({0}), ranked) == {0: (3, 1, 1)}
        assert first_virtual_violation(g, Profile([{0}, {0}])) == ("cover", 0)  # 3 + 3 < 10
        assert first_virtual_violation(g, Profile([{1}, {1}])) is None
        assert virtual_cost(g, 0, 0) == 10
        assert virtual_cost(g, 0, 1) == 3

    def test_singleton_candidate_returns_its_virtual_cost(self):
        m = PartitionMatroid([[0], [1]], [1, 1])
        g = GameModel(
            players=1,
            resources=[0, 1],
            costs={0: ufl_game([6]).costs[0], 1: ufl_game([9]).costs[0]},
            spaces=[m],
            delays=[{0: F(2)}],
        )
        # each block holds one element, so each stays where it is
        assert deviation_cost(g, Profile([{0, 1}]), 0) == {0: (8, 0), 1: (9, 1)}


class TestEnforceabilityConditions:
    def test_crowded_cheap_option_violates_coverage(self):
        g = ufl_game([10, 3])
        report = check_enforceable_matroid(g, Profile([{0}, {0}]))
        assert not report.ok
        [v] = report.violations
        assert (v.kind, v.resource, v.lhs, v.rhs) == ("cover", 0, F(10), F(6))

    def test_cheap_profile_is_fine(self):
        g = ufl_game([10, 3])
        assert check_enforceable_matroid(g, Profile([{1}, {1}])).ok

    def test_single_player_holds_with_equality(self):
        g = ufl_game([5], players=1)
        assert check_enforceable_matroid(g, Profile([{0}])).ok

    def test_excess_delay_violates_delay_condition(self):
        g = ufl_game([1, 1], delays=[{0: F(5)}], players=1)
        report = check_enforceable_matroid(g, Profile([{0}]))
        assert not report.ok
        assert report.violations[0].kind == "delay"

    def test_agrees_with_share_feasibility_lp(self):
        # independent ground truth: a budget balanced stable share vector
        # exists iff an LP with equality-paid resources and per-player
        # deviation caps is feasible
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(2, 3)
            g = ufl_game(
                [rng.randint(1, 12) for _ in range(m)],
                delays=[
                    {e: F(rng.randint(0, 4)) for e in range(m) if rng.random() < 0.5}
                    for _ in range(n)
                ],
                players=n,
            )
            profile = Profile([{rng.randrange(m)} for _ in range(n)])
            verdict = check_enforceable_matroid(g, profile).ok
            assert verdict == self._share_lp_feasible(g, profile)

    @staticmethod
    def _share_lp_feasible(game, profile):
        pairs = [(i, e) for i in range(game.n) for e in profile[i]]
        col = {p: k for k, p in enumerate(pairs)}
        rows, rhs = [], []

        def row(coefs, bound):
            r = [F(0)] * len(pairs)
            for p, a in coefs:
                r[col[p]] += a
            rows.append(r)
            rhs.append(bound)

        for e in game.resources:
            users = profile.users(e)
            if not users:
                continue
            c = game.cost(e, users)
            row([((i, e), F(1)) for i in users], c)
            row([((i, e), F(-1)) for i in users], -c)
        for i, e in pairs:
            basis = profile[i]
            best = min(
                game.cost(f, profile.users(f) | {i}) + game.delay(i, f)
                for f in game.resources if f == e or f not in basis
                and game.spaces[i].is_independent((basis - {e}) | {f})
            )
            row([((i, e), F(1))], best - game.delay(i, e))
        sol = solve(LinearProgram.build([F(0)] * len(pairs), rows, rhs))
        if sol.status == INFEASIBLE:
            return False
        assert sol.status == OPTIMAL
        return True


class TestTransform:
    def test_crowded_facility_empties_onto_cheap_one(self):
        g = ufl_game([10, 3])
        res = transform_matroid(g, Profile([{0}, {0}]))
        assert res.profile == Profile([{1}, {1}])
        assert total_cost(g, res.profile) == 3
        assert [m.kind for m in res.moves] == ["cover", "cover"]
        # exhaustive check that 3 is the best any profile can do
        best = min(
            total_cost(g, Profile(combo))
            for combo in itertools.product([{0}, {1}], repeat=2)
        )
        assert best == 3

    def test_enforceable_input_is_returned_unchanged(self):
        g = ufl_game([10, 3])
        p = Profile([{1}, {1}])
        res = transform_matroid(g, p)
        assert res.profile == p
        assert res.moves == ()

    def test_delay_packet_move(self):
        g = ufl_game([1, 1], delays=[{0: F(5)}], players=1)
        res = transform_matroid(g, Profile([{0}]))
        assert res.profile == Profile([{1}])
        [move] = res.moves
        assert (move.player, move.source, move.resource, move.kind) == (0, 0, 1, "delay")
        assert move.cost_delta == -5

    def test_random_instances_meet_the_guarantees(self):
        rng = random.Random(404)
        for _ in range(80):
            game = gen_matroid(rng)
            profile = random_bases_profile(rng, game)
            res = transform_matroid(game, profile)
            rank = max(game.spaces[i].rank for i in range(game.n))
            assert len(res.moves) <= game.n * len(game.resources) * rank
            assert total_cost(game, res.profile) <= total_cost(game, profile)
            assert first_virtual_violation(game, res.profile) is None
            # replay: every packet move on its own never increases the cost,
            # and its recorded delta is exactly the change in total cost
            current = profile
            for move in res.moves:
                nxt = current.replace(
                    move.player, current[move.player] - {move.source} | {move.resource}
                )
                assert total_cost(game, nxt) <= total_cost(game, current)
                assert move.cost_delta == total_cost(game, nxt) - total_cost(game, current)
                current = nxt
            assert current == res.profile


def _seeded_games(count):
    """Seeded facility-location and general matroid games (cost tables and
    delays included) with random starting bases."""
    for seed in range(count):
        rng = random.Random(f"incremental/{seed}")
        if seed % 2:
            game = gen_matroid(rng)
        else:
            game = gen_ufl(rng, players=rng.randint(1, 12), facilities=rng.randint(2, 10))
        yield game, random_bases_profile(rng, game)


class TestIncrementalLoop:
    def test_same_moves_as_a_full_rescan(self):
        moved = 0
        for game, profile in _seeded_games(300):
            res = transform_matroid(game, profile)
            ref_profile, ref_moves = rescan_transform_matroid(game, profile)
            assert res.moves == ref_moves
            assert res.profile == ref_profile
            assert res.input_cost == total_cost(game, profile)
            assert res.output_cost == total_cost(game, ref_profile)
            moved += bool(res.moves)
        assert moved > 200

    def test_total_cost_summed_only_for_input_and_output(self, monkeypatch):
        # batches are checked by their step deltas, the whole run once
        # against the two sums
        calls = [0]
        real_total = matroids.total_cost

        def counting(*args):
            calls[0] += 1
            return real_total(*args)

        monkeypatch.setattr(matroids, "total_cost", counting)
        moved = 0
        for game, profile in _seeded_games(40):
            calls[0] = 0
            moved += len(transform_matroid(game, profile).moves)
            assert calls[0] == 2
        assert moved > 40

    def test_exchanges_priced_once_per_basis(self, monkeypatch):
        # each basis a player holds is asked of its oracle at most once;
        # the final certificate asks once more per player (between the
        # output's total cost and its first judgement), and the protocol
        # once more per player it re-prices
        calls = [0]
        summed_at, judged_at = [], []
        real_total, real_judged = matroids.total_cost, matroids._judged
        for kind in (UniformMatroid, PartitionMatroid, GraphicMatroid):
            def counting(self, *args, _real=vars(kind)["cheapest_exchanges"]):
                calls[0] += 1
                return _real(self, *args)
            monkeypatch.setattr(kind, "cheapest_exchanges", counting)

        def summing(*args):
            summed_at.append(calls[0])
            return real_total(*args)

        def judging(*args):
            judged_at.append(calls[0])
            return real_judged(*args)

        monkeypatch.setattr(matroids, "total_cost", summing)
        monkeypatch.setattr(matroids, "_judged", judging)
        games = list(_seeded_games(40))
        rng = random.Random(7)
        big = gen_ufl(rng, players=40, facilities=30)
        games.append((big, random_bases_profile(rng, big)))
        for game, profile in games:
            calls[0] = 0
            summed_at.clear()
            judged_at.clear()
            res = transform_matroid(game, profile)
            moved = [0] * game.n
            for move in res.moves:
                moved[move.player] += 1
            looped = summed_at[-1]
            assert looped <= game.n + sum(moved)
            assert judged_at[0] == looped + game.n
            repriced = _repriced(game, res.profile)
            if len(game.fixed) == len(game.resources):
                assert not repriced  # all fixed: the certificate serves the protocol
            assert calls[0] == judged_at[0] + len(repriced)

    def test_protocol_matches_a_fresh_true_mode_build(self, monkeypatch):
        # the transform's protocol is the one a fresh true-mode pass
        # builds, and the true deviation costs often differ
        # from the certificate's virtual ones, so the re-pricing is exercised
        judged = []
        real_judged = matroids._judged

        def judging(game, profile, deltas):
            judged.append(dict(deltas))
            return real_judged(game, profile, deltas)

        monkeypatch.setattr(matroids, "_judged", judging)
        games = []
        for seed in range(320):
            rng = random.Random(f"protocol/{seed}")
            game = (gen_matroid(rng) if seed < 300
                    else gen_ufl(rng, players=rng.randint(1, 30), facilities=rng.randint(2, 20)))
            games.append((game, random_bases_profile(rng, game)))
        differ = 0
        for game, profile in games:
            judged.clear()
            res = transform_matroid(game, profile)
            virtual = judged[0]  # the certificate's, judged first
            assert res.protocol.shares == build_matroid_protocol(game, res.profile).shares
            differ += virtual != matroids._check_conditions(game, res.profile)[1]
        kinds = {type(space) for game, _profile in games for space in game.spaces}
        assert kinds == {UniformMatroid, PartitionMatroid, GraphicMatroid}
        assert any(len(game.fixed) < len(game.resources) for game, _profile in games)
        assert differ >= 50, differ

    def test_one_deviation_cost_per_repriced_player(self, monkeypatch):
        # the protocol re-prices through `deviation_cost`, once for each
        # player with a cost table in their ground that another player
        # uses, in player order; with every cost fixed it re-prices no one
        asked = []
        real = matroids.deviation_cost

        def counting(game, profile, i):
            asked.append(i)
            return real(game, profile, i)

        monkeypatch.setattr(matroids, "deviation_cost", counting)
        shared = 0
        for seed in range(150):
            rng = random.Random(f"repriced/{seed}")
            for game in (gen_matroid(rng), gen_ufl(rng, players=rng.randint(1, 12),
                                                   facilities=rng.randint(2, 10))):
                asked.clear()
                res = transform_matroid(game, random_bases_profile(rng, game))
                assert asked == _repriced(game, res.profile)
                if len(game.fixed) == len(game.resources):
                    assert asked == []
                shared += bool(asked)
        assert shared >= 50, shared


def _repriced(game, profile):
    """The players, ascending, with a cost table outside their loops that
    another player uses in `profile`."""
    return [i for i, space in enumerate(game.spaces) if any(
        f not in game.fixed and f not in space.loops and profile.users(f) - {i}
        for f in space.ground)]


class TestRulePaths:
    """The built-in kinds answer by rule; only a custom subclass falls back
    to the base class's independence queries."""

    def test_every_builtin_kind_has_its_own_rules(self):
        kinds = [c for c in MatroidOracle.__subclasses__() if c.__module__ == matroids.__name__]
        assert {UniformMatroid, PartitionMatroid, GraphicMatroid} <= set(kinds)
        for kind in kinds:
            for rule in ("greedy", "cheapest_exchanges"):
                assert rule in vars(kind), (kind.__name__, rule)

    @staticmethod
    def _count(monkeypatch, name):
        """Count the calls of the method `name` on every built-in kind."""
        calls = []
        for kind in (MatroidOracle, UniformMatroid, PartitionMatroid, GraphicMatroid):
            if name in vars(kind):
                def counting(self, subset, _real=vars(kind)[name]):
                    calls.append((self, frozenset(subset)))
                    return _real(self, subset)
                monkeypatch.setattr(kind, name, counting)
        return calls

    def test_verify_pne_asks_no_independence_query(self, monkeypatch):
        # on a profile its game has validated, as every command's is by then
        games = list(_seeded_games(60))
        protocols = [build_matroid_protocol(game, transform_matroid(game, profile).profile)
                     for game, profile in games]
        calls = self._count(monkeypatch, "_independent")
        for (game, _profile), protocol in zip(games, protocols):
            assert verify_pne(game, protocol).ok
        assert calls == []

    def test_one_conditions_pass_checks_each_basis_once(self, monkeypatch):
        # the true conditions check each basis once; so do the transform's
        # certificate (after the output's total cost, before its first
        # judgement) and its re-pricing, for each player it re-prices
        games = list(_seeded_games(60))
        for game, profile in games:
            game.validate_profile(profile)
        calls = self._count(monkeypatch, "is_basis")
        judged = []
        real_total, real_judged = matroids.total_cost, matroids._judged

        def summing(*args):
            calls.clear()
            return real_total(*args)

        def judging(*args):
            judged.append(list(calls))
            return real_judged(*args)

        for game, profile in games:
            calls.clear()
            matroids._check_conditions(game, profile)
            assert calls == [(game.spaces[i], profile[i]) for i in range(game.n)]
        monkeypatch.setattr(matroids, "total_cost", summing)
        monkeypatch.setattr(matroids, "_judged", judging)
        for game, profile in games:
            judged.clear()
            out = transform_matroid(game, profile).profile
            checked = [[(game.spaces[i], out[i]) for i in range(game.n)]]
            if repriced := _repriced(game, out):
                checked.append(checked[0] + [(game.spaces[i], out[i]) for i in repriced])
            assert judged == checked
            assert calls == checked[-1]


class TestProtocolConstruction:
    def test_lone_player_pays_fully(self):
        g = ufl_game([5], players=1)
        proto = build_matroid_protocol(g, Profile([{0}]))
        assert proto.share(0, 0) == 5

    def test_water_filling_order(self):
        g = ufl_game([10, 3])
        proto = build_matroid_protocol(g, Profile([{1}, {1}]))
        assert proto.share(0, 1) == 3
        assert proto.share(1, 1) == 0
        assert verify_pne(g, proto).ok

    def test_tight_caps_force_even_split(self):
        g = ufl_game([4, 2])
        proto = build_matroid_protocol(g, Profile([{0}, {0}]))
        assert proto.share(0, 0) == 2
        assert proto.share(1, 0) == 2

    def test_unenforceable_profile_is_rejected(self):
        g = ufl_game([10, 3])
        with pytest.raises(NotEnforceable):
            build_matroid_protocol(g, Profile([{0}, {0}]))

    def test_protocols_verify_on_random_instances(self):
        rng = random.Random(808)
        built = 0
        for _ in range(40):
            game = gen_matroid(rng)
            res = transform_matroid(game, random_bases_profile(rng, game))
            proto = build_matroid_protocol(game, res.profile)
            assert verify_pne(game, proto).ok
            assert verify_budget_balance(game, proto, res.profile).ok
            built += 1
        assert built == 40


# `total_cost` trusts its profile; these entry points are where one is checked
BOUNDARIES = {
    "transform_matroid": lambda g, p: transform_matroid(g, p),
    "check_enforceable_matroid": lambda g, p: check_enforceable_matroid(g, p),
    "verify_pne": lambda g, p: verify_pne(g, SeparableProtocol(g, p, {})),
    "verify_budget_balance": lambda g, p: verify_budget_balance(
        g, SeparableProtocol(g, p, {}), p),
}


@pytest.mark.parametrize("check", BOUNDARIES.values(), ids=BOUNDARIES.keys())
@pytest.mark.parametrize("choices, message", [
    ([{0}, {0, 1}], "choice of player 1 is not in their space"),
    ([{0}, {7}], "player 1 uses unknown resource 7"),
], ids=["not-a-basis", "unknown-resource"])
def test_entry_points_reject_an_infeasible_profile(check, choices, message):
    with pytest.raises(InfeasibleProfile, match=message):
        check(ufl_game([5, 3]), Profile(choices))


@pytest.mark.parametrize("check", [transform_matroid, check_enforceable_matroid])
def test_entry_points_reject_a_short_profile(check):
    with pytest.raises(InfeasibleProfile, match="profile has 1 choices for 2 players"):
        check(ufl_game([5, 3]), Profile([{0}]))


# -- scale invariance ------------------------------------------------------

def _transform_matroid_run(tmp_path, doc: dict) -> list:
    """Report and trace lines of one `transform-matroid` command on `doc`."""
    code, lines = transform_run(tmp_path, ["transform-matroid"], doc)
    assert code == 0
    return lines


def _generated_games():
    """300 seeded `gen_matroid` games and 100 facility-location ones, each
    with a random basis profile."""
    for seed in range(300):
        rng = random.Random(seed)
        game = gen_matroid(rng)
        yield game, random_bases_profile(rng, game)
    for seed in range(100):
        rng = random.Random(f"ufl/{seed}")
        game = gen_ufl(rng, players=rng.randint(1, 6), facilities=rng.randint(1, 6))
        yield game, random_bases_profile(rng, game)


def test_scaled_games_transform_to_scaled_reports(tmp_path):
    """Dividing every cost and delay by q divides every cost, cost delta and
    share of the report and trace by q, and leaves the output profile and
    the steps as they were: the integral games run on ints, the scaled ones
    on Fractions mixed with ints, and a float or a lost denominator in
    either shows as a mismatch."""
    fractional = moved = 0
    for game, profile in _generated_games():
        doc = game_to_json(game)
        doc["profile"] = profile_to_json(profile)["profile"]
        integral = _transform_matroid_run(tmp_path, doc)
        moved += len(integral) > 1
        for q in (3, 7):
            scaled = _transform_matroid_run(tmp_path, scaled_doc(doc, q))
            fractional += assert_scaled(integral, scaled, q)
    assert moved > 200 and fractional > 2000, (moved, fractional)


def test_a_game_of_mixed_values_transforms_like_its_integral_double(tmp_path):
    """Halves next to integers in costs, tables and delays: the same run as
    the game with every value doubled, at half the costs."""
    uniform = {"uniform": {"ground": [0, 1, 2, 3], "rank": 1}}
    mixed = {
        "players": 4,
        "resources": [0, 1, 2, 3],
        "costs": {
            "0": "7/2", "1": "3/1", "2": "9/2",
            "3": {"subadditive_table": {
                "0": "5/2", "1": "2/1", "2": "3/2", "3": "1/1",
                "0,1": "4/1", "0,2": "7/2", "0,3": "3/1", "1,2": "7/2", "1,3": "3/1",
                "2,3": "5/2", "0,1,2": "9/2", "0,1,3": "9/2", "0,2,3": "4/1",
                "1,2,3": "4/1", "0,1,2,3": "5/1"}},
        },
        "delays": [["1/2", "0/1", "2/1", "3/2"], ["0/1", "5/2", "1/1", "0/1"],
                   ["3/1", "1/2", "0/1", "1/1"], ["1/2", "1/2", "5/2", "2/1"]],
        "spaces": [{"matroid": uniform}] * 4,
        "profile": [[0], [1], [0], [2]],
    }
    doubled = scaled_doc(mixed, F(1, 2))
    integral = _transform_matroid_run(tmp_path, doubled)
    assert {line["step"] for line in integral[1:]} == {"delay", "cover"}
    assert assert_scaled(integral, _transform_matroid_run(tmp_path, mixed), 2)
