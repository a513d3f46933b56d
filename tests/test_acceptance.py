"""End-to-end acceptance suite.

One test per shipped guarantee, in a fixed order: the hard three-pair
fixture, the matroid iteration bound, single-source and series-parallel
end-to-end behaviour, enforceability of optima, protocol separability,
and LP solver certification.  All comparisons are exact rationals; the
stated wall-clock ceilings are asserted.
"""

import random
import time
from fractions import Fraction as F

from _oracles import (
    first_virtual_violation,
    fourier_motzkin_status,
    full_path_lp,
    verify_separability_bruteforce,
    vertex_lp,
)
from sepshare.errors import BudgetExceeded
from sepshare.game import total_cost
from sepshare.gen import gen_matroid, gen_sp, gen_tree, random_bases_profile
from sepshare.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve
from sepshare.matroids import (
    build_matroid_protocol,
    check_enforceable_matroid,
    transform_matroid,
)
from sepshare.nsepa import counterexample_fixture, is_enforceable, nsepa_transform
from sepshare.oracle import brute_force_optimum, enforcing_protocol, profiles_iter
from sepshare.protocol import verify_budget_balance, verify_pne
from sepshare.singlesource import transform_single_source


def test_1_fixture_unique_optimum_is_not_enforceable():
    t0 = time.monotonic()
    game, opt = counterexample_fixture()
    best = brute_force_optimum(game)
    assert best.profile == opt
    assert best.cost == F(346)
    assert best.unique
    rep = is_enforceable(game, opt)
    assert rep.lp_value == F(339)
    assert rep.lp_value <= F(339) < F(346)
    assert not rep.enforceable
    assert time.monotonic() - t0 < 10


def test_2_matroid_transform_iteration_bound_and_soundness():
    t0 = time.monotonic()
    rng = random.Random(220101)
    kinds: set[str] = set()
    cost_families: set[str] = set()
    for _ in range(500):
        game = gen_matroid(rng)
        profile = random_bases_profile(rng, game)
        res = transform_matroid(game, profile)
        rk = max(game.spaces[i].rank for i in range(game.n))
        assert len(res.moves) <= game.n * len(game.resources) * rk
        assert total_cost(game, res.profile) <= total_cost(game, profile)
        assert first_virtual_violation(game, res.profile) is None
        protocol = build_matroid_protocol(game, res.profile)
        assert verify_pne(game, protocol).ok
        assert verify_budget_balance(game, protocol, res.profile).ok
        kinds |= {type(sp).__name__ for sp in game.spaces}
        cost_families |= {"fixed" if e in game.fixed else "table" for e in game.resources}
    assert kinds == {"UniformMatroid", "PartitionMatroid", "GraphicMatroid"}
    assert cost_families == {"fixed", "table"}
    assert time.monotonic() - t0 < 60


def test_3_single_source_transform_end_to_end():
    t0 = time.monotonic()
    rng = random.Random(330101)
    drops_seen = 0
    for _ in range(200):
        game, profile = gen_tree(rng)
        # the transform hard-fails unless each auxiliary edge kept in the
        # final tree is fully paid by exactly one player
        res = transform_single_source(game, profile)
        assert res.output_cost <= res.input_cost
        assert verify_budget_balance(game, res.protocol, res.profile).ok
        assert verify_pne(game, res.protocol).ok
        for step in res.events:
            if step.kind == "drop":
                assert step.cost_delta < 0 and 0 <= step.player < game.n
                drops_seen += 1
    assert drops_seen > 0
    assert time.monotonic() - t0 < 120


def test_4_series_parallel_transform_end_to_end():
    t0 = time.monotonic()
    rng = random.Random(440101)
    for _ in range(200):
        game, profile = gen_sp(rng)
        res = nsepa_transform(game, profile)
        assert enforcing_protocol(game, res.profile) is not None
        assert res.output_cost <= res.input_cost
        # a delay reroute repair may leave the phase union larger than the
        # input's, in which case all edges is the honest ceiling
        bound = (
            len(profile.used_resources()) if not res.repairs else len(game.resources)
        )
        assert res.phases <= bound
        # per-phase private-cost conservation is asserted exactly inside
        # the transform; it raising nowhere in 200 runs certifies it
        fast = is_enforceable(game, profile)
        slow = solve(full_path_lp(game, profile))
        assert fast.status == slow.status
        assert fast.lp_value == slow.objective_value
        assert fast.enforceable == (slow.objective_value == fast.used_cost)
    assert time.monotonic() - t0 < 300


def test_5_brute_force_optima_are_enforceable():
    rng = random.Random(550101)
    path_checked = matroid_checked = 0
    while path_checked < 100:
        game, _profile = gen_sp(rng)
        try:
            best = brute_force_optimum(game)
            assert is_enforceable(game, best.profile).enforceable
        except BudgetExceeded:
            continue
        path_checked += 1
    while matroid_checked < 100:
        game = gen_matroid(rng, players=rng.randint(1, 3))
        try:
            best = brute_force_optimum(game)
            assert check_enforceable_matroid(game, best.profile).ok
        except BudgetExceeded:
            continue
        matroid_checked += 1


def test_6_constructed_protocols_are_separable():
    rng = random.Random(660101)
    bundle = []
    for _ in range(12):
        game = gen_matroid(rng, players=rng.randint(1, 2), resources=rng.randint(2, 4))
        res = transform_matroid(game, random_bases_profile(rng, game))
        bundle.append((game, build_matroid_protocol(game, res.profile)))
    for _ in range(12):
        game, profile = gen_tree(rng, vertices=rng.randint(3, 6), players=2)
        res = transform_single_source(game, profile)
        bundle.append((game, res.protocol))
    for _ in range(12):
        game, profile = gen_sp(rng, players=rng.randint(1, 2), max_edges=6)
        res = nsepa_transform(game, profile)
        bundle.append((game, res.protocol))

    verified = agreement_pairs = 0
    for game, protocol in bundle:
        try:
            report = verify_separability_bruteforce(game, protocol)
        except BudgetExceeded:
            continue
        assert report.ok, report.counterexample
        verified += 1
        profiles = list(profiles_iter(game))
        for _ in range(40):
            p, q = rng.choice(profiles), rng.choice(profiles)
            for e in game.resources:
                if p.users(e) != q.users(e):
                    continue
                for i in p.users(e):
                    assert protocol.cost_share(p, i, e) == protocol.cost_share(q, i, e)
                agreement_pairs += 1
    assert verified >= 20
    assert agreement_pairs >= 100


def test_7_lp_solver_matches_independent_references():
    rng = random.Random(770101)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(1000):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        obj = [F(rng.randint(-5, 6)) for _ in range(n)]
        rows = [[F(rng.randint(-4, 5)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 8)) for _ in range(m)]
        sol = solve(LinearProgram.build(obj, rows, rhs))
        vstatus, vvalue = vertex_lp(obj, rows, rhs)
        fstatus, _ = fourier_motzkin_status(obj, rows, rhs)
        assert sol.status == vstatus == fstatus
        if sol.status == OPTIMAL:
            assert sol.objective_value == vvalue
        statuses[sol.status] += 1
    assert all(statuses.values()), statuses
