"""Growth of the work per unit of input, pinned by machine-independent
counters.

A quadratic path can hide in code that every other test runs, because
small inputs make it cheap.  So each check here runs one family at three
sizes, each double the last, counts work that does not depend on the
machine, and bounds how that count grows per doubling.  Each bound is set
from the measured ratios, with headroom, and is well below what the
quadratic path it guards against gives.
"""

import random

from sepshare.gen import gen_matroid, random_bases_profile
from sepshare.matroids import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    build_matroid_protocol,
    transform_matroid,
)

GROUNDS = (32, 64, 128)
GAMES = 8  # seeded games per size, summed


def _count_prices(monkeypatch) -> list:
    """(prices asked, ground size) of every `cheapest_exchanges` call of
    every matroid kind, a custom subclass's query loop included."""
    calls = []
    for kind in (MatroidOracle, UniformMatroid, PartitionMatroid, GraphicMatroid):
        if "cheapest_exchanges" not in vars(kind):
            continue

        def counting(self, basis, price, order, _real=vars(kind)["cheapest_exchanges"]):
            asked = [0]

            def counted(f):
                asked[0] += 1
                return price(f)

            answer = _real(self, basis, counted, order)
            calls.append((asked[0], len(self.ground)))
            return answer

        monkeypatch.setattr(kind, "cheapest_exchanges", counting)
    return calls


def test_matroid_prices_grow_linearly_per_move(monkeypatch):
    """Each call prices at most its ground, and the prices per move grow
    at most 2.3x per doubling of the ground.

    Measured per move: 41.1, 64.3 and 109.4 prices at grounds 32, 64 and
    128 (1.56x, then 1.70x).  With the uniform rule deleted, uniform
    spaces fall back to the rank x ground query loop: 103.2, 277.4 and
    959.3 prices per move (2.69x, then 3.46x), and one call prices up to
    27 times its ground.  Moves x ground, the work that stays, grows
    4.2x, then 4.3x.
    """
    calls = _count_prices(monkeypatch)
    per_move = []
    for m in GROUNDS:
        calls.clear()
        moves = 0
        for seed in range(GAMES):
            rng = random.Random(f"growth/matroid/{m}/{seed}")
            game = gen_matroid(rng, players=4, resources=m)
            result = transform_matroid(game, random_bases_profile(rng, game))
            build_matroid_protocol(game, result.profile)
            moves += len(result.moves)
        assert all(asked <= ground for asked, ground in calls), m
        per_move.append(sum(asked for asked, _ground in calls) / moves)
    ratios = [b / a for a, b in zip(per_move, per_move[1:])]
    assert max(ratios) <= 2.3, (per_move, ratios)
