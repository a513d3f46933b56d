"""Shared instance builders and scale-invariance checks for the test suite."""

import importlib.util
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

from sepshare.cli import run
from sepshare.game import GameModel, PathSpace, Profile
from sepshare.matroids import UniformMatroid
from sepshare.network import Network
from sepshare.rationals import format_rational, parse_rational
from sepshare.schema import game_from_json, profile_from_json


def path_game(edges, pairs, delays=None, directed=False):
    """Game over `edges` = [(u, v, cost)], `pairs` = [(source, terminal)]."""
    net = Network(
        [(k, u, v) for k, (u, v, _c) in enumerate(edges)], directed=directed
    )
    costs = {k: Fraction(c) for k, (_u, _v, c) in enumerate(edges)}
    spaces = [PathSpace(source=s, terminal=t) for s, t in pairs]
    return GameModel(
        players=len(pairs),
        resources=list(range(len(edges))),
        costs=costs,
        spaces=spaces,
        delays=delays,
        network=net,
    )


def ufl_game(costs, delays=None, players=2):
    """Facility location: rank-1 players over facilities with the given costs."""
    ids = list(range(len(costs)))
    cf = {e: Fraction(c) for e, c in enumerate(costs)}
    spaces = [UniformMatroid(ids, 1) for _ in range(players)]
    return GameModel(
        players=players, resources=ids, costs=cf, spaces=spaces, delays=delays
    )


def chain_instances(specs):
    """Games and profiles of `tests/golden/regen.py::chain_instance` for
    each (seed, bundles, players)."""
    path = Path(__file__).resolve().parent / "golden" / "regen.py"
    spec = importlib.util.spec_from_file_location("golden_regen", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    out = []
    for args in specs:
        doc = regen.chain_instance(*args)
        game = game_from_json(doc)
        out.append((game, profile_from_json(doc, game)))
    return out


def nested_sp_game(rng):
    """Game and profile on a seeded nested series-parallel graph.

    Series and parallel pieces are composed recursively between two
    terminals, "n0" and "n1", down to single edges: 4 to 45 edges in all,
    costs 1 to 20, 1 to 4 players, and delays 1 to 5 on about a sixth of
    the (player, edge) pairs.  About half the players sit between the two
    terminals of a composed piece; the others sit between arbitrary
    vertices, so some of their subgraphs are not series-parallel.  Each
    player starts on a shortest path under random weights."""
    pairs, pieces = [], []
    names = itertools.count(2)

    def compose(u, v, m):
        pieces.append((u, v))
        if m == 1:
            pairs.append((u, v))
            return
        k = rng.randint(1, m - 1)
        if rng.random() < 0.5:
            w = f"n{next(names)}"
            compose(u, w, k)
            compose(w, v, m - k)
        else:
            compose(u, v, k)
            compose(u, v, m - k)

    compose("n0", "n1", rng.randint(4, 45))
    net = Network([(e, u, v) for e, (u, v) in enumerate(pairs)])
    ids = list(net.edge_ids)
    costs = {e: rng.randint(1, 20) for e in ids}
    n = rng.randint(1, 4)
    spaces = []
    for _ in range(n):
        if rng.random() < 0.5:
            s, t = rng.choice(pieces)
        else:
            s, t = rng.sample(net.vertices, 2)
        if rng.random() < 0.5:
            s, t = t, s
        spaces.append(PathSpace(source=s, terminal=t))
    delays = [{e: rng.randint(1, 5) for e in ids if rng.random() < 1 / 6} for _ in range(n)]
    game = GameModel(players=n, resources=ids, costs=costs, spaces=spaces, delays=delays,
                     network=net)
    choices = []
    for sp in spaces:
        weights = {e: rng.randint(1, 30) for e in ids}
        choices.append(frozenset(net.shortest_path(sp.source, sp.terminal, weights.get)[1]))
    return game, Profile(choices)


def path_subsets(net, frm, to) -> set:
    """Every edge subset that `Network.order_path_edges` accepts as a
    simple frm -> to path, by trying all subsets of the edges."""
    return {
        frozenset(subset)
        for r in range(len(net.edge_ids) + 1)
        for subset in itertools.combinations(net.edge_ids, r)
        if net.order_path_edges(subset, frm, to) is not None
    }

def stored(value) -> bool:
    """Stored by the rule of `rationals.exact`: an int exactly when
    integral, otherwise a Fraction; never a bool or a float."""
    if type(value) not in (int, Fraction):
        return False
    return type(value) is (int if value.denominator == 1 else Fraction)


# -- scale invariance ------------------------------------------------------

_RATIONAL = re.compile(r"-?\d+/\d+")


def scaled_doc(doc: dict, q) -> dict:
    """The document with every cost and delay divided by q, in `costs` and
    in the `graph` block alike."""

    def div(text: str) -> str:
        return format_rational(parse_rational(text) / q)

    out = json.loads(json.dumps(doc))
    for key, cost in out["costs"].items():
        if isinstance(cost, str):
            out["costs"][key] = div(cost)
        else:
            table = cost["subadditive_table"]
            table.update((users, div(value)) for users, value in table.items())
    if "delays" in out:
        out["delays"] = [[div(cell) for cell in row] for row in out["delays"]]
    for edge in out.get("graph", {}).get("edges", ()):
        edge[2] = div(edge[2])
    return out


def transform_run(tmp_path, argv: list, doc: dict) -> tuple[int, list]:
    """Exit code, and report and trace lines, of one transform command on
    `doc`; no lines when it wrote no report."""
    inst, out, trace = (tmp_path / name for name in ("in.json", "out.json", "trace.jsonl"))
    inst.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    code = run(argv + ["--in", str(inst), "--out", str(out), "--trace", str(trace)])
    if not out.exists():
        return code, []
    return code, [json.loads(out.read_text())] + [
        json.loads(line) for line in trace.read_text().splitlines()
    ]


def assert_scaled(integral, scaled, q) -> int:
    """Every rational of `scaled` is the one of `integral` at the same place
    divided by q, and everything else is equal.  Returns how many of the
    scaled rationals are not integers."""
    if isinstance(integral, str) and _RATIONAL.fullmatch(integral):
        value = parse_rational(scaled)
        assert value == parse_rational(integral) / q, (integral, scaled, q)
        return value.denominator != 1
    if isinstance(integral, (list, dict)):
        assert type(scaled) is type(integral) and len(scaled) == len(integral)
        if isinstance(integral, dict):
            assert scaled.keys() == integral.keys()
            return sum(assert_scaled(integral[k], scaled[k], q) for k in integral)
        return sum(assert_scaled(a, b, q) for a, b in zip(integral, scaled))
    assert scaled == integral
    return 0
