"""Growth of the work per unit of input, pinned by machine-independent
counters.

A quadratic path can hide in code that every other test runs, because
small inputs make it cheap.  So each check here runs one family at three
or four sizes, each double the last, counts work that does not depend on
the machine, and bounds how that count grows per doubling.  Each bound is set
from the measured ratios, with headroom, and is well below what the
quadratic path it guards against gives.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sepshare.lp
import sepshare.rationals
from _helpers import chain_instances
from sepshare import cli, matroids
from sepshare.game import CostFunction, GameModel, Profile
from sepshare.gen import gen_matroid, gen_ufl, random_bases_profile
from sepshare.matroids import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    build_matroid_protocol,
    transform_matroid,
)
from sepshare.network import Network
from sepshare.nsepa import nsepa_transform
from sepshare.protocol import verify_pne
from sepshare.schema import game_from_json, game_to_json, profile_to_json

GROUNDS = (32, 64, 128)
GAMES = 8  # seeded games per size, summed


class _Walk(list):
    """A ranking that counts the entries its walks read."""

    read = 0

    def __iter__(self):
        for key in super().__iter__():
            self.read += 1
            yield key


def _count_walks(monkeypatch) -> list:
    """(entries read, ranking length) of every `cheapest_exchanges` call of
    every matroid kind, a custom subclass's query loop included."""
    calls = []
    for kind in (MatroidOracle, UniformMatroid, PartitionMatroid, GraphicMatroid):
        if "cheapest_exchanges" not in vars(kind):
            continue

        def counting(self, basis, ranked, _real=vars(kind)["cheapest_exchanges"]):
            walk = _Walk(ranked)
            answer = _real(self, basis, walk)
            calls.append((walk.read, len(ranked)))
            return answer

        monkeypatch.setattr(kind, "cheapest_exchanges", counting)
    return calls


def _count_virtual_prices(monkeypatch) -> Counter:
    """(player, element) -> the times `virtual_cost` priced it."""
    priced: Counter = Counter()
    real = matroids.virtual_cost

    def counting(game, i, e):
        priced[(i, e)] += 1
        return real(game, i, e)

    monkeypatch.setattr(matroids, "virtual_cost", counting)
    return priced


def test_matroid_ranks_once_and_walks_linearly_per_move(monkeypatch):
    """A transform prices each (player, element) pair that lies in some
    basis by virtual cost once, final certificate included; each call
    walks at most its ranking, and the entries walked per move grow at
    most 2.3x per doubling of the ground.

    Measured per move: 21.3, 32.0 and 50.5 entries at grounds 32, 64 and
    128 (1.50x, then 1.58x).  Before the ranking was kept, the final
    certificate priced every pair a second time.  With the uniform rule
    deleted, uniform spaces fall back to the query loop, which walks the
    ranking from the top for each basis element: one call then walks up
    to 36 times its ranking, and the entries per move are 41.4, 210.8 and
    712.8 (5.09x, then 3.38x).
    """
    calls = _count_walks(monkeypatch)
    priced = _count_virtual_prices(monkeypatch)
    per_move = []
    for m in GROUNDS:
        calls.clear()
        moves = 0
        for seed in range(GAMES):
            rng = random.Random(f"growth/matroid/{m}/{seed}")
            game = gen_matroid(rng, players=4, resources=m)
            priced.clear()
            result = transform_matroid(game, random_bases_profile(rng, game))
            assert priced == Counter((i, e) for i, space in enumerate(game.spaces)
                                     for e in space.ground if space.is_independent({e})), m
            build_matroid_protocol(game, result.profile)
            moves += len(result.moves)
        assert all(read <= length for read, length in calls), m
        per_move.append(sum(read for read, _length in calls) / moves)
    ratios = [b / a for a, b in zip(per_move, per_move[1:])]
    assert max(ratios) <= 2.3, (per_move, ratios)


def _priced_per_pair(monkeypatch, owner, name: str, family: str) -> list[float]:
    """Calls of `owner.name`, per (player, ground element) pair, of a
    transform, its protocol and the protocol's PNE check: `gen_ufl` with
    6k players and 8k facilities, `gen_matroid` with 4 players and 12k
    resources, at k = 2, 4 and 8."""
    calls = 0
    real = getattr(owner, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    per_pair = []
    for k in (2, 4, 8):
        calls = pairs = 0
        for seed in range(GAMES):
            rng = random.Random(f"growth/{family}/{k}/{seed}")
            game = (gen_ufl(rng, 6 * k, 8 * k) if family == "ufl"
                    else gen_matroid(rng, players=4, resources=12 * k))
            result = transform_matroid(game, random_bases_profile(rng, game))
            assert verify_pne(game, result.protocol).ok, k
            pairs += sum(len(space.ground) for space in game.spaces)
        per_pair.append(calls / pairs)
    return per_pair


@pytest.mark.parametrize("family", ["ufl", "matroid"])
def test_cost_queries_per_ground_pair_stay_flat(monkeypatch, family):
    """Game cost queries per (player, ground element) pair, counted as in
    `_priced_per_pair`, grow at most 1.5x per doubling of the game.  On
    `gen_ufl`, whose costs are all fixed and so ask no cost function, the
    count is `GameModel.join_cost` calls; on `gen_matroid`, whose costs
    mix fixed costs and tables, it is `CostFunction.value` calls.

    Measured per pair: 2.00, 2.00 and 2.00 (ufl), 1.87, 2.17 and 2.81
    (matroid; 1.16x, then 1.30x).  Building the protocol with a fresh
    true-mode pass gives 3.00, 3.00 and 3.00 (ufl) and 1.95, 2.35 and
    2.95 (matroid).  Ranking every player's elements again after each
    move, with that pass, gives 14.0, 25.1 and 48.7 (ufl; 1.80x, then
    1.94x) and 4.50, 7.31 and 14.3 (matroid; 1.63x, then 1.96x).
    """
    owner, name = (GameModel, "join_cost") if family == "ufl" else (CostFunction, "value")
    per_pair = _priced_per_pair(monkeypatch, owner, name, family)
    ratios = [b / a for a, b in zip(per_pair, per_pair[1:])]
    assert max(ratios) <= 1.5, (per_pair, ratios)


def test_a_transform_run_prices_each_ground_pair_twice(monkeypatch, tmp_path):
    """`GameModel.join_cost` calls per (player, ground element) pair over
    in-process `transform-matroid` runs on `gen_ufl` documents with 6k
    players and 8k facilities stay at most 2.1 at k = 2, 4 and 8.

    The transform ranks each pair by virtual cost once, and its protocol
    is built from those rankings: every cost is fixed, so no true price
    differs from its virtual one.  The PNE check then weighs each pair
    once.  Measured per pair: 2.00, 2.00 and 2.00.  Building the protocol
    with a fresh true-mode pass, as `build_matroid_protocol` does, gives
    3.00, 3.00 and 3.00.
    """
    calls = 0
    real = GameModel.join_cost

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    per_pair = []
    for k in (2, 4, 8):
        paths, pairs = [], 0
        for seed in range(GAMES):
            rng = random.Random(f"growth/ufl-cli/{k}/{seed}")
            game = gen_ufl(rng, 6 * k, 8 * k)
            doc = {**game_to_json(game), **profile_to_json(random_bases_profile(rng, game))}
            paths.append(tmp_path / f"ufl-{k}-{seed}.json")
            paths[-1].write_text(json.dumps(doc))
            pairs += sum(len(space.ground) for space in game.spaces)
        monkeypatch.setattr(GameModel, "join_cost", counting)
        calls = 0
        for path in paths:
            assert cli.run(["transform-matroid", "--in", str(path),
                            "--out", str(tmp_path / "report.json")]) == 0
        monkeypatch.setattr(GameModel, "join_cost", real)
        per_pair.append(calls / pairs)
    assert max(per_pair) <= 2.1, per_pair


def test_fixed_costs_ask_no_cost_function(monkeypatch):
    """`CostFunction.value` calls per (player, ground element) pair on
    `gen_ufl`, counted as in `_priced_per_pair`, stay at most 0.5 at
    every k: the game reads each fixed cost off its fixed-cost row.

    Measured per pair: 0, 0 and 0.  Building the joined user set and
    asking the cost function, as the three per-player pricing passes once
    did, gives 3.41, 3.19 and 3.09.
    """
    per_pair = _priced_per_pair(monkeypatch, CostFunction, "value", "ufl")
    assert max(per_pair) <= 0.5, per_pair


def test_a_load_stores_each_delay_cell_without_normalizing_it_again(monkeypatch):
    """`rationals.exact` calls inside `schema.game_from_json`, per nonzero
    delay cell of `gen_ufl` documents with 6k players and 8k facilities,
    stay at most 0.25 at k = 2, 4 and 8.

    The document's rational strings are each parsed and stored once, and
    the delay rows are kept as loaded.  Measured per cell: 0.19, 0.07 and
    0.03 (the distinct strings of the costs and delays).  Normalizing
    every stored delay again in `GameModel` gives 1.19, 1.07 and 1.03.
    """
    calls = 0
    real = sepshare.rationals.exact

    def counting(value):
        nonlocal calls
        calls += 1
        return real(value)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "sepshare" and getattr(module, "exact", None) is real:
            monkeypatch.setattr(module, "exact", counting)
    per_cell = []
    for k in (2, 4, 8):
        docs = [game_to_json(gen_ufl(random.Random(f"growth/ufl-load/{k}/{seed}"), 6 * k, 8 * k))
                for seed in range(GAMES)]
        calls = 0
        for doc in docs:
            game_from_json(doc)
        cells = sum(cell != "0/1" for doc in docs for row in doc["delays"] for cell in row)
        per_cell.append(calls / cells)
    assert max(per_cell) <= 0.25, per_cell


BUNDLES = (8, 16, 32)
CHAINS = 8  # seeded chains per size, summed


def test_lp_rows_visited_per_pivot_stay_flat(monkeypatch):
    """A pivot's ratio test and elimination visit every tableau row that
    `_pivot` is given, and those rows per pivot grow at most 1.3x per
    doubling of the chain.

    A chain's shares LP splits into one small block per bundle, because a
    capacity row links the users of one edge and a detour row one
    player's edges in one bundle.  Measured per pivot: 2.63, 2.68 and
    2.66 rows at 8, 16 and 32 bundles (1.02x, then 0.99x).  With one
    tableau over the whole program: 27.6, 59.8 and 102.4 rows (2.17x,
    then 1.71x).
    """
    visits = []
    real = sepshare.lp._pivot

    def counting(rows, rhs, basis, r, c):
        visits.append(len(rows))
        return real(rows, rhs, basis, r, c)

    monkeypatch.setattr(sepshare.lp, "_pivot", counting)
    per_pivot = []
    for bundles in BUNDLES:
        visits.clear()
        for game, profile in chain_instances((1000 * bundles + seed, bundles, 6)
                                             for seed in range(CHAINS)):
            nsepa_transform(game, profile)
        per_pivot.append(sum(visits) / len(visits))
    ratios = [b / a for a, b in zip(per_pivot, per_pivot[1:])]
    assert max(ratios) <= 1.3, (per_pivot, ratios)


def test_dijkstra_settled_vertices_grow_linearly(monkeypatch):
    """The vertices `Network.dijkstra` settles during `nsepa_transform`,
    per (player, edge) pair of the profile plus edge, grow at most 1.75x
    per doubling of the chain.

    A detour search is never continued from a path node, so it settles
    only the pieces of the player's subgraph off the path that meet its
    start.  Measured per pair or edge: 2.56, 3.91 and 4.47 vertices at 8,
    16 and 32 bundles (1.53x, then 1.14x).  With one tight-detour search
    per pair of path nodes instead of one per left node: 3.61, 11.32 and
    22.12 (3.14x, then 1.95x).  The bound does not yet catch one
    quadratic term that shows on longer chains: each substitution searches
    from every path node up to its edge, and the count is 5.84 and 9.89 at
    64 and 128 bundles (1.31x, then 1.69x).
    """
    settled = []
    real = Network.dijkstra

    def counting(self, *args, **kwargs):
        tree = real(self, *args, **kwargs)
        settled.append(len(tree))
        return tree

    per_unit = []
    for bundles in BUNDLES:
        cases = chain_instances((1000 * bundles + seed, bundles, 6) for seed in range(CHAINS))
        monkeypatch.setattr(Network, "dijkstra", counting)
        settled.clear()
        size = 0
        for game, profile in cases:
            nsepa_transform(game, profile)
            size += sum(len(choice) for choice in profile) + len(game.resources)
        monkeypatch.setattr(Network, "dijkstra", real)
        per_unit.append(sum(settled) / size)
    ratios = [b / a for a, b in zip(per_unit, per_unit[1:])]
    assert max(ratios) <= 1.75, (per_unit, ratios)


SHAPES = ((8, 3), (16, 6), (32, 12), (64, 24))  # (bundles, players), both doubling


def _transform_work(count) -> list:
    """`count()`, read after each shape's `nsepa_transform` runs, per (player,
    edge) pair of the profile plus edge: chains of `SHAPES`, seeds
    1000 * bundles + 1 to 4 each, summed per shape."""
    per_unit = []
    for bundles, players in SHAPES:
        cases = chain_instances((1000 * bundles + seed, bundles, players)
                                for seed in range(1, 5))
        before, size = count(), 0
        for game, profile in cases:
            nsepa_transform(game, profile)
            size += sum(len(choice) for choice in profile) + len(game.resources)
        per_unit.append((count() - before) / size)
    return per_unit


def test_transform_user_reads_grow_linearly(monkeypatch):
    """The user entries that `nsepa_transform` reads through
    `Profile.users`, per (player, edge) pair plus edge, grow at most 1.4x
    over each of the last two doublings of bundles and players.

    The transform keeps each edge's paid total, so it reads an edge's users
    to price a move, to build the LP and to balance the edge at the end.
    Measured: 1.69, 2.92, 3.70 and 4.34 entries (1.27x, then 1.17x).
    Summing every edge's shares over its users at each phase and before
    each substitution gives 2.81, 6.71, 11.21 and 17.21 (1.67x, then 1.54x).
    """
    read = 0
    real = Profile.users

    def counting(self, rid):
        nonlocal read
        users = real(self, rid)
        read += len(users)
        return users

    monkeypatch.setattr(Profile, "users", counting)
    per_unit = _transform_work(lambda: read)
    ratios = [b / a for a, b in zip(per_unit[1:], per_unit[2:])]
    assert max(ratios) <= 1.4, (per_unit, ratios)


class _Examined(dict):
    """A search tree that counts the entries its membership tests and
    iterations examine."""

    examined = 0

    def __contains__(self, key):
        _Examined.examined += 1
        return super().__contains__(key)

    def __iter__(self):
        for key in super().__iter__():
            _Examined.examined += 1
            yield key

    def items(self):
        for item in super().items():
            _Examined.examined += 1
            yield item


def test_transform_search_tree_reads_grow_linearly(monkeypatch):
    """The entries of `Network.dijkstra`'s trees that `nsepa_transform`
    examines, by membership test or iteration, per (player, edge) pair
    plus edge, grow at most 1.4x over each of the last two doublings of
    bundles and players.

    A detour search's tree holds only the pieces attached at its start, and
    the reached path nodes are read off it.  Measured: 1.38, 3.18, 3.97
    and 5.05 entries (1.25x, then 1.27x).  Testing every later path
    position against each tree gives 1.47, 5.80, 14.27 and 31.53 (2.46x,
    then 2.21x).
    """
    real = Network.dijkstra
    monkeypatch.setattr(Network, "dijkstra",
                        lambda self, *args, **kwargs: _Examined(real(self, *args, **kwargs)))
    monkeypatch.setattr(_Examined, "examined", 0)
    per_unit = _transform_work(lambda: _Examined.examined)
    ratios = [b / a for a, b in zip(per_unit[1:], per_unit[2:])]
    assert max(ratios) <= 1.4, (per_unit, ratios)


SRC = Path(sepshare.lp.__file__).resolve().parents[1]


def _loaded(code: str) -> set[str]:
    """The names of the modules that a fresh interpreter has loaded after
    running `code`."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_the_cli_imports_no_generated_record_code():
    """A fresh interpreter that imports `sepshare.cli` has loaded neither
    `dataclasses` nor `inspect`.  Each record is a NamedTuple, built
    without the generated methods that a frozen dataclass compiles and
    executes on every import, so the start-up that every CLI run pays,
    bench `setup_s`, pays for neither module.

    Twenty frozen dataclasses loaded both modules, and `ast`, `dis`,
    `tokenize`, `linecache` and `copy` with them, and an audit hook
    counted 129 compiles of generated source during the import.  With
    NamedTuples it counts 92, 72 of them string annotations.
    """
    assert not {"dataclasses", "inspect"} & _loaded("import sepshare.cli")


def test_the_cli_import_loads_only_the_schema_layer():
    """A fresh `import sepshare.cli` loads at most 2,400 lines of the
    package.  Without a bytecode cache each loaded line is compiled, and
    that compiling is most of the start-up that every CLI run pays.

    Measured: 2,292 lines, in `errors`, `rationals`, `network`, `game`,
    `protocol`, `matroids`, `schema`, `cli` and the package's
    `__init__`.  When `__init__` imported every public name and `cli`
    every command's modules at its top, the import loaded all 3,983
    lines of the package, `__main__` aside.
    """
    files = [SRC / "sepshare" / f"{name.partition('.')[2] or '__init__'}.py"
             for name in _loaded("import sepshare.cli") if name.partition(".")[0] == "sepshare"]
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)
    assert lines <= 2400, lines


@pytest.mark.parametrize("family, command, runs, unused", [
    ("ufl", ["transform-matroid"], "matroids", {"lp", "nsepa", "singlesource", "oracle", "gen"}),
    ("tree", ["transform-tree"], "singlesource", {"lp", "nsepa", "oracle", "gen"}),
    ("sp", ["nsepa", "transform"], "nsepa", {"singlesource", "oracle", "gen"}),
], ids=["transform-matroid", "transform-tree", "nsepa-transform"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, family, command, runs, unused):
    """A fresh interpreter that runs one transform on a small generated
    document loads the module of that transform and none of the modules
    that only other commands run."""
    doc = tmp_path / "instance.json"
    assert cli.run(["gen", family, "--out", str(doc)]) == 0
    argv = command + ["--in", str(doc), "--out", os.devnull]
    loaded = _loaded(f"import sepshare.cli\nassert sepshare.cli.run({argv!r}) == 0")
    assert f"sepshare.{runs}" in loaded
    assert sorted(f"sepshare.{name}" for name in unused if f"sepshare.{name}" in loaded) == []
