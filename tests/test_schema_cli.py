"""Instance serialization and the command-line front end."""

import argparse
import io
import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest

from _helpers import path_game, ufl_game
from _oracles import per_entry_game_from_json
from sepshare import schema
from sepshare.cli import build_parser, run
from sepshare.errors import InputError
from sepshare.game import CostFunction, GameModel, Profile, Step
from sepshare.gen import gen_matroid, gen_sp
from sepshare.protocol import Deviation, PneReport
from sepshare.rationals import parse_rational
from sepshare.schema import (
    dumps,
    game_from_json,
    game_to_json,
    jsonable,
    loads,
    profile_from_json,
    profile_to_json,
    protocol_from_json,
    protocol_to_json,
)


class TestSchema:
    def test_path_game_round_trip_is_byte_identical(self):
        g = path_game(
            [("s", "a", 2), ("a", "t", "7/2")], [("s", "t")], delays=[{0: F(1, 3)}]
        )
        doc = game_to_json(g)
        text = dumps(doc)
        again = game_to_json(game_from_json(loads(text)))
        assert dumps(again) == text

    def test_matroid_game_round_trip_is_byte_identical(self):
        g = ufl_game((10, 8), delays=[{}, {0: F(2)}])
        text = dumps(game_to_json(g))
        again = dumps(game_to_json(game_from_json(loads(text))))
        assert again == text

    def test_profile_round_trip(self):
        g = path_game([("s", "a", 2), ("a", "t", 3)], [("s", "t")])
        p = Profile([{0, 1}])
        doc = profile_to_json(p)
        assert profile_from_json(doc, g) == p

    def test_protocol_round_trip(self):
        from sepshare.protocol import SeparableProtocol

        g = ufl_game((10, 8))
        base = Profile([{0}, {0}])
        proto = SeparableProtocol(g, base, {(0, 0): F(7), (1, 0): F(3)})
        doc = protocol_to_json(proto)
        back = protocol_from_json(loads(dumps(doc)), g)
        assert back.shares == proto.shares
        assert back.base == base

    def test_floats_are_banned_from_reports(self):
        with pytest.raises(InputError):
            jsonable(0.5)

    def test_unformatted_fractions_are_banned_from_reports(self):
        """Reports format rationals where they are built; a Fraction that
        reaches the encoder would print unlike its integral twin, an int."""
        with pytest.raises(InputError):
            jsonable(F(1, 3))

    @pytest.mark.parametrize("record", [
        Step("delay", 0, 1, -2, source=0),
        PneReport(ok=False, deviations=(Deviation(0, 3, 2, frozenset({1})),)),
    ], ids=lambda r: type(r).__name__)
    def test_records_are_banned_from_reports(self, record):
        """Records are NamedTuples, yet one that reaches the encoder is
        refused, not written as a list of its fields."""
        name = type(record).__name__
        with pytest.raises(InputError, match=f"^cannot encode {name} in a report$"):
            jsonable({"nested": [record]})

    def test_float_costs_are_rejected_on_load(self):
        g = path_game([("s", "t", 1)], [("s", "t")])
        doc = game_to_json(g)
        doc["costs"]["0"] = 1.5
        with pytest.raises(InputError):
            game_from_json(doc)

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(InputError, match=r"line 2 column"):
            loads('{\n  "unterminated: 1}')


# odd, bad and non-string values; drawn from a small pool, so that one
# document often repeats a string the loader has parsed before
VALUES = [" 1", "+1", "01", "2/4", "1/0", "1.5", "-3/1", "-1", "x", "", "7/1", "0/1",
          5, None, [1], {"a": 1}, True, 1.5]


def _key_forms(players, rng):
    """A table key as written by a careless producer: unsorted, repeated,
    padded, signed or zero-filled ids, or not ids at all."""
    ids = [str(i) for i in rng.sample(range(players + 1), rng.randint(1, players))]
    form = rng.choice(("unsorted", "repeated", "padded", "bad"))
    if form == "unsorted":
        ids.sort(reverse=True)
    elif form == "repeated":
        ids.append(ids[0])
    elif form == "padded":
        ids[0] = rng.choice((" ", "+", "0")) + ids[0]
    else:
        return rng.choice(("1.5", "1/0", "x", "1,,2", ","))
    return ",".join(ids)


def _mutate(doc, rng):
    """One seeded edit of a matroid game document's costs or delays."""
    tables = [c["subadditive_table"] for c in doc["costs"].values()
              if isinstance(c, dict) and "subadditive_table" in c]
    fixed = [k for k, c in doc["costs"].items() if isinstance(c, str)]
    edit = rng.choice(("key", "alias", "empty", "value", "fixed", "delay"))
    if edit in ("key", "alias", "empty", "value") and tables:
        table = rng.choice(tables)
        value = rng.choice(VALUES + ["3/1"] * 4)
        if edit == "value" and table:
            table[rng.choice(list(table))] = value
        elif edit == "empty":
            table[""] = rng.choice(("0/1", "3/1", "0", "-0/5"))
        else:
            # an alias of an existing key, before or after it: the later one wins
            items = list(table.items())
            key = _key_forms(doc["players"], rng)
            items.insert(rng.randint(0, len(items)), (key, value))
            if edit == "key" and len(items) > 1:
                items.pop(rng.randrange(len(items)))
            table.clear()
            table.update(items)
    elif edit == "fixed" and fixed:
        doc["costs"][rng.choice(fixed)] = rng.choice(VALUES)
    elif doc.get("delays"):
        row = rng.choice(doc["delays"])
        row[rng.randrange(len(row))] = rng.choice(VALUES)


def _loaded(load, doc):
    """The cost and delay maps a loader builds, or the error it raises."""
    try:
        game = load(doc)
    except InputError as ex:
        return type(ex).__name__, str(ex)
    costs = {e: cost if e in game.fixed else cost.table for e, cost in game.costs.items()}
    delays = {(i, e): game.delay(i, e) for i in range(game.n) for e in game.resources}
    return costs, delays


TABLE = {"subadditive_table": {"0": "3/1", "1": "4/1", "0,1": "5/1"}}


class TestLoaderParsesEachStringOnce:
    def test_matches_a_loader_that_parses_every_entry(self):
        rng = random.Random(1212)
        outcomes = Counter()
        for n in range(400):
            game = gen_matroid(rng, players=rng.randint(2, 4), resources=rng.randint(3, 8))
            doc = json.loads(dumps(game_to_json(game)))
            for _ in range(rng.randint(0, 3)):
                _mutate(doc, rng)
            expected = _loaded(per_entry_game_from_json, doc)
            assert _loaded(game_from_json, doc) == expected, n
            outcomes[isinstance(expected[0], str)] += 1
        # both outcomes are common: the comparison is not all errors
        assert min(outcomes.values()) >= 100, outcomes

    @pytest.mark.parametrize("table, expected", [
        ({"2,1": "3/1"}, {frozenset({1, 2}): F(3)}),
        ({"1,1": "3/1"}, {frozenset({1}): F(3)}),
        ({"1,2": "3/1", "2,1": "4/1"}, {frozenset({1, 2}): F(4)}),
        ({"1": "1/1", "01": "3/1"}, {frozenset({1}): F(3)}),
        ({"": "0/1", "1": "-2/1"}, {frozenset(): F(0), frozenset({1}): F(-2)}),
        ({"1": "1/0"}, "malformed rational '1/0'"),
        ({"1": "1.5"}, "malformed rational '1.5'"),
        ({"1": 5}, "not an exact rational string: 5"),
        ({"1.5": "1/1"}, "bad player set key '1.5'"),
        ({"": "1/1"}, "cost of the empty set must be 0"),
    ])
    def test_table_keys_and_values(self, table, expected):
        game = ufl_game([5, 3])
        doc = game_to_json(game)
        doc["costs"]["0"] = {"subadditive_table": table}
        doc["costs"]["1"] = {"subadditive_table": dict(table)}
        for load in (game_from_json, per_entry_game_from_json):
            if isinstance(expected, str):
                with pytest.raises(InputError, match=expected.replace(".", r"\.")):
                    load(doc)
            else:
                assert load(doc).costs[1].table == expected

    def _sp_doc(self, tmp_path, cost, graph_cost):
        _code, inst = run_to_file(tmp_path, "sp.json", ["gen", "sp", "--seed", "3"])
        doc = json.loads(inst.read_text())
        doc["costs"]["0"] = cost
        doc["graph"]["edges"][0][2] = graph_cost
        inst.write_text(dumps(doc) + "\n")
        return doc, inst

    def test_a_graph_block_may_repeat_an_equal_table(self, tmp_path):
        cost = {"subadditive_table": {"0": "3/1", "1": "4/1", "0,1": "5/1"}}
        same = {"subadditive_table": {"1,0": "5/1", "01": "4/1", "0": "3/1"}}
        doc, _inst = self._sp_doc(tmp_path, cost, same)
        table = game_from_json(doc).costs[0].table
        assert table == {frozenset({0}): 3, frozenset({1}): 4, frozenset({0, 1}): 5}

    @pytest.mark.parametrize("cost, graph_cost", [
        (TABLE, {"subadditive_table": {"0": "3/1", "1": "4/1", "0,1": "6/1"}}),
        (TABLE, {"subadditive_table": {"0": "3/1", "1": "4/1"}}),
        (TABLE, "5/1"),
        ("5/1", {"subadditive_table": {"0": "5/1", "1": "5/1", "0,1": "5/1"}}),
        ("5/1", "6/1"),
    ], ids=["other-value", "missing-entry", "fixed", "fixed-against-table", "fixed-other-value"])
    def test_a_contradicting_graph_table_exits_two(self, tmp_path, capsys, cost, graph_cost):
        """Resource 0's graph cost contradicts its cost in `costs`: a table
        there against another table or a fixed cost, and a fixed cost there
        against a table or another value."""
        _doc, inst = self._sp_doc(tmp_path, cost, graph_cost)
        capsys.readouterr()
        code, _rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "input error: graph cost for resource 0 contradicts 'costs'\n"


def _tables_doc(*tables):
    """A three-player facility game document whose resources carry these
    tables, one each."""
    doc = game_to_json(ufl_game([1] * len(tables), players=3))
    for e, table in enumerate(tables):
        doc["costs"][str(e)] = {"subadditive_table": table}
    return doc


def _same_as_per_entry(doc):
    """What `game_from_json` gives for `doc`, checked against the loader
    that parses every entry where it stands."""
    loaded = _loaded(game_from_json, doc)
    assert loaded == _loaded(per_entry_game_from_json, doc)
    return loaded


FORWARD = {"0": "2/1", "1": "2/1", "2": "3/1", "0,1": "3/1", "0,2": "4/1", "1,2": "4/1",
           "0,1,2": "5/1"}


def _with(table, **values):
    """`table` with some values replaced, keys named by their ids."""
    return {k: values.get("k" + k.replace(",", ""), v) for k, v in table.items()}


class TestSharedKeyIndex:
    """Tables of one document that list the same keys in the same order
    share one key index; each keeps only its values."""

    def test_tables_in_one_key_order_share_one_index(self):
        backward = dict(reversed(FORWARD.items()))
        doc = _tables_doc(FORWARD, _with(FORWARD, k0="1/1"), _with(FORWARD, k012="9/2"),
                          backward, _with(backward, k12="7/2"))
        costs, _delays = _same_as_per_entry(doc)
        assert costs[0] == costs[3] and costs[4][frozenset({1, 2})] == F(7, 2)
        index = [cf._index for cf in game_from_json(doc).costs.values()]
        assert index[0] is index[1] is index[2] and index[3] is index[4]
        assert index[0] is not index[3] and index[0].keys() == index[3].keys()

    @pytest.mark.parametrize("first, second", [("0,1", "1,0"), ("1,0", "0,1")])
    def test_a_set_listed_twice_keeps_its_later_entry(self, first, second):
        one = {"0": "1/1", first: "3/1", second: "4/1"}
        again = {"0": "2/1", first: "5/1", second: "6/1"}
        other = {"0": "1/1", second: "3/1", first: "4/1"}
        costs, _delays = _same_as_per_entry(_tables_doc(one, again, other))
        assert [costs[e][frozenset({0, 1})] for e in range(3)] == [4, 6, 4]
        assert all(len(costs[e]) == 2 for e in range(3))

    @pytest.mark.parametrize("bad, error", [
        ({"0": "x", "1.5": "1/1"}, "malformed rational 'x'"),
        ({"1.5": "1/1", "0": "x"}, "bad player set key '1.5'"),
        ({"0": "1/1", "1.5": "x"}, "bad player set key '1.5'"),
        ({"0": "1/1", "1": [1], "x": "1/1"}, "not an exact rational string: [1]"),
    ], ids=["value-then-key", "key-then-value", "one-entry", "unhashable-then-key"])
    def test_the_first_bad_entry_names_the_error(self, bad, error):
        doc = _tables_doc(FORWARD, dict(bad), FORWARD)
        assert _same_as_per_entry(doc) == ("InputError", error)

    @pytest.mark.parametrize("value, error", [
        ("1/0", "malformed rational '1/0'"),
        (5, "not an exact rational string: 5"),
        ([1], "not an exact rational string: [1]"),
        (None, "not an exact rational string: None"),
    ])
    def test_a_repeated_key_order_still_reads_every_value(self, value, error):
        doc = _tables_doc(FORWARD, FORWARD, {**FORWARD, "0,2": value})
        assert _same_as_per_entry(doc) == ("InputError", error)

    @pytest.mark.parametrize("table, name", [
        (["0", "1"], "list"), ("0,1", "str"), (5, "int"), (None, "NoneType"),
    ], ids=["list-of-strings", "string", "number", "null"])
    def test_a_table_that_is_not_an_object_exits_two(self, tmp_path, capsys, table, name):
        doc = _tables_doc(FORWARD, table)
        error = f"malformed game object: '{name}' object has no attribute 'items'"
        assert _same_as_per_entry(doc) == ("InputError", error)
        capsys.readouterr()
        code = run(["transform-matroid", "--in", str(_write_doc(tmp_path, doc))])
        assert (code, capsys.readouterr().err) == (2, f"input error: {error}\n")

    def test_a_graph_table_in_another_key_order(self, tmp_path, capsys):
        """The graph block repeats resource 0's table in reversed key
        order, first equal, then with one value changed."""
        _code, inst = run_to_file(tmp_path, "sp.json", ["gen", "sp", "--seed", "3"])
        doc = json.loads(inst.read_text())
        cost = {"subadditive_table": {"0": "3/1", "1": "4/1", "0,1": "5/1"}}
        doc["costs"]["0"] = doc["costs"]["1"] = doc["graph"]["edges"][1][2] = cost
        edge = doc["graph"]["edges"][0]
        edge[2] = {"subadditive_table": {"0,1": "5/1", "1": "4/1", "0": "3/1"}}
        table = game_from_json(doc).costs[0].table
        assert table == {frozenset({0}): 3, frozenset({1}): 4, frozenset({0, 1}): 5}
        edge[2]["subadditive_table"]["0,1"] = "6/1"
        capsys.readouterr()
        assert run(["verify", "--in", str(_write_doc(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err == "input error: graph cost for resource 0 contradicts 'costs'\n"

    def test_the_key_memo_reads_each_key_order_once(self, monkeypatch):
        """Reading 20 tables over 10 players in one key order looks up
        each of its 1,023 keys once; parsing every entry looked up
        20,460."""
        lookups = Counter()

        class Counting(schema._Once):
            def __getitem__(self, text):
                lookups[self.parse is schema.parse_users] += 1
                return super().__getitem__(text)

        rng = random.Random(2020)
        game = gen_matroid(rng, players=10, resources=20)
        sets = [frozenset(c) for r in range(1, 11) for c in combinations(range(10), r)]
        costs = {}
        for e in game.resources:
            weights, cap = [rng.randint(1, 9) for _ in range(10)], rng.randint(4, 30)
            costs[e] = CostFunction(table={s: min(cap, sum(weights[i] for i in s)) for s in sets})
        game = GameModel(game.n, game.resources, costs, game.spaces)
        doc = json.loads(dumps(game_to_json(game)))
        monkeypatch.setattr(schema, "_Once", Counting)
        loaded = game_from_json(doc)
        assert lookups[True] == len(sets) == 1023
        assert all(loaded.costs[e].table == costs[e].table for e in game.resources)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out


class TestCli:
    def test_fixture_optimum_verifies_as_unenforceable(self, tmp_path):
        code, inst = run_to_file(tmp_path, "fixture.json", ["fixture", "theorem5"])
        assert code == 0
        code, rep = run_to_file(
            tmp_path,
            "verify.json",
            ["verify", "--in", str(inst), "--profile", "opt"],
        )
        assert code == 1
        doc = json.loads(rep.read_text())
        assert doc["enforceable"] is False
        assert doc["input_cost"] == "346/1"

    def test_generated_facility_instance_transforms_cleanly(self, tmp_path):
        code, inst = run_to_file(
            tmp_path,
            "ufl.json",
            ["gen", "ufl", "--players", "2", "--facilities", "2", "--seed", "7"],
        )
        assert code == 0
        code, rep = run_to_file(
            tmp_path, "report.json", ["transform-matroid", "--in", str(inst)]
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["pne_verified"] is True
        assert doc["budget_balanced"] is True
        assert parse_rational(doc["output_cost"]) <= parse_rational(doc["input_cost"])

    def test_empty_player_tree_transform_reports_zero_costs(self, tmp_path):
        g = path_game([("s", "t", 1)], [])
        inst = tmp_path / "empty.json"
        inst.write_text(dumps(game_to_json(g)) + "\n")
        code, rep = run_to_file(
            tmp_path, "report.json", ["transform-tree", "--in", str(inst)]
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["input_cost"] == "0/1"
        assert doc["output_cost"] == "0/1"
        # the same keys as the report of a game with players
        _code, gen = run_to_file(tmp_path, "g.json", ["gen", "tree", "--seed", "1"])
        _code, full = run_to_file(tmp_path, "f.json", ["transform-tree", "--in", str(gen)])
        assert doc["repairs"] == []
        assert doc.keys() == json.loads(full.read_text()).keys()

    def test_all_zero_delays_are_no_delays_to_the_tree_transform(self, tmp_path):
        """Delays of "0/1" leave every delay row empty, so a tree game that
        lists them passes the single-source check and transforms as the
        same game without them."""
        _code, gen = run_to_file(tmp_path, "g.json", ["gen", "tree", "--seed", "1"])
        doc = json.loads(gen.read_text())
        doc["delays"] = [["0/1"] * len(doc["resources"]) for _ in range(doc["players"])]
        assert not game_from_json(doc).has_delays
        inst = _write_doc(tmp_path, doc, "zero.json")
        code, zero = run_to_file(tmp_path, "z.json", ["transform-tree", "--in", str(inst)])
        _code, plain = run_to_file(tmp_path, "p.json", ["transform-tree", "--in", str(gen)])
        assert code == 0 and zero.read_text() == plain.read_text()

    def test_malformed_instance_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run(["verify", "--in", str(bad)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert run(["verify", "--in", str(tmp_path / "nope.json")]) == 2

    def test_bad_rational_exits_two(self, tmp_path):
        g = path_game([("s", "t", 1)], [("s", "t")])
        doc = game_to_json(g)
        doc["costs"]["0"] = "5/0"
        inst = tmp_path / "inst.json"
        inst.write_text(dumps(doc) + "\n")
        assert run(["verify", "--in", str(inst), "--profile", "embedded"]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("delays", 1.5), ("profile", "x"), ("profile", 1.7)],
        ids=["float-delay", "string-profile-entry", "float-profile-entry"],
    )
    def test_bad_values_exit_two_with_one_line(self, tmp_path, capsys, field, value):
        _code, inst = run_to_file(
            tmp_path,
            "ufl.json",
            ["gen", "ufl", "--players", "2", "--facilities", "2", "--seed", "7"],
        )
        doc = json.loads(inst.read_text())
        doc[field][0][0] = value
        inst.write_text(dumps(doc) + "\n")
        capsys.readouterr()
        code = run(["transform-matroid", "--in", str(inst),
                    "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("gen, command", [
        (["ufl", "--players", "3", "--facilities", "3"], ["transform-matroid"]),
        (["ufl", "--players", "3", "--facilities", "3"], ["verify"]),
        (["sp", "--players", "3"], ["nsepa", "check"]),
        (["sp", "--players", "3"], ["verify"]),
    ], ids=["transform-matroid", "verify-matroid", "nsepa-check", "verify-path"])
    def test_infeasible_embedded_profile_exits_two_with_one_line(
            self, tmp_path, capsys, gen, command):
        _code, inst = run_to_file(tmp_path, "g.json", ["gen", *gen, "--seed", "4"])
        doc = json.loads(inst.read_text())
        # a set, since a row that repeats an id exits 2 before the space check
        doc["profile"][1] = sorted({*doc["profile"][1], *doc["profile"][0], max(doc["resources"])})
        inst.write_text(dumps(doc) + "\n")
        capsys.readouterr()
        code, _rep = run_to_file(tmp_path, "r.json", command + ["--in", str(inst)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "input error: choice of player 1 is not in their space\n"

    @pytest.mark.parametrize("space", [
        {"uniform": {"ground": [0, 0, 1], "rank": 1}},
        {"partition": {"blocks": [[0, 0], [1]], "quotas": [1, 1]}},
        {"graphic": {"ground": [0, 0], "edges": [["a", "b"], ["b", "c"]]}},
    ], ids=["uniform", "partition", "graphic"])
    def test_a_repeated_matroid_element_exits_two_with_one_line(self, tmp_path, capsys, space):
        # before, the repeat was dropped and the command ran on another game
        _code, inst = run_to_file(tmp_path, "g.json", ["gen", "ufl", "--players", "1",
                                                       "--facilities", "3", "--seed", "1"])
        doc = json.loads(inst.read_text())
        doc["spaces"][0]["matroid"] = space
        inst.write_text(dumps(doc) + "\n")
        capsys.readouterr()
        code, rep = run_to_file(tmp_path, "r.json", ["transform-matroid", "--in", str(inst)])
        assert code == 2 and not rep.exists()
        assert capsys.readouterr().err == "input error: matroid ground repeats an element\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(protocol={"base": doc["profile"], "shares": [
            {"player": 0, "resource": 1, "share": "1/1"},
            {"player": 0, "resource": 1, "share": "5/1"}]}),
         "protocol repeats the share of player 0 on resource 1"),
        (lambda doc: doc["profile"][0].append(doc["profile"][0][0]),
         "profile row 0 repeats resource 1"),
        (lambda doc: doc.update(protocol={"base": [[1], [2, 0, 2]], "shares": []}),
         "profile row 1 repeats resource 2"),
    ], ids=["share-row", "profile-id", "base-id"])
    def test_a_repeated_share_row_or_profile_id_exits_two_with_one_line(
            self, tmp_path, capsys, edit, message):
        # before, the last share row won and a profile row read as its set
        _code, inst = run_to_file(tmp_path, "g.json", ["gen", "ufl", "--players", "2",
                                                       "--facilities", "3", "--seed", "1"])
        doc = json.loads(inst.read_text())
        assert doc["profile"] == [[1], [2]]
        edit(doc)
        inst.write_text(dumps(doc) + "\n")
        capsys.readouterr()
        code, rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 2 and not rep.exists()
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "edit",
        [lambda path: path.pop("terminal"),
         lambda path: path.update(source=[1, 2])],
        ids=["path-space-without-terminal", "list-valued-vertex"],
    )
    def test_bad_path_spaces_exit_two_with_one_line(self, tmp_path, capsys, edit):
        _code, inst = run_to_file(tmp_path, "sp.json", ["gen", "sp", "--seed", "3"])
        doc = json.loads(inst.read_text())
        edit(doc["spaces"][0]["path"])
        inst.write_text(dumps(doc) + "\n")
        capsys.readouterr()
        code = run(["nsepa", "transform", "--in", str(inst),
                    "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_blown_enumeration_budget_exits_three(self, tmp_path):
        g = path_game(
            [("s", "t", 1), ("s", "t", 2)], [("s", "t"), ("s", "t")]
        )
        doc = game_to_json(g)
        doc["profile"] = profile_to_json(Profile([{0}, {0}]))["profile"]
        inst = tmp_path / "inst.json"
        inst.write_text(dumps(doc) + "\n")
        code = run(["optimum", "--in", str(inst), "--max-profiles", "1",
                    "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_reports_are_byte_stable(self, tmp_path):
        argv = ["gen", "sp", "--seed", "3"]
        _code, first = run_to_file(tmp_path, "a.json", argv)
        _code, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

        code, rep1 = run_to_file(
            tmp_path, "r1.json", ["nsepa", "transform", "--in", str(first)]
        )
        code2, rep2 = run_to_file(
            tmp_path, "r2.json", ["nsepa", "transform", "--in", str(first)]
        )
        assert (code, code2) == (0, 0)
        assert rep1.read_bytes() == rep2.read_bytes()

    @pytest.mark.parametrize(
        "gen, command, kinds, deltas_add_up",
        [
            (["ufl", "--players", "6", "--facilities", "8"], ["transform-matroid"],
             {"delay", "cover"}, True),
            (["matroid"], ["transform-matroid"], {"delay", "cover"}, True),
            # a drop delta is the change in auxiliary tree cost, not in total cost
            (["tree"], ["transform-tree"], {"close", "drop"}, False),
            (["sp"], ["nsepa", "transform"], {"repair", "substitute"}, True),
        ],
        ids=["transform-matroid-ufl", "transform-matroid", "transform-tree",
             "nsepa-transform"],
    )
    def test_trace_lines_are_json_steps(self, tmp_path, gen, command, kinds,
                                        deltas_add_up):
        keys = {
            "delay": {"from", "resource"},
            "cover": {"from", "resource"},
            "close": {"resource"},
            "drop": {"resource"},
            "repair": set(),
            "substitute": {"phase", "resource"},
        }
        steps = 0
        for seed in range(1, 11):
            code, inst = run_to_file(tmp_path, "inst.json",
                                     ["gen", *gen, "--seed", str(seed)])
            tracefile = tmp_path / "trace.jsonl"
            code, rep = run_to_file(tmp_path, "r.json", command + [
                "--in", str(inst), "--trace", str(tracefile)])
            assert code == 0
            lines = [json.loads(s) for s in tracefile.read_text().splitlines()]
            for line in lines:
                assert line["step"] in kinds
                assert set(line) == {"step", "player", "cost_delta"} | keys[line["step"]]
            steps += len(lines)
            if deltas_add_up:
                doc = json.loads(rep.read_text())
                total = sum((parse_rational(line["cost_delta"]) for line in lines), F(0))
                assert total == (parse_rational(doc["output_cost"])
                                 - parse_rational(doc["input_cost"]))
        assert steps

    @pytest.mark.parametrize("gen, command", [
        (["ufl", "--players", "6", "--facilities", "8"], "transform-matroid"),
        (["matroid"], "transform-matroid"),
        (["tree"], "transform-tree"),
    ], ids=["transform-matroid-ufl", "transform-matroid", "transform-tree"])
    def test_each_profile_is_checked_once_per_command(self, tmp_path, monkeypatch,
                                                      gen, command):
        """A command checks each distinct profile's feasibility once, however
        often its entry points validate it (6 and 8 full checks per
        transform-matroid and transform-tree command before profiles were
        remembered)."""
        validate = GameModel.validate_profile
        feasible = GameModel.is_feasible_choice
        choices_checked = [0]
        full_checks = Counter()  # profile -> full checks of all its choices

        def counted_feasible(game, i, choice):
            choices_checked[0] += 1
            return feasible(game, i, choice)

        def counted_validate(game, profile):
            before = choices_checked[0]
            validate(game, profile)
            assert choices_checked[0] - before in (0, game.n)
            full_checks[profile] += choices_checked[0] > before

        monkeypatch.setattr(GameModel, "is_feasible_choice", counted_feasible)
        monkeypatch.setattr(GameModel, "validate_profile", counted_validate)
        for seed in range(1, 11):
            _code, inst = run_to_file(tmp_path, "inst.json",
                                      ["gen", *gen, "--seed", str(seed)])
            full_checks.clear()
            code, _rep = run_to_file(tmp_path, "r.json", [command, "--in", str(inst)])
            assert code == 0
            assert full_checks and set(full_checks.values()) == {1}, seed

    def test_approx_display_adds_decimals(self, tmp_path):
        code, inst = run_to_file(tmp_path, "fixture.json", ["fixture", "theorem5"])
        code, rep = run_to_file(
            tmp_path,
            "verify.json",
            ["verify", "--in", str(inst), "--profile", "opt", "--approx-display"],
        )
        doc = json.loads(rep.read_text())
        assert "input_cost_approx" in doc

    def test_enforceable_profile_verifies_exit_zero(self, tmp_path):
        g = path_game([("s", "t", 3), ("s", "t", 5)], [("s", "t")])
        doc = game_to_json(g)
        doc["profile"] = profile_to_json(Profile([{0}]))["profile"]
        inst = tmp_path / "inst.json"
        inst.write_text(dumps(doc) + "\n")
        code, rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 0
        assert json.loads(rep.read_text())["enforceable"] is True


def _write_doc(tmp_path, doc, name="inst.json"):
    inst = tmp_path / name
    inst.write_text(dumps(doc) + "\n")
    return inst


def _two_link_doc():
    """One player over two parallel links costing 3 and 5, on the cheap one."""
    doc = game_to_json(path_game([("s", "t", 3), ("s", "t", 5)], [("s", "t")]))
    doc["profile"] = [[0]]
    return doc


class TestCliPaths:
    @pytest.mark.parametrize("command, game", [
        (["transform-matroid"], ufl_game([3], players=0)),
        (["nsepa", "transform"], path_game([], [])),
        (["verify"], path_game([], [])),
        (["verify"], ufl_game([3], players=0)),
        (["nsepa", "check"], path_game([], [])),
        (["optimum"], ufl_game([3], players=0)),
    ], ids=["transform-matroid", "nsepa-transform", "verify-path", "verify-matroid",
            "nsepa-check", "optimum-matroid"])
    def test_zero_player_game_needs_no_profile(self, tmp_path, command, game):
        inst = _write_doc(tmp_path, game_to_json(game))
        code, rep = run_to_file(tmp_path, "r.json", command + ["--in", str(inst)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert (doc["input_cost"], doc["output_cost"], doc["enforceable"]) == (
            "0/1", "0/1", True)

    def test_optimum_of_an_enforceable_game_exits_zero(self, tmp_path):
        inst = _write_doc(tmp_path, _two_link_doc())
        code, rep = run_to_file(tmp_path, "r.json", ["optimum", "--in", str(inst)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["optimum_profile"] == [[0]]
        assert doc["unique"] is True
        assert (doc["output_cost"], doc["enforceable"]) == ("3/1", True)

    def test_optimum_of_the_theorem5_fixture_exits_one(self, tmp_path):
        _code, inst = run_to_file(tmp_path, "fixture.json", ["fixture", "theorem5"])
        code, rep = run_to_file(tmp_path, "r.json", ["optimum", "--in", str(inst)])
        assert code == 1
        doc = json.loads(rep.read_text())
        assert (doc["output_cost"], doc["unique"], doc["enforceable"]) == (
            "346/1", True, False)

    @pytest.mark.parametrize("seed, verdict", [
        (1, (1, False, False, False)), (2, (0, True, True, True)),
    ], ids=["not-enforceable", "enforceable"])
    def test_nsepa_check_verifies_the_lp_protocol_as_verify_does(self, tmp_path, seed, verdict):
        """An enforceable verdict comes with the PNE and budget-balance
        checks of the LP's protocol, as in `verify`; a negative one has no
        protocol, so both stay false."""
        _code, inst = run_to_file(tmp_path, "sp.json", ["gen", "sp", "--seed", str(seed)])
        for command in (["nsepa", "check"], ["verify"]):
            code, rep = run_to_file(tmp_path, "r.json", command + ["--in", str(inst)])
            doc = json.loads(rep.read_text())
            got = (code, doc["enforceable"], doc["pne_verified"], doc["budget_balanced"])
            assert got == verdict, command

    @pytest.mark.parametrize("shares, exit_code", [
        ([{"player": 0, "resource": 0, "share": "3/1"}], 0), ([], 1),
    ], ids=["balanced", "unpaid"])
    def test_verify_takes_a_protocol_file_for_a_path_game(self, tmp_path, shares, exit_code):
        inst = _write_doc(tmp_path, _two_link_doc())
        proto = _write_doc(tmp_path, {"base": [[0]], "shares": shares}, "proto.json")
        code, rep = run_to_file(tmp_path, "r.json",
                                ["verify", "--in", str(inst), "--protocol", str(proto)])
        assert code == exit_code
        doc = json.loads(rep.read_text())
        assert doc["enforceable"] is True
        assert doc["budget_balanced"] is (exit_code == 0)
        assert doc["protocol"]["shares"] == shares

    def test_embedded_picks_the_bundled_profile_over_named_ones(self, tmp_path):
        doc = _two_link_doc()
        doc["profiles"] = {"dear": [[1]]}
        inst = _write_doc(tmp_path, doc)
        verdicts = {}
        for pick in ("embedded", "dear"):
            code, rep = run_to_file(tmp_path, "r.json",
                                    ["verify", "--in", str(inst), "--profile", pick])
            verdicts[pick] = code, json.loads(rep.read_text())["input_cost"]
        assert verdicts == {"embedded": (0, "3/1"), "dear": (1, "5/1")}

    def _input_error(self, tmp_path, capsys, text):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        capsys.readouterr()
        code, _rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 2
        return capsys.readouterr().err

    def test_missing_profile_exits_two(self, tmp_path, capsys):
        doc = _two_link_doc()
        del doc["profile"]
        err = self._input_error(tmp_path, capsys, dumps(doc))
        assert err == "input error: no profile: bundle one in the instance or pass --profile\n"

    def test_non_object_document_exits_two(self, tmp_path, capsys):
        err = self._input_error(tmp_path, capsys, "[1, 2]")
        assert err == "input error: instance document must be a JSON object\n"

    def test_mixed_strategy_spaces_exit_two(self, tmp_path, capsys):
        """The game rejects mixed spaces when it is built, so every command
        stops there with the same line, before `optimum` counts profiles
        against its budget."""
        doc = _two_link_doc()
        doc["players"] = 2
        doc["spaces"].append({"matroid": {"uniform": {"ground": [0, 1], "rank": 1}}})
        doc["profile"].append([1])
        inst = _write_doc(tmp_path, doc)
        for command in (["transform-matroid"], ["transform-tree"], ["nsepa", "transform"],
                        ["nsepa", "check"], ["verify"], ["optimum"],
                        ["optimum", "--max-profiles", "1"]):
            capsys.readouterr()
            code, rep = run_to_file(tmp_path, "r.json", command + ["--in", str(inst)])
            assert code == 2 and not rep.exists(), command
            err = capsys.readouterr().err
            assert err == "input error: mixed strategy spaces are not supported\n", command

    @pytest.mark.parametrize("command, family", [
        (["transform-matroid"], "path"), (["transform-tree"], "matroid"),
        (["nsepa", "transform"], "matroid"), (["nsepa", "check"], "matroid"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_a_game_of_the_wrong_family_exits_two(self, tmp_path, capsys, command, family):
        if family == "path":
            doc, other = _two_link_doc(), "matroid"
        else:
            doc, other = game_to_json(ufl_game([3, 5], players=1)), "path"
            doc["profile"] = [[0]]
        inst = _write_doc(tmp_path, doc)
        capsys.readouterr()
        code, _rep = run_to_file(tmp_path, "r.json", command + ["--in", str(inst)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: the game has {family} spaces, not {other} spaces\n"
        )


class TestVerifyMatroid:
    """`verify` on a generated facility-location game."""

    def _instance(self, tmp_path):
        code, inst = run_to_file(
            tmp_path,
            "ufl.json",
            ["gen", "ufl", "--players", "4", "--facilities", "5", "--seed", "1"],
        )
        assert code == 0
        return inst

    def _rewritten(self, tmp_path, keep_protocol=False):
        inst = self._instance(tmp_path)
        doc = json.loads(inst.read_text())
        code, rep = run_to_file(
            tmp_path, "rewrite.json", ["transform-matroid", "--in", str(inst)]
        )
        assert code == 0
        out = json.loads(rep.read_text())
        doc["profile"] = out["profile"]
        if keep_protocol:
            doc["protocol"] = out["protocol"]
        inst = tmp_path / "rewritten.json"
        inst.write_text(dumps(doc) + "\n")
        return inst

    def test_rewritten_profile_verifies_with_a_protocol(self, tmp_path):
        inst = self._rewritten(tmp_path)
        code, rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["enforceable"] is True
        assert doc["pne_verified"] is True
        assert doc["budget_balanced"] is True
        assert "protocol" in doc

    def test_unenforceable_input_exits_one_without_protocol(self, tmp_path):
        inst = self._instance(tmp_path)
        code, rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 1
        doc = json.loads(rep.read_text())
        assert doc["enforceable"] is False
        assert "protocol" not in doc

    def test_bundled_protocol_is_verified(self, tmp_path):
        inst = self._rewritten(tmp_path, keep_protocol=True)
        code, rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["pne_verified"] is True
        assert doc["budget_balanced"] is True

    def test_true_mode_prices_each_pair_once(self, tmp_path, monkeypatch):
        # one call answers every (player, resource) pair of one player and
        # prices every element of the player's ground once
        from sepshare import matroids

        inst = self._rewritten(tmp_path)
        priced = Counter()
        asked = Counter()
        player = [None]  # the player of the `deviation_cost` call under way
        original = matroids.deviation_cost
        real_ranking = matroids.MatroidOracle.ranking

        def counting(game, profile, i):
            player[0] = i
            answer = original(game, profile, i)
            player[0] = None
            priced.update((i, e) for e in answer)
            return answer

        def ranking(self, price, order):
            i = player[0]
            return real_ranking(self, price if i is None else (
                lambda f: asked.update([(i, f)]) or price(f)), order)

        monkeypatch.setattr(matroids, "deviation_cost", counting)
        monkeypatch.setattr(matroids.MatroidOracle, "ranking", ranking)
        code, _rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)])
        assert code == 0
        doc = json.loads(inst.read_text())
        rows = doc["profile"]
        assert sorted(priced) == sorted((i, e) for i, row in enumerate(rows) for e in row)
        assert set(priced.values()) == {1}
        grounds = [space["matroid"]["uniform"]["ground"] for space in doc["spaces"]]
        assert asked == Counter((i, f) for i, ground in enumerate(grounds) for f in ground)


def _relabel_vertices(doc):
    """The same game with its vertices renamed 0, 1, ... in order of first
    appearance."""
    names: dict = {}
    for edge in doc["graph"]["edges"]:
        edge[0] = names.setdefault(edge[0], len(names))
        edge[1] = names.setdefault(edge[1], len(names))
    for space in doc["spaces"]:
        path = space["path"]
        path["source"] = names.setdefault(path["source"], len(names))
        path["terminal"] = names.setdefault(path["terminal"], len(names))
    return doc


@pytest.mark.parametrize("seed", range(1, 21))
def test_integer_vertex_labels_give_the_same_reports(tmp_path, seed):
    """JSON numbers are valid vertex labels: a series-parallel game with its
    vertices renamed to integers gives the same exit codes and reports."""
    _code, inst = run_to_file(
        tmp_path, "sp.json", ["gen", "sp", "--players", "3", "--seed", str(seed)]
    )
    twin = tmp_path / "twin.json"
    twin.write_text(dumps(_relabel_vertices(json.loads(inst.read_text()))) + "\n")
    for command in (["nsepa", "transform"], ["nsepa", "check"], ["verify"]):
        outcomes = [run_to_file(tmp_path, f"{src.stem}.out", command + ["--in", str(src)])
                    for src in (inst, twin)]
        (code, rep), (twin_code, twin_rep) = outcomes
        assert twin_code == code, command
        assert twin_rep.read_bytes() == rep.read_bytes(), command


def _set_space(desc):
    return lambda doc: doc["spaces"].__setitem__(0, {"matroid": desc})


MALFORMED = {
    "protocol-without-base": lambda doc: doc.update(protocol={"shares": []}),
    "share-row-without-share": lambda doc: doc.update(
        protocol={"base": doc["profile"], "shares": [{"player": 0, "resource": 0}]}),
    "protocol-list": lambda doc: doc.update(protocol=[]),
    "spaces-number": lambda doc: doc.update(spaces=5),
    "delays-number": lambda doc: doc.update(delays=5),
    "graph-number": lambda doc: doc.update(graph=7),
    "graph-edges-number": lambda doc: doc.update(graph={"edges": 5}),
    "uniform-rank-string": _set_space({"uniform": {"ground": [0, 1, 2], "rank": "x"}}),
    "uniform-ground-number": _set_space({"uniform": {"ground": 5, "rank": 1}}),
    "uniform-without-ground": _set_space({"uniform": {"rank": 1}}),
    "graphic-edge-one-end": _set_space({"graphic": {"edges": [[0]]}}),
    "partition-quota-string": _set_space(
        {"partition": {"blocks": [[0, 1, 2]], "quotas": ["a"]}}),
    "subadditive-table-number": lambda doc: doc["costs"].update(
        {"0": {"subadditive_table": 5}}),
    "profiles-number": lambda doc: doc.update(profiles=5),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_exit_two_with_one_line(tmp_path, capsys, edit):
    _code, inst = run_to_file(
        tmp_path, "ufl.json",
        ["gen", "ufl", "--players", "3", "--facilities", "3", "--seed", "1"],
    )
    doc = json.loads(inst.read_text())
    edit(doc)
    inst.write_text(dumps(doc) + "\n")
    capsys.readouterr()
    pick = ["--profile", "x"] if "profiles" in doc else []
    code, _rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(inst)] + pick)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ")


def _ufl_doc():
    """Two players sharing the cheaper of two facilities, with a bundled
    protocol that splits it evenly: `verify` exits 0."""
    doc = game_to_json(ufl_game((5, 3)))
    doc["profile"] = [[1], [1]]
    doc["protocol"] = {"base": [[1], [1]], "shares": [
        {"player": i, "resource": 1, "share": "3/2"} for i in (0, 1)]}
    return doc


def _partition_doc():
    doc = game_to_json(ufl_game((3, 5), players=1))
    doc["spaces"] = [{"matroid": {"partition": {"blocks": [[0, 1]], "quotas": [1]}}}]
    doc["profile"] = [[0]]
    return doc


def _share_field(field, value):
    return lambda doc: doc["protocol"]["shares"][0].__setitem__(field, value)


def _graph_directed(value):
    return lambda doc: doc["graph"].__setitem__("directed", value)


# (base document, edit, field named in the message); `int()` or `bool()`
# would read each edited value as a valid one
NOT_INTEGRAL = {
    "players-float": (_ufl_doc, lambda doc: doc.update(players=2.5), "players"),
    "players-bool": (_two_link_doc, lambda doc: doc.update(players=True), "players"),
    "resource-float": (_ufl_doc, lambda doc: doc.update(resources=[0, 1.5]), "a resource id"),
    "resource-string": (_ufl_doc, lambda doc: doc.update(resources=[0, "1"]), "a resource id"),
    "uniform-rank-float": (_ufl_doc, lambda doc: doc["spaces"][0]["matroid"]["uniform"]
                           .update(rank=1.7), "a rank"),
    "partition-quota-float": (_partition_doc, lambda doc: doc["spaces"][0]["matroid"]
                              ["partition"].update(quotas=[1.5]), "a quota"),
    "share-player-float": (_ufl_doc, _share_field("player", 0.5), "a share's player"),
    "share-resource-string": (_ufl_doc, _share_field("resource", "1"), "a share's resource"),
    "directed-zero": (_two_link_doc, _graph_directed(0), "graph.directed"),
    "directed-null": (_two_link_doc, _graph_directed(None), "graph.directed"),
    "directed-empty-string": (_two_link_doc, _graph_directed(""), "graph.directed"),
}


@pytest.mark.parametrize("make, edit, field", NOT_INTEGRAL.values(), ids=NOT_INTEGRAL.keys())
def test_counts_ids_and_flags_are_read_exactly(tmp_path, capsys, make, edit, field):
    """Counts and ids are JSON integers and `graph.directed` is true or
    false; any other value exits 2 with one line naming the field."""
    doc = make()
    verify = ["verify", "--in", str(tmp_path / "inst.json")]
    _write_doc(tmp_path, doc)
    assert run_to_file(tmp_path, "r.json", verify)[0] == 0
    edit(doc)
    _write_doc(tmp_path, doc)
    capsys.readouterr()
    code, _rep = run_to_file(tmp_path, "r.json", verify)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"input error: {field} must be ")

# a one-player space over facilities 0 and 1 that names one of them `x`
ELEMENT_IDS = {
    "uniform-float": (lambda x: {"uniform": {"ground": [0, x], "rank": 1}}, 1.0),
    "uniform-bool": (lambda x: {"uniform": {"ground": [0, x], "rank": 1}}, True),
    "partition-float": (lambda x: {"partition": {"blocks": [[0, x]], "quotas": [1]}}, 1.0),
    "partition-bool": (lambda x: {"partition": {"blocks": [[0], [x]], "quotas": [1, 0]}},
                       True),
    "graphic-float": (lambda x: {"graphic": {"ground": [0, x], "edges": [[0, 1], [0, 1]]}},
                      1.0),
    "graphic-bool": (lambda x: {"graphic": {"ground": [x, 1], "edges": [[0, 1], [0, 1]]}},
                     False),
}


@pytest.mark.parametrize("command", ["transform-matroid", "verify"])
@pytest.mark.parametrize("space, bad", ELEMENT_IDS.values(), ids=ELEMENT_IDS.keys())
def test_matroid_element_ids_are_read_exactly(tmp_path, capsys, command, space, bad):
    """A float or bool matroid element equal to an int id exits 2 with one
    line naming it, where the int id runs."""
    doc = _partition_doc()
    argv = [command, "--in", str(tmp_path / "inst.json")]
    doc["spaces"] = [{"matroid": space(int(bad))}]
    _write_doc(tmp_path, doc)
    assert run_to_file(tmp_path, "r.json", argv)[0] == 0
    doc["spaces"] = [{"matroid": space(bad)}]
    _write_doc(tmp_path, doc)
    capsys.readouterr()
    code, _rep = run_to_file(tmp_path, "r.json", argv)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"input error: a matroid element must be a JSON integer, not {bad!r}"]


# each bad value of ELEMENT_IDS, and a bool rank, with the field it names
TWIN_IDS = {name: (space, bad, "a matroid element") for name, (space, bad) in ELEMENT_IDS.items()}
TWIN_IDS["uniform-rank-bool"] = (lambda x: {"uniform": {"ground": [0, 1], "rank": x}}, True,
                                 "a rank")


@pytest.mark.parametrize("space, bad, field", TWIN_IDS.values(), ids=TWIN_IDS.keys())
def test_a_bad_descriptor_after_its_valid_twin_exits_two(tmp_path, capsys, space, bad, field):
    """Players whose descriptors are equal as dicts share no oracle when
    one holds a float or bool where the other holds an int: the second
    player's descriptor still exits 2 with one line naming it."""
    doc = _partition_doc()
    doc.update(players=2, profile=[[0], [0]])
    doc["spaces"] = [{"matroid": space(int(bad))}, {"matroid": space(bad)}]
    assert doc["spaces"][0] == doc["spaces"][1]
    _write_doc(tmp_path, doc)
    capsys.readouterr()
    code, _rep = run_to_file(tmp_path, "r.json", ["verify", "--in", str(tmp_path / "inst.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"input error: {field} must be a JSON integer, not {bad!r}"]


def test_players_with_one_descriptor_share_one_oracle(tmp_path):
    """60 players over 4 distinct descriptors get 4 oracles, and the same
    reports as a twin document that lists each player's ground in an order
    of its own, so that each of its players gets an oracle of its own."""
    _code, inst = run_to_file(tmp_path, "ufl.json", [
        "gen", "ufl", "--players", "60", "--facilities", "10", "--seed", "5"])
    doc, twin = json.loads(inst.read_text()), json.loads(inst.read_text())
    markets = [list(range(k, k + 5)) for k in (0, 2, 4, 5)]
    for i in range(60):
        market = markets[i % 4]
        order = next(itertools.islice(itertools.permutations(market), i // 4, None))
        doc["spaces"][i] = {"matroid": {"uniform": {"ground": market, "rank": 1}}}
        twin["spaces"][i] = {"matroid": {"uniform": {"ground": list(order), "rank": 1}}}
        doc["profile"][i] = twin["profile"][i] = [market[i % 5]]
    for data, oracles in ((doc, 4), (twin, 60)):
        assert len({id(space) for space in schema.game_from_json(data).spaces}) == oracles
    sources = _write_doc(tmp_path, doc), _write_doc(tmp_path, twin, "twin.json")
    for command in (["transform-matroid"], ["verify"]):
        (code, rep), (twin_code, twin_rep) = [
            run_to_file(tmp_path, f"{src.stem}.out", command + ["--in", str(src)])
            for src in sources]
        assert code == twin_code, command
        assert twin_rep.read_bytes() == rep.read_bytes(), command


@pytest.mark.parametrize("command", [["transform-tree"], ["nsepa", "transform"],
                                     ["nsepa", "check"], ["verify"], ["optimum"]], ids=" ".join)
def test_a_cost_table_on_a_path_game_exits_two(tmp_path, capsys, command):
    """Path games take fixed costs only: a cost table exits 2 with one line
    that names the edge, whether a player uses it, no player can reach it,
    or the game has no players (which `verify` and `optimum` read as a path
    game by its network)."""
    disjoint = game_to_json(path_game([("s", "a", 1), ("a", "t", 2), ("x", "y", 4)],
                                      [("s", "t")]))
    disjoint["profile"] = [[0, 1]]
    docs = [(_two_link_doc(), 0), (disjoint, 2),
            (game_to_json(path_game([("s", "t", 3)], [])), 0)]
    for doc, e in docs:
        doc["costs"][str(e)] = doc["graph"]["edges"][e][2] = {"subadditive_table": {"0": "3/1"}}
        _write_doc(tmp_path, doc)
        capsys.readouterr()
        code, rep = run_to_file(tmp_path, "r.json",
                                command + ["--in", str(tmp_path / "inst.json")])
        assert code == 2 and not rep.exists(), doc
        assert capsys.readouterr().err == f"input error: cost of resource {e} is not fixed\n"


def _unreadable_file(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"players": "é"}'.encode("latin-1"))
    return str(bad)


def _nested_file(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    return str(deep)


FILE_FAULTS = {
    "non-utf8-in": lambda tmp, inst: ["--in", _unreadable_file(tmp)],
    "non-utf8-profile": lambda tmp, inst: ["--in", inst, "--profile", _unreadable_file(tmp)],
    "non-utf8-protocol": lambda tmp, inst: ["--in", inst, "--protocol", _unreadable_file(tmp)],
    "nested-past-the-recursion-limit": lambda tmp, inst: ["--in", _nested_file(tmp)],
    "unwritable-out": lambda tmp, inst: ["--in", inst, "--out", str(tmp / "no" / "r.json")],
    "unwritable-trace": lambda tmp, inst: ["--in", inst, "--out", str(tmp / "r.json"),
                                           "--trace", str(tmp / "no" / "t.jsonl")],
}


@pytest.mark.parametrize("argv", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
def test_file_faults_exit_two_with_one_line(tmp_path, capsys, argv):
    """An unreadable, too deeply nested or unwritable file is bad input:
    exit 2 and one stderr line, never a traceback."""
    _code, inst = run_to_file(tmp_path, "sp.json", ["gen", "sp", "--seed", "2"])
    capsys.readouterr()
    code = run(["verify", *argv(tmp_path, str(inst))])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")


def _one_player_doc(*costs):
    """One player who must use every resource, with these costs."""
    ground = list(range(len(costs)))
    return {"players": 1, "resources": ground,
            "costs": {str(e): cost for e, cost in enumerate(costs)},
            "spaces": [{"matroid": {"uniform": {"ground": ground, "rank": len(ground)}}}],
            "profile": [ground]}


DIGITS = sys.get_int_max_str_digits()  # the interpreter's limit, 4,300 by default


@pytest.mark.parametrize("command", ["transform-matroid", "verify"])
@pytest.mark.parametrize("costs, error", [
    (["9" * DIGITS + "/1"] * 2, f"an exact value has more than {DIGITS} digits"),
    (["9" * (DIGITS + 1) + "/1"], f"rational '{'9' * 40}'... has more than {DIGITS} digits"),
], ids=["sum-past-the-limit", "cost-past-the-limit"])
def test_values_past_the_digit_limit_exit_two_with_one_short_line(
        tmp_path, capsys, command, costs, error):
    """An exact value past the interpreter's limit on int-string conversion
    can be neither read nor written: exit 2 and one short line that quotes
    at most 40 of its digits."""
    inst = _write_doc(tmp_path, _one_player_doc(*costs))
    capsys.readouterr()
    code = run([command, "--in", str(inst), "--approx-display"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"input error: {error}, the limit of int-string conversion\n"


@pytest.mark.parametrize("text", [
    "1_000/1", "\u0663/1", " 7 ", "+3", "3/-4", "3/+4", "7\n", "1.5", "1e3", "0x10", "--1",
    "1/0", "0/00", "/1", "1/", "3/4/5", "",
], ids=["underscore", "arabic-indic-digit", "spaces", "plus", "negative-denominator",
        "plus-denominator", "newline", "decimal", "scientific", "hex", "double-minus",
        "zero-denominator", "zeros-denominator", "no-numerator", "no-denominator",
        "two-slashes", "empty"])
def test_exact_values_outside_the_ascii_grammar_exit_two(tmp_path, capsys, text):
    """An exact value is `-?[0-9]+(/[0-9]+)?` in ASCII with a positive
    denominator, nothing that `int` also reads: exit 2, one line."""
    inst = _write_doc(tmp_path, _one_player_doc(text))
    capsys.readouterr()
    assert run(["verify", "--in", str(inst)]) == 2
    assert capsys.readouterr().err == f"input error: malformed rational {text!r}\n"


@pytest.mark.parametrize("key", ["1_0", " 1,2", "1,2 ", "+1", "-1", "\u0661", "1,,2", ",1",
                                 "1,", "1;2", "0x1"])
def test_table_keys_outside_the_ascii_grammar_exit_two(tmp_path, capsys, key):
    """A cost-table key is `[0-9]+(,[0-9]+)*` in ASCII, or empty: exit 2,
    one line."""
    table = {"": "0/1", "0": "1/1", key: "1/1"}
    inst = _write_doc(tmp_path, _one_player_doc({"subadditive_table": table}))
    capsys.readouterr()
    assert run(["verify", "--in", str(inst)]) == 2
    assert capsys.readouterr().err == f"input error: bad player set key {key!r}\n"


def test_non_canonical_values_and_keys_in_the_grammar_are_read(tmp_path):
    """"6/8", "-0", leading zeros and unsorted or repeated key ids match the
    grammar, so they are read by value."""
    assert [parse_rational(t) for t in ("6/8", "-0", "-0/5", "007/014")] == [
        F(3, 4), 0, 0, F(1, 2)]
    assert [schema.parse_users(k) for k in ("", "00", "2,1,2")] == [
        frozenset(), frozenset({0}), frozenset({1, 2})]
    inst = _write_doc(tmp_path, _one_player_doc("6/8", "-0", {"subadditive_table": {
        "": "0/1", "0,00": "5/2"}}))
    code, rep = run_to_file(tmp_path, "r.json", ["transform-matroid", "--in", str(inst)])
    assert code == 0
    assert json.loads(rep.read_text())["output_cost"] == "13/4"


@pytest.mark.parametrize("doc, error", [
    (_one_player_doc({"subadditive_table": {"1" * 5000: "1/1"}}),
     f"player set key '{'1' * 40}'... has more than {DIGITS} digits, the limit of "
     "int-string conversion"),
    (_one_player_doc({"subadditive_table": {"1," * 3000: "1/1"}}),
     f"bad player set key '{'1,' * 19}1..."),
    (_one_player_doc("x" * 5000), f"malformed rational '{'x' * 39}..."),
    (_one_player_doc("1/" + "x" * 5000), f"malformed rational '1/{'x' * 37}..."),
    (_one_player_doc(["1/1"] * 1000), f"unrecognized cost encoding {str(['1/1'] * 8)[:40]}..."),
    ({**_one_player_doc("1/1"), "profile": [["x"] * 1000]},
     f"profile row {str(['x'] * 10)[:40]}... is not a list of integer resource ids"),
], ids=["long-key-of-digits", "long-key", "long-value", "long-denominator", "long-cost",
        "long-profile-row"])
def test_long_input_values_are_echoed_cut_to_forty_characters(tmp_path, capsys, doc, error):
    """An input error quotes at most 40 characters of the offending value,
    however long it is."""
    inst = _write_doc(tmp_path, doc)
    capsys.readouterr()
    assert run(["verify", "--in", str(inst)]) == 2
    assert capsys.readouterr().err == f"input error: {error}\n"


BIG = 10**400  # an integer id of 401 digits
CUT = f"{str(BIG)[:40]}..."


def _big_resource_doc():
    """One player on one resource, whose id is BIG."""
    return {"players": 1, "resources": [BIG], "costs": {str(BIG): "1/1"},
            "spaces": [{"matroid": {"uniform": {"ground": [BIG], "rank": 1}}}],
            "profile": [[BIG]]}


@pytest.mark.parametrize("doc, error", [
    ({**_one_player_doc("1/1"), "resources": [BIG]}, f"no cost for resource {CUT}"),
    ({**_big_resource_doc(), "graph": {"edges": [["s", "t"]]}},
     f"graph edge for resource {CUT} must be [u, v, cost]"),
    ({**_one_player_doc("1/1"), "profile": [[BIG]]}, f"player 0 uses unknown resource {CUT}"),
    ({**_one_player_doc("1/1"), "profile": [[BIG, BIG]]}, f"profile row 0 repeats resource {CUT}"),
    ({**_one_player_doc("1/1"), "protocol": {"base": [[0]], "shares": [
        {"player": BIG, "resource": 0, "share": "1/1"}]}}, f"share for unknown player {CUT}"),
    ({**_one_player_doc("1/1"), "protocol": {"base": [[0]], "shares": [
        {"player": 0, "resource": BIG, "share": "1/1"}]}},
     f"share for (0, {CUT}) but resource not in base choice"),
    ({**_big_resource_doc(), "protocol": {"base": [[BIG]], "shares": [
        {"player": 0, "resource": BIG, "share": "-1/1"}]}}, f"negative share for (0, {CUT})"),
    ({**_big_resource_doc(), "delays": [["-1/1"]]}, f"negative delay for (0, {CUT})"),
], ids=["resource-list", "graph-edge", "profile-row", "profile-repeat", "share-player",
        "share-resource", "negative-share", "negative-delay"])
def test_long_integer_ids_are_echoed_cut_to_forty_characters(tmp_path, capsys, doc, error):
    """An input error names an integer id read from the input by at most
    40 of its digits, however long it is."""
    inst = _write_doc(tmp_path, doc)
    capsys.readouterr()
    assert run(["verify", "--in", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {error}\n" and len(err) <= 160


def _two_players(doc):
    """`doc` with a second player on the same space and choice."""
    return {**doc, "players": 2, "spaces": doc["spaces"] * 2, "profile": doc["profile"] * 2}


def test_every_delay_cell_is_read_before_any_delay_is_checked(tmp_path, capsys):
    """A malformed cell in row 1 is named although row 0 holds a negative
    delay: the load parses every cell before the game checks a row."""
    doc = {**_two_players(_one_player_doc("1/1")), "delays": [["-1/1"], ["x"]]}
    inst = _write_doc(tmp_path, doc)
    capsys.readouterr()
    assert run(["verify", "--in", str(inst)]) == 2
    assert capsys.readouterr().err == "input error: malformed rational 'x'\n"
    doc["delays"][1] = ["1/1"]
    assert run(["verify", "--in", str(_write_doc(tmp_path, doc))]) == 2
    assert capsys.readouterr().err == "input error: negative delay for (0, 0)\n"


LONG = "9" * 4000  # a cost of 4,000 digits


@pytest.mark.parametrize("command, doc, error", [
    ("verify", _one_player_doc(f"-{LONG}/1"), f"negative cost -{LONG[:39]}..."),
    ("verify", _one_player_doc({"subadditive_table": {"0": f"-{LONG}/1"}}),
     f"negative cost -{LONG[:39]}... for [0]"),
    ("transform-matroid",
     _two_players(_one_player_doc({"subadditive_table": {"0": f"{LONG}/1", "0,1": "1/1"}})),
     f"monotonicity violated: c([0])={LONG[:40]}... > c([0, 1])=1"),
], ids=["negative-fixed", "negative-table", "monotonicity"])
def test_long_cost_values_are_echoed_cut_to_forty_characters(tmp_path, capsys, command, doc,
                                                             error):
    """A cost error quotes at most 40 characters of each value it names,
    in the "p/q" form without a denominator of 1, however long it is."""
    inst = _write_doc(tmp_path, doc)
    capsys.readouterr()
    assert run([command, "--in", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {error}\n" and len(err) <= 160


def test_json_integers_past_the_digit_limit_exit_two_with_one_short_line(tmp_path, capsys):
    """An integer literal that Python's JSON reader refuses to convert is
    bad input, not a ValueError traceback."""
    inst = tmp_path / "big.json"
    inst.write_text('{"players": ' + "1" * (DIGITS + 1) + "}")
    assert run(["verify", "--in", str(inst)]) == 2
    assert capsys.readouterr().err == (f"input error: a JSON integer has more than {DIGITS} "
                                       "digits, the limit of int-string conversion\n")


@pytest.mark.parametrize("command", ["transform-matroid", "verify"])
def test_approx_display_renders_values_past_the_float_range(tmp_path, command):
    inst = _write_doc(tmp_path, _one_player_doc("9" * 400 + "/1", "1/3"))
    code, rep = run_to_file(tmp_path, "r.json", [command, "--in", str(inst), "--approx-display"])
    doc = json.loads(rep.read_text())
    assert code == 0
    assert doc["input_cost_approx"] == doc["output_cost_approx"] == "1e+400"


def test_standard_input_rejects_bytes_that_are_not_utf8(tmp_path, capsys, monkeypatch):
    """Standard input that keeps undecodable bytes as surrogates (as Python's
    UTF-8 mode does) is bad input, the same as that file given as `--in`."""
    _code, inst = run_to_file(tmp_path, "sp.json", ["gen", "sp", "--seed", "2"])
    data = inst.read_bytes()
    assert b'"c0"' in data
    inst.write_bytes(data.replace(b'"c0"', b'"c\xff"'))
    stdin = io.TextIOWrapper(io.BytesIO(inst.read_bytes()), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    capsys.readouterr()
    for argv in (["nsepa", "check"], ["nsepa", "check", "--in", str(inst)]):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert len(err.splitlines()) == 1 and err.startswith("input error: "), err


@pytest.mark.parametrize("argv", [
    ["tree", "--vertices", "0"],
    ["tree", "--vertices", "1"],
    ["tree", "--vertices", "1", "--players", "0"],
    ["matroid", "--resources", "0"],
    ["matroid", "--resources", "-1"],
    ["sp", "--max-edges", "0"],
    ["sp", "--max-edges", "1"],
    ["sp", "--max-edges", "2"],
], ids=" ".join)
def test_gen_rejects_sizes_it_cannot_build(tmp_path, capsys, argv):
    for seed in ("0", "3"):
        code = run(["gen", *argv, "--seed", seed, "--out", str(tmp_path / "g.json")])
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "g.json").exists()
        assert len(err.splitlines()) == 1 and err.startswith("input error: "), err


@pytest.mark.parametrize("facilities", ["0", "-1"])
def test_gen_ufl_names_its_facility_bound(tmp_path, capsys, facilities):
    """`--facilities` is bounded like `--resources` and `--vertices`, in
    the generator's own words, not the oracle's."""
    code = run(["gen", "ufl", "--facilities", facilities, "--out", str(tmp_path / "g.json")])
    assert code == 2 and not (tmp_path / "g.json").exists()
    assert capsys.readouterr().err == (
        f"input error: facilities must be at least 1, not {facilities}\n")


def test_gen_accepts_the_smallest_sizes_it_can_build(tmp_path):
    for argv in (["tree", "--vertices", "2"], ["matroid", "--resources", "1"],
                 ["sp", "--max-edges", "3"], ["ufl", "--facilities", "1"]):
        for seed in range(20):
            code, _doc = run_to_file(tmp_path, "g.json", ["gen", *argv, "--seed", str(seed)])
            assert code == 0, (argv, seed)


def test_gen_sp_ends_at_most_one_edge_past_its_cap():
    """`--max-edges` is checked after each arm of a bundle, and an arm has
    at most two edges, so a chain can pass the cap by one edge, never by
    more.  Seeds 0-1,999 pass each cap at least once."""
    for cap in (3, 4, 12):
        sizes = [len(gen_sp(random.Random(seed), max_edges=cap)[0].resources)
                 for seed in range(2000)]
        assert max(sizes) == cap + 1, cap


def _leaf_parsers(parser, words=()):
    """(command words, parser) of each subcommand that takes no further
    subcommand."""
    branches = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not branches:
        yield words, parser
    for action in branches:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, words + (name,))


def test_every_subcommand_has_a_handler():
    """`run` calls `args.handler` and nothing else, so each leaf subcommand
    must set one."""
    leaves = dict(_leaf_parsers(build_parser()))
    assert {("gen", "sp"), ("fixture", "theorem5"), ("nsepa", "check")} <= leaves.keys()
    missing = [" ".join(words) for words, sub in leaves.items()
               if not callable(sub.get_default("handler"))]
    assert not missing, f"subcommands without a handler: {missing}"


class TestOptimumBudgetFlags:
    def _doc(self, tmp_path):
        # two players on two parallel links: 2 paths each, 4 profiles
        g = path_game([("s", "t", 1), ("s", "t", 2)], [("s", "t"), ("s", "t")])
        return _write_doc(tmp_path, game_to_json(g))

    @pytest.mark.parametrize("flags", [
        ["--max-profiles", "0"], ["--max-paths", "0"], ["--max-paths", "-1"],
        ["--max-profiles", "-5"],
    ], ids=" ".join)
    def test_a_budget_below_one_exits_two(self, tmp_path, capsys, flags):
        inst = self._doc(tmp_path)
        capsys.readouterr()
        code = run(["optimum", "--in", str(inst), *flags, "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"input error: {flags[0]} must be at least 1, not {flags[1]}\n"

    @pytest.mark.parametrize("flags, code", [
        ([], 0), (["--max-profiles", "4"], 0), (["--max-profiles", "3"], 3),
        (["--max-paths", "2"], 0), (["--max-paths", "1"], 3),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_a_given_budget_is_the_budget(self, tmp_path, flags, code):
        inst = self._doc(tmp_path)
        assert run(["optimum", "--in", str(inst), *flags,
                    "--out", str(tmp_path / "r.json")]) == code
