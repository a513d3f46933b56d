"""Source hygiene: every module-level import in the package is used, every
module-level function, class and assigned name is read somewhere, the
package imports nothing outside itself and the standard library, the
README names no command-line flag that the parser does not accept, and no
float can enter the exact arithmetic: true division appears only in the
LP, `float(` only in `rationals.approx`, and `Fraction(` only in the LP and
in `rationals`.  Costs, delays, shares, search distances, total costs, LP
values and step deltas are ints exactly when integral and Fractions
otherwise.

`__init__.py` is skipped by the unused-import check, as its imports are the
package's re-exports.
"""

import argparse
import ast
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _helpers import scaled_doc, stored
from sepshare.cli import build_parser
from sepshare.errors import InputError
from sepshare.game import CostFunction, GameModel, Profile, total_cost
from sepshare.gen import gen_sp, gen_tree
from sepshare.lp import solve
from sepshare.matroids import UniformMatroid, build_matroid_protocol, transform_matroid
from sepshare.nsepa import build_lp, is_enforceable, nsepa_transform
from sepshare.protocol import SeparableProtocol
from sepshare.schema import game_from_json, game_to_json, protocol_from_json
from sepshare.singlesource import AuxiliaryGraph, to_tree_profile, transform_single_source

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sepshare"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line number."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere, including inside string annotations."""
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert {"cli.py", "nsepa.py", "network.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{path.stem}.{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, "unused imports: " + ", ".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Iterable, Optional\nx: 'Optional[int]' = None\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Iterable"}


def _defined_names(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level function, class and assigned name, dunders aside
    -> the statement that defines it."""
    out: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                out.update((sub.id, node) for sub in ast.walk(target) if isinstance(sub, ast.Name))
    return {name: node for name, node in out.items() if not name.startswith("__")}


def _read_names(node: ast.AST) -> set[str]:
    """Names read in a node: loaded names, attribute names, imported names
    and the names inside string annotations."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            for text in ast.walk(ann) if isinstance(ann, ast.AST) else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    found |= _read_names(ast.parse(text.value, mode="eval"))
    return found


def _dead_names(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """`module.name` of each module-level name in `modules` that is read
    nowhere but in its own definition, neither in `modules` nor in `others`."""
    reads = [(node, _read_names(node)) for tree in modules.values() for node in tree.body]
    reads += [(tree, _read_names(tree)) for tree in others]
    return sorted(
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name, defined in _defined_names(tree).items()
        if not any(name in read for node, read in reads if node is not defined)
    )


def test_every_module_level_name_is_read():
    """No function, class or assignment of the package is dead: each is
    read, imported or named in an annotation somewhere in `src/` or
    `tests/` other than its own definition."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in ALL_MODULES}
    tests = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "tests").rglob("*.py"))]
    dead = _dead_names(modules, tests)
    assert not dead, "names read nowhere: " + ", ".join(dead)


def test_the_check_sees_a_dead_name():
    module = ast.parse("import os\nA = 1\nB, C = 2, A\nclass K:\n    pass\n"
                       "def f():\n    return f()\ndef g() -> 'list[K]':\n    return []\n"
                       "H: int = os.sep\n__all__ = []\n")
    reader = ast.parse("from m import g\nprint(m.H)\n")
    assert _dead_names({"m": module}, [reader]) == ["m.B", "m.C", "m.f"]


def _third_party(tree: ast.Module) -> set[str]:
    """Top-level modules imported anywhere, neither relative nor standard."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_only_the_standard_library_is_imported(path):
    found = _third_party(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.stem} imports {sorted(found)}"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse(
        "import json, networkx.algorithms as nxa\nfrom . import errors\n"
        "from os.path import join\ndef f():\n    import numpy\n"
    )
    assert _third_party(tree) == {"networkx", "numpy"}


def _accepted_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser and of all its subcommands."""
    flags: set[str] = set()
    for action in parser._actions:
        flags |= set(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _accepted_flags(sub)
    return flags


def _command_line_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Command line\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _unknown_flags(text: str) -> list[str]:
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    return sorted(named - _accepted_flags(build_parser()))


def test_readme_flags_are_accepted_by_the_cli():
    section = _command_line_section()
    assert "--profile" in section and "--trace" in section
    unknown = _unknown_flags(section)
    assert not unknown, f"README names flags the CLI rejects: {unknown}"


def test_the_flag_check_sees_a_stale_flag():
    text = "`nsepa check --mode full_paths`, `optimum --max-paths 9`"
    assert _unknown_flags(text) == ["--mode"]


# -- exact arithmetic --------------------------------------------------------


def _divisions(tree: ast.Module) -> list[int]:
    """Line of every true division (`/` or `/=`)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def _calls(tree: ast.Module, name: str) -> list[str]:
    """The function around each call of `name` (bare or as an attribute),
    "<module>" outside any."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


def test_true_division_appears_only_in_the_lp():
    """int / int is a float, so only the simplex, which makes a pivot
    other than 1 a Fraction before it divides by it, may divide."""
    found = {
        f"{path.stem} (lines {lines})"
        for path in ALL_MODULES
        if path.name != "lp.py" and (lines := _divisions(ast.parse(path.read_text())))
    }
    assert not found, f"true division outside lp.py: {sorted(found)}"
    assert _divisions(ast.parse((SRC / "lp.py").read_text()))


def test_the_check_sees_a_division():
    tree = ast.parse("a = 1 // 2\nb = 2 * 3\nb /= 4\ndef f(x):\n    return x / 2\n")
    assert _divisions(tree) == [3, 5]


def test_float_is_called_only_in_approx():
    found = sorted(
        f"{path.stem}.{where}"
        for path in ALL_MODULES
        for where in _calls(ast.parse(path.read_text()), "float")
    )
    assert found == ["rationals.approx"]


def test_the_check_sees_a_float_call():
    tree = ast.parse("x = float(1)\ndef f():\n    def g():\n        return float(2)\n"
                     "    return float\n")
    assert _calls(tree, "float") == ["<module>", "g"]


def test_fraction_is_called_only_in_the_lp_and_rationals():
    """Values are stored by `rationals.exact`; only the simplex, which
    divides, builds Fractions of its own."""
    found = {path.stem for path in ALL_MODULES if _calls(ast.parse(path.read_text()), "Fraction")}
    assert found == {"lp", "rationals"}


def test_the_check_sees_a_fraction_call():
    tree = ast.parse("import fractions\nfrom fractions import Fraction\n"
                     "def f(v: Fraction) -> Fraction:\n    return isinstance(v, Fraction)\n"
                     "def g():\n    return fractions.Fraction(1, 2)\nh = Fraction(3)\n")
    assert _calls(tree, "Fraction") == ["g", "<module>"]


def _reads(tree: ast.Module, attribute: str) -> list[int]:
    """The line of each read of `attribute` off any object."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attribute)


def test_fixed_value_is_read_only_in_the_game_and_the_schema():
    """A fixed cost is read off the game's fixed-cost row, so only the row,
    built in `game`, and the JSON writer in `schema` ask a cost function
    for it."""
    found = {path.stem for path in ALL_MODULES
             if _reads(ast.parse(path.read_text()), "fixed_value")}
    assert found == {"game", "schema"}


def test_the_check_sees_a_fixed_value_read():
    tree = ast.parse("def fixed_value(self):\n    return 1\nx = game.costs[e].fixed_value\n"
                     "y = [cf.fixed_value for cf in costs]\nz = fixed_value\n")
    assert _reads(tree, "fixed_value") == [3, 4]


def _loaded_game() -> GameModel:
    uniform = {"uniform": {"ground": [0, 1, 2], "rank": 1}}
    return game_from_json({
        "players": 2,
        "resources": [0, 1, 2],
        "costs": {"0": "6/3", "1": "5/3",
                  "2": {"subadditive_table": {"0": "4/2", "1": "3/2", "0,1": "7/2"}}},
        "delays": [["9/3", "0/5", "1/2"], ["0/1", "8/1", "-0/3"]],
        "spaces": [{"matroid": uniform}, {"matroid": uniform}],
    })


def _built_game() -> GameModel:
    table = {frozenset(): 0, frozenset({0}): Fraction(4, 2), frozenset({1}): "3/2",
             frozenset({0, 1}): Fraction(7, 2)}
    costs = {0: CostFunction(fixed=Fraction(6, 3)), 1: CostFunction(fixed="5/3"),
             2: CostFunction(table=table)}
    delays = [{0: Fraction(9, 3), 2: "1/2"}, {1: 8, 2: Fraction(0)}]
    spaces = [UniformMatroid([0, 1, 2], 1) for _ in range(2)]
    return GameModel(2, [0, 1, 2], costs, spaces, delays=delays)


@pytest.mark.parametrize("make", [_loaded_game, _built_game], ids=["loaded", "built"])
def test_costs_and_delays_are_ints_exactly_when_integral(make):
    game = make()
    user_sets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    costs = [game.cost(e, users) for e in game.resources for users in user_sets]
    delays = [game.delay(i, e) for i in range(game.n) for e in game.resources]
    fixed = list(game.fixed.values())
    assert all(map(stored, costs + delays + fixed)), (costs, delays, fixed)
    assert {type(v) for v in costs} == {type(v) for v in delays} == {int, Fraction}
    assert game.fixed == {0: 2, 1: Fraction(5, 3)} and {type(v) for v in fixed} == {int, Fraction}
    profile = transform_matroid(game, Profile([{2}, {2}])).profile
    protocol = build_matroid_protocol(game, profile)
    values = [protocol.share(i, e) for i in range(game.n) for e in game.resources]
    assert all(map(stored, values)), values


def test_shares_are_ints_exactly_when_integral():
    game = _built_game()
    base = Profile([{0}, {0}])
    given = {(0, 0): Fraction(4, 2), (1, 0): "1/3"}
    built = SeparableProtocol(game, base, given)
    read = protocol_from_json(
        {"base": [[0], [0]], "shares": [{"player": 0, "resource": 0, "share": "8/4"},
                                        {"player": 1, "resource": 0, "share": "1/3"}]},
        game,
    )
    for protocol in (built, read):
        values = [protocol.share(i, e) for i in range(2) for e in game.resources]
        assert all(map(stored, values)) and Fraction in set(map(type, values))
    # the enforceability LP's shares are Fractions, most of them integral
    checked = 0
    for seed in range(20):
        protocol = nsepa_transform(*gen_sp(random.Random(seed))).protocol
        values = [protocol.share(i, e) for (i, e) in protocol.shares]
        assert all(map(stored, values)), (seed, values)
        checked += len(values)
    assert checked


@pytest.mark.parametrize("q", [1, 2], ids=["integral", "halved"])
def test_single_source_state_is_int_exactly_when_integral(q):
    """The pricing pass's auxiliary costs, search distances, closed shares,
    tree costs and drop deltas and the output shares of `gen_tree` games, as
    generated and with every cost halved."""
    values, drops = [], 0
    for seed in range(60):
        game, profile = gen_tree(random.Random(seed), vertices=12, players=4)
        game = game_from_json(scaled_doc(game_to_json(game), q))
        state = AuxiliaryGraph(game, to_tree_profile(game, profile))
        values += [aux.cost for aux in state.aux.values()] + [state.tree_cost()]
        values += [state._ghat_best(i, e) for e in state.open_edges for i in state.users[e]]
        state.run()
        values += [v for shares in state.closed_shares.values() for v in shares.values()]
        values.append(state.tree_cost())
        deltas = [step.cost_delta for step in state.events if step.kind == "drop"]
        values += deltas
        drops += len(deltas)
        values += transform_single_source(game, profile).protocol.shares.values()
    assert all(map(stored, values)), [v for v in values if not stored(v)][:5]
    assert drops > 10 and {type(v) for v in values} == ({int} if q == 1 else {int, Fraction})


@pytest.mark.parametrize("q", [1, 2], ids=["integral", "halved"])
def test_path_layer_values_are_ints_exactly_when_integral(q):
    """Search distances, total costs, LP values and optimum, the
    enforceability report's shares and used cost, and `nsepa_transform`'s
    step deltas, costs and LP value on `gen_sp` games, as generated and with
    every cost and delay halved, so that Fractions also add up to integers."""
    values, deltas = [], 0
    for seed in range(60):
        game, profile = gen_sp(random.Random(seed), players=1 + seed % 4)
        game = game_from_json(scaled_doc(game_to_json(game), q))
        for i, space in enumerate(game.spaces):
            tree = game.network.dijkstra(
                space.source, lambda e: game.costs[e].fixed_value + game.delay(i, e)
            )
            values += [dist for dist, _edges in tree.values()]
        values.append(total_cost(game, profile))
        solution = solve(build_lp(game, profile).lp)
        report = is_enforceable(game, profile)
        if report.shares is not None:  # an infeasible LP has neither
            values += [*solution.values, solution.objective_value]
            values += [*report.shares.values(), report.lp_value]
        values.append(report.used_cost)
        result = nsepa_transform(game, profile)
        steps = result.repairs + result.substitutions
        values += [step.cost_delta for step in steps]
        values += [result.lp_value, result.input_cost, result.output_cost]
        deltas += len(steps)
    assert all(map(stored, values)), [v for v in values if not stored(v)][:5]
    assert deltas > 30 and {type(v) for v in values} == ({int} if q == 1 else {int, Fraction})


@pytest.mark.parametrize("bad", [True, 1.5])
def test_bools_and_floats_are_not_stored(bad):
    game = _built_game()
    with pytest.raises(InputError):
        CostFunction(fixed=bad)
    with pytest.raises(InputError):
        GameModel(2, game.resources, game.costs, game.spaces, delays=[{0: bad}, {}])
    with pytest.raises(InputError):
        SeparableProtocol(game, Profile([{0}, {0}]), {(0, 0): bad})
