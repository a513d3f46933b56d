"""JSON serialization of games, profiles, protocols, and reports.

Rationals travel as "p/q" strings, bit-exact.  Costs are a "p/q" string
for fixed costs or {"subadditive_table": {...}} keyed by comma-joined
sorted player ids.  Graph games carry a "graph" block whose edge list is
parallel to the resource list; matroid players carry descriptors.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Any, Optional

from .errors import InputError
from .game import CostFunction, GameModel, PathSpace, Profile, Step
from .matroids import matroid_from_descriptor
from .network import Network
from .protocol import SeparableProtocol
from .rationals import exact, format_rational, integer, parse_rational, parse_users, shown, too_long


def _users_key(users: frozenset) -> str:
    return ",".join(str(i) for i in sorted(users))


def cost_to_json(cf: CostFunction):
    if cf.is_fixed:
        return format_rational(cf.fixed_value)
    table = sorted((_users_key(u), format_rational(v)) for u, v in cf.table.items() if u)
    return {"subadditive_table": dict(table)}


class _Once(dict):
    """`parse` run once per distinct string: `memo[text]` parses on the
    first lookup and is a plain dict lookup after.  Both parsers are pure
    and their answers immutable.  A lookup of anything but a string parses
    it and caches nothing, as both parsers reject it; an unhashable one
    raises TypeError first, so callers hand those to `memo.parse`."""

    def __init__(self, parse) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = self.parse(text)
        return value


def cost_from_json(data, rational: _Once, users: _Once, indexes: dict) -> CostFunction:
    """A cost function from JSON, read with the document's string parsers.
    Tables share the index that `indexes` keeps per key order, and read
    only their values; on a bad key or value, a walk entry by entry raises
    the error of the first bad entry, key before value."""
    if isinstance(data, str):
        return CostFunction(fixed=rational[data])
    if isinstance(data, Mapping) and set(data) == {"subadditive_table"}:
        raw = data["subadditive_table"]
        try:
            keys = tuple(raw)
            if (index := indexes.get(keys)) is None:
                index = indexes[keys] = {users[k]: n for n, k in enumerate(keys)}
            values = list(map(rational.__getitem__, raw.values()))
        except (InputError, TypeError, AttributeError):
            for k, v in raw.items():
                users[k], rational[v] if type(v) is str else rational.parse(v)
            raise
        return CostFunction(table=values, index=index)
    raise InputError(f"unrecognized cost encoding {shown(data)}")


def game_to_json(game: GameModel) -> dict:
    out: dict[str, Any] = {
        "players": game.n,
        "resources": list(game.resources),
        "costs": {str(e): cost_to_json(game.costs[e]) for e in game.resources},
    }
    if game.has_delays:
        out["delays"] = [[format_rational(row.get(e, 0)) for e in game.resources]
                         for row in game.delays]
    spaces = []
    for sp in game.spaces:
        if game.kind == "path":
            spaces.append({"path": {"source": sp.source, "terminal": sp.terminal}})
        else:
            if not hasattr(sp, "descriptor"):
                raise InputError("matroid oracle has no serializable descriptor")
            spaces.append({"matroid": sp.descriptor})
    out["spaces"] = spaces
    if game.network is not None:
        net = game.network
        edges = []
        for e in game.resources:
            u, v = net.endpoints[e]
            edges.append([u, v, cost_to_json(game.costs[e])])
        out["graph"] = {"directed": net.directed, "edges": edges}
    return out


def _check_vertex(value, where: str) -> None:
    """Vertices are labelled by JSON scalars; a list or an object cannot be
    hashed, so it cannot label one."""
    if isinstance(value, (list, dict)):
        raise InputError(f"{where} must be a JSON string or number, not {shown(value)}")


@contextmanager
def _reading(what: str):
    """Report a document whose shape the reader does not expect (a missing
    key, a value of the wrong type, an unparsable number) as InputError.
    Used as a decorator, so it covers each reader once, with no per-field
    type checks."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as ex:
        raise InputError(f"malformed {what}: {ex}") from ex


@_reading("game object")
def game_from_json(data: Mapping) -> GameModel:
    players = integer(data["players"], "players")
    resources = [integer(e, "a resource id") for e in data["resources"]]
    raw_costs = data["costs"]
    raw_spaces = data["spaces"]
    # a document repeats few strings many times: parse each one once, and
    # keep each integral value as an int (see `rationals.exact`)
    rational = _Once(lambda text: exact(parse_rational(text)))
    users, indexes = _Once(parse_users), {}
    costs = {}
    for e in resources:
        key = str(e)
        if key not in raw_costs:
            raise InputError(f"no cost for resource {shown(e)}")
        costs[e] = cost_from_json(raw_costs[key], rational, users, indexes)
    delays = None
    if "delays" in data and data["delays"] is not None:
        rows = data["delays"]
        if len(rows) != players:
            raise InputError("delays must have one row per player")
        delays = []
        for i, row in enumerate(rows):
            if len(row) != len(resources):
                raise InputError(f"delay row {i} has wrong length")
            try:  # one pass; on an unhashable cell, walk the row to the first bad cell's error
                delays.append({e: v for e, v in zip(resources, map(rational.__getitem__, row))
                               if v})
            except TypeError:
                for cell in row:
                    rational[cell] if type(cell) is str else rational.parse(cell)
                raise
    network: Optional[Network] = None
    if "graph" in data and data["graph"] is not None:
        g = data["graph"]
        edges = g.get("edges", [])
        if len(edges) != len(resources):
            raise InputError("graph edge list must be parallel to resources")
        triples = []
        for e, spec in zip(resources, edges):
            if not isinstance(spec, list) or len(spec) != 3:
                raise InputError(f"graph edge for resource {shown(e)} must be [u, v, cost]")
            u, v, cost_spec = spec
            _check_vertex(u, f"endpoint of graph edge {shown(e)}")
            _check_vertex(v, f"endpoint of graph edge {shown(e)}")
            declared, mine = cost_from_json(cost_spec, rational, users, indexes), costs[e]
            if declared.table != mine.table or (
                    mine.is_fixed and declared.fixed_value != mine.fixed_value):
                raise InputError(f"graph cost for resource {shown(e)} contradicts 'costs'")
            triples.append((e, u, v))
        directed = g.get("directed", False)
        if type(directed) is not bool:
            raise InputError(f"graph.directed must be true or false, not {shown(directed)}")
        network = Network(triples, directed=directed)
    spaces = []
    # players with the same descriptor share one oracle; keyed by `repr`,
    # which keeps 1, 1.0 and true apart where dict equality would not
    oracles: dict[str, Any] = {}
    if len(raw_spaces) != players:
        raise InputError("one space per player required")
    for i, sp in enumerate(raw_spaces):
        if not isinstance(sp, Mapping) or len(sp) != 1:
            raise InputError(f"space {i} must be a single-key object")
        kind, body = next(iter(sp.items()))
        if kind == "path":
            if not isinstance(body, Mapping) or not {"source", "terminal"} <= body.keys():
                raise InputError(f"path space {i} needs a source and a terminal")
            _check_vertex(body["source"], f"source of space {i}")
            _check_vertex(body["terminal"], f"terminal of space {i}")
            spaces.append(PathSpace(source=body["source"], terminal=body["terminal"]))
        elif kind == "matroid":
            if (oracle := oracles.get(key := repr(body))) is None:
                oracle = oracles[key] = matroid_from_descriptor(body)
            spaces.append(oracle)
        else:
            raise InputError(f"unknown space kind {shown(kind)}")
    return GameModel(
        players=players,
        resources=resources,
        costs=costs,
        spaces=spaces,
        delays=delays,
        network=network,
    )


def profile_to_json(profile: Profile) -> dict:
    return {"profile": [sorted(choice) for choice in profile]}


def profile_from_json(data, game: GameModel) -> Profile:
    if isinstance(data, Mapping) and "profile" in data:
        rows = data["profile"]
    else:
        rows = data
    if not isinstance(rows, list):
        raise InputError("profile must be a list of per-player resource lists")
    for k, row in enumerate(rows):
        if not isinstance(row, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) for e in row
        ):
            raise InputError(f"profile row {shown(row)} is not a list of integer resource ids")
        if len(set(row)) != len(row):
            repeated = next(e for e in row if row.count(e) > 1)
            raise InputError(f"profile row {k} repeats resource {shown(repeated)}")
    profile = Profile([frozenset(row) for row in rows])
    game.validate_profile(profile)
    return profile


def step_to_json(step: Step) -> dict:
    """One trace line: the step kind under "step", `source` under "from",
    and no key for a field that is None."""
    line = {
        "step": step.kind,
        "player": step.player,
        "resource": step.resource,
        "from": step.source,
        "phase": step.phase,
        "cost_delta": format_rational(step.cost_delta),
    }
    return {k: v for k, v in line.items() if v is not None}


def protocol_to_json(protocol: SeparableProtocol) -> dict:
    shares = [
        {"player": i, "resource": e, "share": format_rational(v)}
        for (i, e), v in sorted(protocol.shares.items())
    ]
    return {"base": [sorted(choice) for choice in protocol.base], "shares": shares}


@_reading("protocol object")
def protocol_from_json(data: Mapping, game: GameModel) -> SeparableProtocol:
    base = profile_from_json({"profile": data["base"]}, game)
    shares = {}
    for row in data.get("shares", []):
        pair = (integer(row["player"], "a share's player"),
                integer(row["resource"], "a share's resource"))
        if pair in shares:
            i, e = pair
            raise InputError(
                f"protocol repeats the share of player {shown(i)} on resource {shown(e)}")
        shares[pair] = parse_rational(row["share"])
    return SeparableProtocol(game, base, shares)


def jsonable(obj):
    """Recursive encoder for reports: profiles to their JSON rows.  Reports
    format their rationals where they are built, so a Fraction here is
    one left unformatted and raises InputError, as a float does."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise InputError("floats are banned from reports")
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, Profile):
        return profile_to_json(obj)["profile"]
    raise InputError(f"cannot encode {type(obj).__name__} in a report")


def dumps(obj, indent: Optional[int] = 2) -> str:
    return json.dumps(obj, indent=indent, sort_keys=True)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise InputError(f"malformed JSON at line {ex.lineno} column {ex.colno}: {ex.msg}") from ex
    except ValueError as ex:  # an integer past the int-string digit limit
        raise too_long("a JSON integer") from ex
    except RecursionError as ex:
        raise InputError("JSON nested too deeply") from ex
