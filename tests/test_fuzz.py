"""Malformed documents end in a documented exit code and one short line,
and every transform's output verifies as written.

The fuzz mutates golden instances with a seeded `random.Random`, so each
run tries the same documents: it drops or renames keys, swaps a value for
one of another type or an extreme number, perturbs rational strings and
duplicates list entries, then runs the case's command in this process.
The round trip bundles each exit-0 transform case's output profile and
protocol into its instance and verifies them.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from sepshare.cli import run
from sepshare.schema import dumps

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
TRANSFORMS = (["transform-matroid"], ["transform-tree"], ["nsepa", "transform"])

OTHER_TYPES = [None, True, False, 0.5, "x", "", [], {}, [[]], {"x": 1}, 3, "1/2"]
EXTREME = [-1, 0, 2**63, -(2**63), 10**40, 10**400, 1e308, -1e308, "9" * 5000 + "/1",
           "1/" + "9" * 60]
RATIONAL_EDITS = [
    lambda s: f" {s} ", lambda s: "+" + s, lambda s: s.replace("/", "/-"),
    lambda s: s.replace("1", "1_0"), lambda s: s.replace("1", "١"),
    lambda s: s.replace("/", "."), lambda s: s + "/0", lambda s: s.split("/")[0] + "/0",
    lambda s: s + "e3", lambda s: "-" + s, lambda s: s * 2, lambda s: s + "0" * 50,
    lambda s: s.replace("/", ","), lambda s: "1" * 5000,
]
MAX_LINE = 160  # the longest line the fuzz meets, a digit-limit error, has 130


def _nodes(doc):
    """Every (container, key or index) pair of the document, depth first."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for k in keys:
            out.append((node, k))
            if isinstance(node[k], (dict, list)):
                stack.append(node[k])
    return out


def _mutate(doc, rng: random.Random) -> None:
    node, k = rng.choice(_nodes(doc))
    value, kind = node[k], rng.randrange(6)
    if kind == 0:
        del node[k]
    elif kind == 1 and isinstance(node, dict):
        node[rng.choice([k + "_", k.upper(), "", "1" * 60, " " + k])] = node.pop(k)
    elif kind == 2:
        node[k] = copy.deepcopy(rng.choice(OTHER_TYPES))
    elif kind == 3:
        node[k] = rng.choice(EXTREME)
    elif kind == 4 and isinstance(value, str):
        node[k] = rng.choice(RATIONAL_EDITS)(value)
    elif kind == 4 and isinstance(node, dict):  # a cost-table key
        node[rng.choice(RATIONAL_EDITS)(k)] = node.pop(k)
    elif isinstance(value, list) and value:
        value.insert(rng.randrange(len(value) + 1), copy.deepcopy(rng.choice(value)))
    else:
        node[k] = [value, value]


def test_mutated_documents_exit_with_a_code_and_one_short_line(tmp_path, capsys):
    """1,500 mutated golden instances, one to three mutations each: every run
    returns 0, 1, 2 or 3 without raising, and what it writes to stderr is
    at most one line of at most 160 characters.  Bad input, exit 2, must
    say why in that line."""
    rng = random.Random(31)
    small = [c for c in CASES if (GOLDEN / c["name"] / "instance.json").stat().st_size < 6000]
    codes = {0: 0, 1: 0, 2: 0, 3: 0}
    for n in range(1500):
        case = rng.choice(small)
        doc = json.loads((GOLDEN / case["name"] / "instance.json").read_text())
        for _ in range(rng.randint(1, 3)):
            if isinstance(doc, (dict, list)) and _nodes(doc):
                _mutate(doc, rng)
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps(doc))
        code = run(case["command"] + ["--in", str(inst), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code in codes, (n, case["name"], code)
        codes[code] += 1
        assert err.count("\n") <= 1 and len(err) <= MAX_LINE, (n, case["name"], err[:300])
        assert code != 2 or err.startswith("input error: "), (n, case["name"], err)
    # most mutations break the document, but not all of them
    assert codes[2] > 1000 and codes[0] > 20, codes


ROUND_TRIPS = [c for c in CASES if c["command"] in TRANSFORMS and c["exit"] == 0]


@pytest.mark.parametrize("case", ROUND_TRIPS, ids=[c["name"] for c in ROUND_TRIPS])
def test_transform_output_verifies_with_its_own_protocol(case, tmp_path):
    """The recorded report's profile and protocol, bundled into the case's
    instance, verify: `verify` exits 0 and writes the same protocol."""
    folder = GOLDEN / case["name"]
    made = json.loads((folder / "report.json").read_text())
    doc = json.loads((folder / "instance.json").read_text())
    doc["profile"], doc["protocol"] = made["profile"], made["protocol"]
    inst, out = tmp_path / "bundled.json", tmp_path / "verified.json"
    inst.write_text(dumps(doc) + "\n")
    assert run(["verify", "--in", str(inst), "--out", str(out)]) == 0
    verified = json.loads(out.read_text())
    assert dumps(verified["protocol"]) == dumps(made["protocol"])
