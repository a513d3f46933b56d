"""Regenerate the golden corpus of the transform, check, verify and optimum
commands.

Each case is a seeded instance plus what one command makes of it: the
exit code, the report bytes and the `--trace` bytes.  The commands are the
three transforms, `nsepa check`, `verify` and `optimum`.  Most instances
come from `sepshare gen` (or `sepshare fixture`); the `chain` cases are
longer chains of parallel bundles (10 to 20 bundles, far beyond what
`gen sp` reaches) built by `chain_instance` below, and `cases.json`
records the builder's arguments in place of a `gen` command.  The
`bundled` cases verify a transform's output: `bundled_instance` puts the
profile and protocol of the transform named under "bundle" into the
generated instance, so `verify` checks that protocol as given.  `tests/test_golden.py` reruns every case
in-process and diffs all three byte for byte, so rerun this script only
for a change that is meant to alter reports, and say why in the change
log.

The `scale` group (`scale.json`) holds larger cases of the four transform
families, about eight times the largest case above in (player, resource)
pairs.  It keeps no files, only the pair count, the exit code and the
SHA-256 digests of each case's instance, report and trace, so the
repository stays small; `instance_bytes` rebuilds the instance from the
case's `gen` argv or `chain_instance` arguments.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from sepshare.cli import run
from sepshare.game import GameModel, PathSpace, Profile
from sepshare.network import Network
from sepshare.schema import dumps, game_to_json, profile_to_json

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)

# (case prefix, generator argv, command argv)
FAMILIES = [
    ("ufl", ["gen", "ufl", "--players", "6", "--facilities", "8"], ["transform-matroid"]),
    ("matroid", ["gen", "matroid"], ["transform-matroid"]),
    ("tree", ["gen", "tree"], ["transform-tree"]),
    ("sp", ["gen", "sp"], ["nsepa", "transform"]),
    ("sp8", ["gen", "sp", "--players", "8"], ["nsepa", "transform"]),
    ("spcheck", ["gen", "sp"], ["nsepa", "check"]),
]

# larger facility-location games whose rewrite runs 34 to 39 packet moves,
# cover batches included; one case per seed in UFL40_SEEDS
UFL40 = ["gen", "ufl", "--players", "40", "--facilities", "30"]
UFL40_SEEDS = range(1, 6)

# (seed, bundles, players) of the chain cases, all run through `nsepa transform`
CHAINS = [(1, 10, 6), (2, 12, 8), (3, 15, 8), (4, 18, 10), (5, 20, 10)]

# `verify` on generated path games, whose verdict and protocol come from the
# full-path LP with lazily generated rows; one case per family and seed
VERIFY = [("verify-sp", ["gen", "sp"]), ("verify-tree", ["gen", "tree"])]
VERIFY_SEEDS = range(1, 6)

# `verify` on matroid games, whose verdict and protocol come from the
# water-filling construction and its exchange conditions
VERIFY_MATROID = [("verify-ufl", ["gen", "ufl", "--players", "6", "--facilities", "8"]),
                  ("verify-matroid", ["gen", "matroid"])]

# `verify` of a transform's output profile with the protocol it built
# bundled in the instance; (case prefix, generator argv, transform argv)
BUNDLED = [
    ("bundled-matroid", ["gen", "matroid"], ["transform-matroid"]),
    ("bundled-tree", ["gen", "tree"], ["transform-tree"]),
    ("bundled-sp", ["gen", "sp"], ["nsepa", "transform"]),
]
BUNDLED_SEEDS = range(1, 4)

# `optimum` on small games of every family, and on the fixture whose
# unique optimum is not enforceable
OPTIMUM = [("optimum-ufl", ["gen", "ufl"]), ("optimum-matroid", ["gen", "matroid"]),
           ("optimum-tree", ["gen", "tree"]), ("optimum-sp", ["gen", "sp"])]
OPTIMUM_SEEDS = range(1, 4)

# the scale group: (case prefix, generator argv, command argv), one case per
# seed in SCALE_SEEDS, and the chains as (seed, bundles, players); every
# case exits 0, so no tree case pins a known non-equilibrium output
SCALE = [
    ("scale-ufl", ["gen", "ufl", "--players", "320", "--facilities", "16"],
     ["transform-matroid"]),
    ("scale-matroid", ["gen", "matroid", "--players", "6", "--resources", "40"],
     ["transform-matroid"]),
    ("scale-tree", ["gen", "tree", "--vertices", "40", "--players", "12"], ["transform-tree"]),
]
SCALE_SEEDS = range(1, 4)
SCALE_CHAINS = [(11, 48, 24), (12, 56, 20), (13, 64, 16)]


def chain_instance(seed: int, bundles: int, players: int) -> dict:
    """A chain of `bundles` parallel bundles of one to three arms, each arm
    one or two edges with a fixed cost 1..20.  Every player joins two
    distinct cut vertices, pays a delay 1..5 on about a tenth of the edges
    and starts on a cheapest path under random weights."""
    rng = random.Random(f"golden-chain/{seed}")
    cuts = [f"c{k}" for k in range(bundles + 1)]
    pairs: list[tuple[str, str]] = []
    for k in range(bundles):
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 1 / 2:
                pairs.append((cuts[k], cuts[k + 1]))
            else:
                mid = f"m{len(pairs)}"
                pairs += [(cuts[k], mid), (mid, cuts[k + 1])]
    net = Network([(e, u, v) for e, (u, v) in enumerate(pairs)])
    ids = list(range(len(pairs)))
    costs = {e: rng.randint(1, 20) for e in ids}
    spaces = []
    for _ in range(players):
        a, b = sorted(rng.sample(range(len(cuts)), 2))
        spaces.append(PathSpace(source=cuts[a], terminal=cuts[b]))
    delays = [{e: Fraction(rng.randint(1, 5)) for e in ids if rng.random() < 1 / 10}
              for _ in range(players)]
    game = GameModel(players=players, resources=ids, costs=costs, spaces=spaces,
                     delays=delays, network=net)
    choices = []
    for space in spaces:
        weights = {e: rng.randint(1, 30) for e in ids}
        hit = net.shortest_path(space.terminal, space.source, lambda e: weights[e])
        choices.append(frozenset(hit[1]))
    doc = game_to_json(game)
    doc["profile"] = profile_to_json(Profile(choices))["profile"]
    return doc


def bundled_instance(gen: list[str], transform: list[str]) -> dict:
    """The instance that `gen` writes, its profile replaced by the output
    profile of `transform` and the protocol it built added."""
    with tempfile.TemporaryDirectory() as tmp:
        instance, report = Path(tmp) / "instance.json", Path(tmp) / "report.json"
        if run(gen + ["--out", str(instance)]) != 0:
            sys.exit(f"generator failed: {gen}")
        run(transform + ["--in", str(instance), "--out", str(report)])
        doc = json.loads(instance.read_text())
        made = json.loads(report.read_text())
    doc["profile"], doc["protocol"] = made["profile"], made["protocol"]
    return doc


def instance_bytes(case: dict) -> bytes:
    """The instance document of a scale case, rebuilt by its `chain_instance`
    arguments or written by its `gen` argv."""
    if "builder" in case:
        return (dumps(chain_instance(**case["builder"])) + "\n").encode()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "instance.json"
        if run(case["gen"] + ["--out", str(out)]) != 0:
            sys.exit(f"generator failed for {case['name']}")
        return out.read_bytes()


def scale_digests(case: dict, folder: Path) -> dict:
    """The exit code of a scale case and the SHA-256 digests of its instance,
    report and trace, made in `folder`; a file the run did not write has
    no digest."""
    instance = folder / "instance.json"
    instance.write_bytes(instance_bytes(case))
    code = run(case["command"] + ["--in", str(instance), "--out", str(folder / "report.json"),
                                  "--trace", str(folder / "trace.jsonl")])
    files = [instance, folder / "report.json", folder / "trace.jsonl"]
    return {"exit": code, "sha256": {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
                                     for path in files if path.exists()}}


def _scale_cases() -> list[dict]:
    cases = [{"name": f"{prefix}-{seed:02d}", "gen": gen + ["--seed", str(seed)],
              "command": command}
             for prefix, gen, command in SCALE for seed in SCALE_SEEDS]
    cases += [{"name": f"scale-chain-{n:02d}",
               "builder": {"seed": seed, "bundles": bundles, "players": players},
               "command": ["nsepa", "transform"]}
              for n, (seed, bundles, players) in enumerate(SCALE_CHAINS, 1)]
    return cases


def _record(case: dict, folder: Path, manifest: list) -> None:
    code = run(case["command"] + ["--in", str(folder / "instance.json"),
                                  "--out", str(folder / "report.json"),
                                  "--trace", str(folder / "trace.jsonl")])
    manifest.append({**case, "exit": code})
    print(f"{case['name']}: exit {code}")


def _fresh(name: str) -> Path:
    folder = HERE / name
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir()
    return folder


def _generated(case: dict, manifest: list) -> None:
    folder = _fresh(case["name"])
    if run(case["gen"] + ["--out", str(folder / "instance.json")]) != 0:
        sys.exit(f"generator failed for {case['name']}")
    _record(case, folder, manifest)


def main() -> None:
    manifest: list[dict] = []
    for prefix, gen, command in FAMILIES:
        for seed in SEEDS:
            _generated({"name": f"{prefix}-{seed:02d}",
                        "gen": gen + ["--seed", str(seed)], "command": command}, manifest)
    for seed in UFL40_SEEDS:
        _generated({"name": f"ufl40-{seed:02d}", "gen": UFL40 + ["--seed", str(seed)],
                    "command": ["transform-matroid"]}, manifest)
    for seed, bundles, players in CHAINS:
        case = {"name": f"chain-{seed:02d}",
                "builder": {"seed": seed, "bundles": bundles, "players": players},
                "command": ["nsepa", "transform"]}
        folder = _fresh(case["name"])
        doc = chain_instance(seed, bundles, players)
        (folder / "instance.json").write_text(dumps(doc) + "\n")
        _record(case, folder, manifest)
    for prefix, gen in VERIFY + VERIFY_MATROID:
        for seed in VERIFY_SEEDS:
            _generated({"name": f"{prefix}-{seed:02d}", "gen": gen + ["--seed", str(seed)],
                        "command": ["verify"]}, manifest)
    for prefix, gen, transform in BUNDLED:
        for seed in BUNDLED_SEEDS:
            case = {"name": f"{prefix}-{seed:02d}", "gen": gen + ["--seed", str(seed)],
                    "bundle": transform, "command": ["verify"]}
            folder = _fresh(case["name"])
            doc = bundled_instance(case["gen"], transform)
            (folder / "instance.json").write_text(dumps(doc) + "\n")
            _record(case, folder, manifest)
    for prefix, gen in OPTIMUM:
        for seed in OPTIMUM_SEEDS:
            _generated({"name": f"{prefix}-{seed:02d}", "gen": gen + ["--seed", str(seed)],
                        "command": ["optimum"]}, manifest)
    _generated({"name": "optimum-theorem5-01", "gen": ["fixture", "theorem5"],
                "command": ["optimum"]}, manifest)
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n")
    scale = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in _scale_cases():
            folder = Path(tmp) / case["name"]
            folder.mkdir()
            made = scale_digests(case, folder)
            doc = json.loads((folder / "instance.json").read_text())
            scale.append({**case, "pairs": sum(map(len, doc["profile"])), **made})
            print(f"{case['name']}: exit {scale[-1]['exit']}")
    (HERE / "scale.json").write_text(json.dumps(scale, indent=2) + "\n")


if __name__ == "__main__":
    main()
