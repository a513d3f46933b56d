"""Transform reports pass the benchmark's independent checker.

`bench/checker.py` imports nothing from `sepshare`: it rebuilds costs,
shares, budget balance, best responses and the iteration bounds from the
instance and the report alone, so a fault that a transform shares with
the package's own verifiers still fails here.  It is loaded from `bench/`
without writing there.

Three sources of reports: every exit-0 transform case of the golden
corpus, its 12 scale cases rebuilt in memory by `tests/golden/regen.py`,
and brute-force-sized games of each family, transformed from the
generator's start and from the social optimum.  The paper's corollary is
the property: the output is an equilibrium under its protocol and costs
no more than its start, so a start at the optimum keeps the optimum.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from _helpers import transform_run
from sepshare.gen import gen_matroid, gen_sp, gen_tree, gen_ufl, random_bases_profile
from sepshare.oracle import brute_force_optimum
from sepshare.schema import game_to_json, profile_to_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
TRANSFORMS = (["transform-matroid"], ["transform-tree"], ["nsepa", "transform"])


def _load(name: str, path: Path):
    """The module at `path`, loaded without writing bytecode next to it."""
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


@pytest.fixture(scope="module")
def checker():
    return _load("bench_checker", ROOT / "bench" / "checker.py")


def test_every_golden_transform_report_passes(checker):
    cases = [case for case in json.loads((GOLDEN / "cases.json").read_text())
             if case["command"] in TRANSFORMS and case["exit"] == 0]
    assert len(cases) == 60
    for case in cases:
        folder = GOLDEN / case["name"]
        instance = json.loads((folder / "instance.json").read_text())
        report = json.loads((folder / "report.json").read_text())
        assert checker.check("-".join(case["command"]), instance, report) == [], case["name"]


def test_every_scale_case_report_passes(checker, tmp_path):
    regen = _load("golden_regen", GOLDEN / "regen.py")
    cases = json.loads((GOLDEN / "scale.json").read_text())
    assert len(cases) == 12
    for case in cases:
        doc = json.loads(regen.instance_bytes(case))
        code, [report, *_steps] = transform_run(tmp_path, case["command"], doc)
        assert code == case["exit"] == 0, case["name"]
        assert checker.check("-".join(case["command"]), doc, report) == [], case["name"]


def _small_games(seed):
    """(command, game, start) of each family, small enough to enumerate."""
    rng = random.Random(f"checker/{seed}")
    game = gen_ufl(rng, players=rng.randint(1, 3), facilities=rng.randint(1, 5))
    yield ["transform-matroid"], game, random_bases_profile(rng, game)
    game = gen_matroid(rng, players=rng.randint(1, 3))
    yield ["transform-matroid"], game, random_bases_profile(rng, game)
    yield ["transform-tree"], *gen_tree(rng, vertices=rng.randint(3, 7))
    yield ["nsepa", "transform"], *gen_sp(rng)


def test_transforms_from_the_start_and_the_optimum_pass(checker, tmp_path):
    moved = 0
    for seed in range(120):
        for command, game, start in _small_games(seed):
            optimum = brute_force_optimum(game)
            for profile in (start, optimum.profile):
                doc = {**game_to_json(game), **profile_to_json(profile)}
                code, [report, *steps] = transform_run(tmp_path, command, doc)
                assert code == 0, (seed, command)
                assert checker.check("-".join(command), doc, report) == [], (seed, command)
                output = checker.rational(report["output_cost"])
                assert output <= checker.rational(report["input_cost"])
                if profile is optimum.profile:
                    assert output == optimum.cost, (seed, command)
                moved += bool(steps)
    assert moved >= 100, moved
