"""Tests of the benchmark's own parts: builders, checker and tracer.

    python3 -m pytest bench
"""

import copy
import json
import random

import pytest

import checker
import instances
import run
from tracer import LAYERS, Tracer

cli = run.import_cli()


def solved(workload, builder_args, key="test"):
    argv, builder, _classes = instances.WORKLOADS[workload]
    doc = builder(random.Random(key), *builder_args)
    code, report, _seconds = run.call(cli, argv, json.dumps(doc))
    assert code == 0, report
    return "-".join(argv), doc, json.loads(report)


@pytest.fixture(scope="module")
def matroid_case():
    return solved("ufl", (6, 8, 2))


@pytest.fixture(scope="module")
def path_case():
    return solved("sp-chain", (6, 3))


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    first = instances.build(workload, 7)
    assert instances.build(workload, 7) == first
    assert instances.build(workload, 8) != first


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_checker_accepts_the_small_instances(workload):
    argv, builder, classes = instances.WORKLOADS[workload]
    args = dict((label, a) for label, a, _count in classes)["small"]
    for k in range(3):
        command, doc, report = solved(workload, args, key=f"accept/{k}")
        assert checker.check(command, doc, report) == []


def test_checker_rejects_a_share_moved_to_another_player(matroid_case):
    command, doc, report = matroid_case
    bad = copy.deepcopy(report)
    share = bad["protocol"]["shares"][0]
    users = {i for i, row in enumerate(bad["profile"]) if share["resource"] in row}
    share["player"] = min(set(range(doc["players"])) - users)
    problems = checker.check(command, doc, bad)
    assert any("off the profile" in p for p in problems)
    assert any(f"resource {share['resource']}:" in p for p in problems)


def test_checker_rejects_an_edge_swapped_off_the_path(path_case):
    command, doc, report = path_case
    bad = copy.deepcopy(report)
    row = bad["profile"][0]
    outside = min(set(doc["resources"]) - set(row))
    bad["profile"][0] = sorted(row[1:] + [outside])
    bad["protocol"]["base"] = bad["profile"]
    problems = checker.check(command, doc, bad)
    assert "strategy of player 0 is not a basis or simple path" in problems


def test_checker_rejects_a_raised_output_cost(path_case):
    command, doc, report = path_case
    bad = dict(report, output_cost=str(checker.rational(report["output_cost"]) + 1))
    problems = checker.check(command, doc, bad)
    assert any(p.startswith("output_cost") for p in problems)


def test_checker_finds_the_deviation_in_the_fixed_tree_instance():
    (_label, text), = [op for op in instances.build("tree", 1) if op[0] == "fixed"]
    code, report, _seconds = run.call(cli, ["transform-tree"], text)
    assert code == 1
    assert checker.check("transform-tree", json.loads(text), json.loads(report)) == [
        "player 1 can deviate from 22 to 20"
    ]


def test_tracer_self_times_add_up_and_uninstall_restores(path_case):
    _command, doc, _report = path_case
    original = cli.run
    tracer = Tracer()
    tracer.install()
    try:
        code, _report, seconds = run.call(cli, ["nsepa", "transform"], json.dumps(doc))
    finally:
        tracer.uninstall()
    assert code == 0 and cli.run is original
    summary = tracer.summary()
    layers = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert 0.9 * seconds <= layers <= seconds
    assert summary["lp.solves"] == 2 and summary["lp.vars"] > 0
    assert summary["lp.self_s"] <= summary["lp.solve_s"] <= seconds
