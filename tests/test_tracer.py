"""The benchmark's span tracer still finds every package function it wraps.

`bench/tracer.py` patches `sepshare` functions and methods by name from
outside the package, so a renamed one would otherwise break only a traced
benchmark run.  Here the tracer is loaded from `bench/` without writing
there, installed against the package for one small run per traced
transform, and uninstalled.  The LP counters must also count the rows and
nonzeros of exactly the programs that were solved, whatever form the
package gives its rows.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import sepshare.lp
import sepshare.nsepa
from sepshare.cli import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _named(tracer_module) -> dict:
    """Each traced (module, attribute) and the object it names now."""
    out = {}
    for module, attr in set(tracer_module.SPANS) | set(tracer_module.COUNTERS) | set(
            tracer_module.HOOKS):
        owner = importlib.import_module(f"sepshare.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in owner.__dict__, f"sepshare.{module}.{attr} is gone"
        out[(module, attr)] = owner.__dict__[leaf]
    return out


def test_install_wraps_every_name_and_uninstall_restores_it(tracer_module, tmp_path):
    # a `gen matroid` game has cost tables: `gen ufl`'s costs are all fixed,
    # and the game reads those off its fixed-cost row, asking no cost function;
    # `transform-matroid` prices from its kept rankings, so `verify`, whose
    # protocol search prices every exchange afresh, reaches `deviation_cost`
    before = _named(tracer_module)
    inst, out, checked = tmp_path / "matroid.json", tmp_path / "r.json", tmp_path / "v.json"
    assert run(["gen", "matroid", "--players", "4", "--resources", "6", "--seed", "3",
                "--out", str(inst)]) == 0
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        wrapped = _named(tracer_module)
        assert all(wrapped[key] is not before[key] for key in before)
        assert run(["transform-matroid", "--in", str(inst), "--out", str(out)]) == 0
        assert run(["verify", "--in", str(inst), "--out", str(checked)]) == 0
    finally:
        tracer.uninstall()
    assert _named(tracer_module) == before
    summary = tracer.summary()
    for counter in ("game.total_cost_calls", "game.cost_queries", "matroids.deviation_calls",
                    "matroids.independence_queries"):
        assert summary[counter] > 0, counter
    assert summary["schema.load_s"] > 0 and summary["matroids.transform_s"] > 0
    assert json.loads(out.read_text())["command"] == "transform-matroid"
    assert json.loads(checked.read_text())["command"] == "verify"


def test_the_tree_layer_reports_its_spans_and_counters(tracer_module, tmp_path):
    # `gen tree --seed 9` drops two edges, so every single-source span and
    # counter sees work; the drop counter counts the trace's drop steps
    inst, out, trace = tmp_path / "tree.json", tmp_path / "r.json", tmp_path / "t.jsonl"
    assert run(["gen", "tree", "--seed", "9", "--out", str(inst)]) == 0
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert run(["transform-tree", "--in", str(inst), "--out", str(out),
                    "--trace", str(trace)]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in ("singlesource.aux_edges", "singlesource.edges_priced",
                 "singlesource.replacements", "singlesource.aux_build_s",
                 "singlesource.pricing_s", "singlesource.ghat_s"):
        assert summary[name] > 0, name
    steps = [json.loads(line)["step"] for line in trace.read_text().splitlines()]
    assert summary["singlesource.replacements"] == steps.count("drop") == 2
    assert json.loads(out.read_text())["command"] == "transform-tree"


def test_the_lp_counters_count_every_solved_row_and_nonzero(tracer_module, tmp_path,
                                                              monkeypatch):
    # the LP hook counts a row's nonzeros as its truthy entries, so it holds
    # only while every entry of a row is one nonzero, column 0 included
    solved = []

    def recording_solve(lp):
        solved.append(lp)
        return sepshare.lp.solve(lp)  # looked up per call: the traced one

    monkeypatch.setattr(sepshare.nsepa, "solve", recording_solve)
    inst, out = tmp_path / "sp.json", tmp_path / "r.json"
    assert run(["gen", "sp", "--seed", "9", "--out", str(inst)]) == 0
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert run(["nsepa", "transform", "--in", str(inst), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["lp.solves"] == len(solved) == 2
    assert any(j == 0 for lp in solved for row in lp.rows for j, _a in row)
    assert summary["lp.rows"] == sum(len(lp.rows) for lp in solved)
    assert summary["lp.nonzeros"] == sum(1 for lp in solved for row in lp.rows
                                         for _j, a in row if a)
