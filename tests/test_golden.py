"""Golden corpus: every transform, check, verify and optimum case gives
the recorded exit code and byte-identical report and trace, in this
process and replayed by tests/golden/replay.py under two fixed hash
seeds; and the generators still write every case's instance.  The
replays rebuild each case of the scale group and hold its instance,
report and trace to their recorded SHA-256 digests.  Regenerate with
tests/golden/regen.py."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepshare.cli import run
from sepshare.schema import dumps

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
SCALE = json.loads((GOLDEN / "scale.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case_is_byte_identical(case, tmp_path):
    folder = GOLDEN / case["name"]
    report, trace = tmp_path / "report.json", tmp_path / "trace.jsonl"
    code = run(case["command"] + ["--in", str(folder / "instance.json"),
                                  "--out", str(report), "--trace", str(trace)])
    assert code == case["exit"]
    assert report.read_bytes() == (folder / "report.json").read_bytes()
    assert trace.read_bytes() == (folder / "trace.jsonl").read_bytes()


def _replay(*families, **env):
    """The replay script run over `families` in a fresh interpreter, with
    `env` added to its environment."""
    src = str(GOLDEN.parent.parent / "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(GOLDEN / "replay.py"), *families],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_golden_cases_replay_under_a_fixed_hash_seed(hash_seed):
    """No report depends on set or dict iteration order: the replay script
    reruns every family in a fresh interpreter."""
    families = sorted({c["name"].rsplit("-", 1)[0] for c in CASES + SCALE})
    done = _replay(*families, PYTHONHASHSEED=hash_seed)
    assert done.returncode == 0, done.stdout + done.stderr
    assert (len(CASES), len(SCALE)) == (112, 12)
    assert "replayed 124 cases, 0 differences" in done.stdout


def test_replay_takes_every_family_by_default_and_rejects_an_unknown_one():
    """Named no family, the replay script reruns the whole corpus; a
    misspelled family exits 2 naming it instead of replaying no case."""
    every = _replay()
    assert every.returncode == 0, every.stdout + every.stderr
    assert "replayed 124 cases, 0 differences" in every.stdout
    typo = _replay("sp", "sp-chian")
    assert (typo.returncode, typo.stdout) == (2, "")
    assert typo.stderr == "no golden case in family sp-chian\n"


def _regen_module():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generators_reproduce_every_golden_instance(tmp_path):
    """Each case's `gen` argv, or its `chain_instance` arguments, or its
    `gen` argv with the output of its "bundle" transform, still writes its
    instance.json byte for byte, so no seed's stream moved."""
    regen = _regen_module()
    built = {"gen": 0, "builder": 0, "bundle": 0}
    for case in CASES:
        recorded = (GOLDEN / case["name"] / "instance.json").read_bytes()
        if "builder" in case:
            made = (dumps(regen.chain_instance(**case["builder"])) + "\n").encode()
            built["builder"] += 1
        elif "bundle" in case:
            made = (dumps(regen.bundled_instance(case["gen"], case["bundle"])) + "\n").encode()
            built["bundle"] += 1
        else:
            out = tmp_path / f"{case['name']}.json"
            assert run(case["gen"] + ["--out", str(out)]) == 0
            made = out.read_bytes()
            built["gen"] += 1
        assert made == recorded, case["name"]
    assert built == {"gen": 98, "builder": 5, "bundle": 9}


def test_scale_group_is_eight_times_the_largest_case():
    """Each scale family holds three exit-0 cases of about eight times the
    (player, resource) pairs of its largest small case, and every chain
    has at least 32 bundles.  The replays above rebuild each instance and
    check its digest, so the pair counts recorded with it hold."""
    def pairs(name):
        doc = json.loads((GOLDEN / name / "instance.json").read_text())
        return sum(map(len, doc["profile"]))

    largest = {family: max(pairs(c["name"]) for c in CASES if c["name"].startswith(prefix))
               for family, prefix in (("ufl", "ufl40-"), ("matroid", "matroid-"),
                                      ("tree", "tree-"), ("chain", "chain-"))}
    for case in SCALE:
        family = case["name"].split("-")[1]
        assert case["exit"] == 0
        assert family != "chain" or case["builder"]["bundles"] >= 32
        assert 5 <= case["pairs"] / largest[family] <= 12, case["name"]
