"""Replay golden cases and diff them against the recorded bytes.

Reruns every case of the named families (the case name without its
`-NN` suffix, such as `sp`, `verify-tree`, `chain` or `scale-tree`), or
of every family when none is named, in this process and compares the exit
code, report and trace with what `cases.json` and the case folder hold.
A case of the scale group is rebuilt first, and its exit code and the
digests of its instance, report and trace are compared with `scale.json`.
Run it under a fixed `PYTHONHASHSEED` to check that reports do not depend
on set or dict order:

    PYTHONHASHSEED=4242 PYTHONPATH=src python3 tests/golden/replay.py sp tree

Prints one line per differing case and exits 1 if there is any.  A
family that no case belongs to exits 2 with one line naming it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from regen import scale_digests
from sepshare.cli import run

HERE = Path(__file__).resolve().parent


def _same(made: Path, recorded: Path) -> bool:
    return made.exists() and made.read_bytes() == recorded.read_bytes()


def main(families: list[str]) -> int:
    cases = [*json.loads((HERE / "cases.json").read_text()),
             *json.loads((HERE / "scale.json").read_text())]
    known = {c["name"].rsplit("-", 1)[0] for c in cases}
    unknown = [f for f in families if f not in known]
    if unknown:
        print(f"no golden case in family {', '.join(unknown)}", file=sys.stderr)
        return 2
    if families:
        cases = [c for c in cases if c["name"].rsplit("-", 1)[0] in families]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            folder = HERE / case["name"]
            out = Path(tmp) / case["name"]
            out.mkdir()
            if "sha256" in case:
                made = scale_digests(case, out)
                checks = [("exit code", made["exit"] == case["exit"])] + [
                    (name, made["sha256"].get(name) == digest)
                    for name, digest in case["sha256"].items()]
            else:
                report, trace = out / "report.json", out / "trace.jsonl"
                code = run(case["command"] + ["--in", str(folder / "instance.json"),
                                              "--out", str(report), "--trace", str(trace)])
                checks = [("exit code", code == case["exit"]),
                          ("report", _same(report, folder / "report.json")),
                          ("trace", _same(trace, folder / "trace.jsonl"))]
            for what, same in checks:
                if not same:
                    bad += 1
                    print(f"{case['name']}: {what} differs")
    print(f"replayed {len(cases)} cases, {bad} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
