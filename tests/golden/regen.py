"""Regenerate the golden corpus of the three transform commands.

Each case is a seeded instance from `sepshare gen` plus what one transform
command makes of it: the exit code, the report bytes and the `--trace`
bytes.  `tests/test_golden.py` reruns every case in-process and diffs all
three byte for byte, so rerun this script only for a change that is meant
to alter reports, and say why in the change log.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from sepshare.cli import run

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)

# (case prefix, generator argv, transform argv)
FAMILIES = [
    ("ufl", ["gen", "ufl", "--players", "6", "--facilities", "8"], ["transform-matroid"]),
    ("matroid", ["gen", "matroid"], ["transform-matroid"]),
    ("tree", ["gen", "tree"], ["transform-tree"]),
    ("sp", ["gen", "sp"], ["nsepa", "transform"]),
    ("sp8", ["gen", "sp", "--players", "8"], ["nsepa", "transform"]),
]


def main() -> None:
    manifest = []
    for prefix, gen, command in FAMILIES:
        for seed in SEEDS:
            case = {"name": f"{prefix}-{seed:02d}",
                    "gen": gen + ["--seed", str(seed)], "command": command}
            folder = HERE / case["name"]
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir()
            instance = folder / "instance.json"
            if run(case["gen"] + ["--out", str(instance)]) != 0:
                sys.exit(f"generator failed for {case['name']}")
            code = run(command + ["--in", str(instance),
                                  "--out", str(folder / "report.json"),
                                  "--trace", str(folder / "trace.jsonl")])
            manifest.append({**case, "exit": code})
            print(f"{case['name']}: exit {code}")
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
