"""Benchmark of the three transform commands of `sepshare`.

    python3 bench/run.py --workload ufl --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, and the run stops with an error when it is not there.  Each
workload builds its instances from the seed (see `instances.py`), feeds
each one as JSON text to `sepshare.cli.run` in this process, one at a time
(a closed loop with one client, one thread), and checks every report with
`checker.py`.  One operation is one instance; it fails on a nonzero exit,
an exception, or a failed check.  Rounds over the whole instance set
repeat until the next one would end after `--seconds`.

Times are wall seconds rescaled to a nominal machine speed by the
reference loop of `reference.py`, timed between operations (see
README.md); the unscaled figures go to standard error.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
`--workload all` runs every workload in its own process and prints one
such line per workload, prefixed by its name.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checker
import instances
import reference
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

# import first, so that the reference loop cannot preload modules for it
_IMPORT = (
    "import time; t = time.perf_counter(); import sepshare.cli; "
    "t = time.perf_counter() - t; import reference; "
    "print(t, reference.seconds(), sepshare.cli.__file__)"
)


def _from_src(path: str) -> bool:
    return Path(path).resolve().parent.parent == SRC.resolve()


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import sepshare.cli as cli
    except ImportError as ex:
        sys.exit(f"cannot import sepshare from {SRC}: {ex}")
    if not _from_src(cli.__file__):
        sys.exit(f"sepshare was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_seconds() -> tuple[float, float]:
    """Median time to import the CLI in a fresh interpreter, rescaled and
    unscaled; the first import, which writes the bytecode cache, is not
    counted."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    imports, loops = [], []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", _IMPORT], env=env, cwd=HERE.parent,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, loop, path = done.stdout.split()
        if not _from_src(path):
            sys.exit(f"fresh interpreter imported sepshare from {path}")
        if k:
            imports.append(float(seconds))
            loops.append(float(loop))
    raw = statistics.median(imports)
    return raw * reference.NOMINAL / statistics.median(loops), raw


def call(cli, argv: list, text: str) -> tuple[object, str, float]:
    """One CLI invocation in this process: exit code (None when it raised),
    report text (the traceback when it raised) and wall seconds."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run(list(argv))
    except Exception:  # a traceback out of the CLI is a failed operation
        code = None
        sys.stdout = io.StringIO(traceback.format_exc())
    seconds = time.perf_counter() - start
    report = sys.stdout.getvalue()
    sys.stdin, sys.stdout, sys.stderr = saved
    return code, report, seconds


class Run:
    """Rounds over one workload's instances, with their checks."""

    def __init__(self, cli, workload: str, seed: int) -> None:
        self.cli = cli
        self.argv, _builder, _classes = instances.WORKLOADS[workload]
        self.command = "-".join(self.argv)
        self.ops = instances.build(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.stable = True
        self.first: dict[int, str] = {}
        self.verdicts: dict[tuple[int, str], bool] = {}
        self.costs: dict[int, Fraction] = {}

    def round(self) -> list[tuple[float, float]]:
        """(rescaled, wall) seconds of every operation.  The reference loop
        runs once before the round and after every operation, once more
        for every quarter second the operation took; an operation's
        machine speed is the mean of the median loop times before and
        after it."""
        times = []
        gc.collect()
        loop = reference.seconds()
        for k, (_label, text) in enumerate(self.ops):
            self.attempted += 1
            code, report, seconds = call(self.cli, self.argv, text)
            gc.collect()
            before = loop
            loop = statistics.median(reference.seconds() for _ in range(1 + int(seconds * 4)))
            times.append((seconds * 2 * reference.NOMINAL / (before + loop), seconds))
            if not self._passes(k, code, text, report):
                self.failed += 1
        return times

    def _passes(self, k: int, code, text: str, report: str) -> bool:
        if self.first.setdefault(k, report) != report:
            self.stable = False
        if (k, report) not in self.verdicts:
            if code is None:
                problems = [report.strip().splitlines()[-1]]
            else:
                doc = json.loads(report)
                problems = checker.check(self.command, json.loads(text), doc)
                if code:
                    problems.insert(0, f"exit code {code}")
                if not problems:
                    self.costs[k] = checker.rational(doc["output_cost"])
            for problem in problems[:5]:
                print(f"operation {k}: {problem}", file=sys.stderr)
            self.verdicts[(k, report)] = not problems
        return self.verdicts[(k, report)]

    def rounds(self, deadline: float, before=None, after=None, at_least: int = 1) -> list:
        """Whole rounds, at least `at_least`, until the next one would end
        after `deadline` (a `time.perf_counter` value)."""
        out = []
        while True:
            began = time.perf_counter()
            if before:
                before()
            out.append(self.round())
            if after:
                after(out[-1])
            now = time.perf_counter()
            if len(out) >= at_least and now + (now - began) > deadline:
                return out

    def seconds(self, rounds: list, label=None, wall: bool = False) -> float:
        """Sum over the operations (of one size class) of their median
        time over the rounds."""
        return sum(
            statistics.median(r[k][wall] for r in rounds)
            for k, (cls, _text) in enumerate(self.ops)
            if label in (None, cls)
        )


def end_to_end(run: Run, seconds: float) -> dict:
    setup, setup_raw = setup_seconds()
    rounds = run.rounds(time.perf_counter() + seconds)
    print(f"{len(rounds)} rounds; unscaled setup_s {setup_raw:.4f}, "
          f"solve_s {run.seconds(rounds, wall=True):.4f}", file=sys.stderr)
    return {
        "setup_s": (setup, "s"),
        "solve_s": (run.seconds(rounds), "s"),
        "small_s": (run.seconds(rounds, "small"), "s"),
        "large_s": (run.seconds(rounds, "large"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "profile_cost": (float(sum(run.costs.values(), Fraction(0))), "cost"),
    }


def per_layer(run: Run, seconds: float, spans_file: Path) -> dict:
    """Layer metrics from traced rounds.  Untraced rounds alternate with
    them and give the reference for the tracing overhead.  Span times are
    rescaled by the round's ratio of rescaled to wall seconds."""
    tracer = Tracer()
    plain, traced, summaries = [], [], []

    def before():
        if len(plain) > len(traced):
            tracer.reset()
            tracer.install()

    def after(times):
        if not tracer.installed:
            plain.append(times)
            return
        tracer.uninstall()
        traced.append(times)
        scale = sum(t[0] for t in times) / sum(t[1] for t in times)
        summary = {name: value * scale if name.endswith("_s") else value
                   for name, value in tracer.summary().items()}
        summaries.append(dict(summary, **{"trace.solve_s": sum(t[0] for t in times)}))

    try:
        run.rounds(time.perf_counter() + seconds, before, after, at_least=2)
    finally:
        tracer.uninstall()
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps(tracer.dump()))
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["trace.coverage"] = layers / metrics["trace.solve_s"]
    metrics["trace.overhead"] = run.seconds(traced) / run.seconds(plain) - 1
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.coverage", "trace.overhead"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(instances.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        for name in instances.WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            print(name, done.stdout.strip().splitlines()[-1], flush=True)
        return 0
    cli = import_cli()
    run = Run(cli, args.workload, args.seed)
    if args.trace:
        metrics = per_layer(run, args.seconds,
                            OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = end_to_end(run, args.seconds)
    print(json.dumps({
        "correct": run.stable,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
