"""Span tracer that wraps `sepshare` functions from outside the package.

`Tracer.install()` replaces each function or method named in `SPANS` by a
wrapper that records a span (name, parent, start, end) and each one in
`COUNTERS` by a wrapper that only counts calls; `uninstall()` restores the
originals.  Module-level functions are replaced in every `sepshare` module
that imported them by name, so `cli`'s own reference to `total_cost` is
traced as well.

A span's layer is the module it was defined in.  `summary()` derives each
span's self time as its duration minus the durations of its child spans,
adds the self times up per layer, and adds up the inclusive times of the
named metrics (only the outermost span of a metric counts, so recursion or
nesting within one metric is not counted twice).  Small, hot functions
(cost lookups, independence queries) are only counted: a span around each
of them would cost more than the work it measures, and their time stays in
the self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute) -> metric whose inclusive time the span adds to, or None
SPANS = {
    ("cli", "run"): None,
    ("schema", "loads"): "schema.load_s",
    ("schema", "game_from_json"): "schema.load_s",
    ("schema", "profile_from_json"): "schema.load_s",
    ("schema", "protocol_from_json"): "schema.load_s",
    ("schema", "dumps"): "schema.dump_s",
    ("schema", "jsonable"): "schema.dump_s",
    ("schema", "profile_to_json"): "schema.dump_s",
    ("schema", "protocol_to_json"): "schema.dump_s",
    ("game", "total_cost"): "game.total_cost_s",
    ("game", "GameModel.validate_profile"): None,
    ("matroids", "transform_matroid"): "matroids.transform_s",
    ("matroids", "check_enforceable_matroid"): "matroids.check_s",
    ("matroids", "build_matroid_protocol"): "matroids.protocol_s",
    ("singlesource", "transform_single_source"): None,
    ("singlesource", "to_tree_profile"): "singlesource.tree_profile_s",
    ("singlesource", "AuxiliaryGraph._build_aux_edges"): "singlesource.aux_build_s",
    ("singlesource", "AuxiliaryGraph.run"): "singlesource.pricing_s",
    ("singlesource", "AuxiliaryGraph._ghat_best"): "singlesource.ghat_s",
    ("singlesource", "expand_and_assign"): "singlesource.expand_s",
    ("network", "Network.__init__"): None,
    ("network", "Network.dijkstra"): "network.dijkstra_s",
    ("network", "Network.blocks_between"): "network.blocks_between_s",
    ("nsepa", "nsepa_transform"): None,
    ("nsepa", "is_enforceable"): None,
    ("nsepa", "alternatives"): "nsepa.alternatives_s",
    ("nsepa", "build_lp"): "nsepa.build_lp_s",
    ("nsepa", "smallest_tight_alternative"): "nsepa.tight_alternative_s",
    ("lp", "solve"): "lp.solve_s",
    ("protocol", "verify_pne"): "protocol.verify_pne_s",
    ("protocol", "verify_budget_balance"): "protocol.verify_bb_s",
}

# (module, attribute) -> counter raised once per call
COUNTERS = {
    ("game", "total_cost"): "game.total_cost_calls",
    ("game", "CostFunction.value"): "game.cost_queries",
    ("matroids", "deviation_cost"): "matroids.deviation_calls",
    ("matroids", "MatroidOracle.is_independent"): "matroids.independence_queries",
    ("network", "Network.dijkstra"): "network.dijkstra_calls",
    ("network", "Network.blocks_between"): "network.blocks_between_calls",
    ("lp", "solve"): "lp.solves",
}

LAYERS = ("schema", "cli", "game", "matroids", "singlesource", "network", "nsepa",
          "lp", "protocol")


def _lp_size(counts, args, _result):
    lp = args[0]
    counts["lp.rows"] += len(lp.rows)
    counts["lp.vars"] += len(lp.objective)
    counts["lp.nonzeros"] += sum(sum(map(bool, row)) for row in lp.rows)


def _moves(counts, _args, result):
    counts["matroids.moves"] += len(result.moves)


def _aux_edges(counts, args, _result):
    counts["singlesource.aux_edges"] += len(args[0].aux)


def _priced(counts, _args, result):
    counts["singlesource.edges_priced"] += bool(result)


def _dropped(counts, _args, _result):
    counts["singlesource.replacements"] += 1


def _phases(counts, _args, result):
    counts["nsepa.phases"] += result.phases
    counts["nsepa.substitutions"] += len(result.substitutions)


# (module, attribute) -> hook run on the arguments and result after a call;
# its time is kept out of every span and reported as trace.hook_s
HOOKS = {
    ("lp", "solve"): _lp_size,
    ("matroids", "transform_matroid"): _moves,
    ("singlesource", "AuxiliaryGraph._build_aux_edges"): _aux_edges,
    ("singlesource", "AuxiliaryGraph.process_next"): _priced,
    ("singlesource", "AuxiliaryGraph._drop_edge"): _dropped,
    ("nsepa", "nsepa_transform"): _phases,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, metric or None]
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.hook_s = 0.0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, spanned: bool, metric, counter, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.counts[counter] += 1
            if not spanned:
                result = fn(*args, **kwargs)
                if hook:
                    t = clock()
                    hook(tracer.counts, args, result)
                    tracer._charge_hook(clock() - t)
                return result
            stack = tracer._stack
            outer = metric if metric and not tracer._active[metric] else None
            if metric:
                tracer._active[metric] += 1
            index = len(tracer.spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, outer]
            tracer.spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if metric:
                    tracer._active[metric] -= 1
            if hook:
                t = clock()
                hook(tracer.counts, args, result)
                tracer._charge_hook(clock() - t)
            return result

        return wrapper

    def _charge_hook(self, seconds: float) -> None:
        self.hook_s += seconds
        if self._stack:
            self.spans[self._stack[-1]].append(seconds)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"sepshare.{m}") for m in LAYERS}
        for key in sorted(set(SPANS) | set(COUNTERS) | set(HOOKS)):
            module, attr = key
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(f"{module}.{attr}", original, key in SPANS,
                                 SPANS.get(key), COUNTERS.get(key), HOOKS.get(key))
            if path:
                setattr(owner, leaf, wrapper)
                self._undo.append((owner, leaf, original))
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name == "sepshare" or name.startswith("sepshare."):
                    if mod.__dict__.get(leaf) is original:
                        setattr(mod, leaf, wrapper)
                        self._undo.append((mod, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    # -- derivation --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times, per-metric inclusive times and counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        out: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({m: 0.0 for m in set(SPANS.values()) if m})
        out["nsepa.transform_self_s"] = 0.0
        for k, span in enumerate(self.spans):
            name, _parent, start, end, outer = span[:5]
            hooks = sum(span[5:])
            own = end - start - child[k] - hooks
            out[name.split(".")[0] + ".self_s"] += own
            if name == "nsepa.nsepa_transform":
                out["nsepa.transform_self_s"] += own
            if outer:
                out[outer] += end - start - hooks
        for name in list(COUNTERS.values()) + _HOOK_COUNTS:
            out[name] = float(self.counts[name])
        out["trace.hook_s"] = self.hook_s
        return out

    def dump(self) -> list[dict]:
        """The recorded spans, times relative to the first start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [{"name": s[0], "parent": s[1], "start": s[2] - t0, "end": s[3] - t0}
                for s in self.spans]


_HOOK_COUNTS = ["lp.rows", "lp.vars", "lp.nonzeros", "matroids.moves",
                "singlesource.aux_edges", "singlesource.edges_priced",
                "singlesource.replacements", "nsepa.phases", "nsepa.substitutions"]
