"""Span tracing around manlp's public functions, installed from outside.

``Tracer.install`` wraps every public module-level function of the layers in
``LAYERS`` (and ``Program.of``) and rebinds the wrapper wherever the original
is referenced: in each manlp module that imported it and in the lattice
signature tables that dispatch connectives.  Most functions record one span
each (name, start, end, parent span, task id).  Hot leaves, which run
millions of times, are only aggregated: a call count and a total time.  Every
call, span or leaf, is charged to its caller so that each layer's self time
is its own duration minus the time spent in the traced calls beneath it.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("lattice", "syntax", "semantics", "engine", "uniqueness", "oracle", "cli")

# per-call cost is near the tracer's own, so these are counted, not spanned
HOT_LEAVES = {
    "semantics.evaluate",
    "semantics.rule_value",
    "semantics.satisfies",
    "engine.tp",
    "engine.sup_norm",
    "syntax.Program.of",
    "syntax.body_atoms",
    "syntax.render_rule",
    "syntax.render_body",
    "syntax.render_value",
    "syntax.render_imp",
    "uniqueness.rule_lambdas",
    "uniqueness.star_decompose",
}


def _json_bytes(argv) -> int:
    argv = list(argv)
    return os.path.getsize(argv[argv.index("--json") + 1]) if "--json" in argv else 0


# counters taken where a call returns: function -> [(counter, f(args, result))]
COUNTERS = {
    "cli.main": [("cli.json_bytes", lambda a, r: _json_bytes(a[0]))],
    "syntax.load_program": [("syntax.rules_parsed", lambda a, r: len(r.rules))],
    "engine.default_starts": [("engine.starts", lambda a, r: len(r))],
    "engine.stable_search": [("engine.starts_nonconverged", lambda a, r: r.nonconverged_starts)],
    "engine.least_fixpoint": [("engine.lfp_iterations", lambda a, r: len(r.iterates) - 1)],
    "engine.iterate_tp": [("engine.iterates_retained", lambda a, r: len(r.iterates))],
    "engine.tp": [("engine.tp.rules", lambda a, r: len(a[0].rules))],
    "uniqueness.solve_unique_traced": [("uniqueness.solve_iterations", lambda a, r: len(r[1].iterates) - 1)],
    "oracle.brute_force_stable": [
        ("oracle.grid_points", lambda a, r: a[1].enumeration_size(a[0].kind, len(a[0].symbols))),
        ("oracle.cluster_members", lambda a, r: sum(len(c.members) for c in r)),
    ],
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.task = None
        self.spans: list[list] = []  # [id, parent id, task, name, start, end]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)  # inclusive seconds per function
        self.self_time: dict[str, float] = defaultdict(float)  # seconds per layer
        self.counters: dict[str, float] = defaultdict(float)
        self._frames: list[list] = []  # open calls: [seconds in traced callees, span id]

    def begin_task(self, task_id) -> None:
        self.task = task_id
        self._frames = [[0.0, None]]
        self.active = True

    def end_task(self) -> None:
        self.active = False
        self.task = None

    def _wrap(self, fn, name: str, layer: str):
        tracer, clock = self, time.perf_counter
        calls, total, self_time, counters = self.calls, self.total, self.self_time, self.counters
        hooks = COUNTERS.get(name, ())
        is_span = not (name in HOT_LEAVES or layer == "lattice")

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frames = tracer._frames
            record = None
            if is_span:
                record = [len(tracer.spans), frames[-1][1], tracer.task, name, 0.0, 0.0]
                tracer.spans.append(record)
            frame = [0.0, record[0] if record else frames[-1][1]]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                frames[-1][0] += t1 - t0
                calls[name] += 1
                total[name] += t1 - t0
                self_time[layer] += t1 - t0 - frame[0]
                if record:
                    record[4], record[5] = t0, t1
            for counter, measure in hooks:
                try:
                    counters[counter] += measure(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # the function's result changed shape; the counter stays as it was
            return result

        return wrapped

    def install(self) -> None:
        """Wrap every public function of every layer and rebind the wrappers."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"manlp.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # its work happens in the caller's loop, after it returns
                replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        program = sys.modules["manlp.syntax"].Program
        if isinstance(vars(program).get("of"), classmethod):
            program.of = classmethod(self._wrap(program.of.__func__, "syntax.Program.of", "syntax"))

        for name, module in list(sys.modules.items()):
            if name == "manlp" or name.startswith("manlp."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replace:
                        setattr(module, attr, replace[id(obj)])
        # connectives and aggregators are dispatched through the signature tables
        lattice = sys.modules["manlp.lattice"]
        for sig in [v for v in vars(lattice).values() if isinstance(v, getattr(lattice, "LatticeSignature", ()))]:
            for attr, value in list(vars(sig).items()):
                if id(value) in replace:
                    object.__setattr__(sig, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, getattr(lattice, "AdjointPair", ())):
                            item = type(item)(replace.get(id(item.conj), item.conj), replace.get(id(item.imp), item.imp))
                        value[key] = replace.get(id(item), item)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "task", "name", "start", "end"], "spans": self.spans}, fh)
            fh.write("\n")
