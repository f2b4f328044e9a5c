"""Per-layer metrics of a traced run, and isolated lattice timings.

Times and counts are per task (one verdict), so that a faster commit, which
fits more passes into the same run, still reports comparable numbers.  A
layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
import timeit

PER_CALL_LOOPS = 20000


def lattice_timings() -> dict[str, float]:
    """Nanoseconds per call of the hot lattice operations on fixed inputs,
    including the Python call itself; median of five batches."""
    from manlp import EiParams, Interval, LatticeKind, Unit, lattice

    u, v, w = Unit(0.3), Unit(0.8), Unit(0.55)
    a, b = Interval(0.2, 0.6), Interval(0.3, 0.9)
    p = EiParams(2, 1, 2, 2)
    cases = {
        "lattice.ei_product_ns": lambda: lattice.ei_product(p, a, b),
        "lattice.product_and_ns": lambda: lattice.product_and(u, v),
        "lattice.godel_and_ns": lambda: lattice.godel_and(u, v),
        "lattice.negate_ns": lambda: lattice.negate(u),
        "lattice.sup_value_ns": lambda: lattice.sup_value((u, v, w), LatticeKind.UNIT),
        "lattice.value_ctor_ns": lambda: Interval(0.2, 0.6),
    }
    return {
        name: 1e9 * statistics.median(timeit.repeat(fn, number=PER_CALL_LOOPS, repeat=5)) / PER_CALL_LOOPS
        for name, fn in cases.items()
    }


def per_layer(tracer, run, lattice_ns: dict[str, float], verdicts_per_s: float) -> dict:
    n = run.attempted
    calls, total, counters, self_time = tracer.calls, tracer.total, tracer.counters, tracer.self_time

    def ms(fn: str) -> float:
        return 1000.0 * total[fn] / n

    def per_task(x: float) -> float:
        return x / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    names = {span[0]: span[3] for span in tracer.spans}
    rounds = sum(
        1 for span in tracer.spans if span[3] == "engine.reduct" and names.get(span[1]) == "engine.stable_search"
    )
    starts = counters["engine.starts"]
    values = {
        "cli.main.ms": (ms("cli.main"), "ms/task"),
        "cli.self_ms": (1000.0 * per_task(self_time["cli"]), "ms/task"),
        "cli.json_bytes": (per_task(counters["cli.json_bytes"]), "B/task"),
        "syntax.load_program.ms": (ms("syntax.load_program"), "ms/task"),
        "syntax.rules_parsed_per_s": (ratio(counters["syntax.rules_parsed"], total["syntax.load_program"]), "1/s"),
        "syntax.Program.of.calls": (per_task(calls["syntax.Program.of"]), "count/task"),
        "syntax.Program.of.ms": (ms("syntax.Program.of"), "ms/task"),
        "syntax.self_ms": (1000.0 * per_task(self_time["syntax"]), "ms/task"),
        "engine.stable_search.ms": (ms("engine.stable_search"), "ms/task"),
        "engine.stable_search.rounds": (per_task(rounds), "count/task"),
        "engine.starts_converged_ratio": (ratio(starts - counters["engine.starts_nonconverged"], starts), "ratio"),
        "engine.reduct.calls": (per_task(calls["engine.reduct"]), "count/task"),
        "engine.reduct.ms": (ms("engine.reduct"), "ms/task"),
        "engine.least_fixpoint.calls": (per_task(calls["engine.least_fixpoint"]), "count/task"),
        "engine.lfp_iterations": (per_task(counters["engine.lfp_iterations"]), "count/task"),
        "engine.least_fixpoint.ms": (ms("engine.least_fixpoint"), "ms/task"),
        "engine.tp.calls": (per_task(calls["engine.tp"]), "count/task"),
        "engine.tp.ms": (ms("engine.tp"), "ms/task"),
        "engine.tp.us_per_rule": (1e6 * ratio(total["engine.tp"], counters["engine.tp.rules"]), "us"),
        "engine.sup_norm.calls": (per_task(calls["engine.sup_norm"]), "count/task"),
        "engine.sup_norm.ms": (ms("engine.sup_norm"), "ms/task"),
        "engine.check_stable.ms": (ms("engine.check_stable"), "ms/task"),
        "engine.iterates_retained": (per_task(counters["engine.iterates_retained"]), "count/task"),
        "engine.self_ms": (1000.0 * per_task(self_time["engine"]), "ms/task"),
        "semantics.evaluate.calls": (per_task(calls["semantics.evaluate"]), "count/task"),
        "semantics.evaluate.ms": (ms("semantics.evaluate"), "ms/task"),
        "semantics.self_ms": (1000.0 * per_task(self_time["semantics"]), "ms/task"),
        **{name: (value, "ns") for name, value in lattice_ns.items()},
        "lattice.calls": (per_task(sum(c for f, c in calls.items() if f.startswith("lattice."))), "count/task"),
        "lattice.self_ms": (1000.0 * per_task(self_time["lattice"]), "ms/task"),
        "uniqueness.certify.ms": (ms("uniqueness.certify"), "ms/task"),
        "uniqueness.solve_unique_traced.ms": (ms("uniqueness.solve_unique_traced"), "ms/task"),
        "uniqueness.solve_iterations": (per_task(counters["uniqueness.solve_iterations"]), "count/task"),
        "uniqueness.self_ms": (1000.0 * per_task(self_time["uniqueness"]), "ms/task"),
        "oracle.brute_force_stable.ms": (ms("oracle.brute_force_stable"), "ms/task"),
        "oracle.grid_points": (per_task(counters["oracle.grid_points"]), "count/task"),
        "oracle.grid_points_per_s": (
            ratio(counters["oracle.grid_points"], total["oracle.brute_force_stable"]),
            "1/s",
        ),
        "oracle.cluster_members": (per_task(counters["oracle.cluster_members"]), "count/task"),
        "oracle.self_ms": (1000.0 * per_task(self_time["oracle"]), "ms/task"),
        "trace.task_ms": (1000.0 * per_task(run.busy), "ms/task"),
        "trace.verdicts_per_s": (verdicts_per_s, "1/ref_s"),
        "trace.spans": (per_task(len(tracer.spans)), "count/task"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
