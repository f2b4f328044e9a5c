"""Time-to-verdict benchmark for manlp.

    python3 perfbench/run.py --workload search-small --seed 1 --seconds 30 --trace 0

Runs one workload closed-loop from a single client (this process, one
thread): each task starts when the previous verdict is in.  The timed phase
runs whole passes over the workload's task list until the busy time is
nearest ``--seconds``, so every metric covers the same mix of tasks.  Task
times are calibrated against the workload's reference kernel
(``reference.py``), timed between every two tasks: a task's wall time is
scaled by the kernel's nominal time over the mean of the four kernel runs
nearest it, so it reads in ``ref_ms`` and a phase of load from elsewhere on
the shared host cancels out.  Throughput and latency use each task's median
calibrated time over the passes, which keeps a burst of load out of the
figures as well.  Every output goes through the correctness gate in ``workloads.py``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  Lines before it name each metric with its unit
for a human reader.

Set-up generates and writes the inputs, checks them against the sha256 pins
in ``pins.json``, and finishes one warm-up task.  It runs before the timed
phase and again after each pass, at least three times in all, and ``setup_s``
is the one-time import of manlp plus the median set-up, so that a burst of
load from elsewhere on the machine at start-up does not decide it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PINS = HERE / "pins.json"


class BenchmarkError(Exception):
    """Set-up cannot proceed: manlp is missing or an input changed."""


def import_manlp() -> float:
    """Import manlp from this checkout's sources; returns the seconds taken."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MANLP_SEED", None)  # it would override the search seed
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    try:
        import manlp
    except ImportError as exc:
        raise BenchmarkError(f"cannot import manlp from {src}: {exc}") from None
    elapsed = time.perf_counter() - started
    if Path(manlp.__file__).resolve().parent != src / "manlp":
        raise BenchmarkError(f"manlp was imported from {manlp.__file__}, not from {src}")
    return elapsed


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {PINS.name}: {exc}") from None


def pin_problems(workload, seed: int, corpus: dict, seeded: dict, pins: dict) -> list[str]:
    """Differences between the generated inputs and their recorded sha256."""
    import inputs

    pinned = pins["inputs"][workload.name]
    problems = [f"{p}: not generated" for p in sorted(set(pinned) - set(corpus))]
    for path, text in corpus.items():
        if pinned.get(path) != inputs.sha256(text):
            problems.append(f"{path}: sha256 differs from the pin")
    for path, text in seeded.items():
        want = pins["seeded_inputs"].get(f"{path}|seed={seed}")
        if want is not None and want != inputs.sha256(text):
            problems.append(f"{path} (seed {seed}): sha256 differs from the pin")
    return problems


def set_up(workload, seed: int, workdir: Path, pins: dict | None):
    """Generate, check and write the inputs, then finish one warm-up task."""
    corpus, seeded = workload.inputs(seed)
    if pins is not None:
        problems = pin_problems(workload, seed, corpus, seeded, pins)
        if problems:
            raise BenchmarkError("generated inputs differ from pins.json: " + "; ".join(problems[:5]))
    for rel, text in {**corpus, **seeded}.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    workload.run(workdir, workload.warmup(corpus))
    return corpus, seeded, workload.tasks(seed, corpus)


class Run:
    """Counts and timings of one timed phase."""

    def __init__(self) -> None:
        # task key -> calibrated seconds of its runs that passed the gate
        self.verdict_s: dict[str, list[float]] = {}
        self.wall_s: list[float] = []  # the same runs' uncalibrated wall seconds
        self.reference_s: list[float] = []  # wall seconds of every reference kernel run
        self.busy = 0.0
        self.attempted = 0
        self.decided = 0
        self.failed = 0
        self.models = 0
        self.inexact_models = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}  # task key -> digest of its first run


def measure(workload, tasks, seconds: float, workdir: Path, expected: dict, tracer=None, after_pass=None) -> Run:
    """Run whole passes over ``tasks`` while another pass ends closer to
    ``seconds`` of busy time than stopping does, and at least one."""
    import reference  # after manlp, whose timed import then includes numpy's

    run = Run()
    nominal = reference.nominal_s(workload.reference)

    while True:
        busy_before = run.busy
        # kernel times of this pass, and (key, wall seconds, kernel runs
        # before it) of every verdict that passed the gate
        kernel_s = [reference.time_kernel(workload.reference)]
        passed = []
        for task in tasks:
            # start each task from a collected heap, as a fresh CLI process
            # would, so no task pays for garbage the previous one or the
            # gate left behind
            gc.collect()
            if tracer is not None:
                tracer.begin_task(run.attempted)
            started = time.perf_counter()
            try:
                raw = workload.run(workdir, task)
                error = None
            except Exception as exc:  # a raising task is a failed task, not a crashed run
                raw, error = None, exc
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.end_task()
            kernel_s.append(reference.time_kernel(workload.reference))
            run.busy += elapsed
            run.attempted += 1
            if error is not None:
                run.failed += 1
                run.problems.append(f"{task.key}: raised {error!r}")
                continue
            out = workload.outcome(workdir, task, raw)
            first = run.digests.get(task.key)
            if first is None:
                workload.check(workdir, task, raw, out)
                want = expected.get(task.key)
                if want is not None and want != out.digest:
                    out.problems.append(f"digest {out.digest} differs from the recorded {want}")
                run.digests[task.key] = out.digest
                run.models += out.models_checked
                run.inexact_models += out.inexact_models
            elif first != out.digest:
                out.problems.append("output differs from the task's first run")
            run.decided += out.decided
            if out.problems:
                run.failed += 1
                run.problems.extend(f"{task.key}: {p}" for p in out.problems)
            else:
                passed.append((task.key, elapsed, len(kernel_s) - 1))
        # each task is calibrated by the four kernel runs nearest it, two
        # before and two after
        for key, elapsed, i in passed:
            near = kernel_s[max(0, i - 2) : i + 2]
            run.verdict_s.setdefault(key, []).append(elapsed * nominal / statistics.fmean(near))
            run.wall_s.append(elapsed)
        run.reference_s.extend(kernel_s)
        if after_pass is not None:
            after_pass()
        if run.busy + (run.busy - busy_before) / 2 >= seconds:
            return run


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, capped at 90."""
    return min(90, int(100 * (samples - 10) / samples)) if samples > 10 else 0


def task_medians(run: Run) -> list[float]:
    """Each task's median calibrated time over its passes, in seconds."""
    return [statistics.median(times) for times in run.verdict_s.values()]


def verdicts_per_s(run: Run) -> float:
    """Tasks per calibrated second of one pass."""
    return len(run.verdict_s) / (sum(task_medians(run)) or 1.0)


def end_to_end(run: Run, setup_s: float) -> dict:
    medians = task_medians(run) or [0.0]  # no verdict at all: every task failed the gate
    return {
        "verdicts_per_s": {"value": verdicts_per_s(run), "unit": "1/ref_s"},
        "verdict_ms_p50": {"value": 1000.0 * statistics.median(medians), "unit": "ref_ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "decided_ratio": {"value": run.decided / run.attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def report_lines(run: Run, metrics: dict) -> list[str]:
    lines = [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    samples = [t for times in run.verdict_s.values() for t in times]
    n = len(samples)
    lines.append(f"verdict samples = {n} ({len(run.verdict_s)} tasks, {n / max(1, len(run.verdict_s)):g} runs each)")
    lines.append(f"wall throughput = {n / run.busy!r} verdicts/s over {run.busy:.3f} s busy, uncalibrated")
    lines.append(f"wall median verdict = {1000.0 * statistics.median(run.wall_s or [0.0])!r} ms over all samples, uncalibrated")
    kernel_ms = sorted(1000.0 * t for t in run.reference_s)
    lines.append(
        f"reference kernel: median {statistics.median(kernel_ms):.2f} ms, quartiles "
        f"{' '.join(f'{q:.2f}' for q in statistics.quantiles(kernel_ms, n=4)[::2])} ms over {len(kernel_ms)} runs"
    )
    p = tail_percentile(n)
    if p >= 50:
        ms = sorted(1000.0 * s for s in samples)
        value = statistics.quantiles(ms, n=100, method="inclusive")[p - 1]
        lines.append(f"verdict_ms_p{p} = {value!r} ref_ms ({n} samples)")
    else:
        lines.append(f"verdict_ms tail: fewer than 20 verdicts ({n}), no percentile above p50 has ten beyond it")
    lines.append(f"failed_ratio = {run.failed / run.attempted!r} ({run.failed} of {run.attempted})")
    lines.append(f"decided = {run.decided} of {run.attempted}")
    lines.append(
        f"models checked = {run.models}, of which {run.inexact_models} are models only within "
        "the stability tolerance (exact semantics.is_model rejects them)"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_manlp()
        pins = load_pins()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{workload.name}-{os.getpid()}"
    setup_times = []

    def timed_set_up():
        started = time.perf_counter()
        tasks = set_up(workload, args.seed, workdir, pins)[2]
        setup_times.append(time.perf_counter() - started)
        return tasks

    try:
        tasks = timed_set_up()

        tracer = None
        if args.trace:
            import layers
            import tracing

            lattice_ns = layers.lattice_timings()
            tracer = tracing.Tracer()
            tracer.install()
        run = measure(workload, tasks, args.seconds, workdir, pins["outputs"], tracer, timed_set_up)
        while len(setup_times) < SETUP_REPEATS:
            timed_set_up()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layers.per_layer(tracer, run, lattice_ns, verdicts_per_s(run))
        tracer.write(ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.json")
        lines = [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    else:
        metrics = end_to_end(run, import_s + statistics.median(setup_times))
        lines = report_lines(run, metrics)
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    print(f"set-up: import {import_s:.4f} s, then " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    print(f"workload {workload.name}, seed {args.seed}: {run.attempted} tasks in {run.busy:.3f} s busy")
    print("\n".join(lines))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
