"""Record the benchmark's pins and its baseline.

    python3 perfbench/record.py pins --seeds 0-31
    python3 perfbench/record.py baseline --seeds 0-9 --traced 3

``pins`` writes ``pins.json``: the sha256 of every corpus file, of each
seeded input for the listed seeds, and the semantic digest of every task's
output for those seeds.  Do it only at a commit whose outputs are trusted;
afterwards ``run.py`` aborts set-up when an input changes and counts a task
as failed when its digest changes.

``baseline`` runs every workload once per seed with tracing off and on the
first ``--traced`` seeds with tracing on, each run in its own process for
BENCHMARK.json's ``run_seconds``, and writes ``baseline.json`` (or
``--out``): median and quartiles of every metric with the number of runs,
the spread of each end-to-end metric (quartile distance over median) beside
its bound, the tracing overhead, and the traced shares of task time that
later claims start from.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench
import tracing

HERE = bench.HERE
ROOT = bench.ROOT


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_pins(seeds: list[int]) -> None:
    bench.import_manlp()
    import inputs
    import workloads

    pins = {"inputs": {}, "seeded_inputs": {}, "outputs": {}}
    for workload in workloads.WORKLOADS.values():
        workdir = ROOT / ".perfbench" / f"record-{workload.name}"
        for seed in seeds:
            corpus, seeded, tasks = bench.set_up(workload, seed, workdir, None)
            pins["inputs"][workload.name] = {p: inputs.sha256(t) for p, t in sorted(corpus.items())}
            for path, text in sorted(seeded.items()):
                pins["seeded_inputs"][f"{path}|seed={seed}"] = inputs.sha256(text)
            todo = [t for t in tasks if t.key not in pins["outputs"]]
            run = bench.measure(workload, todo, 0.0, workdir, {})
            if run.failed:
                raise SystemExit(f"{workload.name} seed {seed}: refusing to record failing outputs: {run.problems}")
            pins["outputs"].update(run.digests)
            print(f"{workload.name} seed {seed}: {len(todo)} outputs recorded", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
    pins["outputs"] = dict(sorted(pins["outputs"].items()))
    bench.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the gate:\n{proc.stdout}")
    return result


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values), "values": values}


def _layers(layered: list[dict], e2e: dict) -> dict:
    per_layer = {}
    for metric in layered[0]["metrics"]:
        per_layer[metric] = _summary([r["metrics"][metric]["value"] for r in layered])
        per_layer[metric]["unit"] = layered[0]["metrics"][metric]["unit"]
    med = {m: s["median"] for m, s in per_layer.items()}
    task_ms = med["trace.task_ms"] or 1.0
    return {
        "per_layer": per_layer,
        "tracing_overhead": 1.0 - med["trace.verdicts_per_s"] / e2e["verdicts_per_s"]["median"],
        "traced_shares_of_task_time": {
            "engine.reduct": med["engine.reduct.ms"] / task_ms,
            "syntax.Program.of": med["syntax.Program.of.ms"] / task_ms,
            "syntax.load_program (parse)": med["syntax.load_program.ms"] / task_ms,
            "cli self (argparse, file I/O, JSON encoding)": med["cli.self_ms"] / task_ms,
            **{f"{layer} self": med[f"{layer}.self_ms"] / task_ms for layer in tracing.LAYERS},
        },
    }


def record_baseline(seeds: list[int], traced: int, out_path: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain = [_run(name, seed, seconds, 0) for seed in seeds]
        layered = [_run(name, seed, seconds, 1) for seed in seeds[:traced]]
        e2e = {}
        for metric, bound in bounds.items():
            summary = _summary([r["metrics"][metric]["value"] for r in plain])
            summary["unit"] = plain[0]["metrics"][metric]["unit"]
            summary["spread"] = (summary["q3"] - summary["q1"]) / summary["median"]
            summary["bound"] = bound
            e2e[metric] = summary
        out["workloads"][name] = {
            "why": w["why"],
            "attempted_per_run": _summary([r["attempted"] for r in plain]),
            "end_to_end": e2e,
        }
        if layered:
            out["workloads"][name].update(_layers(layered, e2e))
        print(json.dumps({name: {m: [round(s["spread"], 4), [round(v, 4) for v in s["values"]]] for m, s in e2e.items()}}), flush=True)
    out_path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description="Record pins.json or baseline.json.")
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("pins")
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    b = sub.add_parser("baseline")
    b.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    b.add_argument("--traced", type=int, default=3, help="traced runs, on the first seeds")
    b.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    if args.what == "pins":
        record_pins(_seeds(args.seeds))
    else:
        record_baseline(_seeds(args.seeds), args.traced, args.out)


if __name__ == "__main__":
    main()
