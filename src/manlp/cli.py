"""Command-line front end.

Subcommands operate on `.mnlp` program files and flat JSON interpretation
files (symbol -> number, or -> [lo, hi] for interval programs).  Human
tables go to stdout and timing to stderr; `--json PATH` additionally writes
a machine-readable document that is byte-identical across runs with the
same inputs and seed.

Exit codes: 0 success, 1 negative verdict (not a model / not stable / not
certified), 2 usage or parse error, 3 budget or convergence failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from .engine import (
    STABLE_CHECK_TOL,
    FixpointConfig,
    FixpointTrace,
    _stability,
    _values,
    iterate_tp,
    reduct,
    stable_search,
    tp,
)
from .lattice import TruthValue, Unit, leq
from .oracle import BudgetExceededError, GridSpec, brute_force_stable
from .semantics import (
    Interpretation,
    interpretation_from_dict,
    interpretation_to_dict,
    rule_values,
    value_to_json,
)
from .syntax import ParseError, Program, load_program, render_program, render_rule
from .uniqueness import IneligibleProgramError, UncertifiedProgramError, _solve_certified, certify


def _fmt(x: float) -> str:
    return format(x, ".10g")


def _fmt_value(v: TruthValue) -> str:
    if isinstance(v, Unit):
        return _fmt(v.value)
    return f"[{_fmt(v.lo)},{_fmt(v.hi)}]"


def _interp_rows(interp: Interpretation) -> str:
    width = max((len(s) for s in interp.symbols), default=0)
    return "\n".join(f"  {s.ljust(width)}  {_fmt_value(interp[s])}" for s in sorted(interp.symbols))


def _trace_table(trace: FixpointTrace, symbols) -> str:
    symbols = sorted(symbols)
    cells = [["iter"] + symbols]
    for k, interp in enumerate(trace.iterates):
        cells.append([str(k)] + [_fmt_value(interp[s]) for s in symbols])
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells)


def _trace_doc(trace: FixpointTrace) -> dict:
    return {
        "iterates": [interpretation_to_dict(i) for i in trace.iterates],
        "converged": trace.converged,
        "residual": trace.residual,
    }


def _load_program(path: str) -> tuple[Program, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return load_program(text), hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_interp(path: str, program: Program) -> Interpretation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"interpretation file {path} is nested too deeply to read") from None
    return interpretation_from_dict(data, program.kind, program.symbols)


def _write_json(args, doc: dict) -> None:
    if getattr(args, "json", None):
        # one line: with indent, json falls back to its pure-Python encoder
        text = json.dumps(doc, sort_keys=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _config(args) -> FixpointConfig:
    return FixpointConfig(tolerance=args.tol, max_iterations=args.max)


def _seed(args) -> int:
    env = os.environ.get("MANLP_SEED")
    return int(env) if env is not None else args.seed


def _within_tolerance(program: Program, interp: Interpretation) -> bool:
    """Whether tp(I) <= I + STABLE_CHECK_TOL endpoint by endpoint: a model up to
    the tolerance of the fixpoint solvers, whose limits exact ``is_model`` can reject."""
    gaps = np.subtract(_values(program, tp(program, interp)), _values(program, interp))
    return bool((gaps <= STABLE_CHECK_TOL).all())


def _cmd_check_model(args) -> int:
    program, digest = _load_program(args.program)
    interp = _load_interp(args.interp, program)
    rows = []
    for idx, (rule, value) in enumerate(zip(program.rules, rule_values(program, interp))):
        row = {
            "index": idx,
            "rule": render_rule(rule),
            "value": value_to_json(value),
            "satisfied": leq(rule.weight, value),
        }
        rows.append(row)
        mark = "yes" if row["satisfied"] else "no"
        print(f"  r{idx}: {row['rule']}  =>  {_fmt_value(value)}  satisfied: {mark}")
    verdict = all(row["satisfied"] for row in rows)
    within = not verdict and _within_tolerance(program, interp)
    note = f" (but tp(I) <= I + {_fmt(STABLE_CHECK_TOL)}: a model within tolerance)" if within else ""
    print(f"model: {'yes' if verdict else 'no'}{note}")
    doc = {
        "command": "check-model",
        "program": {"path": args.program, "sha256": digest},
        "interpretation": interpretation_to_dict(interp),
        "rules": rows,
        "verdict": verdict,
    }
    if within:
        doc["within_tolerance"] = True
    _write_json(args, doc)
    return 0 if verdict else 1


def _cmd_tp(args) -> int:
    program, digest = _load_program(args.program)
    interp = _load_interp(args.interp, program)
    doc = {"command": "tp", "program": {"path": args.program, "sha256": digest}}
    if args.iterate:
        trace = iterate_tp(program, _config(args), start=interp)
        print(_trace_table(trace, program.symbols))
        print(f"converged: {'yes' if trace.converged else 'no'}  residual: {_fmt(trace.residual)}")
        doc["trace"] = _trace_doc(trace)
        _write_json(args, doc)
        return 0 if trace.converged else 3
    out = tp(program, interp)
    print(_interp_rows(out))
    doc["value"] = interpretation_to_dict(out)
    _write_json(args, doc)
    return 0


def _cmd_reduct(args) -> int:
    program, digest = _load_program(args.program)
    interp = _load_interp(args.interp, program)
    text = render_program(reduct(program, interp))
    sys.stdout.write(text)
    _write_json(
        args,
        {
            "command": "reduct",
            "program": {"path": args.program, "sha256": digest},
            "reduct": text,
        },
    )
    return 0


def _cmd_stable(args) -> int:
    program, digest = _load_program(args.program)
    cfg = _config(args)
    doc = {"command": "stable", "program": {"path": args.program, "sha256": digest}}

    if args.check:
        # check_stable without its trace, which nothing here prints
        [(stable, converged, distance)] = _stability(program, _values(program, _load_interp(args.check, program)), cfg, STABLE_CHECK_TOL)
        doc["verdict"] = stable
        doc["distance"] = distance
        doc["lfp_converged"] = converged
        _write_json(args, doc)
        if not converged:
            print("stable: unknown (reduct fixpoint iteration did not converge)")
            return 3
        print(f"stable: {'yes' if stable else 'no'}  (distance {_fmt(distance)})")
        return 0 if stable else 1

    if args.brute is not None:
        try:
            clusters = brute_force_stable(program, GridSpec(args.brute), cfg)
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        doc["clusters"] = [
            {
                "representative": interpretation_to_dict(c.representative),
                "members": len(c.members),
                "residual": c.residual,
            }
            for c in clusters
        ]
        _write_json(args, doc)
        print(f"approximate stable-model clusters at resolution {args.brute}: {len(clusters)}")
        for i, c in enumerate(clusters):
            print(f"cluster {i} ({len(c.members)} grid points, residual {_fmt(c.residual)}):")
            print(_interp_rows(c.representative))
        return 0 if clusters else 1

    seed = _seed(args)
    result = stable_search(program, cfg, seed=seed)
    doc["seed"] = seed
    doc["models"] = [interpretation_to_dict(i) for i, _ in result.found]
    doc["nonconverged_starts"] = result.nonconverged_starts
    doc["rejected_limits"] = result.rejected_limits
    doc["starts"] = [{"outcome": outcome, "rounds": rounds} for outcome, rounds in result.starts]
    _write_json(args, doc)
    print(
        f"search: {len(result.found)} stable model(s); "
        f"{result.nonconverged_starts} start(s) did not converge; "
        f"{result.rejected_limits} limit(s) failed the stability check"
    )
    for i, (interp, trace) in enumerate(result.found):
        print(f"model {i} (reached in {len(trace.iterates) - 1} rounds):")
        print(_interp_rows(interp))
    return 0 if result.found else 3


def _cmd_cert(args) -> int:
    program, digest = _load_program(args.program)
    doc = {"command": "cert", "program": {"path": args.program, "sha256": digest}}
    try:
        report = certify(program)
    except IneligibleProgramError as exc:
        print("certificate does not apply:")
        for v in exc.violations:
            print(f"  - {v}")
        doc["eligible"] = False
        doc["violations"] = exc.violations
        _write_json(args, doc)
        return 1
    rendered = [render_rule(program.rules[rc.index]) for rc in report.per_rule]
    width = max((len(r) for r in rendered), default=4)
    print(f"  {'rule'.ljust(width + 4)}  {'lambda1'.ljust(11)}  {'lambda2'.ljust(11)}  pass")
    for rc, shown in zip(report.per_rule, rendered):
        print(
            f"  r{rc.index}: {shown.ljust(width)}  {_fmt(rc.lambda1).ljust(11)}  "
            f"{_fmt(rc.lambda2).ljust(11)}  {'yes' if rc.passes else 'no'}"
        )
    if not report.verdict:
        print("verdict: not certified")
    elif report.proven_contraction:
        print("verdict: unique stable model guaranteed")
    else:
        print("verdict: certified by the paper's lambda2 bound; uniqueness rests on that bound only")
    print(f"global Lipschitz bound (max of lambda1, lambda2): {_fmt(report.global_lipschitz)}")
    doc["eligible"] = True
    doc["certificate"] = {
        "rules": [
            {"index": rc.index, "lambda1": rc.lambda1, "lambda2": rc.lambda2, "passes": rc.passes}
            for rc in report.per_rule
        ],
        "head_bounds": {hb.symbol: value_to_json(hb.bound) for hb in report.head_bounds},
        "verdict": report.verdict,
        "global_lipschitz": report.global_lipschitz,
        "proven_contraction": report.proven_contraction,
    }
    if args.solve and report.verdict:
        try:
            model, stats = _solve_certified(program, _config(args))  # certified above
        except UncertifiedProgramError as exc:
            print(f"error: {exc}", file=sys.stderr)
            _write_json(args, doc)
            return 3
        print(f"unique stable model (after {stats.effective_steps} effective iterations):")
        print(_interp_rows(model))
        doc["model"] = interpretation_to_dict(model)
        doc["trace"] = stats._asdict()
    _write_json(args, doc)
    return 0 if report.verdict else 1


def _add_common(sub: argparse.ArgumentParser, interp_required: bool = False) -> None:
    sub.add_argument("program", help="program file (.mnlp)")
    if interp_required:
        sub.add_argument("--interp", required=True, help="interpretation file (flat JSON map)")
    sub.add_argument("--tol", type=float, default=1e-9, help="fixpoint stopping tolerance")
    sub.add_argument("--max", type=int, default=10000, help="iteration budget")
    sub.add_argument("--json", metavar="PATH", help="write a machine-readable report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manlp",
        description="Weighted normal logic programs over truth-value lattices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-model", help="evaluate every rule under an interpretation")
    _add_common(p, interp_required=True)
    p.set_defaults(func=_cmd_check_model)

    p = subs.add_parser("tp", help="apply (or iterate) the immediate consequence operator")
    _add_common(p, interp_required=True)
    p.add_argument("--iterate", action="store_true", help="iterate to a fixpoint and print the trace")
    p.set_defaults(func=_cmd_tp)

    p = subs.add_parser("reduct", help="print the reduct with respect to an interpretation")
    _add_common(p, interp_required=True)
    p.set_defaults(func=_cmd_reduct)

    p = subs.add_parser("stable", help="check, search for, or enumerate stable models")
    _add_common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="FILE", help="test whether this interpretation is stable")
    mode.add_argument("--search", action="store_true", help="multi-start search (default)")
    mode.add_argument("--brute", type=int, metavar="N", help="exhaustive grid search at resolution N")
    p.add_argument("--seed", type=int, default=0, help="seed for the search starts (MANLP_SEED overrides)")
    p.set_defaults(func=_cmd_stable)

    p = subs.add_parser("cert", help="uniqueness certificate for interval product programs")
    _add_common(p)
    p.add_argument("--solve", action="store_true", help="also compute the unique stable model when certified")
    p.set_defaults(func=_cmd_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = (time.perf_counter() - started) * 1000.0
        print(f"elapsed: {elapsed:.2f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
