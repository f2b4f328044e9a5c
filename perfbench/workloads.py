"""The benchmark's three workloads: inputs, tasks, verdicts and checks.

A task is one call into manlp that ends in a verdict.  ``run`` is the timed
part.  ``outcome`` and ``check`` form the correctness gate and run outside
the clock: every task yields a semantic digest (exit code, verdict and model
values as float reprs in symbol order) that is compared with the digest
recorded in ``pins.json`` for the same task key.  Raw ``--json`` bytes are
never hashed, so report fields added later do not count as failures, while
any float drift does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from manlp import Unit, cli, engine, oracle, semantics, syntax

import inputs


@dataclass(frozen=True)
class Task:
    key: str  # names every input the task's output depends on
    program: str  # program file, relative to the work directory
    seed: int = 0  # search-small: seed of the random search starts
    resolution: int = 0  # oracle-grid: grid resolution
    interp: str = ""  # cli-large: interpretation file for `stable --check`; empty means `cert --solve`


@dataclass
class Outcome:
    exit_code: int
    decided: bool
    fields: list  # what the digest covers
    models: list = field(default_factory=list)  # interpretations the gate re-checks
    problems: list = field(default_factory=list)
    models_checked: int = 0
    inexact_models: int = 0  # models within tolerance that exact `is_model` rejects

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.fields).encode("utf-8")).hexdigest()[:16]


def _values(interp) -> list[str]:
    out = []
    for sym in sorted(interp.symbols):
        v = interp[sym]
        out.extend([repr(v.value)] if isinstance(v, Unit) else [repr(v.lo), repr(v.hi)])
    return out


def model_gaps(program, interp) -> tuple[float, bool]:
    """How far ``interp`` is from being a model, and whether it is one exactly.

    An interpretation is a model exactly when the consequence operator does
    not raise it, tp(I) <= I.  Fixpoints reached by iteration are models only
    up to the iteration tolerance, and a discontinuous implication (Goedel)
    can turn a 1e-10 shortfall into a failed rule under ``is_model``, so the
    gate accepts a gap up to the engine's stability tolerance and reports
    exactness separately."""
    raised = engine.tp(program, interp)
    gap = 0.0
    for sym in interp:
        a, b = raised[sym], interp[sym]
        pairs = [(a.value, b.value)] if isinstance(a, Unit) else [(a.lo, b.lo), (a.hi, b.hi)]
        gap = max([gap] + [x - y for x, y in pairs])
    return gap, semantics.is_model(program, interp)


def _load(workdir: Path, task: Task):
    return syntax.load_program((workdir / task.program).read_text(encoding="utf-8"))


class SearchSmall:
    """Multi-start stable search (10 starts) on small unit and interval programs."""

    name = "search-small"
    reference = "python"  # the kernel in reference.py that calibrates its times
    SIZES = range(8, 17)  # symbols; three rules per symbol
    CORPUS = 18
    # search budget: rounds per start and Kleene iterations per fixpoint
    MAX_ROUNDS = 30
    CFG = engine.FixpointConfig(max_iterations=300)

    def inputs(self, seed: int) -> tuple[dict[str, str], dict[str, str]]:
        rng = random.Random(inputs.CORPUS_SEED)
        corpus = {}
        for i in range(self.CORPUS):
            n = self.SIZES[i % len(self.SIZES)]
            kind = "unit" if i % 2 == 0 else "interval"
            corpus[f"search/p{i:02d}-{kind}-{n}.mnlp"] = inputs.general_program(rng, kind, n, 3 * n)[0]
        return corpus, {}

    def tasks(self, seed: int, corpus: dict[str, str]) -> list[Task]:
        tasks = [Task(f"{p}|seed={seed}", p, seed=seed) for p in corpus]
        random.Random(seed).shuffle(tasks)
        return tasks

    def warmup(self, corpus: dict[str, str]) -> Task:
        first = min(corpus)
        return Task(f"{first}|seed=0", first)

    def run(self, workdir: Path, task: Task):
        program = _load(workdir, task)
        return program, engine.stable_search(program, self.CFG, seed=task.seed, max_rounds=self.MAX_ROUNDS)

    def outcome(self, workdir: Path, task: Task, raw) -> Outcome:
        models = raw[1].models()
        code = 0 if models else 3  # the CLI's codes: found, or search failed
        return Outcome(code, bool(models), [code, len(models)] + [_values(m) for m in models], models)

    def check(self, workdir: Path, task: Task, raw, out: Outcome) -> None:
        program = raw[0]
        for model in out.models:
            _gate_model(program, model, out)
            if not engine.check_stable(program, model, self.CFG).stable:
                out.problems.append("reported model fails the stability check")


class CliLarge:
    """In-process CLI runs on large programs: `cert --solve` and `stable --check`."""

    name = "cli-large"
    reference = "python"
    SIZES = (300, 1000, 3000)  # symbols; three rules per symbol

    def inputs(self, seed: int) -> tuple[dict[str, str], dict[str, str]]:
        rng = random.Random(inputs.CORPUS_SEED)
        seeded_rng = random.Random(seed)
        corpus, seeded = {}, {}
        for n in self.SIZES:
            corpus[f"cli/cert-{n}.mnlp"] = inputs.certified_program(rng, n)
            text, symbols = inputs.general_program(rng, "unit", n, 3 * n)
            corpus[f"cli/check-{n}.mnlp"] = text
            seeded[f"cli/check-{n}.json"] = inputs.unit_interpretation(seeded_rng, symbols)
        return corpus, seeded

    def tasks(self, seed: int, corpus: dict[str, str]) -> list[Task]:
        sizes = list(self.SIZES)
        random.Random(seed).shuffle(sizes)
        tasks = []
        for n in sizes:  # the two kinds alternate
            tasks.append(Task(f"cli/cert-{n}.mnlp", f"cli/cert-{n}.mnlp"))
            check = f"cli/check-{n}.mnlp"
            tasks.append(Task(f"{check}|seed={seed}", check, interp=f"cli/check-{n}.json"))
        return tasks

    def warmup(self, corpus: dict[str, str]) -> Task:
        cert = f"cli/cert-{self.SIZES[0]}.mnlp"
        return Task(cert, cert)

    def run(self, workdir: Path, task: Task) -> int:
        argv = (
            ["stable", str(workdir / task.program), "--check", str(workdir / task.interp)]
            if task.interp
            else ["cert", str(workdir / task.program), "--solve"]
        )
        # the human tables are part of the CLI's work; they are written, then dropped
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv + ["--json", str(workdir / "report.json")])

    def outcome(self, workdir: Path, task: Task, raw) -> Outcome:
        code = raw
        if code == 2:
            return Outcome(code, False, [code], problems=["manlp exited with a usage or input error"])
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        if not task.interp:
            verdict = report["certificate"]["verdict"]
            model = report.get("model")
            fields = [code, verdict]
            out = Outcome(code, code in (0, 1), fields)
            if code != (0 if verdict else 1):
                out.problems.append(f"exit code {code} disagrees with the certificate verdict")
            if model is not None:
                fields.append([repr(x) for sym in sorted(model) for x in model[sym]])
                out.models.append(model)
                if not report["trace"]["converged"]:
                    out.problems.append("a model was printed without convergence")
            return out
        converged = report["lfp_converged"]
        out = Outcome(code, converged, [code, report["verdict"], repr(report["distance"]), converged])
        if code != (3 if not converged else 0 if report["verdict"] else 1):
            out.problems.append(f"exit code {code} disagrees with the reported verdict")
        if converged and report["verdict"] != (report["distance"] <= engine.STABLE_CHECK_TOL):
            out.problems.append("verdict disagrees with the reported distance")
        return out

    def check(self, workdir: Path, task: Task, raw, out: Outcome) -> None:
        if not out.models:
            return
        program = _load(workdir, task)
        for model in out.models:
            _gate_model(program, semantics.interpretation_from_dict(model, program.kind, program.symbols), out)


class OracleGrid:
    """Exhaustive grid search for approximate stable models on tiny programs."""

    name = "oracle-grid"
    reference = "numpy"
    CORPUS = 24
    # (lattice, symbols) -> grid resolution, each 0.6-1.2 million grid
    # points when every symbol occurs; memory grows with the enumeration size
    RESOLUTION = {("unit", 4): 32, ("interval", 4): 6, ("unit", 3): 100, ("interval", 3): 13}

    def inputs(self, seed: int) -> tuple[dict[str, str], dict[str, str]]:
        rng = random.Random(inputs.CORPUS_SEED)
        shapes = list(self.RESOLUTION)
        corpus = {}
        for i in range(self.CORPUS):
            kind, n = shapes[i % len(shapes)]
            corpus[f"oracle/p{i:02d}-{kind}-{n}.mnlp"] = inputs.general_program(rng, kind, n, rng.randint(1, 8))[0]
        return corpus, {}

    def tasks(self, seed: int, corpus: dict[str, str]) -> list[Task]:
        tasks = [Task(p, p, resolution=self._resolution(p)) for p in corpus]
        random.Random(seed).shuffle(tasks)
        return tasks

    def _resolution(self, path: str) -> int:
        _, kind, n = Path(path).stem.split("-")
        return self.RESOLUTION[(kind, int(n))]

    def warmup(self, corpus: dict[str, str]) -> Task:
        first = min(corpus)
        return Task(f"{first}|resolution=4", first, resolution=4)

    def run(self, workdir: Path, task: Task):
        program = _load(workdir, task)
        grid = oracle.GridSpec(task.resolution)
        return program, grid, oracle.brute_force_stable(program, grid)

    def outcome(self, workdir: Path, task: Task, raw) -> Outcome:
        clusters = raw[2]
        code = 0 if clusters else 1  # the CLI's codes: clusters found, or none
        fields = [code, len(clusters)] + [
            [_values(c.representative), len(c.members), repr(c.residual)] for c in clusters
        ]
        return Outcome(code, True, fields, [c.representative for c in clusters])

    def check(self, workdir: Path, task: Task, raw, out: Outcome) -> None:
        program, grid = raw[0], raw[1]
        for rep in out.models:
            # the engine must confirm each representative within one grid step
            check = engine.check_stable(program, rep, check_tol=grid.step + 1e-12)
            if not check.stable:
                out.problems.append(f"cluster representative is {check.distance!r} from its reduct's fixpoint")


def _gate_model(program, interp, out: Outcome) -> None:
    gap, exact = model_gaps(program, interp)
    if gap > engine.STABLE_CHECK_TOL:
        out.problems.append(f"reported model is not a model: tp raises it by {gap!r}")
    out.models_checked += 1
    out.inexact_models += not exact


WORKLOADS = {w.name: w for w in (SearchSmall(), CliLarge(), OracleGrid())}
