"""Fixpoint machinery: immediate consequences, reducts and stable models.

The immediate consequence operator maps an interpretation I to the
interpretation that assigns each symbol the supremum, over the rules with
that head, of weight-conjoined body values.  For negation-free programs it
is monotone and its least fixpoint (reached by Kleene iteration from the
bottom interpretation) is the least model.  An interpretation I is a stable
model when it equals the least fixpoint of its own reduct P_I, the positive
program obtained by freezing every negated atom at its value under I.
Stability checks and the search compute lfp(P_I) without building P_I: they
iterate ``tp(P, J, neg=I)``, whose negated atoms read I, with the same float
operations in the same order as ``tp(reduct(P, I), J)``.  ``reduct`` still
builds P_I, for ``manlp reduct``.

The operator runs on arrays of raw values through the program's schedule
(``Program.compiled``, a ``syntax.Schedule``): a block shaped (symbols,
endpoints, columns) holds one interpretation per column, and ``_kleene``
advances every column at once, each stopping at its own first step within
the tolerance with its own ``FixpointStats``.  ``stable_search`` runs its
starts as the columns of one iteration per round and checks every converged
limit in one more; ``tp``, ``iterate_tp``, ``is_stable``, the certified
solve and ``stable --check`` are the one-column case.  Interpretations are
built only where a result is returned: ``iterate_tp`` keeps every iterate,
the others only the last one.

A step evaluates the bodies group by group (``semantics._run_nodes``),
applies each rule's tag, and folds each head's contributions into their
supremum, keeping the first of equal maxima as ``max`` does.  The first step
evaluates every rule.  A later one evaluates, as an index subset, only the
rules that read a slot that moved in the step before in some column (or,
when negated atoms read the current iterate, a negation), unless those are
at least half the rules, when it evaluates every rule.  A rule's value
depends only on what it reads, so the iterates are bit-identical either way,
and to running each column alone.  ``tp`` is the first step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .lattice import LatticeKind, TruthValue, Interval, Unit, from_raw, kernel, negate, to_raw
from .semantics import Interpretation, SymbolMismatchError, interpretation_to_dict
from .semantics import _check, _check_same_symbols, _column, _negations, _registers, _run_nodes
from .syntax import Agg, BodyExpr, Conn, Const, NegProp, Program, Schedule, _fold, _width


class NonPositiveProgramError(ValueError):
    """Raised when an operation defined for negation-free programs meets a
    program containing default negation."""


@dataclass(frozen=True)
class FixpointConfig:
    tolerance: float = 1e-9
    max_iterations: int = 10000

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


DEFAULT_CONFIG = FixpointConfig()

#: Distance under which a candidate counts as a fixpoint of its own reduct.
STABLE_CHECK_TOL = 1e-7

#: Distance under which two stable models found by the search are one.
SEARCH_DEDUP_TOL = 1e-6

#: ``tp`` is the first step of the Kleene loop.
_ONE_STEP = FixpointConfig(max_iterations=1)


@dataclass(frozen=True)
class FixpointTrace:
    """Iterates of a fixpoint computation, bottom interpretation first."""

    iterates: tuple[Interpretation, ...]
    converged: bool
    residual: float

    @property
    def final(self) -> Interpretation:
        return self.iterates[-1]

    def effective_steps(self) -> int:
        """Number of applications that actually moved the interpretation."""
        return sum(
            1
            for a, b in zip(self.iterates, self.iterates[1:])
            if sup_norm(a, b) > 0.0
        )


class FixpointStats(NamedTuple):
    """How a Kleene iteration ended and what it cost."""

    converged: bool  # the last step was within the tolerance
    residual: float  # sup-norm size of the last step
    steps: int  # applications of the consequence operator
    effective_steps: int  # steps of nonzero size (``FixpointTrace.effective_steps``)
    rule_evaluations: int  # rules with an input that moved (in any column), summed over the steps; all on the first


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sup_norm`` of two register blocks shaped (symbols, endpoints,
    columns), per column."""
    return np.abs(a - b).max(axis=(0, 1), initial=0.0)


def sup_norm(i: Interpretation, j: Interpretation) -> float:
    """Largest componentwise gap; interval endpoints count separately."""
    _check_same_symbols(i, j)
    return _gaps(_column(i.kind, [to_raw(i[s]) for s in i]), _column(i.kind, [to_raw(j[s]) for s in i])).item()


def _values(program: Program, interp: Interpretation) -> np.ndarray:
    """The raw values of ``interp`` in the program's symbol order, as one
    column."""
    if interp.kind is not program.kind or interp.symbols != set(program.symbols):
        raise SymbolMismatchError(
            f"interpretation symbols {sorted(interp.symbols)} ({interp.kind.value}) do not match "
            f"the program's {list(program.symbols)} ({program.kind.value})"
        )
    return _column(program.kind, [to_raw(interp[s]) for s in program.symbols])


def _interpretation(program: Program, values: np.ndarray) -> Interpretation:
    """The interpretation of one column, shaped (symbols, endpoints)."""
    kind = program.kind
    raws = values[:, 0].tolist() if kind is LatticeKind.UNIT else map(tuple, values.tolist())
    return Interpretation(kind, {s: from_raw(kind, v) for s, v in zip(program.symbols, raws)})


def _bottom(program: Program, columns: int = 1) -> np.ndarray:
    return np.zeros((len(program.symbols), _width(program.kind), columns))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``starts[i]`` to ``starts[i] + lengths[i]``."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _distinct(indices: np.ndarray) -> np.ndarray:
    """The distinct values of ``indices``, in increasing order."""
    indices = np.sort(indices)
    keep = np.empty(len(indices), dtype=bool)
    keep[:1] = True
    np.not_equal(indices[1:], indices[:-1], out=keep[1:])
    return indices[keep]


def _sups(schedule: Schedule, contributions: np.ndarray, size: int, plan: tuple) -> np.ndarray:
    """For each of ``size`` heads, the supremum of its rules'
    contributions, bottom if it heads none: a fold over its rules in program
    order (``plan`` is their ``Schedule.fold``), which keeps the first of
    equal maxima as ``max`` does."""
    ruled, first, folds = plan
    sup = kernel(schedule.kind, "max")
    out = np.zeros((size,) + contributions.shape[1:])
    out[ruled] = contributions[first]
    for more, rules in folds:
        out[more] = sup([out[more], contributions[rules]])
    return _check(schedule.kind, out) if folds else out


def _step(schedule: Schedule, registers: np.ndarray, contributions: np.ndarray, rules: Optional[np.ndarray]):
    """One application of the consequence operator in place: evaluates the
    bodies and contributions of ``rules`` (every rule when None), and
    returns the heads of those rules (None for every symbol) with their new
    values."""
    kind, bodies = schedule.kind, schedule.bodies
    if rules is None:
        _run_nodes(bodies, registers)
        for conjunctor, members, operands, weights in schedule.rules:
            contributions[members] = conjunctor(weights, registers[operands])
        _check(kind, contributions)
        return None, _sups(schedule, contributions, bodies.n, schedule.every_head)
    starts = bodies.node_offsets[rules]
    _run_nodes(bodies, registers, np.sort(bodies.nodes[_ranges(starts, bodies.node_offsets[rules + 1] - starts)]))
    tags = schedule.tag_of[rules]
    for g, (conjunctor, *_) in enumerate(schedule.rules):
        members = rules[tags == g]
        if len(members):
            contributions[members] = conjunctor(schedule.weights[members], registers[bodies.results[members]])
    _check(kind, contributions[rules])
    heads = _distinct(schedule.head_of[rules])
    return heads, _sups(schedule, contributions, len(heads), schedule.fold(heads))


def _readers(schedule: Schedule, heads: np.ndarray, negated: bool) -> tuple[Optional[np.ndarray], int]:
    """The rules that read the value of one of ``heads`` (or its negation
    when ``negated``), in increasing order, or None when they are at least
    half the rules; and how many they are."""
    bodies = schedule.bodies
    slots = np.concatenate((heads, heads + bodies.n)) if negated else heads
    starts = bodies.reader_offsets[slots]
    rules = _distinct(bodies.readers[_ranges(starts, bodies.reader_offsets[slots + 1] - starts)])
    return (None if 2 * len(rules) >= len(schedule.head_of) else rules), len(rules)


def _kleene(
    program: Program,
    cfg: FixpointConfig,
    cur: np.ndarray,
    neg: Optional[np.ndarray],
    iterates: Optional[list[Interpretation]] = None,
) -> tuple[np.ndarray, list[FixpointStats]]:
    """Kleene iteration of every column of ``cur`` (shaped (symbols,
    endpoints, columns)) at once; negated atoms read the same column of
    ``neg``, or the current iterate when it is None.  Appends each new
    iterate to ``iterates`` when given (one column only).  Returns each
    column's last iterate and its statistics: a column stops at its own
    first step within the tolerance.

    Each step applies the consequence operator: per symbol, the supremum of
    its rules' contributions, bottom if it heads none.  The first step
    evaluates every rule; a later one only the rules that read a slot that
    moved in the step before in some column (a negated slot moves only
    when ``neg`` is None), or every rule when those are at least half of
    them.  Every other rule keeps its last value, and a symbol none of whose
    rules ran keeps its own."""
    kind, schedule = program.kind, program.compiled
    n, columns = len(program.symbols), cur.shape[2]
    final = np.empty_like(cur)
    stats: list = [None] * columns
    if not columns:
        return final, stats
    registers = _registers(schedule.bodies, cur, _negations(kind, cur if neg is None else neg))
    contributions = np.empty((len(program.rules),) + cur.shape[1:])
    active = np.arange(columns)  # the original column of each column still running
    effective = np.zeros(columns, dtype=np.intp)
    evaluations, count = 0, len(program.rules)
    rules = None
    for step in range(cfg.max_iterations):
        if step:
            if neg is None:
                registers[n + heads] = _negations(kind, registers[heads])
            rules, count = _readers(schedule, heads, neg is None)
        evaluations += count
        heads, values = _step(schedule, registers, contributions, rules)
        old = registers[:n] if heads is None else registers[heads]
        moved = (values.view(np.int64) != old.view(np.int64)).any(axis=(1, 2))  # 0.0 and -0.0 differ
        residual = _gaps(values, old)
        effective += residual > 0.0
        if heads is None:
            registers[:n] = values
            heads = moved.nonzero()[0]
        else:
            registers[heads] = values
            heads = heads[moved]
        if iterates is not None:
            iterates.append(_interpretation(program, registers[:n, :, 0]))
        done = residual <= cfg.tolerance
        if done.any():
            for j in done.nonzero()[0].tolist():
                final[:, :, active[j]] = registers[:n, :, j]
                stats[active[j]] = FixpointStats(True, float(residual[j]), step + 1, int(effective[j]), evaluations)
            keep = ~done
            if not keep.any():
                return final, stats
            registers, contributions = registers[:, :, keep], contributions[:, :, keep]
            active, effective, residual = active[keep], effective[keep], residual[keep]
    for j, c in enumerate(active.tolist()):
        final[:, :, c] = registers[:n, :, j]
        stats[c] = FixpointStats(False, float(residual[j]), cfg.max_iterations, int(effective[j]), evaluations)
    return final, stats


def tp(
    program: Program, interp: Interpretation, neg: Optional[Interpretation] = None
) -> Interpretation:
    """One application of the immediate consequence operator; with ``neg``
    given, negated atoms read ``neg``, which applies the reduct by ``neg``."""
    neg_values = None if neg is None else _values(program, neg)
    return _interpretation(program, _kleene(program, _ONE_STEP, _values(program, interp), neg_values)[0][:, :, 0])


def reduct(program: Program, interp: Interpretation) -> Program:
    """Positive program obtained by replacing each negated atom with the
    constant value of its negation under ``interp``.  Heads, labels, weights,
    rule order and the symbol set are preserved.  The program is not
    validated again: the constants belong to its lattice, and nothing else
    changes."""
    if interp.kind is not program.kind:
        raise SymbolMismatchError(
            f"a {interp.kind.value} interpretation cannot freeze the negations of a {program.kind.value} program"
        )

    def leaf(node: BodyExpr) -> BodyExpr:
        return Const(negate(interp[node.name])) if isinstance(node, NegProp) else node

    def freeze(body: BodyExpr) -> BodyExpr:
        return _fold(body, leaf, lambda node, x, y: Conn(node.op, x, y), lambda node, args: Agg(node.name, tuple(args)))

    return Program(program.kind, tuple(replace(rule, body=freeze(rule.body)) for rule in program.rules), program.symbols)


def iterate_tp(
    program: Program,
    cfg: FixpointConfig = DEFAULT_CONFIG,
    start: Optional[Interpretation] = None,
    neg: Optional[Interpretation] = None,
) -> FixpointTrace:
    """Kleene iteration of the consequence operator from ``start`` (bottom by
    default) until the sup-norm step drops to the tolerance or the budget
    runs out.  With ``neg`` given, the iteration from bottom computes the
    least fixpoint of the reduct by ``neg``."""
    start = start if start is not None else Interpretation.bottom(program.kind, program.symbols)
    iterates = [start]
    neg_values = None if neg is None else _values(program, neg)
    _, (stats,) = _kleene(program, cfg, _values(program, start), neg_values, iterates)
    return FixpointTrace(tuple(iterates), stats.converged, stats.residual)


def least_fixpoint(program: Program, cfg: FixpointConfig = DEFAULT_CONFIG) -> FixpointTrace:
    """Least fixpoint of a negation-free program by iteration from bottom.

    On convergence the final iterate approximates the least model.
    Non-convergence within the budget is reported on the trace, not raised.
    """
    if not program.is_positive():
        raise NonPositiveProgramError("least_fixpoint needs a negation-free program")
    return iterate_tp(program, cfg)


@dataclass(frozen=True)
class StabilityCheck:
    stable: bool
    lfp_converged: bool
    distance: float
    trace: FixpointTrace


def check_stable(
    program: Program,
    interp: Interpretation,
    cfg: FixpointConfig = DEFAULT_CONFIG,
    check_tol: float = STABLE_CHECK_TOL,
) -> StabilityCheck:
    """Stable-model test: is ``interp`` the least fixpoint of its reduct?

    A least-fixpoint run that fails to converge yields ``stable=False`` with
    the diagnostic flag ``lfp_converged=False``.
    """
    trace = iterate_tp(program, cfg, neg=interp)
    distance = sup_norm(trace.final, interp)
    return StabilityCheck(
        stable=trace.converged and distance <= check_tol,
        lfp_converged=trace.converged,
        distance=distance,
        trace=trace,
    )


def _stability(
    program: Program, values: np.ndarray, cfg: FixpointConfig, check_tol: float
) -> list[tuple[bool, bool, float]]:
    """``check_stable``'s verdict, whether lfp(P_I) converged and its distance
    from I, for each column I of ``values``, keeping no trace."""
    final, stats = _kleene(program, cfg, _bottom(program, values.shape[2]), values)
    return [
        (run.converged and distance <= check_tol, run.converged, distance)
        for run, distance in zip(stats, _gaps(final, values).tolist())
    ]


def is_stable(
    program: Program,
    interp: Interpretation,
    cfg: FixpointConfig = DEFAULT_CONFIG,
    check_tol: float = STABLE_CHECK_TOL,
) -> bool:
    """``check_stable(...).stable``, keeping no trace."""
    return _stability(program, _values(program, interp), cfg, check_tol)[0][0]


def random_interpretation(
    kind: LatticeKind, symbols: Sequence[str], rng: random.Random
) -> Interpretation:
    values: dict[str, TruthValue] = {}
    for sym in symbols:
        if kind is LatticeKind.UNIT:
            values[sym] = Unit(rng.random())
        else:
            a, b = rng.random(), rng.random()
            values[sym] = Interval(min(a, b), max(a, b))
    return Interpretation(kind, values)


def default_starts(program: Program, seed: int = 0) -> list[Interpretation]:
    """Bottom, top and 8 seeded random interpretations."""
    rng = random.Random(seed)
    starts = [
        Interpretation.bottom(program.kind, program.symbols),
        Interpretation.top(program.kind, program.symbols),
    ]
    starts += [
        random_interpretation(program.kind, program.symbols, rng) for _ in range(8)
    ]
    return starts


def _canonical_key(interp: Interpretation) -> tuple:
    """Sort key: the JSON values of the interpretation in symbol order."""
    return tuple(interpretation_to_dict(interp).values())


#: How a search start ended, as ``StableSearchResult.starts`` records it:
#: its limit is one of the models found, is within ``SEARCH_DEDUP_TOL`` of
#: one found from an earlier start, or fails the stability check; or the
#: start did not converge: it revisited an earlier point, ran out of rounds,
#: or an lfp(P_I) ran out of ``max_iterations``.
START_OUTCOMES = ("converged", "duplicate", "rejected", "cycle", "rounds", "lfp_budget")
_NONCONVERGED = frozenset(START_OUTCOMES[3:])


@dataclass(frozen=True)
class StableSearchResult:
    """Verified stable models with their search traces, and for each start
    in order its outcome (one of ``START_OUTCOMES``) and the rounds it ran."""

    found: tuple[tuple[Interpretation, FixpointTrace], ...]
    starts: tuple[tuple[str, int], ...] = ()

    @property
    def nonconverged_starts(self) -> int:
        """The starts that cycled or ran out of rounds or lfp budget."""
        return sum(outcome in _NONCONVERGED for outcome, _ in self.starts)

    @property
    def rejected_limits(self) -> int:
        """The converged starts whose limit failed the stability check."""
        return sum(outcome == "rejected" for outcome, _ in self.starts)

    def models(self) -> list[Interpretation]:
        return [interp for interp, _ in self.found]


def stable_search(
    program: Program,
    cfg: FixpointConfig = DEFAULT_CONFIG,
    starts: Optional[Iterable[Interpretation]] = None,
    seed: int = 0,
    max_rounds: int = 1000,
) -> StableSearchResult:
    """Multi-start search for stable models.

    Each start is driven by the map I -> lfp(P_I) until the step falls under
    the tolerance, the iteration revisits an earlier point (a cycle), the
    round budget runs out, or an lfp(P_I) does not converge within
    ``cfg.max_iterations``; all but the first count as not converged.
    Converged limits are kept only if they pass the stability check.  An
    empty result means the search failed, not that no stable model exists.

    The starts run in lockstep, one column each: a round computes lfp(P_I)
    for every start still running in one Kleene iteration, and one more
    checks the stability of every limit.  Each start's iterates are those of
    a search of that start alone.
    """
    if starts is None:
        starts = default_starts(program, seed=seed)
    columns = [_values(program, start) for start in starts]
    histories = [[x[:, :, 0]] for x in columns]
    outcomes = ["rounds"] * len(columns)
    rounds = [0] * len(columns)
    residuals = [float("inf")] * len(columns)
    running = list(range(len(columns)))
    cur = np.concatenate(columns, axis=2) if columns else None
    for _ in range(max_rounds):
        if not running:
            break
        nxt, stats = _kleene(program, cfg, _bottom(program, len(running)), cur)
        steps = _gaps(nxt, cur).tolist()
        going = []
        for j, i in enumerate(running):
            rounds[i] += 1
            if not stats[j].converged:
                outcomes[i] = "lfp_budget"  # lfp(P_cur) ran out of budget: the start does not converge
                continue
            limit, history = nxt[:, :, j], histories[i]
            residuals[i] = steps[j]
            if steps[j] <= cfg.tolerance:
                outcomes[i] = "converged"
            # a revisit of an earlier iterate while the step is still large is
            # a genuine cycle; the step guard keeps slowly converging
            # oscillations (which also pass near old iterates) iterating
            elif steps[j] > 100.0 * cfg.tolerance and len(history) > 1 and (
                _gaps(np.stack(history[-100:-1], axis=2), limit[:, :, None]) <= cfg.tolerance
            ).any():
                outcomes[i] = "cycle"
            else:
                going.append(j)
            history.append(limit)
        running = [running[j] for j in going]
        cur = nxt[:, :, going]
    limits = [i for i, outcome in enumerate(outcomes) if outcome == "converged"]
    if limits:
        checks = _stability(program, np.stack([histories[i][-1] for i in limits], axis=2), cfg, STABLE_CHECK_TOL)
    found: list[tuple[Interpretation, FixpointTrace]] = []
    found_values: list[np.ndarray] = []
    for i, (stable, _, _) in zip(limits, checks if limits else ()):
        limit = histories[i][-1]
        if not stable:
            outcomes[i] = "rejected"
        elif any(float(np.abs(limit - seen).max(initial=0.0)) <= SEARCH_DEDUP_TOL for seen in found_values):
            outcomes[i] = "duplicate"
        else:
            found_values.append(limit)
            trace = FixpointTrace(tuple(_interpretation(program, v) for v in histories[i]), True, residuals[i])
            found.append((trace.final, trace))
    found.sort(key=lambda pair: _canonical_key(pair[0]))
    return StableSearchResult(tuple(found), tuple(zip(outcomes, rounds)))


def partition(program: Program) -> list[Program]:
    """Split into single-rule subprograms, each over the full symbol set, so
    that the direct consequence operator equals the supremum over the parts."""
    return [
        Program.of(program.kind, (rule,), extra_symbols=program.symbols)
        for rule in program.rules
    ]
