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

The operator runs on raw values (``lattice.Raw``), one per symbol in
``Program.symbols`` order, through the program's compiled rules
(``Program.compiled``); interpretations are built only where a result is
returned.  ``iterate_tp`` keeps every iterate; ``is_stable``, the search and
the certified solve keep only the last one, with a ``FixpointStats`` record
of the run.

Kleene iteration is change-driven (semi-naive): after the first step, which
evaluates every rule, a step evaluates only the rules that read a symbol
(or, when negated atoms read the current iterate, a negation) that moved in
the step before, through the compiled program's reader index.  A rule's
value depends only on what it reads, so the iterates are bit-identical to
evaluating every rule on every step.  ``tp`` is the first step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import chain
from math import copysign
from operator import sub
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .lattice import LatticeKind, Raw, TruthValue, Interval, Unit, bottom, from_raw, kernel, negate, to_raw
from .semantics import Interpretation, SymbolMismatchError, interpretation_to_dict
from .semantics import _check_same_symbols, _checked, _negated, _run
from .syntax import Agg, BodyExpr, Conn, Const, NegProp, Program, _fold


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
    rule_evaluations: int  # rule bodies evaluated over all steps


def _distance(kind: LatticeKind, a: list[Raw], b: list[Raw]) -> float:
    """``sup_norm`` of two raw value lists."""
    if kind is LatticeKind.INTERVAL:
        a, b = chain.from_iterable(a), chain.from_iterable(b)
    return max(map(abs, map(sub, a, b)), default=0.0)


def sup_norm(i: Interpretation, j: Interpretation) -> float:
    """Largest componentwise gap; interval endpoints count separately."""
    _check_same_symbols(i, j)
    return _distance(i.kind, [to_raw(i[s]) for s in i], [to_raw(j[s]) for s in i])


def _values(program: Program, interp: Interpretation) -> list[Raw]:
    """The raw values of ``interp`` in the program's symbol order."""
    if interp.kind is not program.kind or interp.symbols != set(program.symbols):
        raise SymbolMismatchError(
            f"interpretation symbols {sorted(interp.symbols)} ({interp.kind.value}) do not match "
            f"the program's {list(program.symbols)} ({program.kind.value})"
        )
    return [to_raw(interp[s]) for s in program.symbols]


def _interpretation(program: Program, values: list[Raw]) -> Interpretation:
    kind = program.kind
    return Interpretation(kind, {s: from_raw(kind, v) for s, v in zip(program.symbols, values)})


def _bottom(program: Program) -> list[Raw]:
    return [to_raw(bottom(program.kind))] * len(program.symbols)


def _tail(program: Program, neg: list[Raw]) -> list[Raw]:
    """The environment after the symbols' own values: the negations of
    ``neg``, then the program's constants."""
    kind = program.kind
    return [_negated(kind, v) for v in neg] + list(program.compiled.constants)


def _moved(old: Raw, new: Raw) -> bool:
    """Whether a value changed.  0.0 and -0.0 are equal but count as
    different: a product keeps the sign of a zero factor, and the sign is
    printed."""
    if old != new:
        return True
    if isinstance(old, tuple):
        return copysign(1.0, old[0]) != copysign(1.0, new[0]) or copysign(1.0, old[1]) != copysign(1.0, new[1])
    return copysign(1.0, old) != copysign(1.0, new)


def _kleene(
    program: Program,
    cfg: FixpointConfig,
    cur: list[Raw],
    neg: Optional[list[Raw]],
    iterates: Optional[list[Interpretation]] = None,
) -> tuple[list[Raw], FixpointStats]:
    """Kleene iteration on raw values from ``cur``; negated atoms read
    ``neg``, or the current iterate when it is None.  Appends each new
    iterate to ``iterates`` when given.  Returns the last iterate and the
    run's statistics.

    Each step applies the consequence operator: per symbol, the supremum of
    its rules' contributions, bottom if it heads none.  The first step
    evaluates every rule; a later one only the rules that read a slot that
    moved in the step before (a negated slot moves only when ``neg`` is
    None).  Every other rule keeps its last value, and a symbol none of
    whose rules ran keeps its own."""
    kind = program.kind
    compiled = program.compiled
    rules, offsets, head_of = compiled.rules, compiled.offsets, compiled.head_of
    readers, reader_offsets = compiled.readers, compiled.reader_offsets
    sup = kernel(kind, "max")
    bot = to_raw(bottom(kind))
    n = len(cur)
    env = cur + _tail(program, cur if neg is None else neg)
    values: list[Raw] = [bot] * len(rules)  # each rule's last contribution
    heads: Iterable[int] = range(n)
    dirty: Collection[int] = range(len(rules))
    moved: list[int] = []
    residual = float("inf")
    effective = evaluations = 0
    for step in range(cfg.max_iterations):
        if step:
            dirty = set()
            for h in moved:
                dirty.update(readers[reader_offsets[h] : reader_offsets[h + 1]])
                if neg is None:
                    env[n + h] = _negated(kind, env[h])
                    dirty.update(readers[reader_offsets[n + h] : reader_offsets[n + h + 1]])
            heads = sorted({head_of[r] for r in dirty})
        evaluations += len(dirty)
        moved, old, new = [], [], []
        for h in heads:
            lo, hi = offsets[h], offsets[h + 1]
            for r in range(lo, hi):
                if r in dirty:
                    conj, weight, code, leaf = rules[r]
                    values[r] = _checked(kind, conj(weight, _run(code, leaf, env, kind)))
            if lo == hi:
                value = bot
            elif hi - lo == 1:  # the supremum of one contribution is itself
                value = values[lo]
            else:
                value = _checked(kind, sup(values[lo:hi]))
            if _moved(env[h], value):
                moved.append(h)
                old.append(env[h])
                new.append(value)
        residual = _distance(kind, new, old)
        effective += residual > 0.0
        for h, value in zip(moved, new):
            env[h] = value
        if iterates is not None:
            iterates.append(_interpretation(program, env[:n]))
        if residual <= cfg.tolerance:
            return env[:n], FixpointStats(True, residual, step + 1, effective, evaluations)
    return env[:n], FixpointStats(False, residual, cfg.max_iterations, effective, evaluations)


def tp(
    program: Program, interp: Interpretation, neg: Optional[Interpretation] = None
) -> Interpretation:
    """One application of the immediate consequence operator; with ``neg``
    given, negated atoms read ``neg``, which applies the reduct by ``neg``."""
    neg_values = None if neg is None else _values(program, neg)
    return _interpretation(program, _kleene(program, _ONE_STEP, _values(program, interp), neg_values)[0])


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
    _, stats = _kleene(program, cfg, _values(program, start), neg_values, iterates)
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
    program: Program, values: list[Raw], cfg: FixpointConfig, check_tol: float
) -> tuple[bool, bool, float]:
    """``check_stable``'s verdict, whether lfp(P_I) converged and its distance
    from I, for I given by its raw values, keeping no trace."""
    final, stats = _kleene(program, cfg, _bottom(program), values)
    distance = _distance(program.kind, final, values)
    return stats.converged and distance <= check_tol, stats.converged, distance


def is_stable(
    program: Program,
    interp: Interpretation,
    cfg: FixpointConfig = DEFAULT_CONFIG,
    check_tol: float = STABLE_CHECK_TOL,
) -> bool:
    """``check_stable(...).stable``, keeping no trace."""
    return _stability(program, _values(program, interp), cfg, check_tol)[0]


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


@dataclass(frozen=True)
class StableSearchResult:
    """Verified stable models with their search traces, plus counts of the
    starts that cycled, hit the budget, or settled on a non-stable point."""

    found: tuple[tuple[Interpretation, FixpointTrace], ...]
    nonconverged_starts: int = 0
    rejected_limits: int = 0

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

    Each start is driven by the map I -> lfp(P_I) until the step
    falls under the tolerance, the iteration revisits an earlier point (a
    cycle), the round budget runs out, or an lfp(P_I) does not converge
    within ``cfg.max_iterations``; all but the first count as not converged.  Converged limits are kept only if
    they pass the stability check.  An empty result means the search failed,
    not that no stable model exists.
    """
    if starts is None:
        starts = default_starts(program, seed=seed)
    kind = program.kind
    found: list[tuple[Interpretation, FixpointTrace]] = []
    found_values: list[list[Raw]] = []
    nonconverged = 0
    rejected = 0
    for start in starts:
        cur = _values(program, start)
        history = [cur]
        limit: Optional[list[Raw]] = None
        residual = float("inf")
        for _ in range(max_rounds):
            nxt, stats = _kleene(program, cfg, _bottom(program), cur)
            if not stats.converged:
                break  # lfp(P_cur) ran out of budget: the start does not converge
            residual = _distance(kind, nxt, cur)
            if residual <= cfg.tolerance:
                limit = nxt
                history.append(nxt)
                break
            # a revisit of an earlier iterate while the step is still large is
            # a genuine cycle; the step guard keeps slowly converging
            # oscillations (which also pass near old iterates) iterating
            if residual > 100.0 * cfg.tolerance and any(
                _distance(kind, nxt, past) <= cfg.tolerance for past in history[-100:-1]
            ):
                history.append(nxt)
                break
            history.append(nxt)
            cur = nxt
        if limit is None:
            nonconverged += 1
            continue
        if not _stability(program, limit, cfg, STABLE_CHECK_TOL)[0]:
            rejected += 1
            continue
        if any(_distance(kind, limit, seen) <= SEARCH_DEDUP_TOL for seen in found_values):
            continue
        found_values.append(limit)
        trace = FixpointTrace(tuple(_interpretation(program, v) for v in history), True, residual)
        found.append((trace.final, trace))
    found.sort(key=lambda pair: _canonical_key(pair[0]))
    return StableSearchResult(tuple(found), nonconverged, rejected)


def partition(program: Program) -> list[Program]:
    """Split into single-rule subprograms, each over the full symbol set, so
    that the direct consequence operator equals the supremum over the parts."""
    return [
        Program.of(program.kind, (rule,), extra_symbols=program.symbols)
        for rule in program.rules
    ]
