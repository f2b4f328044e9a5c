"""Uniqueness certificate for interval programs with product bodies.

For programs over C([0,1]) whose rule bodies are plain componentwise
products of atoms and negated atoms (connective ``*`` only, any ei
implications at the rule level), the consequence operator restricted below
the head-weight bound interpretation admits per-rule Lipschitz bounds
computed from the ei exponents and the componentwise maxima of the rule
weights: lambda1 for the lower endpoints, lambda2 for the upper ones.  The
verdict is the paper's test, every rule's lambda2 strictly below 1.  The
operator is proven a contraction there, hence has exactly one stable model
that plain iteration from the bottom interpretation finds, only when the
sound bound, the largest of all lambda1 and lambda2, is below 1 as well;
with gamma > delta a rule's lambda1 can exceed its lambda2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .engine import (
    DEFAULT_CONFIG,
    STABLE_CHECK_TOL,
    FixpointConfig,
    FixpointStats,
    FixpointTrace,
    _ONE_STEP,
    _bottom,
    _gaps,
    _interpretation,
    _kleene,
    _stability,
    _sups,
    _values,
)
from .lattice import EiParams, Interval, LatticeKind, to_raw
from .semantics import Interpretation, _column
from .syntax import Conn, BodyExpr, NegProp, Program, Prop, Rule, walk


class IneligibleProgramError(ValueError):
    """The program is outside the certificate's scope; carries the reasons."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class UncertifiedProgramError(ValueError):
    """Raised when a computation requiring the contraction guarantee is
    attempted on a program whose certificate verdict is negative."""


@dataclass(frozen=True)
class HeadBound:
    symbol: str
    bound: Interval


@dataclass(frozen=True)
class RuleCertificate:
    index: int
    lambda1: float
    lambda2: float

    @property
    def passes(self) -> bool:
        return self.lambda2 < 1.0


@dataclass(frozen=True)
class CertificateReport:
    per_rule: tuple[RuleCertificate, ...]
    head_bounds: tuple[HeadBound, ...]
    verdict: bool  # the paper's test: every rule's lambda2 < 1
    global_lipschitz: float  # the sound bound: max over rules of max(lambda1, lambda2)

    @property
    def proven_contraction(self) -> bool:
        """Whether the sound bound proves the operator a contraction."""
        return self.global_lipschitz < 1.0


def star_decompose(body: BodyExpr) -> Optional[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Split a pure ``*``-product body into (positive, negated) atoms.

    Returns None when the body contains anything else (constants,
    aggregators, other connectives).
    """
    pos: list[str] = []
    neg: list[str] = []
    for node in walk(body):
        if isinstance(node, Prop):
            pos.append(node.name)
        elif isinstance(node, NegProp):
            neg.append(node.name)
        elif not (isinstance(node, Conn) and node.op == "*"):
            return None
    return tuple(pos), tuple(neg)


def _decompose(program: Program) -> tuple[list[str], list]:
    """The reasons the certificate does not apply (none means eligible),
    and each rule's ``star_decompose``, from one walk of each body."""
    if program.kind is not LatticeKind.INTERVAL:
        return ["program is not over the interval lattice C([0,1])"], []
    violations, parts = [], []
    for idx, rule in enumerate(program.rules):
        if not isinstance(rule.imp, EiParams):
            violations.append(f"rule {idx}: implication is not an ei implication")
        parts.append(star_decompose(rule.body))
        if parts[-1] is None:
            violations.append(
                f"rule {idx}: body is not a plain product of atoms and negated atoms"
            )
    return violations, parts


def eligibility_violations(program: Program) -> list[str]:
    """Reasons the certificate does not apply; empty means eligible."""
    return _decompose(program)[0]


def eligible(program: Program) -> bool:
    return not eligibility_violations(program)


def head_weight_bounds(program: Program) -> tuple[HeadBound, ...]:
    """Componentwise maximum of rule weights per head symbol; symbols heading
    no rule get [0,0], which is also what the consequence operator assigns
    them.  The maxima are the consequence operator's suprema over each head's
    rules, taken of the weights."""
    schedule = program.compiled
    weights = _column(program.kind, [to_raw(rule.weight) for rule in program.rules])
    sups = _sups(schedule, weights, len(program.symbols), schedule.every_head)[:, :, 0].tolist()
    return tuple(HeadBound(sym, Interval(lo, hi)) for sym, (lo, hi) in zip(program.symbols, sups))


def bound_interpretation(program: Program) -> Interpretation:
    return Interpretation(
        LatticeKind.INTERVAL, {hb.symbol: hb.bound for hb in head_weight_bounds(program)}
    )


def _lambda_sum(theta: float, weight_exp: int, body_exp: int, atom_bounds: list[float], k: int) -> float:
    # 0**0 evaluates to 1.0, which is the convention these sums rely on
    # when body_exp == 1 and some bound is exactly zero.
    h = len(atom_bounds)
    w = theta**weight_exp
    total = 0.0
    for j in range(h):
        others = math.prod(atom_bounds[:j] + atom_bounds[j + 1 :])
        total += w * body_exp * atom_bounds[j] ** (body_exp - 1) * others**body_exp
    total += w * body_exp * (k - h) * math.prod(atom_bounds) ** body_exp
    return total


def rule_lambdas(rule: Rule, bounds: Mapping[str, Interval]) -> tuple[float, float]:
    """Per-rule Lipschitz bounds (lower-endpoint, upper-endpoint) of the
    consequence operator below the head-weight bounds.

    For a rule with weight [t1,t2], exponents (alpha,beta,gamma,delta),
    positive body atoms q_1..q_h and k total body atoms::

        lambda2 = sum_j t2^beta * delta * B2(q_j)^(delta-1) * (prod_{l!=j} B2(q_l))^delta
                  + t2^beta * delta * (k-h) * (prod_l B2(q_l))^delta

    with B2(q) the upper endpoint of q's head-weight bound, empty products
    equal to 1, and 0^0 = 1; lambda1 is the mirror image with t1, alpha,
    gamma and lower endpoints.
    """
    return _lambdas(rule, star_decompose(rule.body), bounds)


def _lambdas(rule: Rule, parts, bounds: Mapping[str, Interval]) -> tuple[float, float]:
    """``rule_lambdas`` from the rule's ``star_decompose``."""
    if parts is None or not isinstance(rule.imp, EiParams):
        raise IneligibleProgramError([f"rule {rule.head!r} is outside the certificate's scope"])
    pos, neg = parts
    k = len(pos) + len(neg)
    weight = rule.weight
    assert isinstance(weight, Interval)
    p = rule.imp
    lam1 = _lambda_sum(weight.lo, p.alpha, p.gamma, [bounds[q].lo for q in pos], k)
    lam2 = _lambda_sum(weight.hi, p.beta, p.delta, [bounds[q].hi for q in pos], k)
    return lam1, lam2


def certify(program: Program) -> CertificateReport:
    """Contraction certificate: the verdict is the paper's lambda2 test,
    ``global_lipschitz`` the sound bound, which proves exactly one stable
    model when below 1.  Raises IneligibleProgramError outside the
    certificate's scope."""
    violations, parts = _decompose(program)
    if violations:
        raise IneligibleProgramError(violations)
    head_bounds = head_weight_bounds(program)
    bound_map = {hb.symbol: hb.bound for hb in head_bounds}
    per_rule = []
    for idx, (rule, rule_parts) in enumerate(zip(program.rules, parts)):
        lam1, lam2 = _lambdas(rule, rule_parts, bound_map)
        per_rule.append(RuleCertificate(idx, lam1, lam2))
    verdict = all(rc.passes for rc in per_rule)
    global_lipschitz = max((max(rc.lambda1, rc.lambda2) for rc in per_rule), default=0.0)
    return CertificateReport(tuple(per_rule), head_bounds, verdict, global_lipschitz)


def solve_unique_traced(
    program: Program, cfg: FixpointConfig = DEFAULT_CONFIG
) -> tuple[Interpretation, FixpointTrace]:
    """Compute the unique stable model of a certified program by iterating
    the consequence operator from bottom; refuses uncertified programs since
    the iteration would lack its convergence guarantee."""
    report = certify(program)
    if not report.verdict:
        worst = max(rc.lambda2 for rc in report.per_rule)
        raise UncertifiedProgramError(f"certificate fails: max per-rule lambda2 {worst} is not < 1")
    iterates = [Interpretation.bottom(program.kind, program.symbols)]
    model, stats = _solve_certified(program, cfg, iterates)
    return model, FixpointTrace(tuple(iterates), stats.converged, stats.residual)


def _solve_certified(
    program: Program, cfg: FixpointConfig, iterates: Optional[list[Interpretation]] = None
) -> tuple[Interpretation, FixpointStats]:
    """The iteration of ``solve_unique_traced`` on a program whose
    certificate verdict the caller has already found positive; appends
    each iterate after the bottom one to ``iterates`` when given."""
    final, (stats,) = _kleene(program, cfg, _bottom(program), None, iterates)
    if not stats.converged:
        raise UncertifiedProgramError(
            "iteration did not converge within the budget despite the certificate; "
            "raise max_iterations"
        )
    if not _stability(program, final, cfg, STABLE_CHECK_TOL)[0][0]:
        raise UncertifiedProgramError("computed fixpoint failed the stability check")
    return _interpretation(program, final[:, :, 0]), stats


def solve_unique(program: Program, cfg: FixpointConfig = DEFAULT_CONFIG) -> Interpretation:
    return solve_unique_traced(program, cfg)[0]


#: Sample pairs that ``empirical_contraction_check`` applies the operator to at once.
_SAMPLE_COLUMNS = 128


def _random_below(bound: Interval, rng: random.Random) -> Interval:
    hi = rng.uniform(0.0, bound.hi)
    lo = rng.uniform(0.0, min(bound.lo, hi))
    return Interval(lo, hi)


def empirical_contraction_check(
    program: Program,
    samples: int = 1000,
    seed: int = 0,
    cfg: FixpointConfig = DEFAULT_CONFIG,
) -> float:
    """Largest observed ratio d(T(J1), T(J2)) / d(J1, J2) over random
    interpretation pairs below the head-weight bounds, on a program that
    passes the verdict.  It never exceeds the sound bound
    ``global_lipschitz``, which can be 1 or more."""
    report = certify(program)
    if not report.verdict:
        raise UncertifiedProgramError("contraction check needs a certified program")
    rng = random.Random(seed)
    bound_map = {hb.symbol: hb.bound for hb in report.head_bounds}
    worst = 0.0
    for chunk in range(0, samples, _SAMPLE_COLUMNS):
        columns = [  # j1 and j2 of each pair, drawn in turn
            _values(program, Interpretation(LatticeKind.INTERVAL, {s: _random_below(bound_map[s], rng) for s in program.symbols}))
            for _ in range(2 * min(_SAMPLE_COLUMNS, samples - chunk))
        ]
        starts = np.concatenate(columns, axis=2)
        steps = _kleene(program, _ONE_STEP, starts, None)[0]  # tp of every sample at once
        denom = _gaps(starts[:, :, 0::2], starts[:, :, 1::2])
        ratios = _gaps(steps[:, :, 0::2], steps[:, :, 1::2])[denom != 0.0] / denom[denom != 0.0]
        worst = max(worst, ratios.max(initial=0.0).item())
    return worst
