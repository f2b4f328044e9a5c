"""Seeded random generators for programs and interpretations."""

from __future__ import annotations

import random

from manlp import (
    Agg,
    Conn,
    Const,
    EiParams,
    Interpretation,
    Interval,
    LatticeKind,
    NegProp,
    Program,
    Prop,
    Rule,
    Unit,
    certify,
    eligible,
)
from manlp import engine

SYMBOL_POOL = ["a", "b", "c", "d", "e", "f"]

UNIT_OPS = ["&G", "&P", "&L"]
AGG_NAMES = ["min", "max", "mean"]


def random_value(rng: random.Random, kind: LatticeKind):
    if kind is LatticeKind.UNIT:
        return Unit(rng.random())
    a, b = rng.random(), rng.random()
    return Interval(min(a, b), max(a, b))


def random_interpretation(rng: random.Random, kind: LatticeKind, symbols) -> Interpretation:
    return engine.random_interpretation(kind, symbols, rng)


def raised_interpretation(rng: random.Random, low: Interpretation) -> Interpretation:
    """An interpretation pointwise above ``low`` (for ordered-pair sampling)."""
    values = {}
    for sym in low.symbols:
        v = low[sym]
        if isinstance(v, Unit):
            values[sym] = Unit(v.value + rng.random() * (1.0 - v.value))
        else:
            hi = v.hi + rng.random() * (1.0 - v.hi)
            lo = v.lo + rng.random() * (min(hi, 1.0) - v.lo)
            values[sym] = Interval(lo, hi)
    return Interpretation(low.kind, values)


def _build_expr(rng: random.Random, kind: LatticeKind, leaves: list):
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) >= 2 and rng.random() < 0.15:
        n_args = rng.randint(2, min(3, len(leaves)))
        cuts = sorted(rng.sample(range(1, len(leaves)), n_args - 1))
        groups, prev = [], 0
        for cut in cuts + [len(leaves)]:
            groups.append(leaves[prev:cut])
            prev = cut
        return Agg(rng.choice(AGG_NAMES), tuple(_build_expr(rng, kind, g) for g in groups))
    split = rng.randint(1, len(leaves) - 1)
    op = rng.choice(UNIT_OPS) if kind is LatticeKind.UNIT else "*"
    return Conn(op, _build_expr(rng, kind, leaves[:split]), _build_expr(rng, kind, leaves[split:]))


def random_rule(rng: random.Random, kind: LatticeKind, symbols, positive: bool = False) -> Rule:
    head = rng.choice(symbols)
    n_atoms = rng.randint(0, min(4, len(symbols)))
    atoms = rng.sample(symbols, n_atoms)
    leaves = []
    for name in atoms:
        if not positive and rng.random() < 0.4:
            leaves.append(NegProp(name))
        else:
            leaves.append(Prop(name))
    if not leaves or rng.random() < 0.2:
        leaves.append(Const(random_value(rng, kind)))
    rng.shuffle(leaves)
    if kind is LatticeKind.UNIT:
        imp = rng.choice(["G", "P", "L"])
    else:
        alpha = rng.randint(1, 3)
        gamma = rng.randint(1, 3)
        imp = EiParams(alpha, rng.randint(1, alpha), gamma, rng.randint(1, gamma))
    return Rule(head, imp, _build_expr(rng, kind, leaves), random_value(rng, kind))


def random_program(
    rng: random.Random,
    kind: LatticeKind | None = None,
    max_symbols: int = 6,
    max_rules: int = 8,
    positive: bool = False,
) -> Program:
    if kind is None:
        kind = rng.choice([LatticeKind.UNIT, LatticeKind.INTERVAL])
    symbols = SYMBOL_POOL[: rng.randint(1, max_symbols)]
    rules = [
        random_rule(rng, kind, symbols, positive=positive)
        for _ in range(rng.randint(1, max_rules))
    ]
    return Program.of(kind, rules, extra_symbols=symbols)


def random_eligible_program(
    rng: random.Random, max_symbols: int = 3, gamma_equals_delta: bool = False
) -> Program:
    """An interval program in the certificate's scope (product bodies, ei
    implications); its certificate may or may not pass."""
    symbols = SYMBOL_POOL[: rng.randint(1, max_symbols)]
    rules = []
    for _ in range(rng.randint(1, 3)):
        head = rng.choice(symbols)
        n_atoms = rng.randint(1, min(2, len(symbols)))
        atoms = rng.sample(symbols, n_atoms)
        leaves = [NegProp(a) if rng.random() < 0.5 else Prop(a) for a in atoms]
        body = leaves[0]
        for leaf in leaves[1:]:
            body = Conn("*", body, leaf)
        alpha = rng.randint(1, 3)
        gamma = rng.randint(1, 3)
        delta = gamma if gamma_equals_delta else rng.randint(1, gamma)
        imp = EiParams(alpha, rng.randint(1, alpha), gamma, delta)
        hi = rng.uniform(0.05, 0.7)
        lo = rng.uniform(0.0, hi)
        rules.append(Rule(head, imp, body, Interval(lo, hi)))
    return Program.of(LatticeKind.INTERVAL, rules, extra_symbols=symbols)


def random_certified_program(
    rng: random.Random, max_symbols: int = 3, lipschitz_cap: float = 0.75
) -> Program:
    """Rejection-sample an eligible interval program whose certificate passes
    with some margin and whose per-rule bounds satisfy lambda1 <= lambda2
    (the regime in which the one-step contraction argument is sound; the
    lambda2-only test can pass while lambda1 exceeds 1 when gamma > delta).
    The margin keeps the grid oracle's near-fixpoint set compact."""
    while True:
        program = random_eligible_program(rng, max_symbols)
        if not eligible(program):
            continue
        report = certify(program)
        if not report.verdict or report.global_lipschitz > lipschitz_cap:
            continue
        if all(rc.lambda1 <= rc.lambda2 for rc in report.per_rule):
            return program
