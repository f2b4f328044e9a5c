"""Seeded input generators for the benchmark, writing rule-language text.

The generators follow the distributions of the test suite's random
programs (random rule bodies with negation, constants and aggregators;
certificate-eligible product programs), but build the text directly so the
inputs depend on nothing but this file and the seed: manlp itself only ever
sees the generated files.

Each workload runs a fixed corpus drawn from ``CORPUS_SEED``.  Per-program
cost is heavy-tailed (one random 16-symbol program can take a hundred times
the median), so corpora redrawn per run seed would make the run-to-run spread
a sampling artefact of the corpus rather than a property of the code.  The
run seed draws everything else: task order, search starts and the
interpretations that ``stable --check`` tests.
"""

from __future__ import annotations

import hashlib
import json
import random

CORPUS_SEED = 20240923

UNIT_OPS = ("&G", "&P", "&L")
AGG_NAMES = ("min", "max", "mean")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _value(rng: random.Random, kind: str) -> str:
    if kind == "unit":
        return repr(rng.random())
    a, b = rng.random(), rng.random()
    return f"[{min(a, b)!r},{max(a, b)!r}]"


def _expr(rng: random.Random, kind: str, leaves: list[str]) -> tuple[str, bool]:
    """Random body over ``leaves``; returns (text, is a connective chain)."""
    if len(leaves) == 1:
        return leaves[0], False
    if rng.random() < 0.15:
        n_args = rng.randint(2, min(3, len(leaves)))
        cuts = sorted(rng.sample(range(1, len(leaves)), n_args - 1))
        groups, prev = [], 0
        for cut in cuts + [len(leaves)]:
            groups.append(leaves[prev:cut])
            prev = cut
        name = rng.choice(AGG_NAMES)
        return f"@{name}(" + ", ".join(_expr(rng, kind, g)[0] for g in groups) + ")", False
    split = rng.randint(1, len(leaves) - 1)
    op = rng.choice(UNIT_OPS) if kind == "unit" else "*"
    left, _ = _expr(rng, kind, leaves[:split])
    right, right_is_conn = _expr(rng, kind, leaves[split:])
    # connectives associate to the left, so only a right-hand chain needs parentheses
    if right_is_conn:
        right = f"({right})"
    return f"{left} {op} {right}", True


def random_rule(rng: random.Random, kind: str, symbols: list[str]) -> tuple[str, list[str]]:
    """One rule line in the general fragment, and the atoms it mentions."""
    head = rng.choice(symbols)
    atoms = rng.sample(symbols, rng.randint(0, min(4, len(symbols))))
    leaves = [f"not {a}" if rng.random() < 0.4 else a for a in atoms]
    if not leaves or rng.random() < 0.2:
        leaves.append(_value(rng, kind))
    rng.shuffle(leaves)
    if kind == "unit":
        tag = rng.choice(("G", "P", "L"))
    else:
        alpha, gamma = rng.randint(1, 3), rng.randint(1, 3)
        tag = f"ei({alpha},{rng.randint(1, alpha)},{gamma},{rng.randint(1, gamma)})"
    body, _ = _expr(rng, kind, leaves)
    return f"{head} <-{tag} {body} ; {_value(rng, kind)}", [head] + atoms


def general_program(rng: random.Random, kind: str, n_symbols: int, n_rules: int) -> tuple[str, list[str]]:
    """Program text over s0..s{n-1} and the sorted symbols that occur in it."""
    symbols = [f"s{i}" for i in range(n_symbols)]
    lines, used = [], set()
    for _ in range(n_rules):
        line, atoms = random_rule(rng, kind, symbols)
        lines.append(line)
        used.update(atoms)
    return "\n".join(lines) + "\n", sorted(used)


def certified_program(rng: random.Random, n_symbols: int) -> str:
    """Interval product program with gamma = delta on every rule, so that
    lambda1 <= lambda2 by construction, and weight upper ends <= 0.15, which
    keeps every lambda2 below 1 (certified)."""
    symbols = [f"s{i}" for i in range(n_symbols)]
    lines = []
    for _ in range(3 * n_symbols):
        head = rng.choice(symbols)
        atoms = rng.sample(symbols, rng.randint(1, 2))
        body = " * ".join(f"not {a}" if rng.random() < 0.5 else a for a in atoms)
        alpha, gamma = rng.randint(1, 3), rng.randint(1, 3)
        hi = rng.uniform(0.05, 0.15)
        lo = rng.uniform(0.0, hi)
        lines.append(f"{head} <-ei({alpha},{rng.randint(1, alpha)},{gamma},{gamma}) {body} ; [{lo!r},{hi!r}]")
    return "\n".join(lines) + "\n"


def unit_interpretation(rng: random.Random, symbols: list[str]) -> str:
    return json.dumps({s: rng.random() for s in symbols}, sort_keys=True) + "\n"
