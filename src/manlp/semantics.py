"""Interpretations, formula evaluation, satisfaction and model checking.

Bodies evaluate through a compiled register file (``syntax.Bodies``):
``_run_nodes`` runs each group of nodes of one depth and label as one call
of its array kernel, over every column at once, and range-checks every value
it computes, raising the value constructors' ``ValueError``.  ``evaluate``
compiles its one body; ``rule_values`` and ``is_model`` evaluate every body
of a program in one pass of the program's schedule.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator, Optional

import numpy as np

from .lattice import (
    LatticeKind,
    Raw,
    TruthValue,
    Interval,
    Unit,
    adjoint_pair,
    bottom,
    from_raw,
    kernel,
    leq,
    to_raw,
    top,
)
from .syntax import Bodies, BodyExpr, Program, Rule, _width, body_atoms, compile_bodies


class SymbolMismatchError(ValueError):
    """Raised when two interpretations (or a program and an interpretation)
    do not range over the same symbols."""


class UnknownSymbolError(KeyError):
    """Raised when a body references an atom the interpretation lacks."""


class Interpretation(Mapping):
    """A total, immutable assignment of truth values to symbols."""

    __slots__ = ("kind", "_values")

    def __init__(self, kind: LatticeKind, values: Mapping[str, TruthValue]):
        for sym, val in values.items():
            if val.kind is not kind:
                raise ValueError(f"value {val!r} for {sym!r} is not in the {kind.value} lattice")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_values", dict(values))

    def __setattr__(self, name, value):
        raise AttributeError("Interpretation is immutable")

    @classmethod
    def bottom(cls, kind: LatticeKind, symbols: Iterable[str]) -> "Interpretation":
        bot = bottom(kind)
        return cls(kind, {s: bot for s in symbols})

    @classmethod
    def top(cls, kind: LatticeKind, symbols: Iterable[str]) -> "Interpretation":
        tp = top(kind)
        return cls(kind, {s: tp for s in symbols})

    def __getitem__(self, symbol: str) -> TruthValue:
        try:
            return self._values[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        return self.kind is other.kind and self._values == other._values

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self._values.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {self._values[s]!r}" for s in sorted(self._values))
        return f"Interpretation({self.kind.value}, {{{inner}}})"


def _check_same_symbols(i: Interpretation, j: Interpretation) -> None:
    if i.kind is not j.kind:
        raise SymbolMismatchError(f"mixed lattice kinds: {i.kind} vs {j.kind}")
    if i.symbols != j.symbols:
        raise SymbolMismatchError(
            f"symbol sets differ: {sorted(i.symbols)} vs {sorted(j.symbols)}"
        )


def interp_leq(i: Interpretation, j: Interpretation) -> bool:
    """Pointwise lattice order on interpretations."""
    _check_same_symbols(i, j)
    return all(leq(i[s], j[s]) for s in i)


def _raw(kind: LatticeKind, x: np.ndarray) -> Raw:
    """The raw value of one register column, shaped (endpoints,)."""
    return x.item() if kind is LatticeKind.UNIT else tuple(x.tolist())


def _check(kind: LatticeKind, x: np.ndarray) -> np.ndarray:
    """``x`` itself if every element is a truth value of ``kind``; otherwise
    raises the value constructor's ValueError for the first that is not."""
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0 and (x.shape[1] == 1 or (x[:, 0] <= x[:, 1]).all())):
        bad = (x[:, 0] >= 0.0) & (x[:, 0] <= x[:, -1]) & (x[:, -1] <= 1.0)
        i, c = np.argwhere(~bad)[0]
        from_raw(kind, _raw(kind, x[i, :, c]))
    return x


def _negations(kind: LatticeKind, x: np.ndarray) -> np.ndarray:
    return _check(kind, kernel(kind, "not")(x))


def _column(kind: LatticeKind, raws: list[Raw]) -> np.ndarray:
    """Raw values as a register block of one column."""
    return np.array(raws, dtype=float).reshape(len(raws), _width(kind), 1)


def _registers(bodies: Bodies, values: np.ndarray, negations: np.ndarray) -> np.ndarray:
    """The register file of ``bodies`` over symbol values and their
    negations shaped (symbols, endpoints, columns); the node registers are
    left to ``_run_nodes``."""
    n, base = bodies.n, bodies.base
    registers = np.empty((base + len(bodies.nodes),) + values.shape[1:])
    registers[:n] = values
    registers[n : 2 * n] = negations
    registers[2 * n : base] = bodies.constants
    return registers


def _run_nodes(bodies: Bodies, registers: np.ndarray, nodes: Optional[np.ndarray] = None) -> None:
    """Evaluate body nodes in place, group by group: every node, or the
    given node ids in increasing order.  Every value computed is
    range-checked."""
    base, starts = bodies.base, bodies.starts
    if nodes is None:
        for (f, aggregator, ops), start in zip(bodies.groups, starts.tolist()):
            args = registers[ops]
            registers[base + start : base + start + len(ops)] = (
                f(list(args.swapaxes(0, 1))) if aggregator else f(args[:, 0], args[:, 1])
            )
        _check(bodies.kind, registers[base:])
        return
    if not len(nodes):
        return
    group = np.searchsorted(starts, nodes, side="right") - 1
    bounds = [0] + ((group[1:] != group[:-1]).nonzero()[0] + 1).tolist() + [len(nodes)]
    for lo, hi in zip(bounds, bounds[1:]):
        g = group[lo]
        f, aggregator, ops = bodies.groups[g]
        ids = nodes[lo:hi]
        args = registers[ops[ids - starts[g]]]
        registers[base + ids] = f(list(args.swapaxes(0, 1))) if aggregator else f(args[:, 0], args[:, 1])
    _check(bodies.kind, registers[base + nodes])


def evaluate(
    body: BodyExpr, interp: Interpretation, neg: Optional[Interpretation] = None
) -> TruthValue:
    """Evaluate a body under an interpretation.  Negated atoms read ``neg``
    if given, giving the body's value in the reduct by ``neg``."""
    kind = interp.kind
    neg = interp if neg is None else neg
    atoms = body_atoms(body)
    bot = to_raw(bottom(kind))
    values = _column(kind, [bot if negated else to_raw(interp[name]) for name, negated in atoms])
    negations = _column(kind, [to_raw(neg[name]) if negated else bot for name, negated in atoms])
    bodies = compile_bodies(kind, [name for name, _ in atoms], [body])
    registers = _registers(bodies, values, _negations(kind, negations))
    _run_nodes(bodies, registers)
    return from_raw(kind, _raw(kind, registers[bodies.results[0], :, 0]))


def rule_value(rule: Rule, interp: Interpretation) -> TruthValue:
    """Truth value of the whole rule, head <- body, under an interpretation."""
    _, imp = adjoint_pair(interp.kind, rule.imp)
    return imp(interp[rule.head], evaluate(rule.body, interp))


def rule_values(program: Program, interp: Interpretation) -> list[TruthValue]:
    """``rule_value`` of every rule of the program, in order, from one
    evaluation of the program's compiled bodies."""
    kind = interp.kind
    bodies = program.compiled.bodies
    values = _column(kind, [to_raw(interp[s]) for s in program.symbols])
    registers = _registers(bodies, values, _negations(kind, values))
    _run_nodes(bodies, registers)
    return [
        adjoint_pair(kind, rule.imp)[1](interp[rule.head], from_raw(kind, _raw(kind, x)))
        for rule, x in zip(program.rules, registers[bodies.results, :, 0])
    ]


def satisfies(rule: Rule, interp: Interpretation) -> bool:
    """A rule holds when its truth value reaches the rule weight."""
    return leq(rule.weight, rule_value(rule, interp))


def is_model(program: Program, interp: Interpretation) -> bool:
    return all(leq(rule.weight, value) for rule, value in zip(program.rules, rule_values(program, interp)))


# ---------------------------------------------------------------------------
# Flat-map serialization: symbol -> number (unit) or [lo, hi] (interval).
# ---------------------------------------------------------------------------


def value_to_json(value: TruthValue):
    return value.value if isinstance(value, Unit) else [value.lo, value.hi]


def interpretation_to_dict(interp: Interpretation) -> dict:
    return {sym: value_to_json(interp[sym]) for sym in sorted(interp.symbols)}


def interpretation_from_dict(
    data: Mapping, kind: LatticeKind, symbols: Iterable[str]
) -> Interpretation:
    """Decode a flat symbol map; it must cover exactly the given symbols."""
    if not isinstance(data, Mapping):
        raise ValueError(f"an interpretation must be a JSON object mapping symbols to values, got {type(data).__name__}")
    symbols = set(symbols)
    missing = symbols - set(data)
    if missing:
        raise SymbolMismatchError(f"interpretation is missing symbols: {sorted(missing)}")
    extra = set(data) - symbols
    if extra:
        raise SymbolMismatchError(f"interpretation has extraneous symbols: {sorted(extra)}")
    values: dict[str, TruthValue] = {}
    for sym in symbols:
        raw = data[sym]
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            if kind is not LatticeKind.UNIT:
                raise ValueError(f"scalar value for {sym!r} in an interval interpretation")
            values[sym] = Unit(float(raw))
        elif isinstance(raw, (list, tuple)) and len(raw) == 2:
            if kind is not LatticeKind.INTERVAL:
                raise ValueError(f"interval value for {sym!r} in a unit interpretation")
            values[sym] = Interval(float(raw[0]), float(raw[1]))
        else:
            raise ValueError(f"bad truth value for {sym!r}: {raw!r}")
    return Interpretation(kind, values)
