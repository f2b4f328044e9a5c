"""Interpretations, formula evaluation, satisfaction and model checking."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator, Optional

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
from .syntax import AGGREGATE, BodyExpr, NegProp, Program, Prop, Rule, _compile_body


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


def _checked(kind: LatticeKind, value: Raw) -> Raw:
    """``value`` itself if it is a truth value of ``kind``; otherwise raises
    the value constructor's ValueError."""
    if not (0.0 <= value <= 1.0 if kind is LatticeKind.UNIT else 0.0 <= value[0] <= value[1] <= 1.0):
        from_raw(kind, value)
    return value


def _negated(kind: LatticeKind, value: Raw) -> Raw:
    return _checked(kind, kernel(kind, "not")(value))


def _run(code: tuple, leaf: Optional[int], env: list[Raw], kind: LatticeKind) -> Raw:
    """The value of a compiled body (see ``syntax._compile_body``) over an
    environment of raw values: the leaf's slot, or the last result of its
    instructions, run with an explicit stack.  Every value an operator
    computes is range-checked."""
    if leaf is not None:
        return env[leaf]
    stack: list = []
    for fn, x, y in code:
        if fn is AGGREGATE:
            # the operands not in the environment are the top of the stack, in order
            n = y.count(None)
            popped = iter(stack[len(stack) - n :])
            del stack[len(stack) - n :]
            value = x([env[a] if a is not None else next(popped) for a in y])
        else:
            right = env[y] if y is not None else stack.pop()
            value = fn(env[x] if x is not None else stack.pop(), right)
        stack.append(_checked(kind, value))
    return value


def evaluate(
    body: BodyExpr, interp: Interpretation, neg: Optional[Interpretation] = None
) -> TruthValue:
    """Evaluate a body under an interpretation.  Negated atoms read ``neg``
    if given, giving the body's value in the reduct by ``neg``."""
    kind = interp.kind
    neg = interp if neg is None else neg
    env: list[Raw] = []

    def slot(node: BodyExpr) -> int:
        if isinstance(node, Prop):
            env.append(to_raw(interp[node.name]))
        elif isinstance(node, NegProp):
            env.append(_negated(kind, to_raw(neg[node.name])))
        else:
            env.append(to_raw(node.value))
        return len(env) - 1

    return from_raw(kind, _run(*_compile_body(kind, body, slot), env, kind))


def rule_value(rule: Rule, interp: Interpretation) -> TruthValue:
    """Truth value of the whole rule, head <- body, under an interpretation."""
    _, imp = adjoint_pair(interp.kind, rule.imp)
    return imp(interp[rule.head], evaluate(rule.body, interp))


def satisfies(rule: Rule, interp: Interpretation) -> bool:
    """A rule holds when its truth value reaches the rule weight."""
    return leq(rule.weight, rule_value(rule, interp))


def is_model(program: Program, interp: Interpretation) -> bool:
    return all(satisfies(rule, interp) for rule in program.rules)


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
