"""Truth-value lattices and their algebraic operators.

Two lattices are built in: the unit interval [0,1] with the Gödel, product
and Łukasiewicz adjoint pairs, and the lattice C([0,1]) of closed
subintervals of [0,1] ordered componentwise, with the family of exponential
interval products (ei-products) and their residua.  Every operator here is a
pure function on immutable values; values from different lattices never mix.
Each connective, negation and aggregator is written once, as a float kernel
on raw values (``Raw``); the operators on value objects wrap these kernels,
and the compiled evaluator runs them directly (``kernel``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from typing import Callable, Iterable, Union


class LatticeKind(Enum):
    UNIT = "unit"
    INTERVAL = "interval"


class DomainMismatchError(TypeError):
    """Raised when values from different lattices meet in one operation."""


class UnknownOperatorError(KeyError):
    """Raised when a connective or aggregator label cannot be resolved."""


@dataclass(frozen=True, slots=True)
class Unit:
    """A scalar truth value in [0,1]."""

    value: float

    def __post_init__(self) -> None:
        if not (isinstance(self.value, (int, float)) and 0.0 <= self.value <= 1.0):
            raise ValueError(f"unit truth value out of [0,1]: {self.value!r}")
        object.__setattr__(self, "value", float(self.value))

    @property
    def kind(self) -> LatticeKind:
        return LatticeKind.UNIT

    def __repr__(self) -> str:
        return f"Unit({self.value!r})"


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed subinterval [lo, hi] of [0,1], ordered componentwise."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        ok = (
            isinstance(self.lo, (int, float))
            and isinstance(self.hi, (int, float))
            and 0.0 <= self.lo <= self.hi <= 1.0
        )
        if not ok:
            raise ValueError(f"not a subinterval of [0,1]: [{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    @property
    def kind(self) -> LatticeKind:
        return LatticeKind.INTERVAL

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


TruthValue = Union[Unit, Interval]

#: A truth value as the evaluator holds it: a float for a unit value, a
#: (lo, hi) pair of floats for an interval.
Raw = Union[float, tuple[float, float]]


def to_raw(value: TruthValue) -> Raw:
    return value.value if isinstance(value, Unit) else (value.lo, value.hi)


def from_raw(kind: LatticeKind, raw: Raw) -> TruthValue:
    """Build the value object; raises the constructor's ValueError when
    ``raw`` is out of range."""
    return Unit(raw) if kind is LatticeKind.UNIT else Interval(*raw)


def bottom(kind: LatticeKind) -> TruthValue:
    return Unit(0.0) if kind is LatticeKind.UNIT else Interval(0.0, 0.0)


def top(kind: LatticeKind) -> TruthValue:
    return Unit(1.0) if kind is LatticeKind.UNIT else Interval(1.0, 1.0)


def _require_same_kind(a: TruthValue, b: TruthValue) -> None:
    if type(a) is not type(b):
        raise DomainMismatchError(f"mixed lattice kinds: {a!r} vs {b!r}")


def _require_unit(*values: TruthValue) -> None:
    for v in values:
        if not isinstance(v, Unit):
            raise DomainMismatchError(f"unit-lattice operator applied to {v!r}")


def _require_interval(*values: TruthValue) -> None:
    for v in values:
        if not isinstance(v, Interval):
            raise DomainMismatchError(f"interval operator applied to {v!r}")


def leq(a: TruthValue, b: TruthValue) -> bool:
    """Lattice order: scalar order on [0,1], componentwise on intervals.

    Intervals are only partially ordered; incomparable pairs return False
    both ways.
    """
    _require_same_kind(a, b)
    if isinstance(a, Unit):
        return a.value <= b.value
    return a.lo <= b.lo and a.hi <= b.hi


# ---------------------------------------------------------------------------
# Unit-lattice adjoint pairs.  Implications take (consequent, antecedent),
# matching the reading of z <- y.
# ---------------------------------------------------------------------------


def _lukasiewicz(x: float, y: float) -> float:
    return max(0.0, x + y - 1.0)


#: Float kernels of the unit conjunctors by rule tag: min(x, y), x * y and
#: max(0, x + y - 1).  The body connective "&" + tag is the same conjunctor.
UNIT_KERNELS: dict[str, Callable[[float, float], float]] = {
    "G": min,
    "P": operator.mul,
    "L": _lukasiewicz,
}


def godel_and(x: TruthValue, y: TruthValue) -> Unit:
    _require_unit(x, y)
    return Unit(UNIT_KERNELS["G"](x.value, y.value))


def product_and(x: TruthValue, y: TruthValue) -> Unit:
    _require_unit(x, y)
    return Unit(UNIT_KERNELS["P"](x.value, y.value))


def lukasiewicz_and(x: TruthValue, y: TruthValue) -> Unit:
    _require_unit(x, y)
    return Unit(UNIT_KERNELS["L"](x.value, y.value))


def godel_imp(z: TruthValue, y: TruthValue) -> Unit:
    _require_unit(z, y)
    return Unit(1.0) if y.value <= z.value else Unit(z.value)


def product_imp(z: TruthValue, y: TruthValue) -> Unit:
    # y == 0 leaves every x feasible, so the residuum is the top element.
    _require_unit(z, y)
    if y.value == 0.0:
        return Unit(1.0)
    return Unit(min(1.0, z.value / y.value))


def lukasiewicz_imp(z: TruthValue, y: TruthValue) -> Unit:
    _require_unit(z, y)
    return Unit(min(1.0, 1.0 - y.value + z.value))


# ---------------------------------------------------------------------------
# Exponential interval products on C([0,1]) and their residua.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EiParams:
    """Exponents (alpha, beta, gamma, delta) of an exponential interval product.

    The constraints beta <= alpha and delta <= gamma keep the product inside
    C([0,1]): the lower endpoint gets the larger exponents, hence the smaller
    value.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"ei exponent {name} must be a natural number >= 1, got {v!r}")
        if self.beta > self.alpha:
            raise ValueError(f"ei exponents require beta <= alpha, got beta={self.beta}, alpha={self.alpha}")
        if self.delta > self.gamma:
            raise ValueError(f"ei exponents require delta <= gamma, got delta={self.delta}, gamma={self.gamma}")

    def __repr__(self) -> str:
        return f"EiParams({self.alpha}, {self.beta}, {self.gamma}, {self.delta})"


#: Componentwise interval product, the `*` body connective.
STAR = EiParams(1, 1, 1, 1)


def _ei(p: EiParams, x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    return (x[0] ** p.alpha * y[0] ** p.gamma, x[1] ** p.beta * y[1] ** p.delta)


def ei_product(p: EiParams, x: TruthValue, y: TruthValue) -> Interval:
    """[a,b] & [c,d] = [a^alpha * c^gamma, b^beta * d^delta]."""
    _require_interval(x, y)
    return Interval(*_ei(p, (x.lo, x.hi), (y.lo, y.hi)))


def ei_residuum(p: EiParams, z: TruthValue, y: TruthValue) -> Interval:
    """Greatest x in C([0,1]) with ei_product(p, x, y) <= z.

    Each endpoint constraint is solved independently and capped at 1; a zero
    (or underflowing) antecedent power makes the constraint vacuous.  The
    lower endpoint is additionally capped by the upper one so the result
    stays a valid interval.
    """
    _require_interval(z, y)
    ylo_pow = y.lo**p.gamma
    yhi_pow = y.hi**p.delta
    u = 1.0 if ylo_pow == 0.0 else min(1.0, (z.lo / ylo_pow) ** (1.0 / p.alpha))
    v = 1.0 if yhi_pow == 0.0 else min(1.0, (z.hi / yhi_pow) ** (1.0 / p.beta))
    return Interval(min(u, v), v)


def _negate_unit(x: float) -> float:
    return 1.0 - x


def _negate_interval(x: tuple[float, float]) -> tuple[float, float]:
    return (1.0 - x[1], 1.0 - x[0])


def negate(x: TruthValue) -> TruthValue:
    """Standard negation: 1-x on [0,1], endpoint flip on intervals."""
    return from_raw(x.kind, kernel(x.kind, "not")(to_raw(x)))


def sup_value(values: Iterable[TruthValue], kind: LatticeKind) -> TruthValue:
    """Componentwise supremum; the empty supremum is the bottom element."""
    values = list(values)
    if not values:
        return bottom(kind)
    if kind is LatticeKind.UNIT:
        _require_unit(*values)
    else:
        _require_interval(*values)
    return from_raw(kind, kernel(kind, "max")([to_raw(v) for v in values]))


# ---------------------------------------------------------------------------
# Built-in aggregators: componentwise, monotone and continuous.  Their
# kernels take the list of argument values.
# ---------------------------------------------------------------------------


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def _endpoints(aggregate: Callable) -> Callable:
    """Apply a scalar aggregate to the lower and to the upper endpoints."""
    return lambda xs: tuple(map(aggregate, zip(*xs)))


def _aggregate(name: str, values: tuple[TruthValue, ...]) -> TruthValue:
    if not values:
        raise ValueError("aggregator needs at least one argument")
    for v in values[1:]:
        _require_same_kind(values[0], v)
    kind = values[0].kind
    return from_raw(kind, kernel(kind, name)([to_raw(v) for v in values]))


def agg_min(*values: TruthValue) -> TruthValue:
    return _aggregate("min", values)


def agg_max(*values: TruthValue) -> TruthValue:
    return _aggregate("max", values)


def agg_mean(*values: TruthValue) -> TruthValue:
    return _aggregate("mean", values)


# ---------------------------------------------------------------------------
# Label tables.  A rule tag names one adjoint pair, a body label one
# connective and an aggregator name one aggregator; negation is ``negate`` in
# both lattices.  ``KERNELS`` holds the float kernels the evaluator runs, the
# other tables the value-object operations that wrap them.
# ---------------------------------------------------------------------------

BinaryOp = Callable[[TruthValue, TruthValue], TruthValue]

ImpLabel = Union[str, EiParams]

#: (conjunctor, implication) by unit rule tag.
UNIT_PAIRS: dict[str, tuple[BinaryOp, BinaryOp]] = {
    "G": (godel_and, godel_imp),
    "P": (product_and, product_imp),
    "L": (lukasiewicz_and, lukasiewicz_imp),
}

#: Body connectives by label, per lattice.
BODY_OPS: dict[LatticeKind, dict[str, BinaryOp]] = {
    LatticeKind.UNIT: {"&G": godel_and, "&P": product_and, "&L": lukasiewicz_and},
    LatticeKind.INTERVAL: {"*": partial(ei_product, STAR)},
}

#: Aggregators by name, shared by both lattices.
AGGREGATORS: dict[str, Callable[..., TruthValue]] = {"min": agg_min, "max": agg_max, "mean": agg_mean}

#: Float kernels by label, per lattice: body connectives, unit rule tags
#: (their conjunctors), aggregators and "not".
KERNELS: dict[LatticeKind, dict[str, Callable]] = {
    LatticeKind.UNIT: {
        **UNIT_KERNELS,
        **{"&" + tag: k for tag, k in UNIT_KERNELS.items()},
        "min": min,
        "max": max,
        "mean": _mean,
        "not": _negate_unit,
    },
    LatticeKind.INTERVAL: {
        "*": partial(_ei, STAR),
        "min": _endpoints(min),
        "max": _endpoints(max),
        "mean": _endpoints(_mean),
        "not": _negate_interval,
    },
}


@cache
def adjoint_pair(kind: LatticeKind, label: ImpLabel) -> tuple[BinaryOp, BinaryOp]:
    """The (conjunctor, implication) pair a rule tag names in ``kind``; each
    distinct ei tag builds its pair once."""
    if isinstance(label, EiParams):
        if kind is not LatticeKind.INTERVAL:
            raise UnknownOperatorError(f"ei implication {label!r} needs the interval lattice")
        return partial(ei_product, label), partial(ei_residuum, label)
    if kind is LatticeKind.UNIT and label in UNIT_PAIRS:
        return UNIT_PAIRS[label]
    raise UnknownOperatorError(f"no adjoint pair labelled {label!r} in the {kind.value} lattice")


@cache
def kernel(kind: LatticeKind, label: ImpLabel) -> Callable:
    """The float kernel a label names in ``kind``: a body connective, an
    aggregator, "not", or a rule tag (its conjunctor); each distinct ei tag
    builds its kernel once."""
    if isinstance(label, EiParams) and kind is LatticeKind.INTERVAL:
        return partial(_ei, label)
    try:
        return KERNELS[kind][label]
    except KeyError:
        raise UnknownOperatorError(f"no operator labelled {label!r} in the {kind.value} lattice") from None


def body_op(kind: LatticeKind, op: str) -> BinaryOp:
    try:
        return BODY_OPS[kind][op]
    except KeyError:
        raise UnknownOperatorError(f"no body connective {op!r} in the {kind.value} lattice") from None
