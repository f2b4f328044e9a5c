"""Truth-value lattices and their algebraic operators.

Two lattices are built in: the unit interval [0,1] with the Gödel, product
and Łukasiewicz adjoint pairs, and the lattice C([0,1]) of closed
subintervals of [0,1] ordered componentwise, with the family of exponential
interval products (ei-products) and their residua.  Every operator here is a
pure function on immutable values; values from different lattices never mix.
Each rule tag, connective, aggregator and negation is written once, as a
float kernel on raw values (``Raw``) in the one label table ``KERNELS``; the
residua of the unit tags are the only formulas without a kernel.  The
operators on value objects are lifted from the kernels, and the compiled
evaluator runs the kernels directly (``kernel``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache, partial
from typing import Callable, ClassVar, Iterable, Optional, Union


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
    kind: ClassVar[LatticeKind] = LatticeKind.UNIT

    def __post_init__(self) -> None:
        if not (isinstance(self.value, (int, float)) and 0.0 <= self.value <= 1.0):
            raise ValueError(f"unit truth value out of [0,1]: {self.value!r}")
        object.__setattr__(self, "value", float(self.value))

    def __repr__(self) -> str:
        return f"Unit({self.value!r})"


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed subinterval [lo, hi] of [0,1], ordered componentwise."""

    lo: float
    hi: float
    kind: ClassVar[LatticeKind] = LatticeKind.INTERVAL

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


def _require(kind: LatticeKind, *values: TruthValue) -> None:
    for v in values:
        if getattr(v, "kind", None) is not kind:
            raise DomainMismatchError(f"{kind.value}-lattice operation applied to {v!r}")


def leq(a: TruthValue, b: TruthValue) -> bool:
    """Lattice order: scalar order on [0,1], componentwise on intervals.

    Intervals are only partially ordered; incomparable pairs return False
    both ways.
    """
    _require(a.kind, b)
    if isinstance(a, Unit):
        return a.value <= b.value
    return a.lo <= b.lo and a.hi <= b.hi


# ---------------------------------------------------------------------------
# Residua of the unit rule tags.  Implications take (consequent, antecedent),
# matching the reading of z <- y.
# ---------------------------------------------------------------------------


def godel_imp(z: TruthValue, y: TruthValue) -> Unit:
    _require(LatticeKind.UNIT, z, y)
    return Unit(1.0) if y.value <= z.value else Unit(z.value)


def product_imp(z: TruthValue, y: TruthValue) -> Unit:
    # y == 0 leaves every x feasible, so the residuum is the top element.
    _require(LatticeKind.UNIT, z, y)
    if y.value == 0.0:
        return Unit(1.0)
    return Unit(min(1.0, z.value / y.value))


def lukasiewicz_imp(z: TruthValue, y: TruthValue) -> Unit:
    _require(LatticeKind.UNIT, z, y)
    return Unit(min(1.0, 1.0 - y.value + z.value))


BinaryOp = Callable[[TruthValue, TruthValue], TruthValue]

#: The unit rule tags, each with the residuum of its adjoint pair.
UNIT_RESIDUA: dict[str, BinaryOp] = {"G": godel_imp, "P": product_imp, "L": lukasiewicz_imp}


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


ImpLabel = Union[str, EiParams]

#: Componentwise interval product, the `*` body connective.
STAR = EiParams(1, 1, 1, 1)


def _ei(p: EiParams, x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    return (x[0] ** p.alpha * y[0] ** p.gamma, x[1] ** p.beta * y[1] ** p.delta)


def ei_product(p: EiParams, x: TruthValue, y: TruthValue) -> Interval:
    """[a,b] & [c,d] = [a^alpha * c^gamma, b^beta * d^delta]."""
    _require(LatticeKind.INTERVAL, x, y)
    return Interval(*_ei(p, (x.lo, x.hi), (y.lo, y.hi)))


def ei_residuum(p: EiParams, z: TruthValue, y: TruthValue) -> Interval:
    """Greatest x in C([0,1]) with ei_product(p, x, y) <= z.

    Each endpoint constraint is solved independently and capped at 1; a zero
    (or underflowing) antecedent power makes the constraint vacuous.  The
    lower endpoint is additionally capped by the upper one so the result
    stays a valid interval.
    """
    _require(LatticeKind.INTERVAL, z, y)
    ylo_pow = y.lo**p.gamma
    yhi_pow = y.hi**p.delta
    u = 1.0 if ylo_pow == 0.0 else min(1.0, (z.lo / ylo_pow) ** (1.0 / p.alpha))
    v = 1.0 if yhi_pow == 0.0 else min(1.0, (z.hi / yhi_pow) ** (1.0 / p.beta))
    return Interval(min(u, v), v)


# ---------------------------------------------------------------------------
# The label table.  Every rule tag (its conjunctor), body connective,
# aggregator and "not" is one float kernel on raw values; aggregators take
# the list of argument values and act componentwise on intervals.
# ---------------------------------------------------------------------------


def _lukasiewicz(x: float, y: float) -> float:
    return max(0.0, x + y - 1.0)


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def _endpoints(aggregate: Callable) -> Callable:
    """Apply a scalar aggregate to the lower and to the upper endpoints."""
    return lambda xs: tuple(map(aggregate, zip(*xs)))


def _negate_unit(x: float) -> float:
    return 1.0 - x


def _negate_interval(x: tuple[float, float]) -> tuple[float, float]:
    return (1.0 - x[1], 1.0 - x[0])


#: Float kernels by label, per lattice.  A unit rule tag and its body
#: connective "&" + tag share one conjunctor.
KERNELS: dict[LatticeKind, dict[str, Callable]] = {
    LatticeKind.UNIT: {
        "G": min,
        "&G": min,
        "P": operator.mul,
        "&P": operator.mul,
        "L": _lukasiewicz,
        "&L": _lukasiewicz,
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

#: The labels that are body connectives, per lattice, and aggregators, in
#: both.  The rule tags are the keys of ``UNIT_RESIDUA`` and the ei tags.
CONNECTIVES: dict[LatticeKind, tuple[str, ...]] = {LatticeKind.UNIT: ("&G", "&P", "&L"), LatticeKind.INTERVAL: ("*",)}
AGGREGATORS: tuple[str, ...] = ("min", "max", "mean")


@cache  # one operator per label, which ``adjoint_pair`` hands out; only table labels reach it
def _lift(label: str, kind: Optional[LatticeKind] = None) -> Callable[..., TruthValue]:
    """The operation on value objects that runs a kernel: the conjunctor
    ``label`` of ``kind``, or, without a kind, the aggregator ``label`` over
    the lattice of its first argument."""
    if kind is not None:
        f = KERNELS[kind][label]

        def conjunctor(x: TruthValue, y: TruthValue) -> TruthValue:
            _require(kind, x, y)
            return from_raw(kind, f(to_raw(x), to_raw(y)))

        return conjunctor

    def aggregator(*values: TruthValue) -> TruthValue:
        if not values:
            raise ValueError("aggregator needs at least one argument")
        k = values[0].kind
        _require(k, *values)
        return from_raw(k, KERNELS[k][label]([to_raw(v) for v in values]))

    return aggregator


godel_and = _lift("G", LatticeKind.UNIT)
product_and = _lift("P", LatticeKind.UNIT)
lukasiewicz_and = _lift("L", LatticeKind.UNIT)
agg_min, agg_max, agg_mean = _lift("min"), _lift("max"), _lift("mean")


def negate(x: TruthValue) -> TruthValue:
    """Standard negation: 1-x on [0,1], endpoint flip on intervals."""
    return from_raw(x.kind, kernel(x.kind, "not")(to_raw(x)))


def sup_value(values: Iterable[TruthValue], kind: LatticeKind) -> TruthValue:
    """Componentwise supremum; the empty supremum is the bottom element."""
    values = list(values)
    if not values:
        return bottom(kind)
    _require(kind, *values)
    return from_raw(kind, kernel(kind, "max")([to_raw(v) for v in values]))


# ---------------------------------------------------------------------------
# Resolvers.  Both are keyed by ei tags read from input, so their caches are
# bounded.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def adjoint_pair(kind: LatticeKind, label: ImpLabel) -> tuple[BinaryOp, BinaryOp]:
    """The (conjunctor, implication) pair a rule tag names in ``kind``."""
    if isinstance(label, EiParams):
        if kind is not LatticeKind.INTERVAL:
            raise UnknownOperatorError(f"ei implication {label!r} needs the interval lattice")
        return partial(ei_product, label), partial(ei_residuum, label)
    if kind is LatticeKind.UNIT and label in UNIT_RESIDUA:
        return _lift(label, kind), UNIT_RESIDUA[label]
    raise UnknownOperatorError(f"no adjoint pair labelled {label!r} in the {kind.value} lattice")


@lru_cache(maxsize=256)
def kernel(kind: LatticeKind, label: ImpLabel) -> Callable:
    """The float kernel a label names in ``kind``: a body connective, an
    aggregator, "not", or a rule tag (its conjunctor)."""
    if isinstance(label, EiParams) and kind is LatticeKind.INTERVAL:
        return partial(_ei, label)
    try:
        return KERNELS[kind][label]
    except KeyError:
        raise UnknownOperatorError(f"no operator labelled {label!r} in the {kind.value} lattice") from None
