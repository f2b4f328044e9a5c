"""Truth-value lattices and their algebraic operators.

Two lattices are built in: the unit interval [0,1] with the Gödel, product
and Łukasiewicz adjoint pairs, and the lattice C([0,1]) of closed
subintervals of [0,1] ordered componentwise, with the family of exponential
interval products (ei-products) and their residua.  Every operator here is a
pure function on immutable values; values from different lattices never mix.
Each rule tag, connective, aggregator and negation is written once, as an
array kernel on raw values in the one label table ``KERNELS``; the residua
of the unit tags are the only formulas without a kernel.  The operators on
value objects are lifted from the kernels (one value each), and the compiled
evaluator runs the kernels directly (``kernel``) on whole groups of values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache, partial, reduce
from itertools import repeat
from typing import Callable, ClassVar, Iterable, Optional, Union

import numpy as np


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


def ei_product(p: EiParams, x: TruthValue, y: TruthValue) -> Interval:
    """[a,b] & [c,d] = [a^alpha * c^gamma, b^beta * d^delta]."""
    _require(LatticeKind.INTERVAL, x, y)
    return _apply(LatticeKind.INTERVAL, partial(_ei, p), x, y)


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
# aggregator and "not" is one array kernel.  A kernel takes arrays of raw
# values shaped (values, endpoints, columns), one endpoint for a unit value
# and (lo, hi) for an interval, and computes every element exactly as
# Python's float operations do on one value: ``min`` keeps its first
# argument unless the second is smaller, ``max`` unless it is larger, a
# power is Python's ``**`` and a mean is ``math.fsum`` over its count.
# Binary kernels take two arrays; aggregators a list of them, and act on
# each endpoint alone.
# ---------------------------------------------------------------------------


def _godel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.where(y < x, y, x)


def _larger(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.where(y > x, y, x)


def _lukasiewicz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    t = x + y - 1.0
    return np.where(t > 0.0, t, 0.0)


def _minimum(xs: list[np.ndarray]) -> np.ndarray:
    return reduce(_godel, xs)


def _maximum(xs: list[np.ndarray]) -> np.ndarray:
    return reduce(_larger, xs)


def _mean(xs: list[np.ndarray]) -> np.ndarray:
    # fsum is the correctly rounded sum, which one or two terms get from
    # plain addition; "+ 0.0" turns its -0.0 into the 0.0 fsum returns
    if len(xs) <= 2:
        total = sum(xs[1:], xs[0]) + 0.0
    else:
        columns = zip(*(x.ravel().tolist() for x in xs))
        total = np.array(list(map(math.fsum, columns)), dtype=float).reshape(xs[0].shape)
    return total / len(xs)


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e per element with Python's ``**``, which numpy's power does not
    match in the last bit for every input."""
    if e == 1:
        return x
    return np.array(list(map(pow, x.ravel().tolist(), repeat(e))), dtype=float).reshape(x.shape)


def _powers(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Interval values with their lower endpoints raised to ``lo`` and their
    upper ones to ``hi``."""
    if lo == hi == 1:
        return x
    out = np.empty(x.shape)
    out[:, 0] = _power(x[:, 0], lo)
    out[:, 1] = _power(x[:, 1], hi)
    return out


def _ei_scaled(gamma: int, delta: int, weight_powers: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The ei product of x and y from x's endpoint powers (x_lo^alpha, x_hi^beta)."""
    return weight_powers * _powers(y, gamma, delta)


def _ei(p: EiParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _ei_scaled(p.gamma, p.delta, _powers(x, p.alpha, p.beta), y)


def _negate(x: np.ndarray) -> np.ndarray:
    """1 - x, with the endpoints swapped (a unit value has one)."""
    return 1.0 - x[:, ::-1]


#: Array kernels by label, per lattice.  A unit rule tag and its body
#: connective "&" + tag share one conjunctor.
KERNELS: dict[LatticeKind, dict[str, Callable]] = {
    LatticeKind.UNIT: {
        "G": _godel,
        "&G": _godel,
        "P": operator.mul,
        "&P": operator.mul,
        "L": _lukasiewicz,
        "&L": _lukasiewicz,
        "min": _minimum,
        "max": _maximum,
        "mean": _mean,
        "not": _negate,
    },
    LatticeKind.INTERVAL: {
        "*": partial(_ei, STAR),
        "min": _minimum,
        "max": _maximum,
        "mean": _mean,
        "not": _negate,
    },
}

#: The labels that are body connectives, per lattice, and aggregators, in
#: both.  The rule tags are the keys of ``UNIT_RESIDUA`` and the ei tags.
CONNECTIVES: dict[LatticeKind, tuple[str, ...]] = {LatticeKind.UNIT: ("&G", "&P", "&L"), LatticeKind.INTERVAL: ("*",)}
AGGREGATORS: tuple[str, ...] = ("min", "max", "mean")


def _apply(kind: LatticeKind, f: Callable, *values: TruthValue) -> TruthValue:
    """Run a kernel on value objects of ``kind``, as a one-element array each."""
    out = f(*(np.array(to_raw(v), dtype=float).reshape(1, -1, 1) for v in values))
    return from_raw(kind, out.item() if kind is LatticeKind.UNIT else tuple(out.ravel().tolist()))


def _gather(kind: LatticeKind, f: Callable, values: list[TruthValue]) -> TruthValue:
    """Run an aggregator kernel on a list of value objects of ``kind``."""
    return _apply(kind, lambda *xs: f(list(xs)), *values)


@cache  # one operator per label, which ``adjoint_pair`` hands out; only table labels reach it
def _lift(label: str, kind: Optional[LatticeKind] = None) -> Callable[..., TruthValue]:
    """The operation on value objects that runs a kernel: the conjunctor
    ``label`` of ``kind``, or, without a kind, the aggregator ``label`` over
    the lattice of its first argument."""
    if kind is not None:

        def conjunctor(x: TruthValue, y: TruthValue) -> TruthValue:
            _require(kind, x, y)
            return _apply(kind, KERNELS[kind][label], x, y)

        return conjunctor

    def aggregator(*values: TruthValue) -> TruthValue:
        if not values:
            raise ValueError("aggregator needs at least one argument")
        k = values[0].kind
        _require(k, *values)
        return _gather(k, KERNELS[k][label], list(values))

    return aggregator


godel_and = _lift("G", LatticeKind.UNIT)
product_and = _lift("P", LatticeKind.UNIT)
lukasiewicz_and = _lift("L", LatticeKind.UNIT)
agg_min, agg_max, agg_mean = _lift("min"), _lift("max"), _lift("mean")


def negate(x: TruthValue) -> TruthValue:
    """Standard negation: 1-x on [0,1], endpoint flip on intervals."""
    return _apply(x.kind, kernel(x.kind, "not"), x)


def sup_value(values: Iterable[TruthValue], kind: LatticeKind) -> TruthValue:
    """Componentwise supremum; the empty supremum is the bottom element."""
    values = list(values)
    if not values:
        return bottom(kind)
    _require(kind, *values)
    return _gather(kind, kernel(kind, "max"), values)


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
    """The array kernel a label names in ``kind``: a body connective, an
    aggregator, "not", or a rule tag (its conjunctor)."""
    if isinstance(label, EiParams) and kind is LatticeKind.INTERVAL:
        return partial(_ei, label)
    try:
        return KERNELS[kind][label]
    except KeyError:
        raise UnknownOperatorError(f"no operator labelled {label!r} in the {kind.value} lattice") from None
