"""Brute-force verification on truth-value grids.

Everything here re-derives results by exhaustive enumeration so it can be
used to cross-check the analytic engine: stable models are found by testing
every grid interpretation against the least fixpoint of its own reduct
(computed by an independent, vectorized evaluator rather than the scalar
engine), and residua are found as grid maxima of the product constraint.
Intended for desk-scale instances; the budget guard refuses anything bigger.
"""

from __future__ import annotations

import ctypes
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .lattice import EiParams, Interval, LatticeKind, TruthValue, Unit, to_raw
from .semantics import Interpretation, is_model
from .syntax import Agg, BodyExpr, Conn, NegProp, Program, Prop, _fold
from .engine import DEFAULT_CONFIG, FixpointConfig, _canonical_key, sup_norm


class BudgetExceededError(ValueError):
    """The requested enumeration is larger than the grid budget allows."""


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    max_points: int = 5_000_000

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        if self.max_points < 1:
            raise ValueError("max_points must be at least 1")

    @property
    def step(self) -> float:
        return 1.0 / self.resolution

    def points_per_symbol(self, kind: LatticeKind) -> int:
        n = self.resolution + 1
        return n if kind is LatticeKind.UNIT else n * (n + 1) // 2

    def enumeration_size(self, kind: LatticeKind, n_symbols: int) -> int:
        return self.points_per_symbol(kind) ** n_symbols

    def check_budget(self, size: int, what: str) -> None:
        if size > self.max_points:
            raise BudgetExceededError(
                f"{what} needs {size} grid points, over the budget of {self.max_points}"
            )


@dataclass(frozen=True)
class Cluster:
    """A group of nearby approximate stable models found on the grid."""

    representative: Interpretation
    members: tuple[Interpretation, ...]
    residual: float


# ---------------------------------------------------------------------------
# Vectorized evaluation over many grid interpretations at once.  A vector
# interpretation maps each symbol to a tuple of one (unit) or two (interval
# endpoints) float arrays.
# ---------------------------------------------------------------------------

_Vec = dict[str, tuple]


def _veval(expr: BodyExpr, kind: LatticeKind, pos: _Vec, neg: _Vec) -> tuple:
    def leaf(node: BodyExpr) -> tuple:
        if isinstance(node, Prop):
            return pos[node.name]
        if isinstance(node, NegProp):
            if kind is LatticeKind.UNIT:
                return (1.0 - neg[node.name][0],)
            lo, hi = neg[node.name]
            return (1.0 - hi, 1.0 - lo)
        v = node.value
        if isinstance(v, Unit):
            return (np.float64(v.value),)
        return (np.float64(v.lo), np.float64(v.hi))

    return _fold(expr, leaf, _vconn, _vagg)


def _vconn(node: Conn, a: tuple, b: tuple) -> tuple:
    if node.op == "&G":
        return (np.minimum(a[0], b[0]),)
    if node.op == "&P":
        return (a[0] * b[0],)
    if node.op == "&L":
        return (np.maximum(a[0] + b[0] - 1.0, 0.0),)
    if node.op == "*":
        return (a[0] * b[0], a[1] * b[1])
    raise ValueError(f"unknown connective {node.op!r}")


def _vagg(node: Agg, args: list) -> tuple:
    comps = list(zip(*args))  # the arguments' values, one tuple per component
    if node.name == "mean":
        return tuple(sum(c) / len(c) for c in comps)
    if node.name in ("min", "max"):
        return tuple(reduce(np.minimum if node.name == "min" else np.maximum, c) for c in comps)
    raise ValueError(f"unknown aggregator @{node.name}")


def _vec_conj(imp, weight: TruthValue, body: tuple) -> tuple:
    if isinstance(imp, EiParams):
        assert isinstance(weight, Interval)
        return (
            weight.lo**imp.alpha * body[0] ** imp.gamma,
            weight.hi**imp.beta * body[1] ** imp.delta,
        )
    assert isinstance(weight, Unit)
    w = weight.value
    if imp == "G":
        return (np.minimum(w, body[0]),)
    if imp == "P":
        return (w * body[0],)
    if imp == "L":
        return (np.maximum(w + body[0] - 1.0, 0.0),)
    raise ValueError(f"unknown implication label {imp!r}")


def _vec_tp(program: Program, pos: _Vec, neg: _Vec) -> _Vec:
    ncomp = 1 if program.kind is LatticeKind.UNIT else 2
    out: _Vec = {}
    for sym in program.symbols:
        rules = program.rules_by_head.get(sym, ())
        if not rules:
            out[sym] = tuple(np.float64(0.0) for _ in range(ncomp))
            continue
        acc = None
        for rule in rules:
            contrib = _vec_conj(rule.imp, rule.weight, _veval(rule.body, program.kind, pos, neg))
            acc = contrib if acc is None else tuple(
                np.maximum(a, c) for a, c in zip(acc, contrib)
            )
        out[sym] = acc
    return out


def _grid_axes(kind: LatticeKind, resolution: int) -> tuple[np.ndarray, ...]:
    g = np.arange(resolution + 1) / resolution
    if kind is LatticeKind.UNIT:
        return (g,)
    los, his = [], []
    for i in range(resolution + 1):
        for j in range(i, resolution + 1):
            los.append(g[i])
            his.append(g[j])
    return (np.asarray(los), np.asarray(his))


#: Grid points per enumeration chunk: a chunk's per-rule temporaries stay
#: cache-sized, and numpy's per-call overhead is still spread over many points.
_CHUNK = 1 << 14


def _find_malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none (it is a
    glibc function; musl, macOS and Windows lack it)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


#: Chunk buffers are below glibc's mmap threshold, so they come from the
#: program break heap, and freed they stay mapped in the process.  Once any
#: long-lived object lands above them the heap cannot shrink either, and
#: whether one does depends on what else the process allocates.  Without a
#: trim, a run of oracle calls leaves a heap whose free pages later large
#: allocations anywhere in the process may or may not find already mapped,
#: which makes their cost differ from one run to the next.
_MALLOC_TRIM = _find_malloc_trim()


def _point_interpretation(program: Program, frozen: _Vec, index: int) -> Interpretation:
    values: dict[str, TruthValue] = {}
    for sym in program.symbols:
        comps = frozen[sym]
        if program.kind is LatticeKind.UNIT:
            values[sym] = Unit(float(comps[0][index]))
        else:
            values[sym] = Interval(float(comps[0][index]), float(comps[1][index]))
    return Interpretation(program.kind, values)


@dataclass
class _Chunk:
    """Grid points ``lo`` up to ``hi`` of the enumeration, with their Kleene
    iterate, the number of steps taken and the size of the last step."""

    lo: int
    hi: int
    cur: _Vec
    it: int = 0
    step: float = float("inf")

    def frozen(self, program: Program, axes: tuple[np.ndarray, ...]) -> _Vec:
        """The chunk's grid interpretations, as a vector batch."""
        k = len(axes[0])
        n = len(program.symbols)
        idx = np.arange(self.lo, self.hi)
        frozen: _Vec = {}
        for i, sym in enumerate(program.symbols):
            digit = (idx // k ** (n - 1 - i)) % k
            frozen[sym] = tuple(axis[digit] for axis in axes)
        return frozen

    def behind(self, target: int, cfg: FixpointConfig) -> bool:
        """Whether the chunk must step on to reach an iteration >= ``target``
        at which its step is within the tolerance (or the budget is spent)."""
        return self.it < cfg.max_iterations and (self.it < target or self.step > cfg.tolerance)

    def advance(self, program: Program, frozen: _Vec, target: int, cfg: FixpointConfig) -> None:
        while self.behind(target, cfg):
            nxt = _vec_tp(program, pos=self.cur, neg=frozen)
            step = 0.0
            for sym in program.symbols:
                for a, b in zip(self.cur[sym], nxt[sym]):
                    step = max(step, float(np.max(np.abs(a - b))))
            self.cur, self.it, self.step = nxt, self.it + 1, step

    def harvest(
        self, program: Program, frozen: _Vec, grid: GridSpec,
        candidates: list[Interpretation], residuals: list[float],
    ) -> None:
        dist = np.zeros(self.hi - self.lo)
        for sym in program.symbols:
            for c, f in zip(self.cur[sym], frozen[sym]):
                dist = np.maximum(dist, np.abs(c - f))
        indices = np.nonzero(dist <= grid.step + 1e-12)[0]
        candidates.extend(_point_interpretation(program, frozen, i) for i in indices)
        residuals.extend(float(dist[i]) for i in indices)


def brute_force_stable(
    program: Program, grid: GridSpec, cfg: FixpointConfig = DEFAULT_CONFIG
) -> list[Cluster]:
    """Approximate stable models by exhaustive grid search.

    A grid interpretation qualifies when the least fixpoint of its reduct
    (negated atoms frozen at the grid values, iteration from bottom) lands
    within one grid step of it.  Qualifying points are merged into clusters
    by single linkage within two grid steps.

    The grid is enumerated in chunks of ``_CHUNK`` points, so memory is
    O(chunk) plus the iterate of each chunk whose Kleene loop reaches only
    the tolerance rather than an exact fixpoint.  The result equals that of
    one loop over the whole grid stopped at the first iteration where every
    point's step is within the tolerance: a chunk at an exact fixpoint stays
    there, and the other chunks are stepped on to that common iteration.
    Once the chunks are freed, their heap pages go back to the operating
    system (see ``_MALLOC_TRIM``), so a call leaves the heap as it found it.
    """
    n = len(program.symbols)
    total = grid.enumeration_size(program.kind, n)
    grid.check_budget(total, "stable-model enumeration")
    if n == 0:
        empty = Interpretation(program.kind, {})
        return [Cluster(empty, (empty,), 0.0)]

    candidates, residuals = _grid_candidates(program, grid, cfg, total)
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return _cluster(candidates, residuals, radius=2.0 * grid.step + 1e-12)


def _grid_candidates(
    program: Program, grid: GridSpec, cfg: FixpointConfig, total: int
) -> tuple[list[Interpretation], list[float]]:
    """The qualifying grid points and their distances, chunk by chunk."""
    axes = _grid_axes(program.kind, grid.resolution)
    zero = tuple(np.float64(0.0) for _ in axes)
    candidates: list[Interpretation] = []
    residuals: list[float] = []
    pending: list[_Chunk] = []
    stop = 0  # no chunk's step is within the tolerance before its own stop
    for lo in range(0, total, _CHUNK):
        chunk = _Chunk(lo, min(lo + _CHUNK, total), {sym: zero for sym in program.symbols})
        frozen = chunk.frozen(program, axes)
        chunk.advance(program, frozen, 0, cfg)
        stop = max(stop, chunk.it)
        if chunk.step == 0.0:  # an exact fixpoint: later steps move at most a zero's sign
            chunk.harvest(program, frozen, grid, candidates, residuals)
        else:
            pending.append(chunk)
    # step the pending chunks on to the first iteration >= stop at which all
    # of them are within the tolerance, or to the budget
    while any(chunk.behind(stop, cfg) for chunk in pending):
        for chunk in pending:
            if chunk.behind(stop, cfg):
                chunk.advance(program, chunk.frozen(program, axes), stop, cfg)
                stop = max(stop, chunk.it)
    for chunk in pending:
        chunk.harvest(program, chunk.frozen(program, axes), grid, candidates, residuals)
    return candidates, residuals


def _cluster(
    candidates: list[Interpretation], residuals: list[float], radius: float
) -> list[Cluster]:
    """Single-linkage clusters: the components of the graph joining two
    candidates whose sup-norm distance is at most ``radius``.  Candidates
    are sorted on their first coordinate, and each is compared only with
    those within ``radius`` of it there, a superset of its neighbours."""
    n = len(candidates)
    if n == 0:
        return []
    symbols = sorted(candidates[0].symbols)
    rows = [[to_raw(c[s]) for s in symbols] or [0.0] for c in candidates]  # no symbols: all at one point
    order = sorted(range(n), key=lambda i: rows[i][0])  # an interval sorts on its lower end first
    points = np.array([rows[i] for i in order], dtype=float).reshape(n, -1)
    first = points[:, 0].tolist()
    reach = radius + 1e-9  # widened past rounding: the window only has to hold every neighbour
    lo_at = [bisect_left(first, x - reach) for x in first]
    hi_at = [bisect_right(first, x + reach) for x in first]
    component = [-1] * n  # by sorted position; -1 until reached
    for root in range(n):
        if component[root] >= 0:
            continue
        component[root] = root
        stack = [root]
        while stack:  # each candidate is pushed once, when first reached
            i = stack.pop()
            lo = lo_at[i]
            near = (np.abs(points[lo : hi_at[i]] - points[i]).max(axis=1) <= radius).tolist()
            for j, close in enumerate(near, lo):
                if close and component[j] < 0:
                    component[j] = root
                    stack.append(j)
    component_of = dict(zip(order, component))

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(component_of[i], []).append(i)

    clusters = []
    for members in groups.values():
        members.sort(key=lambda i: (residuals[i], _canonical_key(candidates[i])))
        rep = members[0]
        ordered = sorted(members, key=lambda i: _canonical_key(candidates[i]))
        clusters.append(
            Cluster(
                representative=candidates[rep],
                members=tuple(candidates[i] for i in ordered),
                residual=residuals[rep],
            )
        )
    clusters.sort(key=lambda c: _canonical_key(c.representative))
    return clusters


def brute_force_residuum(
    p: EiParams, z: Interval, y: Interval, grid: GridSpec
) -> Interval:
    """Greatest grid interval x with ei_product(p, x, y) <= z, found by
    enumerating every grid pair rather than inverting the product."""
    n = grid.resolution + 1
    grid.check_budget(n * n, "residuum enumeration")
    g = np.arange(n) / grid.resolution
    lo_ok = g**p.alpha * y.lo**p.gamma <= z.lo
    hi_ok = g**p.beta * y.hi**p.delta <= z.hi
    pairs = lo_ok[:, None] & hi_ok[None, :] & (g[:, None] <= g[None, :])
    # [0,0] is always feasible, so both maxima exist
    best_lo = float(g[np.nonzero(pairs.any(axis=1))[0].max()])
    best_hi = float(g[np.nonzero(pairs.any(axis=0))[0].max()])
    return Interval(best_lo, best_hi)


def _values_below(value: TruthValue, grid: GridSpec) -> list[TruthValue]:
    n = grid.resolution
    if isinstance(value, Unit):
        top_i = int(np.floor(value.value * n + 1e-9))
        return [Unit(i / n) for i in range(top_i + 1)]
    top_lo = int(np.floor(value.lo * n + 1e-9))
    top_hi = int(np.floor(value.hi * n + 1e-9))
    return [
        Interval(i / n, j / n)
        for i in range(top_lo + 1)
        for j in range(i, top_hi + 1)
    ]


def minimality_check(program: Program, m: Interpretation, grid: GridSpec) -> bool:
    """True when no grid interpretation strictly below ``m`` (by more than
    one grid step) is a model of the program."""
    if not is_model(program, m):
        raise ValueError("minimality_check needs a model of the program")
    per_symbol = [_values_below(m[sym], grid) for sym in program.symbols]
    size = 1
    for vals in per_symbol:
        size *= len(vals)
    grid.check_budget(size, "minimality scan")
    for combo in itertools.product(*per_symbol):
        j = Interpretation(program.kind, dict(zip(program.symbols, combo)))
        if sup_norm(j, m) <= grid.step:
            continue
        if is_model(program, j):
            return False
    return True
