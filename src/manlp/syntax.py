"""Rule DSL: abstract syntax, parser, renderer and compiled form.

One rule per line::

    rule := atom "<-" tag body ";" weight
    tag  := "G" | "P" | "L" | "ei(" n "," n "," n "," n ")"    # order alpha,beta,gamma,delta
    body := term { op term }                                   # left-associative, one precedence level
    op   := "&G" | "&P" | "&L" | "*"
    term := atom | "not" atom | const | "(" body ")" | "@" name "(" body { "," body } ")"
    const:= decimal | "[" decimal "," decimal "]"

`#` starts a comment, blank lines are skipped.  Facts are rules whose body is
the top constant, e.g. ``q <-P 1 ; 0.6``.  Default negation applies to atoms
only.  The unit connectives (&G, &P, &L and the G/P/L tags) and the interval
ones (* and ei tags) cannot be mixed in one program.

A program compiles once (``Program.compiled``) into a numpy schedule: its
bodies as node groups over a register file (``Bodies``), and its rule tags
and heads (``Schedule``), which the engine runs on many interpretations at
once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .lattice import (
    AGGREGATORS,
    CONNECTIVES,
    UNIT_RESIDUA,
    EiParams,
    ImpLabel,
    Interval,
    LatticeKind,
    Raw,
    TruthValue,
    Unit,
    UnknownOperatorError,
    _ei_scaled,
    _powers,
    adjoint_pair,
    kernel,
    to_raw,
)

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"not"}


class ParseError(ValueError):
    """Syntax or validation error with the offending source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class NegProp:
    name: str


@dataclass(frozen=True)
class Const:
    value: TruthValue


@dataclass(frozen=True)
class Conn:
    op: str
    left: "BodyExpr"
    right: "BodyExpr"


@dataclass(frozen=True)
class Agg:
    name: str
    args: tuple["BodyExpr", ...]


BodyExpr = Union[Prop, NegProp, Const, Conn, Agg]


@dataclass(frozen=True)
class Rule:
    head: str
    imp: ImpLabel
    body: BodyExpr
    weight: TruthValue


@dataclass(frozen=True)
class Program:
    kind: LatticeKind
    rules: tuple[Rule, ...]
    symbols: tuple[str, ...]

    @classmethod
    def of(
        cls,
        kind: LatticeKind,
        rules: Iterable[Rule],
        extra_symbols: Iterable[str] = (),
    ) -> "Program":
        """Build a validated program; symbols are the atoms occurring in the
        rules plus any ``extra_symbols`` (used to keep a subprogram over the
        full symbol set of its parent)."""
        rules = tuple(rules)
        names: set[str] = set(extra_symbols)
        for rule in rules:
            names.update(_validate_rule(kind, rule))
            names.add(rule.head)
        for name in names:
            if not _ATOM_RE.match(name) or name in _RESERVED:
                raise ValueError(f"invalid atom name {name!r}")
        return cls(kind=kind, rules=rules, symbols=tuple(sorted(names)))

    @cached_property
    def rules_by_head(self) -> dict[str, tuple[Rule, ...]]:
        by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            by_head.setdefault(rule.head, []).append(rule)
        return {h: tuple(rs) for h, rs in by_head.items()}

    @cached_property
    def compiled(self) -> "Schedule":
        return compile_program(self)

    def is_positive(self) -> bool:
        return not any(
            isinstance(node, NegProp) for rule in self.rules for node in walk(rule.body)
        )


# ---------------------------------------------------------------------------
# Compiled form.  Bodies evaluate over a register file, an array of raw
# values shaped (registers, endpoints, columns), one column per
# interpretation evaluated at once: the symbol values, their negations, the
# constants, then one register per connective or aggregator node.  The nodes
# run in groups of one depth (a leaf has depth 0, a node one more than its
# deepest operand) and one label and arity, each group as one call of its
# array kernel, so a group only reads registers written before it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Bodies:
    """Bodies compiled over ``n`` symbols: registers ``[0, n)`` hold the
    symbol values, ``[n, 2n)`` their negations, then come ``constants``
    (shaped (constants, endpoints, 1)) and from ``base`` one register per
    node.  Node ``i`` writes register ``base + i``; nodes are numbered group
    by group, and group ``g`` is ``groups[g]`` = (kernel, whether it is an
    aggregator, operand registers shaped (nodes, arity)) over the nodes
    ``starts[g]`` to ``starts[g + 1]``.  Body ``b`` has the nodes
    ``nodes[node_offsets[b]:node_offsets[b + 1]]`` and its value in register
    ``results[b]``.  The bodies that read register ``s``, one of the ``2n``
    symbol and negation registers, are
    ``readers[reader_offsets[s]:reader_offsets[s + 1]]``, in increasing
    order."""

    kind: LatticeKind
    n: int
    constants: np.ndarray
    base: int
    groups: tuple[tuple[Callable, bool, np.ndarray], ...]
    starts: np.ndarray
    nodes: np.ndarray
    node_offsets: np.ndarray
    results: np.ndarray
    readers: np.ndarray
    reader_offsets: np.ndarray


def _index(values) -> np.ndarray:
    return np.array(values, dtype=np.intp)


def _width(kind: LatticeKind) -> int:
    """The endpoints of a raw value: one for a unit value, two for an interval."""
    return 1 if kind is LatticeKind.UNIT else 2


def compile_bodies(kind: LatticeKind, symbols: Sequence[str], bodies: Iterable[BodyExpr]) -> Bodies:
    """Compile bodies over ``symbols``, which must cover their atoms."""
    n = len(symbols)
    pos = {sym: i for i, sym in enumerate(symbols)}
    constants: list[Raw] = []
    labels: dict[tuple[str, int], int] = {}  # (label, arity) -> its order of appearance
    depth, label_of, operands = [], [], []  # per node; an operand is a register or -1 - node
    results, node_offsets, read_slots, read_bodies = [], [0], [], []
    for b, body in enumerate(bodies):
        out: list[tuple[int, int]] = []  # (operand, depth) of each finished subexpression
        for node in walk(body):
            t = type(node)
            if t is Prop or t is NegProp:
                s = pos[node.name] if t is Prop else n + pos[node.name]
                read_slots.append(s)
                read_bodies.append(b)
                out.append((s, 0))
                continue
            if t is Const:
                constants.append(to_raw(node.value))
                out.append((2 * n + len(constants) - 1, 0))
                continue
            if t is Conn:
                label, arity = node.op, 2
            elif t is Agg:
                label, arity = node.name, len(node.args)
            else:
                raise TypeError(f"not a body expression: {node!r}")
            args = out[len(out) - arity :]
            del out[len(out) - arity :]
            depth.append(1 + max(d for _, d in args))
            label_of.append(labels.setdefault((label, arity), len(labels)))
            operands.append([a for a, _ in args])
            out.append((-len(depth), depth[-1]))
        results.append(out[0][0])
        node_offsets.append(len(depth))
    base = 2 * n + len(constants)
    order = np.lexsort((label_of, depth)) if depth else _index([])  # stable: a group keeps walk order
    ids = np.empty(len(order), dtype=np.intp)
    ids[order] = np.arange(len(order))
    registers = np.concatenate((np.arange(base), base + ids))  # of operand o at o, or at base - 1 - o for a node

    def register(operand: np.ndarray) -> np.ndarray:
        return registers[np.where(operand < 0, base - 1 - operand, operand)]

    keys = np.asarray(depth) * len(labels) + np.asarray(label_of, dtype=np.intp)
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)) if depth else _index([])
    names = list(labels)
    groups = []
    for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [len(order)]):
        label, arity = names[label_of[order[lo]]]
        ops = register(_index([operands[i] for i in order[lo:hi].tolist()]).reshape(hi - lo, arity))
        groups.append((kernel(kind, label), label in AGGREGATORS, ops))
    read_slots, read_bodies = _index(read_slots), _index(read_bodies)
    by_slot = np.argsort(read_slots, kind="stable")
    return Bodies(
        kind,
        n,
        np.array(constants, dtype=float).reshape(len(constants), _width(kind), 1),
        base,
        tuple(groups),
        np.append(starts, len(order)),
        ids,
        _index(node_offsets),
        register(_index(results)),
        read_bodies[by_slot],
        np.concatenate(([0], np.cumsum(np.bincount(read_slots, minlength=2 * n)))),
    )


@dataclass(frozen=True, eq=False)
class Schedule:
    """A program compiled once for its consequence operator: its rule bodies
    over ``Program.symbols`` (``bodies``, rule ``r`` being body ``r``), and
    the rule layer.  ``rules`` groups the rules by how their tag applies, as
    (conjunctor, rule indices, their body registers, their ``weights``);
    ``tag_of[r]`` is rule ``r``'s group.  A contribution is
    ``conjunctor(weights, body values)``.  A unit tag's conjunctor is its
    kernel, and ``weights`` holds the raw rule weights; the rules of ei tags
    are grouped by (gamma, delta), and ``weights`` holds each weight's
    (lo^alpha, hi^beta).  ``head_of[r]`` is the symbol rule ``r`` heads; the
    rules of symbol ``i`` are ``by_head[head_offsets[i]:head_offsets[i +
    1]]``, in program order."""

    kind: LatticeKind
    bodies: Bodies
    rules: tuple[tuple[Callable, np.ndarray, np.ndarray, np.ndarray], ...]
    weights: np.ndarray
    tag_of: np.ndarray
    head_of: np.ndarray
    by_head: np.ndarray
    head_offsets: np.ndarray

    def fold(self, heads: np.ndarray) -> tuple:
        """How the supremum over the rules of each of ``heads`` folds: the
        positions of the heads that have rules with their first rules, then
        for each later rule j the positions of the heads with more than j
        rules with their j-th rules."""
        first = self.head_offsets[heads]
        count = self.head_offsets[heads + 1] - first
        ruled = count.nonzero()[0]
        folds = []
        for j in range(1, count.max(initial=0)):
            more = (count > j).nonzero()[0]
            folds.append((more, self.by_head[first[more] + j]))
        return ruled, self.by_head[first[ruled]], folds

    @cached_property
    def every_head(self) -> tuple:
        """The ``fold`` of every symbol."""
        return self.fold(np.arange(self.bodies.n))


def _groups(keys: Iterable) -> list[tuple[object, np.ndarray]]:
    """Each distinct key with the indices at which it occurs, in order of
    first occurrence."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [(key, _index(indices)) for key, indices in groups.items()]


def compile_program(program: Program) -> Schedule:
    """Compile every rule; ``Program.compiled`` keeps the result."""
    kind = program.kind
    rules = program.rules
    pos = {sym: i for i, sym in enumerate(program.symbols)}
    head_of = _index([pos[rule.head] for rule in rules])
    weights = np.array([to_raw(rule.weight) for rule in rules], dtype=float).reshape(len(rules), _width(kind), 1)
    if kind is LatticeKind.UNIT:
        groups = [(kernel(kind, label), members) for label, members in _groups(rule.imp for rule in rules)]
    else:
        for (alpha, beta), members in _groups((rule.imp.alpha, rule.imp.beta) for rule in rules):
            weights[members] = _powers(weights[members], alpha, beta)
        groups = [(partial(_ei_scaled, *e), members) for e, members in _groups((r.imp.gamma, r.imp.delta) for r in rules)]
    tag_of = np.empty(len(rules), dtype=np.intp)
    for g, (_, members) in enumerate(groups):
        tag_of[members] = g
    bodies = compile_bodies(kind, program.symbols, (rule.body for rule in rules))
    return Schedule(
        kind,
        bodies,
        tuple((f, members, bodies.results[members], weights[members]) for f, members in groups),
        weights,
        tag_of,
        head_of,
        np.argsort(head_of, kind="stable"),
        np.concatenate(([0], np.cumsum(np.bincount(head_of, minlength=len(pos))))).astype(np.intp),
    )


def walk(expr: BodyExpr):
    """Yield every node of a body expression, postorder: a node's operands
    before the node, leaves left to right.  It keeps its own stack, so a body
    of any depth walks."""
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if node is None:  # marks that the operands of the node under it are done
            yield stack.pop()
        elif isinstance(node, Conn):
            stack += (node, None, node.right, node.left)
        elif isinstance(node, Agg):
            stack += (node, None)
            stack += reversed(node.args)
        else:
            yield node


def _fold(expr: BodyExpr, leaf, conn, agg):
    """Combine a body bottom-up, without recursion: ``leaf(node)`` for an
    atom, negated atom or constant, ``conn(node, left, right)`` and
    ``agg(node, args)`` from the results of a node's operands."""
    if isinstance(expr, (Prop, NegProp, Const)):  # most bodies are one leaf
        return leaf(expr)
    out: list = []
    for node in walk(expr):
        if isinstance(node, (Prop, NegProp, Const)):
            out.append(leaf(node))
        elif isinstance(node, Conn):
            out[-2:] = [conn(node, out[-2], out[-1])]
        elif isinstance(node, Agg):
            n = len(out) - len(node.args)
            out[n:] = [agg(node, out[n:])]
        else:
            raise TypeError(f"not a body expression: {node!r}")
    return out[0]


def body_atoms(expr: BodyExpr) -> list[tuple[str, bool]]:
    """All (atom, negated) occurrences in a body, in source order."""
    return [(node.name, isinstance(node, NegProp)) for node in walk(expr) if isinstance(node, (Prop, NegProp))]


def _validate_rule(kind: LatticeKind, rule: Rule) -> set[str]:
    """Check a rule against the lattice in one walk of its body; return the
    atoms of the body."""
    adjoint_pair(kind, rule.imp)  # raises on a label foreign to this lattice
    if rule.weight.kind is not kind:
        raise ValueError(f"rule weight {rule.weight!r} does not belong to the {kind.value} lattice")
    atoms: set[str] = set()
    for node in walk(rule.body):
        if isinstance(node, (Prop, NegProp)):
            if node.name in atoms:
                raise ValueError(f"atom {node.name!r} occurs twice in one body")
            atoms.add(node.name)
        elif isinstance(node, Const) and node.value.kind is not kind:
            raise ValueError(f"constant {node.value!r} does not belong to the {kind.value} lattice")
        elif isinstance(node, Conn):
            if node.op not in CONNECTIVES[kind]:
                raise UnknownOperatorError(f"no body connective {node.op!r} in the {kind.value} lattice")
        elif isinstance(node, Agg):
            if node.name not in AGGREGATORS:
                raise UnknownOperatorError(f"unknown aggregator @{node.name}")
            if not node.args:
                raise ValueError(f"aggregator @{node.name} needs at least one argument")
    return atoms


# ---------------------------------------------------------------------------
# Tokenizer and parser.  One anchored match checks a line, one findall splits
# it into token texts, and the parser walks those by index with an explicit
# stack.  Token columns are computed for an error only.
# ---------------------------------------------------------------------------

_CONNECTIVE_KIND = {op: kind for kind, ops in CONNECTIVES.items() for op in ops}
# ASCII only: any other character, a non-ASCII letter or digit included, is
# an error.  Numbers come before identifiers, so "1e" is "1" then "e".
_TOKEN = (
    r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*"
    r"|<-|" + "|".join(map(re.escape, _CONNECTIVE_KIND)) + r"|[()\[\],;@]"
)
_TOKEN_RE = re.compile(_TOKEN)
# the longest prefix of a line made of tokens separated by space, tab or CR
# (no other separator); the line's end, a '#' comment or a bad character follows
_LINE_RE = re.compile(r"(?:[ \t\r]*(?:" + _TOKEN + r"))*[ \t\r]*")


class _Fail(Exception):
    """A grammar error: its message and the index of the offending token."""


def _expected(what: str, toks: Sequence[str], i: int, offset: int = 0) -> _Fail:
    return _Fail(f"expected {what}, found {toks[i] or 'end of line'!r}", offset + i)


def _constant(toks: list[str], i: int, unit: bool) -> tuple[TruthValue, int]:
    """The constant at token ``i`` and the index after it."""
    t = toks[i]
    if t[:1].isdigit():
        if not unit:
            raise _Fail("scalar constant in an interval program (use [lo,hi])", i)
        value = float(t)
        if value > 1.0:
            raise _Fail(f"value {t} outside the unit lattice", i)
        return Unit(value), i + 1
    if t == "[":
        if unit:
            raise _Fail("interval constant in a unit program", i)
        for j, want in enumerate((None, ",", None, "]"), i + 1):  # None: a decimal
            if not (toks[j][:1].isdigit() if want is None else toks[j] == want):
                raise _expected("a decimal" if want is None else f"'{want}'", toks, j)
        lo, hi = float(toks[i + 1]), float(toks[i + 3])
        if lo > hi or hi > 1.0:
            raise _Fail(f"[{toks[i + 1]},{toks[i + 3]}] is not a subinterval of [0,1]", i)
        return Interval(lo, hi), i + 5
    raise _expected("a constant", toks, i)


@lru_cache(maxsize=256)  # a program repeats few distinct ei tags
def _ei_params(toks: tuple[str, ...]) -> EiParams:
    """The exponents of an ei tag from its tokens after 'ei', which is token 2 of its rule."""
    nums = []
    for i in (0, 2, 4, 6):
        if toks[i] != ("(" if i == 0 else ","):
            raise _expected("'(' after 'ei'" if i == 0 else "','", toks, i, 3)
        t = toks[i + 1]
        if not t.isdigit():
            raise _expected("a natural number", toks, i + 1, 3)
        try:
            nums.append(int(t))
        except ValueError:  # more digits than the interpreter converts
            raise _Fail(f"natural number of {len(t)} digits is too long", i + 4) from None
    if toks[8] != ")":
        raise _expected("')'", toks, 8, 3)
    try:
        return EiParams(*nums)
    except ValueError as exc:
        raise _Fail(str(exc), 2) from None


def _parse_body(toks: list[str], i: int, kind: LatticeKind) -> tuple[BodyExpr, int, set[str]]:
    """The body at token ``i``, the index after it and the body's atoms.
    ``left op`` is what the innermost open level has read so far; each "(" or
    "@name(" pushes the enclosing level's (left, op, aggregator name or None,
    arguments so far)."""
    unit = kind is LatticeKind.UNIT
    seen: set[str] = set()
    stack: list = []
    left = op = None
    while True:  # a term starts at token i
        t = toks[i]
        if t == "(" or t == "@":
            name = None
            if t == "@":
                name = toks[i + 1]
                if not name.isidentifier():
                    raise _expected("an aggregator name", toks, i + 1)
                if name not in AGGREGATORS:
                    raise _Fail(f"unknown aggregator @{name}", i + 1)
                i += 2
                if toks[i] != "(":
                    raise _expected("'(' after the aggregator name", toks, i)
            stack.append((left, op, name, []))
            left = op = None
            i += 1
            continue
        if t == "[" or t[:1].isdigit():
            value, i = _constant(toks, i, unit)
            term = Const(value)
        else:
            negated = t == "not"
            i += negated
            t = toks[i]
            if not t.isidentifier():
                raise _expected("an atom" if negated else "a body term", toks, i)
            if t in _RESERVED:
                raise _Fail(f"{t!r} is a reserved word", i)
            if t in seen:
                raise _Fail(f"atom {t!r} occurs twice in the body", i)
            seen.add(t)
            term = NegProp(t) if negated else Prop(t)
            i += 1
        while True:  # after a term: an operator, or the end of groups or of the body
            left = term if op is None else Conn(op, left, term)
            t = toks[i]
            op_kind = _CONNECTIVE_KIND.get(t)
            if op_kind is not None:
                if op_kind is not kind:
                    raise _Fail(f"{op_kind.value} connective '{t}' in {'a unit' if unit else 'an interval'} program", i)
                op = t
                i += 1
                break
            if not stack:
                return left, i, seen
            outer, op, name, args = stack.pop()
            if name is not None:
                args.append(left)
                if t == ",":
                    stack.append((outer, op, name, args))
                    left = op = None
                    i += 1
                    break
            if t != ")":
                raise _expected("')'", toks, i)
            term = left if name is None else Agg(name, tuple(args))
            left = outer
            i += 1


def _parse_rule(toks: list[str], kind: LatticeKind, names: set[str]) -> Rule:
    """Parse a rule from its token texts, the last an empty string for the
    line's end; add its head and body atoms to ``names``."""
    unit = kind is LatticeKind.UNIT
    head = toks[0]
    if not head.isidentifier():
        raise _expected("an atom", toks, 0)
    if head in _RESERVED:
        raise _Fail(f"{head!r} is a reserved word", 0)
    if toks[1] != "<-":
        raise _expected("'<-'", toks, 1)
    tag = toks[2]
    if tag == "ei":
        if unit:
            raise _Fail("interval implication 'ei' in a unit program", 2)
        imp, i = _ei_params(tuple(toks[3:12])), 12
    elif tag in UNIT_RESIDUA:
        if not unit:
            raise _Fail(f"unit implication '{tag}' in an interval program", 2)
        imp, i = tag, 3
    elif tag.isidentifier():
        raise _Fail(f"unknown implication tag {tag!r}", 2)
    else:
        raise _expected("an implication tag (G, P, L or ei(...))", toks, 2)
    body, i, atoms = _parse_body(toks, i, kind)
    if toks[i] != ";":
        raise _expected("';' before the rule weight", toks, i)
    weight, i = _constant(toks, i + 1, unit)
    if toks[i]:
        raise _Fail(f"unexpected trailing input {toks[i]!r}", i)
    names |= atoms
    names.add(head)
    return Rule(head, imp, body, weight)


def parse_program(text: str, kind: LatticeKind) -> Program:
    """Parse a program over the given lattice; errors carry line and column.
    The parser checks everything ``Program.of`` would, so it builds the
    program itself."""
    rules = []
    names: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        end = _LINE_RE.match(line).end()
        if end < len(line) and line[end] != "#":  # reported before any grammar error on the line
            bad = line[end]
            message = f"unknown connective '{line[end:end + 2]}'" if bad == "&" else f"unexpected character {bad!r}"
            raise ParseError(message, lineno, end + 1)
        toks = _TOKEN_RE.findall(line, 0, end)
        if not toks:
            continue
        toks.append("")
        try:
            rules.append(_parse_rule(toks, kind, names))
        except _Fail as exc:
            message, i = exc.args
            # the i-th token's column, or the column after the line's end
            col = len(line) + 1 if i == len(toks) - 1 else next(islice(_TOKEN_RE.finditer(line), i, None)).start() + 1
            raise ParseError(message, lineno, col) from None
    return Program(kind, tuple(rules), tuple(sorted(names)))


def detect_kind(text: str) -> LatticeKind:
    """The lattice of the first rule's implication tag: interval for an ei
    tag, else unit (also for a text without rules)."""
    lines = (_TOKEN_RE.findall(line, 0, _LINE_RE.match(line).end()) for line in text.splitlines())
    toks = next(filter(None, lines), [])
    return LatticeKind.INTERVAL if toks[2:3] == ["ei"] else LatticeKind.UNIT


def load_program(text: str) -> Program:
    return parse_program(text, detect_kind(text))


# ---------------------------------------------------------------------------
# Renderer.  parse_program(render_program(p)) is structurally equal to p.
# ---------------------------------------------------------------------------


def render_value(v: TruthValue) -> str:
    if isinstance(v, Unit):
        return repr(v.value)
    return f"[{v.lo!r},{v.hi!r}]"


def render_imp(label: ImpLabel) -> str:
    if isinstance(label, EiParams):
        return f"ei({label.alpha},{label.beta},{label.gamma},{label.delta})"
    return label


def _render_leaf(node: Union[Prop, NegProp, Const]) -> str:
    if isinstance(node, Prop):
        return node.name
    if isinstance(node, NegProp):
        return f"not {node.name}"
    return render_value(node.value)


def _render_conn(node: Conn, left: str, right: str) -> str:
    # connectives are left-associative: only a right-nested chain needs parens
    return f"{left} {node.op} ({right})" if isinstance(node.right, Conn) else f"{left} {node.op} {right}"


def render_body(expr: BodyExpr) -> str:
    return _fold(expr, _render_leaf, _render_conn, lambda node, args: f"@{node.name}(" + ", ".join(args) + ")")


def render_rule(rule: Rule) -> str:
    return f"{rule.head} <-{render_imp(rule.imp)} {render_body(rule.body)} ; {render_value(rule.weight)}"


def render_program(program: Program) -> str:
    if not program.rules:
        return ""
    return "\n".join(render_rule(r) for r in program.rules) + "\n"
