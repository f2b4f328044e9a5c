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
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterable, Optional, Sequence, Union

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
    def compiled(self) -> "CompiledProgram":
        return compile_program(self)

    def is_positive(self) -> bool:
        return not any(
            isinstance(node, NegProp) for rule in self.rules for node in walk(rule.body)
        )


# ---------------------------------------------------------------------------
# Compiled form.  A body compiles to a list of instructions over an
# environment (a list of raw values, see ``lattice.Raw``) and a stack.
# ``(kernel, x, y)`` applies a binary kernel and ``(AGGREGATE, kernel,
# operands)`` an aggregator; each pushes its result.  An operand is an
# environment slot, or None for a subexpression's result, taken off the stack.
# ---------------------------------------------------------------------------

#: Marks an aggregator instruction.
AGGREGATE = object()


@dataclass(frozen=True)
class CompiledProgram:
    """A program's rules compiled over one environment: the values of the
    symbols in ``Program.symbols`` order, then their negations, then
    ``constants``.  ``rules`` holds every rule as (conjunctor kernel, raw
    weight, body instructions, body leaf slot), see ``_compile_body``,
    grouped by head in symbol order: the rules of symbol ``i`` are
    ``rules[offsets[i]:offsets[i + 1]]``, in program order, and
    ``head_of[r]`` is ``i`` for each of them.  The rules whose body reads
    slot ``s``, one of the ``2 * len(symbols)`` slots of symbol values and
    negations (constants never change), are
    ``readers[reader_offsets[s]:reader_offsets[s + 1]]``, in increasing
    order.  The index arrays hold machine integers: a 9000-rule program
    would need as many int objects again."""

    rules: tuple[tuple, ...]
    offsets: tuple[int, ...]
    head_of: array
    readers: array
    reader_offsets: array
    constants: tuple[Raw, ...]


def _compile_body(kind: LatticeKind, body: BodyExpr, slot) -> tuple[list, Optional[int]]:
    """The instructions of a body, and the slot of a body that is a single
    leaf (it has no instructions) or None.  ``slot`` maps each atom, negated
    atom or constant node to its environment slot."""
    code: list = []

    def conn(node: Conn, left: Optional[int], right: Optional[int]) -> None:
        code.append((kernel(kind, node.op), left, right))

    def agg(node: Agg, args: list) -> None:
        code.append((AGGREGATE, kernel(kind, node.name), tuple(args)))

    return code, _fold(body, slot, conn, agg)


def compile_program(program: Program) -> CompiledProgram:
    """Compile every rule; ``Program.compiled`` keeps the result."""
    kind = program.kind
    n = len(program.symbols)
    pos = {sym: i for i, sym in enumerate(program.symbols)}
    constants: list[Raw] = []
    rules: list[tuple] = []
    offsets = [0]
    head_of = array("l")
    slot_readers: list[list[int]] = [[] for _ in range(2 * n)]
    read: set[int] = set()  # the symbol slots the rule being compiled reads

    def slot(node: BodyExpr) -> int:
        if isinstance(node, Const):
            constants.append(to_raw(node.value))
            return 2 * n + len(constants) - 1
        s = pos[node.name] if isinstance(node, Prop) else n + pos[node.name]
        read.add(s)
        return s

    for h, sym in enumerate(program.symbols):
        for rule in program.rules_by_head.get(sym, ()):
            code, leaf = _compile_body(kind, rule.body, slot)
            for s in read:
                slot_readers[s].append(len(rules))  # this rule's index
            read.clear()
            rules.append((kernel(kind, rule.imp), to_raw(rule.weight), tuple(code), leaf))
            head_of.append(h)
        offsets.append(len(rules))
    readers, reader_offsets = array("l"), array("l", [0])
    for indices in slot_readers:
        readers.extend(indices)
        reader_offsets.append(len(readers))
    return CompiledProgram(tuple(rules), tuple(offsets), head_of, readers, reader_offsets, tuple(constants))


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
