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
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

from .lattice import (
    AGGREGATORS,
    BODY_OPS,
    UNIT_PAIRS,
    EiParams,
    ImpLabel,
    Interval,
    LatticeKind,
    Raw,
    TruthValue,
    Unit,
    UnknownOperatorError,
    adjoint_pair,
    body_op,
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
    return code, _emit(kind, body, slot, code)


def _emit(kind: LatticeKind, expr: BodyExpr, slot, code: list) -> Optional[int]:
    # a module-level function, not a closure that calls itself: such a
    # closure is a reference cycle that every compiled body would leave behind
    if isinstance(expr, (Prop, NegProp, Const)):
        return slot(expr)
    if isinstance(expr, Conn):
        left = _emit(kind, expr.left, slot, code)
        code.append((kernel(kind, expr.op), left, _emit(kind, expr.right, slot, code)))
    elif isinstance(expr, Agg):
        operands = tuple(_emit(kind, arg, slot, code) for arg in expr.args)
        code.append((AGGREGATE, kernel(kind, expr.name), operands))
    else:
        raise TypeError(f"not a body expression: {expr!r}")
    return None


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
    """Yield every node of a body expression, preorder."""
    yield expr
    if isinstance(expr, Conn):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, Agg):
        for arg in expr.args:
            yield from walk(arg)


def body_atoms(expr: BodyExpr) -> list[tuple[str, bool]]:
    """All (atom, negated) occurrences in a body, in source order."""
    out = []
    for node in walk(expr):
        if isinstance(node, Prop):
            out.append((node.name, False))
        elif isinstance(node, NegProp):
            out.append((node.name, True))
    return out


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
            body_op(kind, node.op)
        elif isinstance(node, Agg):
            if node.name not in AGGREGATORS:
                raise UnknownOperatorError(f"unknown aggregator @{node.name}")
            if not node.args:
                raise ValueError(f"aggregator @{node.name} needs at least one argument")
    return atoms


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # 'ident', 'number', or the literal symbol; 'end' at line end
    text: str
    line: int
    col: int


# ASCII only: any other character, a non-ASCII letter or digit included, is
# an error.  A '&' that does not start a connective is matched by `bad`.
_TOKEN_RE = re.compile(
    r"[ \t\r]+|(?P<comment>#)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol><-|" + "|".join(re.escape("&" + tag) for tag in UNIT_PAIRS) + r"|[*()\[\],;@])"
    r"|(?P<bad>&?.)",
    re.DOTALL,
)


def _tokenize_line(text: str, lineno: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() + 1
        if kind == "comment":
            break
        if kind == "bad":
            if word[0] == "&":
                raise ParseError(f"unknown connective '{word}'", lineno, col)
            raise ParseError(f"unexpected character {word!r}", lineno, col)
        if kind is not None:  # None: whitespace
            tokens.append(_Token(word if kind == "symbol" else kind, word, lineno, col))
    tokens.append(_Token("end", "", lineno, len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _RuleParser:
    def __init__(self, tokens: list[_Token], kind: LatticeKind):
        self.tokens = tokens
        self.pos = 0
        self.kind = kind
        self.seen_atoms: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of line"
            raise self.error(f"expected {what}, found {shown!r}")
        return self.advance()

    def atom_name(self) -> _Token:
        tok = self.expect("ident", "an atom")
        if tok.text in _RESERVED:
            raise self.error(f"{tok.text!r} is a reserved word", tok)
        return tok

    def parse_rule(self) -> Rule:
        head = self.atom_name()
        self.expect("<-", "'<-'")
        imp = self.parse_tag()
        body = self.parse_body()
        self.expect(";", "';' before the rule weight")
        weight = self.parse_const()
        end = self.peek()
        if end.kind != "end":
            raise self.error(f"unexpected trailing input {end.text!r}")
        return Rule(head=head.text, imp=imp, body=body, weight=weight)

    def parse_tag(self) -> ImpLabel:
        tok = self.expect("ident", "an implication tag (G, P, L or ei(...))")
        if tok.text in UNIT_PAIRS:
            if self.kind is not LatticeKind.UNIT:
                raise self.error(f"unit implication '{tok.text}' in an interval program", tok)
            return tok.text
        if tok.text == "ei":
            if self.kind is not LatticeKind.INTERVAL:
                raise self.error("interval implication 'ei' in a unit program", tok)
            self.expect("(", "'(' after 'ei'")
            nums = [self.parse_nat()]
            for _ in range(3):
                self.expect(",", "','")
                nums.append(self.parse_nat())
            self.expect(")", "')'")
            try:
                return EiParams(*nums)
            except ValueError as exc:
                raise self.error(str(exc), tok) from None
        raise self.error(f"unknown implication tag {tok.text!r}", tok)

    def parse_nat(self) -> int:
        tok = self.expect("number", "a natural number")
        if not tok.text.isdigit():
            raise self.error(f"expected a natural number, found {tok.text!r}", tok)
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"natural number of {len(tok.text)} digits is too long", tok) from None

    def parse_body(self) -> BodyExpr:
        expr = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind in BODY_OPS[LatticeKind.UNIT] or tok.kind == "*":
                self.advance()
                if tok.kind in BODY_OPS[LatticeKind.UNIT] and self.kind is not LatticeKind.UNIT:
                    raise self.error(f"unit connective '{tok.kind}' in an interval program", tok)
                if tok.kind == "*" and self.kind is not LatticeKind.INTERVAL:
                    raise self.error("interval connective '*' in a unit program", tok)
                right = self.parse_term()
                expr = Conn(op=tok.kind, left=expr, right=right)
            else:
                return expr

    def parse_term(self) -> BodyExpr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            self.advance()
            atom = self.atom_name()
            self.note_atom(atom)
            return NegProp(atom.text)
        if tok.kind == "ident":
            self.advance()
            self.note_atom(tok)
            return Prop(tok.text)
        if tok.kind in ("number", "["):
            return Const(self.parse_const())
        if tok.kind == "(":
            self.advance()
            inner = self.parse_body()
            self.expect(")", "')'")
            return inner
        if tok.kind == "@":
            self.advance()
            name = self.expect("ident", "an aggregator name")
            if name.text not in AGGREGATORS:
                raise self.error(f"unknown aggregator @{name.text}", name)
            self.expect("(", "'(' after the aggregator name")
            args = [self.parse_body()]
            while self.peek().kind == ",":
                self.advance()
                args.append(self.parse_body())
            self.expect(")", "')'")
            return Agg(name=name.text, args=tuple(args))
        shown = tok.text or "end of line"
        raise self.error(f"expected a body term, found {shown!r}")

    def note_atom(self, tok: _Token) -> None:
        if tok.text in self.seen_atoms:
            raise self.error(f"atom {tok.text!r} occurs twice in the body", tok)
        self.seen_atoms.add(tok.text)

    def parse_const(self) -> TruthValue:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            if self.kind is not LatticeKind.UNIT:
                raise self.error("scalar constant in an interval program (use [lo,hi])", tok)
            value = float(tok.text)
            if value > 1.0:
                raise self.error(f"value {tok.text} outside the unit lattice", tok)
            return Unit(value)
        if tok.kind == "[":
            self.advance()
            if self.kind is not LatticeKind.INTERVAL:
                raise self.error("interval constant in a unit program", tok)
            lo_tok = self.expect("number", "a decimal")
            self.expect(",", "','")
            hi_tok = self.expect("number", "a decimal")
            self.expect("]", "']'")
            lo, hi = float(lo_tok.text), float(hi_tok.text)
            if lo > hi or hi > 1.0:
                raise self.error(f"[{lo_tok.text},{hi_tok.text}] is not a subinterval of [0,1]", tok)
            return Interval(lo, hi)
        shown = tok.text or "end of line"
        raise self.error(f"expected a constant, found {shown!r}")


def parse_program(text: str, kind: LatticeKind) -> Program:
    """Parse a program over the given lattice; errors carry line and column."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, lineno)
        if tokens[0].kind == "end":
            continue
        rules.append(_RuleParser(tokens, kind).parse_rule())
    return Program.of(kind, rules)


def detect_kind(text: str) -> LatticeKind:
    """Infer the lattice from the first implication tag; empty input is unit."""
    m = re.search(r"<-\s*([A-Za-z_][A-Za-z0-9_]*)", text)
    if m and m.group(1) == "ei":
        return LatticeKind.INTERVAL
    return LatticeKind.UNIT


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


def render_body(expr: BodyExpr) -> str:
    if isinstance(expr, Prop):
        return expr.name
    if isinstance(expr, NegProp):
        return f"not {expr.name}"
    if isinstance(expr, Const):
        return render_value(expr.value)
    if isinstance(expr, Agg):
        return f"@{expr.name}(" + ", ".join(render_body(a) for a in expr.args) + ")"
    # connectives are left-associative: only a right-nested chain needs parens
    left = render_body(expr.left)
    right = render_body(expr.right)
    if isinstance(expr.right, Conn):
        right = f"({right})"
    return f"{left} {expr.op} {right}"


def render_rule(rule: Rule) -> str:
    return f"{rule.head} <-{render_imp(rule.imp)} {render_body(rule.body)} ; {render_value(rule.weight)}"


def render_program(program: Program) -> str:
    if not program.rules:
        return ""
    return "\n".join(render_rule(r) for r in program.rules) + "\n"
