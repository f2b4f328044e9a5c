import ast
import gc
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manlp import (
    Agg,
    Conn,
    Const,
    EiParams,
    Interval,
    LatticeKind,
    NegProp,
    ParseError,
    Program,
    Prop,
    Rule,
    Unit,
    UnknownOperatorError,
    body_atoms,
    detect_kind,
    load_program,
    parse_program,
    render_program,
)
from manlp import syntax
from conftest import PROGRAMS
from genprog import random_program

UNIT = LatticeKind.UNIT
INTERVAL = LatticeKind.INTERVAL


class TestParse:
    def test_unit_rule_structure(self):
        prog = parse_program("p <-P q &G not r ; 0.7", UNIT)
        (rule,) = prog.rules
        assert rule == Rule("p", "P", Conn("&G", Prop("q"), NegProp("r")), Unit(0.7))
        assert prog.symbols == ("p", "q", "r")

    def test_ei_rule_structure(self):
        prog = parse_program("s <-ei(2,1,3,2) p ; [0.4,0.5]", INTERVAL)
        (rule,) = prog.rules
        assert rule == Rule("s", EiParams(2, 1, 3, 2), Prop("p"), Interval(0.4, 0.5))

    def test_fact_with_constant_top_body(self):
        prog = parse_program("q <-P 1 ; 0.6", UNIT)
        assert prog.rules[0].body == Const(Unit(1.0))

    def test_comments_and_blank_lines(self):
        text = "# header\n\np <-G q ; 0.5   # trailing\n\n"
        prog = parse_program(text, UNIT)
        assert len(prog.rules) == 1

    def test_parentheses_and_aggregator(self):
        prog = parse_program("p <-G (q &G not r) &P @mean(s, t &L u) ; 0.5", UNIT)
        body = prog.rules[0].body
        assert isinstance(body, Conn) and body.op == "&P"
        assert isinstance(body.right, Agg) and body.right.name == "mean"

    def test_left_associative_chain(self):
        prog = parse_program("p <-G a &G b &P c ; 0.5", UNIT)
        body = prog.rules[0].body
        assert body == Conn("&P", Conn("&G", Prop("a"), Prop("b")), Prop("c"))

    def test_deeply_nested_parentheses(self):
        # open groups live on the parser's own stack, not on Python's
        depth = 3000
        prog = parse_program("p <-G " + "(" * depth + "q" + ")" * depth + " ; 0.5", UNIT)
        assert prog.rules[0].body == Prop("q")

    def test_interval_program(self):
        prog = parse_program("p <-ei(1,1,1,1) q * not r ; [0.2,0.3]", INTERVAL)
        assert prog.kind is INTERVAL
        assert prog.rules[0].body == Conn("*", Prop("q"), NegProp("r"))


class TestParseErrors:
    def assert_error(self, text, kind, line, col_min=1, fragment=""):
        with pytest.raises(ParseError) as exc:
            parse_program(text, kind)
        assert exc.value.line == line
        assert exc.value.col >= col_min
        assert fragment in str(exc.value)

    def test_dangling_connective(self):
        self.assert_error("p <-G not q &G ; 0.5", UNIT, line=1, fragment="body term")

    def test_duplicate_body_atom(self):
        self.assert_error("p <-G q &G not q ; 0.5", UNIT, line=1, fragment="twice")

    def test_bad_ei_exponents(self):
        self.assert_error("p <-ei(1,2,1,1) q ; [0.1,0.2]", INTERVAL, line=1, fragment="beta")
        self.assert_error("p <-ei(2,1,1,2) q ; [0.1,0.2]", INTERVAL, line=1, fragment="delta")

    def test_overlong_natural_number(self):
        # int() refuses more than 4300 digits; that is a parse error at the token
        self.assert_error(f"p <-ei({'1' * 5000},1,1,1) q ; [0.1,0.2]", INTERVAL, line=1, col_min=8, fragment="too long")

    def test_unit_connective_in_interval_program(self):
        self.assert_error("p <-ei(1,1,1,1) q &G r ; [0.1,0.2]", INTERVAL, line=1, fragment="unit connective")

    def test_star_in_unit_program(self):
        self.assert_error("p <-G q * r ; 0.5", UNIT, line=1, fragment="'*'")

    def test_unit_tag_in_interval_program(self):
        self.assert_error("p <-G q ; [0.1,0.2]", INTERVAL, line=1, fragment="unit implication")

    def test_ei_tag_in_unit_program(self):
        self.assert_error("p <-ei(1,1,1,1) q ; 0.5", UNIT, line=1, fragment="unit program")

    def test_weight_outside_lattice(self):
        self.assert_error("p <-G q ; 1.5", UNIT, line=1, fragment="outside")
        self.assert_error("p <-ei(1,1,1,1) q ; [0.5,0.2]", INTERVAL, line=1, fragment="subinterval")

    def test_wrong_constant_kind(self):
        self.assert_error("p <-ei(1,1,1,1) 0.5 ; [0.1,0.2]", INTERVAL, line=1, fragment="scalar constant")
        self.assert_error("p <-G [0.1,0.2] ; 0.5", UNIT, line=1, fragment="interval constant")

    def test_unknown_aggregator(self):
        self.assert_error("p <-G @median(q, r) ; 0.5", UNIT, line=1, fragment="aggregator")

    def test_reserved_word_atom(self):
        self.assert_error("not <-G q ; 0.5", UNIT, line=1, fragment="reserved")

    def test_error_position_on_later_line(self):
        text = "p <-G q ; 0.5\nr <-G & ; 0.2\n"
        with pytest.raises(ParseError) as exc:
            parse_program(text, UNIT)
        assert exc.value.line == 2

    def test_trailing_garbage(self):
        self.assert_error("p <-G q ; 0.5 0.7", UNIT, line=1, fragment="trailing")

    def test_negation_of_subexpression_rejected(self):
        self.assert_error("p <-G not (q &G r) ; 0.5", UNIT, line=1, fragment="atom")

    def test_non_ascii_characters(self):
        # a letter, a superscript digit and an Arabic-Indic zero: str.isalpha
        # and str.isdigit accept them, the rule language does not
        self.assert_error("p <-G \u00e9 ; 0.5", UNIT, line=1, fragment="1:7: unexpected character")
        self.assert_error("p <-G q ; \u00b2", UNIT, line=1, fragment="1:11: unexpected character")
        self.assert_error("p <-G q ; \u0660.5", UNIT, line=1, fragment="1:11: unexpected character")
        self.assert_error("p <-G q ; 0.5\nr\u00e9 <-G q ; 0.5", UNIT, line=2, fragment="2:2: unexpected character")


# Exact `str(ParseError)` of malformed programs, recorded with the
# NamedTuple tokenizer and recursive-descent parser that the string parser
# replaced: line, column and message must not change.
_ERROR_TEXTS = [
    ("p <-G q &X r ; 0.5", "1:9: unknown connective '&X'"),
    ("p <-G q &", "1:9: unknown connective '&'"),
    ("p <-G q &# c", "1:9: unknown connective '&#'"),
    ("p <-G\xa0q ; 0.5", "1:6: unexpected character '\\xa0'"),
    ("p <-G q ; 0.5\xa0", "1:14: unexpected character '\\xa0'"),
    # a bad character is reported before a grammar error earlier on its line
    ("p <-G q q ; 0.5 $", "1:17: unexpected character '$'"),
    ("p <-G ) ; 0.5 \u00e9", "1:15: unexpected character '\u00e9'"),
    # at the end of the line the column is its length + 1, comment included
    ("p <-G q ; ", "1:11: expected a constant, found 'end of line'"),
    ("p <-G q   # no weight", "1:22: expected ';' before the rule weight, found 'end of line'"),
    ("p <-ei(1,1,1,1) q ; [0.5,0.6", "1:29: expected ']', found 'end of line'"),
    (f"p <-ei({'1' * 5000},1,1,1) q ; [0.1,0.2]", "1:8: natural number of 5000 digits is too long"),
    ("p <-ei(1.5,1,1,1) q ; [0.1,0.2]", "1:8: expected a natural number, found '1.5'"),
    # an exponent constraint is reported at the tag
    ("p <-ei(1,2,1,1) q ; [0.1,0.2]", "1:5: ei exponents require beta <= alpha, got beta=2, alpha=1"),
    ("p <-ei(2,1,1,2) q ; [0.1,0.2]", "1:5: ei exponents require delta <= gamma, got delta=2, gamma=1"),
    ("p <-ei(0,1,1,1) q ; [0.1,0.2]", "1:5: ei exponent alpha must be a natural number >= 1, got 0"),
    ("p <-ei(1,1,1) q ; [0.1,0.2]", "1:13: expected ',', found ')'"),
    ("p <-ei 1,1,1,1) q ; [0.1,0.2]", "1:8: expected '(' after 'ei', found '1'"),
    ("p <-ei(1,1,1,1 q ; [0.1,0.2]", "1:16: expected ')', found 'q'"),
    ("p <-G q &G not q ; 0.5", "1:16: atom 'q' occurs twice in the body"),
    ("p <-G @max(q, not q) ; 0.5", "1:19: atom 'q' occurs twice in the body"),
    ("not <-G q ; 0.5", "1:1: 'not' is a reserved word"),
    ("p <-G not not ; 0.5", "1:11: 'not' is a reserved word"),
    ("p <-G not (q &G r) ; 0.5", "1:11: expected an atom, found '('"),
    ("p <-G q ; 0.5 0.7", "1:15: unexpected trailing input '0.7'"),
    ("p <-G q ; 0.5 ;", "1:15: unexpected trailing input ';'"),
    ("p <-G @median(q, r) ; 0.5", "1:8: unknown aggregator @median"),
    ("p <-G @mean q ; 0.5", "1:13: expected '(' after the aggregator name, found 'q'"),
    ("p <-G @mean(q r) ; 0.5", "1:15: expected ')', found 'r'"),
    ("p <-G @(q) ; 0.5", "1:8: expected an aggregator name, found '('"),
    ("p <-G (q &G r ; 0.5", "1:15: expected ')', found ';'"),
    ("p <-G q ) ; 0.5", "1:9: expected ';' before the rule weight, found ')'"),
    ("p <-G q &G ; 0.5", "1:12: expected a body term, found ';'"),
    ("p <-X q ; 0.5", "1:5: unknown implication tag 'X'"),
    ("p <- ; 0.5", "1:6: expected an implication tag (G, P, L or ei(...)), found ';'"),
    ("p q ; 0.5", "1:3: expected '<-', found 'q'"),
    ("1 <-G q ; 0.5", "1:1: expected an atom, found '1'"),
    ("p <-ei(1,1,1,1) 0.5 ; [0.1,0.2]", "1:17: scalar constant in an interval program (use [lo,hi])"),
    ("p <-ei(1,1,1,1) q ; 0.5", "1:21: scalar constant in an interval program (use [lo,hi])"),
    ("p <-G [0.1,0.2] ; 0.5", "1:7: interval constant in a unit program"),
    ("p <-G q ; [0.1,0.2]", "1:11: interval constant in a unit program"),
    ("p <-G q ; 1.5", "1:11: value 1.5 outside the unit lattice"),
    ("p <-G q ; 1e999", "1:11: value 1e999 outside the unit lattice"),
    ("p <-G 2 ; 0.5", "1:7: value 2 outside the unit lattice"),
    ("p <-ei(1,1,1,1) q ; [0.5,0.2]", "1:21: [0.5,0.2] is not a subinterval of [0,1]"),
    ("p <-ei(1,1,1,1) q ; [0.5,1.5]", "1:21: [0.5,1.5] is not a subinterval of [0,1]"),
    ("p <-ei(1,1,1,1) q ; [0.5 0.6]", "1:26: expected ',', found '0.6'"),
    ("p <-ei(1,1,1,1) q ; [a,0.6]", "1:22: expected a decimal, found 'a'"),
    ("p <-ei(1,1,1,1) q &G r ; [0.1,0.2]", "1:19: unit connective '&G' in an interval program"),
    ("p <-G q * r ; 0.5", "1:9: interval connective '*' in a unit program"),
    ("p <-ei(1,1,1,1) q ; [0.1,0.2]\nr <-G q ; 0.5", "2:5: unit implication 'G' in an interval program"),
    ("p <-G q ; 0.5\nr <-ei(1,1,1,1) q ; 0.5", "2:5: interval implication 'ei' in a unit program"),
    ("p <-G q ; 0.5\nr <-G & ; 0.2\n", "2:7: unknown connective '& '"),
    ("p <-G q ; 0.5 # ok\n\tr <-G q x", "2:10: expected ';' before the rule weight, found 'x'"),
]


@pytest.mark.parametrize("text, expected", _ERROR_TEXTS, ids=range(len(_ERROR_TEXTS)))
def test_exact_parse_error_text(text, expected):
    with pytest.raises(ParseError) as exc:
        load_program(text)
    assert str(exc.value) == expected
    assert (exc.value.line, exc.value.col) == tuple(map(int, expected.split(":")[:2]))


def test_parsing_leaves_no_garbage():
    # the parser keeps its open groups on an explicit stack and defines no
    # closures, so parsing leaves nothing for the cyclic collector
    lines = []
    for i in range(200):
        a, b, c, d, e = (f"s{(i + k) % 40}" for k in range(5))
        agg = ("min", "max", "mean")[i % 3]
        lines.append(f"{a} <-P ({b} &G not {c}) &L @{agg}({d}, (0.5 &P not {e})) ; 0.5")
    text = "\n".join(lines) + "\n"
    gc.collect()
    gc.disable()
    try:
        prog = load_program(text)
        assert len(prog.rules) == 200
        assert gc.collect() == 0
    finally:
        gc.enable()


_PIECES = [
    "p", "q", "r", "not", "<-", "G", "P", "L", "ei", "(", ")", "[", "]", ",", ";", "@", "mean",
    "max", "&G", "&P", "&", "*", "0", "0.5", "1", "2", "1e3", ".", "<", " ", "\n", "#",
    "\u00e9", "\u00b2", "\u0660",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_load_program_raises_only_parse_errors(text):
    try:
        load_program(text)
    except ParseError:
        pass


class TestProgramConstruction:
    def test_of_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError):
            Program.of(UNIT, [Rule("p", "G", Conn("&G", Prop("q"), NegProp("q")), Unit(0.5))])

    def test_of_rejects_foreign_weight(self):
        with pytest.raises(ValueError):
            Program.of(UNIT, [Rule("p", "G", Prop("q"), Interval(0.1, 0.2))])

    def test_of_rejects_foreign_label(self):
        cases = [
            (INTERVAL, Rule("p", "G", Prop("q"), Interval(0.1, 0.2))),
            (UNIT, Rule("p", EiParams(1, 1, 1, 1), Prop("q"), Unit(0.5))),
            (UNIT, Rule("p", "G", Conn("*", Prop("q"), Prop("r")), Unit(0.5))),
            (UNIT, Rule("p", "G", Agg("sum", (Prop("q"),)), Unit(0.5))),
        ]
        for kind, rule in cases:
            with pytest.raises(UnknownOperatorError):
                Program.of(kind, [rule])

    def test_of_walks_each_body_once(self, monkeypatch):
        rules = [
            Rule("p", "G", Conn("&G", Prop("q"), NegProp("r")), Unit(0.5)),
            Rule("q", "P", Agg("mean", (Prop("p"), Const(Unit(0.2)))), Unit(0.4)),
        ]
        walk = syntax.walk
        entries = []

        def counting(expr):
            entries.extend(r.head for r in rules if r.body is expr)
            return walk(expr)

        monkeypatch.setattr(syntax, "walk", counting)
        Program.of(UNIT, rules)
        assert sorted(entries) == ["p", "q"]

    def test_extra_symbols_kept(self):
        prog = Program.of(UNIT, [Rule("p", "G", Prop("q"), Unit(0.5))], extra_symbols=["z"])
        assert prog.symbols == ("p", "q", "z")

    def test_symbols_equal_atom_scan(self):
        rng = random.Random(41)
        for _ in range(100):
            prog = random_program(rng)
            scanned = set()
            for rule in prog.rules:
                scanned.add(rule.head)
                scanned.update(name for name, _ in body_atoms(rule.body))
            assert scanned <= set(prog.symbols)
            # parsed programs carry exactly the occurring atoms
            reparsed = parse_program(render_program(prog), prog.kind)
            assert set(reparsed.symbols) == scanned


class TestDetectKind:
    def test_detects_interval(self):
        assert detect_kind("x <-ei(1,1,1,1) y ; [0,1]") is INTERVAL

    def test_detects_unit(self):
        assert detect_kind("x <-P y ; 0.5") is UNIT

    def test_empty_defaults_to_unit(self):
        assert detect_kind("# nothing\n") is UNIT

    def test_tag_in_a_comment_is_ignored(self):
        # the lattice is the first rule's, not that of a tag in a comment
        unit = "# p <-ei(1,1,1,1) q ; [0.1,0.2]\np <-G q ; 0.5\n"
        interval = "# p <-G q ; 0.5\n\np <-ei(1,1,1,1) q ; [0.1,0.2]  # <-G\n"
        assert detect_kind(unit) is UNIT
        assert detect_kind(interval) is INTERVAL
        assert load_program(unit) == parse_program(unit, UNIT)
        assert load_program(interval) == parse_program(interval, INTERVAL)


class TestRender:
    def test_fixture_files_parse_and_roundtrip(self):
        for name in ("unit_basic.mnlp", "unit_two_stable.mnlp", "interval_certified.mnlp"):
            text = (PROGRAMS / name).read_text()
            prog = parse_program(text, detect_kind(text))
            assert prog.rules
            assert parse_program(render_program(prog), prog.kind) == prog

    def test_empty_program_renders_empty(self):
        assert render_program(Program.of(UNIT, [])) == ""

    def test_rule_order_preserved(self):
        text = "b <-G a ; 0.5\na <-G b ; 0.4\n"
        prog = parse_program(text, UNIT)
        assert [r.head for r in prog.rules] == ["b", "a"]
        assert parse_program(render_program(prog), UNIT).rules == prog.rules

    def test_roundtrip_generated_programs(self):
        rng = random.Random(42)
        for _ in range(300):
            prog = random_program(rng)
            rendered = render_program(prog)
            # generated programs may carry rule-less symbols, which rendering
            # cannot represent; compare over the re-parsed symbol set
            back = parse_program(rendered, prog.kind)
            assert back.rules == prog.rules
            assert back.kind is prog.kind

    def test_right_nested_connectives_keep_grouping(self):
        body = Conn("&G", Prop("a"), Conn("&P", Prop("b"), Prop("c")))
        prog = Program.of(UNIT, [Rule("p", "G", body, Unit(0.5))])
        back = parse_program(render_program(prog), UNIT)
        assert back.rules[0].body == body


class TestDeepBodies:
    DEPTH = sys.getrecursionlimit() + 500

    def _right_nested(self) -> str:
        body = f"a{self.DEPTH - 1}"
        for i in reversed(range(self.DEPTH - 1)):
            body = f"a{i} &G {body}" if i == self.DEPTH - 2 else f"a{i} &G ({body})"
        return body

    def _nested_aggregators(self) -> str:
        body = "a0"
        for i in range(1, self.DEPTH):
            body = f"@{('min', 'max', 'mean')[i % 3]}({body}, not a{i})"
        return body

    def test_roundtrip_text(self):
        # compared as text: dataclass == on trees this deep still recurses
        left = " &P ".join(f"a{i}" for i in range(self.DEPTH))
        for body in (left, self._right_nested(), self._nested_aggregators()):
            text = f"h <-G {body} ; 0.5\n"
            assert render_program(load_program(text)) == text

    def test_no_function_calls_itself(self):
        # methods are skipped: a bare name in a method never refers to itself
        for path in sorted(Path(syntax.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn not in methods:
                    calls = {c.func.id for c in ast.walk(fn) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                    assert fn.name not in calls, f"{path.name}: {fn.name} calls itself"


def test_parse_program_builds_the_program_itself(monkeypatch):
    texts = [(PROGRAMS / name).read_text() for name in ("unit_basic.mnlp", "unit_two_stable.mnlp", "interval_certified.mnlp")]
    rng = random.Random(43)
    texts += [render_program(random_program(rng)) for _ in range(300)]
    expected = []
    for text in texts:
        kind = detect_kind(text)
        rules = parse_program(text, kind).rules
        expected.append((kind, Program.of(kind, rules)))

    def fail(*args, **kwargs):
        raise AssertionError("parse_program called Program.of")

    monkeypatch.setattr(Program, "of", fail)
    for text, (kind, validated) in zip(texts, expected):
        parsed = parse_program(text, kind)
        assert parsed.rules == validated.rules
        assert parsed.symbols == validated.symbols
