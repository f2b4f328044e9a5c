import random

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
            # walk recurses through the module global: count only the calls
            # that start at a rule's body
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
