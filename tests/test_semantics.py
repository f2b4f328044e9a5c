import random

import pytest

from manlp import (
    Interpretation,
    Interval,
    LatticeKind,
    NegProp,
    SymbolMismatchError,
    Unit,
    UnknownSymbolError,
    adjoint_pair,
    evaluate,
    interp_leq,
    interpretation_from_dict,
    interpretation_to_dict,
    is_model,
    leq,
    rule_value,
    satisfies,
)
from manlp.syntax import walk
from conftest import unit_interp
from genprog import random_interpretation, random_program, raised_interpretation

UNIT = LatticeKind.UNIT


@pytest.fixture
def interp_ex1():
    return unit_interp(p=0.5, q=0.7, r=0.4)


class TestEvaluation:
    def test_body_with_negation(self, unit_basic, interp_ex1):
        body = unit_basic.rules[0].body  # q &G not r
        assert evaluate(body, interp_ex1) == Unit(0.6)

    def test_godel_body(self, unit_basic, interp_ex1):
        body = unit_basic.rules[1].body  # p &G q
        assert evaluate(body, interp_ex1) == Unit(0.5)

    def test_constant_body(self, unit_basic, interp_ex1):
        body = unit_basic.rules[2].body  # the constant 1
        assert evaluate(body, interp_ex1) == Unit(1.0)

    def test_rule_values(self, unit_basic, interp_ex1):
        values = [rule_value(r, interp_ex1).value for r in unit_basic.rules]
        assert values[0] == pytest.approx(0.5 / 0.6, abs=1e-15)
        assert values[1] == 0.4
        assert values[2] == pytest.approx(0.7)

    def test_unknown_atom(self, unit_basic):
        small = unit_interp(p=0.5, q=0.7)
        with pytest.raises(UnknownSymbolError):
            evaluate(unit_basic.rules[0].body, small)


class TestSatisfaction:
    def test_example_rules_satisfied(self, unit_basic, interp_ex1):
        assert all(satisfies(r, interp_ex1) for r in unit_basic.rules)

    def test_fact_threshold(self, unit_basic):
        low = unit_interp(p=0.5, q=0.5, r=0.4)
        assert not satisfies(unit_basic.rules[2], low)  # fact needs q >= 0.6

    def test_model(self, unit_basic, interp_ex1):
        assert is_model(unit_basic, interp_ex1)

    def test_bottom_not_model(self, unit_basic):
        bot = Interpretation.bottom(UNIT, unit_basic.symbols)
        assert not is_model(unit_basic, bot)
        # only the fact fails at bottom: 0 < 0.6
        assert not satisfies(unit_basic.rules[2], bot)
        assert satisfies(unit_basic.rules[0], bot)
        assert satisfies(unit_basic.rules[1], bot)

    def test_top_models_positive_program(self):
        rng = random.Random(3)
        for _ in range(25):
            prog = random_program(rng, positive=True)
            top = Interpretation.top(prog.kind, prog.symbols)
            assert is_model(prog, top)

    def test_adjoint_form_agrees(self):
        # the two readings of satisfaction coincide by adjointness
        rng = random.Random(4)
        for _ in range(50):
            prog = random_program(rng)
            interp = random_interpretation(rng, prog.kind, prog.symbols)
            for rule in prog.rules:
                direct = satisfies(rule, interp)
                conj, _ = adjoint_pair(prog.kind, rule.imp)
                alt = leq(conj(rule.weight, evaluate(rule.body, interp)), interp[rule.head])
                assert direct == alt


class TestInterpretationOrder:
    def test_bottom_below_everything(self, unit_basic):
        bot = Interpretation.bottom(UNIT, unit_basic.symbols)
        rng = random.Random(5)
        for _ in range(20):
            other = random_interpretation(rng, UNIT, unit_basic.symbols)
            assert interp_leq(bot, other)

    def test_pointwise(self):
        assert interp_leq(unit_interp(p=0.4), unit_interp(p=0.5))

    def test_incomparable_intervals(self):
        i = Interpretation(LatticeKind.INTERVAL, {"p": Interval(0.1, 0.4)})
        j = Interpretation(LatticeKind.INTERVAL, {"p": Interval(0.2, 0.3)})
        assert not interp_leq(i, j) and not interp_leq(j, i)

    def test_symbol_mismatch(self):
        with pytest.raises(SymbolMismatchError):
            interp_leq(unit_interp(p=0.4), unit_interp(q=0.4))

    def test_bounded_poset(self):
        rng = random.Random(6)
        symbols = ("a", "b", "c")
        for kind in (UNIT, LatticeKind.INTERVAL):
            bot = Interpretation.bottom(kind, symbols)
            top = Interpretation.top(kind, symbols)
            for _ in range(20):
                mid = random_interpretation(rng, kind, symbols)
                assert interp_leq(bot, mid) and interp_leq(mid, top)


class TestMonotoneEvaluation:
    def test_negation_free_bodies(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            prog = random_program(rng, positive=True)
            low = random_interpretation(rng, prog.kind, prog.symbols)
            high = raised_interpretation(rng, low)
            assert interp_leq(low, high)
            for rule in prog.rules:
                if any(isinstance(n, NegProp) for n in walk(rule.body)):
                    continue
                assert leq(evaluate(rule.body, low), evaluate(rule.body, high))
                checked += 1
        assert checked > 50


class TestSerialization:
    def test_roundtrip(self):
        rng = random.Random(8)
        for kind in (UNIT, LatticeKind.INTERVAL):
            interp = random_interpretation(rng, kind, ("a", "b", "c"))
            data = interpretation_to_dict(interp)
            back = interpretation_from_dict(data, kind, interp.symbols)
            assert back == interp

    def test_missing_symbol_is_error(self):
        with pytest.raises(SymbolMismatchError):
            interpretation_from_dict({"p": 0.5}, UNIT, ["p", "q"])

    def test_extraneous_symbol_is_error(self):
        with pytest.raises(SymbolMismatchError):
            interpretation_from_dict({"p": 0.5, "z": 0.1}, UNIT, ["p"])

    def test_kind_mismatch_is_error(self):
        with pytest.raises(ValueError):
            interpretation_from_dict({"p": [0.1, 0.2]}, UNIT, ["p"])
        with pytest.raises(ValueError):
            interpretation_from_dict({"p": 0.5}, LatticeKind.INTERVAL, ["p"])

    def test_immutable(self):
        interp = unit_interp(p=0.4)
        with pytest.raises(AttributeError):
            interp.kind = LatticeKind.INTERVAL
