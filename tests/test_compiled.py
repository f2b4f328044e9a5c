"""The compiled float evaluator against a recursive fold over the lattice
algebra's value-object operations."""

import random
from functools import partial

import pytest

from manlp import (
    Agg,
    Conn,
    Const,
    EiParams,
    Interpretation,
    LatticeKind,
    NegProp,
    Prop,
    agg_max,
    agg_mean,
    agg_min,
    ei_product,
    evaluate,
    godel_and,
    lukasiewicz_and,
    negate,
    product_and,
    stable_search,
    sup_value,
    tp,
)
from manlp import lattice, syntax
from manlp.lattice import STAR
from manlp.syntax import walk
from conftest import unit_interp
from genprog import random_interpretation, random_program

BODY_OPS = {"&G": godel_and, "&P": product_and, "&L": lukasiewicz_and, "*": partial(ei_product, STAR)}
CONJUNCTORS = {"G": godel_and, "P": product_and, "L": lukasiewicz_and}
AGGREGATORS = {"min": agg_min, "max": agg_max, "mean": agg_mean}


def ref_evaluate(body, interp, neg):
    if isinstance(body, Prop):
        return interp[body.name]
    if isinstance(body, NegProp):
        return negate(neg[body.name])
    if isinstance(body, Const):
        return body.value
    if isinstance(body, Conn):
        return BODY_OPS[body.op](ref_evaluate(body.left, interp, neg), ref_evaluate(body.right, interp, neg))
    return AGGREGATORS[body.name](*[ref_evaluate(arg, interp, neg) for arg in body.args])


def ref_tp(program, interp, neg):
    out = {}
    for sym in program.symbols:
        contributions = []
        for rule in program.rules:
            if rule.head == sym:
                conj = partial(ei_product, rule.imp) if isinstance(rule.imp, EiParams) else CONJUNCTORS[rule.imp]
                contributions.append(conj(rule.weight, ref_evaluate(rule.body, interp, neg)))
        out[sym] = sup_value(contributions, program.kind)
    return Interpretation(program.kind, out)


def test_bit_identical_to_the_lattice_algebra(monkeypatch):
    build = syntax.compile_program
    compiled = []

    def counting(program):
        compiled.append(program)
        return build(program)

    monkeypatch.setattr(syntax, "compile_program", counting)
    rng = random.Random(41)
    programs, kinds, node_types = [], set(), set()
    for _ in range(300):
        prog = random_program(rng)
        interp = random_interpretation(rng, prog.kind, prog.symbols)
        other = random_interpretation(rng, prog.kind, prog.symbols)
        assert tp(prog, other) == ref_tp(prog, other, other)
        assert tp(prog, other, neg=interp) == ref_tp(prog, other, interp)
        for rule in prog.rules:
            assert evaluate(rule.body, other) == ref_evaluate(rule.body, other, other)
            assert evaluate(rule.body, other, interp) == ref_evaluate(rule.body, other, interp)
            node_types.update(type(node) for node in walk(rule.body))
        programs.append(prog)
        kinds.add(prog.kind)
    assert kinds == {LatticeKind.UNIT, LatticeKind.INTERVAL}
    assert {Prop, NegProp, Const, Conn, Agg} <= node_types
    # each program is compiled once, however many operator applications,
    # checks and search rounds follow
    for prog in programs[::10]:
        stable_search(prog, max_rounds=20)
    assert len(compiled) == len(programs)
    assert all(a is b for a, b in zip(compiled, programs))


def test_out_of_range_result_raises(monkeypatch):
    # every value an operator computes is checked like a value object
    lattice.kernel.cache_clear()
    monkeypatch.setitem(lattice.KERNELS[LatticeKind.UNIT], "&P", lambda x, y: x + y)
    try:
        program = syntax.load_program("p <-G q &P r ; 1\nq <-G 1 ; 0.8\nr <-G 1 ; 0.8\n")
        interp = unit_interp(p=0.0, q=0.8, r=0.8)
        with pytest.raises(ValueError, match="unit truth value out of"):
            evaluate(program.rules[0].body, interp)
        with pytest.raises(ValueError, match="unit truth value out of"):
            tp(program, interp)
    finally:
        lattice.kernel.cache_clear()
