"""The compiled float evaluator and its change-driven Kleene loop against a
recursive fold over the lattice algebra's value-object operations."""

import random
from functools import partial

import pytest

from manlp import (
    Agg,
    Conn,
    Const,
    EiParams,
    FixpointConfig,
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
    interpretation_to_dict,
    iterate_tp,
    lukasiewicz_and,
    negate,
    product_and,
    stable_search,
    sup_norm,
    sup_value,
    tp,
)
from manlp import engine, lattice, syntax
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


def assert_iterates_match_reference(program, trace, cfg, neg=None):
    """Each iterate is one full reference application to the one before
    (negated atoms reading ``neg``, or that iterate), printed alike; the
    trace stops at the first step within the tolerance."""
    steps = list(zip(trace.iterates, trace.iterates[1:]))
    for before, after in steps:
        want = ref_tp(program, before, before if neg is None else neg)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(interpretation_to_dict(after)) == repr(interpretation_to_dict(want))
    gaps = [sup_norm(before, after) for before, after in steps]
    assert all(gap > cfg.tolerance for gap in gaps[:-1])
    assert trace.residual == gaps[-1]
    assert trace.converged == (gaps[-1] <= cfg.tolerance)


def test_change_driven_iterates_match_the_reference():
    rng = random.Random(43)
    cfg = FixpointConfig(max_iterations=60)
    for _ in range(300):
        prog = random_program(rng)
        start = random_interpretation(rng, prog.kind, prog.symbols)
        neg = random_interpretation(rng, prog.kind, prog.symbols)
        assert_iterates_match_reference(prog, iterate_tp(prog, cfg, start=start), cfg)
        assert_iterates_match_reference(prog, iterate_tp(prog, cfg, neg=neg), cfg, neg)
    # -0.0 == 0.0, but q's product keeps p's sign: q must run again when p
    # moves from -0.0 to 0.0
    prog = syntax.load_program("q <-P p ; 0.5\np <-G 0.0 ; 1.0\nr <-P q ; 1.0\n")
    trace = iterate_tp(prog, cfg, start=unit_interp(p=-0.0, q=0.3, r=0.2))
    assert_iterates_match_reference(prog, trace, cfg)
    assert [repr(i["q"].value) for i in trace.iterates] == ["0.3", "-0.0", "0.0", "0.0"]


def test_chain_reevaluates_only_moved_readers(monkeypatch):
    # p0 is a fact and p_i reads p_{i-1}: the value moves one link per step,
    # so after the first step only one rule has a moved input.  Evaluating
    # every rule on every step would take about k * k evaluations.
    k = 50
    text = "p0 <-P 1 ; 0.9\n" + "".join(f"p{i} <-P p{i - 1} ; 0.9\n" for i in range(1, k))
    prog = syntax.load_program(text)
    run, runs = engine._run, []

    def counting(*args):
        runs.append(args)
        return run(*args)

    monkeypatch.setattr(engine, "_run", counting)
    trace = iterate_tp(prog)
    assert trace.converged and len(trace.iterates) == k + 2
    assert trace.final == ref_tp(prog, trace.final, trace.final)
    assert len(runs) <= 3 * k
