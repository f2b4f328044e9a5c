"""The compiled float evaluator and its change-driven Kleene loop against a
recursive fold over the lattice algebra's value-object operations."""

import gc
import math
import random
from functools import partial

import numpy as np
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
    Program,
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
from manlp import Interval, Unit, engine, lattice, syntax
from manlp.lattice import STAR
from manlp.syntax import walk
from conftest import unit_interp
from genprog import random_interpretation, random_program, random_rule

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


def test_chain_reevaluates_only_moved_readers():
    # p0 is a fact and p_i reads p_{i-1}: the value moves one link per step,
    # so after the first step only one rule has a moved input.  Evaluating
    # every rule on every step would take about k * k evaluations.
    k = 50
    text = "p0 <-P 1 ; 0.9\n" + "".join(f"p{i} <-P p{i - 1} ; 0.9\n" for i in range(1, k))
    prog = syntax.load_program(text)
    trace = iterate_tp(prog)
    assert trace.converged and len(trace.iterates) == k + 2
    assert trace.final == ref_tp(prog, trace.final, trace.final)
    _, (stats,) = engine._kleene(prog, FixpointConfig(), engine._bottom(prog), None)
    assert stats.steps == k + 1
    assert stats.rule_evaluations <= 3 * k


@pytest.mark.parametrize("kind", [LatticeKind.UNIT, LatticeKind.INTERVAL])
def test_compiling_leaves_no_garbage(kind):
    rng = random.Random(45)
    symbols = [f"s{i}" for i in range(40)]
    prog = Program.of(kind, [random_rule(rng, kind, symbols) for _ in range(200)])
    gc.collect()
    gc.disable()
    try:
        assert prog.compiled.rules
        assert gc.collect() == 0
    finally:
        gc.enable()


def scalar_tp(program, interp, neg):
    """The consequence operator in plain Python floats, a kernel written out
    per label with Python's ``min``, ``max``, ``**`` and ``math.fsum``: a
    reference independent of the lattice module's array kernels."""
    unit = program.kind is LatticeKind.UNIT

    def endpoints(v):
        return [v.value] if unit else [v.lo, v.hi]

    def per_endpoint(f, *values):
        return [f(*xs) for xs in zip(*values)]

    conj = {
        "G": lambda w, b: per_endpoint(min, w, b),
        "P": lambda w, b: per_endpoint(lambda x, y: x * y, w, b),
        "L": lambda w, b: per_endpoint(lambda x, y: max(0.0, x + y - 1.0), w, b),
    }
    aggregate = {"min": lambda *xs: min(xs), "max": lambda *xs: max(xs), "mean": lambda *xs: math.fsum(xs) / len(xs)}

    def body(node):
        if isinstance(node, Prop):
            return endpoints(interp[node.name])
        if isinstance(node, NegProp):
            return [1.0 - x for x in reversed(endpoints(neg[node.name]))]
        if isinstance(node, Const):
            return endpoints(node.value)
        if isinstance(node, Conn):
            return conj[node.op[1:]](body(node.left), body(node.right)) if unit else per_endpoint(
                lambda x, y: x * y, body(node.left), body(node.right)
            )
        return per_endpoint(aggregate[node.name], *[body(arg) for arg in node.args])

    out = {}
    for sym in program.symbols:
        contributions = []
        for rule in program.rules:
            if rule.head == sym:
                w, b = endpoints(rule.weight), body(rule.body)
                if unit:
                    contributions.append(conj[rule.imp](w, b))
                else:
                    p = rule.imp
                    contributions.append([w[0] ** p.alpha * b[0] ** p.gamma, w[1] ** p.beta * b[1] ** p.delta])
        out[sym] = per_endpoint(aggregate["max"], *contributions) if contributions else [0.0] * (1 if unit else 2)
    return {sym: v[0] if unit else v for sym, v in sorted(out.items())}


def with_negative_zeros(rng, interp):
    """``interp`` with some endpoints that are 0 in the lattice order stored
    as -0.0, which prints differently and keeps its sign through products."""
    values = {}
    for sym in interp:
        v = interp[sym]
        if isinstance(v, Unit):
            values[sym] = Unit(-0.0) if rng.random() < 0.3 else v
        else:
            values[sym] = Interval(-0.0, v.hi if rng.random() < 0.5 else -0.0) if rng.random() < 0.3 else v
    return Interpretation(interp.kind, values)


def column(program, values, j):
    return engine._interpretation(program, values[:, :, j])


def printed(interp):
    # repr tells -0.0 from 0.0, which == does not
    return repr(interpretation_to_dict(interp))


def test_batched_columns_match_the_reference():
    # every column of one batched Kleene run is the reference operator
    # applied to that column alone, and iterates like a run of its own
    rng = random.Random(47)
    cfg = FixpointConfig(max_iterations=40)
    one_step = FixpointConfig(max_iterations=1)
    seen_zero = 0
    for _ in range(150):
        prog = random_program(rng)
        starts = [Interpretation.bottom(prog.kind, prog.symbols)] + [
            with_negative_zeros(rng, random_interpretation(rng, prog.kind, prog.symbols)) for _ in range(4)
        ]
        negs = [with_negative_zeros(rng, random_interpretation(rng, prog.kind, prog.symbols)) for _ in starts]
        cur = np.concatenate([engine._values(prog, i) for i in starts], axis=2)
        neg = np.concatenate([engine._values(prog, i) for i in negs], axis=2)
        seen_zero += int(np.signbit(cur).any())
        stepped, _ = engine._kleene(prog, one_step, cur, None)
        reduced, _ = engine._kleene(prog, one_step, cur, neg)
        finals, stats = engine._kleene(prog, cfg, cur, None)
        for j, (start, negated) in enumerate(zip(starts, negs)):
            assert printed(column(prog, stepped, j)) == printed(ref_tp(prog, start, start))
            assert printed(column(prog, stepped, j)) == repr(scalar_tp(prog, start, start))
            assert printed(column(prog, reduced, j)) == printed(ref_tp(prog, start, negated))
            assert printed(column(prog, reduced, j)) == repr(scalar_tp(prog, start, negated))
            alone = iterate_tp(prog, cfg, start=start)
            assert printed(column(prog, finals, j)) == printed(alone.final)
            assert (stats[j].converged, stats[j].residual, stats[j].steps) == (
                alone.converged,
                alone.residual,
                len(alone.iterates) - 1,
            )
            assert stats[j].effective_steps == alone.effective_steps()
    assert seen_zero > 100


@pytest.mark.parametrize(
    "text, start, want",
    [
        # contributions that tie at zero: the first of them is the supremum
        ("p <-P q ; 0.5\np <-P r ; 0.5\n", dict(p=0.2, q=-0.0, r=0.0), "-0.0"),
        ("p <-P r ; 0.5\np <-P q ; 0.5\n", dict(p=0.2, q=-0.0, r=0.0), "0.0"),
        ("p <-P q ; 0.5\np <-P r ; 0.5\np <-P s ; 0.5\n", dict(p=0.2, q=-0.0, r=-0.0, s=0.0), "-0.0"),
        # a mean is fsum over its count: fsum([-0.0, -0.0]) is 0.0
        ("p <-P @mean(q, r) ; 1\n", dict(p=0.2, q=-0.0, r=-0.0), "0.0"),
        ("p <-P @mean(q, r, s) ; 1\n", dict(p=0.2, q=-0.0, r=-0.0, s=-0.0), "0.0"),
        # and correctly rounded: (0.1 + 0.2 + 0.3) / 3 is 0.20000000000000004
        ("p <-P @mean(q, r, s) ; 1\n", dict(p=0.2, q=0.1, r=0.2, s=0.3), "0.19999999999999998"),
        ("p <-P @min(q, r) ; 1\n", dict(p=0.2, q=0.0, r=-0.0), "0.0"),
        ("p <-P @max(q, r) ; 1\n", dict(p=0.2, q=-0.0, r=0.0), "-0.0"),
    ],
)
def test_signed_zeros_and_means(text, start, want):
    prog = syntax.load_program(text)
    interp = unit_interp(**start)
    assert repr(tp(prog, interp)["p"].value) == want
    assert printed(tp(prog, interp)) == printed(ref_tp(prog, interp, interp))
    assert printed(tp(prog, interp)) == repr(scalar_tp(prog, interp, interp))
    cur = np.concatenate([engine._values(prog, interp)] * 3, axis=2)
    stepped, _ = engine._kleene(prog, FixpointConfig(max_iterations=1), cur, None)
    assert {repr(x) for x in stepped[prog.symbols.index("p"), 0].tolist()} == {want}
