import random

import pytest

from manlp import (
    Const,
    FixpointConfig,
    Interpretation,
    Interval,
    LatticeKind,
    NonPositiveProgramError,
    Program,
    Prop,
    Rule,
    SymbolMismatchError,
    Unit,
    check_stable,
    evaluate,
    interp_leq,
    is_model,
    is_stable,
    least_fixpoint,
    partition,
    reduct,
    stable_search,
    sup_norm,
    sup_value,
    tp,
)
from manlp.engine import SEARCH_DEDUP_TOL, START_OUTCOMES, _canonical_key, default_starts
from conftest import unit_interp
from genprog import random_interpretation, random_program, raised_interpretation

UNIT = LatticeKind.UNIT
INTERVAL = LatticeKind.INTERVAL


class TestSupNorm:
    def test_zero_on_equal(self, model_m):
        assert sup_norm(model_m, model_m) == 0.0

    def test_interval_endpoint_gap(self):
        i = Interpretation(INTERVAL, {"p": Interval(0.0, 0.0)})
        j = Interpretation(INTERVAL, {"p": Interval(0.7, 0.9)})
        assert sup_norm(i, j) == pytest.approx(0.9)

    def test_max_over_symbols(self):
        i = unit_interp(p=0.4, q=0.7)
        j = unit_interp(p=0.5, q=0.4)
        assert sup_norm(i, j) == pytest.approx(0.3)

    def test_symbol_mismatch(self):
        with pytest.raises(SymbolMismatchError):
            sup_norm(unit_interp(p=0.4), unit_interp(q=0.4))


class TestTp:
    def test_reduct_consequences_from_bottom(self, unit_two_stable, model_m):
        red = reduct(unit_two_stable, model_m)
        out = tp(red, Interpretation.bottom(UNIT, red.symbols))
        assert out == model_m

    def test_certified_program_two_steps(self, interval_certified):
        bot = Interpretation.bottom(INTERVAL, interval_certified.symbols)
        out = tp(interval_certified, tp(interval_certified, bot))
        assert out["p"] == Interval(0.7, 0.9)
        assert out["q"] == Interval(0.0, 0.0)
        assert out["t"] == Interval(0.0, 0.0)
        assert out["s"].lo == pytest.approx(0.05488, abs=1e-9)
        assert out["s"].hi == pytest.approx(0.405, abs=1e-9)

    def test_empty_program(self):
        prog = Program.of(UNIT, [], extra_symbols=["a", "b"])
        start = unit_interp(a=0.3, b=0.9)
        assert tp(prog, start) == Interpretation.bottom(UNIT, ["a", "b"])

    def test_symbol_mismatch(self, unit_basic):
        with pytest.raises(SymbolMismatchError):
            tp(unit_basic, unit_interp(p=0.1))

    def test_headless_symbols_get_bottom(self):
        prog = Program.of(UNIT, [Rule("p", "G", Prop("q"), Unit(0.5))])
        out = tp(prog, unit_interp(p=0.9, q=0.9))
        assert out["q"] == Unit(0.0)


class TestReduct:
    def test_negations_become_constants(self, unit_two_stable, model_m):
        red = reduct(unit_two_stable, model_m)
        assert red.is_positive()
        assert red.rules[0].body == Const(Unit(0.4))  # not t frozen at 1-0.6
        assert red.rules[0].weight == unit_two_stable.rules[0].weight
        assert [r.head for r in red.rules] == [r.head for r in unit_two_stable.rules]
        assert red.symbols == unit_two_stable.symbols

    def test_second_model_freezes_differently(self, unit_two_stable, model_m2):
        red = reduct(unit_two_stable, model_m2)
        # not q &G not p with q=0.4, p=0.5 evaluates to 0.5
        frozen_body = red.rules[5].body
        value = evaluate(frozen_body, Interpretation.bottom(UNIT, red.symbols))
        assert value == Unit(0.5)

    def test_positive_program_unchanged(self):
        rng = random.Random(11)
        for _ in range(20):
            prog = random_program(rng, positive=True)
            interp = random_interpretation(rng, prog.kind, prog.symbols)
            assert reduct(prog, interp) == prog

    def test_reduct_identity(self):
        # consequences of the reduct at I equal consequences of the program at
        # I, and at any J they equal the operator with negations reading I
        rng, other_rng = random.Random(12), random.Random(112)
        for _ in range(100):
            prog = random_program(rng)
            interp = random_interpretation(rng, prog.kind, prog.symbols)
            other = random_interpretation(other_rng, prog.kind, prog.symbols)
            assert tp(prog, interp) == tp(reduct(prog, interp), interp)
            assert tp(prog, other, neg=interp) == tp(reduct(prog, interp), other)

    def test_neg_symbol_mismatch(self, unit_two_stable, model_m):
        with pytest.raises(SymbolMismatchError):
            tp(unit_two_stable, model_m, neg=unit_interp(p=0.1))

    def test_reduct_refuses_an_interpretation_of_another_lattice(self, unit_two_stable):
        # the reduct is not validated again, so a constant of a foreign
        # lattice must not get in
        interval_interp = Interpretation(INTERVAL, {s: Interval(0.2, 0.4) for s in unit_two_stable.symbols})
        with pytest.raises(SymbolMismatchError):
            reduct(unit_two_stable, interval_interp)


class TestLeastFixpoint:
    def test_converges_to_known_model(self, unit_two_stable, model_m):
        trace = least_fixpoint(reduct(unit_two_stable, model_m))
        assert trace.converged
        assert trace.iterates[1] == model_m
        assert trace.final == model_m

    def test_rejects_negation(self, unit_two_stable):
        with pytest.raises(NonPositiveProgramError):
            least_fixpoint(unit_two_stable)

    def test_empty_program_single_step(self):
        prog = Program.of(UNIT, [])
        trace = least_fixpoint(prog)
        assert trace.converged and len(trace.iterates) == 2

    def test_result_is_least_model(self):
        # the fixpoint is a model of the positive program and sits below
        # every sampled postfixpoint
        rng = random.Random(13)
        for _ in range(30):
            prog = random_program(rng, positive=True, max_rules=5)
            trace = least_fixpoint(prog)
            if not trace.converged:
                continue
            assert is_model(prog, trace.final)
            for _ in range(10):
                other = random_interpretation(rng, prog.kind, prog.symbols)
                if is_model(prog, other):
                    # least model is below every model, up to the stopping tolerance
                    gap = max(
                        0.0,
                        *(
                            _one_sided_excess(trace.final[s], other[s])
                            for s in prog.symbols
                        ),
                    )
                    assert gap <= 1e-6

    def test_budget_reported_not_raised(self):
        prog = Program.of(UNIT, [Rule("p", "G", Const(Unit(1.0)), Unit(1.0))])
        trace = least_fixpoint(prog, FixpointConfig(tolerance=1e-9, max_iterations=1))
        assert not trace.converged
        assert len(trace.iterates) == 2
        assert trace.residual == 1.0


def _one_sided_excess(a, b) -> float:
    if isinstance(a, Unit):
        return a.value - b.value
    return max(a.lo - b.lo, a.hi - b.hi)


class TestMonotonicityAndPostfixpoints:
    def test_tp_monotone_on_positive(self):
        rng = random.Random(14)
        for _ in range(60):
            prog = random_program(rng, positive=True)
            low = random_interpretation(rng, prog.kind, prog.symbols)
            high = raised_interpretation(rng, low)
            assert interp_leq(tp(prog, low), tp(prog, high))

    def test_model_iff_postfixpoint(self):
        rng = random.Random(15)
        for _ in range(60):
            prog = random_program(rng, positive=True)
            interp = random_interpretation(rng, prog.kind, prog.symbols)
            assert is_model(prog, interp) == interp_leq(tp(prog, interp), interp)


class TestStability:
    def test_known_stable_models(self, unit_two_stable, model_m, model_m2):
        assert is_stable(unit_two_stable, model_m)
        assert is_stable(unit_two_stable, model_m2)

    def test_bottom_not_stable(self, unit_two_stable):
        bot = Interpretation.bottom(UNIT, unit_two_stable.symbols)
        result = check_stable(unit_two_stable, bot)
        assert not result.stable and result.lfp_converged
        assert result.distance > 0.1

    def test_stable_models_are_models(self, unit_two_stable, model_m, model_m2):
        assert is_model(unit_two_stable, model_m)
        assert is_model(unit_two_stable, model_m2)

    def test_stable_models_are_tp_fixpoints(self, unit_two_stable, model_m, model_m2):
        for m in (model_m, model_m2):
            assert sup_norm(tp(unit_two_stable, m), m) <= 1e-12

    def test_trace_equals_least_fixpoint_of_reduct(self):
        rng = random.Random(18)
        cfg = FixpointConfig(max_iterations=200)
        for _ in range(60):
            prog = random_program(rng)
            interp = random_interpretation(rng, prog.kind, prog.symbols)
            result = check_stable(prog, interp, cfg)
            assert result.trace == least_fixpoint(reduct(prog, interp), cfg)

    def test_no_program_is_built(self, unit_two_stable, model_m, monkeypatch):
        build = Program.of.__func__
        calls = []

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Program, "of", classmethod(counting))
        assert check_stable(unit_two_stable, model_m).stable
        assert stable_search(unit_two_stable).found
        assert calls == []


class TestStableSearch:
    def test_positive_program_one_round(self):
        rng = random.Random(16)
        for _ in range(10):
            prog = random_program(rng, positive=True, max_rules=4)
            lfp = least_fixpoint(prog)
            if not lfp.converged:
                continue
            start = random_interpretation(rng, prog.kind, prog.symbols)
            result = stable_search(prog, starts=[start])
            assert len(result.found) == 1
            model, trace = result.found[0]
            assert sup_norm(model, lfp.final) <= 1e-7
            assert len(trace.iterates) <= 3  # start, limit, confirmation

    def test_certified_program_from_default_starts(self, interval_certified):
        result = stable_search(interval_certified)
        assert len(result.found) == 1
        assert result.nonconverged_starts == 0
        model = result.found[0][0]
        assert model["p"] == Interval(0.7, 0.9)

    def test_two_stable_program_bottom_cycles(self, unit_two_stable):
        bot = Interpretation.bottom(UNIT, unit_two_stable.symbols)
        result = stable_search(unit_two_stable, starts=[bot])
        assert result.found == ()
        assert result.nonconverged_starts == 1

    def test_two_stable_program_search_finds_verified_models(self, unit_two_stable):
        result = stable_search(unit_two_stable)
        assert result.found  # some random starts do settle
        for model, _ in result.found:
            assert is_stable(unit_two_stable, model)
            assert is_model(unit_two_stable, model)

    def test_deterministic_given_seed(self, unit_two_stable):
        a = stable_search(unit_two_stable, seed=5)
        b = stable_search(unit_two_stable, seed=5)
        assert a.models() == b.models()

    @pytest.mark.parametrize(
        "cfg",
        [FixpointConfig(max_iterations=200), FixpointConfig(tolerance=0.05, max_iterations=200), FixpointConfig(max_iterations=2)],
    )
    def test_lockstep_equals_one_start_at_a_time(self, cfg):
        # the starts run as columns of one iteration; each must end as it
        # does alone, and the models are those of the starts in turn, less
        # the limits that repeat an earlier start's model
        rng = random.Random(19)
        outcomes = set()
        for k in range(40):
            prog = random_program(rng)
            starts = default_starts(prog, seed=k)
            together = stable_search(prog, cfg, starts=starts, max_rounds=25)
            alone = [stable_search(prog, cfg, starts=[start], max_rounds=25) for start in starts]
            want_starts, want_found = [], []
            for result in alone:
                (outcome, rounds), = result.starts
                if result.found:
                    model = result.found[0][0]
                    if any(sup_norm(model, seen) <= SEARCH_DEDUP_TOL for seen, _ in want_found):
                        outcome = "duplicate"
                    else:
                        want_found.append(result.found[0])
                want_starts.append((outcome, rounds))
            want_found.sort(key=lambda pair: _canonical_key(pair[0]))
            assert together.starts == tuple(want_starts)
            assert repr(together.found) == repr(tuple(want_found))
            assert together.nonconverged_starts == sum(r.nonconverged_starts for r in alone)
            assert together.rejected_limits == sum(r.rejected_limits for r in alone)
            outcomes.update(outcome for outcome, _ in together.starts)
        assert outcomes <= set(START_OUTCOMES)
        assert len(outcomes) >= 3


class TestPartition:
    def test_singletons(self, unit_basic):
        parts = partition(unit_basic)
        assert len(parts) == 3
        for part in parts:
            assert len(part.rules) == 1
            assert part.symbols == unit_basic.symbols

    def test_tp_equals_sup_over_parts(self):
        rng = random.Random(17)
        for _ in range(60):
            prog = random_program(rng)
            interp = random_interpretation(rng, prog.kind, prog.symbols)
            direct = tp(prog, interp)
            parts = partition(prog)
            for sym in prog.symbols:
                via_parts = sup_value(
                    [tp(part, interp)[sym] for part in parts], prog.kind
                )
                assert direct[sym] == via_parts

    def test_empty_program(self):
        assert partition(Program.of(UNIT, [])) == []


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixpointConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FixpointConfig(max_iterations=0)

    def test_defaults(self):
        cfg = FixpointConfig()
        assert cfg.tolerance == 1e-9 and cfg.max_iterations == 10000
