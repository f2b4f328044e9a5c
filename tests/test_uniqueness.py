import random

import pytest

from manlp import (
    Agg,
    Conn,
    EiParams,
    IneligibleProgramError,
    Interpretation,
    Interval,
    LatticeKind,
    NegProp,
    Program,
    Prop,
    Rule,
    UncertifiedProgramError,
    bound_interpretation,
    certify,
    eligibility_violations,
    eligible,
    empirical_contraction_check,
    head_weight_bounds,
    is_stable,
    iterate_tp,
    parse_program,
    rule_lambdas,
    solve_unique,
    solve_unique_traced,
    stable_search,
    sup_norm,
    tp,
)
from genprog import random_certified_program, random_eligible_program

INTERVAL = LatticeKind.INTERVAL

# Same rule shapes as the certified fixture but with the lower alternative
# weight [0.7,0.8] on the first rule; used to pin the certificate arithmetic
# when the head bound for p drops to [0.7,0.8].
VARIANT_TEXT = """
p <-ei(1,1,1,1) not q ; [0.7,0.8]
s <-ei(2,1,3,2) p ; [0.4,0.5]
p <-ei(2,1,2,1) s * not t ; [0.5,0.6]
q <-ei(2,1,2,1) t * not p ; [0.7,0.9]
"""


@pytest.fixture(scope="module")
def variant_program():
    return parse_program(VARIANT_TEXT, INTERVAL)


class TestEligibility:
    def test_certified_fixture_is_eligible(self, interval_certified):
        assert eligible(interval_certified)
        assert eligibility_violations(interval_certified) == []

    def test_unit_program_is_not(self, unit_basic):
        violations = eligibility_violations(unit_basic)
        assert violations and "lattice" in violations[0]

    def test_aggregator_body_cited(self):
        prog = parse_program(
            "p <-ei(1,1,1,1) @mean(q, s) ; [0.1,0.2]", INTERVAL
        )
        violations = eligibility_violations(prog)
        assert len(violations) == 1 and "rule 0" in violations[0]

    def test_constant_body_cited(self):
        prog = parse_program("p <-ei(1,1,1,1) [1,1] ; [0.1,0.2]", INTERVAL)
        assert not eligible(prog)

    def test_certify_refuses_ineligible(self, unit_basic):
        with pytest.raises(IneligibleProgramError) as exc:
            certify(unit_basic)
        assert exc.value.violations


class TestHeadBounds:
    def test_fixture_bounds(self, interval_certified):
        bounds = {hb.symbol: hb.bound for hb in head_weight_bounds(interval_certified)}
        assert bounds["p"] == Interval(0.7, 0.9)  # max of [0.7,0.9] and [0.5,0.6]
        assert bounds["q"] == Interval(0.7, 0.9)
        assert bounds["s"] == Interval(0.4, 0.5)
        assert bounds["t"] == Interval(0.0, 0.0)  # heads no rule

    def test_variant_bounds(self, variant_program):
        bounds = {hb.symbol: hb.bound for hb in head_weight_bounds(variant_program)}
        assert bounds["p"] == Interval(0.7, 0.8)  # componentwise max of the two weights

    def test_bound_interpretation(self, interval_certified):
        itheta = bound_interpretation(interval_certified)
        assert itheta["t"] == Interval(0.0, 0.0)


class TestRuleLambdas:
    def test_fixture_certificate(self, interval_certified):
        report = certify(interval_certified)
        lam2 = [rc.lambda2 for rc in report.per_rule]
        assert lam2[0] == pytest.approx(0.9)
        assert lam2[1] == pytest.approx(0.9)  # 0.5 * 2 * 0.9
        assert lam2[2] == pytest.approx(0.9)  # 0.6 + 0.6 * 0.5
        assert lam2[3] == pytest.approx(0.9)  # 0.9 * 0**0, plus vanishing term
        assert report.verdict
        assert report.global_lipschitz == pytest.approx(0.9)

    def test_variant_certificate(self, variant_program):
        # with the lower first-rule weight the bound for p is [0.7,0.8] and
        # the first two rules come out at 0.8 instead
        report = certify(variant_program)
        lam2 = [rc.lambda2 for rc in report.per_rule]
        assert lam2[0] == pytest.approx(0.8)
        assert lam2[1] == pytest.approx(0.8)  # 0.5 * 2 * 0.8
        assert lam2[2] == pytest.approx(0.9)
        assert lam2[3] == pytest.approx(0.9)
        assert report.verdict

    def test_negated_self_loop_at_weight_one(self):
        prog = Program.of(
            INTERVAL,
            [Rule("p", EiParams(1, 1, 1, 1), NegProp("p"), Interval(1.0, 1.0))],
        )
        report = certify(prog)
        assert report.per_rule[0].lambda2 == pytest.approx(1.0)
        assert not report.per_rule[0].passes
        assert not report.verdict

    def test_lambda1_below_lambda2_when_body_exponents_match(self):
        # with gamma == delta the lower bound is dominated factor by factor;
        # this is the regime the one-step contraction argument relies on
        rng = random.Random(21)
        checked = 0
        for _ in range(80):
            prog = random_eligible_program(rng, gamma_equals_delta=True)
            bounds = {hb.symbol: hb.bound for hb in head_weight_bounds(prog)}
            for rule in prog.rules:
                lam1, lam2 = rule_lambdas(rule, bounds)
                assert 0.0 <= lam1 <= lam2 + 1e-12
                checked += 1
        assert checked > 100

    def test_lambda1_can_exceed_lambda2_when_gamma_exceeds_delta(self):
        # gamma multiplies the lower bound, so a large antecedent exponent on
        # the lower endpoint can push lambda1 past lambda2 (and even past 1)
        # while the lambda2 test still passes
        prog = Program.of(
            INTERVAL,
            [
                Rule("p", EiParams(1, 1, 3, 1), Prop("q"), Interval(0.5, 0.5)),
                Rule("q", EiParams(1, 1, 1, 1), NegProp("p"), Interval(0.9, 0.9)),
            ],
        )
        report = certify(prog)
        first = report.per_rule[0]
        assert first.lambda1 == pytest.approx(0.5 * 3 * 0.81)  # 1.215
        assert first.lambda2 == pytest.approx(0.5)
        assert first.lambda1 > first.lambda2
        assert report.verdict  # the stated test only inspects lambda2
        # the global bound is the sound max over rules of max(lambda1, lambda2)
        assert report.global_lipschitz == pytest.approx(1.215)
        assert not report.proven_contraction

    def test_rule_lambdas_direct(self, interval_certified):
        bounds = {hb.symbol: hb.bound for hb in head_weight_bounds(interval_certified)}
        lam1, lam2 = rule_lambdas(interval_certified.rules[1], bounds)
        # s <-ei(2,1,3,2) p: lambda1 = 0.4^2 * 3 * 0.7^2, lambda2 = 0.5 * 2 * 0.9
        assert lam1 == pytest.approx(0.16 * 3 * 0.49)
        assert lam2 == pytest.approx(0.9)


class TestSolveUnique:
    def test_traced_solve_keeps_every_iterate(self):
        rng = random.Random(24)
        for _ in range(5):
            prog = random_certified_program(rng)
            model, trace = solve_unique_traced(prog)
            assert trace == iterate_tp(prog)
            assert model == trace.final

    def test_fixture_model(self, interval_certified):
        model, trace = solve_unique_traced(interval_certified)
        assert model["p"] == Interval(0.7, 0.9)
        assert model["q"] == Interval(0.0, 0.0)
        assert model["t"] == Interval(0.0, 0.0)
        assert model["s"].lo == pytest.approx(0.05488, abs=1e-9)
        assert model["s"].hi == pytest.approx(0.405, abs=1e-9)
        assert trace.effective_steps() == 2
        assert is_stable(interval_certified, model)
        assert sup_norm(tp(interval_certified, model), model) <= 1e-12

    def test_empty_program_vacuously_certified(self):
        prog = Program.of(INTERVAL, [])
        report = certify(prog)
        assert report.verdict and report.global_lipschitz == 0.0
        assert solve_unique(prog) == Interpretation(INTERVAL, {})

    def test_single_dependency_chain(self):
        prog = Program.of(
            INTERVAL,
            [Rule("p", EiParams(1, 1, 1, 1), Prop("q"), Interval(0.5, 0.5))],
        )
        model = solve_unique(prog)
        assert model["p"] == Interval(0.0, 0.0)
        assert model["q"] == Interval(0.0, 0.0)

    def test_refuses_uncertified(self):
        prog = Program.of(
            INTERVAL,
            [Rule("p", EiParams(1, 1, 1, 1), NegProp("p"), Interval(1.0, 1.0))],
        )
        with pytest.raises(UncertifiedProgramError):
            solve_unique(prog)

    def test_refuses_ineligible(self, unit_basic):
        with pytest.raises(IneligibleProgramError):
            solve_unique(unit_basic)

    def test_search_agrees_from_many_starts(self):
        rng = random.Random(22)
        for _ in range(5):
            prog = random_certified_program(rng)
            expected = solve_unique(prog)
            for seed in range(5):
                result = stable_search(prog, seed=seed)
                assert len(result.found) == 1
                assert sup_norm(result.found[0][0], expected) <= 1e-6


class TestContraction:
    def test_fixture_ratio_below_bound(self, interval_certified):
        report = certify(interval_certified)
        ratio = empirical_contraction_check(interval_certified, samples=1000, seed=0)
        assert ratio <= report.global_lipschitz + 1e-9

    def test_random_certified_programs(self):
        rng = random.Random(23)
        for _ in range(5):
            prog = random_certified_program(rng)
            report = certify(prog)
            ratio = empirical_contraction_check(prog, samples=300, seed=1)
            assert ratio <= report.global_lipschitz + 1e-9

    def test_sound_bound_where_lambda1_exceeds_lambda2(self):
        # where gamma > delta lifts some lambda1 above its lambda2, observed
        # ratios can exceed max lambda2 but never the sound bound
        rng = random.Random(11)
        checked = above_lambda2 = 0
        while checked < 40:
            prog = random_eligible_program(rng)
            if not eligible(prog):
                continue
            report = certify(prog)
            if not report.verdict or all(rc.lambda1 <= rc.lambda2 for rc in report.per_rule):
                continue
            ratio = empirical_contraction_check(prog, samples=300, seed=1)
            assert ratio <= report.global_lipschitz * (1.0 + 1e-12)
            above_lambda2 += ratio > max(rc.lambda2 for rc in report.per_rule)
            checked += 1
        assert above_lambda2 > 0

    def test_constant_rule_ratio_zero(self):
        # a rule whose body atoms never move below the bound interpretation:
        # q heads no rule, so its bound is [0,0] and the operator is constant
        prog = Program.of(
            INTERVAL,
            [Rule("p", EiParams(1, 1, 1, 1), Prop("q"), Interval(0.5, 0.5))],
        )
        assert empirical_contraction_check(prog, samples=200, seed=2) == 0.0

    def test_needs_certificate(self):
        prog = Program.of(
            INTERVAL,
            [Rule("p", EiParams(1, 1, 1, 1), NegProp("p"), Interval(1.0, 1.0))],
        )
        with pytest.raises(UncertifiedProgramError):
            empirical_contraction_check(prog)
