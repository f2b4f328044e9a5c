import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manlp import (
    DomainMismatchError,
    EiParams,
    GridSpec,
    Interval,
    LatticeKind,
    Unit,
    agg_max,
    agg_mean,
    agg_min,
    bottom,
    brute_force_residuum,
    ei_product,
    ei_residuum,
    godel_and,
    godel_imp,
    leq,
    lukasiewicz_and,
    lukasiewicz_imp,
    negate,
    product_and,
    product_imp,
    sup_value,
    top,
)
from manlp.lattice import STAR, adjoint_pair, kernel

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(Unit)


def intervals_strategy():
    return st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ).map(lambda ab: Interval(min(ab), max(ab)))


intervals = intervals_strategy()

EI_PARAMS = [
    EiParams(1, 1, 1, 1),
    EiParams(2, 1, 3, 2),
    EiParams(2, 2, 2, 2),
    EiParams(4, 2, 4, 1),
    EiParams(3, 1, 2, 2),
    EiParams(4, 4, 3, 3),
]


def leq_tol(a, b, tol):
    if isinstance(a, Unit):
        return a.value <= b.value + tol
    return a.lo <= b.lo + tol and a.hi <= b.hi + tol


def check_adjoint(conj, imp, x, y, z, tol=1e-12):
    # both directions of the adjunction, with tolerance on the conclusion only
    if leq(x, imp(z, y)):
        assert leq_tol(conj(x, y), z, tol), (x, y, z)
    if leq(conj(x, y), z):
        assert leq_tol(x, imp(z, y), tol), (x, y, z)


class TestOrder:
    def test_interval_componentwise(self):
        assert leq(Interval(0.1, 0.4), Interval(0.2, 0.4))

    def test_incomparable_intervals(self):
        assert not leq(Interval(0.1, 0.4), Interval(0.2, 0.3))
        assert not leq(Interval(0.2, 0.3), Interval(0.1, 0.4))

    def test_reflexive(self):
        assert leq(Unit(0.4), Unit(0.4))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(DomainMismatchError):
            leq(Unit(0.4), Interval(0.1, 0.4))

    def test_value_validation(self):
        with pytest.raises(ValueError):
            Unit(1.5)
        with pytest.raises(ValueError):
            Interval(0.5, 0.4)
        with pytest.raises(ValueError):
            Interval(-0.1, 0.4)


class TestUnitOperators:
    def test_godel_and(self):
        assert godel_and(Unit(0.7), Unit(0.6)) == Unit(0.6)

    def test_product_and_top_neutral(self):
        assert product_and(Unit(1.0), Unit(0.3)) == Unit(0.3)

    def test_lukasiewicz_clamps(self):
        assert lukasiewicz_and(Unit(0.4), Unit(0.5)) == Unit(0.0)

    def test_product_imp(self):
        assert product_imp(Unit(0.5), Unit(0.6)).value == pytest.approx(0.5 / 0.6, abs=1e-15)

    def test_godel_imp(self):
        assert godel_imp(Unit(0.4), Unit(0.5)) == Unit(0.4)
        assert godel_imp(Unit(0.5), Unit(0.4)) == Unit(1.0)

    def test_product_imp_zero_antecedent(self):
        assert product_imp(Unit(0.3), Unit(0.0)) == Unit(1.0)

    def test_interval_input_rejected(self):
        with pytest.raises(DomainMismatchError):
            godel_and(Interval(0.1, 0.2), Interval(0.1, 0.2))


class TestEiOperators:
    def test_product_known_values(self):
        out = ei_product(EiParams(2, 1, 3, 2), Interval(0.4, 0.5), Interval(0.7, 0.9))
        assert out.lo == pytest.approx(0.05488, abs=1e-9)
        assert out.hi == pytest.approx(0.405, abs=1e-9)

    def test_top_first_argument(self):
        p = EiParams(3, 2, 2, 1)
        out = ei_product(p, Interval(1.0, 1.0), Interval(0.3, 0.8))
        assert out.lo == pytest.approx(0.3**2) and out.hi == pytest.approx(0.8)

    def test_componentwise_product(self):
        out = ei_product(EiParams(1, 1, 1, 1), Interval(0.2, 0.5), Interval(0.5, 0.6))
        assert out.lo == pytest.approx(0.10) and out.hi == pytest.approx(0.30)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EiParams(1, 2, 1, 1)  # beta > alpha
        with pytest.raises(ValueError):
            EiParams(2, 1, 1, 2)  # delta > gamma
        with pytest.raises(ValueError):
            EiParams(0, 0, 1, 1)

    def test_residuum_grid_maximum(self):
        # independent oracle first: exhaustive grid search at step 0.001
        p = EiParams(2, 1, 3, 2)
        z, y = Interval(0.05488, 0.405), Interval(0.7, 0.9)
        oracle = brute_force_residuum(p, z, y, GridSpec(1000))
        assert oracle.lo == pytest.approx(0.4, abs=1e-3)
        assert oracle.hi == pytest.approx(0.5, abs=1e-3)
        closed = ei_residuum(p, z, y)
        assert closed.lo == pytest.approx(0.4, abs=1e-9)
        assert closed.hi == pytest.approx(0.5, abs=1e-9)
        assert abs(closed.lo - oracle.lo) <= 1e-3 + 1e-12
        assert abs(closed.hi - oracle.hi) <= 1e-3 + 1e-12

    def test_residuum_top_antecedent(self):
        # with unit weight exponents the top antecedent gives back z
        for p in (EiParams(1, 1, 1, 1), EiParams(1, 1, 3, 2)):
            z = Interval(0.3, 0.6)
            assert ei_residuum(p, z, Interval(1.0, 1.0)) == z

    def test_residuum_zero_antecedent(self):
        out = ei_residuum(EiParams(2, 1, 3, 2), Interval(0.3, 0.6), Interval(0.0, 0.0))
        assert out == Interval(1.0, 1.0)

    @given(
        st.sampled_from(EI_PARAMS),
        intervals_strategy(),
        intervals_strategy(),
    )
    def test_product_stays_in_lattice(self, p, x, y):
        out = ei_product(p, x, y)
        assert 0.0 <= out.lo <= out.hi <= 1.0

    @given(
        st.sampled_from(EI_PARAMS),
        intervals_strategy(),
        intervals_strategy(),
    )
    def test_residuum_stays_in_lattice(self, p, z, y):
        out = ei_residuum(p, z, y)
        assert 0.0 <= out.lo <= out.hi <= 1.0


class TestNegation:
    def test_unit(self):
        assert negate(Unit(0.4)) == Unit(0.6)

    def test_bottom_to_top(self):
        assert negate(Interval(0.0, 0.0)) == Interval(1.0, 1.0)

    def test_endpoint_flip(self):
        out = negate(Interval(0.2, 0.7))
        assert out.lo == pytest.approx(0.3) and out.hi == pytest.approx(0.8)

    @given(units, units)
    def test_antitone_unit(self, a, b):
        if leq(a, b):
            assert leq(negate(b), negate(a))

    @given(intervals, intervals)
    def test_antitone_interval(self, a, b):
        if leq(a, b):
            assert leq(negate(b), negate(a))

    @given(units)
    def test_involution_unit(self, a):
        assert negate(negate(a)).value == pytest.approx(a.value, abs=1e-15)

    @given(intervals)
    def test_involution_interval(self, a):
        out = negate(negate(a))
        assert out.lo == pytest.approx(a.lo, abs=1e-15)
        assert out.hi == pytest.approx(a.hi, abs=1e-15)


class TestSupAndAggregators:
    def test_sup_values(self):
        assert sup_value([Unit(0.4), Unit(0.18)], LatticeKind.UNIT) == Unit(0.4)

    def test_sup_empty_is_bottom(self):
        assert sup_value([], LatticeKind.UNIT) == bottom(LatticeKind.UNIT)
        assert sup_value([], LatticeKind.INTERVAL) == Interval(0.0, 0.0)

    def test_sup_componentwise(self):
        out = sup_value([Interval(0.1, 0.2), Interval(0.05, 0.4)], LatticeKind.INTERVAL)
        assert out == Interval(0.1, 0.4)

    def test_mean(self):
        assert agg_mean(Unit(0.2), Unit(0.4)).value == pytest.approx(0.3, abs=1e-15)

    def test_min_intervals(self):
        assert agg_min(Interval(0.1, 0.5), Interval(0.2, 0.4)) == Interval(0.1, 0.4)

    def test_max_singleton(self):
        assert agg_max(Unit(0.7)) == Unit(0.7)

    def test_empty_arguments_rejected(self):
        with pytest.raises(ValueError):
            agg_mean()


UNIT_PAIRS = [
    (godel_and, godel_imp),
    (product_and, product_imp),
    (lukasiewicz_and, lukasiewicz_imp),
]


class TestAdjointness:
    @given(units, units, units, st.sampled_from(range(len(UNIT_PAIRS))))
    @settings(max_examples=300)
    def test_unit_pairs(self, x, y, z, idx):
        conj, imp = UNIT_PAIRS[idx]
        check_adjoint(conj, imp, x, y, z)

    @given(
        st.sampled_from(EI_PARAMS),
        intervals_strategy(),
        intervals_strategy(),
        intervals_strategy(),
    )
    @settings(max_examples=300)
    def test_ei_pairs(self, p, x, y, z):
        conj = lambda a, b: ei_product(p, a, b)
        imp = lambda c, a: ei_residuum(p, c, a)
        check_adjoint(conj, imp, x, y, z)

    def test_resolved_pairs(self):
        # a unit tag resolves to its table pair; an ei tag builds its pair once
        assert adjoint_pair(LatticeKind.UNIT, "P") == (product_and, product_imp)
        p = EiParams(2, 1, 2, 1)
        pair = adjoint_pair(LatticeKind.INTERVAL, p)
        assert adjoint_pair(LatticeKind.INTERVAL, EiParams(2, 1, 2, 1)) is pair
        x, y = Interval(0.3, 0.8), Interval(0.5, 0.9)
        assert pair[0](x, y) == ei_product(p, x, y)
        assert pair[1](x, y) == ei_residuum(p, x, y)

    def test_resolver_caches_are_bounded(self):
        # both resolvers are keyed by ei tags read from input
        tags = [EiParams(a, 1, g, 1) for a in range(1, 16) for g in range(1, 21)]
        for tag in tags:
            adjoint_pair(LatticeKind.INTERVAL, tag)
            kernel(LatticeKind.INTERVAL, tag)
        assert len(tags) == 300
        assert adjoint_pair.cache_info().currsize <= 256
        assert kernel.cache_info().currsize <= 256


class TestBoundaryAndMonotonicity:
    @given(units)
    def test_unit_top_neutral(self, v):
        for conj, _ in UNIT_PAIRS:
            assert conj(top(LatticeKind.UNIT), v).value == pytest.approx(v.value, abs=1e-15)
            assert conj(v, top(LatticeKind.UNIT)).value == pytest.approx(v.value, abs=1e-15)

    @given(intervals)
    def test_star_top_neutral(self, v):
        star = adjoint_pair(LatticeKind.INTERVAL, STAR)[0]
        t = top(LatticeKind.INTERVAL)
        assert star(t, v) == v and star(v, t) == v

    def test_monotonicity_sampled(self):
        rng = random.Random(7)
        grid = [Unit(i / 10) for i in range(11)]
        for conj, imp in UNIT_PAIRS:
            for _ in range(200):
                a, b, c = (rng.choice(grid) for _ in range(3))
                if leq(a, b):
                    assert leq(conj(a, c), conj(b, c))
                    assert leq(conj(c, a), conj(c, b))
                    assert leq(imp(a, c), imp(b, c))  # monotone in the consequent
                    assert leq(imp(c, b), imp(c, a))  # antitone in the antecedent

    def test_ei_monotonicity_sampled(self):
        rng = random.Random(8)
        vals = [Interval(i / 4, j / 4) for i in range(5) for j in range(i, 5)]
        for p in EI_PARAMS:
            for _ in range(200):
                a, b, c = (rng.choice(vals) for _ in range(3))
                if leq(a, b):
                    assert leq(ei_product(p, a, c), ei_product(p, b, c))
                    assert leq(ei_product(p, c, a), ei_product(p, c, b))
                    assert leq(ei_residuum(p, a, c), ei_residuum(p, b, c))
                    assert leq(ei_residuum(p, c, b), ei_residuum(p, c, a))

    def test_aggregators_monotone_sampled(self):
        rng = random.Random(9)
        grid = [Unit(i / 10) for i in range(11)]
        for agg in (agg_min, agg_max, agg_mean):
            for _ in range(200):
                a, b, c = (rng.choice(grid) for _ in range(3))
                if leq(a, b):
                    assert leq(agg(a, c), agg(b, c))
