import random
import tracemalloc

import pytest

from manlp import (
    BudgetExceededError,
    EiParams,
    GridSpec,
    Interpretation,
    Interval,
    LatticeKind,
    Program,
    Prop,
    Rule,
    Unit,
    brute_force_residuum,
    brute_force_stable,
    ei_residuum,
    is_model,
    least_fixpoint,
    load_program,
    minimality_check,
    oracle,
    solve_unique,
    sup_norm,
)
from manlp.engine import DEFAULT_CONFIG, FixpointConfig
from conftest import unit_interp
from genprog import random_certified_program, random_program

UNIT = LatticeKind.UNIT
INTERVAL = LatticeKind.INTERVAL


def rand_interval(rng):
    a, b = rng.random(), rng.random()
    return Interval(min(a, b), max(a, b))


class TestGridSpec:
    def test_enumeration_sizes(self):
        g = GridSpec(10)
        assert g.enumeration_size(UNIT, 4) == 11**4
        assert g.enumeration_size(INTERVAL, 3) == 66**3

    def test_budget_refusal_carries_size(self):
        g = GridSpec(10, max_points=100)
        with pytest.raises(BudgetExceededError) as exc:
            g.check_budget(g.enumeration_size(UNIT, 4), "test scan")
        assert "14641" in str(exc.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0)


class TestBruteForceResiduum:
    def test_top_antecedent_returns_grid_z(self):
        p = EiParams(1, 1, 2, 1)
        out = brute_force_residuum(p, Interval(0.3, 0.6), Interval(1.0, 1.0), GridSpec(10))
        assert out == Interval(0.3, 0.6)

    def test_top_consequent(self):
        p = EiParams(2, 1, 3, 2)
        out = brute_force_residuum(p, Interval(1.0, 1.0), Interval(0.4, 0.7), GridSpec(10))
        assert out == Interval(1.0, 1.0)

    def test_agreement_with_closed_form(self):
        rng = random.Random(31)
        grid = GridSpec(200)
        for _ in range(40):
            p = EiParams(
                alpha := rng.randint(1, 4),
                rng.randint(1, alpha),
                gamma := rng.randint(1, 4),
                rng.randint(1, gamma),
            )
            z, y = rand_interval(rng), rand_interval(rng)
            closed = ei_residuum(p, z, y)
            grid_max = brute_force_residuum(p, z, y, grid)
            assert abs(closed.lo - grid_max.lo) <= grid.step + 1e-12
            assert abs(closed.hi - grid_max.hi) <= grid.step + 1e-12

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_force_residuum(
                EiParams(1, 1, 1, 1), Interval(0, 1), Interval(0, 1), GridSpec(10000, max_points=100)
            )


class TestBruteForceStable:
    def test_two_stable_program_members(self, unit_two_stable, model_m, model_m2):
        clusters = brute_force_stable(unit_two_stable, GridSpec(10))
        members = [i for c in clusters for i in c.members]
        assert model_m in members
        assert model_m2 in members

    def test_positive_program_single_cluster_at_lfp(self):
        rng = random.Random(32)
        found = 0
        for _ in range(6):
            prog = random_program(rng, kind=UNIT, max_symbols=3, max_rules=3, positive=True)
            lfp = least_fixpoint(prog)
            if not lfp.converged:
                continue
            clusters = brute_force_stable(prog, GridSpec(8))
            assert len(clusters) == 1
            assert sup_norm(clusters[0].representative, lfp.final) <= 2.0 / 8
            found += 1
        assert found >= 3

    def test_certified_program_single_cluster(self, interval_certified):
        clusters = brute_force_stable(interval_certified, GridSpec(6))
        assert len(clusters) == 1
        expected = solve_unique(interval_certified)
        assert any(sup_norm(mem, expected) <= 2.0 / 6 for mem in clusters[0].members)

    def test_empty_symbolless_program(self):
        prog = Program.of(INTERVAL, [])
        clusters = brute_force_stable(prog, GridSpec(10))
        assert len(clusters) == 1
        assert clusters[0].representative == Interpretation(INTERVAL, {})

    def test_budget_refused(self, unit_two_stable):
        with pytest.raises(BudgetExceededError):
            brute_force_stable(unit_two_stable, GridSpec(10, max_points=1000))

    def test_candidates_are_near_fixpoints_of_their_reducts(self, unit_two_stable):
        from manlp import reduct

        clusters = brute_force_stable(unit_two_stable, GridSpec(10))
        for cluster in clusters:
            for member in cluster.members:
                trace = least_fixpoint(reduct(unit_two_stable, member))
                assert sup_norm(trace.final, member) <= 0.1 + 1e-9


class TestChunkedEnumeration:
    # p's loop creeps towards 1 and never repeats exactly, so every chunk
    # stops only at the tolerance
    TOLERANCE_ONLY = "p <-P @mean(p, 1) ; 1\nq <-G not p ; 0.8\n"
    # at tolerance 0.3, points with q = 1 step by .5, .5, .25, .375, .1875 and
    # points with q = 0 reach a fixpoint at step 4: the first stop at step 3,
    # but the whole grid stops at step 5
    STEPS_RISE_AGAIN = "q <-G 1 ; 1\nx <-P @mean(x, 1) ; 1\nx <-G not q ; 1\nz <-G x ; 1\ny <-G x &L z ; 1\n"
    # no positive cycle: every chunk reaches an exact fixpoint
    EXACT = (
        "p <-ei(1,1,1,1) not q ; [0.7,0.9]\n"
        "q <-ei(2,1,3,2) not r * s ; [0.4,0.5]\n"
        "r <-ei(1,1,1,1) p * not s ; [0.5,0.6]\n"
        "s <-ei(1,1,1,1) not p ; [0.3,0.8]\n"
    )

    def test_chunk_size_does_not_change_clusters(
        self, monkeypatch, unit_basic, unit_two_stable, interval_certified
    ):
        cfgs = (DEFAULT_CONFIG, FixpointConfig(max_iterations=2))
        cases = [(prog, GridSpec(2), cfgs) for prog in (unit_basic, unit_two_stable, interval_certified)]
        rng = random.Random(3)
        cases += [(random_program(rng, max_symbols=3), GridSpec(2), cfgs) for _ in range(100)]
        cases.append((load_program(self.TOLERANCE_ONLY), GridSpec(20), cfgs))
        cases.append((load_program(self.STEPS_RISE_AGAIN), GridSpec(4), (FixpointConfig(tolerance=0.3),)))

        def outcomes():
            return [
                [(c.representative, c.members, repr(c.residual)) for c in brute_force_stable(prog, grid, cfg)]
                for prog, grid, cfgs in cases
                for cfg in cfgs
            ]

        expected = outcomes()
        for chunk in (1, 7):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            assert outcomes() == expected

    def test_memory_is_bounded_by_the_chunk(self):
        prog = load_program(self.EXACT)
        grid = GridSpec(6)
        assert grid.enumeration_size(prog.kind, len(prog.symbols)) == 614_656
        tracemalloc.start()
        try:
            clusters = brute_force_stable(prog, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clusters) == 1
        assert peak <= 24 * 2**20

    def test_heap_is_trimmed_once_the_chunks_are_freed(self, monkeypatch):
        prog = load_program(self.TOLERANCE_ONLY)
        grid = GridSpec(400)  # ten chunks, every one pending to the end
        expected = brute_force_stable(prog, grid)
        held_at_trim = []
        monkeypatch.setattr(oracle, "_MALLOC_TRIM", lambda pad: held_at_trim.append(tracemalloc.get_traced_memory()))
        tracemalloc.start()
        try:
            assert brute_force_stable(prog, grid) == expected
        finally:
            tracemalloc.stop()
        [(current, peak)] = held_at_trim
        assert current < peak / 8  # the pending iterates are gone by then

    def test_missing_malloc_trim_is_skipped(self, monkeypatch, unit_two_stable):
        expected = brute_force_stable(unit_two_stable, GridSpec(10))
        monkeypatch.setattr(oracle, "_MALLOC_TRIM", None)
        assert brute_force_stable(unit_two_stable, GridSpec(10)) == expected


def _pairwise_clusters(candidates, residuals, radius):
    """Single linkage by comparing every pair: the reference for ``_cluster``."""
    component = list(range(len(candidates)))
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            if sup_norm(candidates[a], candidates[b]) <= radius and component[a] != component[b]:
                old, new = component[b], component[a]
                component = [new if c == old else c for c in component]
    groups = {}
    for i, c in enumerate(component):
        groups.setdefault(c, []).append(i)
    clusters = []
    for members in groups.values():
        rep = min(members, key=lambda i: (residuals[i], oracle._canonical_key(candidates[i])))
        ordered = sorted(members, key=lambda i: oracle._canonical_key(candidates[i]))
        clusters.append(oracle.Cluster(candidates[rep], tuple(candidates[i] for i in ordered), residuals[rep]))
    return sorted(clusters, key=lambda c: oracle._canonical_key(c.representative))


class TestCluster:
    @pytest.mark.parametrize("kind", [UNIT, INTERVAL])
    def test_equals_pairwise_linkage(self, kind):
        # points on a coarse grid, some nudged by less than the slack of the
        # radius, with repeats and repeated residuals to exercise ties
        rng = random.Random(41)
        for _ in range(60):
            symbols = [f"a{i}" for i in range(rng.randint(1, 4))]
            resolution = rng.choice((2, 4, 8))
            step = 1.0 / resolution

            def value():
                x = rng.randint(0, resolution) * step
                if rng.random() < 0.3:
                    x = min(1.0, max(0.0, x + rng.choice((-1, 1)) * rng.choice((1e-13, 0.3 * step))))
                return x

            def interp():
                if kind is UNIT:
                    return Interpretation(kind, {s: Unit(value()) for s in symbols})
                return Interpretation(kind, {s: Interval(*sorted((value(), value()))) for s in symbols})

            candidates = [interp() for _ in range(rng.randint(0, 40))]
            candidates += rng.sample(candidates, min(3, len(candidates)))
            residuals = [rng.choice((0.0, 1e-10, rng.random() * 1e-9)) for _ in candidates]
            radius = 2.0 * step * rng.choice((0.25, 0.5, 1.0)) + 1e-12
            assert oracle._cluster(candidates, residuals, radius) == _pairwise_clusters(candidates, residuals, radius)

    def test_ring_where_every_point_qualifies(self):
        # at resolution 1 each of the 2^8 grid points qualifies and all are
        # one cluster
        text = "".join(f"a{i} <-G not a{(i + 1) % 8} ; 0.5\n" for i in range(8))
        [cluster] = brute_force_stable(load_program(text), GridSpec(1))
        assert len(cluster.members) == 256

    def test_no_symbols(self):
        empty = Interpretation(UNIT, {})
        [cluster] = oracle._cluster([empty, empty], [0.0, 0.0], 0.5)
        assert cluster.members == (empty, empty)


class TestMinimality:
    def test_known_stable_model_is_minimal(self, unit_two_stable, model_m):
        assert minimality_check(unit_two_stable, model_m, GridSpec(10))

    def test_top_is_not_minimal(self, unit_basic):
        top = Interpretation.top(UNIT, unit_basic.symbols)
        assert is_model(unit_basic, top)
        assert not minimality_check(unit_basic, top, GridSpec(10))

    def test_empty_program_bottom(self):
        prog = Program.of(UNIT, [])
        assert minimality_check(prog, Interpretation(UNIT, {}), GridSpec(10))

    def test_requires_model(self, unit_basic):
        bot = Interpretation.bottom(UNIT, unit_basic.symbols)
        with pytest.raises(ValueError):
            minimality_check(unit_basic, bot, GridSpec(10))


class TestCrossValidation:
    def test_search_results_appear_in_grid_clusters(self, unit_two_stable):
        from manlp import stable_search

        clusters = brute_force_stable(unit_two_stable, GridSpec(10))
        result = stable_search(unit_two_stable)
        for model, _ in result.found:
            assert any(
                sup_norm(model, member) <= 2.0 / 10
                for c in clusters
                for member in c.members
            )

    def test_certified_random_programs_unique_cluster(self):
        rng = random.Random(33)
        for _ in range(3):
            prog = random_certified_program(rng)
            clusters = brute_force_stable(prog, GridSpec(10))
            assert len(clusters) == 1
            expected = solve_unique(prog)
            assert any(
                sup_norm(member, expected) <= 2.0 / 10 for member in clusters[0].members
            )
