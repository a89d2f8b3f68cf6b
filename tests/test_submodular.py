"""Oracle-cost solvers: lattice checks, chains, gradients, determinization."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechdesign import (
    BudgetExceededError,
    ChainDistribution,
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    SelfCheckError,
    additive_oracle,
    brute_force_deterministic_opt,
    chain_cost,
    cost_deterministic,
    gap_instance,
    in_truthful_lattice,
    interpret_marginals,
    is_submodular,
    join,
    meet,
    is_truthful,
    objective_subgradient,
    overhead_cost_oracle,
    random_instance,
    solve_deterministic,
    solve_deterministic_submodular,
    solve_randomized,
    solve_randomized_submodular,
    table_oracle,
    uncross,
    determinize_binary,
)
from mechdesign import submodular
from mechdesign.submodular import (
    _chain,
    _integral,
    _peel_with_gradient,
    _solve_game,
    _truthful_flags,
    chain_from_json,
    chain_to_json,
    chain_violations,
    lattice_index,
    lattice_points,
    oracle_from_json,
)

from conftest import (
    concave_of_sum_table,
    crossing_shuffle,
    discount_pairs_table,
    peak_surcharge_table,
    product_coupling,
    random_exact_profile,
    random_float_profile,
    random_relation,
    random_submodular_table,
)


class TestLattice:
    def test_meet_join(self):
        assert meet((2, 0, 1), (1, 1, 1)) == (1, 0, 1)
        assert join((2, 0, 1), (1, 1, 1)) == (2, 1, 1)

    def test_lattice_index_matches_enumeration_order(self):
        pts = list(lattice_points(3, 2))
        assert len(pts) == 8
        for pos, pt in enumerate(pts):
            assert lattice_index(pt, 2) == pos

    def test_in_truthful_lattice(self):
        rel = ReportingRelation(2, [(0, 0), (1, 1), (0, 1)])
        assert in_truthful_lattice((1, 0), rel)
        assert in_truthful_lattice((1, 1), rel)
        assert not in_truthful_lattice((0, 1), rel)

    @given(
        n=st.integers(1, 5),
        extra=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
        point=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    )
    @example(n=1, extra=[], point=[0, 0, 0, 0, 0])
    @example(n=3, extra=[(0, 1), (1, 2), (2, 0)], point=[1, 1, 1, 0, 0])
    @example(n=3, extra=[(0, 1), (1, 2), (2, 0)], point=[2, 1, 1, 0, 0])
    @settings(max_examples=150, deadline=None)
    def test_in_truthful_lattice_follows_every_pair(self, n, extra, point):
        # Reflexive pairs, cycles and, for n=1, no claim at all.
        rel = ReportingRelation(n, [(i, i) for i in range(n)] + [(a % n, b % n) for a, b in extra])
        point = tuple(point[:n])
        expected = all(point[a] >= point[b] for a, b in rel.pairs)
        assert in_truthful_lattice(point, rel) == expected


class TestOracles:
    def test_table_oracle_lookup_and_counting(self):
        oracle = table_oracle([0, 1, 2, 3], 2, 2)
        assert oracle((0, 0)) == Cost(0)
        assert oracle((1, 1)) == Cost(3)
        assert oracle.query_count == 2

    def test_additive_oracle_values_and_bound(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.identity(2),
            costs=CostMatrix([[2, 5], [1, 3]]),
        )
        oracle = additive_oracle(inst)
        assert oracle((1, 0)) == Cost(6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_oracles_match_cost_deterministic(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        entries = [[Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(m)]
                   for _ in range(n)]
        gappy = [[float("inf") if rng.random() < 0.2 else c for c in row] for row in entries]
        for rows in (entries, gappy):
            inst = Instance(OutcomeSpace(range(m)), ReportingRelation.identity(n),
                            CostMatrix(rows))
            oracles = [(additive_oracle(inst), 0)]
            if rows is entries:
                oracles.append((overhead_cost_oracle(inst, Fraction(5, 3)), Fraction(5, 3)))
            for oracle, c0 in oracles:
                for point in lattice_points(n, m):
                    expect = cost_deterministic(DeterministicMechanism(point), inst)
                    assert oracle(point) == (expect + c0 if any(point) else expect)
                for point in ((0,) * (n - 1), (0,) * (n + 1)):
                    with pytest.raises(ValueError):
                        oracle(point)

    def test_oracle_json_round_trips(self):
        inst = random_instance(
            seed=0, type_count=2, outcome_count=2, edge_density=0.5
        )
        add = oracle_from_json({"kind": "additive"}, inst)
        assert add((1, 1)) == additive_oracle(inst)((1, 1))
        over = oracle_from_json(
            {"kind": "additive_plus_overhead", "c0": "7/2"}, inst
        )
        assert over((1, 0)) == add((1, 0)) + Cost(Fraction(7, 2))
        table = oracle_from_json(
            {"kind": "table", "values": [0, 1, 2, 3]}, inst
        )
        assert table((0, 1)) == Cost(1)
        assert table((1, 0)) == Cost(2)
        with pytest.raises(ValueError):
            oracle_from_json({"kind": "mystery"}, inst)


class TestSubmodularityCheck:
    def test_additive_is_submodular(self):
        inst = random_instance(
            seed=9, type_count=3, outcome_count=3, edge_density=0.5
        )
        verdict = is_submodular(additive_oracle(inst))
        assert verdict.ok and verdict.exhaustive and bool(verdict)
        assert verdict.witness is None

    def test_violation_comes_with_witness(self):
        # c(1,0) + c(0,1) < c(0,0) + c(1,1): strictly supermodular
        oracle = table_oracle([0, 0, 0, 5], 2, 2)
        verdict = is_submodular(oracle)
        assert not verdict.ok and not bool(verdict)
        a, b = verdict.witness
        assert meet(a, b) not in (a, b)
        assert float(oracle(a)) + float(oracle(b)) < float(
            oracle(meet(a, b))
        ) + float(oracle(join(a, b)))

    def test_sampled_mode_is_seeded(self):
        oracle = table_oracle(list(range(16)), 2, 4)
        v1 = is_submodular(oracle, mode="sampled", sample_count=50, seed=3)
        v2 = is_submodular(oracle, mode="sampled", sample_count=50, seed=3)
        assert v1.checked_pairs == v2.checked_pairs
        assert not v1.exhaustive

    def test_generated_families_pass(self):
        rng = random.Random(21)
        for _ in range(12):
            oracle = random_submodular_table(rng, rng.randint(2, 4), rng.randint(2, 3))
            assert is_submodular(oracle).ok


class TestChainDistribution:
    def test_marginals_recover_rows(self):
        dist = ChainDistribution(
            ((0, 0), (0, 1), (1, 1), (2, 2)),
            (Fraction(1, 4),) * 4,
        )
        assert chain_violations(dist) == []
        rows = dist.marginals(3)
        assert rows[0] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
        assert rows[1] == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]

    def test_violations_catch_crossing_support(self):
        crossed = ChainDistribution(
            ((0, 1), (1, 0)), (Fraction(1, 2), Fraction(1, 2))
        )
        assert any("ascending" in p for p in chain_violations(crossed))

    def test_violations_catch_bad_mass(self):
        short = ChainDistribution(((0, 0),), (Fraction(1, 2),))
        assert chain_violations(short)

    def test_json_round_trip(self):
        dist = ChainDistribution(
            ((0, 0), (1, 2)), (Fraction(1, 3), Fraction(2, 3))
        )
        back = chain_from_json(chain_to_json(dist))
        assert back.support == dist.support
        assert back.probs == dist.probs

    @pytest.mark.parametrize("vector", [[1.7, 0], [True, 0], ["1", 0]])
    def test_json_rejects_non_integer_indices(self, vector):
        bad = {"support": [{"vector": vector, "prob": 1}]}
        with pytest.raises(ValueError, match="not an index"):
            chain_from_json(bad)

    def test_nan_probability_is_a_violation(self):
        dist = ChainDistribution(((0, 0), (1, 1)), (float("nan"), 1.0))
        assert any("sum" in p for p in chain_violations(dist))
        with pytest.raises(ValueError, match="row 0"):
            interpret_marginals([[float("nan"), 1.0], [0.0, 1.0]])

    def test_json_rejects_crossed_support(self):
        bad = {
            "support": [
                {"vector": [0, 1], "prob": "1/2"},
                {"vector": [1, 0], "prob": "1/2"},
            ]
        }
        with pytest.raises(ValueError):
            chain_from_json(bad)


class TestInterpretMarginals:
    def test_quantile_chain_by_hand(self):
        rows = [
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
            [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)],
        ]
        dist = interpret_marginals(rows)
        assert dist.support == ((0, 0), (0, 1), (1, 1), (2, 2))
        assert dist.probs == (Fraction(1, 4),) * 4

    def test_exact_profiles_round_trip_exactly(self):
        rng = random.Random(31)
        for _ in range(50):
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            rows = random_exact_profile(rng, n, m)
            dist = interpret_marginals(rows)
            assert chain_violations(dist) == []
            assert dist.marginals(m) == rows

    def test_float_profiles_round_trip_tightly(self):
        rng = random.Random(32)
        for _ in range(50):
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            rows = random_float_profile(rng, n, m)
            dist = interpret_marginals(rows)
            back = dist.marginals(m)
            for i in range(n):
                for j in range(m):
                    assert math.isclose(
                        float(back[i][j]), rows[i][j], abs_tol=1e-12
                    )

    def test_support_size_bound(self):
        rng = random.Random(33)
        for _ in range(30):
            n, m = rng.randint(1, 5), rng.randint(2, 4)
            dist = interpret_marginals(random_exact_profile(rng, n, m))
            assert len(dist.support) <= n * (m - 1) + 1

    def test_value_and_support_come_from_one_walk(self):
        # Coarse grains leave outcomes without mass, which the walk crosses
        # on zero-mass points that the interpretation drops.
        rng = random.Random(34)
        with_zeros = 0
        for trial in range(80):
            n, m = rng.randint(1, 5), rng.randint(2, 4)
            rows = random_exact_profile(rng, n, m, grain=rng.choice([2, 3, 4, 24]))
            with_zeros += any(p == 0 for row in rows for p in row)
            if trial % 2:
                oracle = random_submodular_table(rng, n, m)
            else:
                inst = random_instance(
                    seed=700 + trial, type_count=n, outcome_count=m,
                    edge_density=0.0,
                )
                oracle = overhead_cost_oracle(inst, rng.randint(0, 10))
            value, _, (points, _, _), _ = _peel_with_gradient(_integral(rows), oracle)
            dist = interpret_marginals(rows)
            assert value == chain_cost(dist, oracle).value
            assert all(p > 0 for p in dist.probs)
            # The support lies on the walked chain, in the reverse order.
            positions = [points.index(pt) for pt in dist.support]
            assert positions == sorted(positions, reverse=True)
        assert with_zeros >= 40


class TestChainCost:
    def test_exact_additive_value(self):
        dist = ChainDistribution(
            ((0, 0), (0, 1), (1, 1), (2, 2)), (Fraction(1, 4),) * 4
        )
        inst = Instance(
            outcomes=OutcomeSpace([1, 2, 3]),
            relation=ReportingRelation.identity(2),
            costs=CostMatrix([[0, 2, 5], [1, 3, 4]]),
        )
        assert chain_cost(dist, additive_oracle(inst)) == Cost(Fraction(9, 2))

    def test_infinite_entry_propagates(self):
        oracle = table_oracle([0, Cost.infinite(), 1, 2], 2, 2)
        dist = ChainDistribution(
            ((0, 0), (0, 1)), (Fraction(1, 2), Fraction(1, 2))
        )
        assert not chain_cost(dist, oracle).is_finite


class TestSubgradient:
    def test_additive_directional_differences(self):
        rng = random.Random(41)
        for trial in range(20):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            inst = random_instance(
                seed=600 + trial,
                type_count=n,
                outcome_count=m,
                edge_density=0.0,
            )
            oracle = additive_oracle(inst)
            rows = (
                random_exact_profile(rng, n, m)
                if trial % 2
                else random_float_profile(rng, n, m)
            )
            # interior profiles only: a zero-mass coordinate never enters the
            # traced linear piece, so its entry carries no information
            rows = [
                [0.9 * float(x) + 0.1 / m for x in row] for row in rows
            ]
            grad = objective_subgradient(rows, oracle)
            for i in range(n):
                for j in range(m):
                    for k in range(m):
                        want = float(inst.costs.rows[i][j]) - float(
                            inst.costs.rows[i][k]
                        )
                        assert grad[i][j] - grad[i][k] == pytest.approx(
                            want, abs=1e-9
                        )

    def test_matches_finite_differences_on_tables(self):
        rng = random.Random(42)
        for _ in range(10):
            n, m = rng.randint(2, 3), rng.randint(2, 3)
            oracle = random_submodular_table(rng, n, m)

            def value(rows):
                return float(
                    chain_cost(interpret_marginals(rows), oracle)
                )

            rows = random_float_profile(rng, n, m)
            grad = objective_subgradient(rows, oracle)
            h = 1e-6
            for _ in range(5):
                i = rng.randrange(n)
                j, k = rng.sample(range(m), 2)
                if min(rows[i][j], rows[i][k]) < 1e-3:
                    continue
                up = [row[:] for row in rows]
                dn = [row[:] for row in rows]
                up[i][j] += h
                up[i][k] -= h
                dn[i][j] -= h
                dn[i][k] += h
                fd = (value(up) - value(dn)) / (2 * h)
                assert grad[i][j] - grad[i][k] == pytest.approx(fd, abs=1e-4)

    @pytest.mark.parametrize("kind", ["table", "overhead"])
    def test_subgradient_inequality_on_profiles_with_zero_entries(self, kind):
        # f(q) >= f(p) + <g, q - p> for the extension f and the peel
        # subgradient g at p, also where p has outcomes without mass.
        rng = random.Random(43)

        def sparse_profile(n, m):
            rows = []
            for row in random_float_profile(rng, n, m):
                keep = rng.randrange(m)
                row = [x if j == keep or rng.random() < 0.5 else 0.0
                       for j, x in enumerate(row)]
                rows.append([x / sum(row) for x in row])
            return rows

        for trial in range(40):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            if kind == "table":
                oracle = random_submodular_table(rng, n, m)
            else:
                inst = random_instance(
                    seed=900 + trial, type_count=n, outcome_count=m,
                    edge_density=0.0,
                )
                oracle = overhead_cost_oracle(inst, rng.randint(1, 10))

            def value(rows):
                return float(chain_cost(interpret_marginals(rows), oracle))

            p = sparse_profile(n, m)
            grad = objective_subgradient(p, oracle)
            base = value(p)
            for _ in range(10):
                q = sparse_profile(n, m)
                linear = base + sum(
                    grad[i][j] * (q[i][j] - p[i][j])
                    for i in range(n)
                    for j in range(m)
                )
                assert value(q) >= linear - 1e-9


class TestUncross:
    def test_chain_input_is_fixed_point(self):
        rng = random.Random(51)
        rows = random_exact_profile(rng, 3, 3)
        dist = interpret_marginals(rows)
        again = uncross(dist)
        assert again.support == dist.support
        assert again.probs == dist.probs

    def test_product_coupling_uncrosses_to_quantile_chain(self):
        rng = random.Random(52)
        for _ in range(15):
            n, m = rng.randint(2, 3), rng.randint(2, 3)
            rows = random_exact_profile(rng, n, m)
            items = product_coupling(rows)
            oracle = random_submodular_table(rng, n, m)
            before = chain_cost(items, oracle)
            dist = uncross(items, oracle)
            assert chain_violations(dist) == []
            assert dist.marginals(m) == rows
            assert chain_cost(dist, oracle) <= before
            expect = interpret_marginals(rows)
            assert dist.support == expect.support
            assert dist.probs == expect.probs

    def test_shuffled_chain_restores_identically(self):
        rng = random.Random(53)
        for _ in range(15):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            rows = random_exact_profile(rng, n, m)
            expect = interpret_marginals(rows)
            items = crossing_shuffle(expect.items(), rng, swaps=4)
            dist = uncross(items)
            assert dist.support == expect.support
            assert dist.probs == expect.probs


class TestDeterminizeBinary:
    def test_threshold_family_by_hand(self):
        rows = [[Fraction(1, 4), Fraction(3, 4)], [Fraction(1, 2), Fraction(1, 2)]]
        dist = interpret_marginals(rows)
        oracle = table_oracle([5, 3, 3, 1], 2, 2)
        rel = ReportingRelation(2, [(0, 0), (1, 1), (0, 1)])
        mech, cost = determinize_binary(dist, rel, oracle)
        assert cost == Cost(1)
        assert mech.assignment == (1, 1)

    def test_rejects_wide_oracles(self):
        oracle = table_oracle(list(range(9)), 2, 3)
        dist = interpret_marginals([[1, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            determinize_binary(dist, ReportingRelation.identity(2), oracle)

    @pytest.mark.parametrize(
        "items",
        [
            # Type 0's marginal sums to 0.6000000000000001, type 1's to 0.6.
            [((1, 0), 0.1), ((0, 1), 0.3), ((1, 1), 0.2), ((1, 0), 0.3), ((0, 1), 0.1)],
            # A solver-sized excess of 4e-10, still inside the snap.
            [((1, 0), 0.1 + 4e-10), ((0, 1), 0.1), ((1, 1), 0.5), ((0, 0), 0.3 - 4e-10)],
        ],
        ids=["summation-order", "solver-round-off"],
    )
    @pytest.mark.parametrize("table", [[4, 9, 9, 2], [1, 9, 9, 5], [3, 9, 9, 3]])
    def test_float_snap_matches_exact_twin(self, items, table):
        # Type 1 may claim type 0, so it must sit at least as high; its float
        # marginal falls short of type 0's by less than the snap tolerance.
        rel = ReportingRelation(2, [(0, 0), (1, 1), (1, 0)])
        oracle = table_oracle(table, 2, 2)
        marginals = [sum(p for pt, p in items if pt[i]) for i in range(2)]
        assert 0 < marginals[0] - marginals[1] <= submodular.BREAKPOINT_CLUSTER_TOL
        twin = [(pt, Fraction(p).limit_denominator(10)) for pt, p in items]
        assert sum(p for pt, p in twin if pt[0]) == sum(p for pt, p in twin if pt[1])
        assert determinize_binary(items, rel, oracle) == determinize_binary(twin, rel, oracle)

    def test_rejects_untruthful_marginals(self):
        rows = [[Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 4)]]
        dist = interpret_marginals(rows)
        rel = ReportingRelation(2, [(0, 0), (1, 1), (0, 1)])
        oracle = table_oracle([0, 1, 2, 3], 2, 2)
        with pytest.raises(ValueError):
            determinize_binary(dist, rel, oracle)


class TestDeterministicSubmodular:
    def test_brute_matches_matrix_solver_on_additive(self):
        for seed in range(10):
            inst = random_instance(
                seed=700 + seed,
                type_count=3,
                outcome_count=3,
                edge_density=0.5,
            )
            sol = solve_deterministic_submodular(
                additive_oracle(inst), inst.relation, backend="brute"
            )
            assert Cost(sol.cost) == solve_deterministic(inst).cost

    def test_lovasz_matches_brute_on_random_tables(self):
        rng = random.Random(61)
        for _ in range(20):
            n, m = rng.randint(2, 4), rng.randint(2, 3)
            oracle = random_submodular_table(rng, n, m)
            rel = random_relation(rng, n, 0.4)
            brute = solve_deterministic_submodular(oracle, rel, backend="brute")
            fast = solve_deterministic_submodular(oracle, rel, backend="lovasz")
            assert in_truthful_lattice(fast.point, rel)
            assert abs(float(fast.cost) - float(brute.cost)) <= 1e-6

    def test_lovasz_gap_is_sound(self):
        # Densities 0.5 and 0.9 draw cycles, whose types every truthful
        # vector holds equal.
        rng = random.Random(2024)
        for k in range(300):
            n, m = rng.randint(1, 5), rng.randint(2, 4)
            oracle = random_submodular_table(rng, n, m)
            rel = random_relation(rng, n, (0.2, 0.5, 0.9)[k % 3])
            brute = solve_deterministic_submodular(oracle, rel, backend="brute")
            fast = solve_deterministic_submodular(oracle, rel, backend="lovasz")
            cost, best = float(fast.cost), float(brute.cost)
            assert in_truthful_lattice(fast.point, rel)
            assert fast.gap >= 0
            assert cost - fast.gap - 1e-9 <= best <= cost
            assert cost - best <= 1e-6

    def test_two_cycle_forces_equal_outcomes(self):
        # Alone, type 0 wants outcome 0 and type 1 outcome 1; the 2-cycle
        # leaves only the diagonal, whose cheapest point is (2, 2).
        rows = [[0, 5, 1], [4, 0, 2]]
        values = [rows[0][a] + rows[1][b] for a, b in lattice_points(2, 3)]
        oracle = table_oracle(values, 2, 3)
        rel = ReportingRelation(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
        sol = solve_deterministic_submodular(oracle, rel)
        assert sol.point == (2, 2)
        assert sol.cost == Cost(3)
        assert sol.gap == 0

    def test_one_iteration_still_bounds_its_excess(self):
        # One step lands on a vector 1.25 above the optimum here.
        rng = random.Random(0)
        oracle = random_submodular_table(rng, 4, 3)
        rel = random_relation(rng, 4, 0.4)
        brute = solve_deterministic_submodular(oracle, rel, backend="brute")
        sol = solve_deterministic_submodular(oracle, rel, max_iters=1)
        assert sol.iterations == 1
        assert in_truthful_lattice(sol.point, rel)
        assert sol.gap >= 0
        excess = float(sol.cost) - float(brute.cost)
        assert 0 <= excess <= sol.gap + 1e-9

    def test_overhead_oracle_at_n8_m4(self):
        n, m = 8, 4
        inst = random_instance(
            seed=71, type_count=n, outcome_count=m, edge_density=0.0
        )
        oracle = overhead_cost_oracle(inst, 5)
        rel = ReportingRelation(
            n, [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
        )
        brute = solve_deterministic_submodular(oracle, rel, backend="brute")
        fast = solve_deterministic_submodular(oracle, rel, backend="lovasz")
        assert in_truthful_lattice(fast.point, rel)
        assert abs(float(fast.cost) - float(brute.cost)) <= 1e-6
        assert float(fast.cost) - fast.gap - 1e-9 <= float(brute.cost)

    def test_brute_matches_the_enumeration_oracle(self):
        # Tables with infinite values and many ties: the brute backend keeps
        # the first strict minimum in the enumerator's order and queries each
        # truthful vector once, as ``brute_force_deterministic_opt`` does.
        rng = random.Random(1818)
        INF = Cost.infinite()
        for k in range(600):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            values = [
                INF if rng.random() < 0.1 else Fraction(rng.randint(0, 6), rng.randint(1, 2))
                for _ in range(m**n)
            ]
            rel = random_relation(rng, n, (0.2, 0.5, 0.9)[k % 3])
            inst = Instance(OutcomeSpace(range(m)), rel, CostMatrix([[0] * m] * n))
            backend, reference = table_oracle(values, n, m), table_oracle(values, n, m)
            sol = solve_deterministic_submodular(backend, rel, backend="brute")
            cost, point = brute_force_deterministic_opt(inst, cost_oracle=reference)
            assert (sol.point, sol.cost) == (point, cost)
            assert backend.query_count == reference.query_count

    def test_brute_over_budget(self):
        oracle = table_oracle(list(range(27)), 3, 3)
        with pytest.raises(BudgetExceededError, match="enumeration needs 27 states"):
            solve_deterministic_submodular(
                oracle, ReportingRelation.identity(3), backend="brute", budget=26
            )
        assert oracle.query_count == 0

    def test_unknown_backend_rejected(self):
        oracle = table_oracle([0, 1, 1, 2], 2, 2)
        with pytest.raises(ValueError):
            solve_deterministic_submodular(
                oracle, ReportingRelation.identity(2), backend="guess"
            )


class TestRandomizedSubmodular:
    def test_additive_matches_envelope_solver(self):
        for seed in (800, 801, 802):
            inst = random_instance(
                seed=seed, type_count=3, outcome_count=3, edge_density=0.5
            )
            exact = solve_randomized(inst).cost
            sol = solve_randomized_submodular(
                additive_oracle(inst),
                inst.outcomes,
                inst.relation,
                eps=5e-3,
            )
            assert sol.converged
            assert chain_violations(sol.chain) == []
            slack = float(sol.cost) - float(exact)
            assert -1e-9 <= slack <= 5e-3 + 1e-9

    def test_ellipsoid_backend_agrees(self):
        inst = random_instance(
            seed=810, type_count=2, outcome_count=3, edge_density=0.7
        )
        exact = solve_randomized(inst).cost
        sol = solve_randomized_submodular(
            additive_oracle(inst),
            inst.outcomes,
            inst.relation,
            eps=1e-3,
        )
        assert sol.converged
        assert float(sol.cost) - float(exact) <= 1e-3 + 1e-9

    def test_chain_marginals_respect_relation(self):
        rng = random.Random(62)
        oracle = random_submodular_table(rng, 3, 3)
        rel = ReportingRelation(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
        sol = solve_randomized_submodular(
            oracle, OutcomeSpace([1, 2, 3]), rel, eps=1e-2
        )
        rows = sol.chain.marginals(3)
        utilities = [1, 2, 3]

        def mean_utility(i):
            return sum(u * float(p) for u, p in zip(utilities, rows[i]))

        for a, b in rel.pairs:
            if a != b:
                assert mean_utility(a) >= mean_utility(b) - 1e-6

    @pytest.mark.parametrize("eps", [float("nan"), -1, 0, float("inf")])
    def test_eps_must_be_finite_and_positive(self, eps):
        oracle = table_oracle([0, 1, 1, 2], 2, 2)
        with pytest.raises(ValueError, match="eps"):
            solve_randomized_submodular(
                oracle, OutcomeSpace([0, 1]), ReportingRelation.identity(2), eps=eps
            )

    def test_mismatched_ladder_rejected(self):
        oracle = table_oracle([0, 1, 1, 2], 2, 2)
        with pytest.raises(ValueError):
            solve_randomized_submodular(
                oracle, OutcomeSpace([1, 2, 3]), ReportingRelation.identity(2)
            )

    def test_gap_is_certified(self):
        rng = random.Random(63)
        for _ in range(10):
            oracle = random_submodular_table(rng, 3, 3)
            rel = random_relation(rng, 3, 0.5)
            sol = solve_randomized_submodular(
                oracle, OutcomeSpace([0, 1, 2]), rel, eps=1e-3
            )
            assert sol.converged
            assert 0 <= sol.gap_estimate <= 5e-4


class TestDeepCutCertificates:
    """The double oracle's exact gaps stay sound: a seeded
    differential over integer and rational costs with chain, cyclic and
    one-type relations."""

    @staticmethod
    def relations(rng, n):
        chain = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
        yield ReportingRelation(n, chain)
        if n > 1:
            # 0 -> min(2, n-1) closes a cycle: a class of mutually reaching types.
            yield ReportingRelation(n, chain + [(0, min(2, n - 1))])
            yield random_relation(rng, n, 0.5)

    @staticmethod
    def exact_table(rng, n, m, denominator):
        """Additive part, a concave charge on the highest level and a
        discount in pairwise minima: submodular, on a 1/denominator grid."""
        add = [
            [Fraction(rng.randint(0, 8 * denominator), denominator) for _ in range(m)]
            for _ in range(n)
        ]
        steps = sorted(
            (Fraction(rng.randint(1, 4 * denominator), denominator) for _ in range(m - 1)),
            reverse=True,
        )
        charge = [Fraction(0)]
        for step in steps:
            charge.append(charge[-1] + step)
        mu = Fraction(rng.randint(0, denominator), denominator)
        values = []
        for pt in lattice_points(n, m):
            pairs = sum(min(pt[i], pt[j]) for i in range(n) for j in range(i + 1, n))
            values.append(
                sum(add[i][pt[i]] for i in range(n)) + charge[max(pt)]
                + mu * ((m - 1) * n * n - pairs)
            )
        return add, table_oracle(values, n, m)

    def test_gaps_bound_the_exact_optima(self):
        rng = random.Random(4242)
        cases = 0
        for n, denominator, _ in itertools.product(range(1, 6), (1, 6), range(3)):
            m = rng.randint(2, 4)
            add, oracle = self.exact_table(rng, n, m, denominator)
            utilities = sorted(rng.sample(range(12), m))
            for rel in self.relations(rng, n):
                cases += 1
                brute = solve_deterministic_submodular(oracle, rel, backend="brute")
                fast = solve_deterministic_submodular(oracle, rel)
                assert in_truthful_lattice(fast.point, rel)
                assert fast.gap >= 0
                assert float(fast.cost) - fast.gap - 1e-9 <= float(brute.cost)
                exact = solve_deterministic_submodular(oracle, rel)
                assert exact.cost == brute.cost
                assert in_truthful_lattice(exact.point, rel)

                inst = Instance(OutcomeSpace(utilities), rel, CostMatrix(add))
                optimum = float(solve_randomized(inst).cost)
                eps = 1e-2
                sol = solve_randomized_submodular(
                    additive_oracle(inst), inst.outcomes, rel, eps=eps
                )
                assert sol.converged
                assert 0 <= sol.gap_estimate <= eps / 2
                assert float(sol.cost) - sol.gap_estimate - 1e-9 <= optimum
                assert optimum <= float(sol.cost) + 1e-7
                assert float(sol.cost) <= optimum + eps
        assert cases == 78


class TestNonSubmodularTables:
    def test_negative_gap_is_a_self_check_failure(self):
        # On this 2x3 table the exact lower bound ends 1 above the cheapest
        # truthful cost the peel finds, so both solvers used to report gap -1.
        values = [4, 4, 0, 7, 8, 5, 4, 3, 9]
        relation = ReportingRelation(2, [(0, 0), (1, 1), (1, 0)])
        assert not is_submodular(table_oracle(values, 2, 3))
        with pytest.raises(SelfCheckError, match="not submodular"):
            solve_deterministic_submodular(table_oracle(values, 2, 3), relation)
        with pytest.raises(SelfCheckError, match="not submodular"):
            solve_randomized_submodular(
                table_oracle(values, 2, 3), OutcomeSpace(range(3)), relation, eps=1e-2
            )


class TestDoubleOracle:
    """The exact double oracle against the lattice scan and the envelope cut
    on seeded hostile tables: the three ``conftest`` families and
    ``TestDeepCutCertificates.exact_table``, ``m`` from 1 to 4, and chain,
    cyclic, full, identity and one-type relations."""

    @staticmethod
    def relations(rng, n):
        chain = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
        yield ReportingRelation(n, chain)
        yield ReportingRelation(n, chain + [(0, n - 1)])  # every type reaches every other
        yield ReportingRelation.full(n)
        yield ReportingRelation.identity(n)
        yield random_relation(rng, n, 0.5)

    @staticmethod
    def tables(rng, n, m):
        yield None, concave_of_sum_table(rng, n, m)
        yield None, peak_surcharge_table(rng, n, m)
        yield None, discount_pairs_table(rng, n, m)
        yield TestDeepCutCertificates.exact_table(rng, n, m, rng.choice((1, 6)))

    def test_game_strategies_certify_each_other(self):
        # By LP duality the two strategies are optimal exactly when the row
        # player's guaranteed payoff equals the column player's.
        assert _solve_game([[1, -1], [-1, 1]]) == (
            [Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2
        )
        rng = random.Random(1104)
        for k in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            game = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if k % 3 else rng.randint(0, 1)
                 for _ in range(cols)]
                for _ in range(rows)
            ]
            w, v = _solve_game(game)
            assert sum(w) == sum(v) == 1
            assert min(w) >= 0 and min(v) >= 0
            floor = min(sum(w[a] * game[a][b] for a in range(rows)) for b in range(cols))
            ceiling = max(sum(v[b] * game[a][b] for b in range(cols)) for a in range(rows))
            assert floor == ceiling

    def test_exact_on_hostile_tables(self):
        rng = random.Random(1103)
        eps = 1e-2
        cases = 0
        for n, m in itertools.product(range(1, 6), range(1, 5)):
            utilities = sorted(rng.sample(range(12), m))
            for add, oracle in self.tables(rng, n, m):
                for rel in self.relations(rng, n):
                    cases += 1
                    brute = solve_deterministic_submodular(oracle, rel, backend="brute")
                    det = solve_deterministic_submodular(oracle, rel)
                    assert det.cost == brute.cost
                    assert det.gap == 0
                    assert in_truthful_lattice(det.point, rel)

                    sol = solve_randomized_submodular(
                        oracle, OutcomeSpace(utilities), rel, eps=eps
                    )
                    assert sol.converged
                    assert 0 <= sol.gap_estimate <= eps / 2
                    assert chain_violations(sol.chain) == []
                    # Truthful vectors are truthful lotteries.
                    assert sol.cost <= det.cost
                    if add is None:
                        continue
                    inst = Instance(OutcomeSpace(utilities), rel, CostMatrix(add))
                    optimum = solve_randomized(inst).cost.value
                    sol = solve_randomized_submodular(
                        additive_oracle(inst), inst.outcomes, rel, eps=eps
                    )
                    assert sol.converged
                    assert optimum <= sol.cost.value <= optimum + Fraction(eps) / 2
        assert cases == 400



def _fraction_bland_game(game):
    """The ``Fraction`` Bland simplex that ``_solve_game`` replaced, kept as
    the reference for its pivot path; also counts the ratio-test ties."""
    K, L = len(game), len(game[0])
    shift = 1 - min(min(row) for row in game)
    tableau = [
        [Fraction(x + shift) for x in row] + [Fraction(r == k) for r in range(K)] + [Fraction(1)]
        for k, row in enumerate(game)
    ]
    objective = [Fraction(-1)] * L + [Fraction(0)] * (K + 1)
    basis = list(range(L, L + K))
    ties = 0
    while True:
        enter = next((j for j in range(L + K) if objective[j] < 0), None)
        if enter is None:
            break
        ratios = [(tableau[r][-1] / tableau[r][enter], basis[r], r)
                  for r in range(K) if tableau[r][enter] > 0]
        _, _, leave = min(ratios)
        ties += [ratio for ratio, _, _ in ratios].count(min(ratios)[0]) > 1
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        pivot_row[:] = [x / pivot for x in pivot_row]
        for row in tableau + [objective]:
            if row is not pivot_row and row[enter]:
                factor = row[enter]
                row[:] = [x - factor * y for x, y in zip(row, pivot_row)]
        basis[leave] = enter
    total = objective[-1]
    columns = [Fraction(0)] * L
    for r, b in enumerate(basis):
        if b < L:
            columns[b] = tableau[r][-1] / total
    return ([x / total for x in objective[L:L + K]], columns), ties


def _min_walk(rows):
    """The ``min``-based walk that ``_chain``'s heap replaced."""
    n, m = len(rows), len(rows[0])
    tails = [list(itertools.accumulate(reversed(row)))[::-1] for row in rows]
    tops = [m - 1] * n
    points, leaders, masses = [tuple(tops)], [], []
    reached = 0
    for _ in range(n * (m - 1)):
        leader = min((i for i in range(n) if tops[i]), key=lambda i: tails[i][tops[i]])
        left = tails[leader][tops[leader]]
        masses.append(left - reached)
        reached = left
        tops[leader] -= 1
        leaders.append(leader)
        points.append(tuple(tops))
    masses.append(min(tail[0] for tail in tails) - reached)
    return points, leaders, masses


@st.composite
def _walk_rows(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = draw(st.sampled_from([
        st.integers(0, 3),  # ties and zero-mass outcomes
        st.fractions(0, 2, max_denominator=6),
        st.floats(-1e-12, 1) | st.sampled_from([0.0, 0.25, 0.5]),
    ]))
    return [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]


class TestIntegerDoubleOracle:
    """The integer pieces of the double oracle against the ``Fraction`` code
    they replaced: the same pivots, walks and truthful points."""

    @staticmethod
    def game(rng, k):
        K, L = rng.randint(1, 8), rng.randint(1, 8)
        big = [2**64 + 1, 2**64 + 13, 3 * 2**65 + 7]
        entries = [
            lambda: rng.randint(-5, 5),
            lambda: Fraction(rng.randint(-9, 9) * rng.choice(big) + rng.randint(-3, 3),
                             rng.choice(big)),  # denominators above 2**64
            lambda: rng.choice([0, 1]),  # few values, so many ratios tie
            lambda: rng.choice([0, Fraction(1, 2), 1, Fraction(2, 3)]),
        ]
        game = [[entries[k % 4]() for _ in range(L)] for _ in range(K)]
        if k % 3 == 1:  # all-equal rows, or all-equal columns
            game = [list(game[0]) for _ in range(K)] if k % 2 else [[row[0]] * L for row in game]
        if k % 7 == 0:  # one value everywhere
            game = [[game[0][0]] * L for _ in range(K)]
        return game

    def test_game_matches_the_fraction_simplex(self):
        rng = random.Random(2001)
        ties = sizes = 0
        for k in range(1200):
            game = self.game(rng, k)
            expected, tied = _fraction_bland_game(game)
            assert _solve_game(game) == expected, f"game {k}: {game}"
            ties += tied
            sizes |= 1 << (8 * (len(game) - 1) + len(game[0]) - 1)
        assert ties > 200
        assert sizes == 2**64 - 1  # every size from 1x1 to 8x8

    @settings(max_examples=400, deadline=None)
    @given(_walk_rows())
    @example([[Fraction(1)]])
    @example([[0, 0, 1]])
    @example([[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    @example([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]])
    def test_heap_walk_matches_the_min_walk(self, rows):
        assert _chain(rows) == _min_walk(rows)

    @staticmethod
    def relations(rng, n):
        yield ReportingRelation.full(n)
        yield ReportingRelation.identity(n)
        cycle = [(i, (i + 1) % n) for i in range(n)]
        yield ReportingRelation(n, cycle + [(i, i) for i in range(n)])
        for density in (0.2, 0.5):
            yield random_relation(rng, n, density)

    def test_truthful_flags_follow_every_claim(self):
        rng = random.Random(2002)
        mixed = 0
        for trial in range(150):
            n, m = rng.randint(1, 6), rng.randint(1, 5)
            rows = random_exact_profile(rng, n, m, grain=rng.choice([2, 3, 24]))
            points, leaders, _ = _chain(rows)
            for rel in self.relations(rng, n):
                flags = _truthful_flags(points, leaders, rel)
                assert flags == [in_truthful_lattice(p, rel) for p in points], (rows, rel)
                mixed += 0 < sum(flags) < len(flags)
        assert mixed > 100

    def test_sub_det_never_scans_the_relation_per_point(self, monkeypatch):
        inst = random_instance(seed=2003, type_count=300, outcome_count=3, edge_density=0.004)
        assert len(inst.relation.claims) > 100

        def refuse(point, relation):
            raise AssertionError("in_truthful_lattice called")

        monkeypatch.setattr(submodular, "in_truthful_lattice", refuse)
        sol = solve_deterministic_submodular(additive_oracle(inst), inst.relation)
        assert sol.gap == 0
        assert sol.cost == solve_deterministic(inst).cost
