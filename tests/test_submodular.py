"""Oracle-cost solvers: lattice checks, chains, gradients, determinization."""

import math
import random
from fractions import Fraction

import pytest

from mechdesign import (
    ChainDistribution,
    Cost,
    CostMatrix,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    additive_oracle,
    brute_force_deterministic_opt,
    chain_cost,
    gap_instance,
    in_truthful_lattice,
    interpret_marginals,
    is_submodular,
    join,
    meet,
    is_truthful,
    objective_subgradient,
    random_instance,
    solve_deterministic,
    solve_deterministic_submodular,
    solve_randomized,
    solve_randomized_submodular,
    table_oracle,
    uncross,
    determinize_binary,
)
from mechdesign.submodular import (
    chain_from_json,
    chain_to_json,
    chain_violations,
    lattice_index,
    lattice_points,
    oracle_from_json,
)

from conftest import (
    crossing_shuffle,
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
        assert oracle.bound == 8

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

    def test_unknown_backend_rejected(self):
        oracle = table_oracle([0, 1, 1, 2], 2, 2)
        with pytest.raises(ValueError):
            solve_deterministic_submodular(
                oracle, ReportingRelation.identity(2), backend="guess"
            )


class TestRandomizedSubmodular:
    @pytest.mark.slow
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
            backend="ellipsoid",
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

    def test_mismatched_ladder_rejected(self):
        oracle = table_oracle([0, 1, 1, 2], 2, 2)
        with pytest.raises(ValueError):
            solve_randomized_submodular(
                oracle, OutcomeSpace([1, 2, 3]), ReportingRelation.identity(2)
            )
