"""Brute-force reference solvers: enumeration, best response, MinSAT."""

from fractions import Fraction

import pytest

from mechdesign import (
    BudgetExceededError,
    default_reduction_params,
    CnfFormula,
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    brute_force_best_response_opt,
    brute_force_deterministic_opt,
    brute_force_envelope_opt,
    cost_best_response,
    enumerate_truthful_deterministic,
    gap_instance,
    minsat_brute,
    minsat_reduction_nontransitive,
    minsat_reduction_single_peaked,
    overhead_cost_oracle,
    random_instance,
)


def chain_instance():
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
        costs=CostMatrix([[4, 2, 7], [1, 5, 3]]),
    )


class TestEnumeration:
    def test_identity_relation_is_unconstrained(self):
        got = list(
            enumerate_truthful_deterministic(3, ReportingRelation.identity(2))
        )
        assert len(got) == 9
        assert len(set(got)) == 9

    def test_full_relation_forces_constant_assignments(self):
        got = sorted(
            enumerate_truthful_deterministic(3, ReportingRelation.full(2))
        )
        assert got == [(0, 0), (1, 1), (2, 2)]

    def test_one_way_claim_forces_dominance(self):
        rel = ReportingRelation(2, [(0, 0), (1, 1), (0, 1)])
        got = set(enumerate_truthful_deterministic(3, rel))
        assert got == {(a, b) for a in range(3) for b in range(3) if a >= b}

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            list(
                enumerate_truthful_deterministic(
                    4, ReportingRelation.identity(12), budget=1000
                )
            )


class TestDeterministicOpt:
    def test_chain_instance_by_hand(self):
        cost, assignment = brute_force_deterministic_opt(chain_instance())
        assert cost == Cost(3)
        assert assignment == (1, 0)

    def test_infinite_on_gap(self):
        cost, assignment = brute_force_deterministic_opt(gap_instance())
        assert not cost.is_finite
        # an argmin is still reported: some assignment witnessing the verdict
        assert assignment is not None

    def test_cost_oracle_override(self):
        inst = chain_instance()
        oracle = overhead_cost_oracle(inst, activation_cost=100)
        cost, assignment = brute_force_deterministic_opt(inst, cost_oracle=oracle)
        # the overhead makes any lift above the bottom outcome too dear
        assert assignment == (0, 0)
        assert cost == Cost(4 + 1)

    def test_flat_per_type_utilities_lift_all_constraints(self):
        inst = chain_instance()
        flat = [[1, 1, 1], [1, 1, 1]]
        cost, assignment = brute_force_deterministic_opt(inst, utilities=flat)
        # indifferent types make every assignment truthful, so the optimum
        # is the unconstrained row-minimum sum
        assert cost == Cost(2 + 1)
        assert assignment == (1, 0)
        common_cost, _ = brute_force_deterministic_opt(inst)
        assert common_cost == Cost(3)


class TestEnvelopeOpt:
    def test_gap_instance_is_free(self):
        cost, assignment = brute_force_envelope_opt(gap_instance())
        assert cost == Cost(0)
        assert assignment == (1, 1)

    def test_degenerate_row_infinite(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[Cost.infinite(), Cost.infinite()]]),
        )
        cost, assignment = brute_force_envelope_opt(inst)
        assert not cost.is_finite and assignment is None

    def test_never_exceeds_deterministic(self):
        for seed in range(20):
            inst = random_instance(
                seed=seed,
                type_count=3,
                outcome_count=3,
                edge_density=0.5,
                infinity_rate=0.1 if seed % 2 else 0.0,
            )
            rand_cost, _ = brute_force_envelope_opt(inst)
            det_cost, _ = brute_force_deterministic_opt(inst)
            assert rand_cost <= det_cost


class TestBestResponse:
    def test_untruthful_mechanism_can_be_cheaper(self):
        inst = chain_instance()
        br_cost, br_assignment = brute_force_best_response_opt(inst)
        det_cost, _ = brute_force_deterministic_opt(inst)
        assert br_cost <= det_cost
        # handing both types o_1 costs 2+1 under best-response play: type 0
        # keeps its own report since both claims pay the same utility
        assert br_cost == Cost(3)

    def test_honesty_breaks_ties(self):
        # type 1 is indifferent between the outcomes, so under assignment
        # (1, 0) it keeps its own report only if honesty wins ties; a
        # smallest-report rule would hand it outcome 1 at cost 100
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.full(2),
            costs=CostMatrix([[100, 0], [0, 100]]),
        )
        utilities = [[1, 2], [1, 1]]
        cost, assignment = brute_force_best_response_opt(inst, utilities=utilities)
        assert cost == Cost(0)
        assert assignment == (1, 0)

    def test_matches_truthful_cost_on_truthful_mechanisms(self):
        for seed in range(10):
            inst = random_instance(
                seed=40 + seed,
                type_count=3,
                outcome_count=3,
                edge_density=0.6,
            )
            cost, assignment = brute_force_deterministic_opt(inst)
            mech = DeterministicMechanism(assignment)
            assert (
                cost_best_response(mech, inst) == cost
            )


class TestMinsatBrute:
    def test_hand_counted_formulas(self):
        assert minsat_brute(CnfFormula(1, [(1,)])) == 0
        assert minsat_brute(CnfFormula(1, [(1,), (-1,)])) == 1
        assert minsat_brute(CnfFormula(1, [(1, -1)])) == 1
        assert minsat_brute(CnfFormula(2, [(1,), (2,), (-1, -2)])) == 1
        assert (
            minsat_brute(
                CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])
            )
            == 3
        )

    def test_duplicate_clauses_count_separately(self):
        assert minsat_brute(CnfFormula(1, [(1,), (1,)])) == 0
        assert minsat_brute(CnfFormula(1, [(1, -1), (1, -1)])) == 2

    def test_variable_limit(self):
        with pytest.raises(BudgetExceededError):
            minsat_brute(CnfFormula(25, [(1,)]))


class TestReductionIdentities:
    def test_nontransitive_reduction_smoke(self):
        for formula in (
            CnfFormula(1, [(1,), (-1,)]),
            CnfFormula(2, [(1, 2), (-1,), (-2,)]),
        ):
            inst = minsat_reduction_nontransitive(formula)
            cost, _ = brute_force_best_response_opt(inst)
            assert cost == Cost(minsat_brute(formula))

    def test_single_peaked_reduction_smoke(self):
        for formula in (
            CnfFormula(1, [(1,), (-1,)]),
            CnfFormula(2, [(1, -2), (2,)]),
        ):
            wrapped = minsat_reduction_single_peaked(formula)
            cost, _ = brute_force_deterministic_opt(
                wrapped.instance, utilities=wrapped.utilities
            )
            params = default_reduction_params(formula)
            expect = (
                formula.var_count * params.commit_cost + minsat_brute(formula)
            )
            assert cost == Cost(expect)
