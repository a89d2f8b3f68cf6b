"""Acceptance suite: one criterion per test, one printed verdict line each.

Every test computes its verdict, registers a single ``ACCEPTANCE`` line for
the end-of-run report (and prints it immediately when capture is off), and
only then asserts — so the report is complete even when a criterion fails.
"""

import csv
import itertools
import math
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from mechdesign import (
    CnfFormula,
    Cost,
    CostMatrix,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    additive_oracle,
    brute_force_best_response_opt,
    brute_force_deterministic_opt,
    brute_force_envelope_opt,
    chain_cost,
    consolidate_two_consecutive,
    cost_deterministic,
    cost_randomized,
    default_reduction_params,
    determinize_binary,
    extract_mechanism,
    gap_instance,
    interpret_marginals,
    is_submodular,
    is_truthful,
    minsat_brute,
    minsat_reduction_nontransitive,
    minsat_reduction_single_peaked,
    objective_subgradient,
    random_convex_instance,
    random_instance,
    solve_deterministic,
    solve_deterministic_submodular,
    solve_randomized,
    solve_randomized_submodular,
    threshold_round,
    uncross,
)
from mechdesign.cli import main as cli_main
from mechdesign.submodular import chain_violations

from conftest import (
    ACCEPTANCE_REPORT,
    crossing_shuffle,
    random_exact_profile,
    random_float_profile,
    random_relation,
    random_submodular_table,
)


def announce(number: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {label}: {verdict}"
    ACCEPTANCE_REPORT.append(line)
    print(line, file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# shared families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def mixed_random_family():
    """500 integer-cost instances mixing sizes, densities, infinities, and
    raw/closed relations."""
    out = []
    for k in range(500):
        out.append(
            random_instance(
                seed=10_000 + k,
                type_count=2 + k % 5,
                outcome_count=2 + k % 3,
                edge_density=0.15 * (k % 7),
                max_cost=20,
                infinity_rate=0.1 if k % 2 else 0.0,
                close_relation=k % 4 < 2,
            )
        )
    return out


@lru_cache(maxsize=1)
def small_cnf_family():
    """Every CNF with at most 2 variables and at most 3 clauses, where
    clauses range over all non-empty literal sets (tautologies included)
    and repeat freely."""
    formulas = []
    for v in (1, 2):
        literals = [l for k in range(1, v + 1) for l in (k, -k)]
        clause_pool = []
        for size in range(1, len(literals) + 1):
            clause_pool.extend(itertools.combinations(literals, size))
        for count in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(
                clause_pool, count
            ):
                formulas.append(CnfFormula(v, list(combo)))
    return formulas


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_two_type_gap_instance():
    inst = gap_instance()
    elapsed = math.inf
    for _ in range(5):
        started = time.perf_counter()
        rand = solve_randomized(inst)
        det = solve_deterministic(inst)
        elapsed = min(elapsed, time.perf_counter() - started)
    ok = (
        rand.cost == Cost(0)
        and rand.mechanism.rows[0] == (0, 1, 0)
        and rand.mechanism.rows[1] == (Fraction(1, 2), 0, Fraction(1, 2))
        and det.mechanism is None
        and not det.cost.is_finite
        and elapsed < 1e-3
    )
    announce(1, "two-type gap instance", ok)
    assert ok, f"rand={rand.cost} det={det.cost} elapsed={elapsed:.6f}s"


def test_02_three_type_cut_extraction():
    inst = Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(3, [(0, 0), (1, 1), (2, 2), (1, 0)]),
        costs=CostMatrix([[5, 1, 6], [4, 7, 1], [9, 8, 1]]),
    )
    assert all(c.finite > 0 for row in inst.costs.rows for c in row)
    sol = solve_deterministic(inst)
    mech = extract_mechanism(sol.cut, sol.clamped)
    expect_value = (
        inst.costs.rows[0][1].finite
        + inst.costs.rows[1][2].finite
        + inst.costs.rows[2][2].finite
    )
    brute_cost, _ = brute_force_deterministic_opt(inst)
    ok = (
        mech.assignment == (1, 2, 2)
        and sol.cut.value == expect_value
        and sol.cost == brute_cost
        and sol.cost == Cost(expect_value)
    )
    announce(2, "three-type cut extraction", ok)
    assert ok, f"assignment={mech.assignment} cut={sol.cut.value}"


def test_03_deterministic_solver_vs_brute_force():
    started = time.perf_counter()
    ok = True
    detail = ""
    for k, inst in enumerate(mixed_random_family()):
        sol = solve_deterministic(inst)
        expect_cost, _ = brute_force_deterministic_opt(inst)
        if sol.cost != expect_cost:
            ok, detail = False, f"instance {k}: {sol.cost} != {expect_cost}"
            break
        if expect_cost.is_finite:
            if sol.mechanism is None or not is_truthful(sol.mechanism, inst):
                ok, detail = False, f"instance {k}: bad mechanism"
                break
        elif sol.mechanism is not None:
            ok, detail = False, f"instance {k}: mechanism for infinite optimum"
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    announce(3, "deterministic solver vs brute force", ok)
    assert ok, detail or f"elapsed={elapsed:.2f}s"


def test_04_randomized_solver_vs_brute_force():
    started = time.perf_counter()
    ok = True
    detail = ""
    for k, inst in enumerate(mixed_random_family()):
        sol = solve_randomized(inst)
        expect_cost, _ = brute_force_envelope_opt(inst)
        if sol.cost != expect_cost:
            ok, detail = False, f"instance {k}: {sol.cost} != {expect_cost}"
            break
        if expect_cost.is_finite and (
            sol.mechanism is None
            or not is_truthful(sol.mechanism, inst)
            or cost_randomized(sol.mechanism, inst) != expect_cost
        ):
            ok, detail = False, f"instance {k}: bad mechanism"
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    announce(4, "randomized solver vs brute force", ok)
    assert ok, detail or f"elapsed={elapsed:.2f}s"


def test_05_convex_costs_collapse_the_gap():
    ok = True
    detail = ""
    for k in range(200):
        inst = random_convex_instance(
            seed=20_000 + k,
            type_count=2 + k % 5,
            outcome_count=3 + k % 3,
            edge_density=0.1 * (k % 8),
        )
        rand = solve_randomized(inst)
        det = solve_deterministic(inst)
        if rand.cost != det.cost:
            ok, detail = False, f"instance {k}: {rand.cost} != {det.cost}"
            break
        packed = consolidate_two_consecutive(rand.mechanism, inst)
        members = threshold_round(packed, inst)
        woven = Cost(0)
        cheapest = None
        for mech, weight in members:
            cost = cost_deterministic(mech, inst, "truthful")
            woven = woven + cost.scaled(weight)
            if cheapest is None or cost < cheapest:
                cheapest = cost
        if woven != rand.cost or not cheapest <= rand.cost:
            ok, detail = False, f"instance {k}: woven={woven} best={cheapest}"
            break
    announce(5, "convex costs collapse the gap", ok)
    assert ok, detail


@pytest.mark.slow
def test_06_low_outcome_reduction_counts_satisfied_clauses():
    formulas = small_cnf_family()
    assert len(formulas) == 834
    ok = True
    detail = ""
    for formula in formulas:
        inst = minsat_reduction_nontransitive(formula)
        cost, _ = brute_force_best_response_opt(inst)
        if cost != Cost(minsat_brute(formula)):
            ok, detail = False, f"{formula}: {cost}"
            break
    announce(6, "two-outcome reduction counts satisfied clauses", ok)
    assert ok, detail


def test_07_single_peaked_reduction_counts_satisfied_clauses():
    formulas = small_cnf_family()
    ok = True
    detail = ""
    for formula in formulas:
        wrapped = minsat_reduction_single_peaked(formula)
        cost, _ = brute_force_deterministic_opt(
            wrapped.instance, utilities=wrapped.utilities
        )
        params = default_reduction_params(formula)
        expect = Cost(
            formula.var_count * params.commit_cost + minsat_brute(formula)
        )
        if cost != expect:
            ok, detail = False, f"{formula}: {cost} != {expect}"
            break
    announce(7, "single-peaked reduction counts satisfied clauses", ok)
    assert ok, detail


def test_08_marginal_interpretation_round_trip():
    rng = random.Random(88)
    started = time.perf_counter()
    ok = True
    detail = ""
    for k in range(1000):
        n = 1 + k % 5
        m = 2 + k % 3
        exact = bool(k % 2)
        rows = (
            random_exact_profile(rng, n, m)
            if exact
            else random_float_profile(rng, n, m)
        )
        dist = interpret_marginals(rows)
        if chain_violations(dist):
            ok, detail = False, f"profile {k}: {chain_violations(dist)}"
            break
        if len(dist.support) > n * m:
            ok, detail = False, f"profile {k}: support too large"
            break
        back = dist.marginals(m)
        if exact:
            if back != rows:
                ok, detail = False, f"profile {k}: inexact round trip"
                break
            shuffled = crossing_shuffle(dist.items(), rng, swaps=3)
            restored = uncross(shuffled)
            if (
                restored.support != dist.support
                or restored.probs != dist.probs
            ):
                ok, detail = False, f"profile {k}: uncross changed the chain"
                break
        else:
            drift = max(
                abs(float(back[i][j]) - rows[i][j])
                for i in range(n)
                for j in range(m)
            )
            if drift > 1e-12:
                ok, detail = False, f"profile {k}: drift {drift}"
                break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    announce(8, "marginal interpretation round trip", ok)
    assert ok, detail or f"elapsed={elapsed:.2f}s"


@pytest.mark.slow
def test_09_threshold_extension_minimizer_is_exact():
    rng = random.Random(99)
    ok = True
    detail = ""
    for k in range(200):
        n = 2 + k % 3
        m = 2 + k % 2
        oracle = random_submodular_table(rng, n, m)
        if not is_submodular(oracle).ok:
            ok, detail = False, f"table {k}: generator broke submodularity"
            break
        rel = random_relation(rng, n, 0.4)
        brute = solve_deterministic_submodular(oracle, rel, backend="brute")
        fast = solve_deterministic_submodular(oracle, rel, backend="lovasz")
        if abs(float(fast.cost) - float(brute.cost)) > 1e-6:
            ok, detail = (
                False,
                f"table {k}: {float(fast.cost)} vs {float(brute.cost)}",
            )
            break
    if ok:
        for k in range(60):
            inst = random_instance(
                seed=30_000 + k,
                type_count=2 + k % 3,
                outcome_count=2 + k % 2,
                edge_density=0.2 * (k % 5),
            )
            fast = solve_deterministic_submodular(
                additive_oracle(inst),
                inst.relation,
                backend="lovasz",
                value_granularity=1,
            )
            expect = solve_deterministic(inst).cost
            if Cost(fast.cost) != expect:
                ok, detail = False, f"additive {k}: {fast.cost} != {expect}"
                break
    announce(9, "threshold extension minimizer is exact", ok)
    assert ok, detail


def test_10_profile_solver_reaches_the_additive_optimum():
    started = time.perf_counter()
    ok = True
    detail = ""
    for k in range(15):
        inst = random_instance(
            seed=40_000 + k,
            type_count=2 + k % 4,
            outcome_count=2 + k % 2,
            edge_density=0.3 if k % 2 else 0.6,
        )
        exact = solve_randomized(inst).cost
        sol = solve_randomized_submodular(
            additive_oracle(inst),
            inst.outcomes,
            inst.relation,
            eps=1e-3,
            backend="ellipsoid",
        )
        slack = float(sol.cost) - float(exact)
        if not sol.converged or not -1e-9 <= slack <= 1e-3 + 1e-9:
            ok, detail = False, f"instance {k}: slack {slack:.2e}"
            break
    if ok:
        rng = random.Random(1010)
        checked = 0
        h = 1e-6
        while checked < 100 and ok:
            inst = random_instance(
                seed=41_000 + checked,
                type_count=2 + checked % 4,
                outcome_count=2 + checked % 2,
                edge_density=0.0,
            )
            oracle = additive_oracle(inst)
            n, m = oracle.type_count, oracle.outcome_count

            def extension_value(rows):
                return float(chain_cost(interpret_marginals(rows), oracle))

            rows = [
                [0.9 * x + 0.1 / m for x in row]
                for row in random_float_profile(rng, n, m)
            ]
            grad = objective_subgradient(rows, oracle)
            for _ in range(4):
                i = rng.randrange(n)
                j, k2 = rng.sample(range(m), 2)
                up = [row[:] for row in rows]
                dn = [row[:] for row in rows]
                up[i][j] += h
                up[i][k2] -= h
                dn[i][j] -= h
                dn[i][k2] += h
                fd = (extension_value(up) - extension_value(dn)) / (2 * h)
                if abs((grad[i][j] - grad[i][k2]) - fd) > 1e-4:
                    ok, detail = False, f"gradient probe {checked} off"
                    break
                checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    announce(10, "profile solver reaches the additive optimum", ok)
    assert ok, detail or f"elapsed={elapsed:.2f}s"


def test_11_binary_outcomes_round_to_deterministic():
    rng = random.Random(1111)
    ok = True
    detail = ""
    for k in range(100):
        n = 2 + k % 3
        oracle = random_submodular_table(rng, n, 2)
        rel = random_relation(rng, n, 0.5)
        rand = solve_randomized_submodular(
            oracle,
            OutcomeSpace([0, 1]),
            rel,
            eps=1e-4,
            backend="ellipsoid",
        )
        det = solve_deterministic_submodular(oracle, rel, backend="lovasz")
        mech, rounded_cost = determinize_binary(rand.chain, rel, oracle)
        if float(rounded_cost) > float(rand.cost) + 1e-4 + 1e-9:
            ok, detail = False, f"table {k}: rounding raised the cost"
            break
        if abs(float(rounded_cost) - float(det.cost)) > 1e-6:
            ok, detail = (
                False,
                f"table {k}: {float(rounded_cost)} vs {float(det.cost)}",
            )
            break
    announce(11, "binary outcomes round to deterministic", ok)
    assert ok, detail


def test_12_large_population_cut_benchmark(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    started = time.perf_counter()
    code = cli_main(
        [
            "bench",
            "--family",
            "random",
            "--algos",
            "det",
            "--sizes",
            "2000:5",
            "--reps",
            "1",
            "--seed",
            "1",
            "--out",
            str(out_csv),
        ]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    rows = []
    if code == 0 and out_csv.exists():
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
    ok = (
        code == 0
        and elapsed < 10.0
        and len(rows) == 1
        and rows[0]["n"] == "2000"
        and rows[0]["m"] == "5"
        and rows[0]["algo"] == "det"
        and int(rows[0]["micros"]) < 10_000_000
    )
    announce(12, "large population cut benchmark", ok)
    assert ok, f"exit={code} elapsed={elapsed:.2f}s rows={rows}"
