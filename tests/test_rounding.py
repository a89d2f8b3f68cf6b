"""The rounding results read off one quantile coupling: consolidation,
threshold rounding and binary determinization, each against a test-side copy
of the loop that built it before (edge squeezing, cutoffs, levels)."""

import random
from fractions import Fraction

import pytest

from mechdesign import (
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    RandomizedMechanism,
    ReportingRelation,
    consolidate_two_consecutive,
    determinize_binary,
    interpret_marginals,
    random_convex_instance,
    solve_randomized,
    table_oracle,
    threshold_round,
)
from mechdesign.instances import exact_rational

from conftest import product_coupling, random_relation


def squeezed_rows(mech, instance):
    """Consolidation by edge squeezing: move the mass at a row's support
    edges to the outcome just above the bottom edge until two consecutive
    outcomes remain, keeping the expected utility."""
    utilities = instance.outcomes.utilities
    rows = [[Fraction(p) for p in row] for row in mech.rows]
    for row in rows:
        while True:
            support = [j for j, p in enumerate(row) if p > 0]
            if not support or support[-1] - support[0] <= 1:
                break
            j1, j2 = support[0], support[-1]
            j3 = j1 + 1
            o1, o2, o3 = utilities[j1], utilities[j2], utilities[j3]
            alpha = (o2 - o3) / (o2 - o1)
            p1, p2 = row[j1], row[j2]
            if p1 / alpha <= p2 / (1 - alpha):
                row[j1] = Fraction(0)
                row[j2] = p2 - (1 - alpha) * p1 / alpha
                row[j3] += p1 / alpha
            else:
                row[j2] = Fraction(0)
                row[j1] = p1 - alpha * p2 / (1 - alpha)
                row[j3] += p2 / (1 - alpha)
    return rows


def cutoff_members(mech, instance):
    """Threshold rounding by cutoffs: each distinct upper-outcome mass, and
    1, is a cutoff; the types whose upper mass reaches it sit one up."""
    m = instance.outcome_count
    bottoms, upper_mass = [], []
    for row in mech.rows:
        row = [Fraction(p) for p in row]
        bottom = next(j for j, p in enumerate(row) if p > 0)
        bottoms.append(bottom)
        upper_mass.append(row[bottom + 1] if bottom + 1 < m else Fraction(0))
    members, previous = [], Fraction(0)
    for cutoff in sorted({a for a in upper_mass if a > 0} | {Fraction(1)}):
        assignment = [b + (a >= cutoff) for b, a in zip(bottoms, upper_mass)]
        members.append((DeterministicMechanism(assignment), cutoff - previous))
        previous = cutoff
    return members


def level_loop(items, oracle):
    """Binary determinization by levels: every distinct marginal, and 1,
    thresholds the marginals; the cheapest point wins, the first on ties."""
    marginals = [Fraction(0)] * oracle.type_count
    for point, p in items:
        for i, x in enumerate(point):
            if x:
                marginals[i] += p
    best = None
    for level in sorted(set(marginals) | {1}):
        point = tuple(int(u >= level) for u in marginals)
        cost = oracle(point)
        if best is None or cost < best[1]:
            best = (DeterministicMechanism(point), cost)
    return best


def acceptance_family():
    """The convex instances of the acceptance test that collapses the gap."""
    for k in range(200):
        yield k, random_convex_instance(
            seed=20_000 + k,
            type_count=2 + k % 5,
            outcome_count=3 + k % 3,
            edge_density=0.1 * (k % 8),
        )


def wide_rows(rng, n, m, total=12, as_float=False):
    """Random lottery rows over ``m`` outcomes, masses on a ``1/total`` grid:
    some rows are point masses, others spread over the whole ladder."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        rows.append([w / total if as_float else Fraction(w, total) for w in weights])
    return rows


class TestConsolidationBracket:
    def test_matches_squeezing_on_acceptance_family(self):
        rng = random.Random(2405)
        for k, inst in acceptance_family():
            n, m = inst.type_count, inst.outcome_count
            mechs = [solve_randomized(inst).mechanism,
                     RandomizedMechanism(wide_rows(rng, n, m)),
                     # Eighths: dyadic floats, read as the same eighths.
                     RandomizedMechanism(wide_rows(rng, n, m, total=8, as_float=True))]
            for mech in mechs:
                packed = consolidate_two_consecutive(mech, inst)
                assert [list(row) for row in packed.rows] == squeezed_rows(mech, inst), k

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_squeezing_on_uneven_ladders(self, seed):
        # Rows a * (u - c)^2 + lift are convex in the utility u on any ladder;
        # the last type's row carries no mass at all.
        rng = random.Random(seed)
        utilities = sorted({Fraction(rng.randrange(40), rng.choice([1, 2, 3]))
                            for _ in range(rng.randint(2, 6))} | {Fraction(41)})
        n, m = rng.randint(1, 4), len(utilities)
        rows = []
        for _ in range(n + 1):
            a, c = rng.randint(0, 3), Fraction(rng.randrange(40), rng.choice([1, 2, 7]))
            lift = rng.randint(0, 3)
            rows.append([a * (u - c) ** 2 + lift for u in utilities])
        inst = Instance(OutcomeSpace(utilities), ReportingRelation.identity(n + 1),
                        CostMatrix(rows))
        mech = RandomizedMechanism(wide_rows(rng, n, m) + [[0] * m])
        packed = consolidate_two_consecutive(mech, inst)
        assert [list(row) for row in packed.rows] == squeezed_rows(mech, inst)

    def test_float_row_whose_float_utility_is_inexact(self):
        # Summed as floats, this row's expected utility is 1.5999999999999999;
        # the mechanism reads the row at its decimal values, whose utility is
        # 8/5, and the packed row keeps it.
        inst = Instance(OutcomeSpace([0, 1, 2]), ReportingRelation.identity(1),
                        CostMatrix([[3, 1, 2]]))
        floats = [0.1, 0.2, 0.7]
        assert sum(p * u for p, u in zip(floats, range(3))) != Fraction(8, 5)
        mech = RandomizedMechanism([floats])
        assert mech.rows == ((Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)),)
        packed = consolidate_two_consecutive(mech, inst)
        assert [list(row) for row in packed.rows] == squeezed_rows(mech, inst)
        assert packed.rows == ((0, Fraction(2, 5), Fraction(3, 5)),)


class TestThresholdCoupling:
    def test_matches_cutoffs_on_acceptance_family(self):
        for k, inst in acceptance_family():
            packed = consolidate_two_consecutive(solve_randomized(inst).mechanism, inst)
            assert threshold_round(packed, inst) == cutoff_members(packed, inst), k

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_cutoffs_with_ties_and_point_masses(self, seed):
        # Under the identity relation every profile is truthful; upper masses
        # come from a coarse grid, so they tie and some rows are point masses.
        rng = random.Random(seed)
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        rows = []
        for _ in range(n):
            bottom = rng.randrange(m)
            alpha = Fraction(rng.randint(0, 3), 4) if bottom + 1 < m else Fraction(0)
            row = [Fraction(0)] * m
            row[bottom] = 1 - alpha
            if alpha:
                row[bottom + 1] = alpha
            rows.append(row)
        inst = Instance(OutcomeSpace(range(m)), ReportingRelation.identity(n),
                        CostMatrix([[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]))
        mech = RandomizedMechanism(rows)
        assert threshold_round(mech, inst) == cutoff_members(mech, inst)


def marginals(items):
    return [sum(p for point, p in items if point[i]) for i in range(len(items[0][0]))]


def truthful_binary_cases(count, seed, grid=6):
    """Random tables with marginally truthful distributions: marginals on a
    ``1/grid`` grid (so exact zeros, ones and ties), raised along the claims
    until every claimant sits at least as high, as a chain or a product."""
    rng = random.Random(seed)
    levels = [0, 0, 1, 2, 3, 3, 5, 6] if grid == 6 else [0, 0, 1, 2, 3, 3, 4, 5]
    for k in range(count):
        n = 1 + k % 5
        relation = random_relation(rng, n, 0.3)
        u = [Fraction(rng.choice(levels), grid) for _ in range(n)]
        changed = True
        while changed:
            changed = False
            for a, b in relation.claims:
                if u[a] < u[b]:
                    u[a], changed = u[b], True
        rows = [[1 - x, x] for x in u]
        items = interpret_marginals(rows).items() if k % 2 else product_coupling(rows)
        table = [rng.randint(0, 6) for _ in range(2 ** n)]
        yield items, relation, table_oracle(table, n, 2)


class TestBinaryCoupling:
    def test_matches_levels_on_random_tables(self):
        zero_then_top = ties = 0
        for k, (items, relation, oracle) in enumerate(truthful_binary_cases(240, seed=2024)):
            rounded = determinize_binary(items, relation, oracle)
            assert rounded == level_loop(items, oracle), k
            u = marginals(items)
            # The all-top vector wins although a marginal of 0 gives it no mass.
            zero_then_top += min(u) == 0 and 0 not in rounded[0].assignment
            inner = [x for x in u if 0 < x < 1]
            ties += len(set(inner)) < len(inner)
        assert zero_then_top >= 10 and ties >= 20

    def test_floats_match_the_exact_twin(self):
        # On a 1/5 grid every mass has a short decimal, so each float reads
        # back as its exact twin, although the floats' own sums carry
        # round-off.  On the 1/6 grid only the cases whose masses are all
        # dyadic have float twins of the same value.
        fifths = list(truthful_binary_cases(240, seed=77, grid=5))
        sixths = [case for case in truthful_binary_cases(240, seed=77)
                  if all(float(p) == p for _, p in case[0])]
        assert len(sixths) >= 40
        cases = fifths + sixths
        twins = [[(point, float(p)) for point, p in items] for items, _, _ in cases]
        assert sum(marginals(f) != marginals(items) for f, (items, _, _) in zip(twins, cases)) >= 20
        for k, (floats, (items, relation, oracle)) in enumerate(zip(twins, cases)):
            assert [(pt, exact_rational(p)) for pt, p in floats] == items, k
            assert (determinize_binary(floats, relation, oracle)
                    == determinize_binary(items, relation, oracle)), k

    def test_all_top_stays_a_candidate_at_marginal_zero(self):
        # Type 1 never leaves the bottom, so the coupling starts below the
        # all-top vector; that vector is still tried, and here it is cheapest.
        relation = ReportingRelation.identity(2)
        oracle = table_oracle([5, 5, 4, 1], 2, 2)
        items = [((1, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))]
        assert determinize_binary(items, relation, oracle) == level_loop(items, oracle)
        assert determinize_binary(items, relation, oracle)[0].assignment == (1, 1)

    def test_tiny_float_mass_is_a_candidate(self):
        # A float mass of about 2.5e-13 is read at its decimal value, so the
        # all-bottom vector carries positive mass, is tried, and wins.
        u = 1 - 2.5e-13
        items = [((1, 1), u), ((0, 0), 1 - u)]
        oracle = table_oracle([0, 5, 5, 3], 2, 2)
        mech, cost = determinize_binary(items, ReportingRelation.identity(2), oracle)
        assert mech.assignment == (0, 0) and cost == 0
