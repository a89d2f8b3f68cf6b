"""Randomized solver: envelopes, mixtures, and the rounding pipeline."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mechdesign import (
    Cost,
    CostMatrix,
    Instance,
    MixturePair,
    OutcomeSpace,
    RandomizedMechanism,
    ReportingRelation,
    brute_force_envelope_opt,
    consolidate_two_consecutive,
    cost_deterministic,
    convex_envelope,
    cost_randomized,
    expected_utility,
    gap_instance,
    is_convex_cost,
    is_truthful,
    pl_extension_value,
    random_convex_instance,
    random_instance,
    recover_mixture,
    solve_randomized,
    threshold_round,
)
from mechdesign import envelope, mincut
from mechdesign.envelope import EnvelopeRow, _lower_hull, envelope_table, threshold_assignment

OUTCOMES = OutcomeSpace([1, 2, 3])
UNEVEN = OutcomeSpace([0, Fraction(1, 3), Fraction(1, 2), 2, Fraction(7, 2)])
INF = Cost.infinite()
BIG = 2**31 + 11  # a prime denominator above 2**31


def fraction_envelope(cost_row, outcomes):
    """Reference: the envelope with the hull run on ``Fraction`` points."""
    row = [c if isinstance(c, Cost) else Cost(c) for c in cost_row]
    utilities = outcomes.utilities
    points = [(utilities[j], row[j].value, j) for j in range(len(row)) if row[j].is_finite]
    if not points:
        raise ValueError("cost row has no finite entries")
    hull = []
    for x, y, j in points:
        while len(hull) >= 2:
            x1, y1, _ = hull[-2]
            x2, y2, _ = hull[-1]
            if (y2 - y1) * (x - x2) >= (y - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y, j))
    values = []
    seg = 0
    for u in utilities:
        if u < hull[0][0] or u > hull[-1][0]:
            values.append(Cost.infinite())
            continue
        while seg + 1 < len(hull) and hull[seg + 1][0] <= u:
            seg += 1
        x1, y1, _ = hull[seg]
        if u == x1:
            values.append(Cost(y1))
            continue
        x2, y2, _ = hull[seg + 1]
        values.append(Cost(y1 + (y2 - y1) * (u - x1) / (x2 - x1)))
    return tuple(j for _, _, j in hull), tuple(values)


def exact_fractions(max_value):
    denominators = st.sampled_from([1, 2, 3, 7, 12, BIG, 2**61 - 1])
    return denominators.flatmap(
        lambda d: st.integers(0, max_value * d).map(lambda k: Fraction(k, d))
    )


@st.composite
def envelope_cases(draw):
    """An outcome space and a row mixing infinite entries, free values and
    points on one line, so infinite prefixes and suffixes and collinear runs
    are common."""
    drawn = draw(st.sets(exact_fractions(10), min_size=1, max_size=7))
    outcomes = draw(st.sampled_from([UNEVEN, OutcomeSpace(sorted(drawn))]))
    base = draw(exact_fractions(40))
    slope = draw(exact_fractions(12)) - 6
    row = []
    for u in outcomes.utilities:
        kind = draw(st.sampled_from(["inf", "line", "line", "free"]))
        on_line = base + slope * u
        if kind == "inf":
            row.append(INF)
        elif kind == "line" and on_line >= 0:
            row.append(Cost(on_line))
        else:
            row.append(Cost(draw(exact_fractions(40))))
    return outcomes, row


class TestPlExtension:
    def test_entries_at_vertices(self):
        row = [Cost(3), Cost(0), Cost(2)]
        for j, u in enumerate(OUTCOMES.utilities):
            assert pl_extension_value(row, OUTCOMES, u) == row[j]

    def test_linear_between_vertices(self):
        row = [Cost(3), Cost(0), Cost(2)]
        assert pl_extension_value(row, OUTCOMES, Fraction(3, 2)) == Cost(Fraction(3, 2))
        assert pl_extension_value(row, OUTCOMES, Fraction(5, 2)) == Cost(1)

    def test_outside_range_rejected(self):
        with pytest.raises(ValueError):
            pl_extension_value([Cost(1), Cost(2), Cost(3)], OUTCOMES, 4)

    def test_infinite_segment_interior(self):
        row = [Cost(0), Cost.infinite(), Cost(2)]
        assert pl_extension_value(row, OUTCOMES, 2) == Cost.infinite()
        assert not pl_extension_value(row, OUTCOMES, Fraction(3, 2)).is_finite
        assert pl_extension_value(row, OUTCOMES, 1) == Cost(0)
        assert pl_extension_value(row, OUTCOMES, 3) == Cost(2)


class TestConvexEnvelope:
    def test_dip_keeps_all_vertices(self):
        env = convex_envelope([3, 0, 2], OUTCOMES)
        assert env.vertices == (0, 1, 2)
        assert env.values == (Cost(3), Cost(0), Cost(2))

    def test_collinear_middle_dropped(self):
        env = convex_envelope([1, 2, 3], OUTCOMES)
        assert env.vertices == (0, 2)
        assert env.values == (Cost(1), Cost(2), Cost(3))

    def test_concave_middle_replaced_by_chord(self):
        env = convex_envelope([0, 5, 2], OUTCOMES)
        assert env.vertices == (0, 2)
        assert env.values == (Cost(0), Cost(1), Cost(2))

    def test_infinite_prefix_stays_infinite(self):
        env = convex_envelope([Cost.infinite(), 4, 1], OUTCOMES)
        assert env.vertices == (1, 2)
        assert env.values[0] == Cost.infinite()
        assert env.values[1:] == (Cost(4), Cost(1))

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError):
            convex_envelope([Cost.infinite()] * 3, OUTCOMES)

    def test_interior_infinity_bridged_by_chord(self):
        env = convex_envelope([4, Cost.infinite(), 0], OUTCOMES)
        assert env.vertices == (0, 2)
        assert env.values == (Cost(4), Cost(2), Cost(0))

    @given(envelope_cases())
    @settings(max_examples=300, deadline=None)
    @example((UNEVEN, [INF, 1, Fraction(1, 2), 3, INF]))  # infinite prefix and suffix
    @example((UNEVEN, [1, Fraction(5, 3), 2, 5, 8]))  # collinear: 1 + 2u
    @example((UNEVEN, [INF, INF, Fraction(7, 3), INF, INF]))  # one finite entry
    @example((UNEVEN, [Fraction(5, BIG), 1, Fraction(BIG, 7), INF, Fraction(1, BIG**2)]))
    def test_matches_fraction_hull(self, case):
        outcomes, row = case
        if not any(Cost(c).is_finite for c in row):
            with pytest.raises(ValueError):
                convex_envelope(row, outcomes)
            return
        env = convex_envelope(row, outcomes)
        vertices, values = fraction_envelope(row, outcomes)
        assert env.vertices == vertices
        assert [c.value for c in env.values] == [c.value for c in values]


def brute_lower_hull(xs, ys, scale):
    """Reference: a finite point is a vertex when it is an end of the finite
    range or lies strictly below every chord between finite points around it."""
    finite = [j for j, y in enumerate(ys) if y is not None]
    if not finite:
        raise ValueError("cost row has no finite entries")

    def below_chords(k):
        return all(
            (ys[k] - ys[a]) * (xs[b] - xs[a]) < (ys[b] - ys[a]) * (xs[k] - xs[a])
            for a in finite if a < k for b in finite if b > k
        )

    vertices = tuple(k for k in finite if k in (finite[0], finite[-1]) or below_chords(k))
    return EnvelopeRow(vertices, xs, tuple(ys[k] for k in vertices), scale)


@st.composite
def integer_hull_rows(draw):
    """Strictly increasing ``xs`` and a row of ints and ``None``s; many
    points lie on one line, so collinear runs are common."""
    xs = tuple(sorted(draw(st.sets(st.integers(0, 60), min_size=1, max_size=8))))
    base, slope = draw(st.integers(0, 200)), draw(st.integers(-3, 3))
    kinds = st.sampled_from(["none", "line", "line", "free"])
    ys = []
    for x in xs:
        kind = draw(kinds)
        ys.append(
            None if kind == "none"
            else base + slope * x if kind == "line" and base + slope * x >= 0
            else draw(st.integers(0, 200))
        )
    return xs, ys


class TestLowerHull:
    @given(integer_hull_rows(), st.sampled_from([1, 12]))
    @settings(max_examples=400, deadline=None)
    @example(((5,), [7]), 1)  # m = 1
    @example(((5,), [None]), 1)
    @example(((0, 1, 2, 3), [1, 2, 3, 4]), 1)  # all collinear
    @example(((0, 1, 2, 3), [None, 2, None, 4]), 1)
    @example(((0, 2, 3, 9), [4, 0, 0, 4]), 1)  # a flat bottom
    def test_matches_brute_force(self, row, scale):
        xs, ys = row
        try:
            expected = brute_lower_hull(xs, ys, scale)
        except ValueError:
            with pytest.raises(ValueError):
                _lower_hull(xs, ys, scale)
            return
        assert _lower_hull(xs, ys, scale) == expected


class TestRecoverMixture:
    def test_interior_target_two_point(self):
        env = convex_envelope([0, 5, 2], OUTCOMES)
        pair = recover_mixture(env, OUTCOMES, Fraction(5, 2), type_index=7)
        assert (pair.lower, pair.upper) == (0, 2)
        assert pair.alpha == Fraction(1, 4)
        assert pair.type_index == 7
        mean = pair.alpha * 1 + (1 - pair.alpha) * 3
        assert mean == Fraction(5, 2)

    def test_vertex_target_degenerates(self):
        env = convex_envelope([3, 0, 2], OUTCOMES)
        pair = recover_mixture(env, OUTCOMES, 2)
        assert pair.lower == pair.upper == 1
        assert pair.alpha == 1

    def test_uncovered_target_rejected(self):
        env = convex_envelope([Cost.infinite(), 4, 1], OUTCOMES)
        with pytest.raises(ValueError):
            recover_mixture(env, OUTCOMES, 1)

    @staticmethod
    def _linear_scan(env, outcomes, t, type_index):
        """Reference: a ``Fraction`` scan over every hull vertex."""
        utilities = outcomes.utilities
        if t < utilities[0] or t > utilities[-1]:
            raise ValueError(f"target {t} outside the outcome range")
        below = [v for v in env.vertices if utilities[v] <= t]
        above = [v for v in env.vertices if utilities[v] >= t]
        if not below or not above:
            raise ValueError(f"target {t} not covered by the envelope's finite range")
        lower, upper = below[-1], above[0]
        if lower == upper:
            return MixturePair(type_index, lower, upper, Fraction(1))
        alpha = (utilities[upper] - t) / (utilities[upper] - utilities[lower])
        return MixturePair(type_index, lower, upper, alpha)

    @given(envelope_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, case, data):
        outcomes, row = case
        if not any(Cost(c).is_finite for c in row):
            return
        env = convex_envelope(row, outcomes)
        on_grid = st.sampled_from(outcomes.utilities)
        target = data.draw(st.one_of(on_grid, exact_fractions(11), st.integers(0, 11)))
        try:
            expected = self._linear_scan(env, outcomes, Fraction(target), 3)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                recover_mixture(env, outcomes, target, 3)
            return
        assert recover_mixture(env, outcomes, target, 3) == expected


def slope_rule_convex(row, utilities) -> bool:
    """Convexity by the slope rule: finite entries contiguous, slopes between
    consecutive finite points nondecreasing."""
    finite = [j for j, c in enumerate(row) if c.is_finite]
    if not finite:
        return True
    if finite[-1] - finite[0] + 1 != len(finite):
        return False
    slopes = [
        (row[b].value - row[a].value) / (utilities[b] - utilities[a])
        for a, b in zip(finite, finite[1:])
    ]
    return all(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:]))


class TestIsConvexCost:
    @staticmethod
    def seeded_row(rng, utilities):
        """A random row or a convex one built from nondecreasing slopes
        (repeated slopes give collinear points), with infinite entries
        trimmed off either end or dropped into the middle."""
        m = len(utilities)
        if rng.random() < 0.5:
            row = [Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(m)]
        else:
            slopes = sorted(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m - 1))
            row = [Fraction(0)]
            for slope, a, b in zip(slopes, utilities, utilities[1:]):
                row.append(row[-1] + slope * (b - a))
            low = min(row)
            row = [c - low for c in row]
        row = [Cost(c) for c in row]
        shape = rng.randrange(5)
        if shape == 1:  # infinite prefix and suffix
            lo, hi = sorted(rng.sample(range(m + 1), 2))
            row = [c if lo <= j < hi else INF for j, c in enumerate(row)]
        elif shape == 2:  # a finite-infinite-finite sandwich, if it fits
            row[rng.randrange(m)] = INF
        elif shape == 3:  # all infinite
            row = [INF] * m
        return row

    def test_matches_the_slope_rule(self):
        rng = random.Random(2018)
        verdicts = []
        for _ in range(400):
            m = rng.randint(1, 6)
            utilities = sorted(rng.sample([Fraction(k, 6) for k in range(60)], m))
            rows = [self.seeded_row(rng, utilities) for _ in range(rng.randint(1, 4))]
            inst = Instance(
                OutcomeSpace(utilities), ReportingRelation.identity(len(rows)), CostMatrix(rows)
            )
            expected = [slope_rule_convex(row, utilities) for row in rows]
            assert is_convex_cost(inst) == (all(expected), expected)
            verdicts += expected
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


class TestSolveRandomized:
    def test_zero_cost_on_gap(self):
        sol = solve_randomized(gap_instance())
        assert sol.cost == Cost(0)
        assert sol.mechanism.rows[0] == (0, 1, 0)
        assert sol.mechanism.rows[1] == (Fraction(1, 2), 0, Fraction(1, 2))

    def test_closure_cuts_need_no_claim_components(self, monkeypatch):
        # The closure cuts search every source arc in one Dinic pass; only
        # the det cut splits the relation into claim components.
        inst = random_instance(
            seed=18, type_count=80, outcome_count=6, edge_density=0.03, infinity_rate=0.05
        )
        expected = solve_randomized(inst)
        closures = []

        def counted(weights, pairs):
            closures.append(len(pairs))
            return mincut.minimal_closure(weights, pairs)

        def refuse(count, claims):
            raise AssertionError("claim_groups called")

        monkeypatch.setattr(envelope, "minimal_closure", counted)
        monkeypatch.setattr(mincut, "claim_groups", refuse)
        solution = solve_randomized(inst)
        assert closures and any(closures)
        assert solution.cost == expected.cost
        assert solution.mechanism.rows == expected.mechanism.rows
        with pytest.raises(AssertionError, match="claim_groups called"):
            mincut.solve_deterministic(inst)

    def test_builds_few_fractions_per_type(self, monkeypatch):
        base = random_instance(
            seed=5, type_count=500, outcome_count=8, edge_density=0.004, infinity_rate=0.05
        )
        utilities = [0, Fraction(1, 3), Fraction(1, 2), 2, Fraction(7, 2), 4, 6, Fraction(13, 2)]
        inst = Instance(OutcomeSpace(utilities), base.relation, base.costs)
        built = []
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(cls)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        sol = solve_randomized(inst)
        monkeypatch.undo()
        assert sum(row.count(0) < inst.outcome_count - 1 for row in sol.mechanism.rows) > 100
        assert len(built) <= 4 * inst.type_count

    def test_single_outcome_instance(self):
        inst = Instance(
            outcomes=OutcomeSpace([5]),
            relation=ReportingRelation.full(2),
            costs=CostMatrix([[3], [4]]),
        )
        sol = solve_randomized(inst)
        assert sol.cost == Cost(7)
        assert sol.mechanism.rows == ((1,), (1,))

    def test_infinite_verdict_on_degenerate_row(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[Cost.infinite(), Cost.infinite()]]),
        )
        sol = solve_randomized(inst)
        assert sol.mechanism is None and not sol.cost.is_finite

    def test_matches_brute_force_on_random_family(self):
        for seed in range(40):
            inst = random_instance(
                seed=300 + seed,
                type_count=2 + seed % 4,
                outcome_count=2 + seed % 3,
                edge_density=0.1 * (seed % 9),
                infinity_rate=0.1 if seed % 2 else 0.0,
            )
            sol = solve_randomized(inst)
            expect_cost, _ = brute_force_envelope_opt(inst)
            assert sol.cost == expect_cost, f"seed {seed}"
            if expect_cost.is_finite:
                assert is_truthful(sol.mechanism, inst)
                assert cost_randomized(sol.mechanism, inst) == expect_cost

    def test_never_beats_nor_loses_to_mixture_structure(self):
        # every type's row has at most two support points, adjacent on the hull
        inst = random_instance(
            seed=99, type_count=4, outcome_count=4, edge_density=0.6
        )
        sol = solve_randomized(inst)
        for row in sol.mechanism.rows:
            support = [j for j, p in enumerate(row) if p]
            assert 1 <= len(support) <= 2


def hostile_instance(rng: random.Random) -> Instance:
    """A small instance mixing infinite prefixes and suffixes,
    finite-infinite-finite rows, cyclic or dense relations and uneven
    utilities; ``n = 1`` and ``m`` of 1 or 2 come up often."""
    n = rng.choice([1, 2, 3, 4, 5, 6])
    m = rng.choice([1, 2, 2, 3, 4, 5])
    utilities = sorted(rng.sample(range(60), m))
    if rng.random() < 0.5:
        utilities = [Fraction(u, 7) + j for j, u in enumerate(utilities)]
    rows = []
    for _ in range(n):
        row = [Fraction(rng.randint(0, 30), rng.choice([1, 2, 3, 7])) for _ in range(m)]
        shape = rng.randrange(5)
        cut = rng.randrange(m)
        if shape == 0:
            row[:cut] = [INF] * cut  # infinite prefix
        elif shape == 1:
            row[cut + 1 :] = [INF] * (m - cut - 1)  # infinite suffix
        elif shape == 2 and 0 < cut < m - 1:
            row[cut] = INF  # finite, infinite, finite
        rows.append(row)
    pairs = [(i, i) for i in range(n)]
    style = rng.randrange(3)
    if style == 0:  # sparse random claims
        pairs += [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.3]
    elif style == 1:  # one cycle through every type
        pairs += [(i, (i + 1) % n) for i in range(n)]
    else:  # dense
        pairs += [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.8]
    return Instance(OutcomeSpace(utilities), ReportingRelation(n, pairs), CostMatrix(rows))


def envelope_relaxed(inst: Instance) -> Instance:
    """The instance with every cost row replaced by its envelope."""
    rows = [row.values for row in envelope_table(inst)]
    return Instance(inst.outcomes, inst.relation, CostMatrix(rows))


class TestThresholdDecomposition:
    """The threshold cuts against the cut on the envelope-relaxed instance,
    whose inclusion-minimal cut is the pointwise-lowest optimum too, and
    against brute force over truthful assignments."""

    def test_matches_relaxed_cut_and_brute_force(self):
        rng = random.Random(8)
        verdicts = set()
        for trial in range(400):
            inst = hostile_instance(rng)
            sol = solve_randomized(inst)
            expect_cost, _ = brute_force_envelope_opt(inst)
            assert sol.cost == expect_cost, f"trial {trial}"
            verdicts.add(expect_cost.is_finite)
            if inst.outcome_count == 1 or not expect_cost.is_finite:
                assert (sol.mechanism is None) == (not expect_cost.is_finite)
                continue
            relaxed = mincut.solve_deterministic(envelope_relaxed(inst))
            assignment = threshold_assignment(envelope_table(inst), inst.relation)
            assert assignment == list(relaxed.mechanism.assignment), f"trial {trial}"
            assert relaxed.cost == sol.cost
        assert verdicts == {True, False}

    def test_bounds_prove_an_infinite_optimum(self):
        # 0 claims 1, so x_0 >= x_1; row 0 is finite only at outcome 0 and
        # row 1 only from outcome 1 up.
        inst = Instance(
            outcomes=OutcomeSpace([0, Fraction(1, 2), 3]),
            relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
            costs=CostMatrix([[1, INF, INF], [INF, 2, 0]]),
        )
        assert threshold_assignment(envelope_table(inst), inst.relation) is None
        sol = solve_randomized(inst)
        assert sol.mechanism is None and not sol.cost.is_finite
        assert not mincut.solve_deterministic(envelope_relaxed(inst)).cost.is_finite

    def test_large_sparse_instance(self):
        # Sparse claims at n = 20000 (``random_instance`` would draw n**2
        # relation coins); 2% infinite entries.
        rng = random.Random(20000)
        n, m = 20000, 5
        rows = [
            [INF if rng.random() < 0.02 else rng.randint(0, 20) for _ in range(m)]
            for _ in range(n)
        ]
        claims = [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
        relation = ReportingRelation(n, [(i, i) for i in range(n)] + claims)
        inst = Instance(OutcomeSpace(range(m)), relation, CostMatrix(rows))
        started = time.perf_counter()
        assignment = threshold_assignment(envelope_table(inst), inst.relation)
        relaxed = mincut.solve_deterministic(envelope_relaxed(inst))
        assert assignment == list(relaxed.mechanism.assignment)
        assert time.perf_counter() - started < 10.0

    def test_never_builds_the_ishikawa_network(self, monkeypatch):
        def refuse(instance):
            raise AssertionError("rand built the n*m cut network")

        monkeypatch.setattr(mincut, "build_network", refuse)
        with pytest.raises(AssertionError):
            mincut.solve_deterministic(gap_instance())
        assert solve_randomized(gap_instance()).cost == Cost(0)
        for k in range(0, 500, 7):  # the acceptance tests' random family
            inst = random_instance(
                seed=10_000 + k,
                type_count=2 + k % 5,
                outcome_count=2 + k % 3,
                edge_density=0.15 * (k % 7),
                infinity_rate=0.1 if k % 2 else 0.0,
                close_relation=k % 4 < 2,
            )
            assert solve_randomized(inst).cost == brute_force_envelope_opt(inst)[0]


class TestConsolidate:
    def test_requires_convex_costs(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2, 3]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[0, 5, 2]]),
        )
        mech = RandomizedMechanism([[Fraction(1, 2), 0, Fraction(1, 2)]])
        with pytest.raises(ValueError):
            consolidate_two_consecutive(mech, inst)

    def test_pipeline_on_random_convex_instances(self):
        rng = random.Random(17)
        for trial in range(30):
            inst = random_convex_instance(
                seed=500 + trial,
                type_count=2 + trial % 3,
                outcome_count=3 + trial % 3,
                edge_density=0.5,
            )
            ok, _ = is_convex_cost(inst)
            assert ok
            m = inst.outcome_count
            rows = []
            for _ in range(inst.type_count):
                weights = [Fraction(rng.randint(0, 4)) for _ in range(m)]
                total = sum(weights)
                if not total:
                    weights[0] = Fraction(1)
                    total = Fraction(1)
                rows.append([w / total for w in weights])
            mech = RandomizedMechanism(rows)
            packed = consolidate_two_consecutive(mech, inst)
            for i in range(inst.type_count):
                before = expected_utility(mech, inst.outcomes, i)
                after = expected_utility(packed, inst.outcomes, i)
                assert before == after
                support = [j for j, p in enumerate(packed.rows[i]) if p]
                assert len(support) <= 2
                if len(support) == 2:
                    assert support[1] == support[0] + 1
            assert cost_randomized(packed, inst) <= cost_randomized(mech, inst)


class TestThresholdRound:
    def test_members_and_weights(self):
        inst = random_convex_instance(
            seed=7, type_count=3, outcome_count=4, edge_density=0.5
        )
        sol = solve_randomized(inst)
        packed = consolidate_two_consecutive(sol.mechanism, inst)
        members = threshold_round(packed, inst)
        assert members
        total_weight = sum(w for _, w in members)
        assert total_weight == 1
        woven = Cost(0)
        for mech, w in members:
            assert is_truthful(mech, inst)
            woven = woven + cost_deterministic(mech, inst).scaled(w)
        assert woven == cost_randomized(packed, inst)
        cheapest = min(
            cost_deterministic(mech, inst) for mech, _ in members
        )
        assert cheapest <= cost_randomized(packed, inst)

    def test_rejects_wide_rows(self):
        inst = random_convex_instance(
            seed=8, type_count=2, outcome_count=4, edge_density=0.3
        )
        wide = RandomizedMechanism(
            [
                [Fraction(1, 2), 0, Fraction(1, 2), 0],
                [0, Fraction(1), 0, 0],
            ]
        )
        with pytest.raises(ValueError):
            threshold_round(wide, inst)
