"""Core data types: exact costs, relations, mechanisms, serialization."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mechdesign import (
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    RandomizedMechanism,
    ReportingRelation,
    best_response,
    cost_best_response,
    cost_deterministic,
    cost_randomized,
    dump_instance,
    expected_utility,
    hard_violations,
    instance_from_json,
    instance_to_json,
    is_transitive,
    is_truthful,
    load_instance,
    mechanism_from_json,
    mechanism_to_json,
    mechanism_violations,
    random_instance,
    transitive_closure,
    truthfulness_violations,
    validate,
)
from mechdesign.instances import (
    FLOAT_UTILITY_TOL,
    ROW_SUM_TOL,
    cost_from_json,
    cost_ratio_from_json,
    differs,
    exceeds,
    expected_utilities,
    is_exact,
    ratio_sum,
)
from mechdesign.oracle import _best_response_outcome


def small_instance():
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
        costs=CostMatrix([[4, 2, 7], [1, 5, 3]]),
    )


class TestCost:
    def test_exact_fraction_arithmetic(self):
        assert (Cost(Fraction(1, 3)) + Cost(Fraction(1, 6))).finite == Fraction(1, 2)
        assert Cost(5).scaled(Fraction(2, 5)).finite == 2

    def test_infinity_absorbs(self):
        inf = Cost.infinite()
        assert not inf.is_finite
        assert not (inf + Cost(3)).is_finite
        assert not (Cost(3) + inf).is_finite
        assert not inf.scaled(7).is_finite

    def test_scaling_infinity_by_zero_rejected(self):
        with pytest.raises(ValueError):
            Cost.infinite().scaled(0)

    def test_ordering_puts_infinity_last(self):
        vals = [Cost.infinite(), Cost(2), Cost(Fraction(3, 2))]
        assert sorted(vals) == [Cost(Fraction(3, 2)), Cost(2), Cost.infinite()]
        assert Cost(10**9) < Cost.infinite()

    def test_equality_and_hash(self):
        assert Cost(Fraction(4, 2)) == Cost(2)
        assert hash(Cost(Fraction(4, 2))) == hash(Cost(2))
        assert Cost.infinite() == Cost.infinite()
        assert Cost(2) != Cost(3)

    def test_finite_accessor_guards(self):
        with pytest.raises(ValueError):
            Cost.infinite().finite

    def test_float_conversion(self):
        assert float(Cost(Fraction(1, 4))) == 0.25
        assert float(Cost.infinite()) == float("inf")

    def test_float_infinity_spelling(self):
        assert Cost(float("inf")) == Cost.infinite()
        assert not Cost(float("inf")).is_finite
        with pytest.raises(ValueError):
            Cost(float("-inf"))


class TestRelations:
    def test_full_and_identity(self):
        full = ReportingRelation.full(3)
        ident = ReportingRelation.identity(3)
        assert len(full.pairs) == 9
        assert sorted(ident.pairs) == [(0, 0), (1, 1), (2, 2)]
        assert full.allowed_reports(1) == [0, 1, 2]
        assert ident.allowed_reports(1) == [1]

    def test_transitivity_detection(self):
        chain = ReportingRelation(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
        assert not is_transitive(chain)
        closed = transitive_closure(chain)
        assert is_transitive(closed)
        assert (0, 2) in closed.pairs

    @given(
        n=st.integers(2, 5),
        extra=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_closure_is_idempotent_and_contains_original(self, n, extra):
        pairs = [(i, i) for i in range(n)]
        pairs += [(a % n, b % n) for a, b in extra]
        rel = ReportingRelation(n, pairs)
        closed = transitive_closure(rel)
        assert is_transitive(closed)
        assert set(rel.pairs) <= set(closed.pairs)
        assert set(transitive_closure(closed).pairs) == set(closed.pairs)


class TestValidation:
    def test_well_formed_instance_is_clean(self):
        assert validate(small_instance()) == []

    def test_non_increasing_utilities_flagged(self):
        inst = Instance(
            outcomes=OutcomeSpace([2, 2]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[1, 1]]),
        )
        assert any("strictly increasing" in p for p in validate(inst))

    def test_missing_reflexive_pair_flagged(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation(2, [(0, 0), (0, 1)]),
            costs=CostMatrix([[1, 1], [1, 1]]),
        )
        assert any("reflexive" in p for p in validate(inst))

    def test_degenerate_row_reported_but_not_hard(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[Cost.infinite(), Cost.infinite()]]),
        )
        assert any("degenerate" in p for p in validate(inst))
        assert hard_violations(inst) == []

    def test_mechanism_shape_checks(self):
        inst = small_instance()
        ok = RandomizedMechanism([[Fraction(1, 2), Fraction(1, 2), 0], [0, 0, 1]])
        assert mechanism_violations(ok, inst) == []
        bad_row = RandomizedMechanism([[Fraction(1, 2), Fraction(1, 2), 0]])
        assert mechanism_violations(bad_row, inst)
        bad_sum = RandomizedMechanism([[1, 1, 0], [0, 0, 1]])
        assert mechanism_violations(bad_sum, inst)
        bad_assign = DeterministicMechanism([0, 3])
        assert mechanism_violations(bad_assign, inst)


class TestTruthfulness:
    def test_expected_utility_values(self):
        inst = small_instance()
        mech = RandomizedMechanism([[Fraction(1, 2), 0, Fraction(1, 2)], [0, 1, 0]])
        assert expected_utility(mech, inst.outcomes, 0) == Fraction(2)
        assert expected_utility(mech, inst.outcomes, 1) == Fraction(2)

    def test_violation_listing(self):
        inst = small_instance()
        tempted = DeterministicMechanism([0, 1])
        assert truthfulness_violations(tempted, inst) == [(0, 1)]
        assert not is_truthful(tempted, inst)
        content = DeterministicMechanism([1, 0])
        assert truthfulness_violations(content, inst) == []
        assert is_truthful(content, inst)

    def test_best_response_prefers_highest_then_honesty(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2, 3]),
            relation=ReportingRelation.full(2),
            costs=CostMatrix([[0, 0, 0], [0, 0, 0]]),
        )
        mech = DeterministicMechanism([2, 0])
        assert best_response(mech, inst, 1) == 0
        even = DeterministicMechanism([1, 1])
        assert best_response(even, inst, 0) == 0
        assert best_response(even, inst, 1) == 1


class TestCosting:
    def test_deterministic_cost_modes(self):
        inst = small_instance()
        mech = DeterministicMechanism([1, 0])
        assert cost_deterministic(mech, inst) == Cost(3)
        assert cost_best_response(mech, inst) == Cost(3)

    def test_best_response_cost_diverges_for_untruthful(self):
        inst = small_instance()
        mech = DeterministicMechanism([0, 1])
        assert cost_deterministic(mech, inst) == Cost(9)
        assert cost_best_response(mech, inst) == Cost(7)

    def test_randomized_cost_exact(self):
        inst = small_instance()
        mech = RandomizedMechanism(
            [[Fraction(1, 2), Fraction(1, 2), 0], [0, 0, 1]]
        )
        assert cost_randomized(mech, inst) == Cost(Fraction(6))


class TestComparisonRule:
    """One rule for every exact/float check: exact values compare exactly,
    floats within the caller's tolerance, and a NaN is always a violation."""

    def test_is_exact(self):
        assert is_exact([0, 1, Fraction(1, 3)])
        assert is_exact([])
        assert not is_exact([Fraction(1, 2), 0.5])
        assert not is_exact([float("nan")])

    def test_exact_values_compare_exactly(self):
        tiny = Fraction(1, 10**30)
        assert differs(1 + tiny, 1, True, 1e-9)
        assert not differs(Fraction(2, 2), 1, True, 1e-9)
        assert exceeds(1 + tiny, 1, True, 1e-9)
        assert not exceeds(1, 1 + tiny, True, 1e-9)
        assert exceeds(Cost.infinite(), Cost(5), True, 1e-9)
        assert not differs(Cost.infinite(), Cost.infinite(), True, 1e-9)

    def test_floats_within_tolerance(self):
        assert not differs(1.0 + 1e-10, 1, False, 1e-9)
        assert not differs(1, 1.0 - 1e-10, False, 1e-9)
        assert not exceeds(1.0 + 1e-10, 1.0, False, 1e-9)
        assert not exceeds(0.5, 1.0, False, 1e-9)
        assert not differs(Cost.infinite(), Cost.infinite(), False, 1e-9)
        assert not exceeds(Cost.infinite(), Cost.infinite(), False, 1e-9)

    def test_floats_beyond_tolerance(self):
        assert differs(1.0 + 1e-8, 1, False, 1e-9)
        assert differs(1, 1.0 + 1e-8, False, 1e-9)
        assert exceeds(1.0 + 1e-8, 1.0, False, 1e-9)
        assert exceeds(Cost.infinite(), Cost(5), False, 1e-9)

    def test_nan_is_always_a_violation(self):
        nan = float("nan")
        for x, y in ((nan, 1.0), (1.0, nan), (nan, nan)):
            assert differs(x, y, False, 1e-9)
            assert exceeds(x, y, False, 1e-9)

    def test_nan_row_violates_mechanism_shape(self):
        inst = small_instance()
        mech = RandomizedMechanism([[float("nan"), 1.0, 0.0], [0.0, 0.0, 1.0]])
        problems = mechanism_violations(mech, inst)
        assert any("row 0 sums to nan" in p for p in problems)


TINY = Fraction(1, 2**64)


@st.composite
def lottery_rows(draw):
    """Rows summing to 1 or missing it by 2**-64, with negative entries,
    ints among ``Fraction``s, and some rows holding floats."""
    m = draw(st.integers(1, 6))
    denominators = st.sampled_from([1, 2, 3, 12, 2**61 - 1, 2**64 + 1])
    row = [Fraction(draw(st.integers(0, 4)), draw(denominators)) for _ in range(m - 1)]
    row.append(1 - sum(row))  # negative when the others exceed 1
    row[draw(st.integers(0, m - 1))] += draw(st.sampled_from([0, 0, TINY, -TINY]))
    row = [int(p) if p.denominator == 1 and draw(st.booleans()) else p for p in row]
    if draw(st.integers(0, 3)) == 0:  # all floats, or some
        every = draw(st.booleans())
        row = [float(p) if every or draw(st.booleans()) else p for p in row]
    return row


class TestIntegerLotteries:
    """Exact lottery rows are summed in integers; the answers must be those
    of plain ``Fraction`` sums, and float rows keep their float path."""

    @given(lottery_rows())
    @settings(max_examples=300, deadline=None)
    @example([Fraction(1, 2), Fraction(1, 2) + TINY])
    @example([2, -1])
    @example([1, Fraction(0), 0])
    @example([Fraction(1, 4), 0.75])
    @example([0.5, 0.5 + 1e-13])
    def test_row_checks_match_sum(self, row):
        m = len(row)
        inst = Instance(
            OutcomeSpace(range(m)), ReportingRelation.identity(1), CostMatrix([[0] * m])
        )
        total, expected = sum(row), []
        if any(p < 0 for p in row):
            expected.append("row 0 has a negative probability")
        if differs(total, 1, is_exact(row), ROW_SUM_TOL):
            expected.append(f"row 0 sums to {total}, expected 1")
        assert mechanism_violations(RandomizedMechanism([row]), inst) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_expected_utilities_match_fraction_sums(self, data):
        denominators = st.sampled_from([1, 3, 2**61 - 1, 2**64 + 1])
        drawn = data.draw(st.sets(st.builds(Fraction, st.integers(0, 50), denominators),
                                  min_size=1, max_size=6))
        outcomes = OutcomeSpace(sorted(drawn))
        rows = []
        for _ in range(data.draw(st.integers(1, 4))):
            own = data.draw(st.integers(2**61, 2**64))  # this row's denominator
            entries = st.one_of(
                st.integers(-2, 3), st.builds(Fraction, st.integers(-own, own), st.just(own)),
                st.builds(Fraction, st.integers(-9, 9), denominators),
            )
            rows.append(data.draw(st.lists(entries, min_size=outcomes.size,
                                           max_size=outcomes.size)))
        n = len(rows)
        costs = CostMatrix([[0] * outcomes.size] * n)
        inst = Instance(outcomes, ReportingRelation.identity(n), costs)
        utilities = outcomes.utilities
        assert expected_utilities(RandomizedMechanism(rows), inst) == [
            sum((Fraction(p) * u for p, u in zip(row, utilities)), Fraction(0)) for row in rows
        ]

    def test_float_rows_keep_float_sums(self):
        outcomes = OutcomeSpace([0, Fraction(1, 3), 2])
        mech = RandomizedMechanism([[0.25, 0, 0.75], [Fraction(1, 2), 0.5, 0], [0.0, 1, 0]])
        assert expected_utility(mech, outcomes, 0) == 0.75 * 2
        assert expected_utility(mech, outcomes, 1) == Fraction(1, 2) * 0 + 0.5 * Fraction(1, 3)
        assert isinstance(expected_utility(mech, outcomes, 1), float)
        # A float zero carries no mass, as in a plain sum of the nonzero terms.
        assert expected_utility(mech, outcomes, 2) == Fraction(1, 3)


class TestBestResponseCost:
    """``cost_best_response`` against the naive per-type reference."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle_best_response_outcomes(self, seed):
        rng = random.Random(seed)
        inst = random_instance(
            seed=seed, type_count=3 + seed % 5, outcome_count=2 + seed % 2,
            edge_density=0.5, max_cost=9,
        )
        n, m = inst.type_count, inst.outcome_count
        moved = 0
        for _ in range(10):
            # Few outcomes over many types: claims often tie.
            assignment = [rng.randrange(m) for _ in range(n)]
            mech = DeterministicMechanism(assignment)
            naive = sum(
                (inst.costs.entry(t, _best_response_outcome(inst, assignment, t, None))
                 for t in range(n)),
                Cost(0),
            )
            assert cost_best_response(mech, inst) == naive
            for t in range(n):
                assert assignment[best_response(mech, inst, t)] == (
                    _best_response_outcome(inst, assignment, t, None)
                )
            moved += naive != cost_deterministic(mech, inst)
        if len(inst.relation.pairs) > n:  # some type can misreport
            assert moved, "no mechanism was manipulated"

    def test_randomized_ties_break_toward_honesty(self):
        inst = Instance(
            outcomes=OutcomeSpace([0, 1, 2]),
            relation=ReportingRelation.full(2),
            costs=CostMatrix([[1, 2, 4], [8, 16, 32]]),
        )
        half = Fraction(1, 2)
        even = RandomizedMechanism([[0, 1, 0], [half, 0, half]])
        assert cost_best_response(even, inst) == cost_randomized(even, inst)
        skewed = RandomizedMechanism([[0, 1, 0], [1, 0, 0]])
        # type 1 claims type 0 and gets its lottery, priced on its own row
        assert cost_best_response(skewed, inst) == Cost(2 + 16)


class TestSerialization:
    def test_dump_writes_the_json_dumps_text(self, tmp_path):
        inst = random_instance(1, 5, 3, edge_density=0.4, infinity_rate=0.2)
        meta = {"family": "random", "oracle": {"c0": "3/2"}, "x": [0.1, None, True, "\u2603"]}
        path = tmp_path / "inst.json"
        dump_instance(inst, path, meta)
        assert path.read_text() == json.dumps(instance_to_json(inst, meta), indent=2) + "\n"
        with open(path, "rb") as fh:
            from_file = load_instance(fh)
        assert from_file == load_instance(path) == instance_from_json(json.loads(path.read_text()))
        assert from_file[1] == meta

    def test_instance_round_trip_with_infinities(self):
        inst = Instance(
            outcomes=OutcomeSpace([Fraction(1, 2), 2, 3]),
            relation=ReportingRelation(2, [(0, 0), (1, 1), (1, 0)]),
            costs=CostMatrix([[Cost.infinite(), 0, 2], [1, Cost.infinite(), 0]]),
        )
        data = instance_to_json(inst, meta={"label": "probe"})
        text = json.dumps(data)
        back, meta = instance_from_json(json.loads(text))
        assert meta["label"] == "probe"
        assert back.outcomes.utilities == inst.outcomes.utilities
        assert set(back.relation.pairs) == set(inst.relation.pairs)
        assert back.costs.rows == inst.costs.rows

    def test_mechanism_round_trips(self):
        det = DeterministicMechanism([2, 0, 1])
        rand = RandomizedMechanism(
            [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), Fraction(1, 2)]]
        )
        for mech in (det, rand):
            data = json.loads(json.dumps(mechanism_to_json(mech)))
            back = mechanism_from_json(data)
            assert type(back) is type(mech)
            if isinstance(mech, DeterministicMechanism):
                assert back.assignment == mech.assignment
            else:
                assert back.rows == mech.rows


def _outcome(parse, value):
    """What ``parse(value)`` gives: its value, or the type of its exception."""
    try:
        return "value", parse(value)
    except Exception as exc:  # the exception type is the observable
        return "error", type(exc)


_LADDER_DENOMINATORS = [1, 3, 2**63 + 25, 2**64 + 13]


@st.composite
def _truthfulness_cases(draw):
    """An instance on a rational utility ladder, with denominators above
    2**63 and claims both ways, and a deterministic mechanism or exact
    lotteries: ints, ``Fraction``s equal to ints, and entries over
    denominators above 2**63.  Rows repeat, so utilities tie."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    ladder = draw(st.sets(st.builds(Fraction, st.integers(0, 2**70),
                                    st.sampled_from(_LADDER_DENOMINATORS)),
                          min_size=m, max_size=m))
    index = st.integers(0, n - 1)
    claims = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    instance = Instance(OutcomeSpace(sorted(ladder)),
                        ReportingRelation(n, [(i, i) for i in range(n)] + claims),
                        CostMatrix([[0] * m] * n))
    if draw(st.booleans()):
        assignment = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        return instance, DeterministicMechanism(assignment)
    own = draw(st.integers(2**63 + 1, 2**66))  # one denominator shared by many entries
    entry = st.one_of(
        st.integers(0, 3),
        st.builds(Fraction, st.integers(0, 3)),
        st.builds(Fraction, st.integers(0, own), st.just(own)),
        st.builds(Fraction, st.integers(0, 2**64), st.integers(2**63 + 1, 2**65)),
    )
    pool = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=n))
    return instance, RandomizedMechanism(draw(st.sampled_from(pool)) for _ in range(n))


def _fraction_utilities(mech, instance):
    ladder = instance.outcomes.utilities
    if isinstance(mech, DeterministicMechanism):
        return [ladder[j] for j in mech.assignment]
    return [sum((Fraction(p) * u for p, u in zip(row, ladder)), Fraction(0)) for row in mech.rows]


class TestIntegerTruthfulness:
    """Exact truthfulness is decided in integers; the pairs found must be
    those of comparing ``Fraction`` utilities, in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(_truthfulness_cases())
    @example((small_instance(), DeterministicMechanism([0, 2])))
    @example((small_instance(), RandomizedMechanism([[Fraction(1), 0, 0], [1, 0, 0]])))
    @example((small_instance(),
              RandomizedMechanism([[0, 1, 0], [Fraction(1, 2), 0, Fraction(1, 2)]])))
    def test_matches_fraction_reference(self, case):
        instance, mech = case
        u = _fraction_utilities(mech, instance)
        expected = [(a, b) for a, b in instance.relation.claims if u[b] > u[a]]
        utilities = expected_utilities(mech, instance)
        assert utilities == u
        assert truthfulness_violations(mech, instance) == expected
        assert truthfulness_violations(mech, instance, utilities) == expected
        assert truthfulness_violations(mech, instance, utilities, True) == expected
        pairs = [v.as_integer_ratio() for v in utilities]  # as ``verify`` passes them
        assert truthfulness_violations(mech, instance, pairs, True) == expected
        assert is_truthful(mech, instance) == (not expected)

    @settings(max_examples=150, deadline=None)
    @given(_truthfulness_cases(), st.data())
    def test_float_rows_keep_the_tolerance(self, case, data):
        instance, mech = case
        assume(isinstance(mech, RandomizedMechanism))
        # some rows as floats, nudged by less or more than FLOAT_UTILITY_TOL
        nudge = st.sampled_from([0.0, 2.0**-50, 2.0**-35])
        rows = [
            [float(p) + (data.draw(nudge) if j == 0 else 0) for j, p in enumerate(row)]
            if data.draw(st.booleans()) else row
            for row in mech.rows
        ]
        mech = RandomizedMechanism(rows)
        utilities = expected_utilities(mech, instance)
        exact = is_exact(utilities)
        expected = [
            (a, b) for a, b in instance.relation.claims
            if exceeds(utilities[b], utilities[a], exact, FLOAT_UTILITY_TOL)
        ]
        assert truthfulness_violations(mech, instance) == expected
        assert truthfulness_violations(mech, instance, utilities) == expected
        assert truthfulness_violations(mech, instance, utilities, exact) == expected


def _ratio_via_cost(value):
    cost = cost_from_json(value)
    return None if not cost.is_finite else cost.value.as_integer_ratio()


_COST_CHARS = "0123456789/ +-_.eE\t٣٤²"
_JSON_COSTS = st.one_of(
    st.integers(min_value=-3, max_value=2**80),
    st.booleans(),
    st.floats(),
    st.builds("{}/{}".format, st.integers(-3, 2**70), st.integers(-3, 2**70)),
    st.text(alphabet=_COST_CHARS, max_size=10),
    st.sampled_from([
        "inf", "Infinity", " INF ", "-inf", "1/0", "0/0", "00/04", " 3/4 ", "+3/4",
        "-3/4", "1_000/3", "1e3", "1e3/2", "٣/٤", "²/3", "3/", "/3", "", "3.5",
        "0x10", "9" * 5000,
    ]),
)


class TestFastCostParse:
    @settings(max_examples=400, deadline=None)
    @given(_JSON_COSTS)
    def test_agrees_with_cost_from_json(self, value):
        assert _outcome(cost_ratio_from_json, value) == _outcome(_ratio_via_cost, value)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.fractions(min_value=0, max_value=10**6),
                    st.builds(Fraction, st.integers(0, 2**90), st.integers(2**63, 2**70)),
                    st.just(Cost.infinite()),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_rows_view_matches_entries(self, rows):
        matrix = CostMatrix(rows)
        entries = tuple(tuple(Cost(e) for e in row) for row in rows)
        assert matrix.rows == entries
        assert matrix == CostMatrix(entries) and hash(matrix) == hash(CostMatrix(entries))
        data = json.loads(json.dumps(instance_to_json(
            Instance(OutcomeSpace([1, 2, 3]), ReportingRelation.identity(len(rows)), matrix)
        )))
        back, _ = instance_from_json(data)
        assert back.costs == matrix and back.costs.rows == entries

    def test_scale_is_the_lcm_of_finite_denominators(self):
        matrix = CostMatrix([[Fraction(1, 4), Cost.infinite(), "5/6"], [2, Fraction(3, 9), 0]])
        assert matrix.scale == 12
        assert matrix.scaled == ((3, None, 10), (24, 4, 0))
        assert CostMatrix([[Cost.infinite()]]).scale == 1


def _error_or_value(parse, value):
    """What ``parse(value)`` gives: its value, or its exception's type and text."""
    try:
        return "value", parse(value)
    except Exception as exc:  # the exception is the observable
        return "error", type(exc), str(exc)


def _costs_per_entry(rows):
    """The reference reader: ``cost_ratio_from_json`` on every entry, then
    every finite entry over the lcm of the denominators."""
    ratios = [[cost_ratio_from_json(v) for v in row] for row in rows]
    scale = math.lcm(*{r[1] for row in ratios for r in row if r is not None})
    scaled = tuple(
        tuple(None if r is None else r[0] * (scale // r[1]) for r in row) for row in ratios
    )
    return scaled, scale


def _costs_read(rows):
    costs = instance_from_json({"outcomes": [1], "relation": [], "costs": rows})[0].costs
    return costs.scaled, costs.scale


def _relation_read(pairs):
    return instance_from_json({"outcomes": [1], "relation": pairs, "costs": [[0]] * 4})[0].relation


_SCALE_ONE_ROWS = st.lists(st.one_of(st.integers(0, 2**70), st.just("inf")), max_size=4)
_MIXED_ROWS = st.lists(
    st.one_of(
        st.integers(0, 99),
        st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 12)),
        _JSON_COSTS,
    ),
    max_size=4,
)


class TestOnePassReader:
    """``instance_from_json`` reads the cost rows and the relation in one pass."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(_SCALE_ONE_ROWS, _MIXED_ROWS), max_size=5))
    @example([[True, 1], [0, 2]])
    @example([[0.5, 1], [3, 2]])
    @example([[1, -1]])
    @example([["inf", " Infinity ", 7]])
    @example([[3, "1/0"]])
    @example([[3, "-1/2"]])
    @example([["1e3", 2]])
    @example([["٣/٤", "²"], [1, 2]])
    @example([[4, 2, "inf"], ["1/3", "5/6", 0], [7, 7, 7]])
    @example([[4, 2, "inf"], [1, "inf", 0]])
    @example([[2**80, "2/4"]])
    # Entries that hash alike but read apart, unhashable entries, and the
    # first of two bad entries in row order, which must name the error.
    @example([[1, True]])
    @example([[0, False]])
    @example([[1.0, 1, "1"]])
    @example([[[1], 2]])
    @example([[{}, 1]])
    @example([[3, "1/0", "-1/2"]])
    @example([[3, "-1/2", "1/0"]])
    @example(json.loads("[[NaN, 1]]"))
    def test_costs_match_per_entry_reference(self, rows):
        assert _error_or_value(_costs_read, rows) == _error_or_value(_costs_per_entry, rows)

    def test_scale_one_rows_are_not_rescaled(self):
        rows = [[4, 2, "inf"], [1, "6/2", 0]]
        assert _costs_read(rows) == (((4, 2, None), (1, 3, 0)), 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.one_of(st.integers(0, 3), st.booleans(), st.floats(0, 3)), max_size=3),
            max_size=6,
        )
    )
    @example([[0, 0], [0, 1, 2]])
    @example([[0, 0], [1]])
    @example([[0, 1.0]])
    @example([[False, 0]])
    def test_relation_matches_checked_pairs(self, pairs):
        valid = all(len(p) == 2 and all(type(x) is int for x in p) for p in pairs)
        if not valid:
            with pytest.raises(ValueError):
                _relation_read(pairs)
            return
        relation = _relation_read(pairs)
        assert relation == ReportingRelation(4, pairs)
        assert hash(relation) == hash(ReportingRelation(4, pairs))

    @pytest.mark.parametrize(
        "pair", [[0, 1, 2], [1], [], [0, 1.0], [0.0, 1], [True, 0], [0, False], "01", 5]
    )
    def test_bad_relation_pairs_exit_2(self, tmp_path, capsys, pair):
        from mechdesign.cli import EXIT_USAGE, main

        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"outcomes": [1, 2], "relation": [[0, 0], [1, 1], pair], "costs": [[1, 2], [3, 4]]}
        ))
        for argv in (["solve", str(path), "--algo", "det"], ["oracle", str(path), "--which", "det"]):
            assert main(argv) == EXIT_USAGE
            assert "cannot read instance" in capsys.readouterr().err


def _mechanism_violations_before(mech, instance):
    """``mechanism_violations`` as it was before its one-pass row check:
    exactness from every entry, one ``Fraction`` per denominator."""
    problems = []
    n, m = instance.type_count, instance.outcome_count
    if len(mech.rows) != n:
        problems.append(f"mechanism has {len(mech.rows)} rows, expected {n}")
    for i, row in enumerate(mech.rows):
        if len(row) != m:
            problems.append(f"row {i} has {len(row)} entries, expected {m}")
            continue
        exact = is_exact(row)
        if exact:
            ratios = [p.as_integer_ratio() for p in row if p]
            negative, total = any(r[0] < 0 for r in ratios), ratio_sum(ratios)
        else:
            negative, total = any(p < 0 for p in row), sum(row)
        if negative:
            problems.append(f"row {i} has a negative probability")
        if differs(total, 1, exact, ROW_SUM_TOL):
            problems.append(f"row {i} sums to {total}, expected 1")
    return problems


_BIG = 2**64 + 13

ROW_TABLE = [
    # exact rows
    [1, 0, 0],
    [Fraction(1, 3), Fraction(2, 3), 0],
    [Fraction(1, 3), Fraction(1, 3), 0],
    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
    [Fraction(1, _BIG), Fraction(_BIG - 1, _BIG), 0],
    [Fraction(1, _BIG), Fraction(_BIG - 1, _BIG), Fraction(1, _BIG)],
    [Fraction(0), 0, 0],
    [True, 0, False],
    # a float 0.0 makes the row a float row
    [0.0, Fraction(1, 3), Fraction(2, 3)],
    [0.0, Fraction(1, 3), Fraction(1, 3)],
    [-0.0, 1, 0],
    [0.0, Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**60)],
    # sums to 1 within the float tolerance, or just outside it
    [0.1, 0.2, 0.7],
    [0.5, 0.5 + 1e-13, 0],
    [0.5, 0.5 + 1e-11, 0],
    [Fraction(1, 4), 0.75, 0],
    # negative entries
    [2, -1, 0],
    [Fraction(3, 2), Fraction(-1, 2), 0],
    [Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)],
    [1.5, -0.5, 0.0],
    [-1, 0, 0],
    [float("nan"), 1.0, 0.0],
    # wrong length
    [1, 0],
]


class TestRowCheckAgainstBefore:
    """The one-pass row check gives the same verdicts and messages as the
    check it replaced."""

    def test_table_of_rows(self):
        n = len(ROW_TABLE)
        inst = Instance(OutcomeSpace(range(3)), ReportingRelation.identity(n),
                        CostMatrix([[0] * 3] * n))
        mech = RandomizedMechanism(ROW_TABLE)
        expected = _mechanism_violations_before(mech, inst)
        assert mechanism_violations(mech, inst) == expected
        for message in ("negative probability", "sums to", "entries, expected"):
            assert any(message in p for p in expected)


class TestLotteryReader:
    """``mechanism_from_json`` parses each distinct probability string once."""

    def test_repeated_strings_read_to_equal_fractions(self, monkeypatch):
        import mechdesign.instances as instances

        parsed = []
        original = instances.rational_from_json

        def counting(value):
            parsed.append(value)
            return original(value)

        monkeypatch.setattr(instances, "rational_from_json", counting)
        rows = [["1/3", "2/3", 0], [0, "2/3", "1/3"], ["1/3", "1/3", "1/3"], [0.25, "3/4", 0]]
        mech = mechanism_from_json({"kind": "randomized", "rows": rows})
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        assert mech.rows == (
            (third, two_thirds, 0), (0, two_thirds, third), (third, third, third),
            (0.25, Fraction(3, 4), 0),
        )
        assert [type(p) for p in mech.rows[3]] == [float, Fraction, int]
        assert sorted(parsed) == ["1/3", "2/3", "3/4"]

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1/0", "cannot read mechanism {mech}: zero denominator in '1/0'"),
            ("x", "cannot read mechanism {mech}: Invalid literal for Fraction: 'x'"),
            (True, "cannot read mechanism {mech}: not a rational: True"),
            ("-1/2", "mechanism does not fit the instance: row 1 has a negative probability; "
                     "row 1 sums to 0, expected 1"),
            (-1, "mechanism does not fit the instance: row 1 has a negative probability; "
                 "row 1 sums to -1/2, expected 1"),
        ],
    )
    def test_bad_probabilities_exit_2(self, tmp_path, capsys, value, message):
        from mechdesign.cli import EXIT_USAGE, main

        inst, mech = tmp_path / "inst.json", tmp_path / "mech.json"
        inst.write_text(json.dumps({
            "outcomes": [1, 2, 3], "relation": [[0, 0], [1, 1], [2, 2], [0, 1]],
            "costs": [[4, 2, 7], [1, 5, 3], [2, "inf", 6]],
        }))
        # the bad value's row repeats a string read in the row before
        rows = [["1/2", "1/2", 0], ["1/2", value, 0], [0, 0, 1]]
        mech.write_text(json.dumps({"kind": "randomized", "rows": rows}))
        assert main(["verify", str(inst), str(mech)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: " + message.format(mech=mech) + "\n"
