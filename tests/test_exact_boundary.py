"""One boundary between floats and exact values: a float probability, profile
entry or extension point is read at its decimal value (``exact_rational``)
where it enters, so every public function returns for float input exactly
what it returns for the decimal twin, and ``verify`` reads float lottery
files the same way."""

import json
import random
from fractions import Fraction

import pytest

from mechdesign import (
    ChainDistribution,
    CostMatrix,
    Instance,
    OutcomeSpace,
    RandomizedMechanism,
    ReportingRelation,
    chain_cost,
    consolidate_two_consecutive,
    determinize_binary,
    dump_instance,
    interpret_marginals,
    mechanism_from_json,
    objective_subgradient,
    pl_extension_value,
    random_convex_instance,
    random_instance,
    threshold_round,
    uncross,
)
from mechdesign.cli import EXIT_OK, EXIT_USAGE, main
from mechdesign.instances import exact_rational, probability_from_json
from mechdesign.submodular import chain_from_json

from conftest import product_coupling, random_float_profile, random_submodular_table

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def decimal(x):
    """The decimal twin of a float: the rational its shortest repr spells."""
    return Fraction(repr(x))


def tenth_rows(rng, n, m):
    """Exact rows on a 1/10 grid, so that every product of up to five
    entries has a short decimal and survives a trip through ``float``."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, 10) for _ in range(m - 1))
        rows.append([Fraction(b - a, 10) for a, b in zip([0, *cuts], [*cuts, 10])])
    return rows


def as_floats(items):
    floats = [(point, float(p)) for point, p in items]
    assert [(point, decimal(p)) for point, p in floats] == items
    return floats


class TestExactRational:
    def test_a_float_reads_as_its_decimal(self):
        assert exact_rational(0.1) == Fraction(1, 10) != Fraction(0.1)
        assert exact_rational(0.5 + 2**-50) == Fraction("0.5000000000000009")
        assert exact_rational(1e-300) == Fraction(1, 10**300)
        assert exact_rational(-0.0) == 0 and exact_rational(2.0) == 2

    @pytest.mark.parametrize("x", [0, 7, -3, 2**80, Fraction(1, 3), Fraction(2**64 + 1, 3)])
    def test_ints_and_fractions_pass_unchanged(self, x):
        assert exact_rational(x) is x

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_nan_and_infinities_raise(self, x):
        with pytest.raises(ValueError, match="not a finite number"):
            exact_rational(x)
        with pytest.raises(ValueError, match="not a finite number"):
            probability_from_json(x)
        with pytest.raises(ValueError, match="not a finite number"):
            RandomizedMechanism([[x, 1.0]])


class TestDecimalTwins:
    """Each function that takes probabilities, given floats, returns exactly
    what it returns for their decimal twins."""

    def test_mechanisms_and_chains(self):
        rows = [[0.1, 0.2, 0.7], [0.3333333333333333, 0, 0.6666666666666667]]
        twin = [[decimal(p) for p in row] for row in rows]
        assert RandomizedMechanism(rows) == RandomizedMechanism(twin)
        read = mechanism_from_json({"kind": "randomized", "rows": rows})
        assert read == RandomizedMechanism(twin)
        support = ((0, 0), (1, 0), (1, 1))
        assert ChainDistribution(support, (0.1, 0.2, 0.7)).probs == (
            Fraction(1, 10), Fraction(1, 5), Fraction(7, 10))
        floats = {"support": [{"vector": list(pt), "prob": p}
                              for pt, p in zip(support, (0.1, 0.2, 0.7))]}
        strings = {"support": [{"vector": list(pt), "prob": p}
                               for pt, p in zip(support, ("1/10", "1/5", "7/10"))]}
        assert chain_from_json(floats) == chain_from_json(strings)

    def test_interpret_marginals_and_subgradient(self):
        rng = random.Random(2601)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(2, 4)
            rows = random_float_profile(rng, n, m)
            twin = [[decimal(x) for x in row] for row in rows]
            assert interpret_marginals(rows) == interpret_marginals(twin)
            oracle = random_submodular_table(rng, n, m)
            assert objective_subgradient(rows, oracle) == objective_subgradient(twin, oracle)

    def test_uncross_and_chain_cost(self):
        rng = random.Random(2602)
        for _ in range(30):
            n, m = rng.randint(2, 4), rng.randint(2, 3)
            items = product_coupling(tenth_rows(rng, n, m))
            floats = as_floats(items)
            oracle = random_submodular_table(rng, n, m)
            assert uncross(floats, oracle) == uncross(items, oracle)
            assert chain_cost(floats, oracle) == chain_cost(items, oracle)

    def test_determinize_binary(self):
        rng = random.Random(2603)
        relation = ReportingRelation(3, [(0, 0), (1, 1), (2, 2), (1, 0)])
        for _ in range(60):
            rows = tenth_rows(rng, 3, 2)
            if rows[1][1] < rows[0][1]:  # type 1 claims type 0: it sits as high
                rows[0], rows[1] = rows[1], rows[0]
            items = product_coupling(rows)
            oracle = random_submodular_table(rng, 3, 2)
            assert (determinize_binary(as_floats(items), relation, oracle)
                    == determinize_binary(items, relation, oracle))

    def test_consolidation_and_threshold_rounding(self):
        rng = random.Random(2604)
        rounded = 0
        for k in range(30):
            inst = random_convex_instance(seed=26_000 + k, type_count=3, outcome_count=4,
                                          edge_density=0.0)
            rows = tenth_rows(rng, 3, 4)
            floats = [[float(p) for p in row] for row in rows]
            packed = consolidate_two_consecutive(RandomizedMechanism(floats), inst)
            assert packed == consolidate_two_consecutive(RandomizedMechanism(rows), inst)
            two = [[float(p) for p in row] for row in packed.rows]
            if all(decimal(p) == q for row, exact in zip(two, packed.rows)
                   for p, q in zip(row, exact)):
                assert (threshold_round(RandomizedMechanism(two), inst)
                        == threshold_round(packed, inst))
                rounded += 1
        assert rounded >= 10

    def test_threshold_rounding_of_float_lotteries(self):
        inst = Instance(OutcomeSpace([0, 1, 2]), ReportingRelation.identity(3),
                        CostMatrix([[3, 1, 2], [1, 1, 1], [0, 4, 9]]))
        floats = [[0.3, 0.7, 0], [0, 0.1, 0.9], [1.0, 0, 0]]
        twin = [[decimal(p) for p in row] for row in floats]
        assert (threshold_round(RandomizedMechanism(floats), inst)
                == threshold_round(RandomizedMechanism(twin), inst))

    def test_pl_extension_value(self):
        outcomes = OutcomeSpace([0, 1, 3])
        row = [5, 2, 8]
        for x in (0.1, 0.5, 1.7, 2.9, 3.0):
            assert pl_extension_value(row, outcomes, x) == pl_extension_value(
                row, outcomes, decimal(x))
        assert pl_extension_value(row, outcomes, 0.1) == Fraction(47, 10)
        for x in NON_FINITE:
            with pytest.raises(ValueError, match="not a finite number"):
                pl_extension_value(row, outcomes, x)


# ---------------------------------------------------------------------------
# Through the command line
# ---------------------------------------------------------------------------

TWO_TYPES = {"outcomes": [0, 1, 2], "relation": [[0, 0], [0, 1], [1, 0], [1, 1]],
             "costs": [[3, 1, 2], [1, 1, 1]]}


def verify(tmp_path, capsys, rows_text, instance=TWO_TYPES):
    inst, mech = tmp_path / "inst.json", tmp_path / "mech.json"
    inst.write_text(json.dumps(instance))
    mech.write_text('{"kind": "randomized", "rows": %s}' % rows_text)
    code = main(["verify", str(inst), str(mech)])
    out, err = capsys.readouterr()
    return code, out, err, mech


class TestVerifyReadsDecimals:
    def test_decimal_lottery_costs_its_decimal_value(self, tmp_path, capsys):
        code, out, _, _ = verify(tmp_path, capsys, "[[0.1, 0.2, 0.7], [0.1, 0.2, 0.7]]")
        report = json.loads(out)
        assert code == EXIT_OK and report["truthful"] is True
        assert report["cost_truthful"] == report["cost_best_response"] == "29/10"
        assert [entry["reports"] for entry in report["expected_utilities"]] == [
            {"0": "8/5", "1": "8/5"}] * 2

    def test_thirds_as_floats_are_refused(self, tmp_path, capsys):
        third = "[0.3333333333333333, 0.3333333333333333, 0.3333333333333333]"
        code, out, err, mech = verify(tmp_path, capsys, f"[{third}, {third}]")
        assert code == EXIT_USAGE and out == ""
        row_sum = "sums to 9999999999999999/10000000000000000, expected 1"
        assert err == (f"error: mechanism does not fit the instance: row 0 {row_sum}; "
                       f"row 1 {row_sum}; floats are read at their decimal values: "
                       'write 1/3 as "1/3"\n')
        third = '["1/3", "1/3", "1/3"]'
        code, out, _, _ = verify(tmp_path, capsys, f"[{third}, {third}]")
        assert code == EXIT_OK and json.loads(out)["cost_truthful"] == "3"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_probability_is_refused_at_read(self, tmp_path, capsys, token):
        code, out, err, mech = verify(tmp_path, capsys, f"[[{token}, 1, 0], [0, 1, 0]]")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot read mechanism {mech}: not a finite number")

    @pytest.mark.parametrize("seed", range(3))
    def test_solve_writes_only_ints_and_fraction_strings(self, tmp_path, capsys, seed):
        inst, out = tmp_path / "inst.json", tmp_path / "out.json"
        dump_instance(random_instance(seed=seed, type_count=8, outcome_count=3,
                                      edge_density=0.3, infinity_rate=0.0), inst)
        for algo in ("det", "rand", "sub-det", "sub-rand"):
            argv = ["solve", str(inst), "--algo", algo, "--out", str(out), "--eps", "0.1"]
            assert main(argv) == EXIT_OK
            data = json.loads(out.read_text())
            if "support" in data:
                values = [item["prob"] for item in data["support"]]
            else:
                values = data.get("assignment") or [p for row in data["rows"] for p in row]
                assert main(["verify", str(inst), str(out)]) == EXIT_OK
            assert {type(v) for v in values} <= {int, str}, algo
        capsys.readouterr()
