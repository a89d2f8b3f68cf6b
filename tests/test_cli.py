"""Command-line interface: full command round trips and exit codes."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mechdesign
from mechdesign import (
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    RandomizedMechanism,
    ReportingRelation,
    brute_force_deterministic_opt,
    brute_force_envelope_opt,
    cost_best_response,
    dump_instance,
    expected_utility,
    instance_from_json,
    mechanism_to_json,
    random_instance,
    solve_deterministic,
    solve_randomized,
)

from mechdesign.cli import (
    EXIT_BUDGET,
    EXIT_INFINITE,
    EXIT_OK,
    EXIT_SELF_CHECK,
    EXIT_UNTRUTHFUL,
    EXIT_USAGE,
    _json_text,
    _write_json,
    main,
)
from mechdesign.instances import FLOAT_UTILITY_TOL, rational_to_json


REFERENCE = Path(__file__).resolve().parents[1] / "mdbench" / "reference.py"


def _load_reference():
    spec = importlib.util.spec_from_file_location("mdbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout)


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, _ = run(
        capsys,
        "generate",
        "random",
        "--out",
        str(path),
        "--seed",
        "5",
        "--types",
        "4",
        "--outcomes",
        "3",
        "--density",
        "0.5",
    )
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_gap_round_trip(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        code, out, _ = run(capsys, "generate", "gap", "--out", str(path))
        assert code == EXIT_OK
        report = last_json(out)
        assert report["types"] == 2 and report["outcomes"] == 3
        data = json.loads(path.read_text())
        assert data["meta"]["family"] == "gap"

    def test_minsat_kinds_need_cnf(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "minsat1", "--out", str(tmp_path / "x.json")
        )
        assert code == EXIT_USAGE
        assert "--cnf" in err

    def test_minsat_reductions_from_dimacs(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        for kind, outcomes in (("minsat1", 2), ("minsat2", 3)):
            path = tmp_path / f"{kind}.json"
            code, out, _ = run(
                capsys, "generate", kind, "--cnf", str(cnf), "--out", str(path)
            )
            assert code == EXIT_OK
            report = last_json(out)
            assert report["types"] == 3 * 2 + 2
            assert report["outcomes"] == outcomes

    @pytest.mark.parametrize(
        "costs, message",
        [
            (["--block-cost", "9"], "come together"),
            (["--commit-cost", "3"], "come together"),
            (["--block-cost", "9", "--commit-cost", "2"], "commit_cost 2 must exceed"),
            (["--block-cost", "8", "--commit-cost", "3"], "block_cost 8 must exceed"),
        ],
    )
    def test_minsat2_refuses_partial_or_unsound_costs(self, tmp_path, capsys, costs, message):
        # Two variables and two clauses: sound costs need commit > 2 and
        # block > 2 * commit + 2.
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        path = tmp_path / "x.json"
        code, out, err = run(
            capsys, "generate", "minsat2", "--cnf", str(cnf), "--out", str(path), *costs
        )
        assert code == EXIT_USAGE
        assert message in err
        assert out == ""
        assert not path.exists()

    def test_minsat2_writes_sound_costs_to_meta(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        path = tmp_path / "x.json"
        code, _, _ = run(capsys, "generate", "minsat2", "--cnf", str(cnf), "--out", str(path),
                         "--block-cost", "17/2", "--commit-cost", "5/2")
        assert code == EXIT_OK
        meta = json.loads(path.read_text())["meta"]
        assert (meta["block_cost"], meta["commit_cost"]) == ("17/2", "5/2")

    def test_overhead_carries_oracle_meta(self, tmp_path, capsys):
        path = tmp_path / "over.json"
        code, _, _ = run(
            capsys,
            "generate",
            "overhead",
            "--out",
            str(path),
            "--overhead",
            "7/2",
            "--types",
            "3",
            "--outcomes",
            "2",
        )
        assert code == EXIT_OK
        meta = json.loads(path.read_text())["meta"]
        assert meta["oracle"]["kind"] == "additive_plus_overhead"

    def test_bad_density_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "random",
            "--out",
            str(tmp_path / "x.json"),
            "--density",
            "1.5",
        )
        assert code == EXIT_USAGE
        assert "density" in err

    @pytest.mark.parametrize("kind", ["random", "overhead"])
    @pytest.mark.parametrize(
        "option, value",
        [("--types", "0"), ("--types", "-2"), ("--outcomes", "0"), ("--outcomes", "-1"),
         ("--infinity-rate", "2"), ("--infinity-rate", "-1"), ("--infinity-rate", "nan"),
         ("--max-cost", "-5")],
    )
    def test_out_of_range_options_rejected(self, tmp_path, capsys, kind, option, value):
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "generate", kind, "--out", str(path), option, value)
        assert code == EXIT_USAGE
        assert option in err
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["random", "overhead"])
    def test_smallest_options_accepted(self, tmp_path, capsys, kind):
        # The overhead oracle needs finite costs, so only random takes a rate.
        path = tmp_path / "x.json"
        rate = ["--infinity-rate", "1"] if kind == "random" else []
        code, out, _ = run(
            capsys, "generate", kind, "--out", str(path), "--types", "1", "--outcomes", "1",
            "--max-cost", "0", *rate,
        )
        assert code == EXIT_OK
        assert (json.loads(out)["types"], json.loads(out)["outcomes"]) == (1, 1)
        assert path.exists()

    @pytest.mark.parametrize("rate", ["1", "0.5", "1e-12"])
    def test_overhead_refuses_infinity_rate(self, tmp_path, capsys, rate):
        path = tmp_path / "x.json"
        code, out, err = run(capsys, "generate", "overhead", "--out", str(path),
                             "--types", "1", "--outcomes", "1", "--infinity-rate", rate)
        assert code == EXIT_USAGE
        assert "--infinity-rate" in err
        assert out == ""
        assert not path.exists()

    def test_overhead_zero_infinity_rate_is_the_default(self, tmp_path, capsys):
        paths = [tmp_path / "default.json", tmp_path / "zero.json"]
        assert run(capsys, "generate", "overhead", "--out", str(paths[0]))[0] == EXIT_OK
        assert run(capsys, "generate", "overhead", "--out", str(paths[1]),
                   "--infinity-rate", "0")[0] == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSolve:
    def test_det_solves_and_writes_mechanism(self, tmp_path, capsys, instance_file):
        mech_path = tmp_path / "mech.json"
        code, out, _ = run(
            capsys,
            "solve",
            str(instance_file),
            "--algo",
            "det",
            "--out",
            str(mech_path),
        )
        assert code == EXIT_OK
        report = last_json(out)
        assert report["checks"]["truthful"] is True
        data = json.loads(mech_path.read_text())
        assert data["kind"] == "deterministic"

    def test_infeasible_flow_exits_6(self, capsys, tmp_path, monkeypatch):
        from mechdesign.maxflow import FlowGraph

        # Seed 6 has a claim that the seeded chains violate, so det reaches
        # the flow graph; the seeded chains settle every claim of seed 5.
        path = tmp_path / "conflicted.json"
        run(capsys, "generate", "random", "--out", str(path), "--seed", "6",
            "--types", "4", "--outcomes", "3", "--density", "0.5")
        original = FlowGraph.max_flow
        monkeypatch.setattr(
            FlowGraph, "max_flow", lambda graph, s, t: original(graph, s, t) + 1
        )
        for algo in ("det", "rand"):
            code, _, err = run(capsys, "solve", str(path), "--algo", algo)
            assert code == EXIT_SELF_CHECK
            assert "max flow reported" in err

    @pytest.mark.parametrize("algo", ["det", "rand"])
    def test_instance_is_validated_once(self, capsys, instance_file, monkeypatch, algo):
        original, calls = mechdesign.instances.validate, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mechdesign.instances, "validate", counted)
        code, _, _ = run(capsys, "solve", str(instance_file), "--algo", algo)
        assert code == EXIT_OK and len(calls) == 1

    def test_library_solvers_refuse_invalid_instances_every_time(self):
        bad = Instance(OutcomeSpace([2, 1]), ReportingRelation.identity(1), CostMatrix([[1, 1]]))
        for solve in (solve_deterministic, solve_randomized, solve_deterministic):
            with pytest.raises(ValueError, match="not strictly increasing"):
                solve(bad)

    @pytest.mark.parametrize(
        "module, algo", [("mincut", "det"), ("envelope", "rand"), ("cli", "sub-det")]
    )
    def test_solver_truthfulness_check_exits_6(
        self, capsys, instance_file, monkeypatch, module, algo
    ):
        # Each path checks truthfulness once: det and rand in the solver,
        # sub-det in the CLI (the instance's costs are all finite).
        monkeypatch.setattr(getattr(mechdesign, module), "is_truthful", lambda mech, inst: False)
        code, out, err = run(capsys, "solve", str(instance_file), "--algo", algo)
        assert code == EXIT_SELF_CHECK, out
        assert "truthful" in err

    def test_gap_infinite_exit(self, tmp_path, capsys):
        path = tmp_path / "gap.json"
        run(capsys, "generate", "gap", "--out", str(path))
        code, out, _ = run(capsys, "solve", str(path), "--algo", "det")
        assert code == EXIT_INFINITE
        assert last_json(out)["cost"] == "inf"
        code, out, _ = run(capsys, "solve", str(path), "--algo", "rand")
        assert code == EXIT_OK
        assert last_json(out)["cost"] == "0"

    def test_dot_only_for_det(self, tmp_path, capsys, instance_file):
        dot = tmp_path / "net.dot"
        code, _, err = run(
            capsys,
            "solve",
            str(instance_file),
            "--algo",
            "rand",
            "--dot",
            str(dot),
        )
        assert code == EXIT_USAGE
        code, _, _ = run(
            capsys,
            "solve",
            str(instance_file),
            "--algo",
            "det",
            "--dot",
            str(dot),
        )
        assert code == EXIT_OK
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("algo", ["det", "rand"])
    @pytest.mark.parametrize("backend", ["nonsense", "brute"])
    def test_backend_only_for_query_model(self, capsys, instance_file, algo, backend):
        code, out, err = run(
            capsys, "solve", str(instance_file), "--algo", algo, "--backend", backend
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--backend does not apply to --algo {algo}" in err

    def test_sub_det_backends(self, tmp_path, capsys, instance_file):
        reports = {}
        for backend in ("lovasz", "brute"):
            code, out, _ = run(
                capsys,
                "solve",
                str(instance_file),
                "--algo",
                "sub-det",
                "--backend",
                backend,
            )
            assert code == EXIT_OK
            reports[backend] = last_json(out)
            assert reports[backend]["solver"] == f"lattice-{backend}"
        assert reports["brute"]["checks"]["gap"] == 0
        gap = reports["lovasz"]["checks"]["gap"]
        cost = float(reports["lovasz"]["cost"])
        assert gap >= 0
        assert cost - gap - 1e-9 <= float(reports["brute"]["cost"]) <= cost

    def test_integer_overhead_sub_det_is_certified_exact(self, tmp_path, capsys):
        # The lower bound is exact, so a gap of 0 proves the returned vector
        # optimal.
        path = tmp_path / "over.json"
        code, _, _ = run(
            capsys, "generate", "overhead", "--out", str(path), "--overhead", "3",
            "--types", "4", "--outcomes", "3", "--seed", "2",
        )
        assert code == EXIT_OK
        reports = {}
        for backend in ("lovasz", "brute"):
            code, out, _ = run(
                capsys, "solve", str(path), "--algo", "sub-det", "--backend", backend
            )
            assert code == EXIT_OK
            reports[backend] = last_json(out)
        assert reports["lovasz"]["cost"] == reports["brute"]["cost"]
        assert reports["lovasz"]["checks"]["gap"] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_sub_det_out_verifies(self, tmp_path, capsys, seed):
        # verify costs the matrix; the oracle's cost adds c0 off the bottom.
        path, mech = tmp_path / "over.json", tmp_path / "mech.json"
        code, _, _ = run(capsys, "generate", "overhead", "--out", str(path), "--overhead", "5/2",
                         "--types", "5", "--outcomes", "3", "--seed", str(seed))
        assert code == EXIT_OK
        code, out, _ = run(capsys, "solve", str(path), "--algo", "sub-det", "--out", str(mech))
        assert code == EXIT_OK
        solved = Fraction(last_json(out)["cost"])
        written = json.loads(mech.read_text())
        assert written["kind"] == "deterministic"
        code, out, _ = run(capsys, "verify", str(path), str(mech))
        assert code == EXIT_OK
        report = last_json(out)
        assert report["truthful"] is True
        c0 = Fraction(5, 2) if any(written["assignment"]) else 0
        assert Fraction(report["cost_truthful"]) + c0 == solved

    def test_sub_rand_chain_output(self, tmp_path, capsys, instance_file):
        chain_path = tmp_path / "chain.json"
        code, out, _ = run(
            capsys,
            "solve",
            str(instance_file),
            "--algo",
            "sub-rand",
            "--eps",
            "0.01",
            "--out",
            str(chain_path),
        )
        assert code == EXIT_OK
        report = last_json(out)
        assert report["checks"]["converged"] is True
        support = json.loads(chain_path.read_text())["support"]
        assert support

    def test_unreadable_instance(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "solve", str(tmp_path / "missing.json"), "--algo", "det"
        )
        assert code == EXIT_USAGE
        assert "cannot read" in err


    def test_sub_rand_rejects_subgradient_backend(self, capsys, instance_file):
        code, _, err = run(
            capsys, "solve", str(instance_file), "--algo", "sub-rand",
            "--backend", "subgradient",
        )
        assert code == EXIT_USAGE
        assert "unknown sub-rand backend" in err

    def test_overhead_n48_is_certified_exact(self, tmp_path, capsys):
        path = tmp_path / "o48.json"
        code, _, _ = run(
            capsys, "generate", "overhead", "--seed", "0", "--types", "48",
            "--outcomes", "4", "--density", "0.1", "--out", str(path),
        )
        assert code == EXIT_OK
        for algo, optimum in (("sub-rand", "276"), ("sub-det", "422")):
            code, out, _ = run(
                capsys, "solve", str(path), "--algo", algo, "--eps", "0.01"
            )
            assert code == EXIT_OK
            report = last_json(out)
            assert report["cost"] == optimum
            assert report["checks"]["gap"] == 0
            assert report["checks"].get("converged", True) is True

    def test_sub_rand_certificate_holds_at_n8(self, tmp_path, capsys):
        # Here the ellipsoid once certified a gap of 0 while 2.4e-3 above
        # the optimum, after its shape matrix lost definiteness.
        rng = random.Random(1)
        n, m = 8, 4
        relation = [[i, i] for i in range(n)] + [[i, i - 1] for i in range(1, n)]
        costs = [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        c0 = rng.randint(1, 10)
        doc = {
            "outcomes": list(range(m)),
            "relation": relation,
            "costs": costs,
            "meta": {"oracle": {"kind": "additive_plus_overhead", "c0": c0}},
        }
        path = tmp_path / "n8.json"
        path.write_text(json.dumps(doc))
        lp = _load_reference().lattice_lp_optimum(doc)
        code, out, _ = run(
            capsys, "solve", str(path), "--algo", "sub-rand", "--eps", "1e-3"
        )
        assert code == EXIT_OK
        report = last_json(out)
        assert report["checks"]["converged"] is True
        assert lp - 1e-6 <= float(report["cost"]) <= lp + 1e-3


class TestInfiniteOracleTables:
    @staticmethod
    def table_instance(tmp_path, values):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "outcomes": [0, 1],
            "relation": [[0, 0], [1, 1]],
            "costs": [[0, 0], [0, 0]],
            "meta": {"oracle": {"kind": "table", "values": values}},
        }))
        return path

    @pytest.mark.parametrize(
        "algo", [["sub-det"], ["sub-det", "--backend", "brute"], ["sub-rand"]]
    )
    def test_no_finite_value_exits_3(self, tmp_path, capsys, algo):
        path = self.table_instance(tmp_path, ["inf"] * 4)
        code, _, err = run(capsys, "solve", str(path), "--algo", *algo)
        assert code == EXIT_INFINITE
        assert "no finite value" in err

    @pytest.mark.parametrize("algo", ["sub-det", "sub-rand"])
    def test_numeric_solvers_reject_infinite_values(self, tmp_path, capsys, algo):
        path = self.table_instance(tmp_path, [1, "inf", "inf", "inf"])
        code, _, err = run(capsys, "solve", str(path), "--algo", algo)
        assert code == EXIT_USAGE
        assert "is infinite" in err

    def test_brute_solves_partly_infinite_table(self, tmp_path, capsys):
        path = self.table_instance(tmp_path, [1, "inf", "inf", "inf"])
        code, out, _ = run(
            capsys, "solve", str(path), "--algo", "sub-det", "--backend", "brute"
        )
        assert code == EXIT_OK
        assert last_json(out)["cost"] == "1"

class TestNonSubmodularTable:
    # The peel's upper bound on this 2x3 table falls 1 below the cut's lower
    # bound, which no submodular cost allows.
    VALUES = [4, 4, 0, 7, 8, 5, 4, 3, 9]

    @pytest.mark.parametrize("algo", ["sub-det", "sub-rand"])
    def test_negative_gap_exits_6(self, tmp_path, capsys, algo):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "outcomes": [0, 1, 2],
            "relation": [[0, 0], [1, 1], [1, 0]],
            "costs": [[0, 0, 0], [0, 0, 0]],
            "meta": {"oracle": {"kind": "table", "values": self.VALUES}},
        }))
        code, _, err = run(capsys, "solve", str(path), "--algo", algo)
        assert code == EXIT_SELF_CHECK
        assert "not submodular" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text() | st.integers() | st.booleans(), inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    @example({"a": [], "b": {}, "c": [[], [{}], {"d": []}]})
    @example(["caf\u00e9 \u2603 \U0001f600", "tab\t quote\" back\\ nl\n \x00"])
    @example([True, False, None, 0, -1, 2**80, 0.1, -0.0, 1e300, float("inf"),
              float("-inf"), float("nan")])
    @example({1: "int key", 2.5: "float key", None: "none key", True: "bool key"})
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{"x": Fraction(1, 3)}, [{(1, 2): 3}], {(): 0}])
    def test_unknown_types_raise_like_json(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


class TestVerify:
    def test_accepts_solver_output(self, tmp_path, capsys, instance_file):
        mech_path = tmp_path / "mech.json"
        run(
            capsys,
            "solve",
            str(instance_file),
            "--algo",
            "det",
            "--out",
            str(mech_path),
        )
        code, out, _ = run(capsys, "verify", str(instance_file), str(mech_path))
        assert code == EXIT_OK
        report = last_json(out)
        assert report["truthful"] is True
        assert report["cost_truthful"] == report["cost_best_response"]

    def test_flags_untruthful_mechanism(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        run(
            capsys,
            "generate",
            "random",
            "--out",
            str(inst_path),
            "--seed",
            "8",
            "--types",
            "3",
            "--outcomes",
            "3",
            "--density",
            "1.0",
        )
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(
            json.dumps({"kind": "deterministic", "assignment": [2, 1, 0]})
        )
        code, out, _ = run(capsys, "verify", str(inst_path), str(mech_path))
        assert code == EXIT_UNTRUTHFUL
        report = last_json(out)
        assert report["truthful"] is False
        assert report["violating_pairs"]

    def test_rejects_shape_mismatch(self, tmp_path, capsys, instance_file):
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(
            json.dumps({"kind": "deterministic", "assignment": [0]})
        )
        code, _, err = run(capsys, "verify", str(instance_file), str(mech_path))
        assert code == EXIT_USAGE
        assert "does not fit" in err

    def test_chain_file_is_named(self, tmp_path, capsys, instance_file):
        chain = tmp_path / "chain.json"
        code, _, _ = run(capsys, "solve", str(instance_file), "--algo", "sub-rand",
                         "--eps", "1e-2", "--out", str(chain))
        assert code == EXIT_OK
        code, out, err = run(capsys, "verify", str(instance_file), str(chain))
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: cannot read mechanism {chain}: this is a sub-rand chain "
                       "file, which verify does not read yet\n")


def _number_text(x):
    return f"{x:.12g}" if isinstance(x, float) else str(x)


_BIG_DENOMINATORS = [2**63 + 25, 2**64 + 13]


@st.composite
def _verify_cases(draw):
    """An instance and a mechanism for it: deterministic, exact lotteries or
    float lotteries, often untruthful; some cost denominators above 2**63."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    utilities = draw(st.sets(st.builds(Fraction, st.integers(0, 30), st.sampled_from([1, 2, 7])),
                             min_size=m, max_size=m))
    index = st.integers(0, n - 1)
    claims = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    entry = st.one_of(
        st.builds(Fraction, st.integers(0, 2**70), st.sampled_from([1, 3] + _BIG_DENOMINATORS)),
        st.just(Cost.infinite()),
    )
    costs = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    instance = Instance(OutcomeSpace(sorted(utilities)),
                        ReportingRelation(n, [(i, i) for i in range(n)] + claims),
                        CostMatrix(costs))
    kind = draw(st.sampled_from(["det", "exact", "float"]))
    if kind == "det":
        return instance, DeterministicMechanism(draw(st.lists(st.integers(0, m - 1),
                                                              min_size=n, max_size=n)))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
        weights[draw(st.integers(0, m - 1))] += 1
        row = [Fraction(w, sum(weights)) for w in weights]
        rows.append([float(p) for p in row] if kind == "float" else row)
    return instance, RandomizedMechanism(rows)


class TestVerifyReportBytes:
    """``verify`` writes its report in one pass; the bytes are those of
    ``json.dumps`` on the report built with one dict per type."""

    _TWO = Instance(OutcomeSpace([0, 1]), ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
                    CostMatrix([[1, 2], [3, Fraction(1, _BIG_DENOMINATORS[1])]]))

    @settings(max_examples=150, deadline=None)
    @given(_verify_cases())
    @example((Instance(OutcomeSpace([3]), ReportingRelation.identity(1),
                       CostMatrix([[Fraction(5, _BIG_DENOMINATORS[0])]])),
              DeterministicMechanism([0])))
    @example((_TWO, DeterministicMechanism([0, 1])))  # untruthful: exit 4
    @example((_TWO, RandomizedMechanism([[0.1, 0.9], [0.7, 0.3]])))
    @example((_TWO, RandomizedMechanism([[Fraction(1, 3), Fraction(2, 3)], [0, 1]])))
    def test_stdout_equals_json_dumps_of_the_old_report(self, case):
        instance, mech = case
        with tempfile.TemporaryDirectory() as tmp:
            inst_path, mech_path = Path(tmp) / "inst.json", Path(tmp) / "mech.json"
            dump_instance(instance, inst_path)
            mech_path.write_text(json.dumps(mechanism_to_json(mech)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", str(inst_path), str(mech_path)])
            loaded, _ = instance_from_json(json.loads(inst_path.read_text()))
        out = out.getvalue()
        report = json.loads(out)
        assert code == (EXIT_OK if report["truthful"] else EXIT_UNTRUTHFUL)
        utilities = [expected_utility(mech, loaded.outcomes, r) for r in range(loaded.type_count)]
        del report["expected_utilities"]
        report["expected_utilities"] = [
            {"type": i, "reports": {str(r): _number_text(utilities[r])
                                    for r in loaded.relation.allowed_reports(i)}}
            for i in range(loaded.type_count)
        ]
        assert out == json.dumps(report, indent=2) + "\n"


_PROBABILITIES = st.sampled_from(
    [0, 1, Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2**64 + 1, 2**65 + 3), True,
     0.0, 1.0, 0.1, 1e-300]
)


class TestLotteryWriter:
    """``solve --out`` formats each distinct probability of a lottery once;
    the bytes are those of ``json.dumps`` on ``mechanism_to_json``."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.lists(_PROBABILITIES, max_size=4), max_size=4).map(RandomizedMechanism),
        st.lists(st.integers(0, 2**70), max_size=5).map(DeterministicMechanism),
    ))
    @example(RandomizedMechanism([[0, 1], [1, 0]]))
    @example(RandomizedMechanism([[Fraction(1), 1, 0, Fraction(0)]]))
    @example(RandomizedMechanism([[0.1, 1e-300, Fraction(1, 3)], [1, 0.0, 0]]))
    @example(RandomizedMechanism([[1], [1.0]]))
    @example(DeterministicMechanism([0, 2, 1]))
    def test_bytes_equal_json_dumps(self, mech):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mech.json"
            _write_json(path, mech)
            text = path.read_text()
        assert text == json.dumps(mechanism_to_json(mech), indent=2) + "\n"

    def test_each_distinct_probability_formatted_once(self, tmp_path, capsys, monkeypatch):
        instance = random_instance(seed=2, type_count=40, outcome_count=4, edge_density=0.1)
        path, mech = tmp_path / "inst.json", tmp_path / "mech.json"
        dump_instance(instance, path)
        formatted = []
        original = mechdesign.cli._probability_to_json

        def counting(p):
            formatted.append(p)
            return original(p)

        monkeypatch.setattr(mechdesign.cli, "_probability_to_json", counting)
        code, out, _ = run(capsys, "solve", str(path), "--algo", "rand", "--out", str(mech))
        assert code == EXIT_OK, out
        rows = json.loads(mech.read_text())["rows"]
        assert len(formatted) == len({json.dumps(p) for row in rows for p in row})


@st.composite
def _hostile_instances(draw):
    """Instance documents at the edges: one type or one outcome, rows of
    infinite entries only, denominators above 2**63 in costs and utilities,
    and claims both ways."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    ladder = draw(st.sets(st.builds(Fraction, st.integers(0, 2**70),
                                    st.sampled_from([1] + _BIG_DENOMINATORS)),
                          min_size=m, max_size=m))
    entry = st.one_of(
        st.integers(0, 20), st.just("inf"),
        st.builds("{}/{}".format, st.integers(0, 2**70), st.sampled_from(_BIG_DENOMINATORS)),
    )
    costs = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.booleans()):
        costs[draw(st.integers(0, n - 1))] = ["inf"] * m
    index = st.integers(0, n - 1)
    claims = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    claims += [(b, a) for a, b in claims if draw(st.booleans())]
    return {
        "outcomes": [rational_to_json(u) for u in sorted(ladder)],
        "relation": [[i, i] for i in range(n)] + [list(pair) for pair in claims],
        "costs": costs,
    }


def _main_report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


class TestHostileRoundTrip:
    """``solve --out`` then ``verify`` through ``main`` on hostile instances:
    solve exits 0 or 3, and a written mechanism verifies as truthful at the
    solved cost."""

    @settings(max_examples=80, deadline=None)
    @given(_hostile_instances())
    @example({"outcomes": [5], "relation": [[0, 0]], "costs": [["7/18446744073709551629"]]})
    @example({"outcomes": [0, "1/9223372036854775833"],
              "relation": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 0], [1, 2], [2, 1]],
              "costs": [[3, "2/18446744073709551629"], [4, 1], [0, 9]]})
    @example({"outcomes": [1, 2], "relation": [[0, 0], [1, 1], [0, 1], [1, 0]],
              "costs": [["inf", "inf"], [1, 2]]})
    def test_solve_then_verify(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            inst, mech = Path(tmp) / "inst.json", Path(tmp) / "mech.json"
            inst.write_text(json.dumps(doc))
            for algo in ("det", "rand"):
                mech.unlink(missing_ok=True)
                code, solved = _main_report("solve", str(inst), "--algo", algo, "--out", str(mech))
                assert code in (EXIT_OK, EXIT_INFINITE), (algo, solved)
                if code == EXIT_INFINITE:
                    assert solved["cost"] == "inf" and not mech.exists()
                    continue
                code, verified = _main_report("verify", str(inst), str(mech))
                assert code == EXIT_OK and verified["truthful"] is True, (algo, verified)
                assert Fraction(verified["cost_truthful"]) == Fraction(solved["cost"])


BASE_INSTANCE = {
    "outcomes": [1, 2, 3],
    "relation": [[0, 0], [1, 1], [2, 2], [0, 1], [2, 1]],
    "costs": [[4, 2, 7], [1, 5, 3], [2, "inf", 6]],
}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestHostileJson:
    """Malformed numbers and indices are usage errors (exit 2), not crashes."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("costs", [[4, "1/0", 7], [1, 5, 3], [2, "inf", 6]]),
            ("outcomes", [1, "2/0", 3]),
            ("relation", [[0, 0], [1, 1], [2, 2], [0, 0.9]]),
            ("relation", [[0, 0], [1, 1], [2, 2], [True, 1]]),
            ("relation", [[0, 0], 5]),
            ("costs", 5),
        ],
    )
    def test_bad_instance_exits_2(self, tmp_path, capsys, field, value):
        inst = write_json(tmp_path / "inst.json", {**BASE_INSTANCE, field: value})
        mech = write_json(
            tmp_path / "mech.json", {"kind": "deterministic", "assignment": [0, 0, 0]}
        )
        for argv in (["solve", inst, "--algo", "det"], ["verify", inst, mech]):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert "cannot read instance" in err

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"outcomes": [], "relation": [], "costs": []}, "outcome ladder is empty; no types"),
            ({"outcomes": [-1, 2, 3]}, "outcome 0 has negative utility -1"),
            ({"relation": [[0, 0], [1, 1], [2, 2], [0, 5]]}, "relation pair (0, 5) out of range"),
            ({"costs": [[4, 2, 7], [1, 5], [2, "inf", 6]]}, "cost row 1 has 2 entries, expected 3"),
        ],
    )
    def test_invalid_instance_exits_2(self, tmp_path, capsys, changes, message):
        inst = write_json(tmp_path / "inst.json", {**BASE_INSTANCE, **changes})
        code, out, err = run(capsys, "solve", inst, "--algo", "det")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: invalid instance {inst}: {message}\n"

    @pytest.mark.parametrize(
        "mechanism",
        [
            {"kind": "randomized", "rows": [[1, 0, 0], ["1/0", 0, 1], [0, 0, 1]]},
            {"kind": "deterministic", "assignment": [1.7, 1, 1]},
            {"kind": "deterministic", "assignment": [1, True, 1]},
            {"kind": "randomized", "rows": 5},
            {"kind": "deterministic", "assignment": 3},
            {"kind": "randomized", "rows": [[None, 1]]},
            [1, 2, 3],
        ],
    )
    def test_bad_mechanism_exits_2(self, tmp_path, capsys, mechanism):
        inst = write_json(tmp_path / "inst.json", BASE_INSTANCE)
        mech = write_json(tmp_path / "mech.json", mechanism)
        code, _, err = run(capsys, "verify", inst, mech)
        assert code == EXIT_USAGE
        assert "cannot read mechanism" in err

    def test_top_level_array_instance_exits_2(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", [BASE_INSTANCE])
        code, _, err = run(capsys, "solve", inst, "--algo", "det")
        assert code == EXIT_USAGE
        assert "cannot read instance" in err

    @pytest.mark.parametrize(
        "meta", [7, {"oracle": 5}, {"oracle": {"kind": "table", "values": 5}}]
    )
    def test_bad_oracle_metadata_exits_2(self, tmp_path, capsys, meta):
        inst = write_json(tmp_path / "inst.json", {**BASE_INSTANCE, "meta": meta})
        code, _, err = run(capsys, "solve", inst, "--algo", "sub-det")
        assert code == EXIT_USAGE
        assert "cannot read instance" in err or "bad oracle description" in err

    def test_nan_probability_does_not_fit(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", BASE_INSTANCE)
        mech = tmp_path / "mech.json"
        # json writes and reads the non-standard NaN token by default
        mech.write_text(json.dumps(
            {"kind": "randomized", "rows": [[float("nan"), 1.0, 0.0], [0, 1, 0], [0, 0, 1]]}
        ))
        code, _, err = run(capsys, "verify", inst, str(mech))
        assert code == EXIT_USAGE
        assert "mechanism does not fit the instance" in err

    def test_integer_indices_still_read(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", BASE_INSTANCE)
        mech = write_json(
            tmp_path / "mech.json", {"kind": "deterministic", "assignment": [1, 1, 1]}
        )
        code, out, _ = run(capsys, "verify", inst, mech)
        assert code == EXIT_OK
        assert last_json(out)["cost_truthful"] == "inf"

    # The CLI rejects a bad eps before the solver, which rejects it too.
    @pytest.mark.parametrize("eps", ["-1", "0", "-0.0", "nan", "inf", "1e400"])
    def test_eps_must_be_finite_and_positive(self, tmp_path, capsys, eps):
        inst = write_json(tmp_path / "inst.json", {
            "outcomes": [0, 1, 2],
            "relation": [[0, 0], [1, 1], [2, 2], [1, 0], [2, 1]],
            "costs": [[9, 4, 0], [7, 5, 1], [3, 8, 2]],
            "meta": {"oracle": {"kind": "additive_plus_overhead", "c0": 5}},
        })
        for argv in (
            ["solve", inst, "--algo", "sub-rand", "--eps", eps],
            ["solve", inst, "--algo", "sub-rand", "--backend", "ellipsoid", "--eps", eps],
            ["oracle", inst, "--which", "sub-rand", "--eps", eps],
        ):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert "--eps must be finite and positive" in err
        code, out, _ = run(capsys, "solve", inst, "--algo", "sub-rand", "--eps", "1e-2")
        assert code == EXIT_OK
        assert last_json(out)["checks"]["converged"] is True


class TestIntegerCostRows:
    """``solve`` and ``verify`` read the cost matrix's integer rows."""

    @pytest.mark.parametrize("algo", ["det", "rand"])
    def test_hot_path_builds_no_cost_per_entry(self, tmp_path, capsys, monkeypatch, algo):
        inst = random_instance(
            seed=7, type_count=200, outcome_count=5, edge_density=0.005, infinity_rate=0.02
        )
        path, mech = tmp_path / "inst.json", tmp_path / "mech.json"
        dump_instance(inst, path)
        built = []
        original = Cost.__init__

        def counted(self, value=0):
            built.append(value)
            original(self, value)

        def no_rows(self):
            raise AssertionError("CostMatrix.rows built")

        monkeypatch.setattr(Cost, "__init__", counted)
        monkeypatch.setattr(CostMatrix, "rows", property(no_rows))
        code, out, _ = run(capsys, "solve", str(path), "--algo", algo, "--out", str(mech))
        assert code == EXIT_OK, out
        assert run(capsys, "verify", str(path), str(mech))[0] == EXIT_OK
        assert len(built) <= 10

    @staticmethod
    def _hostile(seed, n, m, density, infinity_rate):
        """Each row's finite entries over its own prime denominator above
        2**61, so the matrix's common scale is their product."""
        base = random_instance(
            seed=seed, type_count=n, outcome_count=m, edge_density=density,
            infinity_rate=infinity_rate,
        )
        rng = random.Random(seed)
        rows = [
            [c if not c.is_finite else Fraction(int(c.value) * p + rng.randint(1, p - 1), p)
             for c in row]
            for row, p in zip(base.costs.rows, _primes_above(2**61, n))
        ]
        return Instance(base.outcomes, base.relation, CostMatrix(rows))

    @pytest.mark.parametrize("seed", range(8))
    def test_hostile_scale_matches_brute_force(self, seed):
        inst = self._hostile(seed, 4, 3, 0.4, 0.1)
        assert solve_deterministic(inst).cost == brute_force_deterministic_opt(inst)[0]
        assert solve_randomized(inst).cost == brute_force_envelope_opt(inst)[0]

    def test_hostile_scale_at_n200_within_bound(self, tmp_path, capsys):
        inst = self._hostile(0, 200, 5, 0.01, 0.02)
        assert inst.costs.scale.bit_length() > 200 * 61
        path = tmp_path / "inst.json"
        dump_instance(inst, path)
        started = time.perf_counter()
        for algo in ("det", "rand"):
            mech = tmp_path / f"{algo}.json"
            code, out, _ = run(capsys, "solve", str(path), "--algo", algo, "--out", str(mech))
            assert code == EXIT_OK, out
            assert run(capsys, "verify", str(path), str(mech))[0] == EXIT_OK
        # About 0.5 s on a 2-CPU host; the bound leaves room for slow runners.
        assert time.perf_counter() - started < 20


def _primes_above(low, count):
    """The ``count`` smallest primes above ``low`` (< 3.3e24), by a
    Miller-Rabin test whose fixed bases make it exact in that range."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

    def is_prime(n):
        if any(n % p == 0 for p in bases):
            return n in bases
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in bases:
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    primes, n = [], low + 1
    while len(primes) < count:
        if is_prime(n):
            primes.append(n)
        n += 1
    return primes


def _naive_best_response_cost(mech, instance):
    """Recomputes every expected utility where it is needed."""
    total = Cost(0)
    for i in range(instance.type_count):
        reports = instance.relation.allowed_reports(i) or [i]

        def utility(r):
            return expected_utility(mech, instance.outcomes, r)

        best = max(utility(r) for r in reports)
        if i in reports and utility(i) == best:
            chosen = i
        else:
            chosen = min(r for r in reports if utility(r) == best)
        for j, p in enumerate(mech.rows[chosen]):
            if p:
                total = total + instance.costs.entry(i, j).scaled(Fraction(p))
    return total


def _seeded_lotteries(rng, n, m):
    """Lotteries from a small pool, so many types share a utility (ties)."""
    pool = []
    for _ in range(max(1, n // 3)):
        weights = [rng.randint(0, 3) for _ in range(m)]
        weights[rng.randrange(m)] += 1
        pool.append([Fraction(w, sum(weights)) for w in weights])
    return RandomizedMechanism([rng.choice(pool) for _ in range(n)])


class TestVerifyUtilities:
    """``verify`` computes each type's expected utility once and reuses it."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_recomputation(self, tmp_path, capsys, seed):
        rng = random.Random(seed)
        n, m = 2 + seed % 6, 1 + seed % 4
        instance = random_instance(
            seed=seed, type_count=n, outcome_count=m, edge_density=0.5,
            infinity_rate=0.1 if seed % 3 else 0.0,
        )
        mech = _seeded_lotteries(rng, n, m)
        utilities = [expected_utility(mech, instance.outcomes, i) for i in range(n)]
        naive = _naive_best_response_cost(mech, instance)
        assert cost_best_response(mech, instance, utilities) == naive

        from mechdesign import dump_instance, mechanism_to_json

        inst_path = tmp_path / "inst.json"
        dump_instance(instance, inst_path)
        mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
        code, out, _ = run(capsys, "verify", str(inst_path), mech_path)
        report = last_json(out)
        assert report["cost_best_response"] == str(naive)
        loaded, _ = instance_from_json(json.loads(inst_path.read_text()))
        for row in report["expected_utilities"]:
            i = row["type"]
            assert row["reports"] == {
                str(r): str(expected_utility(mech, loaded.outcomes, r))
                for r in loaded.relation.allowed_reports(i)
            }
        bad = sorted(
            (a, b)
            for a, b in loaded.relation.pairs
            if a != b and utilities[a] < utilities[b]
        )
        assert report["violating_pairs"] == [list(p) for p in bad[:10]]
        assert code == (EXIT_OK if not bad else EXIT_UNTRUTHFUL)


def _as_lotteries(mech):
    """A deterministic mechanism as 0/1 lottery rows (``_naive_best_response_cost`` reads rows)."""
    if isinstance(mech, RandomizedMechanism):
        return mech
    m = 1 + max(mech.assignment)
    return RandomizedMechanism([[int(j == a) for j in range(m)] for a in mech.assignment])


class TestVerifyBestResponse:
    """``verify`` reports a truthful mechanism with exact utilities at its
    truthful cost without a best-response search; every other mechanism
    (a violated pair, or any float utility) is still searched."""

    def _verify(self, tmp_path, capsys, monkeypatch, instance, mech):
        searched = []

        def counting(*args, **kwargs):
            searched.append(1)
            return cost_best_response(*args, **kwargs)

        monkeypatch.setattr(mechdesign.cli, "cost_best_response", counting)
        inst_path = tmp_path / "inst.json"
        dump_instance(instance, inst_path)
        mech_path = write_json(tmp_path / "mech.json", mechanism_to_json(mech))
        code, out, _ = run(capsys, "verify", str(inst_path), mech_path)
        report = last_json(out)
        loaded, _ = instance_from_json(json.loads(inst_path.read_text()))
        naive = _naive_best_response_cost(_as_lotteries(mech), loaded)
        assert report["cost_best_response"] == str(naive)
        return code, report, bool(searched)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_truthful_reports_truthful_cost(self, tmp_path, capsys, monkeypatch, seed):
        instance = random_instance(
            seed=seed, type_count=3 + seed, outcome_count=1 + seed % 4, edge_density=0.5,
            infinity_rate=0.1 if seed % 2 else 0.0,
        )
        solution = (solve_randomized if seed % 2 else solve_deterministic)(instance)
        if solution.mechanism is None:
            pytest.skip("no finite-cost truthful mechanism")
        code, report, searched = self._verify(
            tmp_path, capsys, monkeypatch, instance, solution.mechanism
        )
        assert code == EXIT_OK and report["truthful"] is True
        assert report["cost_best_response"] == report["cost_truthful"]
        assert not searched

    @pytest.mark.parametrize("seed", range(8))
    def test_untruthful_is_searched(self, tmp_path, capsys, monkeypatch, seed):
        rng = random.Random(seed)
        n, m = 3 + seed, 2 + seed % 3
        instance = random_instance(seed=seed, type_count=n, outcome_count=m, edge_density=0.6)
        assert instance.relation.claims
        i, j = instance.relation.claims[0]
        if seed % 2:
            mech = _seeded_lotteries(rng, n, m)
            rows = [list(row) for row in mech.rows]
            rows[j], rows[i] = [0] * (m - 1) + [1], [1] + [0] * (m - 1)
            mech = RandomizedMechanism(rows)
        else:
            assignment = [rng.randrange(m) for _ in range(n)]
            assignment[i], assignment[j] = 0, m - 1
            mech = DeterministicMechanism(assignment)
        code, report, searched = self._verify(tmp_path, capsys, monkeypatch, instance, mech)
        assert code == EXIT_UNTRUTHFUL and [i, j] in report["violating_pairs"]
        assert searched

    def test_float_tie_within_tolerance_is_searched(self, tmp_path, capsys, monkeypatch):
        # Type 0 may claim type 1, whose lottery is worth 2**-50 more: below
        # FLOAT_UTILITY_TOL, so not a violation, yet the exact best report.
        tiny = 2.0**-50
        assert tiny < FLOAT_UTILITY_TOL
        instance = Instance(
            OutcomeSpace([0, 1]),
            ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
            CostMatrix([[0, 10], [3, 3]]),
        )
        mech = RandomizedMechanism([[0.5, 0.5], [0.5 - tiny, 0.5 + tiny]])
        code, report, searched = self._verify(tmp_path, capsys, monkeypatch, instance, mech)
        assert code == EXIT_OK and report["truthful"] is True
        assert report["cost_truthful"] == "8"
        assert report["cost_best_response"] != report["cost_truthful"]
        assert searched

    def test_utilities_are_scanned_for_exactness_once(self, tmp_path, capsys, monkeypatch):
        instance = random_instance(seed=3, type_count=6, outcome_count=3, edge_density=0.5)
        mech = solve_deterministic(instance).mechanism
        original, scans = mechdesign.instances.is_exact, []

        def counting(values):
            scans.append(values)
            return original(values)

        for module in (mechdesign.cli, mechdesign.instances):
            monkeypatch.setattr(module, "is_exact", counting)
        code, report, searched = self._verify(tmp_path, capsys, monkeypatch, instance, mech)
        assert code == EXIT_OK and not searched
        assert sum(isinstance(v, list) and len(v) == 6 for v in scans) == 1


class TestInstanceReadOnce:
    def test_digest_names_the_parsed_bytes(self, tmp_path, capsys, monkeypatch, instance_file):
        mech = tmp_path / "mech.json"
        read = []
        original = Path.read_bytes

        def counting(path):
            read.append(str(path))
            return original(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        digest = hashlib.sha256(original(instance_file)).hexdigest()[:16]
        for argv in (
            ["solve", str(instance_file), "--algo", "det", "--out", str(mech)],
            ["verify", str(instance_file), str(mech)],
            ["oracle", str(instance_file), "--which", "det"],
        ):
            read.clear()
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert last_json(out)["instance_digest"] == digest
            assert read.count(str(instance_file)) == 1, argv


class TestParserBuiltOnce:
    COMMANDS = [
        ["solve", "{inst}", "--algo", "det", "--out", "{tmp}/a.json"],
        ["verify", "{inst}", "{tmp}/a.json"],
        ["solve", "{inst}", "--algo", "sub-rand", "--eps", "0.05", "--out", "{tmp}/c.json"],
        ["solve", "{inst}", "--algo", "sub-rand", "--out", "{tmp}/d.json"],
        ["solve", "{inst}", "--algo", "sub-det", "--backend", "brute"],
        ["solve", "{inst}", "--algo", "sub-det"],
        ["oracle", "{inst}", "--which", "det", "--budget", "100000"],
        ["oracle", "{inst}", "--which", "rand"],
        ["generate", "random", "--out", "{tmp}/g.json", "--seed", "3", "--close"],
        ["generate", "random", "--out", "{tmp}/g.json"],
    ]

    def test_same_reports_as_a_fresh_parser(self, tmp_path, capsys, instance_file):
        from mechdesign.cli import _build_parser

        assert _build_parser() is _build_parser()
        commands = [
            [a.format(inst=instance_file, tmp=tmp_path) for a in argv] for argv in self.COMMANDS
        ]

        def report(argv):
            code, text, err = run(capsys, *argv)
            report = last_json(text)
            report.pop("wall_ms", None)
            return code, report, err, vars(_build_parser().parse_args(argv))

        cached = [report(argv) for argv in commands]
        fresh = []
        for argv in commands:
            _build_parser.cache_clear()
            fresh.append(report(argv))
        assert cached == fresh


class TestOracleCommand:
    def test_exact_cross_checks(self, capsys, instance_file):
        for which in ("det", "rand"):
            code, out, _ = run(
                capsys, "oracle", str(instance_file), "--which", which
            )
            assert code == EXIT_OK
            report = last_json(out)
            assert report["match"] is True
            assert report["tolerance"] == "exact"

    def test_submodular_cross_checks(self, capsys, instance_file):
        code, out, _ = run(
            capsys, "oracle", str(instance_file), "--which", "sub-det"
        )
        assert code == EXIT_OK
        code, out, _ = run(
            capsys,
            "oracle",
            str(instance_file),
            "--which",
            "sub-rand",
            "--eps",
            "0.01",
        )
        assert code == EXIT_OK
        assert last_json(out)["match"] is True

    def test_sub_det_cross_check_is_exact(self, tmp_path, capsys):
        path = tmp_path / "over.json"
        code, _, _ = run(
            capsys, "generate", "overhead", "--out", str(path), "--overhead", "7/3",
            "--types", "4", "--outcomes", "3", "--seed", "3",
        )
        assert code == EXIT_OK
        code, out, _ = run(capsys, "oracle", str(path), "--which", "sub-det")
        assert code == EXIT_OK
        report = last_json(out)
        assert report["tolerance"] == "exact"
        assert report["match"] is True
        assert report["solver_cost"] == report["oracle_cost"]

    def test_budget_exit(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        run(
            capsys,
            "generate",
            "random",
            "--out",
            str(path),
            "--types",
            "12",
            "--outcomes",
            "4",
            "--density",
            "0.2",
        )
        code, _, err = run(
            capsys, "oracle", str(path), "--which", "det", "--budget", "100"
        )
        assert code == EXIT_BUDGET
        assert "budget" in err or "enumeration" in err


class TestImport:
    def test_cli_import_loads_neither_numpy_nor_scipy(self):
        # A fresh interpreter: the test run itself may have imported both.
        src = Path(mechdesign.__file__).resolve().parents[1]
        probe = (
            "import sys, mechdesign.cli; "
            "print([m for m in ('numpy', 'scipy') if m in sys.modules])"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestBench:
    def test_csv_schema(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys,
            "bench",
            "--family",
            "convex",
            "--algos",
            "det,rand",
            "--sizes",
            "4:3,6:2",
            "--reps",
            "2",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * 2 * 2
        assert set(rows[0]) == {"family", "n", "m", "seed", "algo", "cost", "micros"}
        assert all(int(r["micros"]) >= 0 for r in rows)

    def test_rejects_unknown_algo(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "bench",
            "--family",
            "random",
            "--algos",
            "sub-det",
            "--sizes",
            "3:2",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE


class TestArgparseErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["conjure"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "gap"])
        assert info.value.code == 2

    def test_solve_has_no_seed(self, capsys, instance_file):
        with pytest.raises(SystemExit) as info:
            main(["solve", str(instance_file), "--algo", "sub-det", "--seed", "1"])
        assert info.value.code == 2
