"""Command-line interface: full command round trips and exit codes."""

import csv
import json
import random
from fractions import Fraction

import pytest

from mechdesign import (
    Cost,
    RandomizedMechanism,
    expected_utility,
    instance_from_json,
    random_instance,
)
from mechdesign.cli import _best_response_cost_randomized

from mechdesign.cli import (
    EXIT_BUDGET,
    EXIT_INFINITE,
    EXIT_OK,
    EXIT_SELF_CHECK,
    EXIT_UNTRUTHFUL,
    EXIT_USAGE,
    main,
)


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

    def test_infeasible_flow_exits_6(self, capsys, instance_file, monkeypatch):
        from mechdesign.maxflow import FlowGraph

        original = FlowGraph.max_flow
        monkeypatch.setattr(
            FlowGraph, "max_flow", lambda graph, s, t: original(graph, s, t) + 1
        )
        for algo in ("det", "rand"):
            code, _, err = run(capsys, "solve", str(instance_file), "--algo", algo)
            assert code == EXIT_SELF_CHECK
            assert "max flow reported" in err

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

    def test_sub_det_backends(self, tmp_path, capsys, instance_file):
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
            assert last_json(out)["solver"] == f"lattice-{backend}"

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
        "mechanism",
        [
            {"kind": "randomized", "rows": [[1, 0, 0], ["1/0", 0, 1], [0, 0, 1]]},
            {"kind": "deterministic", "assignment": [1.7, 1, 1]},
            {"kind": "deterministic", "assignment": [1, True, 1]},
        ],
    )
    def test_bad_mechanism_exits_2(self, tmp_path, capsys, mechanism):
        inst = write_json(tmp_path / "inst.json", BASE_INSTANCE)
        mech = write_json(tmp_path / "mech.json", mechanism)
        code, _, err = run(capsys, "verify", inst, mech)
        assert code == EXIT_USAGE
        assert "cannot read mechanism" in err

    def test_integer_indices_still_read(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", BASE_INSTANCE)
        mech = write_json(
            tmp_path / "mech.json", {"kind": "deterministic", "assignment": [1, 1, 1]}
        )
        code, out, _ = run(capsys, "verify", inst, mech)
        assert code == EXIT_OK
        assert last_json(out)["cost_truthful"] == "inf"


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
        assert _best_response_cost_randomized(mech, instance, utilities) == naive

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
