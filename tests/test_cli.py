"""Command-line interface: full command round trips and exit codes."""

import csv
import json

import pytest

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
