"""Self-tests for the benchmark: ``python3 -m pytest mdbench``."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

import pytest

import gen
import reference
import run
import spec

sys.path.insert(0, str(run.SRC))

from mechdesign.cli import main as cli_main  # noqa: E402
from mechdesign.generators import gap_instance, random_instance  # noqa: E402
from mechdesign.instances import instance_to_json  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run_round(workload, doc, tmp_path, r=0):
    path = tmp_path / "instance.json"
    gen.write_instance(doc, path)
    cmds = run._round(workload, path, tmp_path, 0, r)
    for cmd in cmds:
        run._execute(cmd, cli_main, None)
    return cmds


@pytest.mark.parametrize("workload", list(gen.GENERATORS))
def test_same_seed_same_digest(workload):
    make = gen.GENERATORS[workload]
    assert gen.digest(make(7, 0)) == gen.digest(make(7, 0))
    assert gen.digest(make(7, 0)) != gen.digest(make(8, 0))
    assert gen.digest(make(7, 0)) != gen.digest(make(7, 1))


def test_rand_rational_relation_is_transitive():
    doc = gen.rand_rational(0, 0)
    pairs = {tuple(p) for p in doc["relation"]}
    claims = {}
    for a, b in pairs:
        claims.setdefault(a, set()).add(b)
    assert all(claims[b] <= claims[a] for a, b in pairs)


def test_metric_names_and_benchmark_json_agree_with_spec():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(spec.PER_LAYER))
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w: v["why"] for w, v in spec.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == {
        k: v[:3] for k, v in spec.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v[0] for k, v in spec.PER_LAYER.items()}


def test_gap_instance_references():
    doc = instance_to_json(gap_instance())
    assert reference.det_optimum(doc) is None
    assert reference.rand_optimum(doc) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("workload", ["det-sparse", "rand-rational"])
def test_cut_references_agree_with_solvers(workload, tmp_path):
    docs = [instance_to_json(gap_instance())] + [
        instance_to_json(random_instance(seed, 6, 3, 0.3, max_cost=9, infinity_rate=0.2))
        for seed in range(8)
    ]
    for doc in docs:
        ref = run.references(workload, doc)
        for cmd in _run_round(workload, doc, tmp_path):
            if cmd.code is not None:
                assert run.check(workload, cmd, doc, ref) is None, cmd.argv


def test_query_references_agree_with_solvers(tmp_path):
    for index in range(3):
        doc = gen.query_sub(0, index)
        ref = run.references("query-sub", doc)
        cmds = _run_round("query-sub", doc, tmp_path) + _run_round(
            "query-sub", doc, tmp_path, r=-1)
        assert [c.timing for c in cmds] == [
            "sub_det_s", "verify_s", "sub_rand_ellipsoid_s", "sub_rand_s"]
        for cmd in cmds:
            assert run.check("query-sub", cmd, doc, ref) is None, cmd.argv


def test_corrupted_cost_counts_as_failed(tmp_path):
    doc = instance_to_json(random_instance(3, 6, 3, 0.3, max_cost=9))
    ref = run.references("det-sparse", doc)
    solve, verify = _run_round("det-sparse", doc, tmp_path)
    assert run.check("det-sparse", solve, doc, ref) is None
    solve.report["cost"] = str(Fraction(solve.report["cost"]) + 1)
    assert run.check("det-sparse", solve, doc, ref) is not None
    assert run.check("det-sparse", verify, doc, ref) is not None


def test_unconverged_sub_rand_counts_as_failed(tmp_path):
    doc = gen.query_sub(0, 0)
    ref = run.references("query-sub", doc)
    (cmd,) = _run_round("query-sub", doc, tmp_path, r=-1)
    cmd.report["checks"]["converged"] = False
    assert run.check("query-sub", cmd, doc, ref) == "converged: false"


def test_traced_run_restores_the_package(tmp_path):
    import mechdesign.mincut as mincut
    from spans import Tracer

    original = mincut.transitive_closure
    doc = instance_to_json(random_instance(1, 6, 3, 0.3, max_cost=9))
    path = tmp_path / "instance.json"
    gen.write_instance(doc, path)
    tracer = Tracer()
    (solve, _) = run._round("det-sparse", path, tmp_path, 0, 0)
    run._execute(solve, cli_main, tracer)
    assert mincut.transitive_closure is original
    layers = tracer.by_root()[solve.root]
    assert {"instances.closure", "mincut.build", "maxflow.max_flow"} <= set(layers["self"])
    assert tracer.counters[solve.root]["mincut.nodes"] == 2 + 6 * 3
    assert abs(sum(layers["self"].values()) - solve.traced_seconds) < 1e-6


def test_untraced_commands_are_timed_against_the_reference(tmp_path):
    doc = instance_to_json(random_instance(2, 6, 3, 0.3, max_cost=9))
    path = tmp_path / "instance.json"
    gen.write_instance(doc, path)
    cmds = run.measure("det-sparse", [path], tmp_path, 0.0, 0, False)
    assert [c.kind for c in cmds] == ["solve", "verify"]
    assert all(c.ref_seconds > 0 for c in cmds)
    metrics = run.end_to_end(cmds, 1.0, 1.0)
    assert set(metrics) == set(spec.END_TO_END)
    assert metrics["verify_rel"]["value"] == cmds[1].seconds / cmds[1].ref_seconds
