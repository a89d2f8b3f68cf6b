"""The benchmark tracer rebinds package names; every one of them must exist.

``mdbench/spans.py`` wraps module attributes listed in ``_HOOKS`` plus two
``FlowGraph`` methods.  A renamed or deleted name would otherwise surface only
as a crash of a traced benchmark run (``mdbench/run.py --trace 1``).
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "mdbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("mdbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_exists():
    hooks = _load_spans()._HOOKS
    assert hooks
    missing = []
    for where, attr, _, _ in hooks:
        module = importlib.import_module(f"mechdesign.{where}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"mechdesign.{where}.{attr}")
    graph = importlib.import_module("mechdesign.maxflow").FlowGraph
    for attr in ("max_flow", "residual_source_side"):
        if not callable(getattr(graph, attr, None)):
            missing.append(f"mechdesign.maxflow.FlowGraph.{attr}")
    assert not missing, missing
