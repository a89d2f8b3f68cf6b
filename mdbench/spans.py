"""Span tracing for the benchmark's traced run, applied from outside.

``Tracer.install`` rebinds public functions of ``mechdesign`` modules to
wrappers that record a span around each call, including the names other
modules imported (``mechdesign.mincut.transitive_closure``,
``mechdesign.cli.solve_deterministic`` and so on), and ``uninstall`` puts
the originals back.  No file of the package is edited.

A span is ``(id, name, start, end, parent, self_time)``; spans stay in
memory until ``write`` dumps them.  Counters read off the returned objects (network
arcs, the cut's scale, envelope vertices, iterations, oracle queries) are
kept per root span, i.e. per CLI command.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[list] = []  # [name, start, child_time, parent, id]
        self._next_id = 0
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._restore: list[tuple] = []
        self._oracle = None

    # -- spans -----------------------------------------------------------
    def open(self, name: str) -> None:
        if not self._open:
            self._oracle = None
        parent = self._open[-1][4] if self._open else None
        self._open.append([name, time.perf_counter(), 0.0, parent, self._next_id])
        self._next_id += 1

    def close(self) -> float:
        end = time.perf_counter()
        name, start, child_time, parent, span_id = self._open.pop()
        duration = end - start
        if self._open:
            self._open[-1][2] += duration
        self.spans.append((span_id, name, start, end, parent, duration - child_time))
        return duration

    @property
    def root(self) -> int | None:
        return self._open[0][4] if self._open else None

    def count(self, key: str, value: float) -> None:
        if self._open:
            self.counters[self.root][key] += value

    def by_root(self) -> dict[int, dict[str, float]]:
        """Self time, total time and calls per span name, within each root span."""
        parent_of = {s[0]: s[4] for s in self.spans}
        out: dict[int, dict] = defaultdict(
            lambda: {"self": defaultdict(float), "total": defaultdict(float),
                     "calls": defaultdict(int)})
        for span_id, name, start, end, parent, self_time in self.spans:
            root = span_id
            while parent_of[root] is not None:
                root = parent_of[root]
            out[root]["self"][name] += self_time
            out[root]["total"][name] += end - start
            out[root]["calls"][name] += 1
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "self")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")

    # -- rebinding -------------------------------------------------------
    def _wrap(self, fn, name, after=None):
        """``name`` is a span name, or a function of the call's arguments
        that returns one (``None`` records no span)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _bind(self, owner, attr, name, after=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def install(self) -> None:
        mod = {m: importlib.import_module(f"mechdesign.{m}")
               for m in ("cli", "instances", "mincut", "maxflow", "envelope", "submodular")}
        for where, attr, name, after in _HOOKS:
            self._bind(mod[where], attr, name, after)
        graph = mod["maxflow"].FlowGraph
        self._bind(graph, "max_flow", "maxflow.max_flow")
        self._bind(graph, "residual_source_side", "maxflow.residual_bfs")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- counters read off returned objects ------------------------------------

def _closure_counts(tracer, args, kwargs, result):
    tracer.count("instances.closure_pairs_added", len(result.pairs) - len(args[0].pairs))


def _network_counts(tracer, args, kwargs, result):
    tracer.count("mincut.nodes", result.node_count)
    tracer.count("mincut.arcs", len(result.arcs))
    tracer.count("mincut.imitation_arcs", sum(a.kind == "imitation" for a in result.arcs))


def _clamp_counts(tracer, args, kwargs, result):
    tracer.count("mincut.clamp_budget_bits", math.ceil(result.budget).bit_length())


def _cut_counts(tracer, args, kwargs, result):
    # The clamp value is the largest capacity: it exceeds every finite entry.
    tracer.count("mincut.scale_bits", result.scale.bit_length())
    tracer.count("mincut.max_capacity_bits", int(args[0].clamp_value * result.scale).bit_length())


def _envelope_counts(tracer, args, kwargs, result):
    tracer.count("envelope.hull_vertices", sum(len(row.vertices) for row in result))


def _keep_oracle(tracer, args, kwargs, result):
    tracer._oracle = result


def _solver_counts(tracer, args, kwargs, result):
    if not hasattr(result, "converged"):
        algo = "sub_det"
    else:
        algo = "sub_rand_ellipsoid" if result.backend == "ellipsoid" else "sub_rand"
    tracer.count(f"submodular.{algo}_iterations", result.iterations)
    if tracer._oracle is not None:
        tracer.count("submodular.oracle_queries", tracer._oracle.query_count)
    if hasattr(result, "converged"):
        tracer.count("submodular.converged", float(result.converged))


def _cost_span(args, kwargs):
    # Best-response costing is part of ``verify``'s own work.
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "truthful")
    return None if mode == "best-response" else "instances.cost_eval"


def _sub_rand_span(args, kwargs):
    if kwargs.get("backend") == "ellipsoid":
        return "submodular.sub_rand_ellipsoid"
    return "submodular.sub_rand"


_HOOKS = [
    ("cli", "load_instance", "cli.load", None),
    ("cli", "hard_violations", "cli.validate", None),
    ("cli", "mechanism_violations", "cli.validate", None),
    ("cli", "mechanism_to_json", "cli.serialize", None),
    ("cli", "chain_to_json", "cli.serialize", None),
    ("cli", "_write_json", "cli.serialize", None),
    ("cli", "_emit", "cli.serialize", None),
    ("cli", "oracle_from_json", "cli.oracle", _keep_oracle),
    ("cli", "is_truthful", "instances.truthful_check", None),
    ("cli", "truthfulness_violations", "instances.truthful_check", None),
    ("mincut", "is_truthful", "instances.truthful_check", None),
    ("envelope", "is_truthful", "instances.truthful_check", None),
    ("cli", "cost_deterministic", _cost_span, None),
    ("mincut", "cost_deterministic", _cost_span, None),
    ("cli", "cost_randomized", "instances.cost_eval", None),
    ("envelope", "cost_randomized", "instances.cost_eval", None),
    ("mincut", "transitive_closure", "instances.closure", _closure_counts),
    ("mincut", "build_network", "mincut.build", _network_counts),
    ("mincut", "clamp_capacities", "mincut.clamp", _clamp_counts),
    ("mincut", "min_cut", "mincut.min_cut", _cut_counts),
    ("mincut", "extract_mechanism", "mincut.extract", None),
    ("cli", "solve_deterministic", "mincut.solve", None),
    ("envelope", "solve_deterministic", "mincut.solve", None),
    ("cli", "solve_randomized", "envelope.solve", None),
    ("envelope", "envelope_table", "envelope.envelopes", _envelope_counts),
    ("envelope", "recover_mixture", "envelope.recover", None),
    ("cli", "solve_deterministic_submodular", "submodular.sub_det", _solver_counts),
    ("cli", "solve_randomized_submodular", _sub_rand_span, _solver_counts),
    ("submodular", "interpret_marginals", "submodular.interpret", None),
    ("submodular", "chain_cost", "submodular.chain_cost", None),
]
