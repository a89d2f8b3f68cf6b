"""Exact deterministic solver via a minimum cut.

The construction: one chain of nodes per type, one node per outcome level,
source feeding the bottom of every chain with unbounded capacity, each chain
draining to the sink.  Cutting the chain of type ``i`` between levels ``j``
and ``j+1`` (or its sink arc, for the top level) reads as "type ``i`` gets
outcome ``j``" and pays that cost entry.  Whenever ``a`` can claim to be
``b``, unbounded arcs from ``b``'s chain into ``a``'s chain at every level
force ``a``'s assigned outcome at least as high as ``b``'s; finite-value
downward-closed cuts are exactly the truthful deterministic mechanisms
(Ishikawa's multi-label cut construction, 2003).

Infinite capacities are clamped to ``B + 1`` where ``B`` bounds every
finite-cost truthful mechanism; a minimum cut above ``B`` therefore proves
that no finite-cost truthful mechanism exists.

The relation is used as given, not transitively closed.  If ``a`` may claim
``b``, ``b`` may claim ``c``, and the closure arc ``c -> a`` at level ``j``
crosses a cut, then the raw arc ``c -> b`` or ``b -> a`` crosses it at the
same level (induct for longer paths).  So a cut avoids every clamped arc with
the closure exactly when it does without it: the below-budget minimum cuts,
the inclusion-minimal one (the pointwise-lowest mechanism) and the infinite
verdicts are the same, without the closure's quadratic cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .instances import (
    Cost,
    DeterministicMechanism,
    Instance,
    SelfCheckError,
    cost_deterministic,
    hard_violations,
    is_truthful,
    # Unused here; the benchmark tracer (mdbench/spans.py) rebinds this name.
    transitive_closure,  # noqa: F401
)
from .maxflow import FlowGraph

SOURCE = 0
SINK = 1


class InfiniteOptimumError(Exception):
    """Raised when a mechanism is requested but the optimum is infinite."""


def grid_node(type_index: int, level: int, outcome_count: int) -> int:
    return 2 + type_index * outcome_count + level


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: Cost
    kind: str  # "entry" | "level" | "exit" | "imitation"


@dataclass(frozen=True)
class FlowNetwork:
    type_count: int
    outcome_count: int
    arcs: tuple[Arc, ...]

    @property
    def node_count(self) -> int:
        return 2 + self.type_count * self.outcome_count


@dataclass(frozen=True)
class ClampedNetwork:
    """A flow network with every infinite capacity replaced by ``budget + 1``."""

    network: FlowNetwork
    budget: Fraction
    clamp_value: Fraction
    capacities: tuple[Fraction, ...]
    clamped_arcs: frozenset[int]


@dataclass(frozen=True)
class CutResult:
    source_side: frozenset[int]
    value: Fraction
    scale: int


@dataclass(frozen=True)
class DeterministicSolution:
    mechanism: DeterministicMechanism | None
    cost: Cost
    cut: CutResult | None = None
    clamped: ClampedNetwork | None = None


def build_network(instance: Instance) -> FlowNetwork:
    """Assemble the cut network for an instance, over its relation as given
    (see the module docstring for why the closure is not needed)."""
    problems = hard_violations(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))

    n, m = instance.type_count, instance.outcome_count
    arcs: list[Arc] = []
    inf = Cost.infinite()
    for i, row in enumerate(instance.costs.rows):
        bottom = grid_node(i, 0, m)
        arcs.append(Arc(SOURCE, bottom, inf, "entry"))
        for j in range(m - 1):
            arcs.append(Arc(bottom + j, bottom + j + 1, row[j], "level"))
        arcs.append(Arc(bottom + m - 1, SINK, row[m - 1], "exit"))
    for a, b in sorted(instance.relation.pairs):
        if a == b:
            continue
        # "a can claim b": a's chain must reach at least as high as b's,
        # enforced by unbounded arcs from b's chain into a's at each level.
        for j in range(m):
            arcs.append(Arc(grid_node(b, j, m), grid_node(a, j, m), inf, "imitation"))
    return FlowNetwork(n, m, tuple(arcs))


def scale_to_integers(values) -> tuple[list[int], int]:
    """Rationals over their least common denominator ``scale``: returns
    ``([v * scale for v in values], scale)``, all ints."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def clamp_capacities(network: FlowNetwork) -> ClampedNetwork:
    """Replace infinite capacities by ``B + 1``.

    ``B`` is the sum of every finite cost entry plus ``n`` times the largest
    finite entry, which dominates the cost of any finite-cost truthful
    mechanism; so a minimum cut exceeding ``B`` certifies an infinite
    optimum, and a cut within ``B`` can never contain a clamped arc.
    """
    finite_entries = [
        arc.capacity.value for arc in network.arcs if arc.capacity.value is not None
    ]
    budget = Fraction(0)
    if finite_entries:
        scaled, scale = scale_to_integers(finite_entries)
        budget = Fraction(sum(scaled) + network.type_count * max(scaled), scale)
    clamp_value = budget + 1

    capacities = []
    clamped = []
    for idx, arc in enumerate(network.arcs):
        value = arc.capacity.value
        if value is None:
            capacities.append(clamp_value)
            clamped.append(idx)
        else:
            capacities.append(value)
    return ClampedNetwork(
        network, budget, clamp_value, tuple(capacities), frozenset(clamped)
    )


def min_cut(clamped: ClampedNetwork) -> CutResult:
    """Exact minimum cut: scale capacities to integers, run Dinic, and take
    the residual-reachable source side (the inclusion-minimal one).  The
    feasible flow and the cut, summed in integers, certify each other."""
    arcs = clamped.network.arcs
    scaled, scale = scale_to_integers(clamped.capacities)
    graph = FlowGraph(clamped.network.node_count)
    for arc, cap in zip(arcs, scaled):
        graph.add_edge(arc.tail, arc.head, cap)
    flow = graph.max_flow(SOURCE, SINK)
    _check_flow(graph, arcs, scaled, flow)
    reachable = graph.residual_source_side(SOURCE)
    if reachable[SINK]:
        raise SelfCheckError("sink is reachable in the residual graph")

    cut_total = sum(
        cap
        for arc, cap in zip(arcs, scaled)
        if reachable[arc.tail] and not reachable[arc.head]
    )
    if cut_total != flow:
        raise SelfCheckError(f"cut value {cut_total} disagrees with max flow {flow}")
    source_side = frozenset(i for i, r in enumerate(reachable) if r)
    return CutResult(source_side, Fraction(cut_total, scale), scale)


def _check_flow(
    graph: FlowGraph, arcs: tuple[Arc, ...], scaled: list[int], flow: int
) -> None:
    """Check that the residual state holds a feasible flow of value ``flow``.

    Arc ``k`` is edge ``2k``; its flow is the residual capacity of the
    reverse edge.  The flow must respect ``0 <= flow <= capacity`` with the
    forward residual holding the rest, be conserved at every node but the
    source and sink, and leave the source at net rate ``flow``."""
    cap = graph.cap
    excess = [0] * graph.node_count
    for k, (arc, capacity) in enumerate(zip(arcs, scaled)):
        eid = 2 * k
        carried = cap[eid ^ 1]
        if not 0 <= carried <= capacity or cap[eid] != capacity - carried:
            raise SelfCheckError(f"arc {k} carries infeasible flow {carried}")
        excess[arc.tail] -= carried
        excess[arc.head] += carried
    if -excess[SOURCE] != flow:
        raise SelfCheckError(
            f"source sends {-excess[SOURCE]} but max flow reported {flow}"
        )
    for node, surplus in enumerate(excess):
        if surplus and node not in (SOURCE, SINK):
            raise SelfCheckError(f"flow is not conserved at node {node}")


def extract_mechanism(cut: CutResult, clamped: ClampedNetwork) -> DeterministicMechanism:
    """Read the assignment off the cut: each type gets the highest level of
    its chain still on the source side."""
    if cut.value > clamped.budget:
        raise InfiniteOptimumError(
            f"minimum cut {cut.value} exceeds budget {clamped.budget}"
        )
    n, m = clamped.network.type_count, clamped.network.outcome_count
    assignment = []
    for i in range(n):
        top = -1
        for j in range(m):
            if grid_node(i, j, m) in cut.source_side:
                top = j
        if top < 0:
            raise SelfCheckError(f"type {i} has no chain node on the source side")
        assignment.append(top)
    return DeterministicMechanism(assignment)


def _check_cut_shape(cut: CutResult, clamped: ClampedNetwork) -> None:
    n, m = clamped.network.type_count, clamped.network.outcome_count
    for i in range(n):
        seen_gap = False
        for j in range(m):
            inside = grid_node(i, j, m) in cut.source_side
            if inside and seen_gap:
                raise SelfCheckError(
                    f"source side not downward closed on chain {i} at level {j}"
                )
            if not inside:
                seen_gap = True
    for arc in clamped.network.arcs:
        if arc.kind == "imitation":
            if arc.tail in cut.source_side and arc.head not in cut.source_side:
                raise SelfCheckError("an imitation arc crosses the returned cut")


def solve_deterministic(instance: Instance) -> DeterministicSolution:
    """Cost-optimal truthful deterministic mechanism, or an infinite verdict.

    The returned mechanism, when one exists, assigns every type the lowest
    outcome among all optimal truthful mechanisms (a consequence of taking
    the inclusion-minimal minimum cut).
    """
    network = build_network(instance)
    clamped = clamp_capacities(network)
    cut = min_cut(clamped)
    if cut.value > clamped.budget:
        return DeterministicSolution(None, Cost.infinite(), cut, clamped)

    mechanism = extract_mechanism(cut, clamped)
    _check_cut_shape(cut, clamped)
    if not is_truthful(mechanism, instance):
        raise SelfCheckError("extracted mechanism is not truthful")
    cost = cost_deterministic(mechanism, instance, "truthful")
    if cost != Cost(cut.value):
        raise SelfCheckError(
            f"mechanism cost {cost} disagrees with cut value {cut.value}"
        )
    return DeterministicSolution(mechanism, cost, cut, clamped)


def network_to_dot(clamped: ClampedNetwork, cut: CutResult | None = None) -> str:
    """Graphviz rendering of the clamped network, optionally with the cut's
    source side filled in."""
    net = clamped.network
    n, m = net.type_count, net.outcome_count
    lines = ["digraph cutnet {", "  rankdir=LR;", '  s [shape=box];', '  t [shape=box];']

    def name(node: int) -> str:
        if node == SOURCE:
            return "s"
        if node == SINK:
            return "t"
        i, j = divmod(node - 2, m)
        return f"n{i}_{j}"

    for i in range(n):
        for j in range(m):
            node = grid_node(i, j, m)
            style = ""
            if cut is not None and node in cut.source_side:
                style = ', style=filled, fillcolor="lightblue"'
            lines.append(f'  {name(node)} [label="type {i} / level {j}"{style}];')
    for arc, cap in zip(net.arcs, clamped.capacities):
        label = "inf" if not arc.capacity.is_finite else str(cap)
        attrs = [f'label="{label}"']
        if not arc.capacity.is_finite:
            attrs.append("style=dashed")
        if (
            cut is not None
            and arc.tail in cut.source_side
            and arc.head not in cut.source_side
        ):
            attrs.append("color=red")
        lines.append(f"  {name(arc.tail)} -> {name(arc.head)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)
