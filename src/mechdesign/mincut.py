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

Layout.  Arcs live in parallel int arrays, ``tails`` and ``heads`` (and, once
clamped, ``capacities`` over one common ``scale``); arc ``k`` is edge ``2k``
of the ``FlowGraph``.  Node ``2 + i*m + j`` is level ``j`` of type ``i``'s
chain.  Type ``i`` owns arcs ``i*(m+1)`` to ``i*(m+1) + m``: the entry arc,
then the level arcs, then the exit arc, where arc ``i*(m+1) + p`` for
``p >= 1`` carries cost entry ``p - 1`` of row ``i``.  Every arc after the
first ``n*(m+1)`` is an imitation arc, ``m`` per sorted pair ``(a, b)`` with
``a != b``.  Since every chain has exactly ``m + 1`` arcs and all chains come
first, an arc's kind follows from its position alone and is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    kind: str  # "entry" | "level" | "exit" | "imitation"


@dataclass(frozen=True)
class FlowNetwork:
    """The cut network as arrays over the instance's cost rows (layout in
    the module docstring)."""

    type_count: int
    outcome_count: int
    tails: list[int]
    heads: list[int]
    costs: tuple[tuple[Cost, ...], ...]

    @property
    def node_count(self) -> int:
        return 2 + self.type_count * self.outcome_count

    @property
    def chain_arc_count(self) -> int:
        return self.type_count * (self.outcome_count + 1)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """One ``Arc`` per arc, built on first use; the solver reads only
        the arrays."""
        chain = ["entry"] + ["level"] * (self.outcome_count - 1) + ["exit"]
        imitation = ["imitation"] * (len(self.tails) - self.chain_arc_count)
        kinds = chain * self.type_count + imitation
        return tuple(map(Arc, self.tails, self.heads, kinds))


@dataclass(frozen=True)
class ClampedNetwork:
    """A flow network whose arc ``k`` has capacity ``capacities[k] / scale``,
    every infinite capacity replaced by ``budget + 1``."""

    network: FlowNetwork
    budget: Fraction
    clamp_value: Fraction
    capacities: list[int]
    scale: int


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
    tails: list[int] = []
    heads: list[int] = []
    for bottom in range(grid_node(0, 0, m), grid_node(n, 0, m), m):
        tails += [SOURCE, *range(bottom, bottom + m)]
        heads += [*range(bottom, bottom + m), SINK]
    for a, b in sorted(instance.relation.pairs):
        if a != b:
            # "a can claim b": a's chain must reach at least as high as b's,
            # enforced by unbounded arcs from b's chain into a's at each level.
            tails.extend(range(grid_node(b, 0, m), grid_node(b, m, m)))
            heads.extend(range(grid_node(a, 0, m), grid_node(a, m, m)))
    return FlowNetwork(n, m, tails, heads, instance.costs.rows)


def scale_to_integers(values) -> tuple[list[int], int]:
    """Rationals over their least common denominator ``scale``: returns
    ``([v * scale for v in values], scale)``, all ints."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def clamp_capacities(network: FlowNetwork) -> ClampedNetwork:
    """Scale the finite cost entries to integers and replace infinite
    capacities by ``B + 1``.

    ``B`` is the sum of every finite cost entry plus ``n`` times the largest
    finite entry, which dominates the cost of any finite-cost truthful
    mechanism; so a minimum cut exceeding ``B`` certifies an infinite
    optimum, and a cut within ``B`` can never contain a clamped arc.
    """
    finite = [c.value for row in network.costs for c in row if c.value is not None]
    scaled, scale = scale_to_integers(finite)
    budget = sum(scaled) + network.type_count * max(scaled, default=0)
    clamp = budget + scale
    entries = iter(scaled)
    capacities = []
    for row in network.costs:
        capacities.append(clamp)  # the entry arc
        capacities += [clamp if c.value is None else next(entries) for c in row]
    capacities += [clamp] * (len(network.tails) - len(capacities))
    return ClampedNetwork(
        network, Fraction(budget, scale), Fraction(clamp, scale), capacities, scale
    )


def min_cut(clamped: ClampedNetwork) -> CutResult:
    """Exact minimum cut: run Dinic on the integer capacities and take the
    residual-reachable source side (the inclusion-minimal one).  The
    feasible flow and the cut, summed in integers, certify each other."""
    network, capacities = clamped.network, clamped.capacities
    tails, heads = network.tails, network.heads
    graph = FlowGraph(network.node_count)
    graph.add_edges(tails, heads, capacities)
    flow = graph.max_flow(SOURCE, SINK)
    _check_flow(graph, clamped, flow)
    reachable = graph.residual_source_side(SOURCE)
    if reachable[SINK]:
        raise SelfCheckError("sink is reachable in the residual graph")

    cut_total = sum(
        cap
        for tail, head, cap in zip(tails, heads, capacities)
        if reachable[tail] and not reachable[head]
    )
    if cut_total != flow:
        raise SelfCheckError(f"cut value {cut_total} disagrees with max flow {flow}")
    source_side = frozenset(i for i, r in enumerate(reachable) if r)
    return CutResult(source_side, Fraction(cut_total, clamped.scale), clamped.scale)


def _check_flow(graph: FlowGraph, clamped: ClampedNetwork, flow: int) -> None:
    """Check that the residual state holds a feasible flow of value ``flow``.

    Arc ``k`` is edge ``2k``; its flow is the residual capacity of the
    reverse edge.  The flow must respect ``0 <= flow <= capacity`` with the
    forward residual holding the rest, be conserved at every node but the
    source and sink, and leave the source at net rate ``flow``."""
    network, cap = clamped.network, graph.cap
    excess = [0] * graph.node_count
    arcs = zip(network.tails, network.heads, clamped.capacities, cap[0::2], cap[1::2])
    for k, (tail, head, capacity, residual, carried) in enumerate(arcs):
        if not 0 <= carried <= capacity or residual != capacity - carried:
            raise SelfCheckError(f"arc {k} carries infeasible flow {carried}")
        if carried:
            excess[tail] -= carried
            excess[head] += carried
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
    m = clamped.network.outcome_count
    assignment = []
    for i in range(clamped.network.type_count):
        inside = [j for j in range(m) if grid_node(i, j, m) in cut.source_side]
        if not inside:
            raise SelfCheckError(f"type {i} has no chain node on the source side")
        assignment.append(inside[-1])
    return DeterministicMechanism(assignment)


def _check_cut_shape(cut: CutResult, clamped: ClampedNetwork) -> None:
    network, side = clamped.network, cut.source_side
    m = network.outcome_count
    for i in range(network.type_count):
        inside = [grid_node(i, j, m) in side for j in range(m)]
        if inside != sorted(inside, reverse=True):
            raise SelfCheckError(f"source side not downward closed on chain {i}")
    chain = network.chain_arc_count
    for tail, head in zip(network.tails[chain:], network.heads[chain:]):
        if tail in side and head not in side:
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
    net, side = clamped.network, cut.source_side if cut is not None else ()
    m = net.outcome_count
    clamp = clamped.clamp_value * clamped.scale  # above every finite capacity
    lines = ["digraph cutnet {", "  rankdir=LR;", '  s [shape=box];', '  t [shape=box];']

    def name(node: int) -> str:
        if node in (SOURCE, SINK):
            return "s" if node == SOURCE else "t"
        return "n{}_{}".format(*divmod(node - 2, m))

    for node in range(2, net.node_count):
        i, j = divmod(node - 2, m)
        style = ', style=filled, fillcolor="lightblue"' if node in side else ""
        lines.append(f'  {name(node)} [label="type {i} / level {j}"{style}];')
    for tail, head, cap in zip(net.tails, net.heads, clamped.capacities):
        attrs = ['label="inf"', "style=dashed"]
        if cap != clamp:
            attrs = [f'label="{Fraction(cap, clamped.scale)}"']
        if tail in side and head not in side:
            attrs.append("color=red")
        lines.append(f"  {name(tail)} -> {name(head)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)
