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

Flow.  Each type's chain is a source-to-sink path of its own, so the flow
starts with every chain saturated at its first cheapest arc (the entry arc
of an all-infinite row), which leaves the levels below that arc reachable.
Where every claim ``(a, b)`` leaves ``a`` reaching at least as high as ``b``,
the imitation arcs out of the reach land inside it and the seed is a maximum
flow, so lone types and such claim components (``claim_groups``) are settled
at their row minima.  The components share only ``s`` and ``t``, so a
simple augmenting path stays inside one and the cut splits into theirs.  A
tree (below) is cut by messages; every other component, one with a cycle or
a two-way claim or a tree at the clamp, gets a ``FlowGraph`` of its own, its
``k``-th type (in search order) in type ``k``'s place of the layout (``2 +
len(group)*m`` nodes).  There a claim ``(a, b)`` seeds, for each level ``j`` up to ``b``'s
reach above the last one at ``a``'s row minimum (whose arc the chain seed
saturated; every level of an all-infinite row), the path up ``b``'s chain to
``j``, across the imitation arc and up ``a``'s chain to the sink.  Dinic
finishes the longer paths and proves that none is left, which no seed can;
its last search labels the source side, copied back once per chain, and the
component's cut value joins the total.  Every maximum flow leaves the same
residual source side, so the seeds do not change the cut (``maxflow.py``);
each graph's flow is certified on its own, and the checks of
``solve_deterministic`` cover every type.

Trees.  A component with one claim fewer than types is a tree (no cycle or
two-way claim), cut by min-plus messages (Hochbaum 2001) over costs ``c``
that read infinite as the clamp.  In reverse search order each type sends
its parent, the neighbour found before it, its row's minima ``M`` up to each
level (the parent claims it) or from it: entry value ``C = M[0]`` and the
non-decreasing profile ``G = M[0] - M`` or ``M - M[0]``; the parent's row
gains ``M - M[0]``.  The root takes its first least level, each child the
first on its side of its parent's ``x_p`` where its row meets ``M[x_p]``:
the pointwise-lowest optimum ``x``.  The check reads only ``c``, ``G``,
``C`` and ``x``: ``r_i = c_i - C_i - sum(G of claims by i) + sum(G of claims
on i) >= 0 = r_i(x_i)``, and ``G(x_a) = G(x_b)`` with ``x_a >= x_b`` per
claim; then a truthful ``x'`` costs ``sum C + sum r_i(x'_i) + sum (G(x'_a) -
G(x'_b)) >= sum C``, what ``x`` costs.  That is the LP dual of the cut in
Ishikawa's network with unbounded reverse chain arcs (its chain flows ``c -
r`` can be negative: trees only), which has our minimum cut: below the
clamp a cut crosses no clamped arc, and cutting each chain at its lowest
crossed arc instead still crosses none (an imitation arc crossed then was
crossed before), costs no more and reads a truthful ``x'``.  So ``sum C``
below the clamp is the tree's cut value and ``x`` its inclusion-minimal
source side; a tree at the clamp goes to Dinic, which keeps infinite
verdicts and their cuts as they were.
"""

from __future__ import annotations

import operator
from itertools import accumulate, compress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .instances import (
    Cost,
    CostMatrix,
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
    """The cut network (layout in the module docstring), arrays built on first read."""

    type_count: int
    outcome_count: int
    costs: CostMatrix
    claims: list[tuple[int, int]]  # the pairs behind the imitation arcs

    @property
    def node_count(self) -> int:
        return 2 + self.type_count * self.outcome_count

    @property
    def chain_arc_count(self) -> int:
        return self.type_count * (self.outcome_count + 1)

    @cached_property
    def _arrays(self) -> tuple[list[int], list[int]]:
        return arc_arrays(self.type_count, self.claims, self.outcome_count)

    tails = property(lambda self: self._arrays[0])
    heads = property(lambda self: self._arrays[1])

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
    scale: int

    @cached_property
    def capacities(self) -> list[int]:
        """Every arc's integer capacity, built on first read."""
        net, clamp = self.network, int(self.clamp_value * self.scale)
        return arc_capacities(net.costs.scaled, len(net.claims), net.outcome_count, clamp)


@dataclass(frozen=True)
class CutResult:
    reachable: list[bool]  # the source side, as a mask over the nodes
    value: Fraction
    scale: int


@dataclass(frozen=True)
class DeterministicSolution:
    mechanism: DeterministicMechanism | None
    cost: Cost
    cut: CutResult | None = None
    clamped: ClampedNetwork | None = None


def build_network(instance: Instance) -> FlowNetwork:
    """The cut network for an instance, over its relation as given (see the
    module docstring for why the closure is not needed)."""
    problems = hard_violations(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    return FlowNetwork(
        instance.type_count, instance.outcome_count, instance.costs, instance.relation.claims
    )


def arc_arrays(count: int, claims: list[tuple[int, int]], m: int) -> tuple[list[int], list[int]]:
    """Tails and heads of the chains of types ``0`` to ``count - 1`` (the
    whole network's, or one ``min_cut`` component's, numbered locally), then
    of the imitation arcs of ``claims`` between them, with level ``j`` of
    type ``i`` at node ``grid_node(i, j, m)``; the chain arcs are filled by
    slice, one arc position at a time."""
    tails, heads = [SOURCE] * (count * (m + 1)), [SINK] * (count * (m + 1))
    for j in range(m):  # level j heads chain arc j and tails chain arc j + 1
        heads[j :: m + 1] = tails[j + 1 :: m + 1] = range(2 + j, 2 + count * m, m)
    for a, b in claims:
        # "a can claim b": a's chain must reach at least as high as b's,
        # enforced by unbounded arcs from b's chain into a's at each level.
        tails.extend(range(2 + b * m, 2 + b * m + m))
        heads.extend(range(2 + a * m, 2 + a * m + m))
    return tails, heads


def arc_capacities(rows, claim_count: int, m: int, clamp: int) -> list[int]:
    """``arc_arrays``' capacities, every infinite one clamped to ``clamp``."""
    chains = [clamp if c is None else c for row in rows for c in (clamp, *row)]
    return chains + [clamp] * (claim_count * m)


def clamp_capacities(network: FlowNetwork) -> ClampedNetwork:
    """Clamp the network's infinite capacities to ``B + 1``, over the cost
    matrix's ``scale``.

    ``B`` is the sum of every finite cost entry plus ``n`` times the largest
    finite entry, which dominates the cost of any finite-cost truthful
    mechanism; so a minimum cut exceeding ``B`` certifies an infinite
    optimum, and a cut within ``B`` can never contain a clamped arc.
    """
    rows, scale = network.costs.scaled, network.costs.scale
    finite = [c for row in rows for c in row if c is not None]
    budget = sum(finite) + network.type_count * max(finite, default=0)
    return ClampedNetwork(network, Fraction(budget, scale), Fraction(budget + scale, scale), scale)


def claim_groups(count: int, claims: list[tuple[int, int]]) -> list[tuple[list[int], list]]:
    """The weakly connected components of ``range(count)`` that hold one of
    the ``claims``, each as its types in search order and its claims in the
    given order, found by a search over the pairs, in O(count + claims)."""
    neighbours: list[list[int]] = [[] for _ in range(count)]
    for a, b in claims:
        neighbours[a].append(b)
        neighbours[b].append(a)
    owner = [-1] * count
    groups = []
    for start in range(count):
        if neighbours[start] and owner[start] < 0:
            owner[start] = g = len(groups)
            group = [start]
            for x in group:  # the loop also visits the nodes it appends
                for y in neighbours[x]:
                    if owner[y] < 0:
                        owner[y] = g
                        group.append(y)
            groups.append((group, []))
    for pair in claims:
        groups[owner[pair[0]]][1].append(pair)
    return groups


def certified_cut(
    node_count: int, tails: list[int], heads: list[int], capacities: list[int],
    chains: tuple[int, int] = (0, 0), paths=(),
) -> tuple[list[bool], int]:
    """Exact minimum ``SOURCE``-``SINK`` cut of integer arc arrays: seed the
    first ``count * length`` arcs, ``chains = (count, length)``, as that many
    source-to-sink paths, then the ``paths`` of edge ids (arc ``k`` is edge
    ``2k``), augment by Dinic, and take the residual-reachable
    (inclusion-minimal) source side that its last search labels, as a node
    mask with the cut value.  Flow and cut, summed in integers, certify each
    other."""
    graph = FlowGraph(node_count)
    graph.add_edges(tails, heads, capacities)
    flow = graph.seed_chains(*chains) + graph.seed_paths(paths)
    flow += graph.max_flow(SOURCE, SINK)
    # Arc k is edge 2k and carries the reverse edge's residual capacity: it
    # must fit its capacity and be conserved at every node but s and t.
    residuals, flows = graph.cap[0::2], graph.cap[1::2]
    if min(graph.cap, default=0) < 0 or list(map(operator.add, residuals, flows)) != capacities:
        k = next(k for k, (c, r, f) in enumerate(zip(capacities, residuals, flows))
                 if not 0 <= f <= c or r != c - f)
        raise SelfCheckError(f"arc {k} carries infeasible flow {flows[k]}")
    excess = [0] * node_count
    for tail, head, carried in zip(tails, heads, flows):
        if carried:  # only the carrying arcs move excess
            excess[tail] -= carried
            excess[head] += carried
    if -excess[SOURCE] != flow:
        raise SelfCheckError(f"source sends {-excess[SOURCE]} but max flow reported {flow}")
    if any(excess[2:]):
        node = next(node for node, surplus in enumerate(excess) if surplus and node > SINK)
        raise SelfCheckError(f"flow is not conserved at node {node}")
    reachable = graph.source_side
    if reachable[SINK]:
        raise SelfCheckError("sink is reachable in the residual graph")
    cut_total = sum(
        cap
        for tail, head, cap in zip(tails, heads, capacities)
        if reachable[tail] and not reachable[head]
    )
    if cut_total != flow:
        raise SelfCheckError(f"cut value {cut_total} disagrees with max flow {flow}")
    return reachable, flow


def conflicted_groups(count: int, claims: list, tops: list[int]) -> tuple[list[bool], list]:
    """Which types the seeded chains settle, and the claim components (as
    ``claim_groups`` gives them) with a claim ``(a, b)`` they violate,
    ``tops[a] < tops[b]``."""
    settled, conflicted = [True] * count, []
    for group, pairs in claim_groups(count, claims):
        if any(tops[a] < tops[b] for a, b in pairs):
            conflicted.append((group, pairs))
            for i in group:
                settled[i] = False
    return settled, conflicted


def tree_messages(costs: list[list[int]], claims: list, clamp: int):
    """The levels, each claim's profile and each type's entry value of a tree
    component (module docstring, Trees), from its types' clamped cost rows in
    search order and its claims on those numbers; ``None`` at ``clamp``."""
    n = len(costs)
    rows, edge, minima, entries = list(costs), [0] * n, [None] * n, [0] * n
    for e, (a, b) in enumerate(claims):
        edge[max(a, b)] = e  # the claim between a type and its parent
    profiles = [None] * len(claims)
    for k in range(n - 1, 0, -1):
        a, b = claims[edge[k]]
        down = a < b  # the parent claims k, which stays at or below it
        low = list(accumulate(rows[k], min)) if down else list(accumulate(rows[k][::-1], min))[::-1]
        minima[k], entries[k], parent = low, low[0], min(a, b)
        profiles[edge[k]] = [low[0] - x if down else x - low[0] for x in low]
        rows[parent] = [f + x - low[0] for f, x in zip(rows[parent], low)]
    entries[0] = min(rows[0])
    if sum(entries) >= clamp:
        return None
    levels = [rows[0].index(entries[0])] * n
    for k in range(1, n):
        a, b = claims[edge[k]]
        x = levels[min(a, b)]
        levels[k] = rows[k].index(minima[k][x], 0 if a < b else x)
    return levels, profiles, entries


def check_tree_certificate(costs: list[list[int]], claims: list, levels, profiles, entries) -> int:
    """Prove a tree's levels a minimum from its clamped costs, profiles and
    entry values alone (module docstring, Trees); returns the cut value."""
    residuals = [[c - low for c in row] for row, low in zip(costs, entries)]
    for (a, b), profile in zip(claims, profiles):
        if any(map(operator.gt, profile, profile[1:])):
            raise SelfCheckError(f"claim ({a}, {b})'s profile decreases")
        if levels[a] < levels[b] or profile[levels[a]] != profile[levels[b]]:
            raise SelfCheckError(f"claim ({a}, {b}) is not tight at levels {levels[a]}, {levels[b]}")
        residuals[a] = list(map(operator.sub, residuals[a], profile))
        residuals[b] = list(map(operator.add, residuals[b], profile))
    for k, (residual, x) in enumerate(zip(residuals, levels)):
        if min(residual) < 0:
            raise SelfCheckError(f"tree type {k}'s residual is negative")
        if residual[x]:
            raise SelfCheckError(f"tree type {k}'s residual is {residual[x]} at its level {x}")
    return sum(entries)


def min_cut(clamped: ClampedNetwork) -> CutResult:
    """The certified minimum cut of the clamped network: the type chains
    settle every conflict-free claim component, messages cut each tree below
    the clamp, and Dinic cuts each other one in a flow graph of its own,
    numbered locally, after the one-hop seeds; the components' cut values
    add up."""
    network, scale = clamped.network, clamped.scale
    n, m, rows = network.type_count, network.outcome_count, network.costs.scaled
    clamp = int(clamped.clamp_value * scale)
    lows, tops, lasts = [], [], []  # each row's minimum, and its first and last place
    for row in rows:
        low, top, last = clamp, -1, m - 1  # an all-infinite row's
        for j, c in enumerate(row):
            if c is not None and c <= low:
                top, low, last = top if c == low else j, c, j
        lows.append(low), tops.append(top), lasts.append(last)
    settled, groups = conflicted_groups(n, network.claims, tops)
    reachable, value = [True] + [False] * (network.node_count - 1), 0
    for group, pairs in groups:
        index = {i: k for k, i in enumerate(group)}
        claims = [(index[a], index[b]) for a, b in pairs]
        if len(claims) == len(group) - 1:
            costs = [[clamp if c is None else c for c in rows[i]] for i in group]
            tree = tree_messages(costs, claims, clamp)
            if tree:
                value += check_tree_certificate(costs, claims, *tree)
                for i, x in zip(group, tree[0]):
                    reachable[2 + i * m : 3 + i * m + x] = [True] * (x + 1)
                continue
        paths, imitation = [], 2 * len(group) * (m + 1)
        for (a, b), (ka, kb) in zip(pairs, claims):
            if lasts[a] < tops[b]:
                ea, eb = 2 * ka * (m + 1), 2 * kb * (m + 1)
                paths += [(*range(eb, eb + 2 * j + 1, 2), imitation + 2 * j,
                           *range(ea + 2 * j + 2, ea + 2 * m + 1, 2))
                          for j in range(lasts[a] + 1, tops[b] + 1)]
            imitation += 2 * m
        side, flow = certified_cut(
            2 + len(group) * m, *arc_arrays(len(group), claims, m),
            arc_capacities([rows[i] for i in group], len(claims), m, clamp),
            (len(group), m + 1), paths,
        )
        for k, i in enumerate(group):  # node 2 + k*m + j of the flow graph is grid_node(i, j, m)
            reachable[2 + i * m : 2 + (i + 1) * m] = side[2 + k * m : 2 + (k + 1) * m]
        value += flow
    for i in compress(range(n), settled):
        bottom = grid_node(i, 0, m)
        reachable[bottom : bottom + tops[i] + 1] = [True] * (tops[i] + 1)
    return CutResult(reachable, Fraction(value + sum(compress(lows, settled)), scale), scale)


def minimal_closure(weights: list[int], pairs: list[tuple[int, int]]) -> list[bool]:
    """The inclusion-minimal least-weight set ``S`` in which every ``(a, b)``
    of ``pairs`` with ``b`` in ``S`` has ``a`` in ``S`` (Picard's closure
    cut): ``s -> i`` carries ``-w_i`` and ``i -> t`` carries ``w_i``, ints,
    and each pair is an arc ``b -> a`` above the empty set's cut
    ``sum(-w_i for w_i < 0)``, which no minimum cut can cross.  The paths
    ``s -> b -> a -> t`` of the pairs with ``w_b < 0 < w_a`` seed the flow
    that Dinic finishes."""
    tails = [SOURCE if w < 0 else node for node, w in enumerate(weights, 2)]
    heads = [node if w < 0 else SINK for node, w in enumerate(weights, 2)]
    capacities = [abs(w) for w in weights]
    tails += [b + 2 for _, b in pairs]
    heads += [a + 2 for a, _ in pairs]
    capacities += [1 - sum(w for w in weights if w < 0)] * len(pairs)
    paths = [(2 * b, 2 * k, 2 * a) for k, (a, b) in enumerate(pairs, len(weights))
             if weights[b] < 0 < weights[a]]
    reachable, _ = certified_cut(len(weights) + 2, tails, heads, capacities, paths=paths)
    inside = reachable[2:]
    if any(inside[b] and not inside[a] for a, b in pairs):
        raise SelfCheckError("a relation arc leaves the minimal closure")
    return inside


def _chain_columns(cut: CutResult, clamped: ClampedNetwork) -> list[list[bool]]:
    """Column ``j`` is the source-side mask of every type's level ``j``."""
    m = clamped.network.outcome_count
    levels = cut.reachable[grid_node(0, 0, m) :]
    return [levels[j::m] for j in range(m)]


def extract_mechanism(cut: CutResult, clamped: ClampedNetwork) -> DeterministicMechanism:
    """Read the assignment off the cut: each type gets the highest level of
    its chain still on the source side."""
    if cut.value > clamped.budget:
        raise InfiniteOptimumError(
            f"minimum cut {cut.value} exceeds budget {clamped.budget}"
        )
    assignment = [-1] * clamped.network.type_count
    for j, column in enumerate(_chain_columns(cut, clamped)):
        assignment = [j if inside else x for x, inside in zip(assignment, column)]
    if -1 in assignment:
        raise SelfCheckError(
            f"type {assignment.index(-1)} has no chain node on the source side"
        )
    return DeterministicMechanism(assignment)


def _check_cut_shape(cut: CutResult, clamped: ClampedNetwork) -> None:
    columns = _chain_columns(cut, clamped)
    for below, above in zip(columns, columns[1:]):
        rises = list(map(operator.gt, above, below))
        if True in rises:
            raise SelfCheckError(f"source side not downward closed on chain {rises.index(True)}")
    # On downward-closed chains, claim (a, b)'s arcs cross iff b reaches above a.
    heights = list(map(sum, zip(*columns)))
    if any(heights[b] > heights[a] for a, b in clamped.network.claims):
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
    cost = cost_deterministic(mechanism, instance)
    if cost != Cost(cut.value):
        raise SelfCheckError(
            f"mechanism cost {cost} disagrees with cut value {cut.value}"
        )
    return DeterministicSolution(mechanism, cost, cut, clamped)


def network_to_dot(clamped: ClampedNetwork, cut: CutResult | None = None) -> str:
    """Graphviz rendering of the clamped network, optionally with the cut's
    source side filled in."""
    net = clamped.network
    side = cut.reachable if cut is not None else [False] * net.node_count
    m = net.outcome_count
    clamp = clamped.clamp_value * clamped.scale  # above every finite capacity
    lines = ["digraph cutnet {", "  rankdir=LR;", '  s [shape=box];', '  t [shape=box];']

    def name(node: int) -> str:
        if node in (SOURCE, SINK):
            return "s" if node == SOURCE else "t"
        return "n{}_{}".format(*divmod(node - 2, m))

    for node in range(2, net.node_count):
        i, j = divmod(node - 2, m)
        style = ', style=filled, fillcolor="lightblue"' if side[node] else ""
        lines.append(f'  {name(node)} [label="type {i} / level {j}"{style}];')
    for tail, head, cap in zip(net.tails, net.heads, clamped.capacities):
        attrs = ['label="inf"', "style=dashed"]
        if cap != clamp:
            attrs = [f'label="{Fraction(cap, clamped.scale)}"']
        if side[tail] and not side[head]:
            attrs.append("color=red")
        lines.append(f"  {name(tail)} -> {name(head)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines)
