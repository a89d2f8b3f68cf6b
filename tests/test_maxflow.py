"""Dinic max-flow, run one component at a time, against networkx."""

import random

import networkx as nx
import pytest

from mechdesign.maxflow import FlowGraph

SOURCE, SINK = 0, 1


def random_network(rng: random.Random, components: int, big: bool):
    """Arcs ``(tail, head, capacity)`` on nodes 0 (source), 1 (sink) and a
    few clusters with edges only inside each cluster.  Clusters may lack
    source edges (unreachable) or sink edges (dead ends), some capacities
    are zero, and ``big`` draws capacities above 2**63."""
    arcs = [(SOURCE, SINK, rng.choice([0, 5]))]  # a direct edge
    nodes = 2
    for _ in range(components):
        size = rng.randint(1, 6)
        cluster = list(range(nodes, nodes + size))
        nodes += size

        def capacity():
            value = rng.choice([0, 0, 1, 2, 3, 7, 10])
            return value * 2**64 + rng.randint(0, 3) if big else value

        for _ in range(rng.randint(0, 2 * size)):
            arcs.append((rng.choice(cluster), rng.choice(cluster), capacity()))
        if rng.random() < 0.85:
            for _ in range(rng.randint(1, 2)):
                arcs.append((SOURCE, rng.choice(cluster), capacity()))
        if rng.random() < 0.85:
            for _ in range(rng.randint(1, 2)):
                arcs.append((rng.choice(cluster), SINK, capacity()))
        if rng.random() < 0.2:
            arcs.append((SINK, rng.choice(cluster), capacity()))
            arcs.append((rng.choice(cluster), SOURCE, capacity()))
    return nodes, arcs


def networkx_value(arcs) -> int:
    graph = nx.DiGraph()
    graph.add_nodes_from([SOURCE, SINK])
    for u, v, c in arcs:
        if u == v:
            continue
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += c
        else:
            graph.add_edge(u, v, capacity=c)
    return nx.maximum_flow_value(graph, SOURCE, SINK)


def solve(nodes, arcs):
    graph = FlowGraph(nodes)
    ids = [graph.add_edge(u, v, c) for u, v, c in arcs]
    flow = graph.max_flow(SOURCE, SINK)
    return graph, ids, flow


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_matches_networkx_and_certifies_the_cut(seed, big):
    rng = random.Random(seed)
    nodes, arcs = random_network(rng, rng.randint(1, 6), big)
    graph, ids, flow = solve(nodes, arcs)
    assert flow == networkx_value(arcs)

    reachable = graph.residual_source_side(SOURCE)
    assert not reachable[SINK]
    crossing = sum(c for u, v, c in arcs if reachable[u] and not reachable[v])
    assert crossing == flow
    for (u, v, c), eid in zip(arcs, ids):
        assert 0 <= graph.cap[eid ^ 1] <= c


def test_direct_edge_and_components_add_up():
    arcs = [
        (SOURCE, SINK, 4),
        (SOURCE, 2, 3), (2, SINK, 5),  # bottleneck at the source edge
        (SOURCE, 3, 9), (3, 4, 2), (4, SINK, 9),  # bottleneck in the middle
        (5, SINK, 8),  # no source edge: unreachable
        (SOURCE, 6, 7),  # no sink edge: dead end
    ]
    graph, _, flow = solve(7, arcs)
    assert flow == 4 + 3 + 2
    assert graph.residual_source_side(SOURCE) == [
        True, False, False, True, False, False, True,
    ]


def test_zero_capacities_carry_nothing():
    arcs = [(SOURCE, 2, 0), (2, SINK, 6), (SOURCE, 3, 6), (3, SINK, 0)]
    graph, _, flow = solve(4, arcs)
    assert flow == 0
    assert graph.residual_source_side(SOURCE) == [True, False, False, True]


def test_capacities_beyond_64_bits_stay_exact():
    huge = 2**80 + 1
    arcs = [(SOURCE, 2, huge), (2, 3, huge - 1), (3, SINK, huge), (SOURCE, SINK, huge)]
    _, _, flow = solve(4, arcs)
    assert flow == 2 * huge - 1


@pytest.mark.parametrize("seed", range(20))
def test_array_fill_matches_add_edge(seed):
    rng = random.Random(seed)
    nodes, arcs = random_network(rng, rng.randint(1, 6), seed % 2 == 1)
    one_by_one = FlowGraph(nodes)
    for u, v, c in arcs:
        one_by_one.add_edge(u, v, c)
    tails, heads, caps = (list(column) for column in zip(*arcs))
    filled = FlowGraph(nodes)
    assert filled.add_edges(tails, heads, caps) == 0
    assert filled.head == one_by_one.head
    assert filled.to == one_by_one.to
    assert filled.cap == one_by_one.cap
    # Filling in two batches appends edge ids after the first batch.
    split = len(arcs) // 2
    batched = FlowGraph(nodes)
    batched.add_edges(tails[:split], heads[:split], caps[:split])
    assert batched.add_edges(tails[split:], heads[split:], caps[split:]) == 2 * split
    assert (batched.head, batched.to, batched.cap) == (filled.head, filled.to, filled.cap)
    assert filled.max_flow(SOURCE, SINK) == one_by_one.max_flow(SOURCE, SINK)
    assert filled.cap == one_by_one.cap


def test_negative_capacity_rejected():
    graph = FlowGraph(3)
    with pytest.raises(ValueError):
        graph.add_edges([0, 2], [2, 1], [4, -1])
    with pytest.raises(ValueError):
        graph.add_edge(0, 1, -1)
