"""Cut-based deterministic solver: network build, clamping, exactness."""

import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from mechdesign import (
    Cost,
    CostMatrix,
    InfiniteOptimumError,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    SelfCheckError,
    brute_force_deterministic_opt,
    build_network,
    clamp_capacities,
    cost_deterministic,
    enumerate_truthful_deterministic,
    extract_mechanism,
    gap_instance,
    is_truthful,
    min_cut,
    network_to_dot,
    random_convex_instance,
    random_instance,
    solve_deterministic,
    solve_randomized,
    transitive_closure,
)
from mechdesign import mincut
from mechdesign.instances import scale_to_integers
from mechdesign.maxflow import FlowGraph
from mechdesign.mincut import certified_cut, claim_groups, grid_node, minimal_closure


def chain_instance():
    """Two types, type 0 can claim type 1; optimum is (o_2, o_1) at cost 3."""
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
        costs=CostMatrix([[4, 2, 7], [1, 5, 3]]),
    )


def conflicted_instance():
    """Two types, type 0 can claim type 1, and both would rather sit apart:
    the seeded chains violate the claim, and messages cut the two-type
    tree."""
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
        costs=CostMatrix([[1, 9, 9], [9, 9, 1]]),
    )


def two_way_instance():
    """``conflicted_instance``'s costs, each type able to claim the other:
    the component holds a two-way claim, so it is no tree and the cut
    reaches Dinic."""
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1), (1, 0)]),
        costs=CostMatrix([[1, 9, 9], [9, 9, 1]]),
    )


def tree_instance():
    """Type 0 can claim type 1, and the seeded chains put it below type 1:
    a tree component, whose optimum (o_2, o_1) at cost 3 keeps type 0
    strictly above type 1."""
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
        costs=CostMatrix([[5, 1, 9], [2, 9, 0]]),
    )


def _built_graphs(monkeypatch):
    """Patch ``FlowGraph.__init__`` to keep the node count of every graph
    built."""
    sizes, original = [], FlowGraph.__init__

    def sized(graph, node_count):
        sizes.append(node_count)
        original(graph, node_count)

    monkeypatch.setattr(FlowGraph, "__init__", sized)
    return sizes


class TestNetworkBuild:
    def test_grid_node_layout(self):
        assert grid_node(0, 0, 3) == 2
        assert grid_node(0, 2, 3) == 4
        assert grid_node(1, 0, 3) == 5
        nodes = {grid_node(i, j, 3) for i in range(2) for j in range(3)}
        assert len(nodes) == 6 and 0 not in nodes and 1 not in nodes

    def test_arc_census(self):
        net = build_network(chain_instance())
        assert net.node_count == 2 + 2 * 3
        assert len(net.tails) == len(net.heads) == 2 * 4 + 3
        # Chain arcs come first, m + 1 per type: entry, levels, exit.
        assert net.chain_arc_count == 2 * 4
        assert [k for k, t in enumerate(net.tails) if t == 0] == [0, 4]
        assert [k for k, h in enumerate(net.heads) if h == 1] == [3, 7]
        kinds = {}
        for arc in net.arcs:
            kinds[arc.kind] = kinds.get(arc.kind, 0) + 1
        assert kinds["entry"] == 2
        assert kinds["level"] == 2 * 2
        assert kinds["exit"] == 2
        assert kinds["imitation"] == 3
        assert [arc.kind for arc in net.arcs[:4]] == ["entry", "level", "level", "exit"]
        assert list(net.arcs) == list(zip(net.tails, net.heads, (a.kind for a in net.arcs)))

    def test_level_arcs_carry_cost_entries(self):
        inst = chain_instance()
        clamped = clamp_capacities(build_network(inst))
        net = clamped.network
        caps = {
            (tail, head): Fraction(cap, clamped.scale)
            for tail, head, cap, arc in zip(
                net.tails, net.heads, clamped.capacities, net.arcs
            )
            if arc.kind in ("level", "exit")
        }
        assert caps[(grid_node(0, 0, 3), grid_node(0, 1, 3))] == 4
        assert caps[(grid_node(0, 1, 3), grid_node(0, 2, 3))] == 2
        assert caps[(grid_node(0, 2, 3), 1)] == 7
        assert len(caps) == 2 * 3
        for i, row in enumerate(inst.costs.rows):
            for j, entry in enumerate(row):
                assert net.costs.rows[i][j] == entry

    def test_one_imitation_arc_per_level_per_raw_pair(self):
        for seed in range(20):
            inst = random_instance(
                seed=500 + seed,
                type_count=3 + seed % 4,
                outcome_count=1 + seed % 4,
                edge_density=0.4,
            )
            m = inst.outcome_count
            net = build_network(inst)
            chain = net.chain_arc_count
            imitation = sorted(zip(net.tails[chain:], net.heads[chain:]))
            expected = sorted(
                (grid_node(b, j, m), grid_node(a, j, m))
                for a, b in inst.relation.pairs
                if a != b
                for j in range(m)
            )
            assert imitation == expected, f"seed {seed}"
            assert all(arc.kind == "imitation" for arc in net.arcs[chain:])

    def test_imitation_arcs_point_into_claimant_chain(self):
        clamped = clamp_capacities(build_network(chain_instance()))
        net = clamped.network
        chain = net.chain_arc_count
        for k in range(chain, len(net.tails)):
            assert Fraction(clamped.capacities[k], clamped.scale) == clamped.clamp_value
            # type 0 claims type 1: flow from 1's chain into 0's
            assert grid_node(1, 0, 3) <= net.tails[k] <= grid_node(1, 2, 3)
            assert grid_node(0, 0, 3) <= net.heads[k] <= grid_node(0, 2, 3)

    def test_rejects_malformed_instances(self):
        bad = Instance(
            outcomes=OutcomeSpace([2, 1]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[1, 1]]),
        )
        with pytest.raises(ValueError):
            build_network(bad)


class TestClamping:
    def test_budget_formula_by_hand(self):
        clamped = clamp_capacities(build_network(chain_instance()))
        # finite entries 4,2,7,1,5,3 sum to 22; largest is 7; two types
        assert clamped.budget == Fraction(22 + 2 * 7)
        assert clamped.clamp_value == clamped.budget + 1
        assert clamped.scale == 1
        assert clamped.capacities.count(22 + 2 * 7 + 1) == 2 + 3

    def test_all_capacities_finite_after_clamp(self):
        inst = gap_instance()
        clamped = clamp_capacities(build_network(inst))
        net, m = clamped.network, inst.outcome_count
        assert all(isinstance(c, int) for c in clamped.capacities)
        assert len(clamped.capacities) == len(net.tails)
        # Infinite arcs: entries, infinite cost entries and every imitation arc.
        infinite = {i * (m + 1) for i in range(inst.type_count)}
        for i, row in enumerate(inst.costs.rows):
            infinite |= {i * (m + 1) + 1 + j for j, c in enumerate(row) if not c.is_finite}
        infinite |= set(range(net.chain_arc_count, len(net.tails)))
        assert len(infinite) > inst.type_count
        for k, cap in enumerate(clamped.capacities):
            value = Fraction(cap, clamped.scale)
            if k in infinite:
                assert value == clamped.clamp_value == clamped.budget + 1
            else:
                assert value <= clamped.budget


class TestMinCut:
    def test_chain_instance_cut_by_hand(self):
        clamped = clamp_capacities(build_network(chain_instance()))
        cut = min_cut(clamped)
        assert cut.value == Fraction(3)
        mech = extract_mechanism(cut, clamped)
        assert mech.assignment == (1, 0)

    def test_fractional_capacities_stay_exact(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.identity(2),
            costs=CostMatrix(
                [[Fraction(1, 3), Fraction(5, 2)], [Fraction(1, 7), 4]]
            ),
        )
        sol = solve_deterministic(inst)
        assert sol.cost == Cost(Fraction(1, 3) + Fraction(1, 7))
        assert sol.cut.scale % 21 == 0

    def test_extract_refuses_over_budget_cut(self):
        clamped = clamp_capacities(build_network(gap_instance()))
        cut = min_cut(clamped)
        assert cut.value > clamped.budget
        with pytest.raises(InfiniteOptimumError):
            extract_mechanism(cut, clamped)


class TestSolveDeterministic:
    def test_chain_instance(self):
        sol = solve_deterministic(chain_instance())
        assert sol.cost == Cost(3)
        assert sol.mechanism.assignment == (1, 0)

    def test_infinite_verdict_on_gap(self):
        sol = solve_deterministic(gap_instance())
        assert sol.mechanism is None
        assert not sol.cost.is_finite

    def test_infinite_verdict_on_degenerate_row(self):
        inst = Instance(
            outcomes=OutcomeSpace([1, 2]),
            relation=ReportingRelation.identity(1),
            costs=CostMatrix([[Cost.infinite(), Cost.infinite()]]),
        )
        sol = solve_deterministic(inst)
        assert sol.mechanism is None and not sol.cost.is_finite

    def test_matches_brute_force_on_random_family(self):
        for seed in range(60):
            inst = random_instance(
                seed=seed,
                type_count=2 + seed % 4,
                outcome_count=2 + seed % 3,
                edge_density=0.1 * (seed % 9),
                infinity_rate=0.15 if seed % 2 else 0.0,
                close_relation=bool(seed % 3 == 0),
            )
            sol = solve_deterministic(inst)
            expect_cost, expect_assignment = brute_force_deterministic_opt(inst)
            assert sol.cost == expect_cost, f"seed {seed}"
            if expect_cost.is_finite:
                assert is_truthful(sol.mechanism, inst)
                assert cost_deterministic(sol.mechanism, inst) == expect_cost
            else:
                assert sol.mechanism is None

    def test_transitive_closure_changes_no_solution(self):
        closure_grew = finite = infinite = 0
        for inst in closure_probe_instances():
            closed_relation = transitive_closure(inst.relation)
            closure_grew += closed_relation.pairs != inst.relation.pairs
            raw = solve_deterministic(inst)
            closed = solve_deterministic(
                Instance(inst.outcomes, closed_relation, inst.costs)
            )
            assert raw.cost == closed.cost
            assert raw.mechanism == closed.mechanism
            if raw.cost.is_finite:
                finite += 1
                assert raw.cut.value == closed.cut.value
            else:
                infinite += 1
                assert raw.mechanism is None
                assert raw.cut.value > raw.clamped.budget
                assert closed.cut.value > closed.clamped.budget
        assert closure_grew >= 20 and finite >= 20 and infinite >= 10

    def test_returns_pointwise_lowest_optimum(self):
        for seed in range(30):
            inst = random_instance(
                seed=2000 + seed,
                type_count=2 + seed % 3,
                outcome_count=2 + seed % 3,
                edge_density=0.4,
            )
            sol = solve_deterministic(inst)
            optimal = [
                a
                for a in enumerate_truthful_deterministic(
                    inst.outcome_count, inst.relation
                )
                if cost_deterministic(type(sol.mechanism)(a), inst) == sol.cost
            ]
            lows = tuple(
                min(a[i] for a in optimal) for i in range(inst.type_count)
            )
            assert sol.mechanism.assignment == lows, f"seed {seed}"


def _random_costs(rng, n, m, infinity_rate):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if rng.random() < infinity_rate:
                row.append(Cost.infinite())
            else:
                row.append(Fraction(rng.randint(0, 12), rng.randint(1, 4)))
        rows.append(row)
    return CostMatrix(rows)


def closure_probe_instances():
    """Random families, then cyclic dense relations, all-infinite rows,
    one outcome and one type."""
    out = []
    for seed in range(40):
        out.append(
            random_instance(
                seed=1000 + seed,
                type_count=3 + seed % 3,
                outcome_count=2 + seed % 3,
                edge_density=0.5,
                infinity_rate=0.1 if seed % 2 else 0.0,
            )
        )
    for seed in range(20):
        out.append(
            random_convex_instance(
                seed=3000 + seed,
                type_count=3 + seed % 4,
                outcome_count=2 + seed % 3,
                edge_density=0.3,
            )
        )
    rng = random.Random(7)
    for n in range(2, 7):
        # A directed cycle plus random chords: the closure is the full relation.
        pairs = [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
        pairs += [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.3]
        relation = ReportingRelation(n, pairs)
        for m in (1, 2, 4):
            for rate in (0.0, 0.2):
                costs = _random_costs(rng, n, m, rate)
                out.append(Instance(OutcomeSpace(range(m)), relation, costs))
    for n in (2, 4):
        # Chain relation "i may claim i + 1"; one row entirely infinite.
        relation = ReportingRelation(
            n, [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
        )
        for dead in range(n):
            costs = _random_costs(rng, n, 3, 0.1)
            rows = list(costs.rows)
            rows[dead] = (Cost.infinite(),) * 3
            out.append(Instance(OutcomeSpace([1, 2, 3]), relation, CostMatrix(rows)))
    for seed in range(10):
        out.append(
            random_instance(
                seed=4000 + seed,
                type_count=3 + seed % 4,
                outcome_count=1,
                edge_density=0.5,
                infinity_rate=0.2,
            )
        )
        out.append(
            random_instance(
                seed=4100 + seed,
                type_count=1,
                outcome_count=1 + seed % 4,
                edge_density=0.5,
                infinity_rate=0.2,
            )
        )
    return out


def _networkx_cut_value(clamped) -> Fraction:
    """Minimum cut of the clamped network by networkx, with capacities taken
    from the arc kinds and the instance's cost rows, not the int arrays."""
    net = clamped.network
    entries = iter(cost for row in net.costs.rows for cost in row)
    capacities = []
    for arc in net.arcs:
        cost = next(entries) if arc.kind in ("level", "exit") else Cost.infinite()
        capacities.append(cost.value if cost.is_finite else clamped.clamp_value)
    scale = math.lcm(*(c.denominator for c in capacities))
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.node_count))
    for arc, cap in zip(net.arcs, capacities):
        scaled = int(cap * scale)
        if graph.has_edge(arc.tail, arc.head):
            graph[arc.tail][arc.head]["capacity"] += scaled
        else:
            graph.add_edge(arc.tail, arc.head, capacity=scaled)
    return Fraction(nx.minimum_cut_value(graph, 0, 1), scale)


def networkx_probe_instances():
    """The closure probes (cyclic dense relations, all-infinite rows, m=1,
    n=1) plus cost denominators above 2**63 and a few larger instances."""
    out = closure_probe_instances()
    rng = random.Random(11)
    for n, m in ((1, 3), (3, 1), (4, 3), (6, 4)):
        rows = [
            [
                Cost.infinite()
                if rng.random() < 0.15
                else Fraction(rng.randint(0, 2**70), rng.randint(2**63, 2**64))
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        pairs = [(i, i) for i in range(n)]
        pairs += [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4]
        relation = ReportingRelation(n, pairs)
        out.append(Instance(OutcomeSpace(range(1, m + 1)), relation, CostMatrix(rows)))
    for seed in range(4):
        out.append(
            random_instance(
                seed=5000 + seed,
                type_count=25,
                outcome_count=5,
                edge_density=0.1,
                infinity_rate=0.05,
            )
        )
    return out


class TestArrayNetworkAgainstNetworkx:
    def test_min_cut_value_matches_networkx(self):
        finite = infinite = 0
        for k, inst in enumerate(networkx_probe_instances()):
            clamped = clamp_capacities(build_network(inst))
            cut = min_cut(clamped)
            assert cut.value == _networkx_cut_value(clamped), f"instance {k}"
            assert cut.scale == clamped.scale
            if cut.value > clamped.budget:
                infinite += 1
            else:
                finite += 1
        assert finite >= 40 and infinite >= 10


def _carrying_level_edge(graph):
    # Edge 2k is arc k; level arcs join two chain nodes.
    return next(
        eid
        for eid in range(0, len(graph.to), 2)
        if graph.cap[eid ^ 1] > 0 and graph.to[eid] > 1 and graph.to[eid ^ 1] > 1
    )


def _overstate_value(graph, value):
    return value + 1


def _unbalance_a_node(graph, value):
    eid = _carrying_level_edge(graph)
    graph.cap[eid] += 1
    graph.cap[eid ^ 1] -= 1
    return value


def _shrink_a_residual(graph, value):
    graph.cap[_carrying_level_edge(graph)] += 1
    return value


def _overfill_an_arc(graph, value):
    eid = _carrying_level_edge(graph)
    graph.cap[eid ^ 1] += graph.cap[eid] + 1
    graph.cap[eid] = 0
    return value


class TestFlowCertificate:
    """``min_cut`` checks the flow Dinic leaves behind, not just its value
    (on a component with a two-way claim, which no message cuts)."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_overstate_value, "source sends"),
            (_unbalance_a_node, "not conserved"),
            (_shrink_a_residual, "infeasible"),
            (_overfill_an_arc, "infeasible"),
        ],
    )
    def test_tampered_residual_state_is_refused(self, monkeypatch, tamper, message):
        original = FlowGraph.max_flow

        def tampered_max_flow(graph, source, sink):
            return tamper(graph, original(graph, source, sink))

        monkeypatch.setattr(FlowGraph, "max_flow", tampered_max_flow)
        clamped = clamp_capacities(build_network(two_way_instance()))
        with pytest.raises(SelfCheckError, match=message):
            min_cut(clamped)

    def test_unbalanced_first_flow_node_is_refused(self, monkeypatch):
        # s -> 2 -> t carries 3; handing a unit of 2 -> t back unbalances
        # node 2 alone (the sink's balance is not checked).
        original = FlowGraph.max_flow

        def undersent(graph, source, sink):
            value = original(graph, source, sink)
            graph.cap[2] += 1
            graph.cap[3] -= 1
            return value

        monkeypatch.setattr(FlowGraph, "max_flow", undersent)
        with pytest.raises(SelfCheckError, match="not conserved at node 2"):
            certified_cut(3, [0, 2], [2, 1], [5, 3])

    def test_overdrawn_arc_with_the_right_sum_is_refused(self, monkeypatch):
        # Residual below zero, carried flow above the capacity: each pair of
        # edges still sums to its arc's capacity.
        original = FlowGraph.max_flow

        def overdrawn(graph, source, sink):
            value = original(graph, source, sink)
            eid = _carrying_level_edge(graph)
            excess = graph.cap[eid] + 1
            graph.cap[eid] -= excess
            graph.cap[eid ^ 1] += excess
            return value

        monkeypatch.setattr(FlowGraph, "max_flow", overdrawn)
        clamped = clamp_capacities(build_network(two_way_instance()))
        with pytest.raises(SelfCheckError, match="infeasible"):
            min_cut(clamped)


def _networkx_minimal_side(node_count, tails, heads, capacities):
    """Max-flow value and residual-reachable source side by networkx."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(node_count))
    for u, v, c in zip(tails, heads, capacities):
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += c
        else:
            graph.add_edge(u, v, capacity=c)
    residual = nx.algorithms.flow.preflow_push(graph, 0, 1)
    open_arcs = nx.DiGraph(
        (u, v) for u, v, d in residual.edges(data=True) if d["flow"] < d["capacity"]
    )
    open_arcs.add_node(0)
    side = nx.descendants(open_arcs, 0) | {0}
    return residual.graph["flow_value"], [v in side for v in range(node_count)]


def _random_chain_network(rng, count, length):
    """``count`` chains ``s -> ... -> t`` of ``length`` arcs, then random
    arcs between chain nodes of a few chains."""
    inner = length - 1
    tails, heads, capacities = [], [], []
    for c in range(count):
        nodes = [0, *range(2 + c * inner, 2 + (c + 1) * inner), 1]
        tails += nodes[:-1]
        heads += nodes[1:]
        capacities += [rng.choice([0, 1, 3, 8, 2**70 + 1]) for _ in range(length)]
    for _ in range(rng.randint(0, 2 * count)):
        a, b = rng.sample(range(count), 2) if count > 1 else (0, 0)
        tails.append(2 + a * inner + rng.randrange(inner))
        heads.append(2 + b * inner + rng.randrange(inner))
        capacities.append(rng.choice([0, 2, 5, 2**66]))
    return 2 + count * inner, tails, heads, capacities


class TestSeededCut:
    """The seeded cut against networkx: the same value and the same
    inclusion-minimal source side."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_chain_networks(self, seed):
        rng = random.Random(seed)
        count, length = rng.randint(1, 7), rng.randint(2, 5)
        nodes, tails, heads, capacities = _random_chain_network(rng, count, length)
        reachable, value = certified_cut(nodes, tails, heads, capacities, (count, length))
        assert (value, reachable) == _networkx_minimal_side(nodes, tails, heads, capacities)

    def test_hostile_instances(self):
        for k, inst in enumerate(networkx_probe_instances()):
            clamped = clamp_capacities(build_network(inst))
            network = clamped.network
            value, side = _networkx_minimal_side(
                network.node_count, network.tails, network.heads, clamped.capacities
            )
            cut = min_cut(clamped)
            assert cut.value == Fraction(value, clamped.scale), f"instance {k}"
            assert cut.reachable == side, f"instance {k}"

    def test_minimal_closure_on_cyclic_and_dense_pairs(self):
        rng = random.Random(12)
        for k in range(80):
            n = rng.randint(1, 8)
            weights = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 2**64 + 1]))
                       for _ in range(n)]
            density = rng.choice([0.1, 0.3, 0.8])
            pairs = [(a, b) for a in range(n) for b in range(n)
                     if a != b and rng.random() < density]
            scaled, _ = scale_to_integers(weights)
            tails = [0 if w < 0 else i for i, w in enumerate(scaled, 2)]
            heads = [i if w < 0 else 1 for i, w in enumerate(scaled, 2)]
            capacities = [abs(w) for w in scaled]
            tails += [b + 2 for _, b in pairs]
            heads += [a + 2 for a, _ in pairs]
            capacities += [1 - sum(w for w in scaled if w < 0)] * len(pairs)
            _, side = _networkx_minimal_side(n + 2, tails, heads, capacities)
            assert minimal_closure(scaled, pairs) == side[2:], f"case {k}"

    def test_claim_groups(self):
        # Each component's types in search order, with its claims in order.
        groups = claim_groups(6, [(1, 3), (4, 1), (5, 0)])
        assert groups == [([0, 5], [(5, 0)]), ([1, 3, 4], [(1, 3), (4, 1)])]
        groups = claim_groups(5, [(0, 3), (2, 3), (4, 1)])
        assert groups == [([0, 3, 2], [(0, 3), (2, 3)]), ([1, 4], [(4, 1)])]
        assert claim_groups(3, []) == []

    def test_overfull_seed_is_refused(self, monkeypatch):
        original = FlowGraph.seed_chains

        def overseed(graph, count, length):
            total = original(graph, count, length)
            for eid in range(0, 2 * count * length, 2):  # one unit more per chain
                graph.cap[eid] -= 1
                graph.cap[eid + 1] += 1
            return total + count

        monkeypatch.setattr(FlowGraph, "seed_chains", overseed)
        clamped = clamp_capacities(build_network(two_way_instance()))
        with pytest.raises(SelfCheckError, match="infeasible"):
            min_cut(clamped)

    def test_overfull_claim_path_seed_is_refused(self, monkeypatch):
        original = FlowGraph.seed_paths

        def overseed(graph, paths):
            total = original(graph, paths)
            for eid in paths[0]:  # one unit past the first path's bottleneck
                graph.cap[eid] -= 1
                graph.cap[eid ^ 1] += 1
            return total + 1

        monkeypatch.setattr(FlowGraph, "seed_paths", overseed)
        clamped = clamp_capacities(build_network(two_way_instance()))
        with pytest.raises(SelfCheckError, match="infeasible"):
            min_cut(clamped)

    def test_wrongly_skipped_component_is_caught(self, monkeypatch):
        # Type 1 may claim type 2 and type 0 type 1.  The seeds leave an
        # augmenting path across two imitation arcs, from type 2's chain
        # through type 1's into type 0's, which only Dinic finds.  Types 3
        # and 4 form a second component with a claim the seed keeps.
        instance = Instance(
            outcomes=OutcomeSpace([1, 2, 3]),
            relation=ReportingRelation(
                5, [(i, i) for i in range(5)] + [(1, 2), (0, 1), (3, 4)]
            ),
            costs=CostMatrix([[1, 9, 9], [1, 1, 1], [9, 9, 1], [4, 2, 7], [1, 5, 3]]),
        )
        clamped = clamp_capacities(build_network(instance))
        assert min_cut(clamped).value == 11 + 3
        original = mincut.conflicted_groups

        def drop_first(count, claims, tops):
            settled, groups = original(count, claims, tops)
            return settled, groups[1:]  # its types stay unsettled

        monkeypatch.setattr(mincut, "conflicted_groups", drop_first)
        with pytest.raises(SelfCheckError, match="type 0 has no chain node"):
            solve_deterministic(instance)


def _block_instance(rng):
    """Rational costs and a transitive block relation: each block of up to
    six types is cyclic (every member claims every other) or a chain (each
    member claims every member before it)."""
    n, m = rng.randint(1, 40), rng.randint(1, 8)
    rows = []
    for _ in range(n):
        q = rng.randint(1, 12)
        rows.append([Fraction(rng.randint(0, 20 * q), q) for _ in range(m)])
    pairs = [(i, i) for i in range(n)]
    start = 0
    while start < n:
        block = range(start, min(n, start + rng.randint(1, 6)))
        cyclic = rng.random() < 0.25
        pairs += [(a, b) for a in block for b in block if a != b and (cyclic or b < a)]
        start = block.stop
    return Instance(OutcomeSpace(range(m)), ReportingRelation(n, pairs), CostMatrix(rows))


class TestOneHopSeeds:
    """Where the one-hop paths already make the flow maximum, Dinic only
    proves it: one level search per group and no blocking-flow phase."""

    @pytest.fixture
    def no_phase(self, monkeypatch):
        def refuse(graph, *args):
            raise AssertionError("a blocking-flow phase ran")

        monkeypatch.setattr(FlowGraph, "_blocking_flow", refuse)

    def test_two_type_component(self, monkeypatch, no_phase):
        # A one-way claim between two types is a tree: messages cut it, and
        # a flow graph is built only for a conflicted pair with no finite
        # mechanism.
        sizes = _built_graphs(monkeypatch)
        assert min_cut(clamp_capacities(build_network(conflicted_instance()))).value == 10
        assert sizes == []
        fallbacks = 0
        for seed in range(200):
            rng = random.Random(seed)
            m = rng.randint(1, 6)
            rows = [[Cost.infinite() if rng.random() < 0.15 else rng.randint(0, 9)
                     for _ in range(m)] for _ in range(2)]
            instance = Instance(
                OutcomeSpace(range(m)),
                ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
                CostMatrix(rows),
            )
            del sizes[:]
            finite = solve_deterministic(instance).cost.is_finite  # every check still runs
            tops = _seed_tops(instance.costs.scaled)
            fallback = not finite and tops[0] < tops[1]
            fallbacks += fallback
            assert sizes == ([2 + 2 * m] if fallback else []), seed
        assert fallbacks > 0

    def test_closure_cuts_of_transitive_blocks(self, no_phase):
        for seed in range(60):
            assert solve_randomized(_block_instance(random.Random(seed))).mechanism is not None


class TestClaimPathLevels:
    """Right after the chain seeds, a claim path through a level at or below
    the claimant's last row minimum (any level of an all-infinite row)
    crosses an arc the seed saturated, and would push nothing."""

    def test_no_claim_path_at_a_tied_level(self, monkeypatch):
        original, built = FlowGraph.seed_paths, []

        def checked(graph, paths):
            assert all(graph.cap[eid] > 0 for path in paths for eid in path)
            built.extend(paths)
            return original(graph, paths)

        monkeypatch.setattr(FlowGraph, "seed_paths", checked)
        for seed in range(12):
            solve_deterministic(_two_way_sparse_instance(seed))  # every certificate still checked
        assert len(built) > 300


def _seed_tops(rows):
    """Each seeded chain's top level: its row's lowest argmin, or -1 for an
    all-infinite row."""
    tops = []
    for row in rows:
        finite = [c for c in row if c is not None]
        tops.append(row.index(min(finite)) if finite else -1)
    return tops


def _settling_instance(rng):
    """Types in blocks of one to three: lone types, blocks whose claims all
    hold at the seeded chains and blocks with a claim that does not.  Row
    entries tie often, some rows are entirely infinite, and some seeds use
    cost denominators above 2**63."""
    n, m = rng.randint(1, 9), rng.randint(1, 4)
    denominators = [1, 2] if rng.random() < 0.7 else [2**63 + 1, 2**64 - 3]
    rows = []
    for _ in range(n):
        dead = rng.random() < 0.15
        rows.append([
            None if dead or rng.random() < 0.15
            else Fraction(rng.randint(0, 3), rng.choice(denominators))
            for _ in range(m)
        ])
    tops = _seed_tops(rows)
    pairs = [(i, i) for i in range(n)]
    start = 0
    while start < n:
        block = range(start, min(n, start + rng.randint(1, 3)))
        kind = rng.choice(["lone", "free", "any"])
        claims = [(a, b) for a in block for b in block if a != b and rng.random() < 0.6]
        if kind == "free":
            claims = [(a, b) for a, b in claims if tops[a] >= tops[b]]
        if kind != "lone":
            pairs += claims
        start = block.stop
    costs = CostMatrix([[Cost.infinite() if c is None else c for c in row] for row in rows])
    return Instance(OutcomeSpace(range(1, m + 1)), ReportingRelation(n, pairs), costs)


class TestSettledComponents:
    """Types the seeded chains settle never reach the flow graph, and the
    cut is still the one a maximum flow of the whole network leaves."""

    def test_against_networkx(self):
        seen = {"lone": 0, "free": 0, "conflicted": 0, "dead": set(), "n1": 0, "m1": 0}
        for seed in range(300):
            inst = _settling_instance(random.Random(seed))
            clamped = clamp_capacities(build_network(inst))
            network = clamped.network
            value, side = _networkx_minimal_side(
                network.node_count, network.tails, network.heads, clamped.capacities
            )
            cut = min_cut(clamped)
            assert (cut.value, cut.reachable) == (Fraction(value, clamped.scale), side), seed
            rows, claims = inst.costs.scaled, inst.relation.claims
            settled, _ = mincut.conflicted_groups(len(rows), claims, _seed_tops(rows))
            touched = {i for pair in claims for i in pair}
            kinds = {}
            for group, _ in claim_groups(len(rows), claims):
                kind = "free" if settled[group[0]] else "conflicted"
                seen[kind] += 1
                kinds.update(dict.fromkeys(group, kind))
            for i, row in enumerate(rows):
                seen["lone"] += i not in touched
                if row.count(None) == len(row):
                    seen["dead"].add(kinds.get(i, "lone"))
            seen["n1"] += len(rows) == 1
            seen["m1"] += inst.outcome_count == 1
        assert min(seen["lone"], seen["free"], seen["conflicted"], seen["n1"], seen["m1"]) > 0
        assert seen["dead"] == {"lone", "free", "conflicted"}

    def test_settled_instance_never_reaches_the_flow_graph(self, monkeypatch):
        def refuse(graph, source, sink):
            raise AssertionError("max_flow called on a settled instance")

        monkeypatch.setattr(FlowGraph, "max_flow", refuse)
        cut = min_cut(clamp_capacities(build_network(chain_instance())))
        # Type 0 keeps levels 0-1 and type 1 level 0: the cut of cost 2 + 1.
        side = [True, False, True, True, False, True, False, False]
        assert cut == mincut.CutResult(side, Fraction(3), 1)

    def test_settled_violated_claim_is_refused(self, monkeypatch):
        # Both components violate their claim at the seed; the patched
        # decision settles the first one anyway.
        instance = Instance(
            outcomes=OutcomeSpace([1, 2, 3]),
            relation=ReportingRelation(4, [(i, i) for i in range(4)] + [(0, 1), (2, 3)]),
            costs=CostMatrix([[1, 9, 9], [9, 9, 1], [1, 9, 9], [9, 9, 1]]),
        )
        assert solve_deterministic(instance).cost == Cost(20)
        original = mincut.conflicted_groups

        def skip_first(count, claims, tops):
            settled, groups = original(count, claims, tops)
            for i in groups[0][0]:
                settled[i] = True
            return settled, groups[1:]

        monkeypatch.setattr(mincut, "conflicted_groups", skip_first)
        with pytest.raises(SelfCheckError, match="imitation arc crosses"):
            solve_deterministic(instance)


def _recording(monkeypatch):
    """Patch ``FlowGraph.max_flow`` to keep every graph it runs on."""
    graphs, original = [], FlowGraph.max_flow

    def recorded(graph, source, sink):
        graphs.append(graph)
        return original(graph, source, sink)

    monkeypatch.setattr(FlowGraph, "max_flow", recorded)
    return graphs


def _chain_parts(rng, count, length, tails, heads, split):
    """The chains of a ``_random_chain_network`` in the parts that get a
    flow graph each: the whole network in index order (``none``), or, each
    in a random order, one per weakly connected component of the links
    (``all``) or one per component that holds a link and one for the
    unlinked chains (``linked``)."""
    if split == "none":
        return [list(range(count))]
    inner, owner = length - 1, list(range(count))
    linked = set()
    for tail, head in zip(tails[count * length :], heads[count * length :]):
        a, b = (tail - 2) // inner, (head - 2) // inner
        linked |= {a, b}
        old, new = owner[a], owner[b]
        owner = [new if o == old else o for o in owner]
    if split == "linked":
        owner = [o if c in linked else -1 for c, o in enumerate(owner)]
    parts = {}
    for c, o in enumerate(owner):
        parts.setdefault(o, []).append(c)
    return [rng.sample(part, len(part)) for part in parts.values()]


class TestRecordedSourceSide:
    """``certified_cut`` reads its mask off Dinic's last search; it must be
    the residual search's mask and networkx's minimal side, however the
    chains are split into flow graphs of their own."""

    @pytest.mark.parametrize("split", ["none", "all", "linked"])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_chain_networks(self, monkeypatch, seed, split):
        rng = random.Random(7000 + seed)
        count, length = rng.randint(1, 7), rng.randint(2, 5)
        nodes, tails, heads, capacities = _random_chain_network(rng, count, length)
        inner, links = length - 1, range(count * length, len(tails))
        graphs = _recording(monkeypatch)
        reachable, value = [True] + [False] * (nodes - 1), 0
        for part in _chain_parts(rng, count, length, tails, heads, split):
            # Chain c's nodes and arcs are the part's k-th on local numbers.
            local = {0: 0, 1: 1}
            for k, c in enumerate(part):
                local |= {2 + c * inner + r: 2 + k * inner + r for r in range(inner)}
            arcs = [a for c in part for a in range(c * length, (c + 1) * length)]
            arcs += [a for a in links if tails[a] in local]
            side, flow = certified_cut(
                2 + len(part) * inner, [local[tails[a]] for a in arcs],
                [local[heads[a]] for a in arcs], [capacities[a] for a in arcs],
                (len(part), length),
            )
            for k, c in enumerate(part):
                chain = side[2 + k * inner : 2 + (k + 1) * inner]
                reachable[2 + c * inner : 2 + (c + 1) * inner] = chain
            value += flow
        for graph in graphs:
            assert graph.source_side == graph.residual_source_side(mincut.SOURCE)
        if split == "none":
            (graph,) = graphs
            assert reachable == graph.residual_source_side(mincut.SOURCE)
        assert (value, reachable) == _networkx_minimal_side(nodes, tails, heads, capacities)

    def test_min_cut_sizes_the_graph_by_the_kept_types(self, monkeypatch):
        def refuse(graph, source):
            raise AssertionError("min_cut ran a second residual search")

        sizes = _built_graphs(monkeypatch)
        monkeypatch.setattr(FlowGraph, "residual_source_side", refuse)
        for seed in range(6):
            instance = _two_way_sparse_instance(seed)
            components = _dinic_components(instance.costs.scaled, instance.relation.claims)
            del sizes[:]
            solve_deterministic(instance)  # every certificate still checked
            assert 0 < sum(map(len, components)) < 200
            assert sorted(sizes) == sorted(2 + 5 * len(component) for component in components)


def _seed_lasts(rows):
    """Each row's last argmin, or its top level for an all-infinite row."""
    lasts = []
    for row in rows:
        finite = [c for c in row if c is not None]
        low = min(finite, default=None)
        lasts.append(len(row) - 1 - row[::-1].index(low) if finite else len(row) - 1)
    return lasts


def _conflicted_components(rows, claims):
    """The claim components, as sets of types, that hold a claim ``(a, b)``
    the seeded chains violate, ``tops[a] < tops[b]``, found by networkx."""
    tops = _seed_tops(rows)
    violated = {a for a, b in claims if tops[a] < tops[b]}
    components = nx.connected_components(nx.Graph(claims))
    return [component for component in components if violated & component]


def _finite_truthful(rows, types, claims):
    """Whether some levels of ``types`` keep every claim ``(a, b)`` at
    ``x_a >= x_b`` on finite entries: lift each level to its row's next
    finite entry and each claimant to its claimed type's level until
    nothing moves (the least such levels, if any)."""
    levels = dict.fromkeys(types, 0)
    while True:
        for i in types:
            finite = [j for j in range(levels[i], len(rows[i])) if rows[i][j] is not None]
            if not finite:
                return False
            levels[i] = finite[0]
        raised = [(a, b) for a, b in claims if levels[a] < levels[b]]
        if not raised:
            return True
        for a, b in raised:
            levels[a] = max(levels[a], levels[b])


def _dinic_components(rows, claims):
    """The conflicted components that reach Dinic: those with a cycle or a
    two-way claim (no fewer claims than types), and trees with no finite
    truthful levels."""
    components = []
    for component in _conflicted_components(rows, claims):
        inside = [(a, b) for a, b in claims if a in component]
        if len(inside) >= len(component) or not _finite_truthful(rows, component, inside):
            components.append(component)
    return components


def _two_way_sparse_instance(seed):
    """det-sparse's shape at n=200, every third claim made two-way, so that
    many conflicted components reach Dinic."""
    instance = random_instance(
        seed=seed, type_count=200, outcome_count=5, edge_density=0.0025, infinity_rate=0.05,
    )
    pairs = instance.relation.pairs | {(b, a) for a, b in instance.relation.claims[::3]}
    return Instance(instance.outcomes, ReportingRelation(200, pairs), instance.costs)


def _minima_instance(rng):
    """``det_sparse``'s shape, small: rows whose least entry sits first, in
    the middle or last, often tied, some all-infinite; claim-free types and
    two-way claims.  About one instance in four also gets dense cyclic
    blocks of 2 to 8 types drawn in random order, every member claiming
    every other; returns the instance and those blocks."""
    n, m = rng.randint(1, 60), rng.randint(1, 6)
    infinity_rate = rng.choice([0, 0.1, 0.3])
    rows = []
    for _ in range(n):
        if rng.random() < 0.08:
            rows.append([None] * m)
            continue
        row = [None if rng.random() < infinity_rate else rng.randint(1, 9) for _ in range(m)]
        place = rng.choice([0, m // 2, m - 1])
        low = rng.randint(0, 3)
        row[place] = low
        for j in range(m):  # a tie somewhere else, now and then
            if j != place and row[j] is not None and rng.random() < 0.25:
                row[j] = low
            elif row[j] is not None and row[j] < low:
                row[j] = low + 1
        rows.append(row)
    pairs = {(i, i) for i in range(n)}
    for _ in range(round(0.5 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        pairs |= {(a, b), (b, a)} if rng.random() < 0.3 else {(a, b)}
    blocks = []
    if n > 1 and rng.random() < 0.25:
        order = rng.sample(range(n), n)
        while len(order) > 1 and rng.random() < 0.8:
            size = rng.randint(2, min(8, len(order)))
            block, order = order[:size], order[size:]
            pairs |= {(a, b) for a in block for b in block}
            blocks.append(block)
    costs = CostMatrix([[Cost.infinite() if c is None else c for c in row] for row in rows])
    instance = Instance(OutcomeSpace(range(m)), ReportingRelation(n, sorted(pairs)), costs)
    return instance, blocks


class TestRowMinimaAndWriteBack:
    """The one-pass row minima (least entry, first and last place) and the
    write-back of each component's flow graph mask, on local numbers in
    search order, onto the global nodes."""

    def test_against_networkx(self, monkeypatch):
        paths = []
        original = FlowGraph.seed_paths

        def counted(graph, batch):
            paths.append(len(batch))
            return original(graph, batch)

        monkeypatch.setattr(FlowGraph, "seed_paths", counted)
        seen = {"first": 0, "middle": 0, "last": 0, "tied": 0, "dead": 0,
                "free types": 0, "two-way": 0, "m1": 0, "kept": 0, "cyclic": 0,
                "two or more conflicted": 0, "out of index order": 0,
                "cut by Dinic": 0, "cut by messages": 0}
        for seed in range(150):
            inst, blocks = _minima_instance(random.Random(seed))
            clamped = clamp_capacities(build_network(inst))
            network = clamped.network
            value, side = _networkx_minimal_side(
                network.node_count, network.tails, network.heads, clamped.capacities
            )
            del paths[:]
            cut = min_cut(clamped)
            assert (cut.value, cut.reachable) == (Fraction(value, clamped.scale), side), seed
            # One claim path per level above the claimant's last row minimum
            # up to the claimed type's first.
            rows, claims = inst.costs.scaled, inst.relation.claims
            components = _conflicted_components(rows, claims)
            kept = set().union(*components)
            cut_by_dinic = set().union(*_dinic_components(rows, claims))
            tops, lasts = _seed_tops(rows), _seed_lasts(rows)
            expected = sum(max(0, tops[b] - lasts[a]) for a, b in claims if a in cut_by_dinic)
            assert sum(paths) == expected, seed
            m = inst.outcome_count
            for row, top, last in zip(rows, tops, lasts):
                if top < 0:
                    seen["dead"] += 1
                else:
                    seen[["first", "middle", "last"][(top > 0) + (top == m - 1 and m > 1)]] += 1
                    seen["tied"] += last > top
            touched = {i for pair in claims for i in pair}
            seen["free types"] += len(rows) - len(touched)
            seen["two-way"] += len(set(claims) & {(b, a) for a, b in claims})
            seen["m1"] += m == 1
            seen["kept"] += len(kept)
            seen["cut by Dinic"] += len(cut_by_dinic)
            seen["cut by messages"] += len(kept - cut_by_dinic)
            seen["cyclic"] += sum(set(block) <= kept for block in blocks)
            seen["two or more conflicted"] += len(components) >= 2
            _, groups = mincut.conflicted_groups(len(rows), claims, tops)
            seen["out of index order"] += sum(group != sorted(group) for group, _ in groups)
        assert min(seen.values()) > 0, seen


def _forest_instance(rng):
    """Claims that form a forest over shuffled types: each type joins an
    earlier one by a claim either way, or starts a tree of its own.  Costs 0
    to 2, so optima tie, with 15% infinite entries and some rows all
    infinite."""
    n, m = rng.randint(1, 12), rng.randint(1, 4)
    label = rng.sample(range(n), n)
    pairs = [(i, i) for i in range(n)]
    for k in range(1, n):
        if rng.random() < 0.85:
            joined = [label[k], label[rng.randrange(k)]]
            pairs.append(tuple(joined if rng.random() < 0.5 else joined[::-1]))
    rows = [
        [Cost.infinite() if dead or rng.random() < 0.15 else rng.randint(0, 2) for _ in range(m)]
        for dead in (rng.random() < 0.05 for _ in range(n))
    ]
    return Instance(OutcomeSpace(range(m)), ReportingRelation(n, pairs), CostMatrix(rows))


def _tamper_messages(monkeypatch, change):
    """Patch ``tree_messages`` to hand its levels, profiles and entry values
    to ``change`` before the check reads them."""
    original = mincut.tree_messages

    def tampered(costs, claims, clamp):
        certificate = original(costs, claims, clamp)
        change(*certificate)
        return certificate

    monkeypatch.setattr(mincut, "tree_messages", tampered)


def _lift_first_profile_entry(levels, profiles, entries):
    profiles[0][0] += 1


def _lift_top_profile_entry(levels, profiles, entries):
    profiles[0][-1] += 7


def _lower_root_entry(levels, profiles, entries):
    entries[0] -= 1


def _lift_middle_profile_entry(levels, profiles, entries):
    profiles[0][1] += 1


def _swap_levels(levels, profiles, entries):
    levels.reverse()


class TestTreeCut:
    """Claim components that are trees are cut by min-plus messages, which a
    dual certificate checks; no flow graph is built for them."""

    def test_tree_instance_by_hand(self):
        clamped = clamp_capacities(build_network(tree_instance()))
        costs, clamp = [list(row) for row in clamped.network.costs.scaled], 45
        assert clamped.clamp_value == clamp
        # Type 1 sends its prefix minima [2, 2, 0]: entry 2 and profile
        # [0, 0, 2]; type 0's row becomes [5, 1, 7], least at level 1.
        certificate = mincut.tree_messages(costs, [(0, 1)], clamp)
        assert certificate == ([1, 0], [[0, 0, 2]], [1, 2])
        assert mincut.check_tree_certificate(costs, [(0, 1)], *certificate) == 3
        assert mincut.tree_messages(costs, [(0, 1)], 3) is None
        assert solve_deterministic(tree_instance()).mechanism.assignment == (1, 0)

    @pytest.mark.parametrize(
        "change, message",
        [
            (_lift_first_profile_entry, r"claim \(0, 1\)'s profile decreases"),
            (_lift_top_profile_entry, "tree type 0's residual is negative"),
            (_lower_root_entry, "tree type 0's residual is 1 at its level 1"),
            (_lift_middle_profile_entry, r"claim \(0, 1\) is not tight at levels 1, 0"),
            (_swap_levels, r"claim \(0, 1\) is not tight at levels 0, 1"),
        ],
    )
    def test_tampered_certificate_is_refused(self, monkeypatch, change, message):
        _tamper_messages(monkeypatch, change)
        with pytest.raises(SelfCheckError, match=message):
            min_cut(clamp_capacities(build_network(tree_instance())))

    def test_only_components_with_a_cycle_or_two_way_claim_build_a_flow_graph(self, monkeypatch):
        sizes = _built_graphs(monkeypatch)
        assert min_cut(clamp_capacities(build_network(tree_instance()))).value == 3
        assert sizes == []
        assert min_cut(clamp_capacities(build_network(two_way_instance()))).value == 10
        assert sizes == [2 + 2 * 3]
        triangle = Instance(  # 0 claims 1 and 2, 1 claims 2: a cycle, not a directed one
            outcomes=OutcomeSpace([1, 2, 3]),
            relation=ReportingRelation(3, [(i, i) for i in range(3)] + [(0, 1), (0, 2), (1, 2)]),
            costs=CostMatrix([[1, 9, 9], [9, 1, 9], [9, 9, 1]]),
        )
        assert solve_deterministic(triangle).cost == Cost(19)
        assert sizes == [2 + 2 * 3, 2 + 3 * 3]

    def test_random_forests_against_networkx(self, monkeypatch):
        sizes = _built_graphs(monkeypatch)
        seen = {"parent claims": 0, "child claims": 0, "tied": 0, "infinite": 0, "dead": 0,
                "m1": 0, "by messages": 0, "fallback": 0}
        for seed in range(600):
            inst = _forest_instance(random.Random(seed))
            clamped = clamp_capacities(build_network(inst))
            network = clamped.network
            value, side = _networkx_minimal_side(
                network.node_count, network.tails, network.heads, clamped.capacities
            )
            del sizes[:]
            cut = min_cut(clamped)
            assert (cut.value, cut.reachable) == (Fraction(value, clamped.scale), side), seed
            rows, claims, m = inst.costs.scaled, inst.relation.claims, inst.outcome_count
            fallbacks = _dinic_components(rows, claims)
            assert sorted(sizes) == sorted(2 + m * len(c) for c in fallbacks), seed
            seen["fallback"] += len(fallbacks)
            seen["m1"] += m == 1 and bool(fallbacks)
            seen["dead"] += sum(row.count(None) == m for c in fallbacks for row in map(rows.__getitem__, c))
            trees = [c for c in _conflicted_components(rows, claims) if c not in fallbacks]
            seen["by messages"] += len(trees)
            for group, _ in claim_groups(len(rows), claims):
                if set(group) in trees:
                    place = {i: k for k, i in enumerate(group)}
                    inside = [(a, b) for a, b in claims if a in place]
                    seen["parent claims"] += sum(place[a] < place[b] for a, b in inside)
                    seen["child claims"] += sum(place[a] > place[b] for a, b in inside)
                    tree_rows = [rows[i] for i in group]
                    seen["infinite"] += sum(None in row for row in tree_rows)
                    seen["tied"] += sum(
                        row.count(min(c for c in row if c is not None)) > 1 for row in tree_rows
                    )
        assert min(seen.values()) > 0, seen

    def test_matches_dinic_at_scale(self, monkeypatch):
        # det-sparse's shape (mdbench/gen.py) at n=20000: integer costs up to
        # 20, 5% infinite, n/2 distinct random claims.
        rng, n, m = random.Random(25), 20000, 5
        rows = [[Cost.infinite() if rng.random() < 0.05 else rng.randint(0, 20) for _ in range(m)]
                for _ in range(n)]
        claims = set()
        while len(claims) < n // 2:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                claims.add((a, b))
        relation = ReportingRelation(n, [(i, i) for i in range(n)] + sorted(claims))
        clamped = clamp_capacities(build_network(Instance(OutcomeSpace(range(m)), relation,
                                                          CostMatrix(rows))))
        original, by_messages = mincut.tree_messages, []

        def counted(costs, claims, clamp):
            certificate = original(costs, claims, clamp)
            by_messages.append(certificate is not None)
            return certificate

        monkeypatch.setattr(mincut, "tree_messages", counted)
        sizes = _built_graphs(monkeypatch)
        cut = min_cut(clamped)
        assert sum(by_messages) > 1000 and sizes
        monkeypatch.setattr(mincut, "tree_messages", lambda costs, claims, clamp: None)
        deferred = min_cut(clamped)
        assert (cut.value, cut.reachable) == (deferred.value, deferred.reachable)


class TestCutMaskChecks:
    """``extract_mechanism`` and the shape check read chain slices of the
    reachable mask; a mask that no minimum cut leaves is refused."""

    @staticmethod
    def tampered(change):
        clamped = clamp_capacities(build_network(chain_instance()))
        cut = min_cut(clamped)
        reachable = list(cut.reachable)
        change(reachable)
        return mincut.CutResult(reachable, cut.value, cut.scale), clamped

    def test_untampered_mask_passes(self):
        cut, clamped = self.tampered(lambda side: None)
        assert extract_mechanism(cut, clamped).assignment == (1, 0)
        mincut._check_cut_shape(cut, clamped)

    def test_chain_with_no_level_inside(self):
        def empty_chain(side):
            for j in range(3):
                side[grid_node(1, j, 3)] = False

        cut, clamped = self.tampered(empty_chain)
        with pytest.raises(SelfCheckError, match="type 1 has no chain node"):
            extract_mechanism(cut, clamped)

    def test_chain_not_downward_closed(self):
        def gap(side):
            side[grid_node(1, 0, 3)] = False
            side[grid_node(1, 1, 3)] = True

        cut, clamped = self.tampered(gap)
        with pytest.raises(SelfCheckError, match="not downward closed on chain 1"):
            mincut._check_cut_shape(cut, clamped)

    def test_imitation_arc_crossing(self):
        def lift_claimed(side):  # type 1 above type 0, which may claim it
            side[grid_node(1, 1, 3)] = side[grid_node(1, 2, 3)] = True
            side[grid_node(0, 2, 3)] = False

        cut, clamped = self.tampered(lift_claimed)
        with pytest.raises(SelfCheckError, match="imitation arc crosses"):
            mincut._check_cut_shape(cut, clamped)


class TestDotOutput:
    def test_renders_digraph_with_cut(self):
        clamped = clamp_capacities(build_network(chain_instance()))
        cut = min_cut(clamped)
        text = network_to_dot(clamped, cut)
        assert text.startswith("digraph")
        assert "->" in text
        plain = network_to_dot(clamped)
        assert plain.startswith("digraph")
