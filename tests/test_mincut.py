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
    transitive_closure,
)
from mechdesign.maxflow import FlowGraph
from mechdesign.mincut import grid_node


def chain_instance():
    """Two types, type 0 can claim type 1; optimum is (o_2, o_1) at cost 3."""
    return Instance(
        outcomes=OutcomeSpace([1, 2, 3]),
        relation=ReportingRelation(2, [(0, 0), (1, 1), (0, 1)]),
        costs=CostMatrix([[4, 2, 7], [1, 5, 3]]),
    )


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
                assert net.costs[i][j] == entry

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
                assert cost_deterministic(sol.mechanism, inst, "truthful") == expect_cost
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
                if cost_deterministic(
                    type(sol.mechanism)(a), inst, "truthful"
                ) == sol.cost
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
    entries = iter(cost for row in net.costs for cost in row)
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
    """``min_cut`` checks the flow Dinic leaves behind, not just its value."""

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
        clamped = clamp_capacities(build_network(chain_instance()))
        with pytest.raises(SelfCheckError, match=message):
            min_cut(clamped)


class TestDotOutput:
    def test_renders_digraph_with_cut(self):
        clamped = clamp_capacities(build_network(chain_instance()))
        cut = min_cut(clamped)
        text = network_to_dot(clamped, cut)
        assert text.startswith("digraph")
        assert "->" in text
        plain = network_to_dot(clamped)
        assert plain.startswith("digraph")
