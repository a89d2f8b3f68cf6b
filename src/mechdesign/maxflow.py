"""Integer max-flow via Dinic's algorithm, one connected component at a time.

Capacities are Python ints (arbitrary precision), so the computation is
exact and always terminates: every augmentation moves at least one unit.
Callers holding rational capacities scale them to integers first.

Decomposition: remove the source and the sink and split the other nodes
into weakly connected components.  A simple augmenting path leaves the
source once and stops at the sink, so every node between lies in one
component, and pushing flow along it changes residual capacities only
inside that component and on its source and sink edges.  Flows in
different components therefore never interact: saturating each component
in turn (Dinic phases whose search starts from that component's source
edges only) leaves no augmenting path in the whole graph.  The result is a
maximum flow like any other, so the residual-reachable set is still the
inclusion-minimal minimum-cut source side, while each phase's search and
reset touch one component instead of every node.
"""

from __future__ import annotations


class FlowGraph:
    """Adjacency-list flow network with paired forward/backward edges."""

    def __init__(self, node_count: int):
        self.node_count = node_count
        self.head: list[list[int]] = [[] for _ in range(node_count)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge and its zero-capacity reverse; returns the
        forward edge id (reverse id is ``id ^ 1``)."""
        return self.add_edges([u], [v], [capacity])

    def add_edges(self, tails: list[int], heads: list[int], capacities: list[int]) -> int:
        """``add_edge`` for each arc of the parallel arrays, in order, filling
        ``to`` and ``cap`` by slice; returns the first forward edge id."""
        if min(capacities, default=0) < 0:
            raise ValueError("capacity must be nonnegative")
        first, to, cap, head = len(self.to), self.to, self.cap, self.head
        to += [0] * (2 * len(tails))
        to[first::2], to[first + 1 :: 2] = heads, tails
        cap += [0] * (2 * len(tails))
        cap[first::2] = capacities
        for eid, u, v in zip(range(first, len(to), 2), tails, heads):
            head[u].append(eid)
            head[v].append(eid + 1)
        return first

    def _source_groups(self, source: int, sink: int) -> list[list[int]]:
        """The source's edges grouped by the weakly connected component,
        source and sink removed, that their heads lie in.  ``head[u]`` holds
        the reverse of every edge into ``u``, so it lists all neighbours."""
        head, to = self.head, self.to
        component = [-1] * self.node_count
        component[source] = source
        component[sink] = sink
        groups: dict[int, list[int]] = {}
        for eid in head[source]:
            root = to[eid]
            if component[root] < 0:
                component[root] = root
                stack = [root]
                while stack:
                    for e in head[stack.pop()]:
                        v = to[e]
                        if component[v] < 0:
                            component[v] = root
                            stack.append(v)
            groups.setdefault(component[root], []).append(eid)
        return list(groups.values())

    def _levels(
        self, source: int, sink: int, group: list[int], level: list[int]
    ) -> list[int]:
        """Label BFS levels from the source through ``group``'s edges without
        expanding the sink; returns the labelled nodes in visiting order."""
        head, to, cap = self.head, self.to, self.cap
        level[source] = 0
        queue = [source]
        for u in queue:  # the loop also visits the nodes it appends
            if u == sink:
                continue
            next_level = level[u] + 1
            for eid in group if u == source else head[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        return queue

    def _blocking_flow(
        self,
        source: int,
        sink: int,
        group: list[int],
        level: list[int],
        iter_index: list[int],
    ) -> int:
        """Iterative DFS sending flow along level-increasing edges, leaving
        the source through ``group`` only.

        Dead-end nodes get their level cleared, so parent iterators skip
        them naturally on the next advance; no recursion, arbitrary depth.
        """
        head, to, cap = self.head, self.to, self.cap
        total = 0
        path: list[int] = []  # edge ids along the current partial path
        u = source
        while True:
            if u == sink:
                pushed = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= pushed
                    cap[eid ^ 1] += pushed
                total += pushed
                # Retreat to just before the first saturated edge; its
                # owner's iterator will skip it (capacity now zero).
                for k, eid in enumerate(path):
                    if cap[eid] == 0:
                        del path[k:]
                        u = source if k == 0 else to[path[-1]]
                        break
                continue
            advanced = False
            edges = group if u == source else head[u]
            i = iter_index[u]
            next_level = level[u] + 1
            while i < len(edges):
                eid = edges[i]
                v = to[eid]
                if cap[eid] > 0 and level[v] == next_level:
                    path.append(eid)
                    advanced = True
                    break
                i += 1
            iter_index[u] = i
            if advanced:
                u = v
                continue
            if u == source:
                return total
            # Dead end: seal this node for the phase and back up one edge.
            level[u] = -1
            path.pop()
            u = source if not path else to[path[-1]]

    def max_flow(self, source: int, sink: int) -> int:
        """Push a maximum flow, left in the residual capacities, and return
        its value; Dinic runs one component at a time (module docstring)."""
        level = [-1] * self.node_count
        iter_index = [0] * self.node_count
        total = 0
        for group in self._source_groups(source, sink):
            reached = True
            while reached:
                touched = self._levels(source, sink, group, level)
                reached = level[sink] >= 0
                if reached:
                    total += self._blocking_flow(
                        source, sink, group, level, iter_index
                    )
                for v in touched:
                    level[v] = -1
                    iter_index[v] = 0
        return total

    def residual_source_side(self, source: int) -> list[bool]:
        """Nodes reachable from the source in the residual graph: the
        canonical (inclusion-minimal) minimum-cut source side."""
        head, to, cap = self.head, self.to, self.cap
        seen = [False] * self.node_count
        seen[source] = True
        queue = [source]
        for u in queue:  # the loop also visits the nodes it appends
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen
