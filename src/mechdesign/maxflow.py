"""Integer max-flow via Dinic's algorithm.

Capacities are Python ints (arbitrary precision), so the computation is
exact and always terminates: every augmentation moves at least one unit.
Callers holding rational capacities scale them to integers first.
"""

from __future__ import annotations

from collections import deque


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
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def _levels(self, source: int, sink: int) -> list[int] | None:
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.node_count
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[sink] >= 0 else None

    def _blocking_flow(self, source: int, sink: int, level: list[int]) -> int:
        """Iterative DFS sending flow along level-increasing edges.

        Dead-end nodes get their level cleared, so parent iterators skip
        them naturally on the next advance; no recursion, arbitrary depth.
        """
        head, to, cap = self.head, self.to, self.cap
        total = 0
        iter_index = [0] * self.node_count
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
            edges = head[u]
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
        total = 0
        while True:
            level = self._levels(source, sink)
            if level is None:
                return total
            total += self._blocking_flow(source, sink, level)

    def residual_source_side(self, source: int) -> list[bool]:
        """Nodes reachable from the source in the residual graph: the
        canonical (inclusion-minimal) minimum-cut source side."""
        head, to, cap = self.head, self.to, self.cap
        seen = [False] * self.node_count
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen
