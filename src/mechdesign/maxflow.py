"""Integer max-flow via Dinic's algorithm, seeded with the caller's paths.

Capacities are Python ints (arbitrary precision), so the computation is
exact and always terminates: every augmentation moves at least one unit.
Callers holding rational capacities scale them to integers first.

``seed_chains`` first pushes along each of the caller's arc-disjoint
source-to-sink chains its least capacity, a feasible flow to augment from;
``seed_paths`` then pushes along each path the caller lists, in order, its
least residual capacity, so the one-hop paths the caller can name need no
search.  No seed proves the flow maximum, so Dinic still runs, mostly to
prove that no augmenting path is left.  Every maximum flow leaves the same
residual-reachable set, the inclusion-minimal minimum-cut source side; the
last level search, which finds no path to the sink, labels exactly that
set, and ``max_flow`` leaves it in ``source_side``.
"""

from __future__ import annotations

import operator


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

    def seed_chains(self, count: int, length: int) -> int:
        """Push each chain's least residual capacity along it; chain ``c`` is
        forward edges ``2k``, ``c * length <= k < (c + 1) * length``, in path
        order.  Returns the value pushed."""
        cap, stop, step = self.cap, 2 * count * length, 2 * length
        columns = [cap[2 * p : stop : step] for p in range(length)]
        lows = list(map(min, zip(*columns)))
        for p, column in enumerate(columns):
            cap[2 * p : stop : step] = map(operator.sub, column, lows)
            cap[2 * p + 1 : stop : step] = map(operator.add, cap[2 * p + 1 : stop : step], lows)
        return sum(lows)

    def seed_paths(self, paths) -> int:
        """Push along each path (forward edge ids, source to sink) in turn its
        least residual capacity; returns the value pushed."""
        cap, total = self.cap, 0
        for path in paths:
            low = min(map(cap.__getitem__, path))
            if low:
                for eid in path:
                    cap[eid] -= low
                    cap[eid ^ 1] += low
                total += low
        return total

    def _levels(self, source: int, sink: int, level: list[int]) -> list[int]:
        """Label BFS levels from the source without expanding the sink;
        returns the labelled nodes in visiting order."""
        head, to, cap = self.head, self.to, self.cap
        level[source] = 0
        queue = [source]
        for u in queue:  # the loop also visits the nodes it appends
            if u == sink:
                continue
            next_level = level[u] + 1
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        return queue

    def _blocking_flow(
        self, source: int, sink: int, level: list[int], iter_index: list[int]
    ) -> int:
        """Iterative DFS sending flow along level-increasing edges.

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
            edges = head[u]
            i, stop = iter_index[u], len(edges)  # no edge is added in a phase
            next_level = level[u] + 1
            while i < stop:
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
        """Augment the current flow to a maximum one, left in the residual
        capacities, the source side in ``source_side``; returns the value
        added."""
        level = [-1] * self.node_count
        iter_index = [0] * self.node_count
        total = 0
        while True:
            touched = self._levels(source, sink, level)
            if level[sink] < 0:
                break  # the labels stay: the residual reach
            total += self._blocking_flow(source, sink, level, iter_index)
            for v in touched:
                level[v] = -1
                iter_index[v] = 0
        self.source_side = [label >= 0 for label in level]
        return total

    def residual_source_side(self, source: int) -> list[bool]:
        """Nodes reachable from the source in the residual graph: the
        canonical (inclusion-minimal) minimum-cut source side, by a search
        of its own (``max_flow`` leaves the same mask in ``source_side``)."""
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
