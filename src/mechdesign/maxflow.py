"""Integer max-flow via Dinic's algorithm, seeded and run one component at a time.

Capacities are Python ints (arbitrary precision), so the computation is
exact and always terminates: every augmentation moves at least one unit.
Callers holding rational capacities scale them to integers first.

``seed_chains`` first pushes along each of the caller's arc-disjoint
source-to-sink chains its least capacity, a feasible flow to augment from;
``seed_paths`` then pushes along each path the caller lists, in order, its
least residual capacity, so the one-hop paths the caller can name need no
search.  No seed proves the flow maximum, so Dinic still runs, mostly to
prove that no augmenting path is left, per weakly connected component of
the graph without source and sink: a simple augmenting path lies in one
component and changes residual capacities only there, so saturating each
in turn (phases that leave the source through its edges only) leaves no
augmenting path at all.  The caller knows the components (the ``det`` cut
reads them off the relation) and lists in ``source_groups`` those that can
still carry flow (a seeded chain that meets no other cannot), or none to
search every source edge in one pass.  Either way every maximum flow leaves
the same residual-reachable set, the inclusion-minimal minimum-cut source
side.  Each component's last level search labels exactly its residual
reach, which later components leave alone; ``max_flow`` keeps the labels,
adds one search (no flow) from the source edges in no group, and leaves the
mask in ``source_side``: a component wrongly left out shows the sink in it.
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
        # The source's edges grouped by component, as Dinic should search
        # them; ``None`` searches every source edge as one group.
        self.source_groups: list[list[int]] | None = None

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
        added.  Dinic runs one source group at a time (module docstring)."""
        level = [-1] * self.node_count
        iter_index = [0] * self.node_count
        total = 0
        edges, groups = self.head[source], self.source_groups
        for group in [edges] if groups is None else groups:
            while True:
                touched = self._levels(source, sink, group, level)
                if level[sink] < 0:
                    break  # the labels stay: the component's residual reach
                total += self._blocking_flow(source, sink, group, level, iter_index)
                for v in touched:
                    level[v] = -1
                    iter_index[v] = 0
        if groups is not None and sum(map(len, groups)) != len(edges):
            self._levels(source, sink, list(set(edges).difference(*groups)), level)
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
