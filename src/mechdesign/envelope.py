"""Randomized solver via per-type lower convex envelopes.

Replacing each type's cost curve by its lower convex envelope turns the
randomized problem into a deterministic one: the cheapest truthful lottery
profile concentrates, per type, on the two hull vertices bracketing a target
utility, and costs exactly the envelope value there.  So the pipeline is:
envelope every row, solve the deterministic problem on envelope costs, then
expand each type's assigned target back into the bracketing two-point
lottery.  Envelope rows are convex, so that problem needs no ``n*m``-node
cut network: the rows' finite ranges settle infinite verdicts, and about
``log2 m`` rounds of closure cuts on the relation graph, weighted by integer
hull slopes, find the pointwise-lowest optimum (``threshold_assignment``).
The path stays in integers: each type's bracket is found on the integer
hull and yields one ``Fraction`` weight, and each expected utility that the
truthfulness check compares is one integer sum.

Also here: the two operations behind the "convex costs need no randomness"
argument — consolidating any truthful lottery profile onto two consecutive
outcomes per type without raising cost (each row's bracketing lottery), and
decomposing such a profile by its quantile coupling into truthful
deterministic mechanisms whose expected cost matches exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .instances import (
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    RandomizedMechanism,
    SelfCheckError,
    ZERO_COST,
    cost_deterministic,
    cost_randomized,
    expected_utility,
    hard_violations,
    is_truthful,
    ratio_sum,
)
from .mincut import minimal_closure
# Unused here; the benchmark tracer (mdbench/spans.py) rebinds this name.
from .mincut import solve_deterministic  # noqa: F401


@dataclass(frozen=True)
class EnvelopeRow:
    """Lower convex envelope of one cost row, kept in integers.

    ``vertices`` lists outcome indices where the envelope bends strictly or
    ends; collinear interior points are deliberately not vertices.  ``xs``
    holds every outcome's utility over the utilities' common denominator and
    ``ys`` the cost at each vertex over ``scale``, the cost matrix's common
    scale.  Outcomes outside the finite range have infinite envelope values.
    """

    vertices: tuple[int, ...]
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    scale: int

    def scaled_value(self, k: int) -> tuple[int, int] | None:
        """The envelope at outcome ``k`` times ``scale``, as a
        ``(numerator, denominator)`` pair; ``None`` outside the finite range."""
        v, xs = self.vertices, self.xs
        if not v[0] <= k <= v[-1]:
            return None
        s = bisect_right(v, k) - 1
        x1, y1 = xs[v[s]], self.ys[s]
        if v[s] == k:
            return y1, 1
        dx = xs[v[s + 1]] - x1
        return y1 * dx + (self.ys[s + 1] - y1) * (xs[k] - x1), dx

    @cached_property
    def values(self) -> tuple:
        """The envelope at every outcome as a ``Cost``, built on first use;
        the solver reads the integer fields."""
        values = map(self.scaled_value, range(len(self.xs)))
        return tuple(
            Cost.infinite() if v is None else Cost(Fraction(v[0], v[1] * self.scale))
            for v in values
        )


@dataclass(frozen=True)
class MixturePair:
    """A two-point lottery: probability ``alpha`` on outcome ``lower`` and
    ``1 - alpha`` on ``upper``."""

    type_index: int
    lower: int
    upper: int
    alpha: Fraction


@dataclass(frozen=True)
class RandomizedSolution:
    mechanism: RandomizedMechanism | None
    cost: Cost
    pairs: tuple = ()


def pl_extension_value(cost_row, outcomes: OutcomeSpace, point) -> Cost:
    """The piecewise-linear extension of a cost row, evaluated off-grid.

    Between consecutive outcomes the cost interpolates linearly; an infinite
    endpoint makes the whole open segment infinite.  Exactly at an outcome
    the entry itself is returned, infinite neighbors notwithstanding.
    """
    x = Fraction(point)
    utilities = outcomes.utilities
    if x < utilities[0] or x > utilities[-1]:
        raise ValueError(f"{x} outside the outcome range")
    j = bisect_right(utilities, x) - 1
    left = cost_row[j] if isinstance(cost_row[j], Cost) else Cost(cost_row[j])
    if utilities[j] == x:
        return left
    right = cost_row[j + 1] if isinstance(cost_row[j + 1], Cost) else Cost(cost_row[j + 1])
    if not (left.is_finite and right.is_finite):
        return Cost.infinite()
    span = utilities[j + 1] - utilities[j]
    slope = (right.value - left.value) / span
    return Cost(left.value + (x - utilities[j]) * slope)


def is_convex_cost(instance: Instance) -> tuple[bool, list[bool]]:
    """Whether each row's piecewise-linear extension is convex (and all):
    a row is exactly when it is all-infinite or equals its envelope."""
    outcomes = instance.outcomes
    per_type = [
        not any(c.is_finite for c in row) or convex_envelope(row, outcomes).values == row
        for row in instance.costs.rows
    ]
    return all(per_type), per_type


def _lower_hull(xs: tuple[int, ...], ys, scale: int) -> EnvelopeRow:
    """The envelope of the finite points ``(xs[j], ys[j])``, ``ys[j]`` being
    ``None`` where the cost is infinite."""
    hx, hy, hj = [], [], []  # the hull stack: one int list per coordinate
    for j, y in enumerate(ys):
        if y is None:
            continue
        x = xs[j]
        while len(hj) > 1:
            x2, y2 = hx[-1], hy[-1]
            # Pop the top point unless the slope strictly increases there.
            if (y2 - hy[-2]) * (x - x2) < (y - y2) * (x2 - hx[-2]):
                break
            del hx[-1], hy[-1], hj[-1]
        hx.append(x)
        hy.append(y)
        hj.append(j)
    if not hj:
        raise ValueError("cost row has no finite entries")
    return EnvelopeRow(tuple(hj), xs, tuple(hy), scale)


def convex_envelope(cost_row, outcomes: OutcomeSpace) -> EnvelopeRow:
    """Lower convex envelope of the finite points of one cost row.

    Hull vertices keep only strict slope increases, so collinear interior
    points are excluded.  All arithmetic is exact and in integers: the hull
    runs on the utilities over their common denominator and on the row's
    finite costs over theirs (``CostMatrix``'s layout).
    """
    costs = CostMatrix([cost_row])
    return _lower_hull(outcomes.scaled[0], costs.scaled[0], costs.scale)


def recover_mixture(
    envelope_row: EnvelopeRow, outcomes: OutcomeSpace, target, type_index: int = 0
) -> MixturePair:
    """Two hull vertices bracketing ``target`` utility, with the unique
    mixing weight whose expected utility is exactly ``target``.  With
    ``target = p / q``, ``t = q * target * scale`` lies on the integer
    ``xs`` times ``q``; it is bisected there, then among the vertices."""
    p, q = target.as_integer_ratio()
    v, xs = envelope_row.vertices, envelope_row.xs
    t = p * outcomes.scaled[1]
    if not xs[0] * q <= t <= xs[-1] * q:
        raise ValueError(f"target {Fraction(p, q)} outside the outcome range")
    j = bisect_right(xs, t // q) - 1
    s = bisect_right(v, j) - 1
    if s >= 0 and v[s] == j and xs[j] * q == t:
        return MixturePair(type_index, j, j, Fraction(1))
    if s < 0 or s + 1 == len(v):
        raise ValueError(f"target {Fraction(p, q)} not covered by the envelope's finite range")
    lower, upper = v[s], v[s + 1]
    alpha = Fraction(xs[upper] * q - t, (xs[upper] - xs[lower]) * q)
    return MixturePair(type_index, lower, upper, alpha)


def envelope_table(instance: Instance) -> list[EnvelopeRow]:
    """Every row's envelope, read off the cost matrix's integer rows: all
    rows share the matrix's scale and one tuple of scaled utilities."""
    xs, costs = instance.outcomes.scaled[0], instance.costs
    return [_lower_hull(xs, row, costs.scale) for row in costs.scaled]


def _spread(bounds: list[int], neighbours: list[list[int]], reverse: bool) -> list[int]:
    """Carry each type's bound along ``neighbours`` to every type it reaches;
    the most extreme bound (largest when ``reverse``) goes first and stays."""
    spread: list = [None] * len(bounds)
    for root in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=reverse):
        queue = [root]
        for u in queue:  # the loop also visits the nodes it appends
            if spread[u] is None:
                spread[u] = bounds[root]
                queue += neighbours[u]
    return spread


def threshold_assignment(table: list[EnvelopeRow], relation) -> list[int] | None:
    """Pointwise-lowest ``x`` minimizing ``sum(env_i(x_i))`` with ``x_a >= x_b``
    whenever ``a`` can claim ``b``, or ``None`` if every such ``x`` costs inf.

    ``x_a`` lies between the largest finite-range start of the types ``a``
    reaches and the smallest finite-range end of the types reaching ``a``;
    unless these bounds cross, ``x`` at the lower ones is finite.  Then by
    Hochbaum's threshold theorem for convex rows, ``{i : x_i > k}`` is the
    minimal closed set of least weight ``env_i(k+1) - env_i(k)``, so one
    ``minimal_closure`` over the types the bounds leave free splits a group
    at the middle threshold of its outcome range.  The weights passed are
    the hull slopes ``dy / dx`` at ``k`` as ints ``dy * (L // dx)``, ``L``
    the runs' lcm: the factor ``(xs[k+1] - xs[k]) / (L * scale)`` that turns
    them into envelope differences is positive and the same for every type.
    """
    n = len(table)
    claims: list[list[int]] = [[] for _ in range(n)]
    claimed_by: list[list[int]] = [[] for _ in range(n)]
    for a, b in relation.claims:
        claims[a].append(b)
        claimed_by[b].append(a)
    lower = _spread([row.vertices[0] for row in table], claimed_by, reverse=True)
    upper = _spread([row.vertices[-1] for row in table], claims, reverse=False)
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return None

    assignment = [0] * n
    groups = [(range(n), 0, len(table[0].xs) - 1)]
    while groups:
        types, klo, khi = groups.pop()
        if not types:
            continue
        if klo == khi:
            for i in types:
                assignment[i] = klo
            continue
        k = (klo + khi) // 2
        free = [i for i in types if lower[i] <= k < upper[i]]
        local = {i: p for p, i in enumerate(free)}
        ends = [(table[i], bisect_right(table[i].vertices, k)) for i in free]
        steps = [(r.ys[s] - r.ys[s - 1], r.xs[r.vertices[s]] - r.xs[r.vertices[s - 1]])
                 for r, s in ends]
        unit = math.lcm(*{dx for _, dx in steps})
        weights = [dy * (unit // dx) for dy, dx in steps]
        pairs = [(local[a], p) for p, b in enumerate(free) for a in claimed_by[b] if a in local]
        above = {i for i, inside in zip(free, minimal_closure(weights, pairs)) if inside}
        high = [lower[i] > k or i in above for i in types]
        groups.append(([i for i, h in zip(types, high) if not h], klo, k))
        groups.append(([i for i, h in zip(types, high) if h], k + 1, khi))
    return assignment


def solve_randomized(instance: Instance) -> RandomizedSolution:
    """Cost-optimal truthful randomized mechanism, or an infinite verdict.

    Exact throughout: the returned lotteries are rational, and the reported
    cost equals the expected cost of the returned mechanism exactly.
    """
    problems = hard_violations(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    if any(row.count(None) == len(row) for row in instance.costs.scaled):
        return RandomizedSolution(None, Cost.infinite())

    table = envelope_table(instance)
    assignment = threshold_assignment(table, instance.relation)
    if assignment is None:
        return RandomizedSolution(None, Cost.infinite())

    outcomes = instance.outcomes
    pairs = tuple(
        recover_mixture(table[i], outcomes, outcomes.utilities[j], i)
        for i, j in enumerate(assignment)
    )
    rows = [[0] * instance.outcome_count for _ in pairs]
    for row, pair in zip(rows, pairs):
        if pair.upper != pair.lower:
            row[pair.upper] = 1 - pair.alpha
        row[pair.lower] = pair.alpha
    mech = RandomizedMechanism(rows)

    if not is_truthful(mech, instance):
        raise SelfCheckError("randomized solution failed the truthfulness check")
    cost = cost_randomized(mech, instance)
    optimum = Cost(
        ratio_sum(table[i].scaled_value(j) for i, j in enumerate(assignment))
        / instance.costs.scale
    )
    if cost != optimum:
        raise SelfCheckError(f"mixture cost {cost} disagrees with envelope optimum {optimum}")
    return RandomizedSolution(mech, cost, pairs)


def consolidate_two_consecutive(
    mech: RandomizedMechanism, instance: Instance
) -> RandomizedMechanism:
    """Move every row onto two consecutive outcomes.

    Requires convex costs.  Each row becomes the unique lottery with the
    row's mass and expected utility on the two consecutive outcomes that
    bracket that utility (one outcome when it hits one exactly); with convex
    rows this never raises the expected cost.
    """
    overall, _ = is_convex_cost(instance)
    if not overall:
        raise ValueError("consolidation requires convex cost rows")
    utilities = instance.outcomes.utilities
    before_cost = cost_randomized(mech, instance)
    exact = RandomizedMechanism([Fraction(p) for p in row] for row in mech.rows)  # floats too
    rows = []
    for row in exact.rows:
        mass = sum(row)
        packed = [Fraction(0)] * len(row)
        if mass:
            mean = sum(p * u for p, u in zip(row, utilities)) / mass
            j = bisect_right(utilities, mean) - 1
            packed[j] = mass
            if utilities[j] < mean:
                upper = mass * (mean - utilities[j]) / (utilities[j + 1] - utilities[j])
                packed[j], packed[j + 1] = mass - upper, upper
        rows.append(packed)

    result = RandomizedMechanism(rows)
    for i in range(instance.type_count):
        if expected_utility(result, instance.outcomes, i) != expected_utility(
            exact, instance.outcomes, i
        ):
            raise SelfCheckError(f"consolidation changed type {i}'s expected utility")
    after_cost = cost_randomized(result, instance)
    if after_cost > before_cost:
        raise SelfCheckError(f"consolidation raised cost from {before_cost} to {after_cost}")
    return result


def threshold_round(mech: RandomizedMechanism, instance: Instance) -> list[tuple]:
    """Decompose a two-consecutive-outcome lottery profile into weighted
    truthful deterministic mechanisms.

    A shared uniform draw rounds every type up or down at once: the
    profile's quantile coupling (``interpret_marginals``), whose points,
    highest first, are returned as ``[(mechanism, mass), ...]``.  The
    weighted cost reproduces the lottery profile's expected cost exactly,
    and every member is truthful.
    """
    from .submodular import interpret_marginals

    if not is_truthful(mech, instance):
        raise ValueError("threshold rounding expects a truthful lottery profile")
    rows = [[Fraction(p) for p in row] for row in mech.rows]  # exact for floats too
    for i, row in enumerate(rows):
        support = [j for j, p in enumerate(row) if p > 0]
        if not support:
            raise ValueError(f"row {i} has no mass")
        if support[-1] - support[0] > 1:
            raise ValueError(f"row {i} is supported on non-consecutive outcomes {support}")

    members = [(DeterministicMechanism(point), p)
               for point, p in reversed(interpret_marginals(rows).items())]
    expected: Cost = ZERO_COST
    for member, weight in members:
        if not is_truthful(member, instance):
            raise SelfCheckError("threshold rounding produced an untruthful member")
        expected = expected + cost_deterministic(member, instance).scaled(weight)
    if expected != cost_randomized(mech, instance):
        raise SelfCheckError("threshold rounding does not reproduce the lottery profile's cost")
    return members
