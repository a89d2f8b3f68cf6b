"""Solvers for combinatorial costs given by value queries over outcome vectors.

An outcome vector assigns one outcome index to every type; vectors form a
product lattice under coordinatewise min (meet) and max (join).  Costs are
submodular when meet-plus-join never beats the original pair.  The truthful
vectors (coordinatewise dominance along the misreport relation) form a
distributive sublattice, and submodularity makes both the deterministic and
the randomized problem tractable:

* randomized: minimize the cost's chain-greedy (threshold) extension over
  per-type marginals in the truthfulness polytope (expected-utility
  dominance) with a deep-cut ellipsoid that certifies its optimality gap:
  it cuts an infeasible center at its violation depth and a feasible one
  at its value's excess over the best value found;
* deterministic: run the same ellipsoid with the step ladders ``[j > k]``.
  Their dominance is first-order stochastic dominance, so the feasible set
  is the order polytope, whose vertices are the truthful vectors.  The
  cheapest truthful vector on the peel chains of the feasible centers is
  returned, with a certified gap to the optimum.

The chain-greedy extension evaluates a marginal profile by peeling: read
each type at its highest remaining outcome, pay the smallest remaining mass
for that vector, subtract, repeat.  The peel also yields the unique
non-crossing distribution with the given marginals, which ``uncross``
reproduces from any distribution by repeated meet/join surgery.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .instances import (
    Cost,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    SelfCheckError,
    _check_indices,
    _probability_to_json,
    cost_from_json,
    differs,
    exceeds,
    is_exact,
    probability_from_json,
    rational_from_json,
    transitive_closure,
)
from .oracle import BudgetExceededError, DEFAULT_ENUMERATION_BUDGET

# Marginal entries at or below this are treated as exhausted in float mode;
# exact (rational) profiles use strict positivity instead.
POSITIVITY_TOL = 1e-12

# A returned randomized solution must satisfy marginal truthfulness to here.
TRUTHFUL_MARGINAL_TOL = 1e-9

# Breakpoints closer than this are merged when thresholding float marginals.
BREAKPOINT_CLUSTER_TOL = 1e-9

# Float probability sums and float cost self-checks must agree to within this.
FLOAT_CHECK_TOL = 1e-9

DEFAULT_PAIR_BUDGET = 10**6
DEFAULT_ITERATION_CAP = 100_000


class CostOracle:
    """Value-query access to a cost over outcome vectors.

    ``bound`` is a declared upper bound on the finite values the oracle can
    return; the numeric solvers use it to scale steps.  ``query_count``
    tracks usage so tests can pin query complexity.
    """

    def __init__(self, fn: Callable, type_count: int, outcome_count: int, bound):
        self._fn = fn
        self.type_count = int(type_count)
        self.outcome_count = int(outcome_count)
        self.bound = Fraction(bound)
        self.query_count = 0

    def __call__(self, point: Sequence[int]) -> Cost:
        self.query_count += 1
        value = self._fn(tuple(point))
        return value if isinstance(value, Cost) else Cost(value)


def additive_oracle(instance: Instance) -> CostOracle:
    """Sum of per-type entries; the bridge between matrix and query worlds."""
    rows = instance.costs.rows

    def evaluate(point):
        total = Cost(0)
        for i, j in enumerate(point):
            total = total + rows[i][j]
        return total

    bound = Fraction(0)
    for row in rows:
        finite = [c.value for c in row if c.is_finite]
        if finite:
            bound += max(finite)
    return CostOracle(evaluate, instance.type_count, instance.outcome_count, bound)


def lattice_index(point: Sequence[int], outcome_count: int) -> int:
    """Row-major index of a lattice point (the last type varies fastest)."""
    idx = 0
    for x in point:
        idx = idx * outcome_count + x
    return idx


def lattice_points(type_count: int, outcome_count: int):
    """All outcome vectors in row-major order (matches ``lattice_index``)."""
    return itertools.product(range(outcome_count), repeat=type_count)


def table_oracle(values: Sequence, type_count: int, outcome_count: int) -> CostOracle:
    """Cost table indexed by ``lattice_index``; entries may be ``Cost``s."""
    expected = outcome_count**type_count
    if len(values) != expected:
        raise ValueError(f"table needs {expected} entries, got {len(values)}")
    table = [v if isinstance(v, Cost) else Cost(v) for v in values]
    finite = [c.value for c in table if c.is_finite]
    bound = max(finite) if finite else Fraction(0)
    return CostOracle(
        lambda point: table[lattice_index(point, outcome_count)],
        type_count,
        outcome_count,
        bound,
    )


def _memoized(oracle: CostOracle) -> CostOracle:
    """Dict-backed shim so iterative solvers pay each value query once; its
    ``real(point)`` converts once to float and rejects infinite values."""
    cache: dict[tuple, Cost] = {}
    reals: dict[tuple, float] = {}

    def lookup(point):
        got = cache.get(point)
        if got is None:
            got = oracle(point)
            cache[point] = got
        return got

    def real(point):
        got = reals.get(point)
        if got is None:
            got = reals[point] = float(lookup(point))
            if not math.isfinite(got):
                raise ValueError(f"oracle value at {point} is infinite; the "
                                 "numeric solvers need finite oracle values")
        return got

    memo = CostOracle(lookup, oracle.type_count, oracle.outcome_count, oracle.bound)
    memo.real = real
    return memo


def meet(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(min(x, y) for x, y in zip(a, b))


def join(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class SubmodularityVerdict:
    ok: bool
    witness: tuple | None  # (point_a, point_b) violating the inequality
    checked_pairs: int
    exhaustive: bool

    def __bool__(self) -> bool:
        return self.ok


def is_submodular(
    oracle: CostOracle,
    mode: str = "exhaustive",
    sample_count: int = 2000,
    seed: int = 0,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> SubmodularityVerdict:
    """Check ``c(a) + c(b) >= c(meet) + c(join)`` over unordered pairs.

    Exhaustive mode scans every pair of lattice points (within
    ``pair_budget``); sampled mode draws pairs from a seeded generator.
    Comparable pairs hold trivially and are skipped.
    """
    n, m = oracle.type_count, oracle.outcome_count
    value = _memoized(oracle)

    def violates(a, b) -> bool:
        lo, hi = meet(a, b), join(a, b)
        if lo == a or lo == b:
            return False  # comparable: meet/join reproduce the pair
        return value(a) + value(b) < value(lo) + value(hi)

    checked = 0
    if mode == "exhaustive":
        total_points = m**n
        total_pairs = total_points * (total_points - 1) // 2
        if total_pairs > pair_budget:
            raise BudgetExceededError(
                f"exhaustive submodularity check needs {total_pairs} pairs, "
                f"budget is {pair_budget}"
            )
        points = list(lattice_points(n, m))
        for ai in range(len(points)):
            for bi in range(ai + 1, len(points)):
                checked += 1
                if violates(points[ai], points[bi]):
                    return SubmodularityVerdict(
                        False, (points[ai], points[bi]), checked, True
                    )
        return SubmodularityVerdict(True, None, checked, True)

    if mode == "sampled":
        rng = random.Random(seed)

        def draw():
            return tuple(rng.randrange(m) for _ in range(n))

        for _ in range(sample_count):
            a, b = draw(), draw()
            if a == b:
                continue
            checked += 1
            if violates(a, b):
                return SubmodularityVerdict(False, (a, b), checked, False)
        return SubmodularityVerdict(True, None, checked, False)

    raise ValueError(f"unknown mode {mode!r}")


def in_truthful_lattice(point: Sequence[int], relation: ReportingRelation) -> bool:
    """Whoever can claim to be another must sit at least as high."""
    return all(point[a] >= point[b] for a, b in relation.pairs)


# ---------------------------------------------------------------------------
# Marginal profiles and chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainDistribution:
    """A distribution over a totally ordered set of outcome vectors,
    listed in coordinatewise-ascending order."""

    support: tuple
    probs: tuple

    def items(self):
        return list(zip(self.support, self.probs))

    def marginals(self, outcome_count: int):
        """Per-type outcome marginals induced by the chain."""
        n = len(self.support[0]) if self.support else 0
        rows = [[0] * outcome_count for _ in range(n)]
        for point, p in zip(self.support, self.probs):
            for i, j in enumerate(point):
                rows[i][j] += p
        return rows


def chain_violations(dist: ChainDistribution) -> list[str]:
    problems = []
    total = sum(dist.probs)
    if differs(total, 1, is_exact(dist.probs), FLOAT_CHECK_TOL):
        problems.append(f"probabilities sum to {total}, expected 1")
    if any(p < 0 for p in dist.probs):
        problems.append("negative probability")
    for a, b in zip(dist.support, dist.support[1:]):
        if not all(x <= y for x, y in zip(a, b)):
            problems.append(f"support not ascending: {a} then {b}")
    return problems


def _validate_profile(rows) -> None:
    if not rows or not rows[0]:
        raise ValueError("empty marginal profile")
    width = len(rows[0])
    exact = is_exact(p for row in rows for p in row)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        if any(exceeds(0, p, exact, POSITIVITY_TOL) for p in row):
            raise ValueError(f"row {i} has a negative or NaN marginal")
        total = sum(row)
        if differs(total, 1, exact, FLOAT_CHECK_TOL):
            raise ValueError(f"row {i} sums to {total}, expected 1")


def _peel(rows) -> list[tuple[tuple[int, ...], object]]:
    """Greedy top-down peel of a marginal profile.

    Returns ``[(vector, mass), ...]`` from the top of the lattice downward.
    Exact profiles peel exactly; float profiles use the positivity threshold
    and renormalize the collected masses.
    """
    exact = is_exact(p for row in rows for p in row)
    tol = 0 if exact else POSITIVITY_TOL
    n = len(rows)
    m = len(rows[0])
    remaining = [list(row) for row in rows]

    tops = []
    for i in range(n):
        top = max((j for j in range(m) if remaining[i][j] > tol), default=None)
        if top is None:
            raise ValueError(f"marginal row {i} has no positive mass")
        tops.append(top)

    out = []
    steps = 0
    while True:
        steps += 1
        if steps > n * m + 1:
            raise SelfCheckError("marginal peel exceeded its iteration bound")
        delta = None
        for i in range(n):
            mass = remaining[i][tops[i]]
            if delta is None or mass < delta:
                delta = mass
        out.append((tuple(tops), delta))
        done = False
        for i in range(n):
            remaining[i][tops[i]] -= delta
            if remaining[i][tops[i]] <= tol:
                nxt = max(
                    (j for j in range(tops[i]) if remaining[i][j] > tol),
                    default=None,
                )
                if nxt is None:
                    done = True
                else:
                    tops[i] = nxt
        if done:
            break

    if not exact:
        total = sum(p for _, p in out)
        out = [(pt, p / total) for pt, p in out if p > 0]
    return out


def interpret_marginals(profile) -> ChainDistribution:
    """The unique non-crossing distribution with the given marginals.

    Peels the profile top-down, which realizes every type's marginal as the
    quantile coupling under one shared uniform draw; the support is a chain
    of at most ``n * m`` vectors.
    """
    rows = [list(row) for row in profile]
    _validate_profile(rows)
    peeled = _peel(rows)
    peeled.reverse()
    dist = ChainDistribution(
        tuple(pt for pt, _ in peeled), tuple(p for _, p in peeled)
    )
    problems = chain_violations(dist)
    if problems:
        raise SelfCheckError("peel produced a bad chain: " + "; ".join(problems))
    return dist


def _dist_items(dist) -> list:
    if isinstance(dist, ChainDistribution):
        return dist.items()
    return [(tuple(pt), p) for pt, p in dist]


def chain_cost(dist, oracle: CostOracle) -> Cost:
    """Expected oracle cost of a distribution over outcome vectors.

    Exact: float probabilities are converted exactly, and zero-probability
    entries cannot contribute an infinity.
    """
    total = Cost(0)
    for point, p in _dist_items(dist):
        if p:
            total = total + oracle(point).scaled(Fraction(p))
    return total


def objective_subgradient(profile, oracle: CostOracle) -> list[list[float]]:
    """A subgradient of ``p -> chain_cost(interpret_marginals(p), oracle)``.

    The greedy vertex of the full maximal chain through the profile: the
    gradient inside a linearity region, a valid subgradient on its boundary
    and on the boundary of the simplices.  Raises ``ValueError`` when the
    oracle returns an infinite value along the chain.
    """
    rows = [[float(p) for p in row] for row in profile]
    _validate_profile(rows)
    _, grad, _ = _peel_with_gradient(rows, _memoized(oracle))
    return grad


def _peel_with_gradient(rows, oracle: CostOracle):
    """Float peel along a full maximal chain: (value, gradient, chain points).

    Every type starts at the top outcome.  Each step pays the current vector
    for the mass up to the next threshold, the smallest tail sum
    ``sum(row[k:])`` among the types not yet at the bottom, and moves that
    type (the leader) down one outcome; after ``n * (m - 1)`` steps all sit
    at the bottom, which takes the rest of the mass.  Outcomes without mass
    are walked too, so every coordinate ``(i, j)`` collects the marginals
    ``f(x) - f(x - e_i)`` of all leader steps of type ``i`` at levels
    ``1..j``: the greedy vertex, a subgradient of the extension everywhere on
    the product of simplices, boundary included.  The gradient is defined up
    to a constant per row.
    """
    n = len(rows)
    m = len(rows[0])
    tails = [list(itertools.accumulate(reversed(row)))[::-1] for row in rows]
    tops = [m - 1] * n
    point = tuple(tops)
    cost = oracle.real(point)
    grad = [[0.0] * m for _ in range(n)]
    value = 0.0
    level = 0.0
    points = [point]
    for _ in range(n * (m - 1)):
        leader = min(
            (i for i in range(n) if tops[i]), key=lambda i: tails[i][tops[i]]
        )
        k = tops[leader]
        threshold = tails[leader][k]
        tops[leader] = k - 1
        lower = tuple(tops)
        lower_cost = oracle.real(lower)
        value += (threshold - level) * cost
        row = grad[leader]
        for j in range(k, m):
            row[j] += cost - lower_cost
        level, point, cost = threshold, lower, lower_cost
        points.append(point)
    value += (1.0 - level) * cost
    return value, grad, points


# ---------------------------------------------------------------------------
# Uncrossing
# ---------------------------------------------------------------------------

def uncross(dist, oracle: CostOracle | None = None, max_steps: int = 100_000) -> ChainDistribution:
    """Turn any distribution over outcome vectors into the non-crossing one
    with the same marginals.

    Repeatedly replaces mass on a crossing pair by mass on its meet and
    join.  Each step preserves every per-type marginal exactly and strictly
    increases the spread potential ``sum p * (coordinate sum)^2``, which
    certifies termination.  When an oracle is supplied, the final expected
    cost is checked not to exceed the initial one (submodularity).
    """
    items = _dist_items(dist)
    masses: dict[tuple, object] = {}
    for point, p in items:
        if p < 0:
            raise ValueError("negative probability in distribution")
        if p:
            masses[point] = masses.get(point, 0) + p
    if not masses:
        raise ValueError("empty distribution")
    exact = is_exact(masses.values())
    before_cost = chain_cost(list(masses.items()), oracle) if oracle else None

    def spread(point) -> int:
        return sum(point)

    steps = 0
    while True:
        support = sorted(masses, key=lambda pt: (spread(pt), pt), reverse=True)
        pair = None
        for x in range(len(support)):
            for y in range(x + 1, len(support)):
                a, b = support[x], support[y]
                lo = meet(a, b)
                if lo != a and lo != b:
                    pair = (a, b)
                    break
            if pair:
                break
        if pair is None:
            break
        steps += 1
        if steps > max_steps:
            raise SelfCheckError("uncrossing exceeded its step budget")
        a, b = pair
        q = min(masses[a], masses[b])
        lo, hi = meet(a, b), join(a, b)
        gain = q * (spread(lo) ** 2 + spread(hi) ** 2 - spread(a) ** 2 - spread(b) ** 2)
        if not gain > 0:
            raise SelfCheckError("uncrossing step failed to increase the potential")
        for pt in (a, b):
            masses[pt] -= q
            if not masses[pt] > (0 if exact else POSITIVITY_TOL):
                del masses[pt]
        for pt in (lo, hi):
            masses[pt] = masses.get(pt, 0) + q

    ordered = sorted(masses.items(), key=lambda kv: (spread(kv[0]), kv[0]))
    result = ChainDistribution(
        tuple(pt for pt, _ in ordered), tuple(p for _, p in ordered)
    )
    problems = chain_violations(result)
    if problems:
        raise SelfCheckError("uncrossing produced a bad chain: " + "; ".join(problems))
    if oracle is not None:
        after_cost = chain_cost(result, oracle)
        if exceeds(after_cost, before_cost, exact, FLOAT_CHECK_TOL):
            raise SelfCheckError("uncrossing raised the expected cost")
    return result


# ---------------------------------------------------------------------------
# Binary determinization
# ---------------------------------------------------------------------------

def determinize_binary(
    dist, relation: ReportingRelation, oracle: CostOracle
) -> tuple[DeterministicMechanism, Cost]:
    """For two outcomes: threshold the marginals of a truthful distribution.

    Every threshold level yields a truthful deterministic mechanism; under a
    shared uniform draw their expected cost reproduces the distribution's
    cost exactly, so the cheapest one costs no more.  Returns that cheapest
    mechanism with its exact cost.
    """
    if oracle.outcome_count != 2:
        raise ValueError("binary determinization needs exactly two outcomes")
    items = _dist_items(dist)
    n = oracle.type_count
    exact = is_exact(p for _, p in items)

    marginals = [Fraction(0) if exact else 0.0 for _ in range(n)]
    for point, p in items:
        for i, x in enumerate(point):
            if x:
                marginals[i] = marginals[i] + p

    for a, b in relation.pairs:
        if a == b:
            continue
        if exceeds(marginals[b], marginals[a], exact, TRUTHFUL_MARGINAL_TOL):
            raise ValueError(
                f"distribution is not marginally truthful on pair ({a}, {b})"
            )

    if not exact:
        # Snap nearly equal marginals together so thresholds cannot slip
        # between two values that are equal up to solver round-off.
        order = sorted(range(n), key=lambda i: marginals[i])
        for prev, cur in zip(order, order[1:]):
            if marginals[cur] - marginals[prev] <= BREAKPOINT_CLUSTER_TOL:
                marginals[cur] = marginals[prev]

    one = Fraction(1) if exact else 1.0
    levels = sorted(set(marginals) | {one})
    best_mech = None
    best_cost = None
    expected = Cost(0)
    previous = Fraction(0) if exact else 0.0
    for level in levels:
        point = tuple(1 if marginals[i] >= level else 0 for i in range(n))
        if not in_truthful_lattice(point, relation):
            raise SelfCheckError("threshold mechanism left the truthful lattice")
        cost = oracle(point)
        weight = level - previous
        previous = level
        if weight:
            expected = expected + cost.scaled(Fraction(weight))
        if best_cost is None or cost < best_cost:
            best_cost, best_mech = cost, DeterministicMechanism(point)

    # The threshold family shares one uniform draw, so its expected cost is
    # exactly the cost of the quantile coupling of the marginals (the input
    # itself whenever the input is already a chain).
    reference = chain_cost(
        interpret_marginals([[1 - u, u] for u in marginals]), oracle
    )
    if differs(expected, reference, exact, FLOAT_CHECK_TOL):
        raise SelfCheckError(
            "threshold family cost does not reproduce the coupled cost"
        )
    return best_mech, best_cost


# ---------------------------------------------------------------------------
# Deterministic solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmodularDeterministicSolution:
    point: tuple[int, ...]
    cost: Cost
    backend: str
    iterations: int = 0
    gap: float = 0.0  # cost minus a lower bound on the optimum


def default_stop(bound) -> float:
    """The gap at which ``solve_deterministic_submodular`` stops when no
    value granularity is given."""
    return max(1e-6, 1e-3 * max(1.0, float(bound)))


def solve_deterministic_submodular(
    oracle: CostOracle,
    relation: ReportingRelation,
    backend: str = "lovasz",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    max_iters: int = DEFAULT_ITERATION_CAP,
    value_granularity=None,
) -> SubmodularDeterministicSolution:
    """Cheapest truthful outcome vector for a (submodular) oracle cost.

    ``brute`` scans the whole lattice (exact for any oracle, exponential).
    ``lovasz`` minimizes the threshold extension of the cost over the order
    polytope with the deep-cut ellipsoid of the randomized solver: the
    ``m - 1`` step ladders ``[j > k]`` turn truthfulness into first-order
    stochastic dominance of the marginals, whose vertices are exactly the
    truthful outcome vectors.  Every feasible center's peel chain is
    searched for its cheapest truthful vector; ``gap`` is the cheapest
    cost found minus the ellipsoid's lower bound on the extension's minimum,
    which for a submodular oracle is the optimum.  The search stops once
    ``gap`` is at most ``max(1e-6, 1e-3 * max(1, bound))``.

    ``value_granularity``: a known lower bound on the separation between
    distinct oracle values (1 for integer tables).  The search then stops at
    ``gap < value_granularity``, which certifies that the returned vector is
    exactly optimal.
    """
    n, m = oracle.type_count, oracle.outcome_count
    if backend == "brute":
        total = m**n
        if total > budget:
            raise BudgetExceededError(
                f"brute lattice scan needs {total} states, budget is {budget}"
            )
        best = None
        best_cost = None
        for point in lattice_points(n, m):
            if not in_truthful_lattice(point, relation):
                continue
            c = oracle(point)
            if best_cost is None or c < best_cost:
                best_cost, best = c, point
        assert best is not None  # constant vectors are always truthful
        return SubmodularDeterministicSolution(best, best_cost, "brute")

    if backend != "lovasz":
        raise ValueError(f"unknown backend {backend!r}")

    if m == 1:
        bottom = (0,) * n
        return SubmodularDeterministicSolution(bottom, oracle(bottom), "lovasz")
    oracle = _memoized(oracle)
    state = {"point": None, "cost": None}
    seen = set()

    def upper(points) -> float:
        for point in points:
            if point not in seen:
                seen.add(point)
                if in_truthful_lattice(point, relation):
                    c = oracle(point)
                    if state["cost"] is None or c < state["cost"]:
                        state["point"], state["cost"] = point, c
        return oracle.real(state["point"])

    if value_granularity is not None:
        tol = math.nextafter(float(value_granularity), 0.0)
    else:
        tol = default_stop(oracle.bound)
    steps = [[1 if j > k else 0 for j in range(m)] for k in range(m - 1)]
    _, gap, iterations = _ellipsoid_minimize(
        oracle, steps, relation, tol=tol, max_iters=max_iters, upper=upper
    )
    if state["point"] is None:
        raise SelfCheckError("rounding never produced a truthful vector")
    return SubmodularDeterministicSolution(
        state["point"], state["cost"], "lovasz", iterations, gap
    )


# ---------------------------------------------------------------------------
# Randomized solver (convex program over marginal profiles)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmodularRandomizedSolution:
    chain: ChainDistribution
    value: float
    cost: Cost
    converged: bool
    gap_estimate: float
    iterations: int
    backend: str


def solve_randomized_submodular(
    oracle: CostOracle,
    outcomes: OutcomeSpace,
    relation: ReportingRelation,
    eps: float = 1e-3,
    backend: str = "ellipsoid",
    max_iters: int = DEFAULT_ITERATION_CAP,
) -> SubmodularRandomizedSolution:
    """Cheapest truthful marginal profile for a submodular oracle cost.

    Minimizes the chain-greedy extension over profiles whose expected
    utilities dominate along the misreport relation with a deep-cut
    ellipsoid, the only ``backend``.  ``gap_estimate`` is the certified gap
    between the best value found and a lower bound on the optimum;
    ``converged`` means it is at most ``eps / 2``.  The returned chain
    realizes the best marginals found.
    """
    if backend != "ellipsoid":
        raise ValueError(f"unknown backend {backend!r}")
    if len(outcomes.utilities) != oracle.outcome_count:
        raise ValueError("outcome ladder does not match the oracle's width")
    oracle = _memoized(oracle)
    best_x, gap, iterations = _ellipsoid_minimize(
        oracle, [outcomes.utilities], relation, tol=eps / 2, max_iters=max_iters
    )

    best_x = np.clip(best_x, 0.0, None)
    best_x /= best_x.sum(axis=1, keepdims=True)
    u = np.array([float(x) for x in outcomes.utilities])
    for a, b in relation.pairs:
        if a != b and float((best_x[b] - best_x[a]) @ u) > TRUTHFUL_MARGINAL_TOL:
            raise SelfCheckError("solution violates marginal truthfulness")

    chain = interpret_marginals(best_x.tolist())
    cost = chain_cost(chain, oracle)
    return SubmodularRandomizedSolution(
        chain, float(cost), cost, gap <= eps / 2, gap, iterations, backend
    )


def _mutual_reach_classes(relation: ReportingRelation) -> list[list[int]]:
    """Groups of types that can mutually reach each other along the relation.

    Expected utilities are forced equal within such a group, so the truthful
    polytope is flat along the corresponding directions.
    """
    reach = transitive_closure(relation).pairs
    classes = []
    assigned = set()
    for s in range(relation.type_count):
        if s in assigned:
            continue
        group = [s] + [
            t
            for t in range(s + 1, relation.type_count)
            if (s, t) in reach and (t, s) in reach
        ]
        assigned.update(group)
        classes.append(group)
    return classes


def _deep_cut(center: np.ndarray, factor: np.ndarray, a: np.ndarray, depth: float):
    """Smallest ellipsoid holding ``{center + factor v : |v| <= 1, a @ v <= -depth}``
    for a unit ``a`` and ``0 <= depth < 1`` (Bland, Goldfarb & Todd 1981);
    ``depth = 0`` is the central cut.  ``factor`` is updated in place.  For
    ``r == 1`` any finite stretch keeps the cut part of the interval."""
    r = len(center)
    shift = factor @ a
    center = center - (1 + r * depth) / (r + 1) * shift
    stretch = r * math.sqrt((1 - depth * depth) / (r * r - 1)) if r > 1 else 1.0
    factor *= stretch
    factor += (r * (1 - depth) / (r + 1) - stretch) * shift[:, None] * a
    return center, factor


def _ellipsoid_minimize(
    oracle: CostOracle,
    ladders: Sequence[Sequence],
    relation: ReportingRelation,
    tol: float,
    max_iters: int,
    upper: Callable | None = None,
):
    """Deep-cut ellipsoid over reduced profiles (last column eliminated).

    Truthfulness is expected-utility dominance along the relation under each
    ladder in ``ladders``: one ladder gives the randomized problem's polytope,
    the step ladders ``[j > k]`` the order polytope of the deterministic one.
    Mutually-reachable types force equalities that would leave the feasible
    set no interior; the ellipsoid runs in the subspace they leave.  It is
    kept as ``{c + Bv : |v| <= 1}``, so ``B Bᵀ`` cannot lose positive
    semidefiniteness to round-off.  ``best`` is the best feasible value or,
    given ``upper``, the best ``upper(chain points)`` at feasible centers.
    Every cut is deep: an infeasible center is cut by its first violated wall
    ``w @ y <= b`` at depth ``(w @ c - b) / |Bᵀw|``; a feasible one by its
    peel subgradient ``g`` at depth ``(f(c) - best) / |Bᵀg|``, which keeps
    every point with ``f <= best`` (the optimum among them) inside, so
    ``f(c) - |Bᵀg|`` bounds the optimum from below.  Stops once ``best`` is
    within ``tol`` of the best lower bound; returns ``(best profile, best -
    lower bound, iterations)``.
    """
    n, m = oracle.type_count, oracle.outcome_count
    d = n * (m - 1)

    constraints: list[tuple[np.ndarray, float]] = []  # w @ y <= b
    for i in range(n):
        for k in range(m - 1):
            w = np.zeros(d)
            w[i * (m - 1) + k] = -1.0
            constraints.append((w, 0.0))
        w = np.zeros(d)
        w[i * (m - 1): (i + 1) * (m - 1)] = 1.0
        constraints.append((w, 1.0))

    classes = _mutual_reach_classes(relation)
    equalities = []
    for ladder in ladders:
        u = np.array([float(x) for x in ladder])
        tail = u[:-1] - u[-1]
        for a, b in sorted(relation.pairs):
            if a == b:
                continue
            w = np.zeros(d)
            w[a * (m - 1): (a + 1) * (m - 1)] = -tail
            w[b * (m - 1): (b + 1) * (m - 1)] = tail
            constraints.append((w, 0.0))
        for group in classes:
            for t in group[1:]:
                w = np.zeros(d)
                w[group[0] * (m - 1): (group[0] + 1) * (m - 1)] = tail
                w[t * (m - 1): (t + 1) * (m - 1)] = -tail
                equalities.append(w)

    y0 = np.full(d, 1.0 / m)  # uniform profile: feasible, satisfies equalities
    if equalities:
        emat = np.array(equalities)
        _, svals, vt = np.linalg.svd(emat, full_matrices=True)
        rank = int(np.sum(svals > 1e-10 * max(1.0, float(svals[0]))))
        basis = vt[rank:].T  # d x r, orthonormal null-space basis
    else:
        basis = np.eye(d)
    r = basis.shape[1]

    normals = np.array([w for w, _ in constraints])
    walls = normals @ basis
    room = np.array([b for _, b in constraints]) - normals @ y0
    keep = np.einsum("ij,ij->i", walls, walls) > 1e-18
    keep[-1] = True  # a zero wall is never violated; the wall list stays nonempty
    walls, room = walls[keep], room[keep]

    def expand(z: np.ndarray) -> np.ndarray:
        y = y0 + basis @ z
        p = np.empty((n, m))
        blocks = y.reshape(n, m - 1)
        p[:, : m - 1] = blocks
        p[:, m - 1] = 1.0 - blocks.sum(axis=1)
        return p

    center = np.zeros(r)
    factor = np.eye(r) * math.sqrt(d)  # the ball around y0 holds [0, 1]^d
    best, best_x, lower = math.inf, None, -math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        reach = walls @ center
        i = int(np.argmax(reach - room > 1e-12))
        if reach[i] - room[i] > 1e-12:
            along = factor.T @ walls[i]
            norm = math.sqrt(along @ along)
            over, scale = reach[i] - room[i], abs(reach[i]) + abs(room[i])
        else:
            p = expand(center)
            value, grad_p, points = _peel_with_gradient(p.tolist(), oracle)
            found = value if upper is None else upper(points)
            if found < best:
                best, best_x = found, p
            g = np.array(grad_p)
            along = factor.T @ (basis.T @ (g[:, : m - 1] - g[:, m - 1:]).reshape(d))
            norm = math.sqrt(along @ along)
            lower = max(lower, value - norm)
            if best - lower <= tol:
                break
            over, scale = value - best, abs(value) + abs(best)
        if not 0 < norm < math.inf:
            break
        depth = max(0.0, over - 1e-9 * scale) / norm  # relative round-off slack
        if depth >= 1:
            break  # round-off emptied the ellipsoid
        center, factor = _deep_cut(center, factor, along / norm, depth)
    return best_x, best - lower, iterations


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def oracle_from_json(payload: dict, instance: Instance) -> CostOracle:
    """Build a cost oracle from a JSON description.

    Kinds: ``additive`` (the instance's cost matrix), ``additive_plus_overhead``
    (adds ``c0`` whenever any type sits above the bottom outcome), ``table``
    (explicit value table in ``lattice_index`` order).
    """
    kind = payload.get("kind", "additive")
    if kind == "additive":
        return additive_oracle(instance)
    if kind == "additive_plus_overhead":
        from .generators import overhead_cost_oracle

        return overhead_cost_oracle(instance, rational_from_json(payload["c0"]))
    if kind == "table":
        values = [cost_from_json(v) for v in payload["values"]]
        return table_oracle(values, instance.type_count, instance.outcome_count)
    raise ValueError(f"unknown oracle kind {kind!r}")


def chain_to_json(dist: ChainDistribution) -> dict:
    return {
        "support": [
            {"vector": list(pt), "prob": _probability_to_json(p)}
            for pt, p in dist.items()
        ]
    }


def chain_from_json(obj: dict) -> ChainDistribution:
    entries = []
    for item in obj["support"]:
        _check_indices(item["vector"])
        entries.append((tuple(item["vector"]), probability_from_json(item["prob"])))
    dist = ChainDistribution(
        tuple(pt for pt, _ in entries), tuple(p for _, p in entries)
    )
    problems = chain_violations(dist)
    if problems:
        raise ValueError("; ".join(problems))
    return dist
