"""Solvers for combinatorial costs given by value queries over outcome vectors.

An outcome vector assigns one outcome index to every type; vectors form a
product lattice under coordinatewise min (meet) and max (join).  Costs are
submodular when meet-plus-join never beats the original pair.  The truthful
vectors (coordinatewise dominance along the misreport relation) form a
distributive sublattice, and submodularity makes both the deterministic and
the randomized problem tractable.  Both minimize the cost's chain-greedy
(threshold) extension ``f̂`` over a polytope ``P`` of marginal profiles with
one exact double oracle (McMahan, Gordon & Blum 2003):

* randomized: ``P`` holds the profiles whose expected utilities dominate
  along the relation, and the linear oracle is the envelope cut of
  ``solve_randomized``;
* deterministic: the step ladders ``[j > k]`` turn dominance into
  first-order stochastic dominance, so ``P`` is the order polytope, whose
  vertices are the truthful vectors, and the linear oracle is the cut of
  ``solve_deterministic``.  Every point of ``P`` peels into truthful
  vectors, so the cheapest one on the peel chains bounds the optimum from
  above.

The chain-greedy extension evaluates a marginal profile by one walk down
its maximal chain (``_chain``): from the top vector, lower one outcome at a
time the type whose tail mass runs out first; each vector on the way
carries the mass between two steps.  The walk gives the extension's value
and greedy subgradient, and its vectors with positive mass are the unique
non-crossing distribution with the given marginals, which ``uncross``
reproduces from any distribution by repeated meet/join surgery.

The double oracle runs in integers: every profile, gradient and vertex is
int rows over one denominator (``_integral``), the walk takes its leaders
off a heap, a count of violated claims marks its truthful points, and the
master game is pivoted fraction-free (Bareiss 1968).
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .envelope import solve_randomized
from .instances import (
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    SelfCheckError,
    _check_indices,
    cost_from_json,
    exact_rational,
    probability_from_json,
    rational_from_json,
    rational_to_json,
)
from .mincut import solve_deterministic
from .oracle import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    enumerate_truthful_deterministic,
)

DEFAULT_PAIR_BUDGET = 10**6
DEFAULT_ITERATION_CAP = 100_000


class CostOracle:
    """Value-query access to a cost over outcome vectors.

    ``fn`` maps an outcome vector (a tuple) to a ``Cost`` or a number.
    ``query_count`` tracks usage so tests can pin query complexity.
    """

    def __init__(self, fn: Callable, type_count: int, outcome_count: int):
        self._fn = fn
        self.type_count = int(type_count)
        self.outcome_count = int(outcome_count)
        self.query_count = 0

    def __call__(self, point: Sequence[int]) -> Cost:
        self.query_count += 1
        value = self._fn(tuple(point))
        return value if isinstance(value, Cost) else Cost(value)


def _matrix_cost(instance: Instance) -> Callable:
    """``cost_deterministic`` at an outcome vector, summed straight off the
    cost matrix's integer rows."""
    scaled, scale = instance.costs.scaled, instance.costs.scale

    def cost(point: Sequence[int]) -> Cost:
        entries = [row[x] for row, x in zip(scaled, point, strict=True)]
        return Cost.infinite() if None in entries else Cost(Fraction(sum(entries), scale))

    return cost


def additive_oracle(instance: Instance) -> CostOracle:
    """Sum of per-type entries; the bridge between matrix and query worlds."""
    return CostOracle(_matrix_cost(instance), instance.type_count, instance.outcome_count)


def overhead_cost_oracle(instance: Instance, activation_cost) -> CostOracle:
    """Additive costs plus a flat charge whenever any type leaves the bottom
    outcome — a minimal submodular-but-not-additive example."""
    c0 = Cost(activation_cost)
    n, m = instance.type_count, instance.outcome_count
    if any(None in row for row in instance.costs.scaled):
        raise ValueError("overhead oracle needs finite cost entries")
    matrix_cost = _matrix_cost(instance)

    def evaluate(point: Sequence[int]) -> Cost:
        total = matrix_cost(point)
        return total + c0 if any(point) else total

    return CostOracle(evaluate, n, m)


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
    return CostOracle(
        lambda point: table[lattice_index(point, outcome_count)],
        type_count,
        outcome_count,
    )


def _memoized(oracle: CostOracle) -> CostOracle:
    """Dict-backed shim so iterative solvers pay each value query once."""
    cache: dict[tuple, Cost] = {}

    def lookup(point):
        got = cache.get(point)
        if got is None:
            got = oracle(point)
            cache[point] = got
        return got

    return CostOracle(lookup, oracle.type_count, oracle.outcome_count)


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
    """Whoever can claim to be another must sit at least as high (a
    reflexive pair always holds, so only the claims are read)."""
    return all(point[a] >= point[b] for a, b in relation.claims)


# ---------------------------------------------------------------------------
# Marginal profiles and chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainDistribution:
    """A distribution over a totally ordered set of outcome vectors,
    listed in coordinatewise-ascending order; each probability is read by
    ``exact_rational``."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(map(exact_rational, self.probs)))

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
    if total != 1:
        problems.append(f"probabilities sum to {total}, expected 1")
    if any(p < 0 for p in dist.probs):
        problems.append("negative probability")
    for a, b in zip(dist.support, dist.support[1:]):
        if not all(x <= y for x, y in zip(a, b)):
            problems.append(f"support not ascending: {a} then {b}")
    return problems


def _exact_profile(profile) -> list[list]:
    """The profile's rows read by ``exact_rational``, checked: equally long,
    nonnegative, each summing to exactly 1."""
    rows = [list(map(exact_rational, row)) for row in profile]
    if not rows or not rows[0]:
        raise ValueError("empty marginal profile")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        if any(p < 0 for p in row):
            raise ValueError(f"row {i} has a negative marginal")
        total = sum(row)
        if total != 1:
            raise ValueError(f"row {i} sums to {total}, expected 1")
    return rows


def _chain(rows):
    """The maximal chain through a profile: (points, leaders, masses).

    Every type starts at the top outcome.  Each step moves the type with the
    smallest tail sum ``sum(row[k:])`` at its current outcome ``k`` (the
    leader; ties go to the lowest index) down one outcome; after
    ``n * (m - 1)`` steps all sit at the bottom.  A heap of ``(tail sum,
    type)`` finds the leaders in O(n·m log n); a type at the bottom waits at
    infinity.  Outcomes without mass are walked too.  A point's mass is the
    leader's tail sum on leaving it minus the one on reaching it (the bottom
    point closes at the smallest row sum), so the points with positive mass
    are the quantile coupling of the rows under one shared uniform draw.
    """
    n, m = len(rows), len(rows[0])
    tails = [list(itertools.accumulate(reversed(row)))[::-1] for row in rows]
    tops = [m - 1] * n
    heap = sorted((tail[-1], i) for i, tail in enumerate(tails))
    points, leaders, masses = [tuple(tops)], [], []
    reached = 0
    for _ in range(n * (m - 1)):
        left, leader = heap[0]
        masses.append(left - reached)
        reached = left
        tops[leader] -= 1
        tail = tails[leader][tops[leader]] if tops[leader] else math.inf
        heapq.heapreplace(heap, (tail, leader))
        leaders.append(leader)
        points.append(tuple(tops))
    masses.append(min(tail[0] for tail in tails) - reached)
    return points, leaders, masses


def interpret_marginals(profile) -> ChainDistribution:
    """The unique non-crossing distribution with the given marginals.

    Keeps the points of the profile's maximal chain that carry mass, which
    realizes every type's marginal as the quantile coupling under one shared
    uniform draw; the support is a chain of at most ``n * m`` vectors.
    Float entries are read at their decimal value, so each row must sum to
    exactly 1 as written.
    """
    points, _, masses = _chain(_exact_profile(profile))
    kept = [(pt, p) for pt, p in zip(points, masses) if p > 0]
    kept.reverse()
    dist = ChainDistribution(
        tuple(pt for pt, _ in kept), tuple(p for _, p in kept)
    )
    problems = chain_violations(dist)
    if problems:
        raise SelfCheckError("peel produced a bad chain: " + "; ".join(problems))
    return dist


def _dist_items(dist) -> list:
    """``(point, probability)`` pairs, each probability read by ``exact_rational``."""
    if isinstance(dist, ChainDistribution):
        return dist.items()
    return [(tuple(pt), exact_rational(p)) for pt, p in dist]


def chain_cost(dist, oracle: CostOracle) -> Cost:
    """Expected oracle cost of a distribution over outcome vectors.

    Exact: zero-probability entries cannot contribute an infinity.
    """
    total = Cost(0)
    for point, p in _dist_items(dist):
        if p:
            total = total + oracle(point).scaled(p)
    return total


def objective_subgradient(profile, oracle: CostOracle) -> list[list[Fraction]]:
    """A subgradient of ``p -> chain_cost(interpret_marginals(p), oracle)``.

    The greedy vertex of the full maximal chain through the profile, exact:
    the gradient inside a linearity region, a valid subgradient on its
    boundary and on the boundary of the simplices.  Raises ``ValueError``
    when the oracle returns an infinite value along the chain.
    """
    exact = _integral(_exact_profile(profile))
    grad, den = _peel_with_gradient(exact, _memoized(oracle))[1]
    return [[Fraction(x, den) for x in row] for row in grad]


def _peel_with_gradient(profile, oracle: CostOracle):
    """Exact peel along the walk of ``_chain``: (value, gradient, walk, the
    oracle's values on the walk), profile and gradient as ``_integral`` pairs.

    The chain walks outcomes without mass too, so every coordinate
    ``(i, j)`` collects the marginals ``f(x) - f(x - e_i)`` of all leader
    steps of type ``i`` at levels ``1..j`` (one prefix sum per row, over the
    values' lcm): the greedy vertex ``g``, a subgradient of the extension
    everywhere on the product of simplices, boundary included, with
    ``g[i][0] == 0``.  Summing the chain by parts gives the value
    ``f(bottom) + <g, rows>``; for a submodular cost ``f(bottom) + <g, q>``
    bounds the extension at every profile ``q`` from below.
    """
    points, leaders, _ = walk = _chain(profile[0])
    costs = [_finite_value(oracle, point) for point in points]
    den = math.lcm(*(c.denominator for c in costs))
    nums = [c.numerator * (den // c.denominator) for c in costs]
    steps = [[0] * len(row) for row in profile[0]]
    for leader, point, high, low in zip(leaders, points, nums, nums[1:]):
        steps[leader][point[leader]] = high - low
    grad = _integral([list(itertools.accumulate(row)) for row in steps], den)
    return costs[-1] + _inner(grad, profile), grad, walk, costs


def _finite_value(oracle: CostOracle, point) -> Fraction:
    value = oracle(point).value
    if value is None:
        raise ValueError(f"oracle value at {point} is infinite; the query-model "
                         "solvers need finite values along the chain")
    return value


def _integral(rows, den=1):
    """Rational rows over ``den`` as ``(int rows, denominator)`` in lowest terms."""
    lcm = math.lcm(*(x.denominator for row in rows for x in row))
    rows = [[x.numerator * (lcm // x.denominator) for x in row] for row in rows]
    g = math.gcd(den * lcm, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den * lcm // g


def _inner(a, b) -> Fraction:
    """``<a, b>`` for two ``_integral`` pairs."""
    return Fraction(sum(x * y for u, v in zip(a[0], b[0]) for x, y in zip(u, v)), a[1] * b[1])


def _truthful_flags(points, leaders, relation: ReportingRelation) -> list[bool]:
    """``in_truthful_lattice`` at each point of a walk of ``_chain``, from a
    count of violated claims: none at the top, and the step lowering type
    ``i`` from ``k`` breaks each claim ``(i, b)`` with ``b`` at ``k`` and
    mends each ``(a, i)`` with ``a`` at ``k - 1``."""
    claimed, claimants = [[] for _ in points[0]], [[] for _ in points[0]]
    for a, b in relation.claims:
        claimed[a].append(b)
        claimants[b].append(a)
    violated, flags = 0, [True]
    for i, point in zip(leaders, points):
        k = point[i]
        violated += sum(point[b] == k for b in claimed[i])
        violated -= sum(point[a] == k - 1 for a in claimants[i])
        flags.append(not violated)
    return flags


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
    before_cost = chain_cost(list(masses.items()), oracle) if oracle else None

    steps = 0
    while True:
        support = sorted(masses, key=lambda pt: (sum(pt), pt), reverse=True)
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
        gain = q * (sum(lo) ** 2 + sum(hi) ** 2 - sum(a) ** 2 - sum(b) ** 2)
        if not gain > 0:
            raise SelfCheckError("uncrossing step failed to increase the potential")
        for pt in (a, b):
            masses[pt] -= q
            if not masses[pt]:
                del masses[pt]
        for pt in (lo, hi):
            masses[pt] = masses.get(pt, 0) + q

    ordered = sorted(masses.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    result = ChainDistribution(
        tuple(pt for pt, _ in ordered), tuple(p for _, p in ordered)
    )
    problems = chain_violations(result)
    if problems:
        raise SelfCheckError("uncrossing produced a bad chain: " + "; ".join(problems))
    if oracle is not None:
        after_cost = chain_cost(result, oracle)
        if after_cost > before_cost:
            raise SelfCheckError("uncrossing raised the expected cost")
    return result


# ---------------------------------------------------------------------------
# Binary determinization
# ---------------------------------------------------------------------------

def determinize_binary(
    dist, relation: ReportingRelation, oracle: CostOracle
) -> tuple[DeterministicMechanism, Cost]:
    """For two outcomes: round a truthful distribution by its marginals.

    The marginals' quantile coupling (``interpret_marginals``) rounds every
    type at once with one shared uniform draw; its points are truthful
    deterministic mechanisms whose expected cost is the coupled cost, so the
    cheapest one costs no more.  Returns that cheapest mechanism, the first
    from the top on ties, with its exact cost; the all-top vector is always
    a candidate, even when a marginal of 0 leaves it without mass.
    """
    if oracle.outcome_count != 2:
        raise ValueError("binary determinization needs exactly two outcomes")
    n = oracle.type_count
    marginals = [0] * n
    for point, p in _dist_items(dist):
        for i, x in enumerate(point):
            if x:
                marginals[i] = marginals[i] + p

    for a, b in relation.pairs:
        if a == b:
            continue
        if marginals[b] > marginals[a]:
            raise ValueError(
                f"distribution is not marginally truthful on pair ({a}, {b})"
            )

    points = interpret_marginals([[1 - u, u] for u in marginals]).support[::-1]
    if points[0] != (1,) * n:
        points = ((1,) * n, *points)
    best_mech = best_cost = None
    for point in points:
        if not in_truthful_lattice(point, relation):
            raise SelfCheckError("a coupled point left the truthful lattice")
        cost = oracle(point)
        if best_cost is None or cost < best_cost:
            best_cost, best_mech = cost, DeterministicMechanism(point)
    return best_mech, best_cost


# ---------------------------------------------------------------------------
# Deterministic solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmodularDeterministicSolution:
    point: tuple[int, ...]
    cost: Cost
    iterations: int = 0
    gap: Fraction = Fraction(0)  # cost minus a lower bound on the optimum


def solve_deterministic_submodular(
    oracle: CostOracle,
    relation: ReportingRelation,
    backend: str = "lovasz",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    max_iters: int = DEFAULT_ITERATION_CAP,
) -> SubmodularDeterministicSolution:
    """Cheapest truthful outcome vector for a (submodular) oracle cost.

    ``brute`` queries every truthful vector of ``oracle.py``'s enumerator
    (exact for any oracle, exponential).
    ``lovasz`` minimizes the threshold extension of the cost over the order
    polytope with the double oracle of ``_double_oracle``, whose linear
    oracle is ``solve_deterministic`` on the outcome ladder ``range(m)``.
    Every peel chain is searched for its cheapest truthful vector; ``gap``
    is the cheapest cost found minus the exact lower bound, which for a
    submodular oracle is at most the optimum.  The search stops at
    ``gap <= 0``, which proves the returned vector optimal.
    """
    n, m = oracle.type_count, oracle.outcome_count
    if backend == "brute":
        best = best_cost = None  # the constant vectors are always truthful
        for point in enumerate_truthful_deterministic(m, relation, budget):
            c = oracle(point)
            if best_cost is None or c < best_cost:
                best_cost, best = c, point
        return SubmodularDeterministicSolution(best, best_cost)

    if backend != "lovasz":
        raise ValueError(f"unknown backend {backend!r}")

    oracle = _memoized(oracle)
    state = {"point": None, "cost": None}
    reflexive = ReportingRelation(n, relation.pairs | {(i, i) for i in range(n)})

    def upper(profile, value, walk, costs):
        points, leaders, _ = walk
        for point, c, truthful in zip(points, costs, _truthful_flags(points, leaders, relation)):
            if truthful and (state["cost"] is None or c < state["cost"]):
                state["point"], state["cost"] = point, c
        return state["cost"]

    def cut(grad):
        instance, shift = _linear_instance(OutcomeSpace(range(m)), reflexive, grad)
        solution = solve_deterministic(instance)
        rows = tuple(
            tuple(int(j == x) for j in range(m)) for x in solution.mechanism.assignment
        )
        return rows, shift + solution.cost.value

    best, lower, iterations = _double_oracle(oracle, cut, upper, 0, max_iters)
    return SubmodularDeterministicSolution(
        state["point"], Cost(best), iterations, best - lower
    )


# ---------------------------------------------------------------------------
# Randomized solver (convex program over marginal profiles)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmodularRandomizedSolution:
    chain: ChainDistribution
    cost: Cost
    converged: bool
    gap_estimate: Fraction
    iterations: int
    backend: str


def solve_randomized_submodular(
    oracle: CostOracle,
    outcomes: OutcomeSpace,
    relation: ReportingRelation,
    eps: float = 1e-3,
    max_iters: int = DEFAULT_ITERATION_CAP,
) -> SubmodularRandomizedSolution:
    """Cheapest truthful marginal profile for a submodular oracle cost.

    Minimizes the chain-greedy extension over profiles whose expected
    utilities dominate along the misreport relation with the double oracle
    of ``_double_oracle``, whose linear oracle is ``solve_randomized`` on the
    outcome ladder.  ``gap_estimate`` is the exact gap between the returned
    chain's cost and a lower bound on the optimum; ``converged`` means it is
    at most ``eps / 2``.  The returned chain realizes the best profile found,
    which is checked to be marginally truthful and to cost exactly its
    upper bound.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if len(outcomes.utilities) != oracle.outcome_count:
        raise ValueError("outcome ladder does not match the oracle's width")
    oracle = _memoized(oracle)
    state = {"profile": None, "value": None}
    n = oracle.type_count
    reflexive = ReportingRelation(n, relation.pairs | {(i, i) for i in range(n)})

    def upper(profile, value, walk, costs):
        if state["value"] is None or value < state["value"]:
            state["profile"], state["value"] = profile, value
        return state["value"]

    def cut(grad):
        instance, shift = _linear_instance(outcomes, reflexive, grad)
        solution = solve_randomized(instance)
        return solution.mechanism.rows, shift + solution.cost.value

    best, lower, iterations = _double_oracle(oracle, cut, upper, eps / 2, max_iters)

    rows, den = state["profile"]
    profile = [[Fraction(x, den) for x in row] for row in rows]
    means = [sum(p * u for p, u in zip(row, outcomes.utilities)) for row in profile]
    for a, b in relation.pairs:
        if means[b] > means[a]:
            raise SelfCheckError("solution violates marginal truthfulness")
    chain = interpret_marginals(profile)
    cost = chain_cost(chain, oracle)
    if cost != Cost(best):
        raise SelfCheckError(f"chain cost {cost} differs from its bound {best}")
    gap = best - lower
    return SubmodularRandomizedSolution(
        chain, cost, gap <= eps / 2, gap, iterations, "double-oracle"
    )


def _linear_instance(outcomes: OutcomeSpace, relation: ReportingRelation, grad):
    """The cut instance minimizing ``<grad, q>`` over lotteries ``q``.

    Each row of ``grad`` (an ``_integral`` pair) is shifted by its minimum
    so that the costs are nonnegative; a lottery's rows sum to one, so
    ``<grad, q>`` is the cut's cost plus the returned total shift.
    """
    rows, den = grad
    shifts = [min(row) for row in rows]
    shifted, scale = _integral([[x - s for x in row] for row, s in zip(rows, shifts)], den)
    instance = Instance(outcomes, relation, CostMatrix.from_scaled(shifted, scale))
    return instance, Fraction(sum(shifts), den)


def _double_oracle(oracle: CostOracle, cut: Callable, upper: Callable, tol, max_iters: int):
    """Exact double oracle for ``min over P of f̂`` (McMahan, Gordon & Blum 2003).

    ``f̂`` is the chain-greedy extension and ``P`` a polytope of marginal
    profiles given by its linear oracle: ``cut(grad)`` returns a vertex ``q``
    of ``P`` minimizing ``<grad, q>`` and that minimum.  The loop keeps the
    peel's greedy vertices ``g_k`` and the cut's vertices ``q_l`` and plays
    the zero-sum game ``M[k][l] = <g_k, q_l>`` between them:

    * the peel at the column player's mix ``p̄`` of the ``q_l`` (a point of
      ``P``) gives ``f̂(p̄)`` and a new ``g``; ``upper(p̄, f̂(p̄), walk,
      values)`` returns the best upper bound so far;
    * the cut at the row player's mix ``ḡ`` of the ``g_k`` gives a new ``q``
      and, for a submodular cost, the lower bound ``f(bottom) + <ḡ, q>``,
      since ``f̂ >= f(bottom) + <g_k, .>`` for every ``k``.

    Both bounds hold for any mixes and are exact; profiles, gradients and
    vertices are ``_integral`` pairs.  When neither oracle finds a new
    vertex the restricted game's value closes the gap, so the loop stops at
    ``upper - lower <= tol`` after finitely many rounds; ``max_iters`` caps
    them.  Returns ``(upper, lower, rounds)``.  A lower bound above the
    upper one proves the cost not submodular and raises ``SelfCheckError``.
    """
    n, m = oracle.type_count, oracle.outcome_count
    bottom = _finite_value(oracle, (0,) * n)
    grads, points = [], [(((1,) * m,) * n, m)]  # the uniform profile
    game = []  # game[k][l] = <grads[k], points[l]>
    mix = [Fraction(1)]
    best = lower = None
    rounds = 0
    while rounds < max_iters:
        rounds += 1
        profile = _mix(mix, points)
        value, grad, walk, costs = _peel_with_gradient(profile, oracle)
        best = upper(profile, value, walk, costs)
        if lower is not None and best - lower <= tol:
            break
        if grad not in grads:
            grads.append(grad)
            game.append([_inner(grad, q) for q in points])
        weights, _ = _solve_game(game)
        q, found = cut(_mix(weights, grads))
        lower = bottom + found if lower is None else max(lower, bottom + found)
        if best - lower <= tol:
            break
        q = _integral(q)
        if q not in points:
            points.append(q)
            for g, row in zip(grads, game):
                row.append(_inner(g, q))
        _, mix = _solve_game(game)
    if lower is not None and lower > best:
        raise SelfCheckError(
            f"lower bound {lower} exceeds the cost {best}: the oracle is not submodular"
        )
    return best, lower, rounds


def _mix(weights, profiles):
    """The convex combination ``sum(w * p)`` of equally shaped ``_integral``
    pairs with rational weights, as an ``_integral`` pair."""
    terms = [(w, rows, den) for w, (rows, den) in zip(weights, profiles) if w]
    den = math.lcm(*(w.denominator * d for w, _, d in terms))
    out = [[0] * len(row) for row in profiles[0][0]]
    for w, rows, d in terms:
        w = w.numerator * (den // (w.denominator * d))
        for total, row in zip(out, rows):
            for j, x in enumerate(row):
                total[j] += w * x
    return _integral(out, den)


def _solve_game(game):
    """Optimal mixed strategies ``(rows, columns)`` of the zero-sum game in
    which the row player receives ``game[k][l]``: exact, by the simplex
    method with Bland's rule on ``max sum(y) s.t. A y <= 1, y >= 0``, where
    ``A`` is the game shifted to be positive.  The optimal ``y`` scaled to
    sum one is the column player's strategy, and the duals of the ``K``
    constraints, scaled alike, the row player's.  Each constraint is scaled
    by the lcm ``s`` of the game's denominators, and the pivots are
    fraction-free (Bareiss 1968): every update divides exactly by the last
    pivot, and the ratio test cross-multiplies, so the pivots are those over
    ``Fraction``s, with the duals divided by ``s``.
    """
    K, L = len(game), len(game[0])
    scale = math.lcm(*(x.denominator for row in game for x in row))
    scaled = [[x.numerator * (scale // x.denominator) for x in row] for row in game]
    shift = scale - min(map(min, scaled))
    tableau = [[x + shift for x in row] + [int(r == k) for r in range(K)] + [scale]
               for k, row in enumerate(scaled)]
    objective = [-1] * L + [0] * (K + 1)
    basis = list(range(L, L + K))
    last = 1
    while True:
        enter = next((j for j in range(L + K) if objective[j] < 0), None)
        if enter is None:
            break
        # A is positive, so the program is bounded and some row limits the
        # entering column; the least ratio wins, then the least basic index.
        limits = [r for r in range(K) if tableau[r][enter] > 0]
        leave = limits[0]
        for r in limits[1:]:
            ahead = tableau[r][-1] * tableau[leave][enter] - tableau[leave][-1] * tableau[r][enter]
            if ahead < 0 or ahead == 0 and basis[r] < basis[leave]:
                leave = r
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for row in tableau + [objective]:
            if row is not pivot_row:
                factor = row[enter]
                row[:] = [(pivot * x - factor * y) // last for x, y in zip(row, pivot_row)]
        basis[leave] = enter
        last = pivot
    total = objective[-1]
    columns = [Fraction(0)] * L
    for r, b in enumerate(basis):
        if b < L:
            columns[b] = Fraction(tableau[r][-1], total)
    return [Fraction(scale * x, total) for x in objective[L:L + K]], columns


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
        return overhead_cost_oracle(instance, rational_from_json(payload["c0"]))
    if kind == "table":
        values = [cost_from_json(v) for v in payload["values"]]
        return table_oracle(values, instance.type_count, instance.outcome_count)
    raise ValueError(f"unknown oracle kind {kind!r}")


def chain_to_json(dist: ChainDistribution) -> dict:
    return {
        "support": [
            {"vector": list(pt), "prob": rational_to_json(p)}
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
