"""Deliberately naive exhaustive solvers used as ground truth in tests.

Everything here favors obviousness over speed: recursive enumeration with
constraint pruning, full scans over assignment spaces, and exact ``Cost``
arithmetic throughout.  The polished solvers elsewhere in the package are
checked against these on small instances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .instances import Cost, Instance, ZERO_COST

DEFAULT_ENUMERATION_BUDGET = 10**7

# Hard cap for exhaustive MinSAT: 2**20 assignments.
MINSAT_VAR_LIMIT = 20


class BudgetExceededError(Exception):
    """The requested exhaustive search is larger than the allowed budget."""


def _check_budget(states: int, budget: int, what: str) -> None:
    if states > budget:
        raise BudgetExceededError(
            f"{what} needs {states} states, budget is {budget}"
        )


def _enumerate_with_pair_constraints(
    type_count: int,
    outcome_count: int,
    pairs: Sequence[tuple[int, int]],
    satisfied: Callable[[int, int, int], bool],
) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of assignments, pruning as soon as a
    constraint pair has both endpoints fixed.

    ``satisfied(a, ja, jb)`` decides whether truth-type ``a`` holding outcome
    ``ja`` has no reason to claim the type holding ``jb``.
    """
    by_later: list[list[tuple[int, int]]] = [[] for _ in range(type_count)]
    for a, b in pairs:
        if a != b:
            by_later[max(a, b)].append((a, b))

    assignment = [0] * type_count

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == type_count:
            yield tuple(assignment)
            return
        for j in range(outcome_count):
            assignment[i] = j
            ok = True
            for a, b in by_later[i]:
                if not satisfied(a, assignment[a], assignment[b]):
                    ok = False
                    break
            if ok:
                yield from extend(i + 1)

    yield from extend(0)


def enumerate_truthful_deterministic(
    outcome_count: int,
    relation,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """All deterministic truthful assignments under the common utility ladder.

    With a shared strictly increasing utility, truthfulness of an assignment
    is exactly outcome-index dominance along the relation: every type must
    sit at least as high as anyone it could claim to be.
    """
    _check_budget(outcome_count ** relation.type_count, budget, "enumeration")
    return _enumerate_with_pair_constraints(
        relation.type_count,
        outcome_count,
        sorted(relation.pairs),
        lambda a, ja, jb: ja >= jb,
    )


def _assignment_cost(instance: Instance, assignment: tuple[int, ...], cost_oracle) -> Cost:
    if cost_oracle is not None:
        return cost_oracle(assignment)
    total: Cost = ZERO_COST
    for i, j in enumerate(assignment):
        total = total + instance.costs.entry(i, j)
    return total


def brute_force_deterministic_opt(
    instance: Instance,
    cost_oracle=None,
    utilities: Sequence[Sequence[Fraction]] | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[Cost, tuple[int, ...] | None]:
    """Exact optimum over truthful deterministic assignments.

    ``cost_oracle`` (an outcome-vector cost function) replaces the additive
    matrix when given.  ``utilities`` switches truthfulness to per-type
    utility rows; by default the instance's common ladder applies.
    Returns ``(cost, argmin)``; the cost is infinite when every truthful
    assignment hits an infinite entry.
    """
    m, relation = instance.outcome_count, instance.relation
    if utilities is None:
        candidates = enumerate_truthful_deterministic(m, relation, budget)
    else:  # each type has its own utility row
        _check_budget(m**relation.type_count, budget, "enumeration")
        candidates = _enumerate_with_pair_constraints(
            relation.type_count, m, sorted(relation.pairs),
            lambda a, ja, jb: utilities[a][ja] >= utilities[a][jb],
        )
    best_cost: Cost | None = None
    best: tuple[int, ...] | None = None
    for assignment in candidates:
        c = _assignment_cost(instance, assignment, cost_oracle)
        if best_cost is None or c < best_cost:
            best_cost, best = c, assignment
    if best_cost is None:
        # The constant assignments are always truthful, so this only happens
        # for degenerate relations filtered out by validation.
        return Cost.infinite(), None
    return best_cost, best


def brute_force_envelope_opt(
    instance: Instance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[Cost, tuple[int, ...] | None]:
    """Exact randomized optimum via per-type convex envelopes plus enumeration.

    The cheapest truthful lottery profile always concentrates, per type, on
    an envelope segment; so the randomized optimum equals the cheapest
    truthful deterministic assignment measured in envelope costs.  This
    reimplements that reformulation with a full scan, independent of the
    cut-based solver.
    """
    from .envelope import convex_envelope

    rows = []
    for row in instance.costs.rows:
        if not any(c.is_finite for c in row):
            return Cost.infinite(), None
        rows.append(convex_envelope(row, instance.outcomes).values)
    return brute_force_deterministic_opt(
        instance, lambda a: sum((rows[i][j] for i, j in enumerate(a)), ZERO_COST), budget=budget
    )


def _best_response_outcome(
    instance: Instance,
    assignment: Sequence[int],
    type_index: int,
    utilities: Sequence[Sequence[Fraction]] | None,
) -> int:
    """Outcome the type ends up with after picking its favorite claim.

    Ties break toward honesty when honesty attains the maximum, otherwise
    toward the smallest claimable index.
    """
    reports = instance.relation.allowed_reports(type_index)
    if not reports:
        return assignment[type_index]
    if utilities is None:
        u_row = instance.outcomes.utilities
    else:
        u_row = utilities[type_index]
    best_value = max(u_row[assignment[r]] for r in reports)
    if type_index in reports and u_row[assignment[type_index]] == best_value:
        return assignment[type_index]
    for r in reports:
        if u_row[assignment[r]] == best_value:
            return assignment[r]
    raise AssertionError("unreachable")


def brute_force_best_response_opt(
    instance: Instance,
    utilities: Sequence[Sequence[Fraction]] | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[Cost, tuple[int, ...] | None]:
    """Cheapest assignment when types play best responses (no truthfulness
    requirement on the mechanism itself).

    Scans every assignment of outcomes to types; for each, every type claims
    the report maximizing its utility and the principal pays for the outcome
    actually handed out.
    """
    n, m = instance.type_count, instance.outcome_count
    _check_budget(m ** n, budget, "best-response scan")

    best_cost: Cost | None = None
    best: tuple[int, ...] | None = None
    assignment = [0] * n

    def scan(i: int) -> None:
        nonlocal best_cost, best
        if i == n:
            total: Cost = ZERO_COST
            for t in range(n):
                j = _best_response_outcome(instance, assignment, t, utilities)
                total = total + instance.costs.entry(t, j)
            if best_cost is None or total < best_cost:
                best_cost, best = total, tuple(assignment)
            return
        for j in range(m):
            assignment[i] = j
            scan(i + 1)

    scan(0)
    assert best_cost is not None
    return best_cost, best


def minsat_brute(formula) -> int:
    """Minimum number of satisfied clauses over all truth assignments."""
    if formula.var_count > MINSAT_VAR_LIMIT:
        raise BudgetExceededError(
            f"minsat_brute handles at most {MINSAT_VAR_LIMIT} variables, "
            f"got {formula.var_count}"
        )
    pos_masks = []
    neg_masks = []
    for clause in formula.clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        pos_masks.append(pos)
        neg_masks.append(neg)

    full = (1 << formula.var_count) - 1
    best = len(formula.clauses)
    for truth in range(1 << formula.var_count):
        flipped = truth ^ full
        satisfied = 0
        for pos, neg in zip(pos_masks, neg_masks):
            if truth & pos or flipped & neg:
                satisfied += 1
        if satisfied < best:
            best = satisfied
            if best == 0:
                break
    return best
