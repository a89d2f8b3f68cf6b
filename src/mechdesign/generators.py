"""Instance constructors: worked examples, hardness reductions, random families.

The two MinSAT reductions build screening instances whose optimal cost
tracks the minimum number of satisfiable clauses of a CNF formula — one by
dropping transitivity of the misreport relation, one by giving each type its
own (single-peaked) ranking of three outcomes.  Both are exercised against
exhaustive MinSAT in the test suite.  Value-query cost oracles over these
instances (additive, overhead, table) live in ``submodular``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .instances import (
    Cost,
    CostMatrix,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    transitive_closure,
)


# ---------------------------------------------------------------------------
# CNF formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula in DIMACS convention: literal ``k`` (1-based) is the
    positive literal of variable ``k``, ``-k`` its negation."""

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, var_count: int, clauses: Iterable[Iterable[int]]):
        object.__setattr__(self, "var_count", int(var_count))
        object.__setattr__(
            self, "clauses", tuple(tuple(int(l) for l in clause) for clause in clauses)
        )

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


def formula_violations(formula: CnfFormula) -> list[str]:
    problems = []
    if formula.var_count < 1:
        problems.append("formula declares no variables")
    if not formula.clauses:
        problems.append("formula has no clauses")
    for idx, clause in enumerate(formula.clauses):
        if not clause:
            problems.append(f"clause {idx} is empty")
        for lit in clause:
            if lit == 0 or abs(lit) > formula.var_count:
                problems.append(f"clause {idx} has out-of-range literal {lit}")
    return problems


def parse_dimacs(text: str) -> CnfFormula:
    """Read a DIMACS CNF file body."""
    var_count = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            var_count = int(fields[2])
            declared_clauses = int(fields[3])
            continue
        if var_count is None:
            raise ValueError("clause data before the DIMACS header")
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("last clause is not 0-terminated")
    if var_count is None:
        raise ValueError("missing DIMACS header")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise ValueError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    formula = CnfFormula(var_count, clauses)
    problems = formula_violations(formula)
    if problems:
        raise ValueError("invalid formula: " + "; ".join(problems))
    return formula


def format_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.var_count} {formula.clause_count}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Worked example with a deterministic/randomized gap
# ---------------------------------------------------------------------------

def gap_instance() -> Instance:
    """Two types, three outcomes, everyone can claim anything.

    Type 0 is free exactly at the middle outcome; type 1 is free exactly at
    the two extremes.  Randomization gets total cost zero (type 1 mixes the
    extremes half-and-half, matching the middle outcome's utility), while
    every truthful deterministic mechanism pays an infinite entry.
    """
    inf = Cost.infinite()
    return Instance(
        OutcomeSpace([1, 2, 3]),
        ReportingRelation.full(2),
        CostMatrix([[inf, Cost(0), inf], [Cost(0), inf, Cost(0)]]),
    )


# ---------------------------------------------------------------------------
# MinSAT reductions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionLayout:
    """Type-index bookkeeping for the MinSAT reductions.

    Types are laid out as: variables, then literal pairs (positive before
    negative, grouped per variable), then clauses.
    """

    var_count: int
    clause_count: int

    @property
    def type_count(self) -> int:
        return 3 * self.var_count + self.clause_count

    def variable(self, k: int) -> int:
        return k

    def pos_literal(self, k: int) -> int:
        return self.var_count + 2 * k

    def neg_literal(self, k: int) -> int:
        return self.var_count + 2 * k + 1

    def literal(self, lit: int) -> int:
        """Type index for a DIMACS-signed literal."""
        k = abs(lit) - 1
        return self.pos_literal(k) if lit > 0 else self.neg_literal(k)

    def clause(self, j: int) -> int:
        return 3 * self.var_count + j


def _checked(formula: CnfFormula) -> CnfFormula:
    problems = formula_violations(formula)
    if problems:
        raise ValueError("invalid formula: " + "; ".join(problems))
    return formula


def minsat_reduction_nontransitive(formula: CnfFormula) -> Instance:
    """Two outcomes, common utility, intentionally non-transitive relation.

    Variables must end up holding the high outcome somewhere in their gadget
    (a big penalty otherwise), which forces one literal per variable high;
    a clause type can reach the high outcome — costing one — exactly when
    one of its literals holds it.  The cheapest mechanism under
    best-response play therefore pays the minimum number of satisfiable
    clauses.
    """
    formula = _checked(formula)
    layout = ReductionLayout(formula.var_count, formula.clause_count)
    n = layout.type_count
    penalty = formula.clause_count + 1

    rows: list[list] = [None] * n
    pairs: list[tuple[int, int]] = [(i, i) for i in range(n)]
    for k in range(formula.var_count):
        rows[layout.variable(k)] = [penalty, 0]
        rows[layout.pos_literal(k)] = [0, 0]
        rows[layout.neg_literal(k)] = [0, 0]
        pairs.append((layout.variable(k), layout.pos_literal(k)))
        pairs.append((layout.variable(k), layout.neg_literal(k)))
    for j, clause in enumerate(formula.clauses):
        rows[layout.clause(j)] = [0, 1]
        for k in range(formula.var_count):
            pairs.append((layout.clause(j), layout.variable(k)))
        for lit in set(clause):
            pairs.append((layout.clause(j), layout.literal(lit)))

    return Instance(
        OutcomeSpace([0, 1]),
        ReportingRelation(n, pairs),
        CostMatrix(rows),
    )


@dataclass(frozen=True)
class ReductionParams:
    """Price scales for the single-peaked reduction.

    ``block_cost`` makes the middle outcome prohibitive for variable types;
    ``commit_cost`` is the unavoidable per-variable charge for committing to
    a truth value.  Soundness needs ``commit_cost`` above the clause count
    and ``block_cost`` above ``var_count * commit_cost + clause_count``.
    """

    block_cost: Fraction
    commit_cost: Fraction

    def __init__(self, block_cost, commit_cost):
        object.__setattr__(self, "block_cost", Fraction(block_cost))
        object.__setattr__(self, "commit_cost", Fraction(commit_cost))

    def violations(self, formula: CnfFormula) -> list[str]:
        problems = []
        if not self.commit_cost > formula.clause_count:
            problems.append(
                f"commit_cost {self.commit_cost} must exceed the clause count "
                f"{formula.clause_count}"
            )
        if not self.block_cost > formula.var_count * self.commit_cost + formula.clause_count:
            problems.append(
                f"block_cost {self.block_cost} must exceed "
                f"var_count * commit_cost + clause_count"
            )
        return problems


def default_reduction_params(formula: CnfFormula) -> ReductionParams:
    commit = Fraction(formula.clause_count + 1)
    block = Fraction(formula.var_count) * commit * formula.clause_count + formula.clause_count + 1
    return ReductionParams(block, commit)


@dataclass(frozen=True)
class PerTypeUtilityInstance:
    """An instance whose types rank outcomes individually.

    The wrapped ``instance`` carries placeholder common utilities (only the
    outcome order matters to it); ``utilities`` holds one row per type, and
    truthfulness must be judged against those rows.
    """

    instance: Instance
    utilities: tuple


def minsat_reduction_single_peaked(
    formula: CnfFormula, params: ReductionParams | None = None
) -> PerTypeUtilityInstance:
    """Three outcomes (low, middle, high) and per-type single-peaked utilities.

    Literal types point toward one extreme, clause types peak at the middle,
    variable types are indifferent.  Every variable forces exactly one of
    its literals away from the middle outcome (the commit charge); a clause
    must take the middle outcome — costing one — exactly when one of its
    literals holds it.  The truthful-deterministic optimum is
    ``var_count * commit_cost + minsat``.
    """
    formula = _checked(formula)
    if params is None:
        params = default_reduction_params(formula)
    problems = params.violations(formula)
    if problems:
        raise ValueError("bad reduction params: " + "; ".join(problems))

    layout = ReductionLayout(formula.var_count, formula.clause_count)
    n = layout.type_count
    block, commit = params.block_cost, params.commit_cost

    rows: list[list] = [None] * n
    utilities: list[tuple] = [None] * n
    pairs: list[tuple[int, int]] = [(i, i) for i in range(n)]
    flat = Fraction(1)
    for k in range(formula.var_count):
        rows[layout.variable(k)] = [0, block, 0]
        utilities[layout.variable(k)] = (flat, flat, flat)
        rows[layout.pos_literal(k)] = [block, 0, commit]
        utilities[layout.pos_literal(k)] = (Fraction(0), Fraction(1), Fraction(2))
        rows[layout.neg_literal(k)] = [commit, 0, block]
        utilities[layout.neg_literal(k)] = (Fraction(2), Fraction(1), Fraction(0))
        pairs.append((layout.pos_literal(k), layout.variable(k)))
        pairs.append((layout.neg_literal(k), layout.variable(k)))
    for j, clause in enumerate(formula.clauses):
        rows[layout.clause(j)] = [0, 1, 0]
        utilities[layout.clause(j)] = (Fraction(0), Fraction(1), Fraction(0))
        for lit in set(clause):
            pairs.append((layout.clause(j), layout.literal(lit)))
            pairs.append((layout.clause(j), layout.variable(abs(lit) - 1)))

    instance = Instance(
        OutcomeSpace([0, 1, 2]),
        ReportingRelation(n, pairs),
        CostMatrix(rows),
    )
    return PerTypeUtilityInstance(instance, tuple(utilities))


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------

def _random_relation(rng: random.Random, type_count: int, edge_density: float) -> list:
    pairs = [(i, i) for i in range(type_count)]
    for a in range(type_count):
        for b in range(type_count):
            if a != b and rng.random() < edge_density:
                pairs.append((a, b))
    return pairs


def random_instance(
    seed: int,
    type_count: int,
    outcome_count: int,
    edge_density: float,
    max_cost: int = 20,
    infinity_rate: float = 0.0,
    close_relation: bool = False,
) -> Instance:
    """Integer-cost random instance, deterministic in ``seed``.

    Draw order: relation pairs first (row-major over ordered type pairs),
    then cost entries (row-major), each entry drawing its value and then,
    when ``infinity_rate > 0``, its infinity flag.
    """
    rng = random.Random(seed)
    relation = ReportingRelation(
        type_count, _random_relation(rng, type_count, edge_density)
    )
    if close_relation:
        relation = transitive_closure(relation)
    rows = []
    for _ in range(type_count):
        row = []
        for _ in range(outcome_count):
            value = Cost(rng.randint(0, max_cost))
            if infinity_rate > 0 and rng.random() < infinity_rate:
                value = Cost.infinite()
            row.append(value)
        rows.append(row)
    return Instance(
        OutcomeSpace(range(outcome_count)),
        relation,
        CostMatrix(rows),
    )


def random_convex_instance(
    seed: int,
    type_count: int,
    outcome_count: int,
    edge_density: float,
    max_slope_step: int = 5,
) -> Instance:
    """Random instance whose rows are convex by construction: each row's
    slopes are drawn and then sorted ascending, and the whole row is lifted
    to keep costs nonnegative."""
    rng = random.Random(seed)
    relation = ReportingRelation(
        type_count, _random_relation(rng, type_count, edge_density)
    )
    rows = []
    for _ in range(type_count):
        slopes = sorted(
            rng.randint(-max_slope_step, max_slope_step)
            for _ in range(outcome_count - 1)
        )
        values = [0]
        for s in slopes:
            values.append(values[-1] + s)
        lift = max(0, -min(values)) + rng.randint(0, 3)
        rows.append([Cost(v + lift) for v in values])
    return Instance(
        OutcomeSpace(range(outcome_count)),
        relation,
        CostMatrix(rows),
    )

