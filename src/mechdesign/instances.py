"""Core data model for assignment-mechanism instances.

An instance describes a screening setting: a ladder of outcomes that every
type values the same way (strictly increasing common utilities), a reflexive
relation listing which types can pass themselves off as which others, and the
principal's cost for granting each type each outcome.  Mechanisms map types to
outcomes, either deterministically or through per-type lotteries.

All quantities are exact ``Fraction``s.  Infinite cost entries are
first-class: ``Cost`` saturates under addition, so an expected cost is
infinite exactly when positive probability lands on an infinite entry.
Truthfulness comparisons are exact on rational data; mechanisms holding
floats (produced by the numeric solvers) are compared with an absolute
tolerance of ``FLOAT_UTILITY_TOL``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Literal, Sequence, Union

# Absolute slack used for truthfulness comparisons when a mechanism carries
# floating-point probabilities; exact (rational) mechanisms use no slack.
FLOAT_UTILITY_TOL = 1e-12

# Randomized rows must sum to one within this absolute tolerance (floats);
# rational rows must sum to one exactly.
ROW_SUM_TOL = 1e-12

Numeric = Union[int, Fraction]


class SelfCheckError(RuntimeError):
    """An internal consistency check failed; results must not be trusted."""


class Cost:
    """A nonnegative exact cost, possibly infinite.

    ``Cost(q)`` wraps a nonnegative rational; ``Cost.infinite()`` (spelled
    ``Cost(float("inf"))`` if preferred) is the absorbing element for
    addition and the maximum for comparisons.  Instances are immutable by
    convention and hashable.
    """

    __slots__ = ("value",)

    _INF: "Cost" = None  # set right after the class body

    def __init__(self, value=0):
        if isinstance(value, Cost):
            self.value = value.value
            return
        if isinstance(value, float) and math.isinf(value):
            if value < 0:
                raise ValueError("cost must be nonnegative, got -inf")
            self.value = None
            return
        v = value if isinstance(value, Fraction) else Fraction(value)
        if v < 0:
            raise ValueError(f"cost must be nonnegative, got {v}")
        self.value = v

    @classmethod
    def infinite(cls) -> "Cost":
        return cls._INF

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @property
    def finite(self) -> Fraction:
        if self.value is None:
            raise ValueError("infinite cost has no finite value")
        return self.value

    @staticmethod
    def _coerce(other) -> "Cost":
        if isinstance(other, Cost):
            return other
        if isinstance(other, (int, Fraction)):
            return Cost(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.value is None or other.value is None:
            return Cost._INF
        return Cost(self.value + other.value)

    __radd__ = __add__

    def scaled(self, factor) -> "Cost":
        """Return ``factor * self`` for a nonnegative exact factor.

        Floats are converted exactly (binary expansion), keeping the result
        an exact rational.  Scaling infinity by a positive factor stays
        infinite; scaling by zero is rejected because callers are expected
        to skip zero-probability terms outright.
        """
        f = Fraction(factor)
        if f < 0:
            raise ValueError("scale factor must be nonnegative")
        if f == 0:
            raise ValueError("refusing to scale by zero; skip the term instead")
        if self.value is None:
            return Cost._INF
        return Cost(self.value * f)

    def _cmp_key(self):
        # Infinity sorts above every finite value.
        return (1,) if self.value is None else (0, self.value)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp_key() <= other._cmp_key()

    def __gt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._cmp_key() < self._cmp_key()

    def __ge__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._cmp_key() <= self._cmp_key()

    def __hash__(self):
        return hash(("Cost", self.value))

    def __float__(self):
        return float("inf") if self.value is None else float(self.value)

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return f"Cost({self})"


_inf = object.__new__(Cost)
_inf.value = None
Cost._INF = _inf
del _inf

ZERO_COST = Cost(0)


@dataclass(frozen=True)
class OutcomeSpace:
    """The outcome ladder: one exact utility per outcome, shared by all types."""

    utilities: tuple[Fraction, ...]

    def __init__(self, utilities: Iterable):
        object.__setattr__(
            self, "utilities", tuple(Fraction(u) for u in utilities)
        )

    @property
    def size(self) -> int:
        return len(self.utilities)


@dataclass(frozen=True)
class ReportingRelation:
    """Who may claim to be whom: ordered pairs (true type, claimed type)."""

    type_count: int
    pairs: frozenset

    def __init__(self, type_count: int, pairs: Iterable):
        object.__setattr__(self, "type_count", int(type_count))
        object.__setattr__(
            self, "pairs", frozenset((int(a), int(b)) for a, b in pairs)
        )

    @classmethod
    def full(cls, type_count: int) -> "ReportingRelation":
        pairs = [(a, b) for a in range(type_count) for b in range(type_count)]
        return cls(type_count, pairs)

    @classmethod
    def identity(cls, type_count: int) -> "ReportingRelation":
        return cls(type_count, [(i, i) for i in range(type_count)])

    @cached_property
    def _reports_by_reporter(self) -> dict[int, list[int]]:
        reports: dict[int, list[int]] = {}
        for a, b in self.pairs:
            reports.setdefault(a, []).append(b)
        for claims in reports.values():
            claims.sort()
        return reports

    def allowed_reports(self, reporter: int) -> list[int]:
        return list(self._reports_by_reporter.get(reporter, ()))


@dataclass(frozen=True)
class CostMatrix:
    """Per-type, per-outcome principal costs (rows indexed by type)."""

    rows: tuple

    def __init__(self, rows: Iterable[Iterable]):
        frozen = tuple(
            tuple(entry if isinstance(entry, Cost) else Cost(entry) for entry in row)
            for row in rows
        )
        object.__setattr__(self, "rows", frozen)

    def entry(self, type_index: int, outcome_index: int) -> Cost:
        return self.rows[type_index][outcome_index]


@dataclass(frozen=True)
class Instance:
    """A complete problem instance: outcomes, misreport relation, costs."""

    outcomes: OutcomeSpace
    relation: ReportingRelation
    costs: CostMatrix

    @property
    def type_count(self) -> int:
        return len(self.costs.rows)

    @property
    def outcome_count(self) -> int:
        return self.outcomes.size


@dataclass(frozen=True)
class DeterministicMechanism:
    """Maps each type to one outcome index."""

    assignment: tuple[int, ...]

    def __init__(self, assignment: Iterable[int]):
        object.__setattr__(self, "assignment", tuple(int(j) for j in assignment))


@dataclass(frozen=True)
class RandomizedMechanism:
    """Maps each type to a lottery over outcomes (row per type)."""

    rows: tuple

    def __init__(self, rows: Iterable[Iterable]):
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))

    @classmethod
    def point_mass(cls, assignment: Sequence[int], outcome_count: int) -> "RandomizedMechanism":
        rows = []
        for j in assignment:
            row = [Fraction(0)] * outcome_count
            row[j] = Fraction(1)
            rows.append(row)
        return cls(rows)


Mechanism = Union[DeterministicMechanism, RandomizedMechanism]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(instance: Instance, include_degenerate: bool = True) -> list[str]:
    """Return a list of human-readable violations (empty when well-formed).

    Degenerate-row reports (a type whose every cost entry is infinite) are
    informational: such instances are still solvable and simply have an
    infinite optimum.  Pass ``include_degenerate=False`` to suppress them.
    """
    problems: list[str] = []
    outs = instance.outcomes.utilities
    m = len(outs)
    n = instance.type_count

    if m < 1:
        problems.append("outcome ladder is empty")
    for j, u in enumerate(outs):
        if u < 0:
            problems.append(f"outcome {j} has negative utility {u}")
    for j in range(1, m):
        if outs[j] <= outs[j - 1]:
            problems.append(
                f"outcome utilities not strictly increasing at position {j}"
            )

    if n < 1:
        problems.append("no types")
    if instance.relation.type_count != n:
        problems.append(
            f"relation declares {instance.relation.type_count} types, "
            f"cost matrix has {n} rows"
        )
    for a, b in instance.relation.pairs:
        if not (0 <= a < n and 0 <= b < n):
            problems.append(f"relation pair ({a}, {b}) out of range")
    for i in range(n):
        if (i, i) not in instance.relation.pairs:
            problems.append(f"relation is not reflexive: missing ({i}, {i})")

    for i, row in enumerate(instance.costs.rows):
        if len(row) != m:
            problems.append(
                f"cost row {i} has {len(row)} entries, expected {m}"
            )
        elif include_degenerate and m >= 1 and not any(c.is_finite for c in row):
            problems.append(f"degenerate: cost row {i} is entirely infinite")
    return problems


def hard_violations(instance: Instance) -> list[str]:
    """Violations that make an instance unsolvable (degenerate rows excluded)."""
    return validate(instance, include_degenerate=False)


def mechanism_violations(mech: Mechanism, instance: Instance) -> list[str]:
    """Shape and probability checks for a mechanism against an instance."""
    problems: list[str] = []
    n, m = instance.type_count, instance.outcome_count
    if isinstance(mech, DeterministicMechanism):
        if len(mech.assignment) != n:
            problems.append(
                f"assignment covers {len(mech.assignment)} types, expected {n}"
            )
        for i, j in enumerate(mech.assignment):
            if not (0 <= j < m):
                problems.append(f"type {i} assigned out-of-range outcome {j}")
        return problems

    if len(mech.rows) != n:
        problems.append(f"mechanism has {len(mech.rows)} rows, expected {n}")
    for i, row in enumerate(mech.rows):
        if len(row) != m:
            problems.append(f"row {i} has {len(row)} entries, expected {m}")
            continue
        exact = all(isinstance(p, (int, Fraction)) for p in row)
        total = sum(row)
        if any(p < 0 for p in row):
            problems.append(f"row {i} has a negative probability")
        if exact:
            if total != 1:
                problems.append(f"row {i} sums to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > ROW_SUM_TOL:
            problems.append(f"row {i} sums to {float(total)!r}, expected 1")
    return problems


# ---------------------------------------------------------------------------
# Relation algebra
# ---------------------------------------------------------------------------

def _adjacency_bits(relation: ReportingRelation) -> list[int]:
    rows = [0] * relation.type_count
    for a, b in relation.pairs:
        rows[a] |= 1 << b
    return rows


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_transitive(relation: ReportingRelation) -> bool:
    rows = _adjacency_bits(relation)
    for i in range(relation.type_count):
        reach = 0
        for j in _bits(rows[i]):
            reach |= rows[j]
        if reach & ~rows[i]:
            return False
    return True


def transitive_closure(relation: ReportingRelation) -> ReportingRelation:
    """Smallest transitive superset, computed over bitset rows.

    Reflexivity is preserved but never introduced: only paths through
    existing pairs are added.
    """
    n = relation.type_count
    rows = _adjacency_bits(relation)
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        if not rk:
            continue
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    pairs = [(i, j) for i in range(n) for j in _bits(rows[i])]
    return ReportingRelation(n, pairs)


# ---------------------------------------------------------------------------
# Utilities, truthfulness, costs
# ---------------------------------------------------------------------------

def expected_utility(mech: Mechanism, outcomes: OutcomeSpace, type_index: int):
    """Expected common utility the given type receives under the mechanism."""
    if isinstance(mech, DeterministicMechanism):
        return outcomes.utilities[mech.assignment[type_index]]
    row = mech.rows[type_index]
    total = 0
    for p, u in zip(row, outcomes.utilities):
        if p:
            total += p * u
    return total


def _mechanism_is_exact(mech: Mechanism) -> bool:
    if isinstance(mech, DeterministicMechanism):
        return True
    return all(isinstance(p, (int, Fraction)) for row in mech.rows for p in row)


def expected_utilities(mech: Mechanism, instance: Instance) -> list:
    """Each type's expected utility under the mechanism, indexed by type."""
    return [
        expected_utility(mech, instance.outcomes, i)
        for i in range(instance.type_count)
    ]


def truthfulness_violations(
    mech: Mechanism, instance: Instance, utilities: list | None = None
) -> list[tuple[int, int]]:
    """Pairs (truth, claim) where claiming strictly beats honesty.

    Exact mechanisms are compared exactly; float-valued mechanisms get an
    absolute slack of ``FLOAT_UTILITY_TOL`` so solver round-off is not
    reported as manipulation.  ``utilities``, when given, must be
    ``expected_utilities(mech, instance)``.
    """
    if utilities is None:
        utilities = expected_utilities(mech, instance)
    exact = _mechanism_is_exact(mech)
    bad = []
    for a, b in sorted(instance.relation.pairs):
        if a == b:
            continue
        if exact:
            if utilities[a] < utilities[b]:
                bad.append((a, b))
        elif float(utilities[a]) < float(utilities[b]) - FLOAT_UTILITY_TOL:
            bad.append((a, b))
    return bad


def is_truthful(mech: Mechanism, instance: Instance) -> bool:
    return not truthfulness_violations(mech, instance)


def best_response(mech: DeterministicMechanism, instance: Instance, type_index: int) -> int:
    """The report the given type actually files under the mechanism.

    Ties are broken toward honesty when the true type's own assignment
    already attains the maximum utility, otherwise toward the smallest
    claimable index.
    """
    reports = instance.relation.allowed_reports(type_index)
    if not reports:
        return type_index
    utilities = instance.outcomes.utilities
    best_value = max(utilities[mech.assignment[r]] for r in reports)
    if type_index in reports and utilities[mech.assignment[type_index]] == best_value:
        return type_index
    for r in reports:
        if utilities[mech.assignment[r]] == best_value:
            return r
    raise AssertionError("unreachable")


CostMode = Literal["truthful", "best-response"]


def cost_deterministic(
    mech: DeterministicMechanism, instance: Instance, mode: CostMode = "truthful"
) -> Cost:
    """Total principal cost, assuming honesty or best-response play."""
    total: Cost = ZERO_COST
    for i in range(instance.type_count):
        if mode == "truthful":
            j = mech.assignment[i]
        elif mode == "best-response":
            j = mech.assignment[best_response(mech, instance, i)]
        else:
            raise ValueError(f"unknown cost mode {mode!r}")
        total = total + instance.costs.entry(i, j)
    return total


def cost_randomized(mech: RandomizedMechanism, instance: Instance) -> Cost:
    """Expected total cost under honesty; infinite iff positive mass hits an
    infinite entry."""
    total: Cost = ZERO_COST
    for i, row in enumerate(mech.rows):
        for j, p in enumerate(row):
            if p:
                total = total + instance.costs.entry(i, j).scaled(p)
    return total


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def rational_to_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Decimal-faithful: "0.1" in a JSON file means 1/10.
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def _check_indices(values) -> None:
    """Type and outcome indices must be JSON integers, never floats or bools."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"not an index: {value!r}")


def cost_to_json(cost: Cost):
    return "inf" if not cost.is_finite else rational_to_json(cost.value)


def cost_from_json(value) -> Cost:
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return Cost.infinite()
    return Cost(rational_from_json(value))


def instance_to_json(instance: Instance, meta: dict | None = None) -> dict:
    data = {
        "outcomes": [rational_to_json(u) for u in instance.outcomes.utilities],
        "relation": sorted([a, b] for a, b in instance.relation.pairs),
        "costs": [
            [cost_to_json(c) for c in row] for row in instance.costs.rows
        ],
    }
    if meta is not None:
        data["meta"] = meta
    return data


def instance_from_json(data: dict) -> tuple[Instance, dict]:
    outcomes = OutcomeSpace(rational_from_json(u) for u in data["outcomes"])
    costs = CostMatrix(
        [cost_from_json(v) for v in row] for row in data["costs"]
    )
    _check_indices(index for pair in data["relation"] for index in pair)
    relation = ReportingRelation(len(costs.rows), data["relation"])
    return Instance(outcomes, relation, costs), data.get("meta", {})


def _probability_to_json(p):
    if isinstance(p, (int, Fraction)):
        return rational_to_json(Fraction(p))
    return float(p)


def mechanism_to_json(mech: Mechanism) -> dict:
    if isinstance(mech, DeterministicMechanism):
        return {"kind": "deterministic", "assignment": list(mech.assignment)}
    return {
        "kind": "randomized",
        "rows": [[_probability_to_json(p) for p in row] for row in mech.rows],
    }


def mechanism_from_json(data: dict) -> Mechanism:
    kind = data.get("kind")
    if kind == "deterministic":
        _check_indices(data["assignment"])
        return DeterministicMechanism(data["assignment"])
    if kind == "randomized":
        rows = [
            [rational_from_json(p) if isinstance(p, (int, str)) else float(p) for p in row]
            for row in data["rows"]
        ]
        return RandomizedMechanism(rows)
    raise ValueError(f"unknown mechanism kind {kind!r}")


def load_instance(path) -> tuple[Instance, dict]:
    with open(path) as fh:
        return instance_from_json(json.load(fh))


def dump_instance(instance: Instance, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance, meta), fh, indent=2)
        fh.write("\n")
