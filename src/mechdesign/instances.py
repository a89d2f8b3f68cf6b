"""Core data model for assignment-mechanism instances.

An instance describes a screening setting: a ladder of outcomes that every
type values the same way (strictly increasing common utilities), a reflexive
relation listing which types can pass themselves off as which others, and the
principal's cost for granting each type each outcome.  Mechanisms map types to
outcomes, either deterministically or through per-type lotteries.

All quantities are exact.  A ``CostMatrix`` holds its entries as integer
rows over one common ``scale`` (the lcm of the finite entries'
denominators), with ``None`` for an infinite entry, so the solvers and the
cost checks work in ints; ``Cost`` and ``Fraction`` appear at the public API
and in JSON.  An expected cost is infinite exactly when positive
probability lands on an infinite entry.
Values are exact when ``is_exact`` says so; ``differs`` and ``exceeds``
compare exact values exactly and floats (inputs such as float marginal
profiles) within a tolerance the caller passes, such as
``FLOAT_UTILITY_TOL`` for truthfulness.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Union

# Absolute slack used for truthfulness comparisons when a mechanism's expected
# utilities are floats; exact (rational) utilities use no slack.
FLOAT_UTILITY_TOL = 1e-12

# Randomized rows must sum to one within this absolute tolerance (floats);
# rational rows must sum to one exactly.
ROW_SUM_TOL = 1e-12


class SelfCheckError(RuntimeError):
    """An internal consistency check failed; results must not be trusted."""


def scale_to_integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals over their least common denominator ``scale``: returns
    ``(tuple(v * scale for v in values), scale)``, all ints."""
    scale = math.lcm(*{v.denominator for v in values})
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def is_exact(values: Iterable) -> bool:
    """Whether every value is an exact rational (an ``int`` or a ``Fraction``)."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def differs(x, y, exact: bool, tol: float) -> bool:
    """Whether ``x`` and ``y`` differ: exactly when ``exact``, otherwise by
    more than ``tol`` as floats.  A NaN always differs."""
    if exact:
        return x != y
    x, y = float(x), float(y)
    return not (x == y or abs(x - y) <= tol)


def exceeds(x, y, exact: bool, tol: float) -> bool:
    """Whether ``x`` lies above ``y``: exactly when ``exact``, otherwise by
    more than ``tol`` as floats.  A NaN always exceeds."""
    if exact:
        return x > y
    x, y = float(x), float(y)
    return not (x == y or x - y <= tol)


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

    def _order(compare):
        def method(self, other):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            return compare(self._cmp_key(), other._cmp_key())

        return method

    __lt__, __le__ = _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)
    del _order

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
        object.__setattr__(self, "utilities", tuple(Fraction(u) for u in utilities))

    @property
    def size(self) -> int:
        return len(self.utilities)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """``scale_to_integers(utilities)``, built once per outcome space."""
        return scale_to_integers(self.utilities)


@dataclass(frozen=True)
class ReportingRelation:
    """Who may claim to be whom: ordered pairs (true type, claimed type)."""

    type_count: int
    pairs: frozenset

    def __init__(self, type_count: int, pairs: Iterable):
        object.__setattr__(self, "type_count", int(type_count))
        object.__setattr__(self, "pairs", frozenset((int(a), int(b)) for a, b in pairs))

    @classmethod
    def full(cls, type_count: int) -> "ReportingRelation":
        pairs = [(a, b) for a in range(type_count) for b in range(type_count)]
        return cls(type_count, pairs)

    @classmethod
    def identity(cls, type_count: int) -> "ReportingRelation":
        return cls(type_count, [(i, i) for i in range(type_count)])

    @cached_property
    def reports_by_reporter(self) -> dict[int, list[int]]:
        """Each reporter's sorted claimable types, shared: do not modify them."""
        reports: dict[int, list[int]] = {}
        for a, b in self.pairs:
            reports.setdefault(a, []).append(b)
        for claims in reports.values():
            claims.sort()
        return reports

    @cached_property
    def claims(self) -> list[tuple[int, int]]:
        """The non-reflexive pairs, sorted; built once per relation."""
        return sorted((a, b) for a, b in self.pairs if a != b)

    def allowed_reports(self, reporter: int) -> list[int]:
        return list(self.reports_by_reporter.get(reporter, ()))


@dataclass(frozen=True)
class CostMatrix:
    """Per-type, per-outcome principal costs (rows indexed by type).

    Entry ``(i, j)`` is ``scaled[i][j] / scale``, or infinite when
    ``scaled[i][j]`` is ``None``; ``scale`` is the lcm of the finite
    entries' denominators.  Entries may be given as anything ``Cost``
    accepts.
    """

    scaled: tuple
    scale: int

    def __init__(self, rows: Iterable[Iterable]):
        ratios = [
            [None if c.value is None else c.value.as_integer_ratio() for c in map(Cost, row)]
            for row in rows
        ]
        scale = math.lcm(*{r[1] for row in ratios for r in row if r is not None})
        object.__setattr__(self, "scaled", tuple(
            tuple(None if r is None else r[0] * (scale // r[1]) for r in row)
            for row in ratios
        ))
        object.__setattr__(self, "scale", scale)

    @classmethod
    def from_scaled(cls, scaled: tuple, scale: int) -> "CostMatrix":
        """A matrix with the given fields, building no ``Cost``."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "scaled", scaled)
        object.__setattr__(matrix, "scale", scale)
        return matrix

    @cached_property
    def rows(self) -> tuple:
        """The entries as ``Cost``s, built on first use; the solvers read
        ``scaled``."""
        return tuple(
            tuple(Cost.infinite() if s is None else Cost(Fraction(s, self.scale)) for s in row)
            for row in self.scaled
        )

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
        return len(self.costs.scaled)

    @property
    def outcome_count(self) -> int:
        return self.outcomes.size

    @cached_property
    def hard_problems(self) -> tuple[str, ...]:
        """``hard_violations``' findings, computed once per instance."""
        return tuple(validate(self, include_degenerate=False))


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
            problems.append(f"outcome utilities not strictly increasing at position {j}")

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

    for i, row in enumerate(instance.costs.scaled):
        if len(row) != m:
            problems.append(f"cost row {i} has {len(row)} entries, expected {m}")
        elif include_degenerate and m >= 1 and row.count(None) == m:
            problems.append(f"degenerate: cost row {i} is entirely infinite")
    return problems


def hard_violations(instance: Instance) -> list[str]:
    """Violations that make an instance unsolvable (degenerate rows excluded)."""
    return list(instance.hard_problems)


def mechanism_violations(mech: Mechanism, instance: Instance) -> list[str]:
    """Shape and probability checks for a mechanism against an instance."""
    problems: list[str] = []
    n, m = instance.type_count, instance.outcome_count
    if isinstance(mech, DeterministicMechanism):
        if len(mech.assignment) != n:
            problems.append(f"assignment covers {len(mech.assignment)} types, expected {n}")
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
        # A float anywhere, a zero too, makes the row a float row.
        exact = all(issubclass(kind, (int, Fraction)) for kind in set(map(type, row)))
        if exact:  # one integer pass over the nonzero entries, onto the row's lcm
            num, den, negative = 0, 1, False
            for p in row:
                if p:
                    a, b = p.as_integer_ratio()
                    negative = negative or a < 0
                    if b == den:
                        num += a
                    else:
                        lcm = den * b // math.gcd(den, b)
                        num, den = num * (lcm // den) + a * (lcm // b), lcm
            total = 1 if num == den else Fraction(num, den)
        else:
            negative, total = any(p < 0 for p in row), sum(row)
        if negative:
            problems.append(f"row {i} has a negative probability")
        if differs(total, 1, exact, ROW_SUM_TOL):
            problems.append(f"row {i} sums to {total}, expected 1")
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

def _lottery_utility(row, outcomes: OutcomeSpace):
    """An exact lottery's expected utility as a lowest-terms int pair
    ``(numerator, denominator)``, summed in one integer pass over
    ``outcomes.scaled``; one with a nonzero float, as a float sum."""
    (xs, scale), num, den = outcomes.scaled, 0, 1
    for p, x in zip(row, xs):
        if p:
            if not isinstance(p, (int, Fraction)):
                return sum(p * u for p, u in zip(row, outcomes.utilities) if p)
            a, b = p.as_integer_ratio()
            num, den = (num + a * x, den) if b == den else (num * b + a * x * den, den * b)
    g = math.gcd(num, den * scale)
    return num // g, den * scale // g


def expected_utility(mech: Mechanism, outcomes: OutcomeSpace, type_index: int):
    """Expected common utility the given type receives under the mechanism."""
    if isinstance(mech, DeterministicMechanism):
        return outcomes.utilities[mech.assignment[type_index]]
    u = _lottery_utility(mech.rows[type_index], outcomes)
    return Fraction(*u) if type(u) is tuple else u


def expected_utilities(mech: Mechanism, instance: Instance) -> list:
    """Each type's expected utility under the mechanism, indexed by type."""
    return [expected_utility(mech, instance.outcomes, i) for i in range(instance.type_count)]


def truthfulness_violations(
    mech: Mechanism, instance: Instance, utilities: list | None = None, exact: bool | None = None
) -> list[tuple[int, int]]:
    """Pairs (truth, claim) where claiming strictly beats honesty.

    Exact utilities are compared in integers: a deterministic mechanism's as
    ``outcomes.scaled`` ints, a lottery's by cross-products of ``(numerator,
    denominator)`` pairs.  Float utilities must exceed by more than
    ``FLOAT_UTILITY_TOL`` so solver round-off is not reported as
    manipulation.  ``utilities``, when given, must be ``expected_utilities(mech,
    instance)``, exact ones possibly as pairs; ``exact``, whether all are exact.
    """
    pairs = instance.relation.claims
    if isinstance(mech, DeterministicMechanism):
        x = list(map(instance.outcomes.scaled[0].__getitem__, mech.assignment))
        return [(a, b) for a, b in pairs if x[b] > x[a]]
    if utilities is None:
        utilities = [_lottery_utility(row, instance.outcomes) for row in mech.rows]
    if exact is None:
        exact = is_exact(u for u in utilities if type(u) is not tuple)
    if exact:
        ratios = [u if type(u) is tuple else u.as_integer_ratio() for u in utilities]
        num, den = [u[0] for u in ratios], [u[1] for u in ratios]
        return [(a, b) for a, b in pairs if num[b] * den[a] > num[a] * den[b]]
    # exceeds compares as floats, and n / d is float(Fraction(n, d)), both correctly rounded
    u = [v[0] / v[1] if type(v) is tuple else v for v in utilities]
    return [(a, b) for a, b in pairs if exceeds(u[b], u[a], False, FLOAT_UTILITY_TOL)]


def is_truthful(mech: Mechanism, instance: Instance) -> bool:
    return not truthfulness_violations(mech, instance)


def _best_report(type_index: int, reports: list[int], utilities) -> int:
    """The tie rule of best-response play: honesty if it attains the highest
    utility among ``reports``, otherwise the smallest claimable index that
    does.  ``utilities[r]`` is the utility of filing report ``r``."""
    if not reports:
        return type_index
    best = max(utilities[r] for r in reports)
    if type_index in reports and utilities[type_index] == best:
        return type_index
    return next(r for r in reports if utilities[r] == best)


def best_response(mech: Mechanism, instance: Instance, type_index: int) -> int:
    """The report the given type actually files under the mechanism."""
    reports = instance.relation.allowed_reports(type_index)
    utilities = {r: expected_utility(mech, instance.outcomes, r) for r in reports}
    return _best_report(type_index, reports, utilities)


def ratio_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of ``(numerator, denominator)`` terms: numerators that share
    a denominator are added as ints, then one ``Fraction`` per distinct
    denominator."""
    by_denominator: dict[int, int] = {}
    for num, den in terms:
        by_denominator[den] = by_denominator.get(den, 0) + num
    return sum((Fraction(num, den) for den, num in by_denominator.items()), Fraction(0))


def cost_deterministic(mech: DeterministicMechanism, instance: Instance) -> Cost:
    """Total principal cost under honest reports."""
    costs = instance.costs
    entries = [row[mech.assignment[i]] for i, row in enumerate(costs.scaled)]
    if None in entries:
        return Cost.infinite()
    return Cost(Fraction(sum(entries), costs.scale))


def cost_randomized(mech: RandomizedMechanism, instance: Instance) -> Cost:
    """Expected total cost under honesty; infinite iff positive mass hits an
    infinite entry.  Float probabilities count at their exact binary value."""
    terms = []
    for row, entries in zip(mech.rows, instance.costs.scaled):
        for p, entry in zip(row, entries):
            if p:
                num, den = p.as_integer_ratio()
                if num < 0:
                    raise ValueError(f"negative probability {p}")
                if entry is None:
                    return Cost.infinite()
                terms.append((num * entry, den))
    return Cost(ratio_sum(terms) / instance.costs.scale)


def cost_best_response(
    mech: Mechanism, instance: Instance, utilities: list | None = None
) -> Cost:
    """Total cost when every type files its best response: the honest cost
    of the mechanism the types actually play.  ``utilities``, when given,
    must be ``expected_utilities(mech, instance)``."""
    if utilities is None:
        utilities = expected_utilities(mech, instance)
    reports = instance.relation.reports_by_reporter
    played = [_best_report(i, reports.get(i, ()), utilities) for i in range(instance.type_count)]
    if isinstance(mech, DeterministicMechanism):
        return cost_deterministic(
            DeterministicMechanism(mech.assignment[r] for r in played), instance
        )
    return cost_randomized(RandomizedMechanism(mech.rows[r] for r in played), instance)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_FLOAT_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(x, newline: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, without the pure-Python
    encoder that ``indent`` selects; raises ``TypeError`` on other types, as
    that encoder does.  It writes CLI reports, ``--out`` files and instance
    files, all but one array: ``cli._utility_table_text`` renders a
    ``verify`` report's ``expected_utilities`` in one flat pass beside it.
    Strings and ints inside containers are written inline."""
    if not isinstance(x, (list, tuple, dict)):
        return _json_scalar(x)
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner, encode = newline + "  ", encode_basestring_ascii
    if isinstance(x, dict):
        texts = [
            encode(k if isinstance(k, str) else _json_scalar(k)) + ": "
            + (
                encode(v) if isinstance(v, str)
                else int.__repr__(v) if type(v) is int
                else _json_text(v, inner)
            )
            for k, v in x.items()
        ]
        return "{" + inner + ("," + inner).join(texts) + newline + "}"
    texts = [
        encode(v) if isinstance(v, str)
        else int.__repr__(v) if type(v) is int
        else _json_text(v, inner)
        for v in x
    ]
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def _json_scalar(x) -> str:
    """The JSON text of a string, number, boolean or None."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _FLOAT_TEXT.get(text, text)
    raise TypeError(f"{type(x).__name__} is not a JSON type")


def rational_to_json(x: Fraction):
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


def cost_ratio_from_json(value) -> tuple[int, int] | None:
    """``cost_from_json(value)`` as a ``(numerator, denominator)`` pair in
    lowest terms, ``None`` for infinity.  Nonnegative ints and ``"a/b"``
    strings of decimal digits are read without building a ``Fraction``; any
    other value goes through ``cost_from_json``, with its errors."""
    if type(value) is int and value >= 0:
        return value, 1
    if type(value) is str:
        num, slash, den = value.partition("/")
        den = den if slash else "1"
        if num.isdecimal() and den.isdecimal():
            a, b = int(num), int(den)
            if b:
                g = math.gcd(a, b)
                return a // g, b // g
    cost = cost_from_json(value)
    return None if cost.value is None else cost.value.as_integer_ratio()


def _costs_from_json(rows) -> CostMatrix:
    """The cost rows read by ``cost_ratio_from_json``, with its errors: once
    per distinct literal if all are ints or strings (no two of which hash
    alike yet read apart), else entry by entry, then each row mapped in C."""
    try:
        if not {int, str}.issuperset(map(type, chain.from_iterable(rows))):
            raise TypeError
        keys, ratios = rows, {v: cost_ratio_from_json(v) for v in set(chain.from_iterable(rows))}
    except (TypeError, ValueError):  # so that the first bad entry names the error
        keys = [[cost_ratio_from_json(v) for v in row] for row in rows]
        ratios = {r: r for r in chain.from_iterable(keys)}
    scale = math.lcm(*{r[1] for r in ratios.values() if r is not None})
    scaled = {k: r and r[0] * (scale // r[1]) for k, r in ratios.items()}.__getitem__
    return CostMatrix.from_scaled(tuple(tuple(map(scaled, row)) for row in keys), scale)


def _relation_from_json(type_count: int, pairs) -> ReportingRelation:
    """The ``[a, b]`` pairs, checked as JSON integer indices and frozen in one pass."""
    checked = set()
    for a, b in pairs:
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"not an index: {b if type(a) is int else a!r}")
        checked.add((a, b))
    relation = ReportingRelation(type_count, ())
    object.__setattr__(relation, "pairs", frozenset(checked))
    return relation


def instance_from_json(data: dict) -> tuple[Instance, dict]:
    outcomes = OutcomeSpace(rational_from_json(u) for u in data["outcomes"])
    costs = _costs_from_json(data["costs"])
    relation = _relation_from_json(len(costs.scaled), data["relation"])
    meta = data.get("meta", {})
    if not isinstance(meta, dict) or not isinstance(meta.get("oracle", {}), dict):
        raise ValueError("meta and its oracle must be JSON objects")
    return Instance(outcomes, relation, costs), meta


def _probability_to_json(p):
    if type(p) is int:
        return p
    return rational_to_json(p) if is_exact((p,)) else float(p)


def probability_from_json(value):
    """A probability read from JSON: floats and ints stay as they are, and
    ``"a/b"`` strings are exact."""
    return value if type(value) in (float, int) else rational_from_json(value)


def mechanism_to_json(mech: Mechanism) -> dict:
    if isinstance(mech, DeterministicMechanism):
        return {"kind": "deterministic", "assignment": list(mech.assignment)}
    return {
        "kind": "randomized",
        "rows": [[_probability_to_json(p) for p in row] for row in mech.rows],
    }


def mechanism_from_json(data: dict) -> Mechanism:
    """The mechanism in a ``mechanism_to_json`` object.  A lottery's
    ``"a/b"`` strings are parsed once per distinct string."""
    kind = data.get("kind")
    if kind == "deterministic":
        _check_indices(data["assignment"])
        return DeterministicMechanism(data["assignment"])
    if kind == "randomized":
        known: dict[str, Fraction] = {}

        def probability(value):
            if type(value) is not str:
                return probability_from_json(value)
            if value not in known:
                known[value] = rational_from_json(value)
            return known[value]

        return RandomizedMechanism(
            [p if type(p) is int else probability(p) for p in row] for row in data["rows"]
        )
    if kind is None and "support" in data:
        raise ValueError("this is a sub-rand chain file, which verify does not read yet")
    raise ValueError(f"unknown mechanism kind {kind!r}")


def load_instance(source) -> tuple[Instance, dict]:
    """The instance in a file, given by its path or as a binary file object."""
    if hasattr(source, "read"):
        return instance_from_json(json.load(source))
    with open(source, "rb") as fh:
        return instance_from_json(json.load(fh))


def dump_instance(instance: Instance, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(instance_to_json(instance, meta)) + "\n")
