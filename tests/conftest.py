"""Shared construction helpers for the test suite.

Random families are built from explicit ``random.Random`` instances so every
test is reproducible from its literal seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from mechdesign import (
    Cost,
    CostMatrix,
    Instance,
    OutcomeSpace,
    ReportingRelation,
    table_oracle,
)
from mechdesign.submodular import lattice_points


# Verdict lines registered by the acceptance tests; printed after the run so
# they survive output capture.
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance report")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


def random_relation(
    rng: random.Random, type_count: int, density: float = 0.4
) -> ReportingRelation:
    pairs = [(i, i) for i in range(type_count)]
    for a in range(type_count):
        for b in range(type_count):
            if a != b and rng.random() < density:
                pairs.append((a, b))
    return ReportingRelation(type_count, pairs)


def random_exact_profile(rng: random.Random, n: int, m: int, grain: int = 24):
    """Marginal rows with entries on a 1/grain grid, each summing to one."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, grain) for _ in range(m - 1))
        row = []
        prev = 0
        for c in cuts:
            row.append(Fraction(c - prev, grain))
            prev = c
        row.append(Fraction(grain - prev, grain))
        rows.append(row)
    return rows


def random_float_profile(rng: random.Random, n: int, m: int):
    """Random float rows on a ``1e-6`` grid, so that each row's decimal
    values, which the package reads, sum to exactly 1."""
    grain = 10**6
    rows = []
    for _ in range(n):
        raw = [rng.random() for _ in range(m)]
        total = sum(raw)
        cuts = [round(grain * x / total) for x in itertools.accumulate(raw)]
        rows.append([(b - a) / grain for a, b in zip([0, *cuts], cuts)])
    return rows


def product_coupling(rows):
    """Independent coupling of the marginal rows (probably crossing)."""
    n, m = len(rows), len(rows[0])
    items = []
    for combo in itertools.product(*[range(m)] * n):
        p = rows[0][combo[0]]
        for i in range(1, n):
            p = p * rows[i][combo[i]]
            if not p:
                break
        if p:
            items.append((tuple(combo), p))
    return items


def crossing_shuffle(chain_items, rng: random.Random, swaps: int = 3):
    """A same-marginal distribution built by crossing up chain mass.

    Each swap takes two distinct support points, halves their common mass,
    and exchanges a random subset of coordinates between them — marginals
    are untouched, but the support (generically) stops being a chain.
    """
    masses: dict[tuple, Fraction] = {}
    for pt, p in chain_items:
        if p:
            masses[pt] = masses.get(pt, 0) + p
    for _ in range(swaps):
        support = sorted(masses)
        if len(support) < 2:
            break
        a, b = rng.sample(support, 2)
        n = len(a)
        coords = [i for i in range(n) if rng.random() < 0.5]
        if not coords:
            coords = [rng.randrange(n)]
        a2 = tuple(b[i] if i in coords else a[i] for i in range(n))
        b2 = tuple(a[i] if i in coords else b[i] for i in range(n))
        q = min(masses[a], masses[b]) / 2
        if not q:
            continue
        for pt in (a, b):
            masses[pt] -= q
            if not masses[pt]:
                del masses[pt]
        for pt in (a2, b2):
            masses[pt] = masses.get(pt, 0) + q
    return sorted(masses.items())


# ---------------------------------------------------------------------------
# Submodular table families
# ---------------------------------------------------------------------------

def concave_of_sum_table(rng: random.Random, n: int, m: int):
    """Additive part plus a concave transform of a weighted coordinate sum."""
    w = [rng.uniform(0.2, 1.5) for _ in range(n)]
    add = [[rng.uniform(0.0, 4.0) for _ in range(m)] for _ in range(n)]
    vals = []
    for pt in lattice_points(n, m):
        s = sum(w[i] * pt[i] for i in range(n))
        vals.append(
            sum(add[i][pt[i]] for i in range(n)) + 2.5 * math.sqrt(s + 0.3)
        )
    return table_oracle(vals, n, m)


def peak_surcharge_table(rng: random.Random, n: int, m: int):
    """Additive part plus a concave increasing charge on the highest level.

    Built in exact arithmetic: the charge's increments are positive and
    decreasing, so exact ties in the check stay exact ties.
    """
    add = [
        [Fraction(rng.randint(0, 32), 8) for _ in range(m)] for _ in range(n)
    ]
    steps = sorted(
        (Fraction(rng.randint(1, 16), 8) for _ in range(m - 1)), reverse=True
    )
    charge = [Fraction(0)]
    for s in steps:
        charge.append(charge[-1] + s)
    vals = []
    for pt in lattice_points(n, m):
        top = max(pt)
        vals.append(sum(add[i][pt[i]] for i in range(n)) + charge[top])
    return table_oracle(vals, n, m)


def discount_pairs_table(rng: random.Random, n: int, m: int):
    """Additive part plus a decreasing charge in pairwise coordinate minima.

    ``sum of pairwise minima`` is supermodular, so subtracting it from a
    large constant is submodular; exact arithmetic keeps ties exact.
    """
    add = [
        [Fraction(rng.randint(0, 32), 8) for _ in range(m)] for _ in range(n)
    ]
    mu = Fraction(rng.randint(1, 8), 8)
    cap = mu * (m - 1) * n * n
    vals = []
    for pt in lattice_points(n, m):
        tot = sum(
            min(pt[i], pt[j]) for i in range(n) for j in range(i + 1, n)
        )
        vals.append(sum(add[i][pt[i]] for i in range(n)) + cap - mu * tot)
    return table_oracle(vals, n, m)


def random_submodular_table(rng: random.Random, n: int, m: int):
    kind = rng.randrange(3)
    if kind == 0:
        return concave_of_sum_table(rng, n, m)
    if kind == 1:
        return peak_surcharge_table(rng, n, m)
    return discount_pairs_table(rng, n, m)
