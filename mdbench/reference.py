"""Independent references for the solvers' answers.

Nothing here imports ``mechdesign``: each reference reads the instance
document from ``gen`` and solves the same problem another way.

* ``det_optimum``: the monotone-threshold LP.  In threshold variables
  ``z[i, k] = [x_i >= k]`` every constraint is a difference constraint, so
  the matrix is totally unimodular and the LP optimum is the deterministic
  optimum.  Here it is written over assignment indicators ``y``, a
  unimodular change of variables that keeps the vertices integral.
* ``rand_optimum``: the lottery LP, with truthfulness as expected-utility
  dominance along each claim.
* ``lattice_lp_optimum``: an LP over distributions on the whole outcome
  lattice; for the query model, truthfulness only constrains marginals.
* ``lattice_scan_optimum``: the cheapest truthful outcome vector, by scan.

The LPs run in floating point (HiGHS); callers compare with a tolerance.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix


def costs_of(doc: dict) -> list[list[Fraction | None]]:
    """Cost entries as Fractions, ``None`` for an infinite entry."""
    return [[None if c == "inf" else Fraction(c) for c in row] for row in doc["costs"]]


def claims_of(doc: dict) -> list[tuple[int, int]]:
    return [(a, b) for a, b in doc["relation"] if a != b]


def _lottery_lp(doc: dict, threshold: bool) -> float | None:
    """Minimize the cost over per-type lotteries ``y[i, j]``.

    With ``threshold`` each claim ``a -> b`` asks that ``a``'s outcome
    dominate ``b``'s at every level (first-order dominance); otherwise only
    in expected utility.  Returns ``None`` when the LP is infeasible.
    """
    costs = costs_of(doc)
    utilities = [float(Fraction(u)) for u in doc["outcomes"]]
    n, m = len(costs), len(utilities)
    c = np.array([0.0 if v is None else float(v) for row in costs for v in row])
    bounds = [(0.0, 0.0 if v is None else 1.0) for row in costs for v in row]

    rows, cols, vals = [], [], []
    for i in range(n):
        rows += [i] * m
        cols += range(i * m, i * m + m)
        vals += [1.0] * m
    a_eq = csr_matrix((vals, (rows, cols)), shape=(n, n * m))

    rows, cols, vals = [], [], []
    r = 0
    for a, b in claims_of(doc):
        if threshold:
            # -(sum_{j>=k} y[a, j] - y[b, j]) <= 0 for each level k >= 1.
            for k in range(1, m):
                for j in range(k, m):
                    rows += [r, r]
                    cols += [a * m + j, b * m + j]
                    vals += [-1.0, 1.0]
                r += 1
        else:
            for j in range(m):
                rows += [r, r]
                cols += [a * m + j, b * m + j]
                vals += [-utilities[j], utilities[j]]
            r += 1
    a_ub = csr_matrix((vals, (rows, cols)), shape=(r, n * m)) if r else None
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(r) if r else None,
        A_eq=a_eq,
        b_eq=np.ones(n),
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return float(res.fun)


def det_optimum(doc: dict) -> float | None:
    """Deterministic optimum, or ``None`` when no finite one exists."""
    return _lottery_lp(doc, threshold=True)


def rand_optimum(doc: dict) -> float | None:
    """Randomized optimum, or ``None`` when no finite one exists."""
    return _lottery_lp(doc, threshold=False)


def additive_cost(doc: dict, point) -> Fraction:
    costs = costs_of(doc)
    return sum(costs[i][j] for i, j in enumerate(point))


def overhead_cost(doc: dict, point) -> Fraction:
    """Additive cost of an outcome vector plus ``c0`` when any type is above
    the bottom outcome (the ``additive_plus_overhead`` oracle)."""
    total = additive_cost(doc, point)
    if any(j > 0 for j in point):
        total += Fraction(doc["meta"]["oracle"]["c0"])
    return total


def _truthful_points(doc: dict):
    n, m = len(doc["costs"]), len(doc["outcomes"])
    claims = claims_of(doc)
    for point in itertools.product(range(m), repeat=n):
        if all(point[a] >= point[b] for a, b in claims):
            yield point


def lattice_scan_optimum(doc: dict) -> Fraction:
    """Cheapest truthful outcome vector under the overhead oracle."""
    return min(overhead_cost(doc, p) for p in _truthful_points(doc))


def lattice_lp_optimum(doc: dict) -> float:
    """Cheapest distribution over outcome vectors whose marginals are
    truthful in expected utility, under the overhead oracle."""
    n, m = len(doc["costs"]), len(doc["outcomes"])
    utilities = [float(Fraction(u)) for u in doc["outcomes"]]
    points = list(itertools.product(range(m), repeat=n))
    c = np.array([float(overhead_cost(doc, p)) for p in points])
    claims = claims_of(doc)
    a_ub = np.array(
        [[utilities[p[b]] - utilities[p[a]] for p in points] for a, b in claims]
    ).reshape(len(claims), len(points))
    res = linprog(
        c,
        A_ub=a_ub if claims else None,
        b_ub=np.zeros(len(claims)) if claims else None,
        A_eq=np.ones((1, len(points))),
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return float(res.fun)
