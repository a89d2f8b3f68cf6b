"""Seeded instance generators for the benchmark workloads.

Each generator draws in O(n + edges) and returns the instance as the JSON
document ``mechdesign`` reads (``outcomes``, ``relation``, ``costs`` and an
optional ``meta``).  The same (workload, seed, index) always gives the same
document, byte for byte once written with ``write_instance``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DET_SPARSE = {"types": 2500, "outcomes": 5, "max_cost": 20, "infinity_rate": 0.05,
              "claims_per_type": 0.5}
RAND_RATIONAL = {"types": 500, "outcomes": 20, "max_cost": 20, "max_denominator": 12,
                 "max_block": 12, "cyclic_block_rate": 0.25}
# n and the relation are fixed and only costs are drawn: solve time grows
# about 3x from n=4 to n=6 and about 1.8x from one random claim to four, and
# random claims leave it about 1.6x as spread as a fixed chain does.
QUERY_SUB = {"types": 4, "outcomes": 3, "max_cost": 20, "max_overhead": 10, "eps": 1e-2}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash with SHA-512 inside ``random``, so they are stable
    # across processes and interpreter versions.
    return random.Random(f"{workload}:{seed}:{index}")


def _sparse_relation(rng: random.Random, n: int, edges: int) -> list[list[int]]:
    """Reflexive pairs plus ``edges`` distinct random claims ``a -> b``."""
    edges = min(edges, n * (n - 1))
    claims: set[tuple[int, int]] = set()
    while len(claims) < edges:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            claims.add((a, b))
    pairs = [(i, i) for i in range(n)] + sorted(claims)
    return [list(p) for p in pairs]


def det_sparse(seed: int, index: int) -> dict:
    """Integer costs with some infinite entries and a sparse random relation."""
    p = DET_SPARSE
    rng = _rng("det-sparse", seed, index)
    n, m = p["types"], p["outcomes"]
    costs = [
        ["inf" if rng.random() < p["infinity_rate"] else rng.randint(0, p["max_cost"])
         for _ in range(m)]
        for _ in range(n)
    ]
    relation = _sparse_relation(rng, n, round(p["claims_per_type"] * n))
    return {"outcomes": list(range(m)), "relation": relation, "costs": costs}


def _rational(rng: random.Random, max_value: int, max_denominator: int):
    q = rng.randint(1, max_denominator)
    num = rng.randint(0, max_value * q)
    return num if q == 1 else f"{num}/{q}"


def rand_rational(seed: int, index: int) -> dict:
    """Rational costs and a block relation that is already transitive.

    Types fall into consecutive blocks.  A cyclic block lets every member
    claim every other member; any other block is a chain in which each
    member may claim every member before it.  Both shapes are transitive.
    """
    p = RAND_RATIONAL
    rng = _rng("rand-rational", seed, index)
    n, m = p["types"], p["outcomes"]
    costs = [[_rational(rng, p["max_cost"], p["max_denominator"]) for _ in range(m)]
             for _ in range(n)]
    pairs = []
    start = 0
    while start < n:
        size = min(rng.randint(1, p["max_block"]), n - start)
        cyclic = rng.random() < p["cyclic_block_rate"]
        for a in range(start, start + size):
            for b in range(start, start + size):
                if a == b or cyclic or b < a:
                    pairs.append([a, b])
        start += size
    return {"outcomes": list(range(m)), "relation": sorted(pairs), "costs": costs}


def query_sub(seed: int, index: int) -> dict:
    """A small additive-plus-overhead oracle instance with finite costs, in
    which each type may claim to be the type before it."""
    p = QUERY_SUB
    rng = _rng("query-sub", seed, index)
    n, m = p["types"], p["outcomes"]
    costs = [[rng.randint(0, p["max_cost"]) for _ in range(m)] for _ in range(n)]
    relation = [[i, i] for i in range(n)] + [[i, i - 1] for i in range(1, n)]
    c0 = rng.randint(1, p["max_overhead"])
    return {
        "outcomes": list(range(m)),
        "relation": relation,
        "costs": costs,
        "meta": {"oracle": {"kind": "additive_plus_overhead", "c0": c0}},
    }


GENERATORS = {"det-sparse": det_sparse, "rand-rational": rand_rational,
              "query-sub": query_sub}


def instance_text(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def digest(doc: dict) -> str:
    return hashlib.sha256(instance_text(doc).encode()).hexdigest()[:16]


def write_instance(doc: dict, path: Path) -> None:
    path.write_text(instance_text(doc))
