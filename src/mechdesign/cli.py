"""Command-line front end: generate, solve, verify, cross-check, and bench.

Every command prints a small JSON run report to stdout.  Exit codes are a
stable contract:

  0  success
  2  usage or validation problem
  3  the instance admits no finite-cost truthful mechanism
  4  the mechanism under verification is not truthful
  5  an enumeration budget was exceeded
  6  an internal self-check or cross-check failed
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .envelope import solve_randomized
from .generators import (
    default_reduction_params,
    gap_instance,
    minsat_reduction_nontransitive,
    minsat_reduction_single_peaked,
    parse_dimacs,
    random_convex_instance,
    random_instance,
    ReductionParams,
)
from .instances import (
    DeterministicMechanism,
    SelfCheckError,
    _json_text,
    _lottery_utility,
    _probability_to_json,
    cost_best_response,
    cost_deterministic,
    cost_from_json,
    cost_randomized,
    dump_instance,
    expected_utilities,
    hard_violations,
    is_exact,
    is_truthful,
    load_instance,
    mechanism_from_json,
    mechanism_to_json,
    mechanism_violations,
    rational_to_json,
    truthfulness_violations,
)
from .mincut import network_to_dot, solve_deterministic
from .oracle import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    brute_force_deterministic_opt,
    brute_force_envelope_opt,
)
from .submodular import (
    chain_to_json,
    oracle_from_json,
    solve_deterministic_submodular,
    solve_randomized_submodular,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFINITE = 3
EXIT_UNTRUTHFUL = 4
EXIT_BUDGET = 5
EXIT_SELF_CHECK = 6


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _number_text(x) -> str:
    """A float to 12 significant digits; an exact rational, also as a lowest
    terms ``(numerator, denominator)`` pair, or a ``Cost`` as it prints."""
    if type(x) is tuple:
        return str(x[0]) if x[1] == 1 else "%d/%d" % x
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _emit(report: dict, utility_table: tuple | None = None) -> None:
    """Print ``report`` as ``json.dumps(report, indent=2)`` would.  A
    ``verify`` report passes its ``(reports, texts)`` as ``utility_table``,
    which is rendered here as the report's last key, ``expected_utilities``."""
    text = _json_text(report)
    if utility_table is not None:
        table = _utility_table_text(*utility_table)
        text = f'{text[:-2]},\n  "expected_utilities": {table}\n}}'
    print(text)


def _utility_table_text(reports: dict, texts: list[str]) -> str:
    """The JSON text, one level deep, of the array holding
    ``{"type": i, "reports": {str(r): <utility of r>}}`` for each type ``i``
    and its sorted reports ``reports[i]``; ``texts[r]`` is the JSON string
    literal of type ``r``'s utility.  One format per type and one join per
    report list."""
    entry = ['"%d": %s' % item for item in enumerate(texts)].__getitem__
    return "[\n    " + ",\n    ".join([
        '{\n      "type": %d,\n      "reports": {\n        %s\n      }\n    }'
        % (i, ",\n        ".join(map(entry, reports[i])))
        for i in range(len(texts))
    ]) + "\n  ]"


def _utility_texts(mechanism, instance, utilities) -> list[str]:
    """Each type's utility as the JSON string literal of ``_number_text``: a
    deterministic mechanism's from the outcomes', each written once, and a
    lottery's per type, since finding a repeat costs more than writing it."""
    if isinstance(mechanism, DeterministicMechanism):
        by_outcome = [encode_basestring_ascii(_number_text(u))
                      for u in instance.outcomes.utilities]
        return [by_outcome[j] for j in mechanism.assignment]
    return [encode_basestring_ascii(_number_text(u)) for u in utilities]


def _load_valid_instance(path):
    """The instance and meta in the file at ``path``, and the parsed bytes' digest."""
    try:
        data = Path(path).read_bytes()
        instance, meta = load_instance(io.BytesIO(data))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"cannot read instance {path}: {exc}")
    problems = hard_violations(instance)
    if problems:
        raise CliError(f"invalid instance {path}: " + "; ".join(problems))
    return instance, meta, _digest(data)


def _oracle_for(instance, meta):
    payload = meta.get("oracle", {"kind": "additive"})
    if payload.get("kind", "additive") != "table" and any(
        None in row for row in instance.costs.scaled
    ):
        raise CliError("combinatorial backends need finite cost entries")
    try:
        oracle = oracle_from_json(payload, instance)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad oracle description: {exc}")
    if payload.get("kind") == "table" and not any(
        cost_from_json(v).is_finite for v in payload["values"]
    ):
        raise CliError("the oracle table has no finite value", EXIT_INFINITE)
    return oracle


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args, argv) -> int:
    kind = args.kind
    meta: dict = {"family": kind}
    if kind == "gap":
        instance = gap_instance()
    elif kind in ("minsat1", "minsat2"):
        if not args.cnf:
            raise CliError(f"generate {kind} needs --cnf")
        try:
            formula = parse_dimacs(Path(args.cnf).read_text())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read CNF {args.cnf}: {exc}")
        meta["variables"] = formula.var_count
        meta["clauses"] = formula.clause_count
        if kind == "minsat1":
            instance = minsat_reduction_nontransitive(formula)
        else:
            if (args.block_cost is None) != (args.commit_cost is None):
                raise CliError("--block-cost and --commit-cost come together")
            params = None
            if args.block_cost is not None:
                params = ReductionParams(Fraction(args.block_cost), Fraction(args.commit_cost))
                bad = params.violations(formula)
                if bad:
                    raise CliError("; ".join(bad))
            else:
                params = default_reduction_params(formula)
            widened = minsat_reduction_single_peaked(formula, params)
            instance = widened.instance
            meta["per_type_utilities"] = [
                [rational_to_json(u) for u in row] for row in widened.utilities
            ]
            meta["block_cost"] = rational_to_json(params.block_cost)
            meta["commit_cost"] = rational_to_json(params.commit_cost)
    elif kind in ("random", "overhead"):
        density = args.density if args.density is not None else 0.3
        for option, rate in (("density", density), ("infinity-rate", args.infinity_rate)):
            if not 0.0 <= rate <= 1.0:
                raise CliError(f"--{option} must lie in [0, 1]")
        for option, value, low in (("types", args.types, 1), ("outcomes", args.outcomes, 1),
                                   ("max-cost", args.max_cost, 0)):
            if value < low:
                raise CliError(f"--{option} must be at least {low}")
        if kind == "overhead" and args.infinity_rate:
            raise CliError("--infinity-rate must be 0 for overhead: its oracle needs finite costs")
        instance = random_instance(
            seed=args.seed,
            type_count=args.types,
            outcome_count=args.outcomes,
            edge_density=density,
            max_cost=args.max_cost,
            infinity_rate=args.infinity_rate,
            close_relation=args.close,
        )
        meta["seed"] = args.seed
        if kind == "overhead":
            c0 = Fraction(args.overhead)
            if c0 < 0:
                raise CliError("--overhead must be nonnegative")
            meta["oracle"] = {"kind": "additive_plus_overhead", "c0": rational_to_json(c0)}
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown kind {kind!r}")

    dump_instance(instance, args.out, meta)
    _emit(
        {
            "command": " ".join(argv),
            "out": str(args.out),
            "types": instance.type_count,
            "outcomes": instance.outcome_count,
            "instance_digest": _digest(Path(args.out).read_bytes()),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _write_json(path, payload) -> None:
    """Write ``_json_text(payload)``, a mechanism as its ``mechanism_to_json``
    object, and a newline.  A lottery of ints and ``Fraction``s (equal ones
    write alike) formats each distinct probability once, each row joined in C."""
    rows = getattr(payload, "rows", None)
    if rows and all(rows) and {int, Fraction}.issuperset(map(type, chain.from_iterable(rows))):
        text = {p: _json_text(_probability_to_json(p)) for p in set(chain.from_iterable(rows))}
        rows = "\n    ],\n    [\n      ".join([",\n      ".join(map(text.get, r)) for r in rows])
        text = '{\n  "kind": "randomized",\n  "rows": [\n    [\n      ' + rows + "\n    ]\n  ]\n}"
    else:
        text = _json_text(payload if isinstance(payload, dict) else mechanism_to_json(payload))
    Path(path).write_text(text + "\n")


def cmd_solve(args, argv) -> int:
    instance, meta, digest = _load_valid_instance(args.instance)
    started = time.perf_counter()
    report = {"command": " ".join(argv), "instance_digest": digest}

    if args.dot and args.algo != "det":
        raise CliError("--dot only applies to --algo det")
    if args.backend is not None and args.algo in ("det", "rand"):
        raise CliError(f"--backend does not apply to --algo {args.algo}")

    if args.algo in ("det", "rand"):
        if args.algo == "det":
            solution = solve_deterministic(instance)
            report["solver"] = "mincut-exact"
            if args.dot:
                Path(args.dot).write_text(network_to_dot(solution.clamped, solution.cut))
        else:
            solution = solve_randomized(instance)
            report["solver"] = "envelope-mincut-exact"
        if solution.mechanism is None:
            report["cost"] = "inf"
            report["checks"] = {"truthful": None, "self_check": "ok"}
            report["wall_ms"] = round((time.perf_counter() - started) * 1e3, 3)
            _emit(report)
            return EXIT_INFINITE
        report["cost"] = _number_text(solution.cost)
        report["checks"] = {"truthful": True, "self_check": "ok"}
        if args.out:
            _write_json(args.out, solution.mechanism)

    elif args.algo == "sub-det":
        oracle = _oracle_for(instance, meta)
        backend = args.backend or "lovasz"
        if backend not in ("lovasz", "brute"):
            raise CliError(f"unknown sub-det backend {backend!r}")
        solution = solve_deterministic_submodular(oracle, instance.relation, backend=backend)
        mechanism = DeterministicMechanism(solution.point)
        if not is_truthful(mechanism, instance):
            raise SelfCheckError("solver returned an untruthful mechanism")
        report["solver"] = f"lattice-{backend}"
        report["cost"] = _number_text(solution.cost)
        report["checks"] = {
            "truthful": True,
            "self_check": "ok",
            "gap": float(solution.gap),
            "oracle_queries": oracle.query_count,
        }
        if args.out:
            _write_json(args.out, mechanism)

    elif args.algo == "sub-rand":
        oracle = _oracle_for(instance, meta)
        # ``ellipsoid`` is accepted so that existing command lines keep working.
        if args.backend not in (None, "ellipsoid"):
            raise CliError(f"unknown sub-rand backend {args.backend!r}")
        solution = solve_randomized_submodular(
            oracle, instance.outcomes, instance.relation, eps=args.eps
        )
        report["solver"] = f"profile-{solution.backend}"
        report["cost"] = _number_text(float(solution.cost))
        report["checks"] = {
            "marginally_truthful": True,  # asserted inside the solver
            "converged": solution.converged,
            "gap": float(solution.gap_estimate),
            "self_check": "ok",
            "oracle_queries": oracle.query_count,
        }
        if args.out:
            _write_json(args.out, chain_to_json(solution.chain))

    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown algorithm {args.algo!r}")

    report["wall_ms"] = round((time.perf_counter() - started) * 1e3, 3)
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, argv) -> int:
    instance, _, digest = _load_valid_instance(args.instance)
    try:
        mechanism = mechanism_from_json(json.loads(Path(args.mechanism).read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"cannot read mechanism {args.mechanism}: {exc}")
    problems = mechanism_violations(mechanism, instance)
    if problems:
        raise CliError(f"mechanism does not fit the instance: " + "; ".join(problems))

    if isinstance(mechanism, DeterministicMechanism):
        utilities = expected_utilities(mechanism, instance)
        truthful_cost = cost_deterministic(mechanism, instance)
    else:  # exact utilities as (numerator, denominator) pairs: no Fraction per type
        utilities = [_lottery_utility(row, instance.outcomes) for row in mechanism.rows]
        truthful_cost = cost_randomized(mechanism, instance)
    exact = is_exact(utilities) or all(type(u) is tuple for u in utilities)
    violations = truthfulness_violations(mechanism, instance, utilities, exact)
    texts = _utility_texts(mechanism, instance, utilities)
    # The relation is reflexive: when no claim beats honesty exactly, every
    # type's best report is its own, and the types play the mechanism itself.
    searched = violations or not exact
    if searched:  # best responses compare Fractions
        utilities = [Fraction(*u) if type(u) is tuple else u for u in utilities]
    br_cost = cost_best_response(mechanism, instance, utilities) if searched else truthful_cost
    report = {
        "command": " ".join(argv),
        "instance_digest": digest,
        "truthful": not violations,
        "violating_pairs": [list(v) for v in violations[:10]],
        "cost_truthful": _number_text(truthful_cost),
        "cost_best_response": _number_text(br_cost),
    }
    _emit(report, (instance.relation.reports_by_reporter, texts))
    return EXIT_OK if not violations else EXIT_UNTRUTHFUL


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def cmd_oracle(args, argv) -> int:
    instance, meta, digest = _load_valid_instance(args.instance)
    which = args.which
    report = {"command": " ".join(argv), "instance_digest": digest, "which": which}
    if which == "det":
        solver_cost = solve_deterministic(instance).cost
        brute_cost, _ = brute_force_deterministic_opt(instance, budget=args.budget)
        match = solver_cost == brute_cost
        report["tolerance"] = "exact"
    elif which == "rand":
        solver_cost = solve_randomized(instance).cost
        brute_cost, _ = brute_force_envelope_opt(instance, budget=args.budget)
        match = solver_cost == brute_cost
        report["tolerance"] = "exact"
    elif which == "sub-det":
        oracle = _oracle_for(instance, meta)
        solver_cost = solve_deterministic_submodular(
            oracle, instance.relation, backend="lovasz"
        ).cost
        brute_cost = solve_deterministic_submodular(
            oracle, instance.relation, backend="brute", budget=args.budget
        ).cost
        match = solver_cost == brute_cost
        report["tolerance"] = "exact"
    elif which == "sub-rand":
        if meta.get("oracle", {"kind": "additive"}).get("kind", "additive") != "additive":
            raise CliError("sub-rand oracle comparison is defined for additive oracles only")
        oracle = _oracle_for(instance, meta)
        solution = solve_randomized_submodular(
            oracle, instance.outcomes, instance.relation, eps=args.eps
        )
        solver_cost = float(solution.cost)
        exact = solve_randomized(instance).cost
        brute_cost = exact
        match = exact.is_finite and abs(solver_cost - float(exact)) <= args.eps
        report["tolerance"] = _number_text(args.eps)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown comparison {which!r}")

    report["solver_cost"] = _number_text(solver_cost)
    report["oracle_cost"] = _number_text(brute_cost)
    report["match"] = bool(match)
    _emit(report)
    return EXIT_OK if match else EXIT_SELF_CHECK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for chunk in text.split(","):
        try:
            n_text, m_text = chunk.split(":")
            sizes.append((int(n_text), int(m_text)))
        except ValueError:
            raise CliError(f"bad size {chunk!r}; expected TYPES:OUTCOMES")
    if not sizes:
        raise CliError("no sizes given")
    return sizes


def cmd_bench(args, argv) -> int:
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in ("det", "rand"):
            raise CliError(f"bench supports det and rand, not {algo!r}")
    sizes = _parse_sizes(args.sizes)

    rows = []
    for n, m in sizes:
        density = args.density
        if density is None:
            # Keep the reporting relation sparse for large populations so
            # the imitation arc count stays near-linear.
            density = 0.3 if n <= 64 else 0.5 / n
        for rep in range(args.reps):
            seed = args.seed + rep
            if args.family == "random":
                instance = random_instance(
                    seed=seed,
                    type_count=n,
                    outcome_count=m,
                    edge_density=density,
                    max_cost=20,
                )
            elif args.family == "convex":
                instance = random_convex_instance(
                    seed=seed, type_count=n, outcome_count=m, edge_density=density
                )
            else:  # pragma: no cover - argparse restricts choices
                raise CliError(f"unknown family {args.family!r}")
            for algo in algos:
                started = time.perf_counter()
                if algo == "det":
                    cost = solve_deterministic(instance).cost
                else:
                    cost = solve_randomized(instance).cost
                micros = int((time.perf_counter() - started) * 1e6)
                rows.append(
                    {
                        "family": args.family,
                        "n": n,
                        "m": m,
                        "seed": seed,
                        "algo": algo,
                        "cost": _number_text(cost),
                        "micros": micros,
                    }
                )

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["family", "n", "m", "seed", "algo", "cost", "micros"]
        )
        writer.writeheader()
        writer.writerows(rows)
    _emit({"command": " ".join(argv), "rows": len(rows), "out": str(args.out)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mechdesign",
        description="Optimal verification mechanisms: generate, solve, verify, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file")
    gen.add_argument("kind", choices=["gap", "minsat1", "minsat2", "random", "overhead"])
    gen.add_argument("--out", required=True)
    gen.add_argument("--cnf", help="DIMACS file for the reduction kinds")
    gen.add_argument("--block-cost", help="penalty entry for the wide reduction")
    gen.add_argument("--commit-cost", help="commitment entry for the wide reduction")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--types", type=int, default=4)
    gen.add_argument("--outcomes", type=int, default=3)
    gen.add_argument("--density", type=float)
    gen.add_argument("--max-cost", type=int, default=20)
    gen.add_argument("--infinity-rate", type=float, default=0.0,
                     help="share of infinite cost entries (random only)")
    gen.add_argument("--close", action="store_true", help="emit the closed relation")
    gen.add_argument("--overhead", default="1", help="activation cost c0")

    slv = sub.add_parser("solve", help="solve an instance file")
    slv.add_argument("instance")
    slv.add_argument("--algo", required=True, choices=["det", "rand", "sub-det", "sub-rand"])
    slv.add_argument("--out", help="mechanism/chain JSON destination")
    slv.add_argument("--dot", help="write the cut network as Graphviz (det only)")
    slv.add_argument(
        "--backend", help="sub-det: lovasz|brute; sub-rand: ellipsoid (accepted, ignored)"
    )
    slv.add_argument("--eps", type=float, default=1e-3)

    ver = sub.add_parser("verify", help="check a mechanism file against an instance")
    ver.add_argument("instance")
    ver.add_argument("mechanism")

    orc = sub.add_parser("oracle", help="cross-check a solver against brute force")
    orc.add_argument("instance")
    orc.add_argument("--which", required=True, choices=["det", "rand", "sub-det", "sub-rand"])
    orc.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    orc.add_argument("--eps", type=float, default=1e-3)

    ben = sub.add_parser("bench", help="time solvers over seeded families")
    ben.add_argument("--family", required=True, choices=["random", "convex"])
    ben.add_argument("--algos", default="det", help="comma list from {det,rand}")
    ben.add_argument("--sizes", required=True, help="comma list of TYPES:OUTCOMES")
    ben.add_argument("--reps", type=int, default=3)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--density", type=float)
    ben.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("solve", "oracle") and not 0 < args.eps < math.inf:
            raise CliError(f"--eps must be finite and positive, got {args.eps!r}")
        if args.command == "generate":
            return cmd_generate(args, argv)
        if args.command == "solve":
            return cmd_solve(args, argv)
        if args.command == "verify":
            return cmd_verify(args, argv)
        if args.command == "oracle":
            return cmd_oracle(args, argv)
        if args.command == "bench":
            return cmd_bench(args, argv)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
