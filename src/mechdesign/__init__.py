"""Optimal mechanisms under partial verification of reports.

Agents report a private type but can only claim types a reporting relation
allows; the principal assigns outcomes on a common-utility ladder and pays a
type-dependent cost.  This package computes cost-optimal truthful mechanisms:

* deterministic, via an exact min-cut over per-type outcome chains;
* randomized, via per-type lower convex envelopes plus the same cut;
* both, for combinatorial (value-query) submodular costs, via an exact
  double oracle over the two cuts;

together with instance generators (including two MinSAT hardness
reductions), brute-force oracles, and a command-line front end.
"""

from .envelope import (
    MixturePair,
    RandomizedSolution,
    consolidate_two_consecutive,
    convex_envelope,
    is_convex_cost,
    pl_extension_value,
    recover_mixture,
    solve_randomized,
    threshold_round,
)
from .generators import (
    CnfFormula,
    ReductionParams,
    default_reduction_params,
    format_dimacs,
    gap_instance,
    minsat_reduction_nontransitive,
    minsat_reduction_single_peaked,
    parse_dimacs,
    random_convex_instance,
    random_instance,
)
from .instances import (
    Cost,
    CostMatrix,
    DeterministicMechanism,
    Instance,
    OutcomeSpace,
    RandomizedMechanism,
    ReportingRelation,
    SelfCheckError,
    best_response,
    cost_best_response,
    cost_deterministic,
    cost_randomized,
    dump_instance,
    expected_utility,
    hard_violations,
    instance_from_json,
    instance_to_json,
    is_transitive,
    is_truthful,
    load_instance,
    mechanism_from_json,
    mechanism_to_json,
    mechanism_violations,
    transitive_closure,
    truthfulness_violations,
    validate,
)
from .mincut import (
    DeterministicSolution,
    InfiniteOptimumError,
    build_network,
    clamp_capacities,
    extract_mechanism,
    min_cut,
    network_to_dot,
    solve_deterministic,
)
from .oracle import (
    BudgetExceededError,
    brute_force_best_response_opt,
    brute_force_deterministic_opt,
    brute_force_envelope_opt,
    enumerate_truthful_deterministic,
    minsat_brute,
)
from .submodular import (
    ChainDistribution,
    CostOracle,
    SubmodularityVerdict,
    additive_oracle,
    chain_cost,
    determinize_binary,
    in_truthful_lattice,
    interpret_marginals,
    is_submodular,
    join,
    meet,
    objective_subgradient,
    overhead_cost_oracle,
    solve_deterministic_submodular,
    solve_randomized_submodular,
    table_oracle,
    uncross,
)

__version__ = "0.1.0"
