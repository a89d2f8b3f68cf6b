"""What the benchmark measures: workloads, metrics, and which layer metric
should move which end-to-end metric on which workload.  Instance sizes are
the constants at the top of ``gen.py``.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions, bounds and reasons given here; ``test_mdbench.py`` checks that
the two agree.
"""

from __future__ import annotations

WORKLOADS = {
    "det-sparse": {
        "why": "solve --algo det then verify, n=2500 m=5, 5% infinite costs, 0.5 claims "
               "per type: the O(n^2) closure and the quadratic verify dominate",
        "instances": 8,
    },
    "rand-rational": {
        "why": "solve --algo rand then verify, n=500 m=20, costs with denominators up to 12, "
               "transitive block relation: max-flow, envelopes and big-integer scaling dominate",
        "instances": 16,
    },
    "query-sub": {
        "why": "sub-det, verify and sub-rand --backend ellipsoid per instance, default sub-rand "
               "once; n=4 m=3 chain relation, overhead oracle, eps 1e-2: only peel, projection "
               "and oracle work",
        "instances": 40,
    },
}

# name -> (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median of five set-ups (a fresh-interpreter import of mechdesign.cli, "
                "then generating and writing the run's instance files), each scaled by "
                "the reference task around it to a host where the task takes "
                "refwork.NOMINAL_S"),
    "solve_rel": ("ratio", "lower", 0.25,
                  "median over instances of solve_s divided by the reference task's time "
                  "around each command (refwork.py); solve_s is the time spent in solve "
                  "commands on one instance: det, rand, or sub-det plus sub-rand --backend "
                  "ellipsoid"),
    "verify_rel": ("ratio", "lower", 0.25,
                   "median of verify_s, the time of one verify call on the mechanism just "
                   "written, divided by the reference task's time around it"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "largest peak resident memory (getrusage) of the run's worker "
                    "processes, which run only the CLI commands"),
}

# Per-command timings each run prints in seconds with their sample counts;
# the end-to-end ``solve_rel`` and ``verify_rel`` are built from them, and
# the per-layer metrics below name the seconds they move.  The default
# sub-rand backend's time varies over a hundredfold (0.3 s to 83 s) between
# instances of this size, so it is printed but carries no bound.
COMMAND_TIMINGS = {
    "det-sparse": ["solve_s", "verify_s"],
    "rand-rational": ["solve_s", "verify_s"],
    "query-sub": ["sub_det_s", "verify_s", "sub_rand_ellipsoid_s", "sub_rand_s"],
}

CUT = ("det-sparse", "rand-rational")
ALL = ("det-sparse", "rand-rational", "query-sub")

# name -> (unit, what it is, {workload: end-to-end metrics it should move})
PER_LAYER = {
    "cli.load_s": ("s", "load_instance per solve", {w: ["solve_s"] for w in ALL}),
    "cli.validate_s": ("s", "hard_violations and mechanism_violations per solve",
                       {w: ["solve_s"] for w in ALL}),
    "cli.serialize_s": ("s", "mechanism/chain to JSON, file write and report per solve",
                        {w: ["solve_s"] for w in ALL}),
    "cli.verify_self_s": ("s", "verify's own work: allowed_reports scans, utilities, "
                               "best-response costing", {w: ["verify_s"] for w in ALL}),
    "cli.solve_remainder_s": ("s", "solve time no span covers", {w: ["solve_s"] for w in ALL}),
    "instances.closure_s": ("s", "transitive_closure", {
        "det-sparse": ["solve_s", "peak_rss_mb"], "rand-rational": ["none (0.03 of 1.4 s)"]}),
    "instances.closure_pairs_added": ("count", "pairs the closure adds", {
        "det-sparse": ["solve_s", "peak_rss_mb"], "rand-rational": ["none: already transitive"]}),
    "instances.truthful_check_s": ("s", "is_truthful / truthfulness_violations",
                                   {w: ["solve_s"] for w in ALL}),
    "instances.truthful_check_calls": ("count", "truthfulness checks per solve",
                                       {w: ["solve_s"] for w in ALL}),
    "instances.cost_eval_s": ("s", "cost_deterministic / cost_randomized",
                              {w: ["solve_s"] for w in CUT}),
    "mincut.build_s": ("s", "build_network without the closure",
                       {w: ["solve_s", "peak_rss_mb"] for w in CUT}),
    "mincut.nodes": ("count", "network nodes", {w: ["solve_s", "peak_rss_mb"] for w in CUT}),
    "mincut.arcs": ("count", "network arcs", {w: ["solve_s", "peak_rss_mb"] for w in CUT}),
    "mincut.imitation_arcs": ("count", "imitation arcs", {w: ["solve_s", "peak_rss_mb"] for w in CUT}),
    "mincut.clamp_s": ("s", "clamp_capacities", {w: ["solve_s", "peak_rss_mb"] for w in CUT}),
    "mincut.clamp_budget_bits": ("bits", "bit length of the clamp budget",
                                 {w: ["solve_s"] for w in CUT}),
    "mincut.min_cut_self_s": ("s", "lcm scaling, graph fill, Fraction cut value", {
        "rand-rational": ["solve_s (most)"], "det-sparse": ["solve_s"]}),
    "mincut.scale_bits": ("bits", "bit length of CutResult.scale", {w: ["solve_s"] for w in CUT}),
    "mincut.max_capacity_bits": ("bits", "bit length of the largest scaled capacity "
                                         "(over 31: no int32 backend)", {w: ["solve_s"] for w in CUT}),
    "mincut.extract_s": ("s", "extract_mechanism", {w: ["solve_s"] for w in CUT}),
    "mincut.solve_self_s": ("s", "solve_deterministic's own checks", {w: ["solve_s"] for w in CUT}),
    "maxflow.max_flow_s": ("s", "FlowGraph.max_flow (Dinic)", {
        "rand-rational": ["solve_s (largest share)"], "det-sparse": ["solve_s (~15%)"]}),
    "maxflow.residual_bfs_s": ("s", "FlowGraph.residual_source_side", {w: ["solve_s"] for w in CUT}),
    "envelope.envelopes_s": ("s", "envelope_table", {"rand-rational": ["solve_s"]}),
    "envelope.hull_vertices": ("count", "hull vertices over all rows", {"rand-rational": ["solve_s"]}),
    "envelope.recover_s": ("s", "recover_mixture", {"rand-rational": ["solve_s"]}),
    "envelope.solve_self_s": ("s", "solve_randomized's own work", {"rand-rational": ["solve_s"]}),
    "submodular.sub_det_iterations": ("count", "lovasz iterations", {"query-sub": ["solve_s"]}),
    "submodular.sub_det_s_per_iteration": ("s", "sub-det solver time per iteration",
                                           {"query-sub": ["solve_s"]}),
    "submodular.sub_rand_iterations": ("count", "subgradient iterations",
                                       {"query-sub": ["sub_rand_s (printed)"]}),
    "submodular.sub_rand_s_per_iteration": ("s", "subgradient solver time per iteration",
                                            {"query-sub": ["sub_rand_s (printed)"]}),
    "submodular.sub_rand_ellipsoid_iterations": ("count", "ellipsoid iterations",
                                                 {"query-sub": ["solve_s"]}),
    "submodular.sub_rand_ellipsoid_s_per_iteration": ("s", "ellipsoid solver time per iteration",
                                                      {"query-sub": ["solve_s"]}),
    "submodular.oracle_queries": ("count", "distinct oracle queries per solve",
                                  {"query-sub": ["solve_s"]}),
    "submodular.interpret_s": ("s", "interpret_marginals per sub-rand solve",
                               {"query-sub": ["solve_s"]}),
    "submodular.chain_cost_s": ("s", "chain_cost per sub-rand solve", {"query-sub": ["solve_s"]}),
    "submodular.converged_frac": ("ratio", "sub-rand solves reporting converged",
                                  {"query-sub": ["failed count"]}),
    "trace.overhead_frac": ("ratio", "traced over untraced solve time, minus one",
                            {w: ["none: the cost of tracing"] for w in ALL}),
}


def better(name: str) -> str:
    return "higher" if name == "submodular.converged_frac" else "lower"
