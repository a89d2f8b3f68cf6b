"""End-to-end benchmark for mechdesign.

Runs one workload through the in-process CLI entry point
(``mechdesign.cli.main(["solve", ...])`` and ``["verify", ...]``), checks
every answer against an independent reference (``reference.py``) outside
the timed region, and prints a report followed by one JSON line:

    python3 mdbench/run.py --workload det-sparse --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced.  The timed
rounds run in ``WORKERS`` worker processes, one after another, each for its
share of ``--seconds``: a process's memory layout shifts millisecond
commands by up to 20%, and spreading the samples over processes averages
that out.  Each command is timed between two runs of a fixed reference task
(``refwork.py``); the bounded timings divide by it, which removes most of
the host's speed drift, and the seconds are printed next to them.
``--trace 1`` runs in process, each timed command twice (untraced, then
traced), and reports the per-layer metrics, the solve time no span covers
and the tracing overhead.  ``--workload all`` runs each workload in its own
process and forwards their reports.  Run from the repository root; the package is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
import refwork
import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".mdbench"
SETUP_REPEATS = 5
WORKERS = 3
QUERY_EPS = gen.QUERY_SUB["eps"]
LP_TOL = 1e-6
REPORT_KEYS = ("cost", "checks", "truthful", "cost_truthful")


@dataclass
class Command:
    timing: str  # name of the timing this command feeds
    kind: str  # "solve" or "verify"
    argv: list
    instance: int
    round: int
    in_solve_s: bool = True
    code: int | None = None
    seconds: float = 0.0
    ref_seconds: float = 0.0  # reference task time around the command
    report: dict | None = None
    stderr: str = ""
    root: int | None = None  # root span id of the traced repeat
    traced_seconds: float = 0.0
    solved: "Command | None" = None  # the solve a verify checks
    out: Path | None = None


def _round(workload: str, path: Path, work: Path, k: int, r: int) -> list[Command]:
    """The commands one round runs on instance ``k``; round -1 is the one
    run once, before the timed rounds."""
    inst = str(path)
    if workload in ("det-sparse", "rand-rational"):
        algo = "det" if workload == "det-sparse" else "rand"
        mech = work / f"mech-{k}.json"
        solve = Command("solve_s", "solve", ["solve", inst, "--algo", algo, "--out", str(mech)],
                        k, r, out=mech)
        verify = Command("verify_s", "verify", ["verify", inst, str(mech)], k, r, solved=solve)
        return [solve, verify]
    eps = ["--eps", repr(QUERY_EPS)]
    if r < 0:
        # The default backend's run time varies over a hundredfold between
        # instances (0.3 s to 83 s), so it runs once per run and stays out
        # of solve_s.
        return [Command("sub_rand_s", "solve",
                        ["solve", inst, "--algo", "sub-rand", *eps,
                         "--out", str(work / f"chain-s-{k}.json")], k, r, in_solve_s=False)]
    mech = work / f"mech-{k}.json"
    sub_det = Command("sub_det_s", "solve", ["solve", inst, "--algo", "sub-det", "--out", str(mech)],
                      k, r, out=mech)
    return [
        sub_det,
        Command("verify_s", "verify", ["verify", inst, str(mech)], k, r, solved=sub_det),
        Command("sub_rand_ellipsoid_s", "solve",
                ["solve", inst, "--algo", "sub-rand", "--backend", "ellipsoid", *eps,
                 "--out", str(work / f"chain-e-{k}.json")], k, r),
    ]


def _call(cli_main, argv) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # Start every command from a collected heap, as a fresh process would.
    gc.collect()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = -1
    return code, time.perf_counter() - started, out.getvalue(), err.getvalue()


def _execute(cmd: Command, cli_main, tracer) -> None:
    if cmd.solved is not None and cmd.solved.code != 0:
        cmd.code = None  # nothing to verify; not attempted
        return
    # Traced, a once-per-run command runs traced only: no metric compares it
    # with an untraced run, and it can take half a minute.
    if tracer is None or cmd.in_solve_s:
        cmd.code, cmd.seconds, out, cmd.stderr = _call(cli_main, cmd.argv)
        cmd.report = _kept_report(out)
    if tracer is not None:
        tracer.install()
        tracer.open("cli.main")
        cmd.root = tracer.root
        try:
            code, seconds, out, stderr = _call(cli_main, cmd.argv)
        finally:
            cmd.traced_seconds = tracer.close()
            tracer.uninstall()
        if not cmd.in_solve_s:
            cmd.code, cmd.seconds, cmd.stderr = code, seconds, stderr
            cmd.report = _kept_report(out)


def _kept_report(out: str) -> dict | None:
    """Only what ``check`` reads: a kept verify report of n expected
    utilities would make peak memory grow with the number of rounds."""
    try:
        return {k: v for k, v in json.loads(out).items() if k in REPORT_KEYS}
    except (json.JSONDecodeError, AttributeError):
        return None


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _import_fresh() -> None:
    """Import ``mechdesign.cli`` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mechdesign.cli"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


def _generate(workload: str, seed: int, work: Path) -> tuple[list[dict], list[Path]]:
    count = spec.WORKLOADS[workload]["instances"]
    make = gen.GENERATORS[workload]
    docs = [make(seed, k) for k in range(count)]
    paths = [work / f"instance-{k}.json" for k in range(count)]
    for doc, path in zip(docs, paths):
        gen.write_instance(doc, path)
    return docs, paths


def set_up(workload: str, seed: int, work: Path) -> tuple[list[dict], list[Path], float, float]:
    """Import and generate ``SETUP_REPEATS`` times, each between two runs of
    the reference task.  Returns the instances, the median seconds, and the
    median seconds scaled to the host speed at which the task takes
    ``refwork.NOMINAL_S``."""
    raw, scaled = [], []
    ref = refwork.seconds()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        _import_fresh()
        docs, paths = _generate(workload, seed, work)
        elapsed = time.perf_counter() - started
        after = refwork.seconds()
        raw.append(elapsed)
        scaled.append(elapsed * refwork.NOMINAL_S / ((ref + after) / 2))
        ref = after
    return docs, paths, statistics.median(raw), statistics.median(scaled)


# ---------------------------------------------------------------------------
# checks against the references
# ---------------------------------------------------------------------------

def references(workload: str, doc: dict) -> dict:
    # Imported here so that scipy stays out of the worker processes.
    import reference

    if workload == "det-sparse":
        return {"opt": reference.det_optimum(doc)}
    if workload == "rand-rational":
        return {"opt": reference.rand_optimum(doc)}
    return {"scan": reference.lattice_scan_optimum(doc),
            "lp": reference.lattice_lp_optimum(doc)}


def _close(value: Fraction, ref: float) -> bool:
    return abs(float(value) - ref) <= LP_TOL * max(1.0, abs(ref))


def check(workload: str, cmd: Command, doc: dict, ref: dict) -> str | None:
    """Why the command's answer is wrong, or ``None`` when it is right."""
    report = cmd.report or {}
    if cmd.kind == "verify":
        if cmd.code != 0 or report.get("truthful") is not True:
            return f"verify exited {cmd.code}"
        solved = Fraction(cmd.solved.report["cost"])
        truthful = Fraction(report["cost_truthful"])
        if workload == "query-sub":
            import reference

            # verify costs the instance's matrix; sub-det's cost adds the overhead.
            point = json.loads(cmd.solved.out.read_text())["assignment"]
            if solved != reference.overhead_cost(doc, point):
                return f"solved cost {solved} is not the oracle's cost of its mechanism"
            solved = reference.additive_cost(doc, point)
        if truthful != solved:
            return f"verify cost {truthful} differs from solved cost {solved}"
        return None
    if cmd.timing == "solve_s":
        if ref["opt"] is None:
            return None if cmd.code == 3 and report.get("cost") == "inf" else (
                f"exit {cmd.code}; the reference LP is infeasible")
        if cmd.code != 0:
            return f"exit {cmd.code}; the reference optimum is {ref['opt']}"
        if not _close(Fraction(report["cost"]), ref["opt"]):
            return f"cost {report['cost']} differs from reference {ref['opt']}"
        return None
    if cmd.code != 0:
        return f"exit {cmd.code}"
    if cmd.timing == "sub_det_s":
        if Fraction(report["cost"]) != ref["scan"]:
            return f"cost {report['cost']} differs from lattice scan {ref['scan']}"
        return None
    if report["checks"].get("converged") is not True:
        return "converged: false"
    value = float(report["cost"])
    if not ref["lp"] - LP_TOL <= value <= ref["lp"] + QUERY_EPS:
        return f"value {value} outside [{ref['lp']} - 1e-6, {ref['lp']} + eps]"
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile_line(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return "-"
    pct = int(100 * (n - 10) / n)
    ordered = sorted(values)
    return f"p{pct}={ordered[max(0, -(-pct * n // 100) - 1)]:.4f}"


def seconds_of(c: Command) -> float:
    return c.seconds


def relative(c: Command) -> float:
    return c.seconds / c.ref_seconds


def traced_seconds(c: Command) -> float:
    return c.traced_seconds


def per_instance_solve(cmds: list[Command], value=seconds_of) -> list[float]:
    by_round: dict[int, float] = {}
    for c in cmds:
        if c.kind == "solve" and c.in_solve_s and c.code is not None:
            by_round[c.round] = by_round.get(c.round, 0.0) + value(c)
    return list(by_round.values())


def verify_times(cmds: list[Command], value=seconds_of) -> list[float]:
    return [value(c) for c in cmds if c.kind == "verify" and c.code is not None]


def end_to_end(cmds: list[Command], setup_s: float, rss_mb: float) -> dict:
    values = {
        "setup_s": setup_s,
        "solve_rel": statistics.median(per_instance_solve(cmds, relative)),
        "verify_rel": statistics.median(verify_times(cmds, relative)),
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": spec.END_TO_END[k][0]} for k, v in values.items()}


def per_layer(cmds: list[Command], tracer) -> dict:
    layers = tracer.by_root()
    solves = [c for c in cmds if c.kind == "solve" and c.root is not None]
    verifies = [c for c in cmds if c.kind == "verify" and c.root is not None]

    def med(values):
        return statistics.median(values) if values else 0.0

    def self_s(span, of=solves):
        return med([layers[c.root]["self"][span] for c in of if span in layers[c.root]["self"]])

    def counter(key, of=solves):
        return med([tracer.counters[c.root][key] for c in of if key in tracer.counters[c.root]])

    values = {
        "cli.load_s": self_s("cli.load"),
        "cli.validate_s": self_s("cli.validate"),
        "cli.serialize_s": self_s("cli.serialize"),
        "cli.verify_self_s": self_s("cli.main", verifies),
        "cli.solve_remainder_s": self_s("cli.main"),
        "instances.closure_s": self_s("instances.closure"),
        "instances.closure_pairs_added": counter("instances.closure_pairs_added"),
        "instances.truthful_check_s": self_s("instances.truthful_check"),
        "instances.truthful_check_calls": med(
            [layers[c.root]["calls"]["instances.truthful_check"] for c in solves
             if "instances.truthful_check" in layers[c.root]["calls"]]),
        "instances.cost_eval_s": self_s("instances.cost_eval"),
        "mincut.build_s": self_s("mincut.build"),
        "mincut.nodes": counter("mincut.nodes"),
        "mincut.arcs": counter("mincut.arcs"),
        "mincut.imitation_arcs": counter("mincut.imitation_arcs"),
        "mincut.clamp_s": self_s("mincut.clamp"),
        "mincut.clamp_budget_bits": counter("mincut.clamp_budget_bits"),
        "mincut.min_cut_self_s": self_s("mincut.min_cut"),
        "mincut.scale_bits": counter("mincut.scale_bits"),
        "mincut.max_capacity_bits": counter("mincut.max_capacity_bits"),
        "mincut.extract_s": self_s("mincut.extract"),
        "mincut.solve_self_s": self_s("mincut.solve"),
        "maxflow.max_flow_s": self_s("maxflow.max_flow"),
        "maxflow.residual_bfs_s": self_s("maxflow.residual_bfs"),
        "envelope.envelopes_s": self_s("envelope.envelopes"),
        "envelope.hull_vertices": counter("envelope.hull_vertices"),
        "envelope.recover_s": self_s("envelope.recover"),
        "envelope.solve_self_s": self_s("envelope.solve"),
        "submodular.oracle_queries": counter("submodular.oracle_queries"),
        "submodular.interpret_s": self_s("submodular.interpret"),
        "submodular.chain_cost_s": self_s("submodular.chain_cost"),
    }
    for algo in ("sub_det", "sub_rand", "sub_rand_ellipsoid"):
        of = [c for c in solves if c.timing == f"{algo}_s"]
        iters = [tracer.counters[c.root][f"submodular.{algo}_iterations"] for c in of]
        values[f"submodular.{algo}_iterations"] = med(iters)
        values[f"submodular.{algo}_s_per_iteration"] = med(
            [layers[c.root]["total"][f"submodular.{algo}"] / i for c, i in zip(of, iters) if i])
    sub_rand = [c for c in solves if c.timing in ("sub_rand_s", "sub_rand_ellipsoid_s")]
    values["submodular.converged_frac"] = med(
        [tracer.counters[c.root]["submodular.converged"] for c in sub_rand])
    untraced = per_instance_solve(cmds)
    traced = per_instance_solve(cmds, traced_seconds)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {k: {"value": v, "unit": spec.PER_LAYER[k][0]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_timings(workload: str, cmds: list[Command]) -> None:
    print(f"{'timing':<24}{'median':>10}{'mean':>10}  unit  samples  tail")
    for name in spec.COMMAND_TIMINGS[workload]:
        values = [c.seconds for c in cmds if c.timing == name and c.code is not None]
        if values:
            print(f"{name:<24}{statistics.median(values):>10.4f}{statistics.mean(values):>10.4f}"
                  f"  s     {len(values):>7}  {percentile_line(values)}")
    solves = per_instance_solve(cmds)
    if workload == "query-sub":
        print(f"{'solve_s (per instance)':<24}{statistics.median(solves):>10.4f}"
              f"{statistics.mean(solves):>10.4f}  s     {len(solves):>7}  "
              f"{percentile_line(solves)}")
    refs = [c.ref_seconds for c in cmds if c.code is not None and c.ref_seconds]
    if refs:
        print(f"{'reference task':<24}{statistics.median(refs):>10.6f}"
              f"{statistics.mean(refs):>10.6f}  s     {len(refs):>7}  "
              f"IQR/median {_spread(refs):.3f}")


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def print_layers(workload: str, metrics: dict, cmds: list[Command], tracer) -> None:
    print(f"{'per-layer metric':<46}{'value':>14}  {'unit':<6}should move here")
    for name, entry in metrics.items():
        moves = spec.PER_LAYER[name][2].get(workload, ["not used here"])
        print(f"{name:<46}{entry['value']:>14.6g}  {entry['unit']:<6}{', '.join(moves)}")
    layers = tracer.by_root()
    solves = [layers[c.root]["self"] for c in cmds if c.kind == "solve" and c.root is not None]
    self_s = {name: statistics.median(s[name] for s in solves if name in s)
              for name in {n for s in solves for n in s}}
    top = sorted(self_s, key=self_s.get, reverse=True)[:3]
    print("largest self times in a solve (median where the span occurs): "
          + ", ".join(f"{name} {self_s[name]:.4f} s" for name in top))
    print("spans seen: " + ", ".join(sorted(self_s)))


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def measure(workload: str, paths: list[Path], work: Path, seconds: float, first_round: int,
            tail: bool, tracer=None) -> list[Command]:
    """With ``tail``, run the once-per-run commands (round -1) first; then run
    rounds from ``first_round`` on until about ``seconds`` have passed, and
    at least one round."""
    sys.path.insert(0, str(SRC))
    from mechdesign.cli import main as cli_main

    cmds: list[Command] = []
    # Untraced, each command is timed between two runs of the reference task.
    ref = refwork.seconds() if tracer is None else 0.0

    def execute(cmd: Command) -> None:
        nonlocal ref
        _execute(cmd, cli_main, tracer)
        if tracer is None and cmd.code is not None:
            after = refwork.seconds()
            cmd.ref_seconds = (ref + after) / 2
            ref = after
        cmds.append(cmd)

    started = time.perf_counter()
    if tail and workload == "query-sub":
        # The default sub-rand takes 0.3 s to 83 s on these instances; its
        # time comes out of the window, so the run's length stays bounded.
        for cmd in _round(workload, paths[0], work, 0, -1):
            execute(cmd)
    rounds_started = time.perf_counter()
    r = first_round
    while True:
        k = r % len(paths)
        for cmd in _round(workload, paths[k], work, k, r):
            execute(cmd)
        r += 1
        # Start another round only if it should end less than half a round
        # past the deadline.
        now = time.perf_counter()
        if now + (now - rounds_started) / (r - first_round) / 2 > started + seconds:
            break
    return cmds


def worker(job: dict) -> int:
    """Measure one share of the run and print its commands as JSON."""
    cmds = measure(job["workload"], [Path(p) for p in job["paths"]], Path(job["work"]),
                   job["seconds"], job["first_round"], job["tail"])
    records = []
    for c in cmds:
        record = dict(vars(c))
        record["solved"] = None if c.solved is None else cmds.index(c.solved)
        record["out"] = None if c.out is None else str(c.out)
        records.append(record)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rss_mb": rss_mb, "commands": records}))
    return 0


def _spawn(job: dict) -> tuple[list[Command], float]:
    done = subprocess.run([sys.executable, __file__, "--workload", job["workload"],
                           "--worker", json.dumps(job)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    data = json.loads(done.stdout.splitlines()[-1])
    cmds = []
    for record in data["commands"]:
        solved, out = record.pop("solved"), record.pop("out")
        cmds.append(Command(**record, solved=None if solved is None else cmds[solved],
                            out=None if out is None else Path(out)))
    return cmds, data["rss_mb"]


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        docs, paths, setup_raw_s, setup_s = set_up(workload, seed, work)

        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
            cmds = measure(workload, paths, work, seconds, 0, True, tracer)
            rss_mb = 0.0
        else:
            cmds, rss_mb = [], 0.0
            for w in range(WORKERS):
                # The once-per-run commands take their time out of the first
                # worker's share; the other workers measure full shares.
                job = {"workload": workload, "paths": [str(p) for p in paths],
                       "work": str(work), "seconds": seconds / WORKERS,
                       "first_round": max((c.round + 1 for c in cmds), default=0),
                       "tail": w == 0}
                done, peak = _spawn(job)
                cmds += done
                rss_mb = max(rss_mb, peak)
        r = len({c.round for c in cmds if c.round >= 0})

        refs = {k: references(workload, docs[k]) for k in sorted({c.instance for c in cmds})}
        attempted = [c for c in cmds if c.code is not None]
        failures = []
        for c in attempted:
            try:
                why = check(workload, c, docs[c.instance], refs[c.instance])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                why = f"unreadable report: {exc!r}"
            if why is not None:
                detail = c.stderr.strip().splitlines()[-1:]
                failures.append(f"{c.timing} on instance {c.instance}: {why} {detail}")

        print(f"workload {workload}, seed {seed}: {r} rounds over "
              f"{len(refs)} instances ({', '.join(gen.digest(docs[k]) for k in refs)})")
        print_timings(workload, cmds)
        print(f"{'set-up':<24}{setup_raw_s:>10.4f}  s     median of {SETUP_REPEATS}")
        print(f"failed_frac {len(failures)}/{len(attempted)} = "
              f"{len(failures) / len(attempted):.4f} ratio")
        for line in failures:
            print(f"  failed: {line}")
        if traced:
            metrics = per_layer(cmds, tracer)
            print_layers(workload, metrics, cmds, tracer)
            trace_path = WORK / f"spans-{workload}-{seed}.json"
            tracer.write(trace_path)
            print(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(cmds, setup_s, rss_mb)
            for name, entry in metrics.items():
                print(f"{name:<24}{entry['value']:>10.4f}  {entry['unit']}")
        print(json.dumps({"correct": not failures, "attempted": len(attempted),
                          "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed: int, seconds: float, traced: bool) -> int:
    status = 0
    for workload in spec.WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mechdesign" / "cli.py").is_file():
        print(f"error: no mechdesign sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(json.loads(args.worker))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
