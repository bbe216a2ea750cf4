"""Benchmark of the cdptradeoff library: closed-loop traffic into its public calls.

Run from the repository root:

    python3 perfbench/run.py --workload lp_grid --seed 1 --seconds 52 --trace 0

One client in one process sends an op (one public call) into the library,
waits for the result, and sends the next, for ``--seconds`` seconds and at
least the workload's prefix of ops.  Every output is then checked against
the library's contracts (see checks.py).  The report lines name every metric
with its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload's prefix three times on separate copies of its instances:
untraced, traced, untraced.  It reports the per-layer metrics of the traced
pass, and the ratio of its wall time to the mean of the other two.  Workloads, and why each exists, are described
in README.md beside this file.
"""

import os

# One thread per linear-algebra pool, set before NumPy loads, so that a
# two-core machine measures the program rather than thread scheduling.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("lp_grid", "strong_grid", "smooth_grid", "verify")
# Set-up runs per measured run: this process plus fresh child processes.
SETUP_SAMPLES = 3
# The tail latency is taken at the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


class Record(NamedTuple):
    index: int
    op: object
    result: object
    seconds: float
    run_pass: int  # how many times the run had gone through the op pool before
    error: str


def set_up(workload: str, seed: int, directory: pathlib.Path):
    """Import the library, generate and load the workload, and solve one warm-up cell.

    Returns (ops, generated configs, load_config seconds per call, set-up
    seconds since the process started).
    """
    sys.path.insert(0, str(SRC))
    import workloads
    from cdptradeoff import solver

    directory.mkdir(parents=True, exist_ok=True)
    generated = workloads.generate(workload, seed, directory)
    ops, load_s = workloads.load(workload, seed, generated)
    warm = next(op.prob for op in ops if op.prob is not None)
    solver.solve_cdp(warm, math.inf, 0.0)
    return ops, generated, load_s, time.perf_counter() - PROCESS_START


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def closed_loop(ops: list, seconds: float, min_ops: int, round_ops: int, tracer=None):
    """Send ops one at a time until ``seconds`` passed, ``min_ops`` completed and the round ended."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or i % round_ops or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        error = ""
        t = time.perf_counter()
        try:
            result = tracer.op(i, op.kind, op.call) if tracer else op.call()
        except Exception as exc:  # a raising op is counted failed and the run goes on
            result, error = exc, traceback.format_exc(limit=4)
        records.append(Record(i, op, result, time.perf_counter() - t, i // len(ops), error))
        i += 1
    return records, time.perf_counter() - start


def check_records(records: list) -> dict:
    """Violations per record index: raised ops, failed checks, non-monotone surfaces."""
    import checks

    failures = {}
    for r in records:
        errors = [f"raised: {r.error.strip()}"] if r.error else checks.check(r.op, r.result)
        if errors:
            failures[r.index] = errors
    surfaces = checks.check_surfaces([(r.index, r.op, r.result, r.run_pass) for r in records])
    for index, errors in surfaces.items():
        failures.setdefault(index, []).extend(errors)
    return failures


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(workload: str, seed: int, summary: dict) -> str:
    """Compare the prefix digest and counters with an earlier run of this code and seed.

    The first run of a seed records them under .perfbench/digests; returns
    an error message when a later run disagrees, else "".
    """
    path = WORKDIR / "digests" / f"{workload}-seed{seed}-{code_fingerprint()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != summary:
            return f"prefix outputs differ from an earlier run of this seed ({path.name})"
        return ""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, sort_keys=True), encoding="utf-8")
    return ""


def prefix_summary(records: list, prefix: int) -> dict:
    import checks

    pairs = [(r.op, r.result) for r in records[:prefix]]
    return {"ops": len(pairs), "digest": checks.digest(pairs), "counters": checks.exact_counters(pairs)}


def end_to_end(records, wall, setup_samples, round_ops) -> tuple:
    from cdptradeoff.solver import SolveStatus, TradeoffResult

    lat = sorted(1e3 * r.seconds for r in records)
    n = len(lat)
    # The median latency of each round of ops, averaged over the run's rounds.
    # The host's speed changes over seconds; averaging lets a slow spell shift
    # the figure by its share of the run, where the median of all ops would
    # jump to the slow spell's latencies once it holds about half the ops.
    round_p50 = [
        statistics.median(1e3 * r.seconds for r in records[k : k + round_ops]) for k in range(0, n, round_ops)
    ]
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    uncertified = sum(
        1 for r in records if isinstance(r.result, TradeoffResult) and r.result.status is SolveStatus.ITERATION_LIMIT
    )
    metrics = {
        "cells_per_s": (n / wall, "ops/s"),
        "cell_p50_ms": (statistics.fmean(round_p50), "ms"),
        "cell_tail_ms": (lat[tail_index], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "cell_p50_ms": f"mean of {len(round_p50)} round medians; median of all ops {statistics.median(lat):.6g} ms",
        "cell_tail_ms": f"p{100.0 * (tail_index + 1) / n:.2f}: {n - tail_index - 1} of {n} ops beyond",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
        "uncertified_ratio": f"{uncertified / n:.6g} ratio ({uncertified} of {n} ops returned IterationLimit)",
    }
    return metrics, notes


def per_layer(records, tracer, load_s, overhead) -> dict:
    from cdptradeoff.oracle import OracleSearchResult
    from cdptradeoff.solver import SolveStatus, TradeoffResult
    from workloads import SURFACE_SUITES

    roots = tracer.root_ms()
    calls = tracer.ms_by_name()

    def child(*names):
        return sum(calls.get(name, (0.0, 0))[0] for name in names)

    cells = [r for r in records if isinstance(r.result, TradeoffResult)]
    lp_ms = [roots[r.index][0] for r in cells if r.result.certificate.get("method") == "lp"]
    fw = [r for r in cells if r.result.certificate.get("method") == "dual_fw"]
    fw_iterations = sum(int(r.result.certificate["iterations"]) for r in fw)
    fw_ms = sum((roots[r.index][0] for r in fw), 0.0)
    strong = [r for r in cells if r.op.kind == "scdp" and r.result.status is not SolveStatus.INFEASIBLE]
    enumerated = sum(int(r.result.certificate["enumerated"]) for r in strong)
    enum_bytes = sum(
        int(r.result.certificate["enumerated"]) * r.op.prob.kernel_shape[0] * r.op.prob.kernel_shape[1] * 8
        for r in strong
    )
    searches = [r for r in records if isinstance(r.result, OracleSearchResult)]
    evaluated = sum(r.result.evaluated_count for r in searches)
    feasible = sum(r.result.feasible_count for r in searches)
    oracle_ms = sum((roots[r.index][0] for r in searches), 0.0)
    oracle_bytes = sum(
        r.result.evaluated_count * r.op.prob.kernel_shape[0] * r.op.prob.kernel_shape[1] * 8 for r in searches
    )
    suites = [r for r in records if r.op.kind == "audit"]
    return {
        "solver.lp.cells": (len(lp_ms), "count"),
        "solver.lp.ms_p50": (statistics.median(lp_ms) if lp_ms else 0.0, "ms"),
        "solver.linprog.calls": (calls.get("linprog", (0.0, 0))[1], "count"),
        "solver.linprog.ms": (child("linprog"), "ms"),
        "solver.self_ms": (sum((roots[r.index][1] for r in cells), 0.0), "ms"),
        "solver.dual_fw.cells": (len(fw), "count"),
        "solver.dual_fw.iterations": (fw_iterations, "count"),
        "solver.dual_fw.us_per_iter": (1e3 * fw_ms / fw_iterations if fw_iterations else 0.0, "us"),
        "solver.dual_fw.iteration_limit_cells": (
            sum(1 for r in cells if r.result.status is SolveStatus.ITERATION_LIMIT),
            "count",
        ),
        "solver.scdp.enumerated": (enumerated, "count"),
        "solver.scdp.enum_bytes_computed": (enum_bytes, "B"),
        "solver.scdp.subproblem_iterations": (sum(int(r.result.certificate["iterations"]) for r in strong), "count"),
        "solver.scdp.descent_wins": (
            sum(1 for r in strong if r.result.certificate.get("branch") == "multistart_descent"),
            "count",
        ),
        "prob_core.push_forward.ms": (child("push_forward"), "ms"),
        "classify.value_ms": (child("error_rate", "bayes_error"), "ms"),
        "metrics.result_ms": (child("expected_distortion", "divergence"), "ms"),
        "oracle.kernels_evaluated": (evaluated, "count"),
        "oracle.kernels_per_s": (1e3 * evaluated / oracle_ms if oracle_ms else 0.0, "1/s"),
        "oracle.bytes_computed": (oracle_bytes, "B"),
        "oracle.feasible_ratio": (feasible / evaluated if evaluated else 0.0, "ratio"),
        "audit.surface_suites_ms": (sum((roots[r.index][0] for r in suites if r.op.suite in SURFACE_SUITES), 0.0), "ms"),
        "audit.scalar_suites_ms": (
            sum((roots[r.index][0] for r in suites if r.op.suite not in SURFACE_SUITES), 0.0),
            "ms",
        ),
        "cli.load_config_ms": (1e3 * sum(load_s), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def failing_verdicts(records: list) -> list:
    from cdptradeoff.audit import PropertyResult

    return [
        f"op {r.index} {r.result.name} seed {r.op.suite_seed}: worst {float(r.result.worst):.6g} > {r.result.tolerance:g}"
        for r in records
        if isinstance(r.result, PropertyResult) and not r.result.passed
    ]


def report_failures(failures: dict, records: list) -> None:
    for index in sorted(failures)[:20]:
        op = records[index].op
        print(f"  FAILED op {index} {op.kind} D={op.D!r} P={op.P!r}: {'; '.join(failures[index])}")


def run(args) -> dict:
    directory = WORKDIR / f"run-{os.getpid()}"
    try:
        ops, generated, load_s, setup_s = set_up(args.workload, args.seed, directory)
        import workloads

        prefix = workloads.PREFIX[args.workload]
        round_ops = workloads.ROUND[args.workload]
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        print(
            f"  closed loop, 1 client in 1 process, thread pools pinned to 1; {len(generated)} configs, "
            f"{len(ops)} ops in the pool, prefix {prefix} ops"
        )
        if args.trace:
            import spans

            ops_b, _ = workloads.load(args.workload, args.seed, generated)
            ops_c, _ = workloads.load(args.workload, args.seed, generated)
            # Untraced, traced, untraced again: comparing the traced pass with
            # the mean of the two around it cancels a steady drift in speed.
            before, wall_a = closed_loop(ops, 0.0, prefix, round_ops)
            tracer = spans.Tracer()
            with tracer.installed():
                traced, wall_b = closed_loop(ops_b, 0.0, prefix, round_ops, tracer)
            after, wall_c = closed_loop(ops_c, 0.0, prefix, round_ops)
            untraced_wall = 0.5 * (wall_a + wall_c)
            metrics = per_layer(traced, tracer, load_s, wall_b / untraced_wall)
            notes = {
                "trace.overhead_ratio": (
                    f"traced {wall_b:.4f} s / untraced {wall_a:.4f} s and {wall_c:.4f} s over the same {prefix} ops"
                ),
                "waiting": "none: no layer has a queue or a thread, so spans measure busy time only",
            }
            (WORKDIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"span_fields": ["id", "parent", "op", "name", "start_s", "end_s"], "spans": tracer.spans}),
                encoding="utf-8",
            )
            passes = (before, traced, after)
            summaries = [prefix_summary(p, prefix) for p in passes]
            pass_failures = [check_records(p) for p in passes]
            attempted = sum(len(p) for p in passes)
            failed = sum(len(f) for f in pass_failures)
            for p, f in zip(passes, pass_failures):
                report_failures(f, p)
            checked = [r for p in passes for r in p]
        else:
            samples = [setup_s] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            records, wall = closed_loop(ops, args.seconds, prefix, round_ops)
            metrics, notes = end_to_end(records, wall, samples, round_ops)
            failures = check_records(records)
            summaries = [prefix_summary(records, prefix)]
            attempted, failed = len(records), len(failures)
            notes["failed_ratio"] = f"{failed / attempted:.6g} ratio ({failed} of {attempted} ops)"
            report_failures(failures, records)
            checked = records
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    problems = [] if all(s == summaries[0] for s in summaries) else ["traced and untraced prefix outputs differ"]
    problem = repeat_check(args.workload, args.seed, summaries[0])
    if problem:
        problems.append(problem)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:40s} {value!r:>24} {unit:6s}" + (f"  ({note})" if note else ""))
    for name in ("uncertified_ratio", "failed_ratio", "waiting"):
        if name in notes:
            print(f"  {name:40s} {notes[name]}")
    for line in failing_verdicts(checked):
        print(f"  AUDIT VERDICT FAIL (a finding about the solver): {line}")
    print(f"  prefix digest  {summaries[0]['digest']}  ({summaries[0]['ops']} ops)")
    print("  prefix counters " + " ".join(f"{k}={v}" for k, v in summaries[0]["counters"].items()))
    for message in problems:
        print(f"  REPEAT CHECK FAILED: {message}")
    declared = declared_metrics("per_layer" if args.trace else "end_to_end") or metrics
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }


def declared_metrics(section: str) -> list:
    """Names BENCHMARK.json declares for the result line; the report prints every metric."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return []
    return [m["name"] for m in json.loads(path.read_text(encoding="utf-8"))[section]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "cdptradeoff" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'cdptradeoff'} is missing", file=sys.stderr)
        return 2
    if args.setup_only:
        directory = WORKDIR / f"setup-{os.getpid()}"
        try:
            print(repr(set_up(args.workload, args.seed, directory)[3]))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
