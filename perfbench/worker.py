"""One fresh benchmark process: set up one workload, time its operations for
a fixed number of seconds, then check the outputs. ``run.py`` starts it with
the BLAS thread count already fixed in the environment and reads the JSON
written to ``--result``. With ``--setup-only`` it exits after set-up, so
``run.py`` can sample set-up time several times.

Every operation is bracketed by two timings of the workload's reference
tasks (``reference.py``), which do not use fairgame; the operation's wall
time divided by their mean is the time ``run.py`` reports.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Two operations give a traced run one untraced and one traced operation.
MIN_OPS = 2
# Each reference timing lasts at least this share of the previous operation.
REFERENCE_SHARE = 0.05


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    return parser.parse_args(argv)


def import_fairgame(root: Path):
    """Import fairgame from the checkout's ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fairgame

    if Path(fairgame.__file__).resolve().parent != src / "fairgame":
        raise ImportError(f"fairgame imported from {fairgame.__file__}, not {src}")


def layer_metrics(taken: dict, names: set, bytes_written: int) -> dict:
    """Per-layer metrics of one traced operation: calls and self time for
    every wrapped name (zero when the layer did not run), plus derived rates
    and the counters recorded by the tracer's hooks."""
    spans, counters = taken["spans"], taken["counters"]
    metrics = {}
    for name in sorted(names | set(spans)):
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = span["calls"]
        metrics[f"{name}.self_s"] = span["self_s"]

    def per_call(name, scale):
        span = spans.get(name)
        return scale * span["total_s"] / span["calls"] if span else 0.0

    def per_batch(name):
        steps = counters.get(f"{name}.batch_steps", 0.0)
        return 1e6 * spans[name]["total_s"] / steps if steps else 0.0

    rollouts = counters.get("markov.mc_fair_gradient.rollouts", 0.0)
    table_rows = counters.get("learning.update.table_rows", 0.0)
    metrics.update({
        "envs.step.us_per_call": per_call("envs.step", 1e6),
        "markov.exact_fair_gradient.ms_per_call": per_call("markov.exact_fair_gradient", 1e3),
        "learning.ppo_update.ms_per_1000_steps": per_batch("learning.ppo_update"),
        "learning.a2c_update.ms_per_1000_steps": per_batch("learning.a2c_update"),
        "markov.mc_fair_gradient.rollouts_per_s": (
            rollouts / spans["markov.mc_fair_gradient"]["total_s"] if rollouts else 0.0
        ),
        "learning.update.visited_row_fraction": (
            counters["learning.update.distinct_rows"] / table_rows if table_rows else 0.0
        ),
        "linalg.solve.rhs_columns": counters.get("linalg.solve.rhs_columns", 0.0),
        "io.bytes_written": bytes_written,
    })
    return metrics


def machine_record() -> dict:
    import numpy as np

    record = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        record["blas"] = f"unavailable: {exc}"
    return record


def run_ops(workload, seconds: float, trace: bool) -> list[dict]:
    """Run at least ``MIN_OPS`` operations, and more while the next one is
    expected (at the median duration so far, reference timings and output
    inspection included) to end within ``seconds``. A traced run alternates
    untraced and traced operations; the reference always runs untraced."""
    from reference import Reference
    from spans import Tracer

    tracer = Tracer()
    reference = Reference(workload.reference)
    ops: list[dict] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or (
        time.perf_counter() - start + statistics.median(cycles) <= seconds
    ):
        cycle_began = time.perf_counter()
        traced = trace and len(ops) % 2 == 1
        workload.prepare()
        span = REFERENCE_SHARE * ops[-1]["wall_s"] if ops else 0.0
        ref_before = reference.seconds(span)
        if traced:
            tracer.install()
        try:
            began, began_cpu = time.perf_counter(), time.process_time()
            result = workload.call()
            wall = time.perf_counter() - began
            cpu = time.process_time() - began_cpu
        finally:
            tracer.restore()
        ref_s = (ref_before + reference.seconds(REFERENCE_SHARE * wall)) / 2.0
        record = workload.inspect(result)
        op = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_s": ref_s,
            "wall_ref": wall / ref_s,
            "work": record.work,
            "work_per_s": record.work / wall,
            "work_per_ref": record.work * ref_s / wall,
            "attempted": record.attempted,
            "failed_items": sorted(record.failed_items),
            "fingerprint": record.fingerprint,
            "bytes_written": record.bytes_written,
        }
        if traced:
            op["layers"] = layer_metrics(tracer.take(), tracer.names, record.bytes_written)
        ops.append(op)
        cycles.append(time.perf_counter() - cycle_began)
    return ops


def count_failures(workload, ops: list[dict], checks) -> tuple[int, int, list]:
    """Attempted and failed operations over the run. A failed final check
    fails its item in every operation (operations with equal fingerprints
    produced identical outputs); an operation whose fingerprint differs from
    the first one fails as a whole."""
    checks = list(checks)
    first = ops[0]["fingerprint"]
    deterministic = all(op["fingerprint"] == first for op in ops)
    checks.append({
        "name": "identical_outputs_across_operations",
        "passed": deterministic,
        "detail": f"{len(ops)} operations",
    })
    bad_items = {workload.item_of(c["name"]) for c in checks[:-1] if not c["passed"]}
    attempted = failed = 0
    for op in ops:
        attempted += op["attempted"]
        items = set(op["failed_items"]) | bad_items
        if "all" in items or op["fingerprint"] != first:
            failed += op["attempted"]
        else:
            failed += min(len(items), op["attempted"])
    return attempted, failed, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    import_fairgame(args.root)
    from workloads import make_workload

    workload = make_workload(args.workload, args.root, args.workdir, args.seed, args.tiny)
    result = {"ready_monotonic": time.monotonic()}
    if not args.setup_only:
        ops = run_ops(workload, args.seconds, bool(args.trace))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
            for c in workload.final_checks()
        ]
        attempted, failed, checks = count_failures(workload, ops, checks)
        result.update({
            "unit": workload.unit,
            "item": workload.item,
            "ops": ops,
            "checks": checks,
            "attempted": attempted,
            "failed": failed,
            "machine": machine_record(),
        })
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
