"""fairgame benchmark: end-to-end and per-layer timings of its workloads.

    python3 perfbench/run.py --workload cleanup_ppo --seed 1 --seconds 24 --trace 0

Run from the root of a fairgame checkout; fairgame is imported from its
``src`` directory. Each run starts fresh worker processes (``worker.py``)
with the BLAS thread count fixed: one that times operations for
``--seconds`` and checks the outputs and, before and after it, several that
only set up, to sample ``setup_s``. ``--trace 0`` reports the
``end_to_end`` metrics of BENCHMARK.json, ``--trace 1`` its ``per_layer``
metrics from a run that alternates untraced and traced operations.

Operation times are reported in units of the workload's reference tasks,
timed next to each operation (``wall_ref``, and ``work_per_ref`` for work
per reference time; see ``reference.py``), because on a shared host the
same code runs up to 2x slower while neighbours are busy. A change to
fairgame moves these in the same proportion as wall time; the plain times
are kept in the report. ``setup_s`` and ``peak_rss_mb`` are plain
measurements.

``--workload all`` runs every workload in turn. Why each workload was chosen
is in BENCHMARK.json; which layer metric should move which end-to-end
metric, and the layer shares measured when the benchmark was written, are in
``layers.json``. A traced run also prints each layer's measured share of the
traced operation's wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report with
every span, the machine record, output fingerprints and checks is written
under ``perfbench/_work/reports``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("cleanup_ppo", "pd_a2c", "oracle_ascent", "verify_suites")
REQUIRED = ("src/fairgame/__init__.py", "configs/pd_sweep.json",
            "configs/mini_cleanup_pf_vs_uw.json", "BENCHMARK.json")
# Set-up is sampled by fresh processes before and after the measuring worker
# (which gives one more sample), so the median spans the whole run.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 2
BLAS_THREADS = 1
RUN_DEADLINE_S = 175.0


class BenchmarkError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("FAIRGAME_SEED", None)
    return env


def start_worker(args, workdir: Path, tag: str, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; returns (set-up seconds, result)."""
    result_path = workdir / f"{tag}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir / "op"), "--result", str(result_path),
    ]
    if args.tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=worker_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {tag} exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    return result["ready_monotonic"] - launched, result


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(setups: list, result: dict) -> dict:
    ops = [op for op in result["ops"] if not op["traced"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(op["wall_ref"] for op in ops),
        "work_per_ref": statistics.median(op["work_per_ref"] for op in ops),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "work_per_s": statistics.median(op["work_per_s"] for op in ops),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    traced = [op for op in result["ops"] if op["traced"]]
    plain = [op for op in result["ops"] if not op["traced"]]
    metrics = {
        name: statistics.median(op["layers"][name] for op in traced)
        for name in traced[0]["layers"]
    }
    untraced_wall = statistics.median(op["wall_s"] for op in plain)
    overhead = statistics.median(op["wall_s"] for op in traced) - untraced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced_wall
    return metrics


def layer_shares(result: dict) -> dict:
    """Each wrapped name's self time as a share of its traced operation's
    wall time (median over the traced operations), largest first."""
    traced = [op for op in result["ops"] if op["traced"]]
    shares = {
        name[:-len(".self_s")]: statistics.median(op["layers"][name] / op["wall_s"] for op in traced)
        for name in traced[0]["layers"] if name.endswith(".self_s")
    }
    return dict(sorted(((k, v) for k, v in shares.items() if v > 0), key=lambda kv: -kv[1]))


def git_commit() -> str | None:
    # The ceiling stops git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def run_workload(args, spec: dict) -> dict:
    """One run of one workload: set-up samples, the measuring worker, and
    the metrics BENCHMARK.json lists for the chosen trace mode."""
    load_start = os.getloadavg()
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = WORK / f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        before, after = (0, 0) if args.tiny else (SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER)
        setups = [start_worker(args, workdir, f"setup{k}", True, deadline)[0]
                  for k in range(before)]
        setup, result = start_worker(args, workdir, "measure", False, deadline)
        setups.append(setup)
        setups += [start_worker(args, workdir, f"setup{before + k}", True, deadline)[0]
                   for k in range(after)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    computed = per_layer(result) if args.trace else end_to_end(setups, result)
    missing = [m["name"] for m in listed if m["name"] not in computed]
    if missing:
        raise BenchmarkError(f"metrics not computed: {', '.join(missing)}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}
    correct = result["failed"] == 0 and all(c["passed"] for c in result["checks"])
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    untraced = [op for op in result["ops"] if not op["traced"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "result": summary,
        "error_rate": result["failed"] / result["attempted"],
        "work_unit": result["unit"],
        "item": result["item"],
        "wall_s_quartiles": quartiles([op["wall_s"] for op in untraced]),
        "cpu_s_quartiles": quartiles([op["cpu_s"] for op in untraced]),
        "ref_s_quartiles": quartiles([op["ref_s"] for op in untraced]),
        "wall_ref_quartiles": quartiles([op["wall_ref"] for op in untraced]),
        "layer_shares": layer_shares(result) if args.trace else None,
        "setup_s_samples": setups,
        "all_metrics": computed,
        "layers": json.loads((HERE / "layers.json").read_text()),
        "checks": result["checks"],
        "fingerprint": result["ops"][0]["fingerprint"],
        "ops": [
            {k: v for k, v in op.items() if k not in ("layers", "fingerprint")}
            for op in result["ops"]
        ],
        "machine": {
            **result["machine"],
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            "workload_seed": args.seed,
        },
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (reports / name).write_text(json.dumps(report, indent=2))
    print_report(report, listed, reports / name)
    return summary


def print_report(report: dict, listed: list, path: Path) -> None:
    result = report["result"]
    print(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{len(report['ops'])} operations, {result['attempted']} {report['item']} "
          f"attempted, {result['failed']} failed, error_rate {report['error_rate']:g}")
    for metric in listed:
        value = result["metrics"][metric["name"]]["value"]
        print(f"  {metric['name']:<48} {value:>14.6g} {metric['unit']}")
    if not report["trace"]:
        measured = report["all_metrics"]
        print(f"  (not normalised: wall_s = {measured['wall_s']:.6g} s, "
              f"{report['work_unit']}_per_s = {measured['work_per_s']:.6g} 1/s, "
              f"reference {report['ref_s_quartiles']['median']:.6g} s)")
    shares = report["layer_shares"] or {}
    for name, share in list(shares.items())[:8]:
        print(f"  share of traced wall: {name:<40} {share:7.1%}")
    baselines = report["layers"]["roadmap_baselines"].get(report["workload"], {})
    for name, meaning in baselines.items() if report["trace"] else ():
        print(f"  roadmap baseline: {meaning} = {report['all_metrics'][name]:.6g} ({name})")
    for check in report["checks"]:
        if not check["passed"]:
            print(f"  FAILED check {check['name']}: {check['detail']}")
    print(f"  report: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a fairgame checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            args.workload = name
            summaries[name] = run_workload(args, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summaries if len(names) > 1 else summaries[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
