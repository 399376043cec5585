"""Command-line entry point: game analysis, training sweeps, policy
evaluation, verification suites, and plot emission.

Exit codes: 0 success, 1 runtime failure, 2 validation failure. The
FAIRGAME_SEED environment variable overrides the config or flag seed.
"""

import argparse
import datetime
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .envs import RepeatedMatrixGameEnv
from .errors import DomainError, FairgameError, SchemaError
from .formats import (
    TRAIN_FIELDS,
    ExperimentConfig,
    build_env_factory,
    load_experiment_config,
    load_game_file,
    load_policy_snapshot,
    open_fresh,
    read_json,
    write_manifest,
)
from .games import (
    altruism_level_bruteforce,
    altruism_level_closed_form,
    altruistic_extension,
    as_dilemma_payoffs,
    check_consistency_ts_r2,
    classify_social_dilemma,
    find_pure_nash,
    social_optima,
)
from .learning import (  # train stays bound here: perfbench traces fairgame.cli.train
    _grouped,
    _rollouts,
    _runs_per_batch,
    _train_runs,
    save_policy_snapshot,
    train,
    write_log_csv,
)
from .metrics import emit_plot_data, gini, write_panels
from .verify import run_suite

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _seed_override() -> int | None:
    raw = os.environ.get("FAIRGAME_SEED")
    if raw is None:
        return None
    if not raw.strip().isdecimal():
        raise SchemaError(f"FAIRGAME_SEED={raw!r} is not a nonnegative integer")
    return int(raw)


def cmd_analyze(args) -> int:
    if args.out and Path(args.out).is_dir():
        raise SchemaError(
            f"--out {args.out}: a directory, not a file (the report JSON is written to it)"
        )
    loaded = load_game_file(args.game)
    game = loaded.game
    if not game.all_positive:
        print(
            "error: analysis requires strictly positive payoffs "
            "(the log transform is undefined otherwise)",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    report: dict = {
        "file": str(args.game),
        "players": game.num_players,
        "strategies": list(game.strategy_counts),
        "pure_nash": sorted(list(p) for p in find_pure_nash(game)),
        "social_optima": sorted(list(p) for p in social_optima(game)),
    }
    if loaded.dilemma is not None:
        classification = classify_social_dilemma(loaded.dilemma)
        report["class"] = classification.kind.value
        report["inequalities"] = {
            "reward_exceeds_punishment": classification.reward_exceeds_punishment,
            "reward_exceeds_sucker": classification.reward_exceeds_sucker,
            "cooperation_efficient": classification.cooperation_efficient,
            "greed_or_fear": classification.greed_or_fear,
        }
        report["ts_le_r2"] = check_consistency_ts_r2(loaded.dilemma)
        if classification.is_dilemma:
            report["alpha_g"] = altruism_level_closed_form(loaded.dilemma)
        else:
            report["alpha_g"] = None
    resolution = args.resolution
    if resolution is None:
        # bisection handles dilemmas at fine resolution; grid scans stay coarse
        resolution = 1e-6 if as_dilemma_payoffs(game) is not None else 1e-3
    brute = altruism_level_bruteforce(game, resolution)
    report["alpha_g_bruteforce"] = brute if brute is not None else "not 1-altruistic"
    if args.alpha:
        transformed = {}
        for alpha in args.alpha:
            nash = find_pure_nash(altruistic_extension(game, alpha))
            transformed[f"{alpha:g}"] = {
                "pure_nash": sorted(list(p) for p in nash),
                "has_social_optimum": bool(nash & social_optima(game)),
            }
        report["transformed"] = transformed
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _run_dir(config: ExperimentConfig, index: int, out_root: Path) -> Path:
    """Sweep item ``index``'s run directory, named by its run id."""
    alpha, seed = config.alphas[index], config.seed + index
    return out_root / f"{config.algorithm.value}_alpha{alpha:g}_seed{seed}"


def _make_out_dir(path: Path) -> None:
    """Create ``path`` and its parents; raise SchemaError if it, or a
    parent, is a file."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise SchemaError(f"out: {path} is not a directory") from None


class _SweepItem:
    """One sweep item: its run directory (which ``cmd_train`` creates),
    training config, config snapshot and status record. Any failure is
    recorded in the record and the directory's manifest, not raised: the
    other sweep items continue."""

    def __init__(self, config: ExperimentConfig, index: int, out_root: Path):
        self.alpha = config.alphas[index]
        self.seed = config.seed + index
        self.dir = _run_dir(config, index, out_root)
        self.run_id = self.dir.name
        self.started = _now()
        self.record: dict | None = None
        try:
            self.train_config = config.train_config(self.alpha, self.seed)
            self.snapshot = {
                "env": config.env,
                "algorithm": config.algorithm.value,
                "objective": config.objective.value,
                "alpha": self.alpha,
                "seed": self.seed,
                "train": {k: getattr(self.train_config, k) for k in TRAIN_FIELDS},
            }
            with open_fresh(self.dir / "config.json") as handle:
                handle.write(json.dumps(self.snapshot, indent=2, sort_keys=True))
        except Exception as exc:
            self.fail(exc)

    def finish(self, outcome) -> None:
        """Write a trained run's log, snapshot, panels and manifest, or record
        its error."""
        try:
            if isinstance(outcome, Exception):
                raise outcome
            table = outcome.table
            write_log_csv(self.dir / "log.csv", table)
            save_policy_snapshot(self.dir / "snapshot.json", outcome.policies)
            write_panels(self.dir / "panels", table.step, table.apples, table.gini)
            notes = {
                "env_steps": outcome.steps,
                "episodes": outcome.episodes,
                "step_counting": "global across parallel collectors",
            }
            write_manifest(self.dir, self.snapshot, self.seed, self.started, _now(), notes=notes)
            self.record = {"run_id": self.run_id, "alpha": self.alpha, "status": "ok",
                           "dir": str(self.dir)}
        except Exception as exc:
            self.fail(exc)

    def fail(self, exc: Exception) -> None:
        error = f"{type(exc).__name__}: {exc}"
        write_manifest(self.dir, {"alpha": self.alpha}, self.seed, self.started, _now(),
                       notes={"error": error})
        self.record = {"run_id": self.run_id, "alpha": self.alpha, "status": "failed",
                       "error": error, "dir": str(self.dir)}


def _run_sweep_batch(config: ExperimentConfig, batch: list[int], out_root: str) -> list:
    """Sweep items ``batch``, each in its own run directory, trained as one
    ``_train_runs`` call, whose outputs equal those of one ``train`` call
    per item. Returns one status record per item."""
    items = [_SweepItem(config, index, Path(out_root)) for index in batch]
    pending = [item for item in items if item.record is None]
    if pending:
        try:
            factory = build_env_factory(config.env)
            outcomes = _train_runs(factory, [item.train_config for item in pending])
        except Exception as exc:  # outside any one run: the whole batch fails
            outcomes = [exc] * len(pending)
        for item, outcome in zip(pending, outcomes):
            item.finish(outcome)
    return [item.record for item in items]


def _run_sweep_share(config: ExperimentConfig, batches: list[list[int]], out_root: str) -> list:
    """One worker's share of the sweep, batch by batch; each batch's runs
    are released before the next one trains."""
    return [record for batch in batches for record in _run_sweep_batch(config, batch, out_root)]


def _sweep_shares(config: ExperimentConfig, jobs: int) -> list[list[list[int]]]:
    """The sweep items' indices cut into ``min(jobs, items)`` contiguous
    shares, one per worker process, sizes differing by at most one, and each
    share cut into consecutive batches of at most ``_runs_per_batch`` items
    (the cap on one batch's logit tables)."""
    items = len(config.alphas)
    per_batch = _runs_per_batch(build_env_factory(config.env)(0))
    shares = [share.tolist() for share in np.array_split(np.arange(items), min(jobs, items))]
    return [
        [share[start : start + per_batch] for start in range(0, len(share), per_batch)]
        for share in shares
    ]


def cmd_train(args) -> int:
    """Train the config's sweep, one run directory per item, and write
    ``sweep.json``. The items are cut into ``--jobs`` contiguous shares, one
    per worker process (one share runs in-process), and each share into
    batches under a cap on their logit tables; a batch's items train as one
    stacked run. Every item's files equal those of ``train`` run alone, for
    any ``--jobs``. A batch that fails trains each of its items again alone,
    so an item's error is the one ``train`` raises for it. Exits 2, before
    any item trains, when ``out`` or an item's run directory is not a
    directory, and 1 only when every item failed."""
    config = load_experiment_config(args.config, seed_override=_seed_override())
    out_root = Path(config.out)
    _make_out_dir(out_root)
    for index in range(len(config.alphas)):
        _make_out_dir(_run_dir(config, index, out_root))
    shares = _sweep_shares(config, args.jobs)
    if len(shares) > 1:
        # a forking pool starts every worker at once: one per share
        with ProcessPoolExecutor(max_workers=len(shares)) as pool:
            futures = [
                pool.submit(_run_sweep_share, config, share, str(out_root)) for share in shares
            ]
            records = [record for future in futures for record in future.result()]
    else:
        records = _run_sweep_share(config, shares[0], str(out_root))

    summary = {"runs": records}
    with open_fresh(out_root / "sweep.json") as handle:
        handle.write(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    failed = [r for r in records if r["status"] != "ok"]
    if len(failed) == len(records):
        return EXIT_RUNTIME
    return EXIT_OK


def _spread(values: np.ndarray) -> dict:
    """Mean, min and max over episodes (axis 0), per agent where per agent."""
    return {
        name: stat(values, axis=0).tolist()
        for name, stat in (("mean", np.mean), ("min", np.min), ("max", np.max))
    }


def cmd_eval(args) -> int:
    if args.episodes < 1:
        print(f"error: --episodes must be at least 1, got {args.episodes}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed < 0:
        print(f"error: --seed must be nonnegative, got {args.seed}", file=sys.stderr)
        return EXIT_VALIDATION
    spec = read_json(args.env)
    factory = build_env_factory(spec)
    seed = _seed_override()
    if seed is None:
        seed = args.seed
    env = factory(seed)
    policies = load_policy_snapshot(args.snapshot)
    if policies.num_agents != env.num_agents:
        print(
            f"error: snapshot has {policies.num_agents} agents, env has {env.num_agents}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    for agent, logits in enumerate(policies.logits):
        if logits.shape != (env.num_states, env.action_counts[agent]):
            print(
                f"error: snapshot agent {agent} table {logits.shape} does not match "
                f"env ({env.num_states}, {env.action_counts[agent]})",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
    rng = np.random.default_rng(seed)
    track_joint = isinstance(env, RepeatedMatrixGameEnv)
    joint = np.zeros(env.action_counts, dtype=np.int64) if track_joint else None
    groups = _grouped(policies.logits)  # stacked once, collected from every episode
    returns, apples = [], []
    for _ in range(args.episodes):
        buffer, episode_returns, episode_apples = _rollouts([env], groups, policies.version, rng)
        returns.append(episode_returns)
        apples.append(episode_apples)
        if track_joint:
            np.add.at(joint, tuple(buffer.actions[0].T), 1)
    returns = np.concatenate(returns)
    if apples[0] is None:  # one env: it reports apples in every episode or in none
        apples, consumptions = np.zeros_like(returns), returns
    else:
        apples = consumptions = np.concatenate(apples)
    report = {
        "episodes": args.episodes,
        "return": _spread(returns),
        "apples": _spread(apples),
        "gini": _spread(gini(consumptions)),
    }
    if track_joint:
        total = int(joint.sum())
        report["joint_action_frequencies"] = {
            ",".join(str(a) for a in key): int(joint[tuple(key)]) / total
            for key in np.argwhere(joint)
        }
        report["cooperation_rate"] = [
            int(joint.take(0, axis=agent).sum()) / total for agent in range(env.num_agents)
        ]
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        reports = run_suite(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    failures = [
        f"{report.suite}.{check.name}"
        for report in reports
        for check in report.checks
        if not check.passed
    ]
    if failures:
        print("violated invariants: " + ", ".join(failures), file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_plot(args) -> int:
    written = emit_plot_data(args.log, args.out, window=args.window)
    print(json.dumps({"written": [str(p) for p in written]}, indent=2))
    return EXIT_OK


def _positive_int(raw: str) -> int:
    """``--jobs`` and ``--window``: an integer of at least 1."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {raw!r}")
    return int(raw)


def _parse_alpha_list(raw: str) -> list[float]:
    """``--alpha``: comma-separated numbers in [0, 1]."""
    try:
        alphas = [float(x) for x in raw.split(",")]
        if all(0.0 <= a <= 1.0 for a in alphas):
            return alphas
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated numbers in [0, 1], got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgame",
        description="Fair-altruistic game analysis and proportionally fair "
        "multi-agent training on social dilemmas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a game and locate its altruism level")
    analyze.add_argument("game", help="game JSON file (general or T/R/S/P shorthand)")
    analyze.add_argument(
        "--alpha",
        type=_parse_alpha_list,
        default=None,
        help="comma-separated altruism levels to probe (e.g. 0.2,0.5,1)",
    )
    analyze.add_argument(
        "--resolution",
        type=float,
        default=None,
        help="brute-force search resolution (default 1e-6 for 2x2, else 1e-3)",
    )
    analyze.add_argument("--out", default=None, help="also write the report JSON here")
    analyze.set_defaults(fn=cmd_analyze)

    train_p = sub.add_parser("train", help="run the training sweep from a config file")
    train_p.add_argument("config", help="experiment config JSON")
    train_p.add_argument("--jobs", type=_positive_int, default=1, help="parallel sweep items")
    train_p.set_defaults(fn=cmd_train)

    eval_p = sub.add_parser("eval", help="run frozen policies and report metrics")
    eval_p.add_argument("snapshot", help="policy snapshot JSON")
    eval_p.add_argument("--env", required=True, help="environment spec JSON file")
    eval_p.add_argument("--episodes", type=int, default=100)
    eval_p.add_argument("--seed", type=int, default=0)
    eval_p.set_defaults(fn=cmd_eval)

    verify_p = sub.add_parser("verify", help="run a named verification suite")
    verify_p.add_argument(
        "suite", help="altruism | gradients | bellman | baseline | montecarlo | gini | symmetry | all"
    )
    verify_p.set_defaults(fn=cmd_verify)

    plot = sub.add_parser("plot", help="emit plot-ready panels from a training log")
    plot.add_argument("log", help="training log CSV")
    plot.add_argument("--out", required=True, help="output directory for panels")
    plot.add_argument("--window", type=_positive_int, default=50)
    plot.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FairgameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
