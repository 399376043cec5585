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
from .learning import collect_rollouts, train
from .metrics import emit_plot_data
from .verify import run_suite

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _seed_override() -> int | None:
    raw = os.environ.get("FAIRGAME_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise SchemaError(f"FAIRGAME_SEED={raw!r} is not an integer") from exc


def cmd_analyze(args) -> int:
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
            if not 0.0 <= alpha <= 1.0:
                print(f"error: --alpha value {alpha} outside [0, 1]", file=sys.stderr)
                return EXIT_VALIDATION
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


def _run_sweep_item(
    config: ExperimentConfig, alpha: float, index: int, out_root: str
) -> dict:
    """One sweep item in its own run directory; returns a status record."""
    derived_seed = config.seed + index
    run_id = f"{config.algorithm.value}_alpha{alpha:g}_seed{derived_seed}"
    run_dir = Path(out_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        train_config = config.train_config(alpha, derived_seed)
        snapshot = {
            "env": config.env,
            "algorithm": config.algorithm.value,
            "objective": config.objective.value,
            "alpha": alpha,
            "seed": derived_seed,
            "train": {k: getattr(train_config, k) for k in TRAIN_FIELDS},
        }
        (run_dir / "config.json").write_text(json.dumps(snapshot, indent=2, sort_keys=True))
        factory = build_env_factory(config.env)
        result = train(
            factory,
            train_config,
            log_path=run_dir / "log.csv",
            snapshot_path=run_dir / "snapshot.json",
        )
        emit_plot_data(run_dir / "log.csv", run_dir / "panels")
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        write_manifest(
            run_dir,
            snapshot,
            derived_seed,
            started,
            finished,
            notes={
                "env_steps": result.steps,
                "episodes": result.episodes,
                "step_counting": "global across parallel collectors",
            },
        )
        return {"run_id": run_id, "alpha": alpha, "status": "ok", "dir": str(run_dir)}
    except Exception as exc:  # recorded, not raised: other sweep items continue
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        write_manifest(
            run_dir,
            {"alpha": alpha},
            derived_seed,
            started,
            finished,
            notes={"error": f"{type(exc).__name__}: {exc}"},
        )
        return {
            "run_id": run_id,
            "alpha": alpha,
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "dir": str(run_dir),
        }


def cmd_train(args) -> int:
    config = load_experiment_config(args.config, seed_override=_seed_override())
    out_root = Path(config.out)
    out_root.mkdir(parents=True, exist_ok=True)
    items = list(enumerate(config.alphas))
    if args.jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_run_sweep_item, config, alpha, index, str(out_root))
                for index, alpha in items
            ]
            records = [f.result() for f in futures]
    else:
        records = [
            _run_sweep_item(config, alpha, index, str(out_root)) for index, alpha in items
        ]
    summary = {"runs": records}
    (out_root / "sweep.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    failed = [r for r in records if r["status"] != "ok"]
    if len(failed) == len(records):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.episodes < 1:
        print(f"error: --episodes must be at least 1, got {args.episodes}", file=sys.stderr)
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
    returns, apples, ginis = [], [], []
    for _ in range(args.episodes):
        buffer, (stats,) = collect_rollouts([env], policies, rng)
        returns.append(stats.returns)
        apples.append(stats.apples)
        ginis.append(stats.gini)
        if track_joint:
            np.add.at(joint, tuple(buffer.actions[0].T), 1)
    returns = np.stack(returns)
    apples = np.stack(apples)
    ginis = np.array(ginis)
    report = {
        "episodes": args.episodes,
        "return": {
            "mean": returns.mean(axis=0).tolist(),
            "min": returns.min(axis=0).tolist(),
            "max": returns.max(axis=0).tolist(),
        },
        "apples": {
            "mean": apples.mean(axis=0).tolist(),
            "min": apples.min(axis=0).tolist(),
            "max": apples.max(axis=0).tolist(),
        },
        "gini": {
            "mean": float(ginis.mean()),
            "min": float(ginis.min()),
            "max": float(ginis.max()),
        },
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


def _parse_alpha_list(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",") if x.strip()]


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
    train_p.add_argument("--jobs", type=int, default=1, help="parallel sweep items")
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
    plot.add_argument("--window", type=int, default=50)
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
