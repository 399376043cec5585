"""The benchmark's workloads. Each one generates its inputs from the workload
seed (``verify_suites`` excepted, see its docstring), splits one operation into an untimed ``prepare``, the timed ``call``
and an untimed ``inspect``, and runs its output checks in ``final_checks``.

Checks do not reuse the code they check: logs and snapshots are parsed with
the standard library, manifests are re-hashed here, the oracle gradient is
compared with central differences of the objective, and the Bellman residual
is evaluated from the game tensors with an einsum written here.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fairgame.cli
import fairgame.envs
import fairgame.formats
import fairgame.markov
import fairgame.verify


@dataclass
class OpRecord:
    """What ``inspect`` learns from one operation's outputs."""

    work: int
    attempted: int
    failed_items: set = field(default_factory=set)
    fingerprint: dict = field(default_factory=dict)
    bytes_written: int = 0


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class TrainWorkload:
    """``fairgame train`` on a shipped sweep config with ``total_steps``,
    ``seed`` and ``out`` replaced. Operations are sweep items."""

    unit = "env_steps"
    item = "sweep items"

    def __init__(self, root: Path, workdir: Path, seed: int, config_name: str,
                 total_steps: int, reference: tuple, tiny: bool):
        self.reference = reference
        doc = json.loads((root / "configs" / config_name).read_text())
        doc["total_steps"] = total_steps
        doc["seed"] = seed
        doc["out"] = "out"
        if tiny:
            doc["alpha"] = doc["alpha"][:1]
        self.config = doc
        self.workdir = workdir
        self.out = workdir / "out"
        (workdir / "config.json").write_text(json.dumps(doc, indent=2))

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.chdir(self.workdir)

    def call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return fairgame.cli.main(["train", "config.json", "--jobs", "1"])

    def inspect(self, exit_code) -> OpRecord:
        sweep = json.loads((self.out / "sweep.json").read_text())["runs"]
        record = OpRecord(work=0, attempted=len(self.config["alpha"]))
        if exit_code != 0:
            record.failed_items.add("exit_code")
        for run in sweep:
            run_dir = self.out / run["run_id"]
            if run["status"] != "ok":
                record.failed_items.add(run["run_id"])
                continue
            manifest = json.loads((run_dir / "manifest.json").read_text())
            record.work += int(manifest["notes"]["env_steps"])
            record.fingerprint[run["run_id"]] = {
                name: sha256_file(run_dir / name) for name in ("log.csv", "snapshot.json")
            }
        record.bytes_written = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return record

    def final_checks(self) -> list[Check]:
        """Full checks on the last operation's run directories."""
        env = fairgame.formats.build_env_factory(self.config["env"])(0)
        shapes = [(env.num_states, count) for count in env.action_counts]
        sweep = json.loads((self.out / "sweep.json").read_text())["runs"]
        checks = [Check("sweep_items", len(sweep) == len(self.config["alpha"]),
                        f"{len(sweep)} items")]
        for run in sweep:
            checks.extend(self._check_run(run, env.num_agents, shapes))
        return checks

    def _check_run(self, run: dict, num_agents: int, shapes: list) -> list[Check]:
        run_id, run_dir = run["run_id"], self.out / run["run_id"]
        checks = [Check(f"{run_id}.status", run["status"] == "ok", run.get("error", ""))]
        if run["status"] != "ok":
            return checks
        manifest = json.loads((run_dir / "manifest.json").read_text())
        listed = manifest["files"]
        on_disk = sorted(
            str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        rehash_ok = on_disk == sorted(listed) and all(
            sha256_file(run_dir / rel) == digest for rel, digest in listed.items()
        )
        checks.append(Check(f"{run_id}.manifest_rehash", rehash_ok, f"{len(listed)} files"))
        problems = fairgame.formats.verify_manifest(run_dir)
        checks.append(Check(f"{run_id}.verify_manifest", not problems, "; ".join(problems)))

        with open(run_dir / "log.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        expected_rows = int(manifest["notes"]["episodes"]) * num_agents
        finite = all(math.isfinite(float(cell)) for row in rows for cell in row)
        checks.append(Check(
            f"{run_id}.log_rows_finite",
            len(rows) == expected_rows and finite,
            f"{len(rows)} rows, expected {expected_rows}, finite={finite}",
        ))

        tables = json.loads((run_dir / "snapshot.json").read_text())
        arrays = [np.asarray(table, dtype=float) for table in tables]
        snapshot_ok = [a.shape for a in arrays] == shapes and all(
            np.isfinite(a).all() for a in arrays
        )
        checks.append(Check(
            f"{run_id}.snapshot_shapes",
            snapshot_ok,
            f"{[a.shape for a in arrays]} vs env {shapes}",
        ))
        return checks

    def item_of(self, check_name: str) -> str:
        return check_name.split(".", 1)[0]


class OracleWorkload:
    """Exact fair policy-gradient ascent on a seeded random Markov game.
    Operations are ascent steps; each step calls ``exact_fair_gradient``."""

    unit = "exact_gradients"
    item = "ascent steps"
    reference = ("dense_solve",)
    agents, actions, gamma, alpha = 3, 3, 0.9, 0.5
    learning_rate = 100.0

    def __init__(self, seed: int, tiny: bool):
        self.states = 30 if tiny else 400
        self.steps = 2 if tiny else 3
        counts = (self.actions,) * self.agents
        self.game = fairgame.envs.random_markov_game(
            self.agents, self.states, counts, self.gamma, seed=seed
        )
        rng = np.random.default_rng([seed, 1])
        self.initial = [0.5 * rng.standard_normal((self.states, c)) for c in counts]
        self.directions = [rng.standard_normal((self.states, c)) for c in counts]
        self.weights = fairgame.markov.AltruismWeights(self.alpha)

    def prepare(self):
        self.policies = fairgame.markov.SoftmaxPolicyProfile([t.copy() for t in self.initial])

    def call(self):
        finite_steps = 0
        for _ in range(self.steps):
            grad = fairgame.markov.exact_fair_gradient(self.game, self.policies, self.weights)
            finite_steps += all(np.isfinite(g).all() for g in grad.per_agent)
            for logits, g in zip(self.policies.logits, grad.per_agent):
                logits += self.learning_rate * g
        objective = fairgame.markov.fair_objective(self.game, self.policies, self.weights)
        return finite_steps, objective

    def inspect(self, result) -> OpRecord:
        finite_steps, objective = result
        record = OpRecord(work=self.steps, attempted=self.steps)
        record.failed_items = {f"step{k}" for k in range(finite_steps, self.steps)}
        record.fingerprint = {"final_J": [repr(float(j)) for j in objective]}
        return record

    def final_checks(self) -> list[Check]:
        """Central differences of J_i along a seeded direction in agent i's
        logits against <grad_i J_i, direction>, and the Bellman residual of
        ``solve_values`` from tensors contracted here."""
        game, policies, weights = self.game, self.policies, self.weights
        exact = fairgame.markov.exact_fair_gradient(game, policies, weights)
        checks = []
        h = 1e-4
        for i, direction in enumerate(self.directions):
            shifted = []
            for sign in (1.0, -1.0):
                moved = fairgame.markov.SoftmaxPolicyProfile([t.copy() for t in policies.logits])
                moved.logits[i] += sign * h * direction
                shifted.append(fairgame.markov.fair_objective(game, moved, weights)[i])
            numeric = (shifted[0] - shifted[1]) / (2.0 * h)
            analytic = float(np.sum(exact.per_agent[i] * direction))
            error = abs(numeric - analytic)
            checks.append(Check(
                f"agent{i}.directional_derivative",
                error <= 1e-8 + 1e-5 * abs(analytic),
                f"central difference {numeric:.12e} vs exact {analytic:.12e}",
            ))
        values = fairgame.markov.solve_values(game, policies).state_values
        probs = []
        for logits in policies.logits:
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs.append(e / e.sum(axis=1, keepdims=True))
        joint = probs[0]
        for p in probs[1:]:
            joint = np.einsum("sa,sb->sab", joint, p).reshape(game.num_states, -1)
        p_pi = np.einsum("sa,sat->st", joint, game.transitions)
        r_pi = np.einsum("sa,nsa->ns", joint, game.rewards)
        residual = float(np.max(np.abs(r_pi + game.discount * values @ p_pi.T - values)))
        checks.append(Check("bellman_residual", residual <= 1e-9, f"{residual:.3e}"))
        return checks

    def item_of(self, check_name: str) -> str:
        return "all"


class VerifyWorkload:
    """The seven ``fairgame.verify`` suites at their ``verify all`` defaults,
    except ``verify_montecarlo`` with one game per alpha. Operations are
    suite checks. The workload seed is not used: the suites keep their own
    fixed seeds, because their three-standard-error Monte Carlo checks are
    expected to fail at some other seeds without any fault in the code."""

    unit = "suite_checks"
    item = "suite checks"
    reference = ("sampling",)
    SUITES = {
        "verify_altruism": {},
        "verify_gradients": {},
        "verify_bellman": {},
        "verify_baseline": {},
        "verify_montecarlo": {"num_games": 1},
        "verify_gini": {},
        "verify_objective_symmetry": {},
    }
    TINY = {
        "verify_altruism": {"num_instances": 5},
        "verify_gradients": {"num_games": 2},
        "verify_bellman": {"num_games": 2, "num_pairs": 5},
        "verify_baseline": {"num_triples": 1, "num_samples": 2000},
        "verify_montecarlo": {"num_games": 1, "num_rollouts": 2000},
        "verify_gini": {"num_vectors": 100},
        "verify_objective_symmetry": {"num_games": 2},
    }

    def __init__(self, tiny: bool):
        self.suites = self.TINY if tiny else self.SUITES

    def prepare(self):
        pass

    def call(self):
        return [getattr(fairgame.verify, name)(**kwargs) for name, kwargs in self.suites.items()]

    def inspect(self, reports) -> OpRecord:
        checks = [(f"{r.suite}.{c.name}", c.passed, c.detail) for r in reports for c in r.checks]
        record = OpRecord(work=len(checks), attempted=len(checks))
        record.failed_items = {name for name, passed, _ in checks if not passed}
        details = json.dumps(checks).encode()
        record.fingerprint = {"checks_sha256": hashlib.sha256(details).hexdigest()}
        return record

    def final_checks(self) -> list[Check]:
        return []

    def item_of(self, check_name: str) -> str:
        return check_name


def make_workload(name: str, root: Path, workdir: Path, seed: int, tiny: bool):
    """The workload named ``name`` with its inputs generated from ``seed``.

    cleanup_ppo runs 3000 env steps per alpha (three PPO batches); every
    sweep item still writes its 49 MB snapshot, so I/O is most of an
    operation (measured shares in layers.json), and more steps would leave
    a run too few operations. pd_a2c runs the shipped 20000, so that an
    operation takes one to two seconds and a run takes the median of
    ten or more. Each workload's reference tasks (``reference.py``) do the
    kind of work of its dominant layers: serialisation for the snapshot
    writes of cleanup_ppo, interpreted per-step Python and tiny numpy calls
    for pd_a2c, dense solves for oracle_ascent and vectorised rollouts for
    verify_suites."""
    if name == "cleanup_ppo":
        return TrainWorkload(root, workdir, seed, "mini_cleanup_pf_vs_uw.json",
                             1000 if tiny else 3000, ("serialise",), tiny)
    if name == "pd_a2c":
        return TrainWorkload(root, workdir, seed, "pd_sweep.json",
                             2000 if tiny else 20_000, ("interpreter", "tiny_numpy"), tiny)
    if name == "oracle_ascent":
        return OracleWorkload(seed, tiny)
    if name == "verify_suites":
        return VerifyWorkload(tiny)
    raise KeyError(name)
