"""Span tracing of fairgame from outside the package.

A ``Tracer`` replaces the public functions of the layer modules, the env
``step``/``reset`` methods, ``SoftmaxPolicyProfile.joint_probs`` and
``numpy.linalg.solve`` with wrappers that record one span per call. Every
module binding of a function is replaced, so a wrapper sits on the name each
caller looks up (``fairgame.cli.train`` as well as ``fairgame.learning.train``).
Spans are kept in memory as ``[name, parent_index, start, end]`` and reduced
to per-name call counts, inclusive time and self time by ``take()``.
"""

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("envs", "learning", "markov", "games", "metrics", "formats", "verify")
ENV_CLASSES = ("MiniCleanupEnv", "RepeatedMatrixGameEnv", "MarkovGameEnv")
ENV_METHODS = ("step", "reset")
# play_episode is left unwrapped so that collect_rollouts' self time keeps
# action sampling and episode bookkeeping (everything but env time).
UNWRAPPED = {"learning.play_episode"}


def self_times(spans) -> dict:
    """Per-name ``[calls, total_s, self_s]`` from ``[name, parent, start, end]``
    spans. Self time is a span's duration minus the part of its interval that
    the union of its child spans covers. Inclusive time sums every call, so a
    name nested inside itself would be counted twice (no fairgame function
    recurses)."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats: dict = {}
    for index, (name, _, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered
    return stats


def _argument(fn, name):
    """Extractor for one named argument of ``fn`` from a call's args/kwargs."""
    position = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return get


class Tracer:
    """Installs span wrappers on fairgame and restores the originals on exit.

    Use as a context manager; ``take()`` returns and clears what was recorded.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self._stack: list = []
        self._patches: list = []
        self.names: set = set()

    def wrap(self, fn, name, before=None):
        """A wrapper recording one span named ``name`` per call of ``fn``.
        ``before(args, kwargs)`` runs ahead of the span to update counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr, replacement) -> None:
        """Bind ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every public function of the layer modules at every binding
        inside the fairgame package, plus the methods and numpy entry point
        named in the module docstring."""
        import fairgame
        from fairgame import envs, markov

        bound = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "fairgame" or name.startswith("fairgame."))
        ]
        for layer in LAYER_MODULES:
            module = getattr(fairgame, layer)
            for attr, fn in sorted(vars(module).items()):
                span = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or span in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self.wrap(fn, span, self._hook(span, fn))
                for owner in bound:
                    for owner_attr, value in list(vars(owner).items()):
                        if value is fn:
                            self.patch(owner, owner_attr, wrapper)
        for cls_name in ENV_CLASSES:
            cls = getattr(envs, cls_name)
            for method in ENV_METHODS:
                self.patch(cls, method, self.wrap(cls.__dict__[method], f"envs.{method}"))
        profile = markov.SoftmaxPolicyProfile
        self.patch(
            profile, "joint_probs", self.wrap(profile.__dict__["joint_probs"], "markov.joint_probs")
        )
        solve = np.linalg.__dict__["solve"]
        self.patch(np.linalg, "solve", self.wrap(solve, "linalg.solve", self._count_rhs(solve)))

    def _hook(self, span, fn):
        counters = self.counters
        if span in ("learning.ppo_update", "learning.a2c_update"):
            get_policies = _argument(fn, "policies")
            get_buffer = _argument(fn, "buffer")

            def visited_rows(args, kwargs):
                obs, _ = get_buffer(args, kwargs).flat()
                logits = get_policies(args, kwargs).logits
                counters["learning.update.distinct_rows"] += sum(
                    len(np.unique(obs[:, i])) for i in range(obs.shape[1])
                )
                counters["learning.update.table_rows"] += sum(t.shape[0] for t in logits)
                counters[f"{span}.batch_steps"] += obs.shape[0]

            return visited_rows
        if span == "markov.mc_fair_gradient":
            get_rollouts = _argument(fn, "num_rollouts")

            def rollouts(args, kwargs):
                counters["markov.mc_fair_gradient.rollouts"] += get_rollouts(args, kwargs)

            return rollouts
        return None

    def _count_rhs(self, solve):
        counters = self.counters
        get_a = _argument(solve, "a")
        get_b = _argument(solve, "b")

        def rhs_columns(args, kwargs):
            a, b = np.shape(get_a(args, kwargs)), np.shape(get_b(args, kwargs))
            batch = math.prod(a[:-2])
            counters["linalg.solve.rhs_columns"] += batch * (1 if len(b) == 1 else b[-1])

        return rhs_columns

    def take(self) -> dict:
        """Per-name span statistics and counters recorded since the last take."""
        stats = self_times(self.spans)
        result = {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(stats.items())
            },
            "counters": dict(self.counters),
        }
        self.spans.clear()
        self.counters.clear()
        return result

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
