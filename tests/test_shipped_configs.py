"""Byte-level determinism of training on the shipped sweep configs.

The digests pin each alpha's ``log.csv``: a refactor of collection, GAE,
advantage combination or the update must leave them unchanged, and a change
that moves them must say so and record the new values.
"""

import hashlib
from pathlib import Path

import pytest

from fairgame.formats import build_env_factory, load_experiment_config
from fairgame.learning import train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PINNED = {
    # full 20000 steps per alpha
    ("pd_sweep.json", None): [
        "75785bb5fcef720ac29bf940d643439918e86cfb9d86d671a50d0a5e0b7c3703",
        "afebf3a85b0ad7ec7d84a2a43f9829c4188770b32eb2c2e2447bf3235a1236fa",
        "6f31a0f6838ee23be90712e9e897994588a7c82c6af22e155f3d36e244db8621",
    ],
    # 3000 of the shipped 200000 steps per alpha, to keep the suite short
    ("mini_cleanup_pf_vs_uw.json", 3000): [
        "b1a0c90469b98b268fd3319b46254296e71d90013d4bbc3e50ace77964088fe1",
        "4ffbf8401989b253003a03a40a3d64c43dbe563ab31c84db28aee02ba9841e8d",
        "d2e6d5594904418cb4007eabdc9ca3902562a75854c8fdab63336d7f95d58647",
    ],
}


@pytest.mark.parametrize("name, total_steps", list(PINNED), ids=[n for n, _ in PINNED])
def test_log_digests_are_pinned(tmp_path, name, total_steps):
    config = load_experiment_config(CONFIGS / name)
    if total_steps is not None:
        config.overrides["total_steps"] = total_steps
    digests = []
    for index, alpha in enumerate(config.alphas):
        log = tmp_path / f"log_{index}.csv"
        # the seed derivation of `fairgame train`
        train(
            build_env_factory(config.env),
            config.train_config(alpha, config.seed + index),
            log_path=log,
        )
        digests.append(hashlib.sha256(log.read_bytes()).hexdigest())
    assert digests == PINNED[(name, total_steps)]
