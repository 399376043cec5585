"""Byte-level determinism of training on the shipped sweep configs.

The digests pin each alpha's ``log.csv`` and policy snapshot: a refactor of
collection, GAE, advantage combination, the update or the snapshot writer
must leave them unchanged, and a change that moves them must say so and
record the new values.
"""

from pathlib import Path

import pytest

from fairgame.formats import build_env_factory, file_sha256, load_experiment_config
from fairgame.learning import train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PINNED = {
    # full 20000 steps per alpha
    ("pd_sweep.json", None): [
        (
            "75785bb5fcef720ac29bf940d643439918e86cfb9d86d671a50d0a5e0b7c3703",
            "82f683d18c5c017a3c6d95939016339070161f8705c69e87e8d4e9919cc43415",
        ),
        (
            "afebf3a85b0ad7ec7d84a2a43f9829c4188770b32eb2c2e2447bf3235a1236fa",
            "932ec777f3d972eb7aaac77ea351483c2542091300926795c636646ce9e45d56",
        ),
        (
            "6f31a0f6838ee23be90712e9e897994588a7c82c6af22e155f3d36e244db8621",
            "a086b2551f5af2a27bfcad0ef49b94b311a03c99cf4b3a1e9cff5451c19b4541",
        ),
    ],
    # 3000 of the shipped 200000 steps per alpha, to keep the suite short
    ("mini_cleanup_pf_vs_uw.json", 3000): [
        (
            "b1a0c90469b98b268fd3319b46254296e71d90013d4bbc3e50ace77964088fe1",
            "aa78479cb2bcd9197ddb1138d9173d1583c49fb140a3323c74a4e1277b3fe3aa",
        ),
        (
            "4ffbf8401989b253003a03a40a3d64c43dbe563ab31c84db28aee02ba9841e8d",
            "e6fa925759b46428e8394d1623b7c906a6a6b9d13a9f0de8fbd812bbf33d8ea6",
        ),
        (
            "d2e6d5594904418cb4007eabdc9ca3902562a75854c8fdab63336d7f95d58647",
            "eb51795888acaddc38dcdecd4755b4b4968ade0c3728677a7b26246d0e990ddc",
        ),
    ],
}


@pytest.mark.parametrize("name, total_steps", list(PINNED), ids=[n for n, _ in PINNED])
def test_log_and_snapshot_digests_are_pinned(tmp_path, name, total_steps):
    config = load_experiment_config(CONFIGS / name)
    if total_steps is not None:
        config.overrides["total_steps"] = total_steps
    digests = []
    for index, alpha in enumerate(config.alphas):
        log = tmp_path / f"log_{index}.csv"
        snapshot = tmp_path / f"snapshot_{index}.json"
        # the seed derivation of `fairgame train`
        train(
            build_env_factory(config.env),
            config.train_config(alpha, config.seed + index),
            log_path=log,
            snapshot_path=snapshot,
        )
        digests.append((file_sha256(log), file_sha256(snapshot)))
    assert digests == PINNED[(name, total_steps)]
