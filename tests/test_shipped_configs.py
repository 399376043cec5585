"""Byte-level determinism of training on the shipped sweep configs.

The digests pin each alpha's ``log.csv``, policy snapshot and plot panels: a
refactor of collection, GAE, advantage combination, the update, the snapshot
writer or the panel aggregation must leave them unchanged, and a change that
moves them must say so and record the new values.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairgame
from fairgame.formats import build_env_factory, file_sha256, load_experiment_config
from fairgame.learning import save_policy_snapshot, train, write_log_csv
from fairgame.metrics import emit_plot_data

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PINNED = {
    # full 20000 steps per alpha
    ("pd_sweep.json", None): [
        (
            "75785bb5fcef720ac29bf940d643439918e86cfb9d86d671a50d0a5e0b7c3703",
            "82f683d18c5c017a3c6d95939016339070161f8705c69e87e8d4e9919cc43415",
        ),
        (
            "5ab9e585162e6c437b8e38a6c8a20e996adc57415df9c3e54f1fceaecd534a37",
            "b1c4cd8876fceaf860b2863f6e27fe2c0d1cd148130394e0e32466eeb32b6707",
        ),
        (
            "6f31a0f6838ee23be90712e9e897994588a7c82c6af22e155f3d36e244db8621",
            "a086b2551f5af2a27bfcad0ef49b94b311a03c99cf4b3a1e9cff5451c19b4541",
        ),
    ],
    # 3000 of the shipped 200000 steps per alpha, to keep the suite short;
    # each snapshot is the JSON of the tables over the dense observation
    # index, the rows of the full-index tables at the reachable observations
    ("mini_cleanup_pf_vs_uw.json", 3000): [
        (
            "8d8026ea7aca827eca4d22c772a84c2952df5af197f576d41b1b54363a683079",
            "b7c4a45b56d13459dfcf34a1f3d876b6c2ed54fee2dfd133aef8a0fb6cd6c5ea",
        ),
        (
            "762772a8e1cbb838cf4f24324cae253ec3047e3c7008bfdf6d3d372f72d0cc5e",
            "3a9164816cceb89f488de4f95c95e46368f254553f2b295ec3f3e69f562049a5",
        ),
        (
            "d2e6d5594904418cb4007eabdc9ca3902562a75854c8fdab63336d7f95d58647",
            "81d207c324c3c74cef868d6fa4cf6fa14746ac0db90c08348b67f93025941aed",
        ),
    ],
}


# every panel file `emit_plot_data` writes from each alpha's log, in the order
# it returns them
PANELS = {
    ("pd_sweep.json", None): [
        {
            "panel_total.csv": "7f684cf371eebe10c67a8ae335f1c9fd8d3c6683a477049af34621af8a4a76a3",
            "panel_total.svg": "f596fad89f09a7563194d07cf3c12cd2ee992cbf700bc1be0b875be89de87462",
            "panel_per_agent.csv": "12f92084fb5d465eda178c5102dc961c7266aad4e161d3247f20f7ea63f28dda",
            "panel_per_agent.svg": "c06f590c3b54a8ce84495bb5f3e5fae528558ced97c1a982618832237e4f9f9a",
            "panel_gini.csv": "ed77201ef82a315846a372589a433e217496f6afb48243d960e6e7a8746ea345",
            "panel_gini.svg": "ea53113e37939416dc2e4f68de84ae8c5580953a6d1325c0b60b8f07e2fde20d",
        },
        {
            "panel_total.csv": "7f684cf371eebe10c67a8ae335f1c9fd8d3c6683a477049af34621af8a4a76a3",
            "panel_total.svg": "f596fad89f09a7563194d07cf3c12cd2ee992cbf700bc1be0b875be89de87462",
            "panel_per_agent.csv": "12f92084fb5d465eda178c5102dc961c7266aad4e161d3247f20f7ea63f28dda",
            "panel_per_agent.svg": "c06f590c3b54a8ce84495bb5f3e5fae528558ced97c1a982618832237e4f9f9a",
            "panel_gini.csv": "9c9d676c6b48b0ace187908c961c55b5d5254a93a5c973dead541d8a80335f26",
            "panel_gini.svg": "6587f5e7a21a96afd66899725a1aa5a5b018a614d71d5d36894788cdae2469c0",
        },
        {
            "panel_total.csv": "7f684cf371eebe10c67a8ae335f1c9fd8d3c6683a477049af34621af8a4a76a3",
            "panel_total.svg": "f596fad89f09a7563194d07cf3c12cd2ee992cbf700bc1be0b875be89de87462",
            "panel_per_agent.csv": "12f92084fb5d465eda178c5102dc961c7266aad4e161d3247f20f7ea63f28dda",
            "panel_per_agent.svg": "c06f590c3b54a8ce84495bb5f3e5fae528558ced97c1a982618832237e4f9f9a",
            "panel_gini.csv": "fd811f60ed6741309e6b5304d5cf251638cb40be19f89dc64d9cd210f91ab20b",
            "panel_gini.svg": "6ba1d29b9011b74fc22fcd0f42a8cc460d108eaf717d19841f4b767c40937167",
        },
    ],
    ("mini_cleanup_pf_vs_uw.json", 3000): [
        {
            "panel_total.csv": "066a0f3cc7f0ffeb46c5438ca92c7f426209541efbfcd558d4c7c6c0725cd1a0",
            "panel_total.svg": "8e787289aa016a99d0367aae47946fd2d219ea18318497192274ffdbb951b1a2",
            "panel_per_agent.csv": "f5615dee8d8bc8163895b57a99427805990c61d82fb8daca23281f429f5e1b2c",
            "panel_per_agent.svg": "d90b020aca48454dfc5c46519017a6aa5a76e49c18b09d1852b2ceb930c23e53",
            "panel_gini.csv": "72579ece87581730bab68919007ba281326f80743399c9e8f397391e8987e25e",
            "panel_gini.svg": "b034624600f8f2e25e9e087fbd9b9dc0a6b5f0c153f6046ec8049a7fe8b49130",
        },
        {
            "panel_total.csv": "7d1a5cb5ec6f253a4c587c1b7025cfc6fb236164e6b04962d621f4241a8a20e9",
            "panel_total.svg": "fde9932f127c3db4b465920c37f94129083c6a0a4b88db4125d38142bd2dba7d",
            "panel_per_agent.csv": "d3c852d05568c48d131851eadc90fdaf95883f4db368a032ecd7411b99e81091",
            "panel_per_agent.svg": "b902aaaf3fabbb32ec104fd9b958dd67649cfade82bfe6270a5a783130508340",
            "panel_gini.csv": "113a5392c82e226715e436b5307936bba7fcde78ef45e99b08af5fcb2ace548a",
            "panel_gini.svg": "30049dbb8960bb14853971afc1949cf8b294011c24e0f7e7026dbe28dd4fdba6",
        },
        {
            "panel_total.csv": "7c7fc98d57ab6b27dd9e823085698ec925e8220baf4f47a21af3f828fc81df2a",
            "panel_total.svg": "e142d28164881a94f26b9734c4ca74ae2f8d6208adcb91bb0ff26b513395d62c",
            "panel_per_agent.csv": "e18d8b15c95689d4bd250c5b7e75a31be016059a5fce9cb38b3a604c0e2d3b8e",
            "panel_per_agent.svg": "6785d5ec72636d697dfd0afaa9a7aab43edcc7bb1096848dc5df918f16056510",
            "panel_gini.csv": "5004c57320acda04a8b609732358ddffca667f1ab67befb52a1127ae82d45a43",
            "panel_gini.svg": "58b2a2eff3ac5b7037034c8d50753a0c03c2b6e6cfdea4182b3901eb7eeffdd0",
        },
    ],
}


@pytest.fixture(scope="module", params=list(PINNED), ids=[n for n, _ in PINNED])
def trained(request, tmp_path_factory):
    """The pinned config key and each alpha's log path and snapshot digest;
    each snapshot (21 MB for mini-CleanUp) is deleted once hashed."""
    name, total_steps = request.param
    config = load_experiment_config(CONFIGS / name)
    if total_steps is not None:
        config.overrides["total_steps"] = total_steps
    tmp_path = tmp_path_factory.mktemp(name.removesuffix(".json"))
    runs = []
    for index, alpha in enumerate(config.alphas):
        log = tmp_path / f"log_{index}.csv"
        snapshot = tmp_path / f"snapshot_{index}.json"
        # the seed derivation of `fairgame train`
        result = train(
            build_env_factory(config.env), config.train_config(alpha, config.seed + index)
        )
        write_log_csv(log, result.table)
        save_policy_snapshot(snapshot, result.policies)
        runs.append((log, file_sha256(snapshot)))
        snapshot.unlink()
    return request.param, runs


def test_log_and_snapshot_digests_are_pinned(trained):
    key, runs = trained
    digests = [(file_sha256(log), snapshot_digest) for log, snapshot_digest in runs]
    assert digests == PINNED[key]


def test_panel_digests_are_pinned(trained):
    key, runs = trained
    digests = []
    for index, (log, _) in enumerate(runs):
        written = emit_plot_data(log, log.parent / f"panels_{index}")
        digests.append({path.name: file_sha256(path) for path in written})
    assert digests == PANELS[key]


def write_item_log(config_path, index, log) -> None:
    """Train item ``index`` of a sweep config as `fairgame train` seeds it,
    and write its log.csv to ``log``."""
    config = load_experiment_config(config_path)
    index = int(index)
    run = config.train_config(config.alphas[index], config.seed + index)
    write_log_csv(log, train(build_env_factory(config.env), run).table)


def test_training_log_does_not_depend_on_the_blas_kernel(tmp_path):
    """Training makes no BLAS call, so the pd_sweep alpha=0.8 item, whose fair
    combination mixes the agents' advantages, writes the same log.csv bytes
    in a process whose OpenBLAS runs its Sandy Bridge kernels (no FMA) as in
    this one, whatever kernels this host picks."""
    config = CONFIGS / "pd_sweep.json"
    assert load_experiment_config(config).alphas[1] == 0.8
    write_item_log(config, 1, tmp_path / "here.csv")
    src = str(Path(fairgame.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Sandybridge",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        "from test_shipped_configs import write_item_log; write_item_log(*sys.argv[1:])"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(config), "1", str(tmp_path / "kernel.csv")],
        env=env, check=True,
    )
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()
