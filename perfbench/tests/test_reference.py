import time
from pathlib import Path

import pytest

import reference
import workloads


@pytest.mark.parametrize("name", ["cleanup_ppo", "pd_a2c", "oracle_ascent", "verify_suites"])
def test_every_workload_names_known_reference_tasks(name, tmp_path):
    root = Path(__file__).resolve().parents[2]
    workload = workloads.make_workload(name, root, tmp_path, 0, tiny=True)
    assert workload.reference
    assert set(workload.reference) <= set(reference.TASKS)


def test_seconds_repeats_until_the_span_and_returns_one_repetition():
    ref = reference.Reference(("interpreter",))
    once = ref.seconds()
    began = time.perf_counter()
    per_repeat = ref.seconds(span=10 * once)
    assert time.perf_counter() - began >= 10 * once
    assert 0 < per_repeat < 5 * once
