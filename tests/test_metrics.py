import csv
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairgame.errors import DomainError, SchemaError
from fairgame.metrics import (
    LOG_COLUMNS,
    emit_plot_data,
    gini,
    rolling_aggregate,
    write_panels,
)

DATA = Path(__file__).parent / "data"

nonneg_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=12
)


def reference_gini(consumptions) -> float:
    """``gini`` as it was written before its reductions were spelled out:
    the reference its bits are checked against."""
    values = np.asarray(consumptions, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError("gini needs a nonempty vector of consumptions")
    if np.any(values < 0.0):
        raise DomainError("consumptions must be nonnegative")
    total = values.sum()
    if total == 0.0:
        return 0.0
    pairwise = np.abs(values[:, None] - values[None, :]).sum()
    return float(pairwise / (2.0 * values.size * total))


class TestGini:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_bit_identical_to_reference(self, n):
        rng = np.random.default_rng(n)
        for exponent in (-300, -150, -20, 0, 20, 150, 300):
            vectors = rng.uniform(0.0, 1.0, size=(300, n)) * 10.0**exponent
            vectors[rng.random(vectors.shape) < 0.2] = 0.0  # zeros injected
            vectors[-1] = 0.0
            vectors[-2] = 10.0**exponent
            got = np.array([gini(v) for v in vectors])
            want = np.array([reference_gini(v) for v in vectors])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), exponent
            stacked = gini(vectors)
            assert stacked.shape == (300,)
            assert np.array_equal(stacked.view(np.uint64), want.view(np.uint64)), exponent

    def test_stack_keeps_leading_shape(self):
        vectors = np.random.default_rng(0).uniform(0.0, 5.0, size=(2, 3, 4))
        vectors[1, 2] = 0.0
        got = gini(vectors)
        assert got.shape == (2, 3)
        assert got[1, 2] == 0.0
        assert all(got[i, j] == gini(vectors[i, j]) for i in range(2) for j in range(3))
        assert gini(np.zeros((0, 4))).shape == (0,)

    def test_vector_gives_a_float(self):
        assert type(gini([1.0, 2.0])) is float

    def test_even_distribution(self):
        assert gini([1, 1, 1, 1]) == 0.0

    def test_one_hot_seven_agents(self):
        assert gini([1, 0, 0, 0, 0, 0, 0]) == pytest.approx(6 / 7)

    def test_hand_computed(self):
        assert gini([1, 2, 3]) == pytest.approx(8 / 36)

    def test_zero_total_convention(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            gini([1.0, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            gini([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            gini([bad, 1.0])
        stack = np.ones((3, 4))
        stack[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            gini(stack)

    def test_negative_anywhere_in_a_stack_rejected(self):
        stack = np.ones((4, 3))
        stack[3, 2] = -1e-300
        with pytest.raises(DomainError, match="nonnegative"):
            gini(stack)

    @pytest.mark.parametrize("shape", [(3, 0), (2, 3, 0)])
    def test_empty_last_axis_rejected(self, shape):
        with pytest.raises(DomainError):
            gini(np.zeros(shape))

    def test_zero_dimensional_rejected(self):
        with pytest.raises(DomainError):
            gini(np.float64(2.0))

    @settings(max_examples=300, deadline=None)
    @given(nonneg_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, values, k):
        # k * v rounded to zero or into the subnormals keeps too few bits for
        # the scaled vector to be a multiple of the first (0.5 * 5e-324 == 0.0)
        assume(all(v == 0.0 or k * v >= sys.float_info.min for v in values))
        assert gini([k * v for v in values]) == pytest.approx(gini(values), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(nonneg_vectors, st.randoms())
    def test_permutation_invariance(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(values), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(nonneg_vectors)
    def test_bounds(self, values):
        n = len(values)
        assert -1e-15 <= gini(values) <= (n - 1) / n + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=8),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_pigou_dalton_transfer(self, values, fraction):
        arr = np.asarray(values)
        if arr.sum() == 0.0:
            return
        rich = int(np.argmax(arr))
        poor = int(np.argmin(arr))
        if arr[rich] == arr[poor]:
            return
        delta = fraction * (arr[rich] - arr[poor]) / 2.0
        transferred = arr.copy()
        transferred[rich] -= delta
        transferred[poor] += delta
        assert gini(transferred) <= gini(arr) + 1e-12


class TestRollingAggregate:
    def test_window_one_is_identity(self):
        series = [3.0, 1.0, 2.0]
        mean, low, high = rolling_aggregate(series, 1)
        assert mean.tolist() == series
        assert low.tolist() == series
        assert high.tolist() == series

    def test_constant_series(self):
        mean, low, high = rolling_aggregate([5.0] * 7, 3)
        assert np.all(mean == 5.0) and np.all(low == 5.0) and np.all(high == 5.0)

    def test_hand_computed(self):
        mean, low, high = rolling_aggregate([1.0, 2.0, 3.0], 2)
        assert mean.tolist() == [1.0, 1.5, 2.5]
        assert low.tolist() == [1.0, 1.0, 2.0]
        assert high.tolist() == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rolling_aggregate([], 3)

    def test_bad_window_rejected(self):
        with pytest.raises(DomainError):
            rolling_aggregate([1.0], 0)

    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 49, 50, 51, 127, 128, 129, 1000])
    def test_bit_identical_to_per_element_reference(self, length):
        rng = np.random.default_rng(length)
        data = {
            "mixed": rng.standard_normal(length) * 10.0 ** rng.integers(-8, 9, length),
            "uniform": rng.uniform(0.0, 1.0, length),
            "integer": rng.integers(0, 100, length).astype(float),
        }
        for kind, series in data.items():
            for window in (1, 2, 3, 8, 9, 50, 128, 129, 300):
                got = rolling_aggregate(series, window)
                want = per_element_rolling_aggregate(series, window)
                for stat, a, b in zip(("mean", "min", "max"), got, want):
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (
                        kind, window, stat
                    )


def per_element_rolling_aggregate(series, window):
    """Reference: the trailing statistics of a fresh slice per element."""
    values = np.asarray(series, dtype=float)
    means = np.empty_like(values)
    mins = np.empty_like(values)
    maxs = np.empty_like(values)
    for i in range(values.size):
        chunk = values[max(0, i - window + 1) : i + 1]
        means[i] = chunk.mean()
        mins[i] = chunk.min()
        maxs[i] = chunk.max()
    return means, mins, maxs


def write_log(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=LOG_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def synthetic_rows() -> list[dict]:
    rows = []
    for episode in range(6):
        for agent in range(2):
            rows.append(
                {
                    "step": (episode + 1) * 100,
                    "episode": episode,
                    "agent": agent,
                    "return": 10.0 + episode,
                    "apples": float(episode * (agent + 1)),
                    "gini": round(episode / 10.0, 3),
                    "actor_loss": 0.1,
                    "critic_loss": 0.2,
                    "entropy": 0.6,
                    "floor_hits": 0,
                }
            )
    return rows


class TestEmitPlotData:
    def test_empty_log_produces_empty_panels(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, [])
        written = emit_plot_data(log, tmp_path / "panels")
        names = {p.name for p in written}
        assert names == {
            "panel_total.csv",
            "panel_total.svg",
            "panel_per_agent.csv",
            "panel_per_agent.svg",
            "panel_gini.csv",
            "panel_gini.svg",
        }
        rows = (tmp_path / "panels" / "panel_total.csv").read_text().splitlines()
        assert rows == ["step,mean,min,max"]

    def test_single_run_min_equals_max(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, synthetic_rows())
        emit_plot_data(log, tmp_path / "panels", window=1)
        with open(tmp_path / "panels" / "panel_total.csv") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            assert row["min"] == row["max"] == row["mean"]

    def test_totals_sum_agents(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, synthetic_rows())
        emit_plot_data(log, tmp_path / "panels", window=1)
        with open(tmp_path / "panels" / "panel_total.csv") as handle:
            rows = list(csv.DictReader(handle))
        # episode e has apples e and 2e for the two agents
        assert [float(r["mean"]) for r in rows] == [3.0 * e for e in range(6)]

    def test_missing_columns_rejected(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("step,episode\n1,0\n")
        with pytest.raises(SchemaError):
            emit_plot_data(log, tmp_path / "panels")

    def test_golden_svg_byte_stable(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, synthetic_rows())
        emit_plot_data(log, tmp_path / "panels", window=2)
        produced = (tmp_path / "panels" / "panel_gini.svg").read_bytes()
        golden = (DATA / "panel_gini_golden.svg").read_bytes()
        assert produced == golden


def scalar_panels(steps, apples, ginis, window):
    """Reference for ``write_panels``: each panel's CSV and SVG text, every
    point scaled by the scalar ``sx``/``sy`` and formatted by one
    ``format(x, ".6g")`` call."""
    width, height, margin = 640, 360, 40
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2")

    def fmt(x):
        return format(x, ".6g")

    def svg(title, series):
        body = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>',
        ]
        if steps:
            x_lo, x_hi = min(steps), max(steps)
            x_span = (x_hi - x_lo) or 1.0
            all_values = np.concatenate([lo + hi for _, _, lo, hi in series])
            y_lo, y_hi = float(all_values.min()), float(all_values.max())
            y_span = (y_hi - y_lo) or 1.0

            def sx(x):
                return margin + (x - x_lo) / x_span * (width - 2 * margin)

            def sy(y):
                return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

            def points(xs, ys):
                return " ".join(f"{x},{fmt(sy(y))}" for x, y in zip(xs, ys))

            xs = [fmt(sx(x)) for x in steps]
            for index, (label, mean, low, high) in enumerate(series):
                color = colors[index % len(colors)]
                body += [
                    f'<polygon fill="{color}" fill-opacity="0.2" stroke="none" '
                    f'points="{points(xs + xs[::-1], high + low[::-1])}"/>',
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{points(xs, mean)}"/>',
                    f'<text x="{width - margin}" y="{20 + 14 * index}" text-anchor="end" '
                    f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>',
                ]
            body.append(
                f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
                f'y2="{height - margin}" stroke="black" stroke-width="1"/>'
            )
        body.append("</svg>")
        return "\n".join(body) + "\n"

    apples = np.asarray(apples, dtype=float)
    totals = [sum(row) for row in apples.tolist()]
    panels = [
        ("panel_total", "Total apples per episode", [("total", None, totals)]),
        ("panel_per_agent", "Apples per agent per episode",
         [(f"agent {a}", a, apples[:, a].copy()) for a in range(apples.shape[1])]),
        ("panel_gini", "Gini coefficient per episode", [("gini", None, ginis)]),
    ]
    files = {}
    for name, title, series in panels:
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        label = ["agent"] if name == "panel_per_agent" else []
        writer.writerow(["step", "mean", "min", "max"] + label)
        svg_series = []
        for legend, agent, values in series if steps else []:
            mean, low, high = [stat.tolist() for stat in rolling_aggregate(values, window)]
            for s, m, lo, hi in zip(steps, mean, low, high):
                writer.writerow([s, fmt(m), fmt(lo), fmt(hi)] + ([] if agent is None else [agent]))
            svg_series.append((legend, mean, low, high))
        files[f"{name}.csv"] = text.getvalue().encode()
        files[f"{name}.svg"] = svg(title, svg_series).encode()
    return files


class TestPanelsEqualTheScalarRendering:
    def random_panel_input(self, rng):
        episodes = int(rng.integers(0, 120))
        num_agents = int(rng.integers(1, 6))
        steps = np.cumsum(rng.integers(0, 3, episodes) * int(rng.integers(1, 500)))
        scale = 10.0 ** int(rng.integers(-3, 4))
        apples = np.round(rng.exponential(scale, (episodes, num_agents)), int(rng.integers(0, 4)))
        apples[rng.random(apples.shape) < 0.2] = 0.0
        apples[rng.random(apples.shape) < 0.1] = -0.0
        ginis = rng.uniform(0.0, 0.8, episodes)
        ginis[rng.random(episodes) < 0.1] = -0.0
        if rng.random() < 0.3:
            ginis[rng.random(episodes) < 0.2] = np.nan
        return steps, apples, ginis, int(rng.integers(1, 51))

    def test_300_random_series(self, tmp_path):
        rng = np.random.default_rng(18)
        for case in range(300):
            steps, apples, ginis, window = self.random_panel_input(rng)
            out = tmp_path / str(case)
            write_panels(out, steps, apples, ginis, window)
            expected = scalar_panels(steps.tolist(), apples, ginis, window)
            for name, content in expected.items():
                assert (out / name).read_bytes() == content, (case, name)
            shutil.rmtree(out)  # 300 cases would leave 2100 files behind
