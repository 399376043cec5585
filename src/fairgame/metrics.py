"""Fairness and efficiency metrics, rolling-window aggregation, and
plot-ready CSV/SVG emission from training logs.
"""

import csv
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, SchemaError

LOG_COLUMNS = [
    "step",
    "episode",
    "agent",
    "return",
    "apples",
    "gini",
    "actor_loss",
    "critic_loss",
    "entropy",
    "floor_hits",
]
DEFAULT_WINDOW = 50

_SVG_WIDTH = 640
_SVG_HEIGHT = 360
_SVG_MARGIN = 40
_LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2")


def gini(consumptions: np.ndarray | Sequence[float]) -> float | np.ndarray:
    """Normalized mean absolute pairwise difference over the last axis:

        sum_i sum_j |c_i - c_j| / (2 N sum_i c_i)

    0 for an even distribution, (N-1)/N for a one-hot vector. A zero total
    would leave the ratio undefined; by convention it maps to 0.

    A vector gives a float. A stack of vectors, shape (..., N), gives one
    Gini per vector, shape (...,), each bit for bit the float its vector
    alone gives: a vector is the one-row stack. Entries must be finite and
    nonnegative; NaN, infinities and negative entries raise DomainError, as
    do a 0-d input and an empty last axis.
    """
    values = np.asarray(consumptions, dtype=float)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise DomainError("gini needs a nonempty vector (or stack of vectors) of consumptions")
    # a NaN anywhere makes both extremes NaN, which fails both comparisons
    if not (values.min(initial=0.0) >= 0.0 and values.max(initial=0.0) < np.inf):
        raise DomainError("consumptions must be finite and nonnegative")
    n = values.shape[-1]
    rows = values.reshape(-1, n)
    totals = np.add.reduce(rows, axis=1)
    diff = rows[:, :, None] - rows[:, None, :]
    pairwise = np.add.reduce(np.abs(diff, out=diff).reshape(len(rows), n * n), axis=1)
    # every positive total is at least the smallest subnormal, 5e-324; a zero
    # total has only zero entries, so its 0 pairwise sum divides to 0
    result = pairwise / (2.0 * n * np.maximum(totals, 5e-324))
    return float(result[0]) if values.ndim == 1 else result.reshape(values.shape[:-1])


def rolling_aggregate(
    series: Sequence[float], window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trailing mean/min/max over a window, with shorter prefix windows.

    Every full window is one row of a sliding-window view, reduced once per
    statistic; the prefix minima and maxima are running accumulations. The
    prefix means stay one slice ``sum()`` over its length each, which is
    ``mean()``: numpy sums a slice pairwise, so a running sum would round
    differently.
    """
    if window < 1:
        raise DomainError("window must be at least 1")
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise DomainError("series is empty")
    width = min(window, values.size)
    full = np.lib.stride_tricks.sliding_window_view(values, width)
    head = values[: width - 1]
    means = np.concatenate(
        [[values[: k + 1].sum() / (k + 1) for k in range(width - 1)], full.mean(axis=1)]
    )
    mins = np.concatenate([np.minimum.accumulate(head), full.min(axis=1)])
    maxs = np.concatenate([np.maximum.accumulate(head), full.max(axis=1)])
    return means, mins, maxs


def _read_log(log_csv_path) -> list[tuple[int, dict]]:
    """The log's nonempty rows as column -> cell dicts, each with the line it
    ends on."""
    try:
        with open(log_csv_path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, None)
                if header is None:
                    raise SchemaError(f"{log_csv_path}: log CSV is empty (missing header)")
                missing = [c for c in LOG_COLUMNS if c not in header]
                if missing:
                    raise SchemaError(
                        f"{log_csv_path}: log CSV missing columns: {', '.join(missing)}"
                    )
                return [(reader.line_num, dict(zip(header, cells))) for cells in reader if cells]
            except csv.Error as exc:
                raise SchemaError(f"{log_csv_path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{log_csv_path}: log CSV is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    except IsADirectoryError:
        raise SchemaError(f"{log_csv_path}: a directory, not a log CSV") from None


def _episode_series(
    log_csv_path, rows: list[tuple[int, dict]]
) -> tuple[list[int], list[int], np.ndarray, list[float], list[float]]:
    """The ``write_panels`` inputs of a parsed log: per-episode steps, the
    sorted agent ids, apples (episodes x agents), the totals, each summing an
    episode's apples in log-row order, and the ginis. A cell that does not parse raises
    SchemaError naming the file, line and column; so does a second row for
    one (episode, agent), and a row whose per-episode step or gini differs
    from the episode's first row. An episode without a row for every agent
    of the log raises SchemaError naming the file, the episode and the
    missing agents."""

    def cell(line: int, row: dict, column: str, parse):
        try:
            return parse(row.get(column))
        except (TypeError, ValueError):
            raise SchemaError(
                f"{log_csv_path}: line {line}, column {column}: expected "
                f"{'an integer' if parse is int else 'a number'}, got {row.get(column)!r}"
            ) from None

    def contradiction(line: int, episode: int, column: str, message: str):
        return SchemaError(
            f"{log_csv_path}: line {line}, episode {episode}, column {column}: {message}"
        )

    table: dict[int, dict[int, dict]] = {}
    for line, row in rows:
        episode = cell(line, row, "episode", int)
        agent = cell(line, row, "agent", int)
        parsed = {
            "step": cell(line, row, "step", int),
            "apples": cell(line, row, "apples", float),
            "gini": cell(line, row, "gini", float),
        }
        per_episode = table.setdefault(episode, {})
        if agent in per_episode:
            raise contradiction(line, episode, "agent", f"a second row for agent {agent}")
        if per_episode:
            first = next(iter(per_episode.values()))
            for column in ("step", "gini"):
                value, earlier = parsed[column], first[column]
                if value != earlier and not (math.isnan(value) and math.isnan(earlier)):
                    raise contradiction(
                        line, episode, column,
                        f"{value!r} differs from the episode's earlier {earlier!r} "
                        "(a per-episode value)",
                    )
        per_episode[agent] = parsed
    episodes = sorted(table)
    agents = sorted({a for per_ep in table.values() for a in per_ep})
    for episode in episodes:
        missing = [a for a in agents if a not in table[episode]]
        if missing:
            raise SchemaError(
                f"{log_csv_path}: episode {episode} has no row for agent(s) "
                f"{', '.join(map(str, missing))}"
            )
    firsts = [next(iter(table[e].values())) for e in episodes]
    apples = [[table[e][a]["apples"] for a in agents] for e in episodes]
    totals = [sum(row["apples"] for row in table[e].values()) for e in episodes]
    steps, ginis = [first["step"] for first in firsts], [first["gini"] for first in firsts]
    return steps, agents, np.reshape(apples, (len(episodes), len(agents))), totals, ginis


_fmt = "{:.6g}".format  # a float as text, 6 significant digits


def _formatted(values: np.ndarray) -> list[str]:
    """``_fmt`` of each entry of a float array, each distinct bit pattern
    formatted once: ``np.unique`` runs on the ``uint64`` view, so -0.0 is
    not merged with 0.0 and every NaN keeps its own text."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [_fmt(value) for value in distinct.view(float).tolist()]
    return [texts[k] for k in inverse.tolist()]


def _canvas_xs(steps: list[float]) -> list[str]:
    """The SVG x coordinate of each step, as text: (v - lo) / span * extent
    from the margin, one array expression rounded as the scalar chain is."""
    if not steps:
        return []
    x_lo, x_hi = min(steps), max(steps)
    x_span = (x_hi - x_lo) or 1.0
    x_extent = _SVG_WIDTH - 2 * _SVG_MARGIN
    return _formatted(_SVG_MARGIN + (np.asarray(steps) - x_lo) / x_span * x_extent)


def _render_panel_svg(
    title: str,
    xs: list[str],
    series: list[tuple[str, list[float], list[float], list[float]]],
) -> str:
    """Minimal hand-rolled line chart: one mean polyline and min/max band per
    series, fixed canvas, deterministic float formatting; ``xs`` holds the
    steps' x coordinates (``_canvas_xs``)."""
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    if xs:
        all_values = np.concatenate([lo + hi for _, _, lo, hi in series])
        y_lo, y_hi = float(all_values.min()), float(all_values.max())
        y_span = (y_hi - y_lo) or 1.0
        # canvas y: (v - lo) / span * extent up from the bottom margin, one
        # array expression per series, rounded as the scalar chain is
        y_extent = _SVG_HEIGHT - 2 * _SVG_MARGIN

        def points(xs: list[str], ys: list[str]) -> str:
            return " ".join([f"{x},{y}" for x, y in zip(xs, ys)])

        for index, (label, mean, low, high) in enumerate(series):
            color = _LINE_COLORS[index % len(_LINE_COLORS)]
            values = np.asarray(mean + high + low[::-1], dtype=float)
            ys = _formatted(_SVG_HEIGHT - _SVG_MARGIN - (values - y_lo) / y_span * y_extent)
            line, band = points(xs, ys[: len(mean)]), points(xs + xs[::-1], ys[len(mean) :])
            body += [
                f'<polygon fill="{color}" fill-opacity="0.2" stroke="none" points="{band}"/>',
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{line}"/>',
                f'<text x="{_SVG_WIDTH - _SVG_MARGIN}" y="{20 + 14 * index}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>',
            ]
        body.append(
            f'<line x1="{_SVG_MARGIN}" y1="{_SVG_HEIGHT - _SVG_MARGIN}" x2="{_SVG_WIDTH - _SVG_MARGIN}" '
            f'y2="{_SVG_HEIGHT - _SVG_MARGIN}" stroke="black" stroke-width="1"/>'
        )
    body.append("</svg>")
    return "\n".join(body) + "\n"


def write_panels(
    out_path, steps, apples, ginis, window: int = DEFAULT_WINDOW, agents=None, totals=None
) -> list[Path]:
    """One CSV + SVG per figure panel: total apples, per-agent apples, and
    the Gini coefficient versus steps, each smoothed by a trailing window
    with min/max bands. ``apples`` is (episodes, agents), its columns
    labelled ``agents`` (default 0, 1, ...); ``totals`` defaults to each
    episode's ``sum`` over those columns in order."""
    from .formats import open_fresh  # formats imports learning, which imports this module

    out = Path(out_path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise SchemaError(f"{out}: not a directory (panels are written into one)") from None
    steps, apples = np.asarray(steps).tolist(), np.asarray(apples, dtype=float)
    if totals is None:
        totals = [sum(row) for row in apples.tolist()]
    labels = range(apples.shape[1]) if agents is None else agents
    # each agent's series contiguous, as a strided min can pick the other signed zero
    per_agent = zip(labels, np.ascontiguousarray(apples.T))
    # (name, title, [(legend, agent label or None, per-episode series)])
    panels = [
        ("panel_total", "Total apples per episode", [("total", None, totals)]),
        ("panel_per_agent", "Apples per agent per episode",
         [(f"agent {a}", a, series) for a, series in per_agent]),
        ("panel_gini", "Gini coefficient per episode", [("gini", None, ginis)]),
    ]
    xs = _canvas_xs(steps)  # formatted once, shared by every panel and series
    written: list[Path] = []
    for name, title, series in panels:
        header = ["step", "mean", "min", "max"] + (["agent"] if name == "panel_per_agent" else [])
        csv_rows, svg_series = [], []
        for legend, agent, values in series if steps else []:  # no episodes: no series
            stats = rolling_aggregate(values, window)
            label = [] if agent is None else [[agent] * len(steps)]
            csv_rows += zip(steps, *map(_formatted, stats), *label)
            svg_series.append((legend, *(stat.tolist() for stat in stats)))
        csv_path, svg_path = out / f"{name}.csv", out / f"{name}.svg"
        with open_fresh(csv_path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(csv_rows)
        with open_fresh(svg_path) as handle:
            handle.write(_render_panel_svg(title, xs, svg_series))
        written += [csv_path, svg_path]
    return written


def emit_plot_data(log_csv_path, out_path, window: int = DEFAULT_WINDOW) -> list[Path]:
    """``write_panels`` from a training log CSV, which is checked first (see
    ``_episode_series``)."""
    steps, agents, apples, totals, ginis = _episode_series(
        log_csv_path, _read_log(log_csv_path)
    )
    return write_panels(out_path, steps, apples, ginis, window, agents=agents, totals=totals)
