"""Workload inputs for the robusttrack benchmark.

Each workload is one `track` command on inputs the benchmark writes itself:
a config JSON and, for the backtests, a price CSV.  The inputs depend only
on the workload, the seed and the size mode, so the same seed gives the
same files.  `replicable_backtest` is the one exception: its panel is fixed,
because its failed robust solves must fail in every run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The paper's five-asset Gaussian market: per-period means, a diagonal
# covariance and fixed index weights.  The tracker holds assets 0..3.
MU5 = [0.0025, 0.0035, 0.0010, 0.0005, 0.0045]
SIGMA5 = np.diag([0.0020, 0.0025, 0.0012, 0.0001, 0.0033]).tolist()
WEIGHTS5 = [0.15, 0.20, 0.20, 0.15, 0.30]
TRACKED4 = [0, 1, 2, 3]

# The paper's weekly panel: index in column 0, stocks in columns 1..31,
# 291 weekly prices, and these 12 stocks held by the tracker.
WEEKLY_STOCKS = 31
WEEKLY_PRICES = 291
WEEKLY_TRACKED = [4, 11, 12, 13, 15, 18, 21, 22, 23, 25, 26, 27]
WEEKLY_WINDOW = 104


WORKLOADS = ("downturn_table", "heavy_tail_table", "weekly_backtest",
             "replicable_backtest")
# The table outputs omit the portfolio weights, so their checks read the
# solver's inputs and results from a traced round instead.
TABLES = ("downturn_table", "heavy_tail_table")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_prices(path: Path, prices: np.ndarray, header=None) -> None:
    lines = [",".join(header)] if header else []
    lines += [",".join(repr(float(v)) for v in row) for row in prices]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def weekly_prices(seed: int, periods: int) -> np.ndarray:
    """Index column plus 31 one-factor stocks; the index weighs all 31.

    The 19 stocks outside the tracked set carry their own idiosyncratic
    returns into the index, so the tracked stocks cannot replicate it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    drift = rng.uniform(-0.001, 0.003, WEEKLY_STOCKS)
    beta = rng.uniform(0.6, 1.4, WEEKLY_STOCKS)
    idio = rng.uniform(0.015, 0.04, WEEKLY_STOCKS)
    weights = rng.dirichlet(np.full(WEEKLY_STOCKS, 2.0))
    market = 0.0015 + 0.022 * rng.standard_normal((periods, 1))
    r = drift + beta * market + idio * rng.standard_normal((periods, WEEKLY_STOCKS))
    full = np.column_stack([r @ weights, r])
    return 100.0 * np.cumprod(1.0 + full, axis=0)


def replicable_prices() -> np.ndarray:
    """The fixed 60 x 4 panel of the CLI backtest test: the index (column 0)
    is an exact combination of the three stocks."""
    rng = np.random.default_rng(8)
    r = 0.02 * rng.standard_normal((60, 3)) + 0.001
    w = np.linspace(0.5, 0.1, 3)
    full = np.column_stack([r @ w / w.sum(), r])
    return 100.0 * np.cumprod(1.0 + full, axis=0)


def make_inputs(name: str, seed: int, quick: bool, work: Path) -> Path:
    """Write the workload's inputs under `work` and return the config path.

    The CLI writes its outputs to `work/out`.
    """
    work.mkdir(parents=True, exist_ok=True)
    out_dir = str(work / "out")
    if name == "downturn_table":
        cfg = {
            "command": "simulate",
            "model": {"kind": "gaussian", "mean": MU5, "cov": SIGMA5},
            "composition": WEIGHTS5, "tracked_assets": TRACKED4,
            "ball": {"lambda": 0.1, "sign": "-",
                     "eta_grid": [0.1, 1.0] if quick else [0.1, 0.5, 1.0, 5.0]},
            "loss": {"kind": "l1", "epsilon": 0.01},
            "experiment": {"n": 4000 if quick else 200_000, "seed": seed},
        }
    elif name == "heavy_tail_table":
        cfg = {
            "command": "simulate",
            "model": {"kind": "student_t", "mean": MU5, "scale": SIGMA5, "dof": 10},
            "composition": WEIGHTS5, "tracked_assets": TRACKED4,
            "ball": {"lambda": 0.1,
                     "k_grid": [1.0, -3.0] if quick else [1.0, -1.0, -3.0, -8.0]},
            "loss": {"kind": "l2", "epsilon": 0.01},
            "experiment": {"n": 4000 if quick else 200_000, "seed": seed,
                           "n_ratio": 20_000 if quick else 1_000_000},
        }
    elif name == "weekly_backtest":
        periods = WEEKLY_WINDOW + (8 if quick else WEEKLY_PRICES - 1 - WEEKLY_WINDOW)
        csv = work / "weekly_prices.csv"
        header = ["index"] + [f"S{j:02d}" for j in range(1, WEEKLY_STOCKS + 1)]
        _write_prices(csv, weekly_prices(seed, periods + 1), header)
        cfg = {
            "command": "backtest",
            "data": {"csv": str(csv), "index": "column", "index_col": 0,
                     "tracked": WEEKLY_TRACKED},
            "ball": {"lambda": 0.2, "eta": 0.005},
            "loss": {"kind": "quadratic"},
            "backtest": {"window": WEEKLY_WINDOW, "out_of_sample": periods - WEEKLY_WINDOW},
        }
    elif name == "replicable_backtest":
        # Windows 1 and 2 of the test layout (the panel less its first
        # week): window 1 fails, window 2 converges.  A round takes ~2 s, so
        # a run holds enough rounds for its median to average over the
        # host's speed phases (README, "Host noise").
        csv = work / "replicable_prices.csv"
        _write_prices(csv, replicable_prices()[1:])
        cfg = {
            "command": "backtest",
            "data": {"csv": str(csv), "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.02},
            "loss": {"kind": "l1", "epsilon": 0.01},
            "backtest": {"window": 40, "out_of_sample": 2},
        }
    else:
        raise KeyError(name)
    cfg["io"] = {"out_dir": out_dir}
    path = work / "config.json"
    _write_json(path, cfg)
    return path
