"""Every config under examples/ runs through `track` at a reduced size.

The examples hold the full-scale experiment settings (README, "Examples");
here each one runs with its draw counts cut to 2000 and, for the backtest,
on a synthetic 291 x 32 price panel in place of the weekly dataset.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from robusttrack.cli import main

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.json"))


def weekly_prices(periods=291, stocks=31, seed=5):
    """Index column plus 31 one-factor stocks; the index weighs all 31, so a
    tracked subset cannot replicate it."""
    rng = np.random.default_rng(seed)
    market = 0.0015 + 0.022 * rng.standard_normal((periods, 1))
    r = (rng.uniform(-0.001, 0.003, stocks) + rng.uniform(0.6, 1.4, stocks) * market
         + rng.uniform(0.015, 0.04, stocks) * rng.standard_normal((periods, stocks)))
    full = np.column_stack([r @ rng.dirichlet(np.full(stocks, 2.0)), r])
    return 100.0 * np.cumprod(1.0 + full, axis=0)


def test_one_example_per_experiment():
    assert [p.stem for p in EXAMPLES] == ["backtest", "downturn_table",
                                          "gaussian_table", "mvt_table"]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, tmp_path):
    cfg = json.loads(path.read_text(encoding="utf-8"))
    out = tmp_path / "out"
    cfg["io"]["out_dir"] = str(out)
    exp = cfg.get("experiment", {})
    for key in ("n", "n_ratio"):
        if key in exp:
            exp[key] = 2000
    if "data" in cfg:
        csv = tmp_path / "prices.csv"
        np.savetxt(csv, weekly_prices(), fmt="%.17g", delimiter=",")
        cfg["data"]["csv"] = str(csv)
    cfg_path = tmp_path / path.name
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    assert main([cfg["command"], "--config", str(cfg_path)]) == 0
    if cfg["command"] == "simulate":
        grid = cfg["ball"].get("eta_grid") or cfg["ball"]["k_grid"]
        rows = json.loads((out / "table.json").read_text(encoding="utf-8"))
        assert len(rows) == len(grid)
        assert all(row["converged"] for row in rows)
    else:
        result = json.loads((out / "backtest.json").read_text(encoding="utf-8"))
        steps = cfg["backtest"]["out_of_sample"]
        assert result["bt_steps"] == steps
        assert len(result["weights_robust"]) == steps
