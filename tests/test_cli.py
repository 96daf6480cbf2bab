import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robusttrack as rt
from robusttrack import cli, divergence, evaluate, model
from robusttrack.cli import main

from conftest import MU5, SIGMA5, WEIGHTS5


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def small_market_config(tmp_path, out_dir, name="cfg.json", **extra):
    cfg = {
        "model": {"kind": "gaussian", "mean": MU5.tolist(),
                  "cov": SIGMA5.tolist()},
        "composition": WEIGHTS5.tolist(),
        "tracked_assets": [0, 1, 2, 3],
        "ball": {"lambda": 0.1, "eta_grid": [0.2], "sign": "-"},
        "loss": {"kind": "quadratic"},
        "experiment": {"n": 2000, "seed": 3},
        "io": {"out_dir": str(out_dir)},
    }
    cfg.update(extra)
    return write_config(tmp_path, cfg, name=name)


def write_price_csv(tmp_path, prices, name="prices.csv"):
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in prices) + "\n"
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def independent_prices(periods=60, cols=4, seed=12):
    """Prices whose columns no combination of the others replicates."""
    rng = np.random.default_rng(seed)
    r = 0.02 * rng.standard_normal((periods, cols)) + 0.001
    return 100.0 * np.cumprod(1.0 + r, axis=0)


def synthetic_prices(periods=60, cols=4, seed=8):
    rng = np.random.default_rng(seed)
    r = 0.02 * rng.standard_normal((periods, cols - 1)) + 0.001
    b = r @ np.linspace(0.5, 0.1, cols - 1) / np.linspace(0.5, 0.1, cols - 1).sum()
    full = np.column_stack([b, r])
    return 100.0 * np.cumprod(1.0 + full, axis=0)


class TestSimulate:
    def test_smoke(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_market_config(tmp_path, out)
        assert main(["simulate", "--config", cfg]) == 0
        assert (out / "table.csv").exists()
        assert (out / "table.json").exists()
        assert (out / "manifest.json").exists()

    def test_reproducible_bytes(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = small_market_config(tmp_path, out1)
        cfg2 = small_market_config(tmp_path, out2, name="cfg2.json")
        assert main(["simulate", "--config", cfg1]) == 0
        assert main(["simulate", "--config", cfg2]) == 0
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
        assert (out1 / "table.json").read_bytes() == (out2 / "table.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = small_market_config(tmp_path, out1)
        assert main(["simulate", "--config", cfg]) == 0
        cfg2 = small_market_config(tmp_path, out2, name="cfg2.json")
        assert main(["simulate", "--config", cfg2, "--seed", "99"]) == 0
        assert (out1 / "table.csv").read_bytes() != (out2 / "table.csv").read_bytes()

    def test_failed_row_is_annotated(self, tmp_path, capsys):
        # eta 10 reaches the largest divergence of 50 scenarios, 4.79, so the
        # second row fails before any inner pass; the first row stands, the
        # failure is reported on its row and the command exits 3
        out = tmp_path / "out"
        cfg = small_market_config(tmp_path, out, experiment={"n": 50, "seed": 3},
                                  ball={"lambda": 0.1, "eta_grid": [0.1, 10.0], "sign": "-"})
        assert main(["simulate", "--config", cfg]) == 3
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("eta=0.1 k=-2.2158: BT=")
        assert printed[1].startswith("eta=10 k=-25.8397: solver failed: eta = 10 reaches "
                                     "the largest divergence 4.78758 of 50 scenarios")
        csv_rows = (out / "table.csv").read_text().splitlines()[2:]
        assert csv_rows[0].startswith("0.1,0.1,") and csv_rows[0].endswith(",0,50,True")
        assert csv_rows[1] == "0.1,10.0,-25.83973191321563,,,,,,,,,,,False"
        first, second = json.loads((out / "table.json").read_text())
        assert (first["converged"], first["solver_message"]) == (True, "")
        assert second["converged"] is False
        assert second["solver_message"].startswith("eta = 10 reaches the largest divergence")
        assert "bt_percent" not in second and second["iterations"] is None


class TestSimulateHeavyTail:
    def test_student_t_k_grid(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": {"kind": "student_t", "mean": MU5.tolist(),
                      "scale": SIGMA5.tolist(), "dof": 10},
            "composition": WEIGHTS5.tolist(),
            "tracked_assets": [0, 1, 2, 3],
            "ball": {"lambda": 0.1, "k_grid": [1.0, -2.0]},
            "loss": {"kind": "l1", "epsilon": 0.01},
            "experiment": {"n": 3000, "seed": 4, "n_ratio": 20000},
            "io": {"out_dir": str(out)},
        })
        assert main(["simulate", "--config", cfg]) == 0
        table = json.loads((out / "table.json").read_text())
        assert table[0]["eta"] == 0.0          # unit factor -> zero radius
        assert table[1]["eta"] > 0
        assert all(row["converged"] for row in table)

    def test_ratio_overflow_is_a_config_error(self, tmp_path, capsys):
        # at lam = 100 the radius of k = -50 overflows the integrand
        cfg = write_config(tmp_path, {
            "model": {"kind": "student_t", "mean": MU5.tolist(),
                      "scale": SIGMA5.tolist(), "dof": 10},
            "composition": WEIGHTS5.tolist(),
            "tracked_assets": [0, 1, 2, 3],
            "ball": {"lambda": 100.0, "k_grid": [-50.0]},
            "loss": {"kind": "l1"},
            "experiment": {"n": 2000, "seed": 1, "n_ratio": 20000},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["simulate", "--config", cfg]) == 2
        assert "config error at ball: density ratio overflows" in capsys.readouterr().err


@pytest.fixture
def no_draws(monkeypatch):
    """Fails a test that draws scenarios: a config error is found first.
    The CLI draws only through divergence and evaluate, and every draw reads
    the row-block sampler, so it raises wherever it is looked up."""
    def sample_blocks(*args, **kwargs):
        raise AssertionError("scenarios drawn before the config was read")
    for module in (model, divergence, evaluate):
        monkeypatch.setattr(module, "_sample_blocks", sample_blocks)


class TestConfigErrors:
    def test_missing_ball(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": [0.01], "cov": [[1.0]]},
            "composition": [1.0], "tracked_assets": [0],
        })
        assert main(["simulate", "--config", cfg]) == 2

    def test_bad_loss_kind(self, tmp_path, capsys):
        cfg = small_market_config(tmp_path, tmp_path, loss={"kind": "cubic"})
        assert main(["simulate", "--config", cfg]) == 2
        assert "loss.kind" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_module_entry_point(self, tmp_path):
        # python -m robusttrack.cli runs main and exits with its code
        src = Path(rt.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "robusttrack.cli", "solve", "--config", "missing.json"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert "config error at config: file not found: missing.json" in done.stderr

    @pytest.mark.parametrize("text,message", [
        (b'{"ball": ', "config error at config: invalid JSON: "),
        (b"[1, 2]", "config error at config: expected an object, got [1, 2]"),
        (b"\xff\xfe{}", "config error at config: invalid JSON: 'utf-8' codec can't decode "
                        "byte 0xff in position 0"),
    ], ids=["invalid-json", "list", "not-utf8"])
    def test_config_file_not_an_object(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # JSON text may start with a UTF-8 byte-order mark (some editors write one)
        out = tmp_path / "out"
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "ball": {"lambda": 0.1, "eta_grid": [0.1], "sign": "-"},
            "io": {"out_dir": str(out)},
        }).encode())
        assert main(["divergence", "--config", str(path)]) == 0
        assert (out / "divergence_report.json").exists()

    @pytest.mark.parametrize("command", ["divergence", "solve", "simulate"])
    def test_ball_without_lambda(self, tmp_path, capsys, no_draws, command):
        cfg = small_market_config(tmp_path, tmp_path / "out", ball={"eta": 0.2})
        assert main([command, "--config", cfg]) == 2
        assert "config error at ball.lambda: missing required field" in capsys.readouterr().err

    def test_command_mismatch(self, tmp_path):
        cfg = small_market_config(tmp_path, tmp_path, command="backtest")
        assert main(["simulate", "--config", cfg]) == 2

    def test_bad_composition_weights(self, tmp_path, capsys):
        cfg = small_market_config(tmp_path, tmp_path,
                                  composition=[0.5, 0.5, 0.5, 0.5, 0.5])
        assert main(["simulate", "--config", cfg]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_bad_model_matrix(self, tmp_path, capsys):
        cfg = small_market_config(tmp_path, tmp_path,
                                  model={"kind": "gaussian", "mean": [0.01, 0.02],
                                         "cov": [[1.0, 2.0], [2.0, 1.0]]})
        assert main(["simulate", "--config", cfg]) == 2
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("command,block,entry,path", [
        ("simulate", "experiment", {"n": None}, "experiment"),
        ("simulate", "experiment", {"seed": [1]}, "experiment"),
        ("simulate", "ball", {"lambda": None}, "ball"),
        ("simulate", "ball", {"lambda": "x"}, "ball"),
        ("simulate", "ball", {"k_grid": [None]}, "ball"),
        ("solve", "ball", {"eta": None}, "ball"),
        ("backtest", "backtest", {"window": [40]}, "backtest"),
        ("simulate", "loss", {"kind": ["l1"]}, "loss.kind"),
        ("simulate", "ball", {"lambda": float("nan")}, "ball"),
        ("solve", "ball", {"lambda": float("nan")}, "ball"),
        ("simulate", "experiment", {"n": 0}, "experiment"),
        ("backtest", "data", {"csv": None}, "data"),
        ("solve", "io", {"out_dir": None}, "io"),
        ("solve", "solver", {"residual_tol": float("nan")}, "solver"),
        ("solve", "solver", {"residual_tol": float("inf")}, "solver"),
        ("simulate", "loss", {"kind": "l2", "epsilon": float("inf")}, "loss"),
        ("backtest", "backtest", {"window": 40.9}, "backtest"),
        ("simulate", "experiment", {"seed": True}, "experiment"),
        ("simulate", "experiment", {"n": 2000.7}, "experiment"),
        ("simulate", "ball", {"k_grid": [float("nan")]}, "ball"),
        ("simulate", "experiment", {"n_ratio": 1}, "experiment"),
        ("simulate", "experiment", {"n": 5}, "experiment.n"),
        ("solve", "experiment", {"n": 5}, "experiment.n"),
        ("simulate", "ball", {"eta_grid": []}, "ball"),
        ("simulate", "ball", {"k_grid": []}, "ball"),
        ("solve", "ball", {"eta_grid": [0.1]}, "ball.eta_grid"),
        ("backtest", "ball", {"k_grid": [1.0]}, "ball.k_grid"),
        # a real value is a JSON number: a bool or a string is not read as one
        ("solve", "ball", {"lambda": True}, "ball"),
        ("solve", "ball", {"lambda": "0.1"}, "ball"),
        ("solve", "ball", {"eta": True}, "ball"),
        ("solve", "ball", {"eta": "0.5"}, "ball"),
        ("simulate", "ball", {"eta_grid": [True]}, "ball"),
        ("simulate", "ball", {"eta_grid": ["0.5"]}, "ball"),
        ("solve", "loss", {"kind": "l1", "epsilon": True}, "loss"),
        ("solve", "loss", {"kind": "l1", "epsilon": "0.01"}, "loss"),
        ("solve", "solver", {"residual_tol": True}, "solver"),
        ("solve", "solver", {"residual_tol": "1e-8"}, "solver"),
    ], ids=["n-null", "seed-list", "lambda-null", "lambda-string", "k_grid-null",
            "eta-null", "window-list", "loss-kind-list",
            "simulate-lambda-nan", "solve-lambda-nan", "n-zero", "csv-null",
            "out_dir-null", "residual_tol-nan", "residual_tol-inf", "epsilon-inf",
            "window-fraction", "seed-true",
            "n-fraction", "k_grid-nan", "n_ratio-one",
            "simulate-n-below-d3", "solve-n-below-d3", "eta_grid-empty", "k_grid-empty",
            "solve-eta_grid", "backtest-k_grid", "lambda-true", "lambda-quoted",
            "eta-true", "eta-quoted", "eta_grid-true", "eta_grid-quoted", "epsilon-true",
            "epsilon-quoted", "residual_tol-true", "residual_tol-quoted"])
    def test_wrongly_typed_value(self, tmp_path, capsys, no_draws,
                                 command, block, entry, path):
        # a value of the wrong type or outside its domain is a config error
        # that names its block (the loss kind names its key), not a traceback
        blocks = {"ball": {"lambda": 0.1, "eta": 0.2}, "experiment": {"n": 2000, "seed": 3},
                  "loss": {}, "solver": {}, "backtest": {"window": 40, "out_of_sample": 2},
                  "io": {"out_dir": str(tmp_path / "out")}}
        if command == "backtest":
            blocks["data"] = {"csv": write_price_csv(tmp_path, independent_prices())}
        blocks[block] = {**blocks[block], **entry}
        cfg = small_market_config(tmp_path, tmp_path / "out", **blocks)
        assert main([command, "--config", cfg]) == 2
        assert f"config error at {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra,message", [
        ("simulate", {"model": {"kind": "student_t", "mean": MU5.tolist(),
                                "scale": SIGMA5.tolist(), "dof": 10}},
         "config error at ball: eta-only rows require a gaussian nominal model"),
        ("simulate", {"model": {"kind": "gaussian", "mean": [0.0] * 5,
                                "cov": SIGMA5.tolist()}},
         "config error at ball: mu1' Sigma1^{-1} mu1 must be positive"),
        ("divergence", {"actual": {"kind": "gaussian", "mean": (2 * MU5).tolist(),
                                   "cov": SIGMA5.tolist()},
                        "experiment": {"n": 1, "seed": 3}},
         "config error at experiment: n must be >= 2"),
    ], ids=["simulate-student-t-eta-rows", "simulate-zero-mean-eta-rows",
            "divergence-one-draw"])
    def test_rejected_by_a_computation(self, tmp_path, capsys, no_draws,
                                       command, extra, message):
        # a value that only a row's radius, k or draw count can reject is
        # still named at its block, before any scenario is drawn
        cfg = small_market_config(tmp_path, tmp_path / "out", **extra)
        assert main([command, "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_an_int(self):
        # JSON writes 2e5 as a float; a value without a fraction is read as it
        exp = cli._experiment({"experiment": {"n": 2e5, "n_ratio": 1e6, "seed": 3.0}})
        assert exp == {"n": 200_000, "n_ratio": 1_000_000, "seed": 3}
        assert all(type(v) is int for v in exp.values())

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_integral_float_column_index(self, tmp_path, command):
        # a column index is read as every integer value is: 1.0 names column 1
        cols = cli._columns([0, 1.0, 2, 3], 5, "tracked_assets")
        assert cols == [0, 1, 2, 3] and all(type(j) is int for j in cols)
        outputs = []
        for tracked in ([0, 1, 2, 3], [0, 1.0, 2, 3]):
            out = tmp_path / str(len(outputs))
            cfg = small_market_config(tmp_path, out, tracked_assets=tracked,
                                      ball={"lambda": 0.1, "eta": 0.2})
            assert main([command, "--config", cfg]) == 0
            name = "solution.json" if command == "solve" else "table.csv"
            outputs.append((out / name).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command,key,value,message", [
        ("solve", "loss", None, "expected an object, got None"),
        ("solve", "model", None, "expected an object, got None"),
        ("divergence", "actual", None, "expected an object, got None"),
        ("backtest", "data", None, "expected an object, got None"),
        ("solve", "io", None, "expected an object, got None"),
        ("solve", "solver", None, "expected an object, got None"),
        ("simulate", "composition", "x", "could not convert string to float: 'x'"),
        ("simulate", "composition", [0.5, 0.5],
         "asset return columns (5) do not match composition size (2)"),
        ("solve", "composition", [0.5, 0.5],
         "asset return columns (5) do not match composition size (2)"),
        ("simulate", "tracked_assets", [0, 1.5, 2, 3], "expected an integer, got 1.5"),
        ("solve", "tracked_assets", [0, True, 2, 3], "expected an integer, got True"),
        ("simulate", "ball", {"lambda": 0.1}, "one of eta, eta_grid or k_grid is required"),
        ("simulate", "model", {"kind": "cauchy"}, "unknown model kind 'cauchy'"),
        ("solve", "ball", {"lambda": 0.1, "eta": 0.2, "sign": "x"}, "sign must be '+' or '-'"),
        ("simulate", "composition", [float("nan"), 0.2, 0.2, 0.15, 0.3],
         "index weights must sum to 1, got nan"),
        ("solve", "model", {"kind": "gaussian", "mean": [float("nan")] * 5,
                            "cov": SIGMA5.tolist()}, "mean and scale must be finite"),
        ("backtest", "ball", {"lambda": 0.1, "eta": 0.2, "sign": "x"},
         "sign must be '+' or '-'"),
        # a zero radius is rejected as a table row's is, before any draw
        ("solve", "ball", {"lambda": 0.1, "eta": 0.0}, "eta must be finite and > 0"),
        ("backtest", "ball", {"lambda": 0.1, "eta": 0.0}, "eta must be finite and > 0"),
    ], ids=["loss-null", "model-null", "actual-null", "data-null", "io-null",
            "solver-null", "composition-string", "simulate-composition-length",
            "solve-composition-length", "tracked-fraction", "tracked-bool",
            "ball-without-rows", "model-kind-unknown", "solve-bad-sign",
            "composition-nan", "model-mean-nan", "backtest-bad-sign",
            "solve-eta-zero", "backtest-eta-zero"])
    def test_bad_entry(self, tmp_path, capsys, no_draws, command, key, value, message):
        # a null block is an error, not an absent one, and the composition
        # must fit the model before any scenario is drawn
        extra = {"ball": {"lambda": 0.1, "eta": 0.2},
                 "actual": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
                 "backtest": {"window": 40, "out_of_sample": 2}}
        if command == "backtest":
            extra["data"] = {"csv": write_price_csv(tmp_path, independent_prices())}
        extra[key] = value
        cfg = small_market_config(tmp_path, tmp_path / "out", **extra)
        assert main([command, "--config", cfg]) == 2
        assert f"config error at {key}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("case,code,message", [
        ("config", 2, "config error at config: "),
        ("csv", 4, "data error: "),
        ("out_dir", 2, "config error at io: "),
    ], ids=["config-dir", "csv-dir", "out_dir-file"])
    def test_os_error(self, tmp_path, capsys, case, code, message):
        # a directory where a file belongs, or a file where a directory
        # belongs, exits with its code and a message, not a traceback
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        csv = str(tmp_path) if case == "csv" else write_price_csv(tmp_path, independent_prices())
        cfg = small_market_config(tmp_path, taken if case == "out_dir" else tmp_path / "out",
                                  data={"csv": csv}, ball={"lambda": 0.1, "eta": 0.2},
                                  backtest={"window": 40, "out_of_sample": 2})
        assert main(["backtest", "--config", str(tmp_path) if case == "config" else cfg]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,data,path", [
        ("backtest", {"index_col": 4}, "data.index_col"),
        ("backtest", {"index_col": -1}, "data.index_col"),
        ("backtest", {"index_col": 1.5}, "config error at data.index_col: "
                                         "expected an integer, got 1.5"),
        ("solve", {"tracked": [1.0, 2.5]}, "config error at data.tracked: "
                                           "expected an integer, got 2.5"),
        ("backtest", {"tracked": []}, "data.tracked"),
        ("backtest", {"tracked": [1, 9]}, "data.tracked"),
        ("backtest", {"tracked": [-1, 2]}, "data.tracked"),
        ("solve", {"tracked": [1, 4]}, "data.tracked"),
        ("solve", {"index": "synthesize", "weights": [0.25] * 4, "tracked": [0, 4]},
         "data.tracked"),
        ("backtest", {"tracked": [1, 1, 2]}, "data.tracked"),
        ("solve", {"tracked": [1, 1, 2]}, "data.tracked"),
        # a synthesized index over every column is replicated exactly by them
        ("solve", {"index": "synthesize", "weights": [0.25] * 4}, "data.tracked"),
        ("backtest", {"index": "synthesize", "weights": [0.25] * 4}, "data.tracked"),
        ("backtest", {"index": "synthesize", "weights": [0.5, 0.5], "tracked": [0, 1]},
         "config error at data.weights: asset return columns (4) do not match "
         "composition size (2)"),
        ("solve", {"index": "synthesize", "weights": [0.5, 0.5], "tracked": [0, 1]},
         "config error at data.weights: asset return columns (4)"),
        ("backtest", {"index": "synthesize", "weights": [0.5, 0.6], "tracked": [0, 1]},
         "config error at data.weights: index weights must sum to 1"),
        # the index column among the tracked assets replicates the index
        ("solve", {"tracked": [0, 1, 2]},
         "config error at data.tracked: column 0 is the index column"),
        ("backtest", {"tracked": [0, 1, 2]},
         "config error at data.tracked: column 0 is the index column"),
        ("backtest", {"index": "weighted"},
         "config error at data.index: must be 'column' or 'synthesize'"),
        ("solve", {"index": "synthesize", "tracked": [0, 1]},
         "config error at data.weights: missing required field"),
    ], ids=["index_col-4", "index_col-negative", "index_col-fraction",
            "tracked-fraction", "tracked-empty",
            "tracked-9", "tracked-negative",
            "solve-tracked-4", "solve-synthesize-tracked-4",
            "tracked-repeated", "solve-tracked-repeated",
            "solve-synthesize-untracked", "backtest-synthesize-untracked",
            "weights-length", "solve-weights-length", "weights-sum",
            "solve-tracked-index", "backtest-tracked-index", "index-unknown",
            "synthesize-without-weights"])
    def test_csv_column_out_of_range(self, tmp_path, capsys, command, data, path):
        csv = write_price_csv(tmp_path, synthetic_prices())   # 4 columns
        cfg = write_config(tmp_path, {
            "data": {"csv": csv, "index": "column", **data},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "loss": {"kind": "quadratic"},
            "backtest": {"window": 40, "out_of_sample": 2},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main([command, "--config", cfg]) == 2
        assert path in capsys.readouterr().err

    def test_unknown_index_mode_before_the_csv(self, tmp_path, capsys):
        # the mode is checked before the file is opened, so a missing CSV
        # does not hide it behind a data error
        cfg = write_config(tmp_path, {
            "data": {"csv": str(tmp_path / "missing.csv"), "index": "weighted"},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", cfg]) == 2
        assert ("config error at data.index: must be 'column' or 'synthesize'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command,tracked", [
        ("simulate", [0, 5]), ("simulate", [-1, 2]), ("solve", [0, 5]), ("solve", [-1]),
        ("simulate", [0, 0, 1]),
    ], ids=["simulate-5", "simulate-negative", "solve-5", "solve-negative",
            "simulate-repeated"])
    def test_tracked_assets_out_of_range(self, tmp_path, capsys, command, tracked):
        cfg = small_market_config(tmp_path, tmp_path / "out", tracked_assets=tracked,
                                  ball={"lambda": 0.1, "eta": 0.2})
        assert main([command, "--config", cfg]) == 2
        assert "tracked_assets" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_tracked_assets_required(self, tmp_path, capsys, command):
        # tracking all five assets would replicate the index exactly
        cfg = json.loads(Path(small_market_config(
            tmp_path, tmp_path / "out", ball={"lambda": 0.1, "eta": 0.2})).read_text())
        del cfg["tracked_assets"]
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config.tracked_assets: missing required field" in capsys.readouterr().err


def synthesize_config(tmp_path, prices, weights, tracked):
    return write_config(tmp_path, {
        "data": {"csv": write_price_csv(tmp_path, prices), "index": "synthesize",
                 "weights": weights, "tracked": tracked},
        "ball": {"lambda": 0.1, "eta": 0.02},
        "loss": {"kind": "quadratic"},
        "backtest": {"window": 40, "out_of_sample": 5},
        "io": {"out_dir": str(tmp_path / "out")},
    })


class TestSolve:
    def test_ball_collapse_matches_baseline(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_market_config(tmp_path, out,
                                  ball={"lambda": 0.1, "eta": 1e-8},
                                  experiment={"n": 4000, "seed": 2})
        assert main(["solve", "--config", cfg]) == 0
        payload = json.loads((out / "solution.json").read_text())
        rob = np.array(payload["weights_robust"])
        non = np.array(payload["weights_nonrobust"])
        assert np.max(np.abs(rob - non)) < 1e-4
        assert payload["residual_norm"] <= 1e-8

    def test_kl_mode_flag(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_market_config(tmp_path, out,
                                  ball={"lambda": 0.0, "eta": 0.5},
                                  experiment={"n": 4000, "seed": 2})
        assert main(["solve", "--config", cfg]) == 0
        payload = json.loads((out / "solution.json").read_text())
        assert payload["lam"] == 0.0
        assert payload["estar_min"] > 0

    def test_estar_zero_share(self, tmp_path):
        # E* > 0 on every scenario in the KL mode; at lam = 1, eta = 5 the
        # worst case puts no weight on the best scenarios
        shares = {}
        for lam, eta in ((0.0, 0.5), (1.0, 5.0)):
            out = tmp_path / f"out{lam}"
            cfg = small_market_config(tmp_path, out, name=f"cfg{lam}.json",
                                      ball={"lambda": lam, "eta": eta},
                                      experiment={"n": 4000, "seed": 11})
            assert main(["solve", "--config", cfg]) == 0
            payload = json.loads((out / "solution.json").read_text())
            assert "feasibility_margin" not in payload
            shares[lam] = payload["estar_zero_share"]
        assert shares[0.0] == 0.0
        assert shares[1.0] > 0.0

    def test_degenerate_data_exits_3(self, tmp_path):
        prices = np.full((30, 3), 100.0)
        csv = write_price_csv(tmp_path, prices)
        cfg = write_config(tmp_path, {
            "data": {"csv": csv, "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.5},
            "loss": {"kind": "quadratic"},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", cfg]) == 3

    def test_eta_beyond_the_largest_divergence_exits_3(self, tmp_path, capsys):
        # at lam = 1 the largest divergence of 4000 scenarios is 3999
        cfg = small_market_config(tmp_path, tmp_path / "out",
                                  ball={"lambda": 1.0, "eta": 4100.0},
                                  experiment={"n": 4000, "seed": 2})
        assert main(["solve", "--config", cfg]) == 3
        assert "largest divergence 3999 of 4000 scenarios" in capsys.readouterr().err

    def test_non_positive_definite_cov_leaves_no_directory(self, tmp_path, capsys, no_draws):
        cov = SIGMA5.copy()
        cov[3, 3] = -1e-4
        cfg = small_market_config(tmp_path, tmp_path / "out", ball={"lambda": 0.1, "eta": 0.2},
                                  model={"kind": "gaussian", "mean": MU5.tolist(),
                                         "cov": cov.tolist()})
        assert main(["solve", "--config", cfg]) == 2
        assert "config error at model: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_robust_fit_leaves_no_directory(self, tmp_path, capsys):
        # the tracked stocks replicate the index: the robust fit raises
        # once the CSV is read and the non-robust fit has run
        cfg = write_config(tmp_path, {
            "data": {"csv": write_price_csv(tmp_path, synthetic_prices()),
                     "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", cfg]) == 3
        assert "solver error: alpha collapse" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("periods,message", [
        (5, "config error at data: need at least d+3=6 scenarios, got 4"),
        (3, "config error at data: need at least d=3 scenarios, got 2"),
    ], ids=["robust", "nonrobust"])
    def test_csv_too_short_for_the_solves(self, tmp_path, capsys, periods, message):
        # found by the solves once the CSV is read, and named at its block
        cfg = write_config(tmp_path, {
            "data": {"csv": write_price_csv(tmp_path, independent_prices(periods, 4)),
                     "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["solve", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synthesized_index(self, tmp_path, monkeypatch):
        prices = independent_prices()
        weights = [0.1, 0.2, 0.3, 0.4]
        seen = []

        def solve_robust(scen, *args):
            seen.append(scen)
            return real(scen, *args)

        real = cli.solve_robust
        monkeypatch.setattr(cli, "solve_robust", solve_robust)
        cfg = synthesize_config(tmp_path, prices, weights, [0, 1, 2])
        assert main(["solve", "--config", cfg]) == 0
        returns = prices[1:] / prices[:-1] - 1.0
        np.testing.assert_allclose(seen[0].B, 1.0 + returns @ weights, rtol=1e-15)
        np.testing.assert_allclose(seen[0].R, 1.0 + returns[:, :3], rtol=1e-15)


class TestDivergenceCommand:
    def test_actual_of_another_dimension(self, tmp_path, capsys, no_draws):
        # named at its block before any draw, not a broadcast error after them
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "actual": {"kind": "gaussian", "mean": MU5[:3].tolist(),
                       "cov": SIGMA5[:3, :3].tolist()},
            "ball": {"lambda": 0.1},
            "experiment": {"n": 1000, "seed": 1},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["divergence", "--config", cfg]) == 2
        assert ("config error at actual: dimension 3 is not the model's 5"
                in capsys.readouterr().err)

    def test_k_table(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "ball": {"lambda": 0.1, "eta_grid": [0.1, 5.0], "sign": "-"},
            "io": {"out_dir": str(out)},
        })
        assert main(["divergence", "--config", cfg]) == 0
        records = json.loads((out / "divergence_report.json").read_text())
        by_eta = {r["eta"]: r for r in records if "eta" in r}
        assert by_eta[0.1]["k"] == pytest.approx(-2.2158, abs=5e-4)
        assert by_eta[5.0]["k"] == pytest.approx(-19.5278, abs=5e-4)
        for r in by_eta.values():
            assert r["round_trip"] == pytest.approx(r["eta"], rel=1e-10)

    def test_mc_vs_closed_form_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "actual": {"kind": "gaussian", "mean": (2 * MU5).tolist(),
                       "cov": SIGMA5.tolist()},
            "ball": {"lambda": 0.1},
            "experiment": {"n": 20000, "seed": 1},
            "io": {"out_dir": str(out)},
        })
        assert main(["divergence", "--config", cfg]) == 0
        text = capsys.readouterr().out
        assert "closed form" in text
        records = json.loads((out / "divergence_report.json").read_text())
        pair = [r for r in records if "mc_estimate" in r][0]
        assert abs(pair["mc_estimate"] - pair["closed_form"]) < 4 * pair["mc_std_error"]

    def test_closed_form_reads_the_actual_covariance(self, tmp_path):
        # a covariance within allclose of the nominal one is still its own
        out = tmp_path / "out"
        cov = SIGMA5 * (1.0 + 5e-6)
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "actual": {"kind": "gaussian", "mean": (2 * MU5).tolist(), "cov": cov.tolist()},
            "ball": {"lambda": 0.1},
            "experiment": {"n": 1000, "seed": 1},
            "io": {"out_dir": str(out)},
        })
        assert main(["divergence", "--config", cfg]) == 0
        record = json.loads((out / "divergence_report.json").read_text())[0]
        assert record["closed_form"] == rt.divergence_gaussian(MU5, SIGMA5, 2 * MU5, cov, 0.1)

    def test_ratio_overflow_is_a_config_error(self, tmp_path, capsys):
        # a 10x wider actual covariance at lam = 100 overflows the integrand
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "actual": {"kind": "gaussian", "mean": MU5.tolist(),
                       "cov": (10.0 * SIGMA5).tolist()},
            "ball": {"lambda": 100.0},
            "experiment": {"n": 20000, "seed": 1},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["divergence", "--config", cfg]) == 2
        assert "config error at ball: density ratio overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_square_overflow_is_a_config_error(self, tmp_path, capsys, seed):
        # at these seeds the integrand is finite and its square, in the
        # standard error, overflows
        cfg = write_config(tmp_path, {
            "model": {"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()},
            "actual": {"kind": "gaussian", "mean": MU5.tolist(),
                       "cov": (10.0 * SIGMA5).tolist()},
            "ball": {"lambda": 100.0},
            "experiment": {"n": 20000, "seed": seed},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["divergence", "--config", cfg]) == 2
        assert "config error at ball: density ratio overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,ball,path", [
        ("gaussian", {"eta_grid": [0.1, -1.0]}, "ball: eta must be finite and > 0"),
        ("gaussian", {"eta_grid": [0.1], "sign": "x"}, "ball: sign must be '+' or '-'"),
        # the rows reader takes k_grid over eta, and k rows have no inversion
        ("gaussian", {"eta": 0.1, "k_grid": [1.0]}, "ball.k_grid"),
        ("gaussian", {"k_grid": [-2.0]}, "ball.k_grid"),
        ("gaussian", {"lambda": 0.0, "eta_grid": [0.1]}, "ball: k_from_eta requires lam > 0"),
        ("student_t", {"eta_grid": [0.1]}, "ball: eta-only rows require a gaussian"),
        # a block without rows still has its sign checked
        ("gaussian", {"sign": "x"}, "ball: sign must be '+' or '-'"),
    ], ids=["negative-eta", "bad-sign", "k-rows", "only-k-rows", "lambda-zero",
            "student-t", "bad-sign-no-rows"])
    def test_bad_eta_rows_print_nothing(self, tmp_path, capsys, no_draws, kind, ball, path):
        out = tmp_path / "out"
        model = ({"kind": "gaussian", "mean": MU5.tolist(), "cov": SIGMA5.tolist()}
                 if kind == "gaussian" else
                 {"kind": "student_t", "mean": MU5.tolist(), "scale": SIGMA5.tolist(),
                  "dof": 10.0})
        cfg = write_config(tmp_path, {
            "model": model,
            "actual": {"kind": "gaussian", "mean": (2 * MU5).tolist(),
                       "cov": SIGMA5.tolist()},
            "ball": {"lambda": 0.1, **ball},
            "experiment": {"n": 1000, "seed": 1},
            "io": {"out_dir": str(out)},
        })
        assert main(["divergence", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error at {path}" in captured.err
        assert not (out / "divergence_report.json").exists()


class TestBacktestCommand:
    def test_constant_prices(self, tmp_path):
        out = tmp_path / "out"
        prices = np.full((60, 4), 50.0)
        csv = write_price_csv(tmp_path, prices)
        cfg = write_config(tmp_path, {
            "data": {"csv": csv, "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "loss": {"kind": "quadratic"},
            "backtest": {"window": 40, "out_of_sample": 10},
            "io": {"out_dir": str(out)},
        })
        assert main(["backtest", "--config", cfg]) == 0
        payload = json.loads((out / "backtest.json").read_text())
        assert payload["bt_percent"] == 100.0
        assert np.allclose(payload["loss_robust"], 0.0)

    def test_synthetic_prices(self, tmp_path):
        out = tmp_path / "out"
        csv = write_price_csv(tmp_path, synthetic_prices())
        cfg = write_config(tmp_path, {
            "data": {"csv": csv, "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.02},
            "loss": {"kind": "l1", "epsilon": 0.01},
            "backtest": {"window": 40, "out_of_sample": 10},
            "io": {"out_dir": str(out)},
        })
        assert main(["backtest", "--config", cfg]) == 0
        plot = (out / "plot_data.csv").read_text().strip().splitlines()
        assert len(plot) == 51   # header + window + out_of_sample
        payload = json.loads((out / "backtest.json").read_text())
        assert payload["bt_steps"] == 10
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("cols,backtest,message", [
        (4, {"window": 50, "out_of_sample": 20},
         "config error at backtest: need window+out_of_sample=70 periods, got 59"),
        (5, {"window": 5, "out_of_sample": 2},
         "config error at backtest: window must be at least d+3=7 for the robust solve"),
    ], ids=["too-few-periods", "window-below-d+3"])
    def test_window_that_does_not_fit_the_csv(self, tmp_path, capsys, cols, backtest, message):
        # found only once the CSV is read, and still named at its block
        cfg = write_config(tmp_path, {
            "data": {"csv": write_price_csv(tmp_path, independent_prices(60, cols)),
                     "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "backtest": backtest,
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["backtest", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_csv_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("100,100\n101,oops\n", encoding="utf-8")
        cfg = write_config(tmp_path, {
            "data": {"csv": str(path), "index": "column", "index_col": 0},
            "ball": {"lambda": 0.1, "eta": 0.05},
            "backtest": {"window": 10, "out_of_sample": 2},
            "io": {"out_dir": str(tmp_path / "out")},
        })
        assert main(["backtest", "--config", cfg]) == 4
        assert "data error" in capsys.readouterr().err

    def test_synthesized_index(self, tmp_path, monkeypatch):
        prices = independent_prices()
        weights = [0.4, 0.3, 0.2, 0.1]
        seen = []

        def backtest_sliding(asset_returns, index_returns, bcfg):
            seen.append((asset_returns, index_returns))
            return real(asset_returns, index_returns, bcfg)

        real = cli.backtest_sliding
        monkeypatch.setattr(cli, "backtest_sliding", backtest_sliding)
        cfg = synthesize_config(tmp_path, prices, weights, [1, 3])
        assert main(["backtest", "--config", cfg]) == 0
        returns = prices[1:] / prices[:-1] - 1.0
        asset_returns, index_returns = seen[0]
        np.testing.assert_allclose(index_returns, returns @ weights, rtol=1e-14)
        np.testing.assert_array_equal(asset_returns, returns[:, [1, 3]])


class TestManifest:
    def test_contains_config_and_version(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_market_config(tmp_path, out)
        assert main(["simulate", "--config", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["experiment"]["seed"] == 3
        assert "version" in manifest
        assert any("table.csv" in o for o in manifest["outputs"])
