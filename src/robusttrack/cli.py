"""Configuration-driven command line front end.

    track <command> --config cfg.json [--seed N] [--out DIR]

Commands: divergence, solve, simulate, backtest.  The config file defines
the experiment; --seed and --out only choose the replicate and the output
directory.  Every run writes a manifest.json with the resolved
configuration, seeds and package version so outputs can be reproduced byte
for byte.  Exit codes: 0 success, 2 config error, 3 solver
non-convergence, 4 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .divergence import (DivergenceBall, divergence_gaussian,
                         divergence_gaussian_equal_cov, eta_from_ratio_mc,
                         k_from_eta)
from .evaluate import (BacktestConfig, RowConfig, backtest_sliding,
                       run_table, write_backtest_json, write_json,
                       write_plot_csv, write_table_csv, write_table_json)
from .loss import LossSpec
from .model import (DataError, IndexComposition, NominalModel, load_prices_csv,
                    sample_model, scenarios_from, synthesize_index)
from .solver import (SolverConfig, SolverError, hessian_diagnostic,
                     solve_nonrobust, solve_robust)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DATA = 4

_LOSS_NAMES = {"quadratic": "quadratic", "l1": "smoothed_pos_sq", "l2": "smoothed_plus"}


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")


def _need(cfg: dict, path: str, key: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return cfg[key]


def _as_positive(value, path):
    if value <= 0:
        raise ConfigError(path, "must be positive")
    return value


def _build(path: str, make, block: dict, types: dict, **fixed):
    """make(**{**fixed, **given}), where given holds each key of ``types``
    that ``block`` has, converted by its type; a failed conversion or a value
    the constructor rejects is a ConfigError at ``path``."""
    try:
        given = {key: convert(block[key]) for key, convert in types.items()
                 if key in block}
        return make(**{**fixed, **given})
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc))


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")


def build_model(cfg: dict, path: str = "model") -> NominalModel:
    kind = _need(cfg, path, "kind")
    try:
        if kind == "gaussian":
            return NominalModel.gaussian(_need(cfg, path, "mean"), _need(cfg, path, "cov"))
        if kind == "student_t":
            return NominalModel.student_t(_need(cfg, path, "mean"),
                                          _need(cfg, path, "scale"),
                                          _need(cfg, path, "dof"))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, str(exc))
    raise ConfigError(f"{path}.kind", f"unknown model kind {kind!r}")


def build_loss(cfg: dict) -> LossSpec:
    block = cfg.get("loss", {})
    name = block.get("kind", "quadratic")
    names = sorted(_LOSS_NAMES)
    if name not in names:           # a list, not the dict: the name may be unhashable
        raise ConfigError("loss.kind", f"expected one of {names}, got {name!r}")
    return _build("loss", LossSpec, block, {"epsilon": float}, kind=_LOSS_NAMES[name])


def build_solver_config(cfg: dict) -> SolverConfig:
    return _build("solver", SolverConfig, cfg.get("solver", {}),
                  {"max_iterations": int, "residual_tol": float})


def _floats(values) -> list:
    return [float(v) for v in values]


def _ball(cfg: dict) -> dict:
    """The ``ball`` block with its values converted and sign defaulted."""
    block = cfg.get("ball")
    if block is None:
        raise ConfigError("ball", "missing required block")
    ball = _build("ball", dict, block, {"lambda": float, "eta": float, "eta_grid": _floats,
                                        "k_grid": _floats, "sign": str}, sign="-")
    if "lambda" not in ball:
        raise ConfigError("ball.lambda", "missing required field")
    if ball["lambda"] < 0:
        raise ConfigError("ball.lambda", "must be >= 0")
    return ball


def build_grid(ball: dict) -> list:
    lam, sign = ball["lambda"], ball["sign"]
    if sign not in ("+", "-"):
        raise ConfigError("ball.sign", "must be '+' or '-'")
    if "eta_grid" in ball:
        return [RowConfig(lam=lam, eta=_as_positive(e, "ball.eta_grid"), sign=sign)
                for e in ball["eta_grid"]]
    if "k_grid" in ball:
        return [RowConfig(lam=lam, k=k, sign=sign) for k in ball["k_grid"]]
    if "eta" in ball:
        return [RowConfig(lam=lam, eta=_as_positive(ball["eta"], "ball.eta"), sign=sign)]
    raise ConfigError("ball", "one of eta, eta_grid or k_grid is required")


def build_ball(ball: dict) -> DivergenceBall:
    if "eta" not in ball:
        raise ConfigError("ball.eta", "missing required field")
    if ball["eta"] < 0:
        raise ConfigError("ball.eta", "must be >= 0")
    return DivergenceBall(lam=ball["lambda"], eta=ball["eta"])


def apply_overrides(cfg: dict, args) -> dict:
    if args.seed is not None:
        cfg.setdefault("experiment", {})["seed"] = args.seed
    if args.out is not None:
        cfg.setdefault("io", {})["out_dir"] = args.out
    return cfg


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("io", {}).get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(cfg: dict, command: str, outputs: list, out_dir: Path) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "version": __version__,
        "outputs": sorted(str(o) for o in outputs),
    }
    write_json(manifest, out_dir / "manifest.json")


def _experiment(cfg: dict) -> dict:
    return _build("experiment", dict, cfg.get("experiment", {}),
                  {"n": int, "n_ratio": int, "seed": int}, n=200_000, n_ratio=None, seed=0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_divergence(cfg: dict) -> int:
    model = build_model(_need(cfg, "config", "model"))
    exp = _experiment(cfg)
    ball = _ball(cfg)
    lam = ball["lambda"]
    grid = build_grid(ball) if "eta_grid" in ball or "eta" in ball else []
    if grid and model.kind != "gaussian":
        raise ConfigError("ball.eta_grid", "k inversion requires a gaussian model")
    if any(rc.eta is None for rc in grid):
        raise ConfigError("ball.k_grid", "divergence inverts eta rows, not k rows")
    rows = [(rc.eta, k_from_eta(rc.eta, lam, model.mean, model.scale, rc.sign), rc.sign)
            for rc in grid]
    actual = build_model(cfg["actual"], path="actual") if "actual" in cfg else None
    out = _out_dir(cfg)
    records = []

    if actual is not None:
        closed = None
        if model.kind == "gaussian" and actual.kind == "gaussian" and lam > 0:
            try:
                closed = divergence_gaussian(model.mean, model.scale,
                                             actual.mean, actual.scale, lam)
            except ValueError:
                pass            # outside the closed form's validity region
        mc = eta_from_ratio_mc(model, actual, lam, exp["n"], exp["seed"])
        records.append({"lam": lam, "closed_form": closed,
                        "mc_estimate": mc.estimate, "mc_std_error": mc.std_error})
        line = f"lam={lam}: MC divergence = {mc.estimate:.6g} +/- {mc.std_error:.2g}"
        if closed is not None:
            line += f" | closed form = {closed:.6g}"
        print(line)

    if rows:
        print(f"{'eta':>8} {'k':>12} {'round_trip':>14}")
    for eta, k, sign in rows:
        back = divergence_gaussian_equal_cov(model.mean, k * model.mean, model.scale, lam)
        records.append({"lam": lam, "eta": eta, "sign": sign, "k": k, "round_trip": back})
        print(f"{eta:>8} {k:>12.4f} {back:>14.10f}")

    path = out / "divergence_report.json"
    write_json(records, path)
    write_manifest(cfg, "divergence", [path], out)
    return EXIT_OK


def _columns(indices, ncols: int, path: str) -> list:
    """Column indices from the config: a non-empty list of distinct ints in
    0..ncols-1.

    Negative indices are rejected, because numpy would select from the end,
    and repeats, because two identical assets make the system singular.
    """
    if not isinstance(indices, list) or not indices:
        raise ConfigError(path, f"expected a non-empty list of column indices, "
                                f"got {indices!r}")
    for j in indices:
        if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < ncols:
            raise ConfigError(path, f"column index {j!r} is outside 0..{ncols - 1}")
    if len(set(indices)) < len(indices):
        raise ConfigError(path, f"column indices repeat: {indices!r}")
    return indices


def _csv_returns(cfg: dict):
    """(tracked asset returns, index returns) from the price CSV of the
    ``data`` block; the index is one of its columns or synthesized from
    fixed weights over all of them (then the tracked list is required)."""
    data = _need(cfg, "config", "data")
    returns = load_prices_csv(_need(data, "data", "csv")).returns
    ncols = returns.shape[1]
    mode = data.get("index", "column")
    if mode == "column":
        idx_col = _columns([data.get("index_col", 0)], ncols, "data.index_col")[0]
        index_returns = returns[:, idx_col]
        tracked = data.get("tracked", [j for j in range(ncols) if j != idx_col])
    elif mode == "synthesize":
        comp = IndexComposition(np.asarray(_need(data, "data", "weights"), float))
        index_returns = synthesize_index(returns, comp)
        tracked = _need(data, "data", "tracked")
    else:
        raise ConfigError("data.index", "must be 'column' or 'synthesize'")
    tracked = _columns(tracked, ncols, "data.tracked")
    return returns[:, tracked], index_returns


def _market(cfg: dict):
    """(model, composition, tracked assets) of a parametric config; the
    tracked list is required, since tracking every asset replicates the index."""
    model = build_model(_need(cfg, "config", "model"))
    comp = IndexComposition(np.asarray(_need(cfg, "config", "composition"), float))
    tracked = _columns(_need(cfg, "config", "tracked_assets"), model.dim, "tracked_assets")
    return model, comp, tracked


def _scenarios_from_config(cfg: dict, exp: dict):
    """Scenario construction from either a parametric model or a CSV."""
    if "data" in cfg:
        return scenarios_from(*_csv_returns(cfg))
    model, comp, tracked = _market(cfg)
    draws = sample_model(model, exp["n"], exp["seed"])
    return scenarios_from(draws[:, tracked], synthesize_index(draws, comp))


def cmd_solve(cfg: dict) -> int:
    exp = _experiment(cfg)
    out = _out_dir(cfg)
    spec = build_loss(cfg)
    ball = build_ball(_ball(cfg))
    solver_cfg = build_solver_config(cfg)
    scen = _scenarios_from_config(cfg, exp)

    u_non = solve_nonrobust(scen, spec)
    sol = solve_robust(scen, ball, spec, solver_cfg)
    max_eig = hessian_diagnostic(sol, scen, ball, spec)

    print(f"{'asset':>6} {'robust':>12} {'nonrobust':>12}")
    for i, (ur, un) in enumerate(zip(sol.u, u_non)):
        print(f"{i:>6} {ur:>12.6f} {un:>12.6f}")
    print(f"alpha={sol.alpha:.6g} beta={sol.beta:.6g} theta={sol.theta:.6g}")
    print(f"residual={sol.residual_norm:.3g} iterations={sol.iterations} "
          f"hessian_max_eig={max_eig:.3g}")

    payload = {
        "weights_robust": sol.u.tolist(),
        "weights_nonrobust": u_non.tolist(),
        "alpha": sol.alpha, "beta": sol.beta, "theta": sol.theta,
        "residual_norm": sol.residual_norm, "iterations": sol.iterations,
        "hessian_max_eig": max_eig,
        "estar_zero_share": float((sol.estar == 0.0).mean()),
        "estar_mean": float(sol.estar.mean()),
        "estar_min": float(sol.estar.min()),
        "lam": ball.lam, "eta": ball.eta,
    }
    path = out / "solution.json"
    write_json(payload, path)
    write_manifest(cfg, "solve", [path], out)
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    exp = _experiment(cfg)
    out = _out_dir(cfg)
    spec = build_loss(cfg)
    model, comp, tracked = _market(cfg)
    grid = build_grid(_ball(cfg))
    rows = run_table(model, comp, tracked, grid, spec, n=exp["n"], seed=exp["seed"],
                     n_ratio=exp["n_ratio"], solver_config=build_solver_config(cfg))
    csv_path = out / "table.csv"
    json_path = out / "table.json"
    write_table_csv(rows, csv_path)
    write_table_json(rows, json_path)
    for row in rows:
        if row.report is None:
            print(f"eta={row.eta:.4g} k={row.k:.4f}: solver failed: {row.solver_message}")
        else:
            print(f"eta={row.eta:.4g} k={row.k:.4f}: "
                  f"BT={row.report.bt_percent:.2f}% "
                  f"BT_excl={row.report.bt_percent_excl_ties:.2f}% "
                  f"ete_diff={row.report.ete_diff * 1e4:+.4f}e-4")
    write_manifest(cfg, "simulate", [csv_path, json_path], out)
    return EXIT_SOLVER if any(not r.converged for r in rows) else EXIT_OK


def cmd_backtest(cfg: dict) -> int:
    out = _out_dir(cfg)
    spec = build_loss(cfg)
    ball = build_ball(_ball(cfg))
    asset_returns, index_returns = _csv_returns(cfg)
    bcfg = _build("backtest", BacktestConfig, cfg.get("backtest", {}),
                  {"window": int, "out_of_sample": int},
                  ball=ball, loss=spec, solver=build_solver_config(cfg))
    result = backtest_sliding(asset_returns, index_returns, bcfg)

    print(f"out-of-sample BT: {result.bt_wins}/{result.bt_steps} "
          f"({result.bt_percent:.2f}%)")
    print(f"ETE in-sample  robust={result.ete_in_robust:.6g} "
          f"nonrobust={result.ete_in_nonrobust:.6g}")
    print(f"ETE out-sample robust={result.ete_out_robust:.6g} "
          f"nonrobust={result.ete_out_nonrobust:.6g}")
    if result.flagged_steps:
        print(f"flagged steps: {len(result.flagged_steps)}")

    json_path = out / "backtest.json"
    plot_path = out / "plot_data.csv"
    write_backtest_json(result, json_path)
    write_plot_csv(result, plot_path)
    write_manifest(cfg, "backtest", [json_path, plot_path], out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="track",
        description="Robust index tracking under divergence-ball ambiguity",
    )
    parser.add_argument("command",
                        choices=["divergence", "solve", "simulate", "backtest"])
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args)
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError("command",
                              f"config declares {declared!r} but {args.command!r} was invoked")
        handler = {"divergence": cmd_divergence, "solve": cmd_solve,
                   "simulate": cmd_simulate, "backtest": cmd_backtest}[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # validation failures raised by the domain types
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
