"""Configuration-driven command line front end.

    track <command> --config cfg.json [--seed N] [--out DIR]

Commands: divergence, solve, simulate, backtest.  The config file defines
the experiment; --seed and --out only choose the replicate and the output
directory.  Every completed run writes a manifest.json with the resolved
configuration, seeds and package version so outputs can be reproduced byte
for byte.  Exit codes: 0 success, 2 config error, 3 solver
non-convergence, 4 data error.

Each block is read once, by ``_read``, before any scenario is drawn; the
domain types check its values, and a rejection or a ``null`` block is a
config error that names the block.  A command computes, prints and returns
its exit code with a writer per output file; then ``_write_outputs`` makes
the output directory and writes the outputs and the manifest, so a run that
fails leaves no directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .divergence import DivergenceBall, divergence_gaussian, eta_from_ratio_mc
from .evaluate import (BacktestConfig, RowConfig, backtest_sliding, draw_scenarios, run_table,
                       write_backtest_json, write_json, write_plot_csv, write_table_csv,
                       write_table_json)
from .loss import LossSpec
from .model import (DataError, IndexComposition, NominalModel, load_prices_csv,
                    scenarios_from, synthesize_index)
from .solver import (SolverConfig, SolverError, hessian_diagnostic,
                     solve_nonrobust, solve_robust)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DATA = 4

_LOSS_NAMES = {"quadratic": "quadratic", "l1": "smoothed_pos_sq", "l2": "smoothed_plus"}


class ConfigError(Exception):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")


def _read(cfg: dict, key: str, make, types=None, need=(), optional=False, **fixed):
    """The one config reader: ``make`` applied to the entry ``key``.

    A block (``types`` given) is a JSON object holding each key of ``need``;
    ``make`` gets ``fixed`` updated by each key of ``types`` in the block,
    converted by its type (None: as given).  Other entries go to ``make`` as
    they are; an absent ``optional`` block reads as {}.  A TypeError or
    ValueError from a conversion or ``make`` is a ConfigError at ``key``."""
    if key not in cfg and not optional:
        raise ConfigError(f"config.{key}", "missing required field")
    entry = cfg.get(key, {})
    if types is not None and not isinstance(entry, dict):
        raise ConfigError(key, f"expected an object, got {entry!r}")
    for name in need:
        if name not in entry:
            raise ConfigError(f"{key}.{name}", "missing required field")
    try:
        if types is None:
            return make(entry)
        given = {name: entry[name] if convert is None else convert(entry[name])
                 for name, convert in types.items() if name in entry}
        return make(**{**fixed, **given})
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc))


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError("config", f"invalid JSON: {exc}")
    except OSError as exc:
        raise ConfigError("config", str(exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"expected an object, got {cfg!r}")
    return cfg


_MODEL = dict.fromkeys(["kind", "mean", "cov", "scale", "dof"])


def _model(kind, **params) -> NominalModel:
    """The model named by ``kind``: NominalModel.gaussian(mean, cov) or
    NominalModel.student_t(mean, scale, dof)."""
    if kind not in ("gaussian", "student_t"):
        raise ValueError(f"unknown model kind {kind!r}")
    return getattr(NominalModel, kind)(**params)


def _loss(kind="quadratic", **params) -> LossSpec:
    names = sorted(_LOSS_NAMES)
    if kind not in names:           # a list, not the dict: the name may be unhashable
        raise ConfigError("loss.kind", f"expected one of {names}, got {kind!r}")
    return LossSpec(kind=_LOSS_NAMES[kind], **params)


def _int(value) -> int:
    """An integer config value: an int, or a float without a fraction (2e5).
    A bool or a fractional number is rejected, not truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_LOSS = {"kind": None, "epsilon": float}
_SOLVER = {"residual_tol": float}


def _floats(values) -> list:
    return [float(v) for v in values]


_BALL = {"lambda": float, "eta": float, "eta_grid": _floats, "k_grid": _floats, "sign": None}


def _grid(sign="-", **ball) -> list:
    """The rows of the ball block: eta_grid, else k_grid, else eta.  A block
    with none has no rows, its lambda and sign checked as a row's are."""
    lam = ball["lambda"]
    if any(name in ball and not ball[name] for name in ("eta_grid", "k_grid")):
        raise ValueError("eta_grid and k_grid must not be empty")
    if "eta_grid" in ball:
        return [RowConfig(lam=lam, eta=e, sign=sign) for e in ball["eta_grid"]]
    if "k_grid" in ball:
        return [RowConfig(lam=lam, k=k, sign=sign) for k in ball["k_grid"]]
    if "eta" in ball:
        return [RowConfig(lam=lam, eta=ball["eta"], sign=sign)]
    RowConfig(lam=lam, k=1.0, sign=sign)
    return []


def _ball(**ball) -> DivergenceBall:
    """The one ball of `track solve` and `track backtest`: the single eta row
    of ``_grid``; a grid is an error, as they read one eta."""
    for name in ("eta_grid", "k_grid"):
        if name in ball:
            raise ConfigError(f"ball.{name}", "this command reads one eta, not a grid")
    row, = _grid(**ball)
    return DivergenceBall(lam=row.lam, eta=row.eta)


def _divergence_rows(nominal, **ball):
    """(lam, [(eta, k, round trip, sign)]): the rows of ``_grid``, each eta
    resolved to its k and that k back to its radius."""
    rows = []
    for rc in _grid(**ball):
        if rc.eta is None:
            raise ConfigError("ball.k_grid", "divergence inverts eta rows, not k rows")
        k = rc.resolve(nominal, None, 0)[1]
        back = RowConfig(lam=rc.lam, k=k).resolve(nominal, None, 0)[0]
        rows.append((rc.eta, k, back, rc.sign))
    return ball["lambda"], rows


def _draws(n, n_ratio, seed) -> dict:
    """The experiment block's draw counts and seed, which only the CLI reads."""
    if n < 1 or (n_ratio is not None and n_ratio < 2) or seed < 0:
        raise ValueError(f"n must be >= 1, n_ratio >= 2 and seed >= 0, "
                         f"got n={n}, n_ratio={n_ratio}, seed={seed}")
    return {"n": n, "n_ratio": n_ratio, "seed": seed}


def _experiment(cfg: dict) -> dict:
    return _read(cfg, "experiment", _draws, {"n": _int, "n_ratio": _int, "seed": _int},
                 optional=True, n=200_000, n_ratio=None, seed=0)


def apply_overrides(cfg: dict, args) -> dict:
    for key, name, value in (("experiment", "seed", args.seed), ("io", "out_dir", args.out)):
        # a block that is not an object is left for its reader to reject
        if value is not None and isinstance(cfg.setdefault(key, {}), dict):
            cfg[key][name] = value
    return cfg


def _write_outputs(cfg: dict, command: str, out: Path, writers: dict) -> None:
    """Make ``out``, call each writer on ``out / name``, then write the manifest."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # found after the run, which wrote nothing
        raise ConfigError("io", str(exc))
    for name, write in writers.items():
        write(out / name)
    write_json({"command": command, "config": cfg, "version": __version__,
                "outputs": sorted(str(out / name) for name in writers)}, out / "manifest.json")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_divergence(cfg: dict) -> tuple:
    model = _read(cfg, "model", _model, _MODEL, need=("kind",))
    exp = _experiment(cfg)
    lam, rows = _read(cfg, "ball", _divergence_rows, _BALL, need=("lambda",), nominal=model)
    actual = (_read(cfg, "actual", _model, _MODEL, need=("kind",)) if "actual" in cfg
              else None)
    if actual is not None and actual.dim != model.dim:
        raise ConfigError("actual", f"dimension {actual.dim} is not the model's {model.dim}")
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
    for eta, k, back, sign in rows:
        records.append({"lam": lam, "eta": eta, "sign": sign, "k": k, "round_trip": back})
        print(f"{eta:>8} {k:>12.4f} {back:>14.10f}")

    return EXIT_OK, {"divergence_report.json": lambda path: write_json(records, path)}


def _columns(indices, ncols: int, path: str) -> list:
    """Column indices from the config: a non-empty list of distinct integers
    (read as ``_int`` reads them) in 0..ncols-1.

    Negative indices are rejected, because numpy would select from the end,
    and repeats, because two identical assets make the system singular.
    """
    if not isinstance(indices, list) or not indices:
        raise ConfigError(path, f"expected a non-empty list of column indices, "
                                f"got {indices!r}")
    try:
        indices = [_int(j) for j in indices]
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    for j in indices:
        if not 0 <= j < ncols:
            raise ConfigError(path, f"column index {j!r} is outside 0..{ncols - 1}")
    if len(set(indices)) < len(indices):
        raise ConfigError(path, f"column indices repeat: {indices!r}")
    return indices


_DATA = {"csv": os.fspath, "index": None, "index_col": None, "tracked": None,
         "weights": None}


def _csv_returns(cfg: dict):
    """(tracked asset returns, index returns) from the price CSV of the
    ``data`` block; the index is one of its columns or synthesized from
    fixed weights over all of them (then the tracked list is required)."""
    data = _read(cfg, "data", dict, _DATA, need=("csv",), index="column", index_col=0)
    if data["index"] not in ("column", "synthesize"):
        raise ConfigError("data.index", "must be 'column' or 'synthesize'")
    returns = load_prices_csv(data["csv"]).returns
    ncols = returns.shape[1]
    if data["index"] == "column":
        idx_col = _columns([data["index_col"]], ncols, "data.index_col")[0]
        tracked = _columns(data.get("tracked", [j for j in range(ncols) if j != idx_col]),
                           ncols, "data.tracked")
        if idx_col in tracked:
            # the index would track itself exactly: the robust fit's alpha collapses
            raise ConfigError("data.tracked", f"column {idx_col} is the index column")
        return returns[:, tracked], returns[:, idx_col]
    if "weights" not in data:
        raise ConfigError("data.weights", "missing required field")
    try:
        index_returns = synthesize_index(returns, IndexComposition(data["weights"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError("data.weights", str(exc))
    return returns[:, _columns(data.get("tracked"), ncols, "data.tracked")], index_returns


def _composition(weights, dim: int) -> IndexComposition:
    comp = IndexComposition(weights)
    synthesize_index(np.empty((0, dim)), comp)     # its size check, before any draw
    return comp


def _market(cfg: dict, n: int):
    """(model, composition, tracked assets) of a parametric config; the
    tracked list is required, since tracking every asset replicates the index,
    and the robust solve of d tracked assets needs n >= d + 3 scenarios."""
    model = _read(cfg, "model", _model, _MODEL, need=("kind",))
    comp = _read(cfg, "composition", lambda w: _composition(w, model.dim))
    tracked = _read(cfg, "tracked_assets",
                    lambda t: _columns(t, model.dim, "tracked_assets"))
    if n < len(tracked) + 3:
        raise ConfigError("experiment.n", f"need at least d+3={len(tracked) + 3} scenarios "
                                          f"for {len(tracked)} tracked assets, got {n}")
    return model, comp, tracked


def cmd_solve(cfg: dict) -> tuple:
    exp = _experiment(cfg)
    spec = _read(cfg, "loss", _loss, _LOSS, optional=True)
    ball = _read(cfg, "ball", _ball, _BALL, need=("lambda", "eta"))
    solver_cfg = _read(cfg, "solver", SolverConfig, _SOLVER, optional=True)
    scen = (scenarios_from(*_csv_returns(cfg)) if "data" in cfg
            else draw_scenarios(*_market(cfg, exp["n"]), exp["n"], exp["seed"]))

    try:
        u_non, sol = solve_nonrobust(scen, spec), solve_robust(scen, ball, spec, solver_cfg)
    except ValueError as exc:
        if "data" in cfg:       # a price CSV with too few rows for the solves
            raise ConfigError("data", str(exc))
        raise
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
    return EXIT_OK, {"solution.json": lambda path: write_json(payload, path)}


def cmd_simulate(cfg: dict) -> tuple:
    exp = _experiment(cfg)
    spec = _read(cfg, "loss", _loss, _LOSS, optional=True)
    solver_cfg = _read(cfg, "solver", SolverConfig, _SOLVER, optional=True)
    model, comp, tracked = _market(cfg, exp["n"])
    grid = _read(cfg, "ball", _grid, _BALL, need=("lambda",))
    if not grid:
        raise ConfigError("ball", "one of eta, eta_grid or k_grid is required")
    rows = run_table(model, comp, tracked, grid, spec, n=exp["n"], seed=exp["seed"],
                     n_ratio=exp["n_ratio"], solver_config=solver_cfg)
    for row in rows:
        if row.report is None:
            print(f"eta={row.eta:.4g} k={row.k:.4f}: solver failed: {row.solver_message}")
        else:
            print(f"eta={row.eta:.4g} k={row.k:.4f}: "
                  f"BT={row.report.bt_percent:.2f}% "
                  f"BT_excl={row.report.bt_percent_excl_ties:.2f}% "
                  f"ete_diff={row.report.ete_diff * 1e4:+.4f}e-4")
    return (EXIT_SOLVER if any(not r.converged for r in rows) else EXIT_OK,
            {"table.csv": lambda path: write_table_csv(rows, path),
             "table.json": lambda path: write_table_json(rows, path)})


def cmd_backtest(cfg: dict) -> tuple:
    bcfg = _read(cfg, "backtest", BacktestConfig, {"window": _int, "out_of_sample": _int},
                 optional=True, ball=_read(cfg, "ball", _ball, _BALL, need=("lambda", "eta")),
                 loss=_read(cfg, "loss", _loss, _LOSS, optional=True),
                 solver=_read(cfg, "solver", SolverConfig, _SOLVER, optional=True))
    asset_returns, index_returns = _csv_returns(cfg)
    try:
        result = backtest_sliding(asset_returns, index_returns, bcfg)
    except DataError:
        raise
    except ValueError as exc:   # the window or step count does not fit the CSV
        raise ConfigError("backtest", str(exc))

    print(f"out-of-sample BT: {result.bt_wins}/{result.bt_steps} "
          f"({result.bt_percent:.2f}%)")
    print(f"ETE in-sample  robust={result.ete_in_robust:.6g} "
          f"nonrobust={result.ete_in_nonrobust:.6g}")
    print(f"ETE out-sample robust={result.ete_out_robust:.6g} "
          f"nonrobust={result.ete_out_nonrobust:.6g}")
    if result.flagged_steps:
        print(f"flagged steps: {len(result.flagged_steps)}")

    return EXIT_OK, {"backtest.json": lambda path: write_backtest_json(result, path),
                     "plot_data.csv": lambda path: write_plot_csv(result, path)}


_COMMANDS = {"divergence": cmd_divergence, "solve": cmd_solve,
             "simulate": cmd_simulate, "backtest": cmd_backtest}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="track",
        description="Robust index tracking under divergence-ball ambiguity",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args)
        declared = cfg.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError("command",
                              f"config declares {declared!r} but {args.command!r} was invoked")
        out = _read(cfg, "io", dict, {"out_dir": Path}, optional=True, out_dir=Path())["out_dir"]
        code, writers = _COMMANDS[args.command](cfg)
        _write_outputs(cfg, args.command, out, writers)
        return code
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # a rejection raised inside a library call, e.g. an overflowing density ratio
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
