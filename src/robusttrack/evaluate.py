"""Performance metrics, the scenario builder, the table driver and the backtest.

Every sampled scenario set, the table's and ``track solve``'s, is drawn by
``draw_scenarios``.

Comparison conventions
----------------------
Per-scenario outperformance ("beating time", BT) is judged on the raw loss:
x^2 for the quadratic spec and the unsmoothed one-sided losses max(x,0)^2 /
max(x,0) for the smoothed specs.  The smoothed losses exist for the solvers'
derivatives; the raw one-sided losses are exactly zero whenever the
portfolio matches or beats the index, which makes the "both losses zero"
ties of the exclude variant well defined.  Every metric of a portfolio is
a function of its shortfall x = B - R'u, ``ScenarioSet.shortfall``, formed
once per portfolio: expected tracking error (ETE) is the mean spec loss
l(x), as in ``tracking_error``, and expected excess over the index (EEI) is
the mean of -x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .divergence import (DivergenceBall, divergence_gaussian_equal_cov,
                         eta_from_ratio_mc, k_from_eta)
from .loss import LossSpec, loss_value, raw_loss_value
from .model import (IndexComposition, NominalModel, ScenarioSet, _sample_blocks,
                    sample_model, scenarios_from, synthesize_index)
from .solver import SolverConfig, SolverError, solve_nonrobust, solve_robust

# bench/tracing.py and tests/test_api.py look up sample_model on this
# module.  No draw here calls it (draw_scenarios reads _sample_blocks), so it
# is kept here only for those lookups.
sample_model

# eta at or below this is treated as a collapsed ball: the robust problem is
# solved at the floor radius, so the weights coincide with the non-robust
# ones up to solver noise.
ETA_FLOOR = 1e-8
# Both raw losses at or below this make a scenario a tie in the exclude
# variant of the beating time.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ComparisonReport:
    """Robust vs non-robust comparison on one evaluation scenario set."""

    bt_percent: float
    bt_percent_excl_ties: float
    ete_robust: float
    ete_nonrobust: float
    ete_diff: float
    eei_robust: float
    eei_nonrobust: float
    eei_diff: float
    n: int
    tie_count: int


def tracking_error(u, scenarios: ScenarioSet, spec: LossSpec = LossSpec.quadratic()) -> np.ndarray:
    """Per-scenario tracking loss; (u'R - B)^2 for the quadratic spec."""
    return loss_value(spec, scenarios.shortfall(u))


def compare(u_robust, u_nonrobust, actual_scenarios: ScenarioSet,
            spec: LossSpec) -> ComparisonReport:
    """Head-to-head comparison of two portfolios on common scenarios.

    BT counts scenarios where the robust raw loss is not worse; the exclude
    variant drops scenarios where both raw losses are <= TIE_TOL from
    numerator and denominator, and is NaN when no scenario survives.
    Every figure reads only the two shortfalls, so the set is released once
    they exist (freed where the caller holds no other reference, as in
    run_table), and the raw losses before the spec losses are formed.
    """
    x_r = actual_scenarios.shortfall(u_robust)
    x_n = actual_scenarios.shortfall(u_nonrobust)
    n = actual_scenarios.n
    del actual_scenarios
    raw_r = raw_loss_value(spec, x_r)
    raw_n = raw_loss_value(spec, x_n)
    wins = raw_r <= raw_n
    ties = (raw_r <= TIE_TOL) & (raw_n <= TIE_TOL)
    del raw_r, raw_n
    tie_count = int(ties.sum())
    n_excl = n - tie_count
    bt_excl = 100.0 * float((wins & ~ties).sum()) / n_excl if n_excl else float("nan")

    ete_r = float(loss_value(spec, x_r).mean())
    ete_n = float(loss_value(spec, x_n).mean())
    eei_r, eei_n = -float(x_r.mean()), -float(x_n.mean())
    return ComparisonReport(
        bt_percent=100.0 * float(wins.mean()), bt_percent_excl_ties=bt_excl,
        ete_robust=ete_r, ete_nonrobust=ete_n, ete_diff=ete_r - ete_n,
        eei_robust=eei_r, eei_nonrobust=eei_n, eei_diff=eei_r - eei_n,
        n=n, tie_count=tie_count)


@dataclass(frozen=True)
class RowConfig:
    """One table row: a ball exponent plus either a radius or a mean factor.

    Exactly one of eta / k is given; ``resolve`` gives the other.  With eta,
    the mean factor follows from the closed-form inversion (Gaussian nominal
    only); with k, the radius is 0 at k = 1, the equal-covariance closed form
    for Gaussian nominals and a Monte-Carlo estimate otherwise.
    """

    lam: float
    eta: Optional[float] = None
    k: Optional[float] = None
    sign: str = "-"

    def __post_init__(self):
        if (self.eta is None) == (self.k is None):
            raise ValueError("exactly one of eta / k must be given")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if self.eta is not None and not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be finite and > 0")
        if self.k is not None and not np.isfinite(self.k):
            raise ValueError("k must be finite")

    def resolve(self, nominal: NominalModel, n_ratio: int, seed: int) -> tuple:
        """(eta, k, eta_std_error) of the row for the nominal model; a
        Monte-Carlo radius draws n_ratio points from seed."""
        if self.eta is not None:
            if nominal.kind != "gaussian":
                raise ValueError("eta-only rows require a gaussian nominal model")
            return self.eta, k_from_eta(self.eta, self.lam, nominal.mean, nominal.scale,
                                        self.sign), 0.0
        if self.k == 1.0:
            return 0.0, self.k, 0.0
        if nominal.kind == "gaussian":
            return divergence_gaussian_equal_cov(
                nominal.mean, self.k * nominal.mean, nominal.scale, self.lam), self.k, 0.0
        est = eta_from_ratio_mc(nominal, nominal.with_mean_scaled(self.k),
                                self.lam, n_ratio, seed)
        return est.estimate, self.k, est.std_error


@dataclass
class TableRow:
    """Resolved row: configuration, comparison report and solver diagnostics."""

    lam: float
    eta: float
    k: float
    report: Optional[ComparisonReport] = None
    solver_message: str = ""
    residual_norm: Optional[float] = None
    iterations: Optional[int] = None
    eta_std_error: float = 0.0
    seed_fit: int = 0
    seed_eval: int = 0

    @property
    def converged(self) -> bool:
        return self.report is not None


def draw_scenarios(model: NominalModel, composition: IndexComposition,
                   tracked: Sequence[int], n: int, seed: int) -> ScenarioSet:
    """n scenarios from the model: the tracked assets against the composition's
    index, with the bits of scenarios_from(draws[:, tracked], index) for
    draws = sample_model(model, n, seed), but filled one block of draws at
    a time, so no n x d array of draws is formed."""
    R = np.empty((n, len(tracked)), order="F")
    B = np.empty(n)
    for rows, x in _sample_blocks(model, n, seed):
        B[rows] = synthesize_index(x, composition)
        for j, col in enumerate(tracked):
            np.add(1.0, x[:, col], out=R[rows, j])
    B += 1.0
    return ScenarioSet(R=R, B=B)


def run_table(nominal: NominalModel, composition: IndexComposition,
              tracked_assets: Sequence[int], grid: Sequence[RowConfig],
              spec: LossSpec, n: int, seed: int, n_ratio: Optional[int] = None,
              solver_config: Optional[SolverConfig] = None) -> list:
    """Fit robust and non-robust portfolios per row and compare on actual draws.

    Per row: resolve (eta, k); draw n fit scenarios from the nominal model;
    solve both portfolios and release the fit set and the robust solution's
    E*; draw n scenarios from the mean-scaled actual model and pass them
    straight to compare, which releases them once it has their shortfalls.
    Both portfolios are always evaluated on the identical draw set (common
    random numbers).  Solver failures are annotated on the row, not raised.
    """
    tracked = list(tracked_assets)
    n_ratio = n_ratio or n
    states = np.random.SeedSequence(seed).generate_state(3 * len(grid), np.uint64)
    rows = []
    for i, rc in enumerate(grid):
        seed_fit, seed_eval, seed_ratio = map(int, states[3 * i:3 * i + 3])
        eta, k, eta_se = rc.resolve(nominal, n_ratio, seed_ratio)
        row = TableRow(lam=rc.lam, eta=eta, k=k, eta_std_error=eta_se,
                       seed_fit=seed_fit, seed_eval=seed_eval)
        rows.append(row)
        ball = DivergenceBall(lam=rc.lam, eta=max(eta, ETA_FLOOR))
        fit = draw_scenarios(nominal, composition, tracked, n, seed_fit)
        try:
            u_non = solve_nonrobust(fit, spec)
            sol = solve_robust(fit, ball, spec, solver_config)
        except SolverError as exc:
            row.solver_message = str(exc)
            continue
        finally:
            del fit
        u_rob, row.residual_norm, row.iterations = sol.u, sol.residual_norm, sol.iterations
        del sol                        # its N-point E* is not read again
        row.report = compare(u_rob, u_non, draw_scenarios(
            nominal.with_mean_scaled(k), composition, tracked, n, seed_eval), spec)
    return rows


# ---------------------------------------------------------------------------
# sliding-window backtest
# ---------------------------------------------------------------------------

@dataclass
class BacktestConfig:
    """In-sample window length, out-of-sample step count, ball and loss."""

    ball: DivergenceBall
    loss: LossSpec
    window: int = 104
    out_of_sample: int = 52
    solver: Optional[SolverConfig] = None

    def __post_init__(self):
        if self.window < 1 or self.out_of_sample < 1:
            raise ValueError("window and out_of_sample must be >= 1")


@dataclass
class BacktestResult:
    weights_robust: np.ndarray        # (steps, d)
    weights_nonrobust: np.ndarray
    loss_robust: np.ndarray           # per-step spec loss, one-step-ahead
    loss_nonrobust: np.ndarray
    ei_robust: np.ndarray
    ei_nonrobust: np.ndarray
    bt_wins: int
    bt_steps: int
    ete_in_robust: float              # NaN when the first fit failed
    ete_in_nonrobust: float
    ete_out_robust: float
    ete_out_nonrobust: float
    flagged_steps: list = field(default_factory=list)
    window_bounds: list = field(default_factory=list)
    plot_observed: np.ndarray = None
    plot_fitted: np.ndarray = None

    @property
    def bt_percent(self) -> float:
        return 100.0 * self.bt_wins / self.bt_steps


def backtest_sliding(asset_returns: np.ndarray, index_returns: np.ndarray,
                     cfg: BacktestConfig) -> BacktestResult:
    """Walk a trailing window over historical returns and track one step ahead.

    At each out-of-sample step the robust and non-robust portfolios are
    refit on the trailing ``window`` return rows and applied to the next
    realized period.  A solver failure at a step carries the previous
    weights forward and flags the step.  The plot series covers all
    window + out_of_sample periods: the in-sample stretch is fitted with the
    first window's weights, the rest with each step's weights.  A portfolio
    whose first fit fails has no in-sample figures: its ETE is NaN and, for
    the robust one, so is the in-sample stretch of the plot series.
    """
    r = np.asarray(asset_returns, dtype=float)
    b = np.asarray(index_returns, dtype=float)
    total = cfg.window + cfg.out_of_sample
    if r.shape[0] != b.shape[0]:
        raise ValueError("asset and index return lengths differ")
    if r.shape[0] < total:
        raise ValueError(f"need window+out_of_sample={total} periods, got {r.shape[0]}")
    d = r.shape[1]
    if cfg.window < d + 3:
        raise ValueError(f"window must be at least d+3={d + 3} for the robust solve")

    fits = {"nonrobust": lambda s: solve_nonrobust(s, cfg.loss),
            "robust": lambda s: solve_robust(s, cfg.ball, cfg.loss, cfg.solver).u}
    u = dict.fromkeys(fits, np.full(d, 1.0 / d))
    W = {name: np.empty((cfg.out_of_sample, d)) for name in fits}
    flagged = []
    ete_in = dict.fromkeys(fits, float("nan"))    # NaN where the first fit failed
    bounds = [(t - cfg.window, t) for t in range(cfg.window, total)]
    for step, (lo, hi) in enumerate(bounds):
        window_set = scenarios_from(r[lo:hi], b[lo:hi])
        for name, fit in fits.items():
            try:
                u[name] = fit(window_set)
                if step == 0:
                    ete_in[name] = float(tracking_error(u[name], window_set, cfg.loss).mean())
            except SolverError as exc:
                flagged.append((step, f"{name}: {exc}"))
            W[name][step] = u[name]
    W_rob, W_non = W["robust"], W["nonrobust"]

    # step s holds the weights fitted on rows [s, s + window) and is applied
    # to the gross returns of row s + window
    panel = scenarios_from(r[:total], b[:total])
    R_out, B_out = panel.R[cfg.window:], panel.B[cfg.window:]
    port_r = (R_out * W_rob).sum(axis=1)
    x_r = B_out - port_r
    x_n = B_out - (R_out * W_non).sum(axis=1)
    loss_r = loss_value(cfg.loss, x_r)
    loss_n = loss_value(cfg.loss, x_n)
    fitted_in = (np.full(cfg.window, np.nan) if np.isnan(ete_in["robust"])
                 else panel.R[:cfg.window] @ W_rob[0])

    return BacktestResult(
        weights_robust=W_rob, weights_nonrobust=W_non,
        loss_robust=loss_r, loss_nonrobust=loss_n,
        ei_robust=-x_r, ei_nonrobust=-x_n,
        bt_wins=int((raw_loss_value(cfg.loss, x_r) <= raw_loss_value(cfg.loss, x_n)).sum()),
        bt_steps=cfg.out_of_sample,
        ete_in_robust=ete_in["robust"], ete_in_nonrobust=ete_in["nonrobust"],
        ete_out_robust=float(loss_r.mean()), ete_out_nonrobust=float(loss_n.mean()),
        flagged_steps=flagged, window_bounds=bounds, plot_observed=panel.B,
        plot_fitted=np.concatenate([fitted_in, port_r]),
    )


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

_CSV_COLS = ["lam", "eta", "k", "bt_include_pct", "bt_exclude_pct",
             "ete_robust_1e4", "ete_nonrobust_1e4", "ete_diff_1e4",
             "eei_robust_1e4", "eei_nonrobust_1e4", "eei_diff_1e4",
             "tie_count", "n", "converged"]


def write_table_csv(rows: Sequence[TableRow], path) -> None:
    """CSV mirror of the comparison table; ETE/EEI columns are scaled by 1e4."""
    lines = ["# ETE and EEI columns are reported in units of 1e-4",
             ",".join(_CSV_COLS)]
    for row in rows:
        rep = row.report
        if rep is None:
            cells = [row.lam, row.eta, row.k] + [""] * 10 + [False]
        else:
            cells = [row.lam, row.eta, row.k,
                     f"{rep.bt_percent:.4f}", f"{rep.bt_percent_excl_ties:.4f}",
                     f"{rep.ete_robust * 1e4:.6f}", f"{rep.ete_nonrobust * 1e4:.6f}",
                     f"{rep.ete_diff * 1e4:.6f}",
                     f"{rep.eei_robust * 1e4:.6f}", f"{rep.eei_nonrobust * 1e4:.6f}",
                     f"{rep.eei_diff * 1e4:.6f}",
                     rep.tie_count, rep.n, row.converged]
        lines.append(",".join(str(c) for c in cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(payload, path) -> None:
    """Indented JSON with sorted keys and a trailing newline: the one format
    of every JSON file the package writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table_json(rows: Sequence[TableRow], path) -> None:
    """Full-precision JSON mirror including seeds and solver diagnostics."""
    records = []
    for row in rows:
        rec = {key: value for key, value in vars(row).items() if key != "report"}
        rec["converged"] = row.converged
        if row.report is not None:
            rec.update(vars(row.report))
        records.append(rec)
    write_json(records, path)


def write_plot_csv(result: BacktestResult, path) -> None:
    """Figure series: period index, observed gross index, fitted robust value."""
    lines = ["period,observed,fitted"]
    for p, (o, f) in enumerate(zip(result.plot_observed, result.plot_fitted)):
        lines.append(f"{p},{float(o)!r},{float(f)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_backtest_json(result: BacktestResult, path) -> None:
    """Every field but the plot series (written by write_plot_csv), arrays as
    lists, plus bt_percent."""
    payload = {key: value.tolist() if isinstance(value, np.ndarray) else value
               for key, value in vars(result).items() if not key.startswith("plot_")}
    payload["bt_percent"] = result.bt_percent
    write_json(payload, path)
