"""Correctness checks that the benchmark computes apart from robusttrack.

Nothing here imports robusttrack.  The checks read the workload's inputs
(config JSON, price CSV), the files the CLI wrote and, for the tables, the
arguments and results of `solve_robust`, `solve_nonrobust` and `compare`
as a traced round saw them.  Losses, radii, worst-case losses and
least-squares weights are recomputed here from their definitions.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.special import erfc
from scipy.stats import multivariate_t

# The CLI's default Newton residual tolerance: each block of the robust
# system, budget and stationarity included, is within it at a solution.
SOLVER_TOL = 1e-8
# Floor the table driver puts under a zero radius (k = 1 rows).
ETA_FLOOR = 1e-8
# Draws for the benchmark's own Monte-Carlo radius estimate.
MC_DRAWS = 200_000
# Tolerance, in combined standard errors, between two Monte-Carlo radii.
MC_SIGMAS = 5.0
# Tolerance, in standard errors, of a scenario-set mean around its model mean.
MEAN_SIGMAS = 6.0


class Checks:
    """Collects the outcome of every check; a run is correct when none fail."""

    def __init__(self):
        self.count = 0
        self.failures = []

    def expect(self, ok, what):
        self.count += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

def spec_loss(kind, eps, x):
    """Tracking loss of the shortfall x, by the CLI's loss names."""
    if kind == "quadratic":
        return x * x
    t = x / eps
    if kind == "l1":
        cdf = 0.5 * erfc(-t / np.sqrt(2.0))
        pdf = np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        return (x * x + eps * eps) * cdf + x * eps * pdf
    if kind == "l2":
        return eps * np.logaddexp(0.0, t)
    raise ValueError(kind)


def raw_loss(kind, x):
    """Unsmoothed loss that beating time compares: x^2, max(x,0)^2, max(x,0)."""
    if kind == "quadratic":
        return x * x
    pos = np.maximum(x, 0.0)
    return pos * pos if kind == "l1" else pos


def worst_case_loss(L, lam, eta):
    """sup mean(E L) over E >= 0 with mean E = 1 and mean G(E) <= eta.

    G(E) = (E^(lam+1) - (lam+1) E + lam) / lam.  By duality the supremum is

        min over a > 0, b of  D(a, b) = a eta + b + a mean G*((L - b)/a)

    with G*(s) = E(s)^(lam+1) - 1 and E(s) = (1 + lam/(lam+1) s)_+^(1/lam).
    D is convex.  For each a, b solves dD/db = 1 - mean E = 0; the convex
    function a -> D(a, b(a)) is then minimized.  Both are safeguarded Newton
    iterations on a bracket, run on L standardized to mean 0 and scale 1.
    """
    if lam <= 0:
        raise ValueError("worst_case_loss needs lam > 0")
    L = np.asarray(L, dtype=float)
    m, sd = L.mean(), L.std()
    if sd <= 1e-13 * max(abs(m), 1e-300):
        return float(L.max())
    z = (L - m) / sd
    c = lam / (lam + 1.0)
    z_lo, z_hi = z.min(), z.max()

    def terms(a, b):
        base = np.maximum(1.0 + c * (z - b) / a, 0.0)
        e = base ** (1.0 / lam)
        psi = np.divide(e, base, out=np.zeros_like(e), where=base > 0) / (lam + 1.0)
        return base, e, psi

    def newton_root(g_and_slope, x, lo, hi):
        # root of a decreasing g on [lo, hi] with g(lo) > 0 >= g(hi)
        for _ in range(200):
            g, slope = g_and_slope(x)
            if g > 0:
                lo = x
            else:
                hi = x
            x_new = x + g / slope if slope > 0 else 0.5 * (lo + hi)
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
            if abs(x_new - x) <= 1e-13 * (1.0 + abs(x)) or hi - lo <= 1e-13 * (1.0 + abs(x)):
                return x_new
            x = x_new
        return x

    state = {"b": 0.0}

    def reduced(a):
        """D(a, b(a)), dD/da and d2D/da2 along b(a)."""
        def g_and_slope(b):
            _, e, psi = terms(a, b)
            return e.mean() - 1.0, psi.mean() / a
        b = newton_root(g_and_slope, min(max(state["b"], z_lo), z_hi), z_lo, z_hi)
        state["b"] = b
        base, e, psi = terms(a, b)
        s = (z - b) / a
        value = a * eta + b + a * (np.mean(e * base) - 1.0)
        slope = eta + np.mean(e * base) - 1.0 - np.mean(e * s)
        h_aa, h_ab, h_bb = np.mean(psi * s * s), np.mean(psi * s), np.mean(psi)
        curvature = (h_aa - h_ab * h_ab / h_bb) / a if h_bb > 0 else 0.0
        return value, slope, curvature

    # bracket the minimizer in a, starting from the small-radius estimate
    a = 1.0 / np.sqrt(2.0 * eta * (lam + 1.0))
    value, slope, _ = reduced(a)
    factor = 0.25 if slope > 0 else 4.0
    for _ in range(60):
        a_prev = a
        a *= factor
        value, new_slope, _ = reduced(a)
        if (new_slope > 0) != (slope > 0):
            break
    else:
        # D falls all the way to a -> 0, where it tends to the largest loss
        return float(m + sd * value)
    a_lo, a_hi = min(a_prev, a), max(a_prev, a)
    a = np.sqrt(a_lo * a_hi)
    for _ in range(200):
        value, slope, curvature = reduced(a)
        if slope > 0:
            a_hi = a
        else:
            a_lo = a
        a_new = a - slope / curvature if curvature > 0 else np.sqrt(a_lo * a_hi)
        if not a_lo < a_new < a_hi:
            a_new = np.sqrt(a_lo * a_hi)
        if abs(a_new - a) <= 1e-11 * a or a_hi - a_lo <= 1e-11 * a:
            break
        a = a_new
    return float(m + sd * reduced(a)[0])


def gaussian_radius(k, mu, sigma, lam):
    """Divergence between N(mu, S) and N(k mu, S), equal-covariance closed form."""
    q = float(mu @ np.linalg.solve(sigma, mu))
    return float(np.expm1(lam * (lam + 1.0) / 2.0 * (k - 1.0) ** 2 * q) / lam)


def student_t_radius(k, mu, scale, dof, lam, rng):
    """Monte-Carlo divergence of t(k mu, S, dof) from t(mu, S, dof): (mean, s.e.)."""
    nominal = multivariate_t(loc=mu, shape=scale, df=dof)
    actual = multivariate_t(loc=k * mu, shape=scale, df=dof)
    x = nominal.rvs(size=MC_DRAWS, random_state=rng)
    log_ratio = actual.logpdf(x) - nominal.logpdf(x)
    e = np.exp(log_ratio)
    g = (np.exp((lam + 1.0) * log_ratio) - (lam + 1.0) * e + lam) / lam
    return float(g.mean()), float(g.std(ddof=1) / np.sqrt(g.size))


def constrained_lsq(r, b):
    """argmin ||b - r u|| subject to sum(u) = 1, on a null-space basis of 1'."""
    d = r.shape[1]
    u0 = np.full(d, 1.0 / d)
    basis = np.linalg.svd(np.ones((1, d)))[2][1:].T
    v = np.linalg.lstsq(r @ basis, b - r @ u0, rcond=None)[0]
    return u0 + basis @ v


def read_prices(path):
    """Price matrix of a CSV with an optional header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]
    return np.array([[float(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# shared properties of a converged robust solve
# ---------------------------------------------------------------------------

def check_pair(checks, label, R, B, u_rob, u_non, kind, eps, lam, eta):
    """Weights sum to one; the robust weights do no worse in the worst case
    over the ball and the non-robust weights do no worse on the nominal mean."""
    for name, u in (("robust", u_rob), ("nonrobust", u_non)):
        checks.expect(abs(u.sum() - 1.0) <= SOLVER_TOL,
                      f"{label}: {name} weights sum to {u.sum()!r}")
    loss_rob = spec_loss(kind, eps, B - R @ u_rob)
    loss_non = spec_loss(kind, eps, B - R @ u_non)
    du = u_rob - u_non
    # first-order slack from the solver's stationarity and budget tolerance
    slack = SOLVER_TOL * np.abs(du).sum() + abs(du.sum())
    wc_rob = worst_case_loss(loss_rob, lam, eta)
    wc_non = worst_case_loss(loss_non, lam, eta)
    checks.expect(wc_rob <= wc_non + slack + 1e-12 * abs(wc_non),
                  f"{label}: worst-case loss robust {wc_rob!r} > nonrobust {wc_non!r}")
    mean_rob, mean_non = loss_rob.mean(), loss_non.mean()
    checks.expect(mean_non <= mean_rob + slack + 1e-12 * abs(mean_rob),
                  f"{label}: nominal loss nonrobust {mean_non!r} > robust {mean_rob!r}")
    return loss_rob, wc_rob


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def check_table(checks, cfg, out_dir, calls, seed):
    """Radii, robust solves and beating-time columns of `track simulate`."""
    rows = json.loads((out_dir / "table.json").read_text(encoding="utf-8"))
    model = cfg["model"]
    mu = np.array(model["mean"])
    scale = np.array(model.get("cov", model.get("scale")))
    tracked = cfg["tracked_assets"]
    lam = cfg["ball"]["lambda"]
    kind, eps = cfg["loss"]["kind"], cfg["loss"].get("epsilon", 0.01)
    gaussian = model["kind"] == "gaussian"
    cov = scale if gaussian else model["dof"] / (model["dof"] - 2.0) * scale
    grid = cfg["ball"]["eta_grid"] if gaussian else cfg["ball"]["k_grid"]
    checks.expect(len(rows) == len(grid), f"table has {len(rows)} rows for {len(grid)} grid points")

    for i, (row, g) in enumerate(zip(rows, grid)):
        label = f"row {i}"
        if gaussian:
            checks.expect(row["eta"] == g and row["k"] < 1.0,
                          f"{label}: eta {row['eta']} k {row['k']} for grid eta {g}")
            eta = gaussian_radius(row["k"], mu, scale, lam)
            checks.expect(abs(eta - g) <= 1e-9 * g,
                          f"{label}: closed form gives eta {eta!r} at k {row['k']!r}")
        elif g == 1.0:
            checks.expect(row["eta"] == 0.0 and row["eta_std_error"] == 0.0,
                          f"{label}: k = 1 has radius {row['eta']!r}")
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 7, i]))
            est, se = student_t_radius(g, mu, scale, model["dof"], lam, rng)
            tol = MC_SIGMAS * np.hypot(se, row["eta_std_error"])
            checks.expect(row["eta_std_error"] > 0 and abs(row["eta"] - est) <= tol,
                          f"{label}: radius {row['eta']!r} vs own estimate {est!r} +/- {se:.2g}")

    robust = [c for c in calls if c[0] == "solver.solve_robust"]
    nonrobust = {id(c[1][0]): c[3] for c in calls if c[0] == "solver.solve_nonrobust"}
    compares = [c for c in calls if c[0] == "evaluate.compare"]
    converged = [row for row in rows if row["converged"]]
    checks.expect(len(robust) == len(converged) == len(compares),
                  f"{len(robust)} robust solves and {len(compares)} comparisons "
                  f"for {len(converged)} converged rows")

    for row, solve, comp in zip(converged, robust, compares):
        label = f"row k={row['k']:.4f}"
        fit, ball, sol = solve[1][0], solve[1][1], solve[3]
        u_non = nonrobust[id(fit)]
        checks.expect(ball.eta == max(row["eta"], ETA_FLOOR) and ball.lam == lam,
                      f"{label}: solved with ball {ball}")
        k = row["k"]
        for name, sset, mean in (("fit", fit, mu), ("evaluation", comp[1][2], k * mu)):
            sd = np.sqrt(np.diag(cov)[tracked] / sset.n)
            dev = np.abs((sset.R - 1.0).mean(axis=0) - mean[tracked]) / sd
            checks.expect(dev.max() <= MEAN_SIGMAS,
                          f"{label}: {name} set mean is {dev.max():.1f} s.e. off the model")
        loss_rob, wc_rob = check_pair(checks, label, fit.R, fit.B, sol.u, u_non,
                                      kind, eps, lam, ball.eta)
        # the solver's worst-case weights attain the dual value
        wc_prog = float(np.mean(sol.estar * loss_rob))
        checks.expect(abs(wc_prog - wc_rob) <= 1e-6 * abs(wc_rob),
                      f"{label}: program worst case {wc_prog!r} vs dual {wc_rob!r}")

        u_r, u_n, ev = comp[1][0], comp[1][1], comp[1][2]
        tie_tol = comp[2].get("tie_tol", 1e-12)
        checks.expect(np.array_equal(u_r, sol.u) and np.array_equal(u_n, u_non),
                      f"{label}: compared weights are not the solved weights")
        x_r, x_n = ev.B - ev.R @ u_r, ev.B - ev.R @ u_n
        raw_r, raw_n = raw_loss(kind, x_r), raw_loss(kind, x_n)
        wins = raw_r <= raw_n
        ties = (raw_r <= tie_tol) & (raw_n <= tie_tol)
        n_excl = ev.n - int(ties.sum())
        bt = 100.0 * wins.mean()
        bt_excl = 100.0 * (wins & ~ties).sum() / n_excl if n_excl else float("nan")
        checks.expect(row["n"] == ev.n and row["tie_count"] == int(ties.sum()),
                      f"{label}: n {row['n']} ties {row['tie_count']}")
        checks.expect(abs(row["bt_percent"] - bt) <= 1e-9
                      and abs(row["bt_percent_excl_ties"] - bt_excl) <= 1e-9,
                      f"{label}: BT {row['bt_percent']}/{row['bt_percent_excl_ties']} "
                      f"recomputed {bt}/{bt_excl}")
        for name, x in (("robust", x_r), ("nonrobust", x_n)):
            ete = spec_loss(kind, eps, x).mean()
            checks.expect(abs(row[f"ete_{name}"] - ete) <= 1e-9 * ete,
                          f"{label}: ETE {name} {row[f'ete_{name}']!r} recomputed {ete!r}")


# ---------------------------------------------------------------------------
# backtests
# ---------------------------------------------------------------------------

def check_backtest(checks, cfg, out_dir):
    """Windows, weights, per-step losses and beating count of `track backtest`.

    Returns the number of failed robust solves.
    """
    res = json.loads((out_dir / "backtest.json").read_text(encoding="utf-8"))
    prices = read_prices(cfg["data"]["csv"])
    returns = prices[1:] / prices[:-1] - 1.0
    idx = cfg["data"]["index_col"]
    tracked = cfg["data"].get("tracked", [j for j in range(returns.shape[1]) if j != idx])
    r, b = returns[:, tracked], returns[:, idx]
    window = cfg["backtest"]["window"]
    steps = cfg["backtest"]["out_of_sample"]
    lam, eta = cfg["ball"]["lambda"], cfg["ball"]["eta"]
    kind, eps = cfg["loss"]["kind"], cfg["loss"].get("epsilon", 0.01)
    w_rob = np.array(res["weights_robust"])
    w_non = np.array(res["weights_nonrobust"])
    flagged = {s: msg for s, msg in res["flagged_steps"]}
    checks.expect(all(msg.startswith("robust:") for msg in flagged.values()),
                  f"non-robust solves failed: {flagged}")
    checks.expect(res["bt_steps"] == steps == len(w_rob)
                  and res["window_bounds"] == [[s, s + window] for s in range(steps)],
                  "windows do not slide one period at a time")

    raw_r, raw_n = np.empty(steps), np.empty(steps)
    prev = np.full(len(tracked), 1.0 / len(tracked))
    for s in range(steps):
        label = f"step {s}"
        lo, hi = s, s + window
        R, B = 1.0 + r[lo:hi], 1.0 + b[lo:hi]
        if s in flagged:
            checks.expect(np.array_equal(w_rob[s], prev),
                          f"{label}: failed solve did not carry the previous weights")
        else:
            check_pair(checks, label, R, B, w_rob[s], w_non[s], kind, eps, lam, eta)
        if kind == "quadratic":
            u = constrained_lsq(r[lo:hi], b[lo:hi])
            checks.expect(np.abs(u - w_non[s]).max() <= 1e-7,
                          f"{label}: nonrobust weights differ from least squares by "
                          f"{np.abs(u - w_non[s]).max():.2g}")
        prev = w_rob[s]
        x_r = (1.0 + b[hi]) - (1.0 + r[hi]) @ w_rob[s]
        x_n = (1.0 + b[hi]) - (1.0 + r[hi]) @ w_non[s]
        for name, x in (("robust", x_r), ("nonrobust", x_n)):
            got = res[f"loss_{name}"][s]
            want = spec_loss(kind, eps, x)
            checks.expect(abs(got - want) <= 1e-9 * want + 1e-300,
                          f"{label}: {name} loss {got!r} recomputed {want!r}")
        raw_r[s], raw_n[s] = raw_loss(kind, x_r), raw_loss(kind, x_n)
    wins = int((raw_r <= raw_n).sum())
    checks.expect(res["bt_wins"] == wins, f"bt_wins {res['bt_wins']} recomputed {wins}")
    return len(flagged)
