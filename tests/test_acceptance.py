"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 4 and 6 assert reference comparison-table values that, at the
reduced sample sizes fixed here, are not reproducible by an exact solve of
the tracking system (see the notes on the individual tests); they are kept
as stated and fail honestly rather than being loosened.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import robusttrack as rt

from conftest import MU5, SIGMA5, WEIGHTS5, make_scenarios

QUAD = rt.LossSpec.quadratic()
L1 = rt.LossSpec.smoothed_pos_sq(0.01)
COMP5 = rt.IndexComposition(WEIGHTS5)
GAUSS5 = rt.NominalModel.gaussian(MU5, SIGMA5)
TRACKED4 = [0, 1, 2, 3]
ETAS = [0.1, 0.2, 0.5, 0.8, 1.0, 2.0, 5.0]

# acceptance runs are pinned to one seed so results are reproducible
ACCEPT_SEED = 1

K_REF = {
    (0.1, "-"): [-2.2158, -3.5366, -6.1208, -7.9434, -8.9526, -12.7653, -19.5278],
    (0.1, "+"): [4.2158, 5.5366, 8.1208, 9.9434, 10.9526, 14.7653, 21.5278],
    (0.05, "-"): [-2.2955, -3.6548, -6.3327, -8.2414, -9.3074, -13.4063, -21.0432],
    (0.05, "+"): [4.2955, 5.6548, 8.3327, 10.2414, 11.3074, 15.4063, 23.0432],
}

BT_REF_QUAD = [50.51, 51.67, 53.99, 55.25, 55.91, 58.25, 61.51]
BT_REF_DOWNTURN_INC = {0.1: 81.24, 1.0: 92.72, 5.0: 99.11}
BT_REF_DOWNTURN_EXC = {0.1: 58.34, 1.0: 75.20, 5.0: 91.66}
BT_REF_MVT_INC = {1.0: 74.10, -3.0: 80.16, -8.0: 88.11}
BT_REF_MVT_EXC_K1 = 50.77


def report(cid, ok, detail=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def test_criterion_1_k_inversion():
    """Mean-factor inversion reproduces all 28 reference values to 5e-4."""
    worst = 0.0
    for (lam, sign), refs in K_REF.items():
        for eta, ref in zip(ETAS, refs):
            k = rt.k_from_eta(eta, lam, MU5, SIGMA5, sign)
            worst = max(worst, abs(k - ref))
    ok = worst <= 5e-4
    assert report("1 (k inversion)", ok, f"max |k - ref| = {worst:.2e}"), worst


def test_criterion_2_divergence_round_trip():
    """k_from_eta then the closed form round-trips eta to 1e-10 relative."""
    worst = 0.0
    for lam in (0.05, 0.1):
        for sign in ("+", "-"):
            for eta in ETAS:
                k = rt.k_from_eta(eta, lam, MU5, SIGMA5, sign)
                back = rt.divergence_gaussian_equal_cov(MU5, k * MU5, SIGMA5, lam)
                worst = max(worst, abs(back - eta) / eta)
    ok = worst <= 1e-10
    assert report("2 (round trip)", ok, f"max rel err = {worst:.2e}"), worst


def test_criterion_3_mc_matches_closed_form():
    """MC divergence at n=1e5 within 3 standard errors of the closed form
    on 20 seeded random Gaussian pairs."""
    rng = np.random.default_rng(2024)
    n = 100_000
    failures = []
    for case in range(20):
        d = int(rng.integers(2, 4))
        a = rng.standard_normal((d, d))
        s1 = a @ a.T + d * np.eye(d)
        s2 = s1 + 0.1 * np.diag(rng.uniform(0.1, 0.5, d))
        mu1 = 0.1 * rng.standard_normal(d)
        mu2 = mu1 + 0.2 * rng.standard_normal(d)
        lam = float(rng.uniform(0.05, 0.3))
        closed = rt.divergence_gaussian(mu1, s1, mu2, s2, lam)
        f = multivariate_normal(mu1, s1)
        g = multivariate_normal(mu2, s2)
        draws = rng.multivariate_normal(mu1, s1, size=n)
        out = rt.divergence_mc(draws, lambda x: g.pdf(x) / f.pdf(x), lam)
        if abs(out.estimate - closed) > 3 * out.std_error:
            failures.append((case, closed, out.estimate, out.std_error))
    ok = not failures
    assert report("3 (MC vs closed form)", ok,
                  f"{20 - len(failures)}/20 pairs within 3 SE"), failures


def _gaussian_table(etas, sign, n, seed, spec=QUAD):
    grid = [rt.RowConfig(lam=0.1, eta=e, sign=sign) for e in etas]
    return rt.run_table(GAUSS5, COMP5, TRACKED4, grid, spec, n=n, seed=seed)


def test_criterion_4_quadratic_table():
    """Quadratic-loss comparison table at n = 2e5 fit / 2e5 evaluation draws.

    Known not to pass: for the quadratic loss the robust and non-robust
    optima coincide to ~1e-7 in the population limit (verified against an
    independent worst-case quadrature of the same system), while the
    reference BT column implies a systematic gap two orders of magnitude
    larger; at this sample size the empirical comparison is dominated by
    fit noise.  The criterion is asserted as stated.
    """
    n = 200_000
    rows_neg = _gaussian_table(ETAS, "-", n, ACCEPT_SEED)
    rows_pos = _gaussian_table([e for e in ETAS if e >= 0.5], "+", n, ACCEPT_SEED)

    bts = [r.report.bt_percent for r in rows_neg]
    bt_ok = all(abs(b - ref) <= 1.5 for b, ref in zip(bts, BT_REF_QUAD))
    ete_ok = all(r.report.ete_diff <= 0 for r in rows_neg if r.eta >= 0.2)
    eei_neg_ok = all(r.report.eei_diff < 0 for r in rows_neg if r.eta >= 0.5)
    eei_pos_ok = all(r.report.eei_diff > 0 for r in rows_pos)
    ok = bt_ok and ete_ok and eei_neg_ok and eei_pos_ok
    detail = (f"BT={['%.2f' % b for b in bts]} ref={BT_REF_QUAD} "
              f"(bt {bt_ok}, ete<=0 {ete_ok}, eei signs {eei_neg_ok}/{eei_pos_ok})")
    assert report("4 (quadratic table)", ok, detail)


def test_criterion_5_downturn_table():
    """One-sided smoothed-loss table at n = 1e5: include/exclude BT columns.

    The BT columns reproduce within tolerance (to ~0.1pp at n = 1e6, see
    examples/downturn_table.json), but the ete_diff monotonicity sub-check
    fails: the reference differences it encodes match the mean positive-
    part shortfall E[max(B - R'u, 0)] (reproduced here to 0.2-2 percent at
    mild radii), not the mean smoothed loss that tracking_error reports,
    and on the smoothed-loss scale the three-point monotonicity is seed
    luck at this sample size (2 of 10 seeds) and remains noise-dominated
    even at n = 1e6, where the eta=5 difference scatters by more than its
    spacing to the eta=1 row.  Asserted as stated.
    """
    etas = [0.1, 1.0, 5.0]
    rows = _gaussian_table(etas, "-", 100_000, ACCEPT_SEED, spec=L1)
    inc = {e: r.report.bt_percent for e, r in zip(etas, rows)}
    exc = {e: r.report.bt_percent_excl_ties for e, r in zip(etas, rows)}
    diffs = [r.report.ete_diff for r in rows]
    inc_ok = all(abs(inc[e] - BT_REF_DOWNTURN_INC[e]) <= 1.5 for e in etas)
    exc_ok = all(abs(exc[e] - BT_REF_DOWNTURN_EXC[e]) <= 2.0 for e in etas)
    mono_ok = diffs[0] > diffs[1] > diffs[2]
    ok = inc_ok and exc_ok and mono_ok
    detail = (f"inc={[f'{inc[e]:.2f}' for e in etas]} exc={[f'{exc[e]:.2f}' for e in etas]} "
              f"ete_diffs={[f'{d * 1e4:+.3f}e-4' for d in diffs]}")
    assert report("5 (downturn table)", ok, detail)


def test_criterion_6_heavy_tail_table():
    """Student-t table at n = 1e5, mean factors {1, -3, -8}.

    Known not to pass at this sample size: the power tilt raises the
    one-sided loss to the 1/lam power, and under t(10) tails the resulting
    empirical system has no stable large-sample limit, so desk-scale fits
    scatter several points around the reference column (at n = 1e6 the
    include column lands within ~1.5pp of the reference; see
    examples/mvt_table.json).  The criterion is asserted as stated.
    """
    ks = [1.0, -3.0, -8.0]
    mvt = rt.NominalModel.student_t(MU5, SIGMA5, dof=10.0)
    grid = [rt.RowConfig(lam=0.1, k=k) for k in ks]
    rows = rt.run_table(mvt, COMP5, TRACKED4, grid, L1, n=100_000,
                        seed=ACCEPT_SEED, n_ratio=1_000_000)
    inc = {k: r.report.bt_percent for k, r in zip(ks, rows)}
    exc_k1 = rows[0].report.bt_percent_excl_ties
    inc_ok = all(abs(inc[k] - BT_REF_MVT_INC[k]) <= 1.5 for k in ks)
    exc_ok = abs(exc_k1 - BT_REF_MVT_EXC_K1) <= 1.5
    ok = inc_ok and exc_ok
    detail = (f"inc={[f'{inc[k]:.2f}' for k in ks]} ref={list(BT_REF_MVT_INC.values())} "
              f"exc(k=1)={exc_k1:.2f} ref={BT_REF_MVT_EXC_K1} "
              f"etas={[f'{r.eta:.4f}' for r in rows]}")
    assert report("6 (heavy-tail table)", ok, detail)


def test_criterion_7_solver_properties():
    """Solver property suite on a fixed scenario set (no reference numbers)."""
    scen = make_scenarios(n=4000, seed=11)
    problems = []
    for lam in (0.0, 0.01, 0.1):
        for eta in (0.1, 0.5, 1.0, 2.0, 5.0):
            ball = rt.DivergenceBall(lam, eta)
            sol = rt.solve_robust(scen, ball, QUAD)
            if sol.residual_norm > 1e-8:
                problems.append((lam, eta, "residual"))
            if abs(sol.estar.mean() - 1.0) > 1e-6:
                problems.append((lam, eta, "mean estar"))
            if abs(rt.scalar_G(sol.estar, lam).mean() - eta) > 1e-6:
                problems.append((lam, eta, "mean G"))
            if sol.estar.min() <= 0 or sol.alpha <= 0:
                problems.append((lam, eta, "positivity"))
            if sol.feasibility_margin(lam) <= 0:
                problems.append((lam, eta, "feasibility margin"))
            max_eig = rt.hessian_diagnostic(sol, scen, ball, QUAD)
            if max_eig > 1e-8 * max(1.0, abs(max_eig)):
                problems.append((lam, eta, "hessian"))

    u_non = rt.solve_nonrobust(scen, QUAD)
    u_collapse = rt.solve_robust(scen, rt.DivergenceBall(0.1, 1e-8), QUAD).u
    if np.max(np.abs(u_collapse - u_non)) > 1e-4:
        problems.append(("collapse", "", "eta->0 limit"))

    u_kl = rt.solve_robust(scen, rt.DivergenceBall(0.0, 0.5), QUAD).u
    gaps = [np.max(np.abs(rt.solve_robust(scen, rt.DivergenceBall(lam, 0.5), QUAD).u - u_kl))
            for lam in (1e-2, 1e-3, 1e-4)]
    if not (gaps[0] > gaps[1] > gaps[2]):
        problems.append(("kl", "", f"non-monotone gaps {gaps}"))

    ok = not problems
    assert report("7 (solver properties)", ok,
                  "all invariants hold" if ok else f"violations: {problems}")


def test_criterion_8_derivative_suite():
    """All analytic derivatives match central finite differences to 1e-5."""
    problems = []
    eps = 0.01
    grid = np.concatenate([np.linspace(-5 * eps, 5 * eps, 21), np.linspace(-1, 1, 21)])

    def fd(f, x):
        h = np.sqrt(np.finfo(float).eps) * max(1.0, abs(x))
        return (f(x + h) - f(x - h)) / (2 * h)

    for spec in (rt.LossSpec.smoothed_pos_sq(eps), rt.LossSpec.smoothed_plus(eps)):
        for x in grid:
            d1 = rt.loss_deriv1(spec, x)
            n1 = fd(lambda t: rt.loss_value(spec, t), x)
            if abs(d1 - n1) > 1e-5 * max(abs(n1), 1e-4):
                problems.append((spec.kind, "d1", x))
            d2 = rt.loss_deriv2(spec, x)
            n2 = fd(lambda t: rt.loss_deriv1(spec, t), x)
            # 1e-7 floor = central-difference noise (machine eps / step) on
            # the unit-scale first derivative
            if abs(d2 - n2) > 1e-5 * max(abs(n2), abs(d2)) + 1e-7:
                problems.append((spec.kind, "d2", x))

    rng = np.random.default_rng(8)
    for spec in (QUAD, L1):
        for _ in range(10):
            d = int(rng.integers(2, 5))
            u = rng.standard_normal(d)
            R = 1.0 + 0.05 * rng.standard_normal(d)
            B = 1.0 + 0.05 * rng.standard_normal()
            _, grad = rt.payoff_H(spec, u, R, B)
            for j in range(d):
                def f(t, j=j):
                    v = u.copy()
                    v[j] = t
                    return rt.payoff_H(spec, v, R, B)[0]
                num = fd(f, u[j])
                if abs(grad[j] - num) > 1e-5 * max(abs(num), 1e-6):
                    problems.append((spec.kind, "payoff grad", j))

    scen = make_scenarios(n=400, seed=21)
    d = scen.d
    for lam in (0.0, 0.1):
        ball = rt.DivergenceBall(lam, 0.4)
        z = np.concatenate([np.full(d, 1.0 / d), [0.05, 0.002, -0.01]])
        J = rt.system_jacobian(z[:d], z[d], z[d + 1], z[d + 2], scen, ball, QUAD)
        for j in range(d + 3):
            h = 1e-7 * max(1.0, abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            num = (rt.system_residual(zp[:d], zp[d], zp[d + 1], zp[d + 2], scen, ball, QUAD)
                   - rt.system_residual(zm[:d], zm[d], zm[d + 1], zm[d + 2], scen, ball, QUAD)) / (2 * h)
            rel = np.abs(J[:, j] - num) / np.maximum(np.abs(num), 1e-4)
            if np.max(rel) > 1e-5:
                problems.append((lam, "jacobian", j))

    ok = not problems
    assert report("8 (derivative suite)", ok,
                  "all derivatives verified" if ok else f"violations: {problems}")


WEEKLY_DATA = os.environ.get("ROBUSTTRACK_HANGSENG_CSV",
                             str(Path(__file__).resolve().parent.parent
                                 / "data" / "hang_seng_weekly.csv"))
REF_WEIGHTS = np.array([0.0841, 0.1365, 0.0429, 0.0760, 0.2040, 0.0476,
                        0.0528, 0.0908, 0.0253, 0.0446, 0.0888, 0.1067])
TRACKED_STOCKS = [4, 11, 12, 13, 15, 18, 21, 22, 23, 25, 26, 27]


@pytest.mark.skipif(not Path(WEEKLY_DATA).exists(),
                    reason="31-stock weekly price dataset not available")
def test_criterion_9_weekly_replication():
    """Conditional real-data replication on the 31-stock weekly dataset.

    Expected CSV layout: 291 rows of prices, column 0 the index, columns
    1..31 the stocks (so the tracked stock numbers match column indices).
    """
    loaded = rt.load_prices_csv(WEEKLY_DATA)
    returns = loaded.returns
    index_returns = returns[:, 0]
    asset_returns = returns[:, TRACKED_STOCKS]
    ball = rt.DivergenceBall(lam=0.2, eta=0.005)

    cfg_quad = rt.BacktestConfig(ball=ball, loss=QUAD, window=104, out_of_sample=52)
    res_quad = rt.backtest_sliding(asset_returns, index_returns, cfg_quad)
    cfg_l1 = rt.BacktestConfig(ball=ball, loss=L1, window=104, out_of_sample=52)
    res_l1 = rt.backtest_sliding(asset_returns, index_returns, cfg_l1)

    in_set = rt.scenarios_from(asset_returns[:104], index_returns[:104])
    u_rob = rt.solve_robust(in_set, ball, QUAD).u
    weights_ok = np.max(np.abs(u_rob - REF_WEIGHTS)) <= 0.01
    bt_quad_ok = res_quad.bt_wins == 27
    bt_l1_ok = res_l1.bt_wins == 42
    ete_ok = (abs(res_quad.ete_in_robust - 9.9707e-6) <= 0.05 * 9.9707e-6
              and abs(res_quad.ete_in_nonrobust - 9.9552e-6) <= 0.05 * 9.9552e-6
              and abs(res_quad.ete_out_robust - 2.8869e-5) <= 0.05 * 2.8869e-5
              and abs(res_quad.ete_out_nonrobust - 2.9152e-5) <= 0.05 * 2.9152e-5)
    ok = weights_ok and bt_quad_ok and bt_l1_ok and ete_ok
    detail = (f"weights {weights_ok}, BT quad {res_quad.bt_wins}/52, "
              f"BT l1 {res_l1.bt_wins}/52, ETE {ete_ok}")
    assert report("9 (weekly replication)", ok, detail)
