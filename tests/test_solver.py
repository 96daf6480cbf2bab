import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize, minimize_scalar

import robusttrack as rt
import robusttrack.solver as solver
from robusttrack.solver import _dual, _estar

from conftest import MU5, SIGMA5, make_scenarios, peak_arrays, replicable_window
from eager_reference import (eager_assemble, eager_solve_robust, frozen_estar, frozen_kkt,
                             frozen_tilt, recomputing_solve_nonrobust)

QUAD = rt.LossSpec.quadratic()
L1 = rt.LossSpec.smoothed_pos_sq(0.01)
L2 = rt.LossSpec.smoothed_plus(0.01)
# the replicable panel's ball and loss, as in the CLI backtest test
REPL_BALL = rt.DivergenceBall(0.1, 0.02)


def _estar_at(s, lam):
    # at alpha = 1 and beta = 0 the pass's dual argument is the loss itself
    return float(_estar(np.array([s]), lam, 1.0, 0.0)[1][0])


def _calls(monkeypatch, *names):
    """Call counts, from now on, of the loss kernel solver._terms, of
    ScenarioSet.shortfall and of the solver functions in names.  The kernel
    must be asked for all three terms, and a call of the solver's
    loss_value, loss_deriv1 or loss_deriv2 fails the test."""
    counts = dict.fromkeys(("_terms", "shortfall", *names), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    terms = solver._terms
    monkeypatch.setattr(solver, "_terms", counted("_terms", lambda spec, x: terms(spec, x)))
    monkeypatch.setattr(rt.ScenarioSet, "shortfall",
                        counted("shortfall", rt.ScenarioSet.shortfall))
    for name in names:
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    for name in ("loss_value", "loss_deriv1", "loss_deriv2"):
        monkeypatch.setattr(solver, name, lambda *args, name=name: pytest.fail(
            f"solver.{name} called during a solve"))
    return counts


class TestEstarValue:
    def test_unit_at_neutral_payoff(self):
        # a loss equal to beta makes the dual argument s zero
        assert _estar_at(0.0, 0.0) == 1.0
        assert _estar_at(0.0, 0.3) == 1.0

    def test_extended_precision_reference(self):
        ld = np.longdouble
        lam, alpha, beta, h = ld("0.1"), ld("0.02"), ld("0.01"), ld("-0.0102")
        base = lam / (lam + 1) * ((-beta - h) / alpha) + 1
        ref = base ** (1 / lam)
        got = _estar_at((0.0102 - 0.01) / 0.02, 0.1)
        assert got == pytest.approx(float(ref), rel=1e-13)

    def test_infeasible_base(self):
        # past the boundary 1 + lam/(lam+1) s <= 0 the worst case puts no
        # weight on the scenario, where the power form had no value
        s = -0.5 / 0.001 - 0.01 / 0.001        # h = 0.5, alpha = 0.001, beta = 0.01
        assert _estar_at(s, 0.2) == 0.0
        assert _estar_at(-(1.0 + 1.0 / 0.2), 0.2) == 0.0     # base exactly 0
        assert _estar_at(-5.9, 0.2) > 0.0

    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_curvature_vanishes_with_the_weight(self, lam):
        # E*^(1-lam) = E*/base is 0 where base <= 0, where the power of
        # E* = 0 would read 1 (lam = 1) or inf (lam > 1) and 0/0 is nan
        edge = -(1.0 + 1.0 / lam)                          # base exactly 0
        s = np.array([-50.0, edge, edge * (1 - 1e-15), -0.5, 0.0, 3.0])
        with np.errstate(all="raise"):
            _, e, w = _estar(s, lam, 1.0, 0.0)
        assert np.all(np.isfinite(w))
        assert np.array_equal(e == 0.0, w == 0.0)
        assert np.array_equal(e == 0.0, [True, True, False, False, False, False])
        pos = e > 0.0
        assert w[pos] == pytest.approx(e[pos] ** (1.0 - lam), rel=1e-14)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 2.5])
    def test_curvature_has_the_bits_of_the_masked_quotient(self, lam):
        # E* over the floored base is bit for bit E*/base, and 0 where
        # base = 0, on a million points of which about half have base 0
        edge = -(1.0 + 1.0 / lam)                          # base exactly 0
        s = edge * np.random.default_rng(4).uniform(-1.0, 3.0, 10**6)
        s[:2] = [edge, edge * (1 - 1e-15)]
        _, e, w = _estar(s, lam, 1.0, 0.0)
        base = np.maximum(1.0 + lam / (lam + 1.0) * s, 0.0)
        masked = np.divide(e, base, out=np.zeros_like(e), where=base > 0.0)
        assert np.count_nonzero(base == 0.0) > 4 * 10**5
        assert np.array_equal(w.view(np.uint64), masked.view(np.uint64))

    def test_kl_curvature_is_the_weight(self):
        s = np.array([-800.0, -3.0, 0.0, 2.0])
        _, e, w = _estar(s, 0.0, 1.0, 0.0)
        assert np.array_equal(e, np.exp(s))
        assert np.array_equal(w, e)

    def test_requires_positive_alpha(self, scenarios4k):
        u = np.full(scenarios4k.d, 1.0 / scenarios4k.d)
        for alpha in (0.0, -0.01):
            with pytest.raises(ValueError, match="alpha <= 0"):
                rt.system_residual(u, alpha, 0.0, 0.0, scenarios4k,
                                   rt.DivergenceBall(0.1, 0.5), QUAD)


class TestSystemResidual:
    def test_degenerate_single_scenario_blocks_vanish(self):
        # one scenario, constant payoff: beta = -h gives E* = 1, so the
        # divergence (eta=0) and normalization blocks are exactly zero
        scen = rt.ScenarioSet(R=np.array([[1.01]]), B=np.array([1.02]))
        ball = rt.DivergenceBall(lam=0.3, eta=0.0)
        h = -(1.01 - 1.02) ** 2
        g = 2.0 * (1.02 - 1.01) * 1.01
        res = rt.system_residual(np.array([1.0]), 0.5, -h, g, scen, ball, QUAD)
        assert res[0] == pytest.approx(0.0, abs=1e-15)   # stationarity with theta = g
        assert res[1] == 0.0                             # budget
        assert res[2] == pytest.approx(0.0, abs=1e-15)   # divergence
        assert res[3] == pytest.approx(0.0, abs=1e-15)   # normalization

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("spec", [QUAD, L1], ids=["quad", "l1"])
    def test_jacobian_matches_finite_differences(self, lam, spec):
        scen = make_scenarios(n=500, seed=21)
        ball = rt.DivergenceBall(lam=lam, eta=0.4)
        d = scen.d
        rng = np.random.default_rng(5)
        z = np.concatenate([np.full(d, 1.0 / d) + 0.01 * rng.standard_normal(d),
                            [0.05, 0.002, -0.01]])
        J = rt.system_jacobian(z[:d], z[d], z[d + 1], z[d + 2], scen, ball, spec)

        def residual(v):
            return rt.system_residual(v[:d], v[d], v[d + 1], v[d + 2], scen, ball, spec)

        for j in range(d + 3):
            h = 1e-7 * max(1.0, abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            num = (residual(zp) - residual(zm)) / (2 * h)
            scale = np.maximum(np.abs(J[:, j]), 1e-4)
            assert np.all(np.abs(J[:, j] - num) / scale < 1e-5)

    @pytest.fixture(scope="class")
    def blocks(self):
        # a set of several _gram blocks and a partial last one
        return make_scenarios(n=2 ** 15 + 5, seed=12)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_matches_elementwise_assembly(self, scenarios4k, blocks, lam, spec):
        # the BLAS-form sums against the frozen per-scenario gradient sums,
        # off the solution: perturbed weights, (alpha, beta) moved off the
        # inner minimum and a nonzero theta; on one block and on several
        ball = rt.DivergenceBall(lam, 0.5)
        for scen in (scenarios4k, blocks):
            d = scen.d
            u = np.full(d, 1.0 / d) + 0.05 * np.array([1.0, -2.0, 0.5, 0.5])
            L = rt.loss_value(spec, scen.B - scen.R @ u)
            alpha, beta, _ = _dual(L, ball)
            z = np.concatenate([u, [1.1 * alpha, beta - 0.05 * alpha, 1e-3]])
            F_ref, J_ref = eager_assemble(z, scen, ball, spec)
            F = rt.system_residual(z[:d], *z[d:], scen, ball, spec)
            J = rt.system_jacobian(z[:d], *z[d:], scen, ball, spec)
            assert np.all(np.abs(F - F_ref) <= 1e-12 * np.abs(F_ref))
            assert np.all(np.abs(J - J_ref) <= 1e-12 * np.abs(J_ref))

    def test_converged_solution_has_small_residual(self, scenarios4k):
        ball = rt.DivergenceBall(0.1, 0.5)
        sol = rt.solve_robust(scenarios4k, ball, QUAD)
        res = rt.system_residual(sol.u, sol.alpha, sol.beta, sol.theta,
                                 scenarios4k, ball, QUAD)
        assert np.max(np.abs(res)) <= 1e-8


class TestSolveNonrobust:
    def test_perfect_replication(self):
        rng = np.random.default_rng(3)
        r = 0.02 * rng.standard_normal((500, 3))
        w = np.array([0.2, 0.3, 0.5])
        scen = rt.scenarios_from(r, r @ w)
        u = rt.solve_nonrobust(scen, QUAD)
        assert np.allclose(u, w, atol=1e-10)
        assert rt.tracking_error(u, scen).mean() < 1e-20

    def test_single_asset_forced_by_budget(self):
        rng = np.random.default_rng(4)
        r = 0.02 * rng.standard_normal((50, 1))
        scen = rt.scenarios_from(r, 0.5 * r[:, 0])
        assert rt.solve_nonrobust(scen, QUAD) == pytest.approx([1.0])

    def test_two_asset_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        r = 0.03 * rng.standard_normal((2000, 2))
        b = 0.4 * r[:, 0] + 0.5 * r[:, 1] + 0.005 * rng.standard_normal(2000)
        scen = rt.scenarios_from(r, b)
        u = rt.solve_nonrobust(scen, QUAD)

        def objective(t):
            v = np.array([t, 1.0 - t])
            return rt.tracking_error(v, scen).mean()

        # dense scan plus parabola refinement on the constraint line
        ts = np.linspace(-1.0, 2.0, 3001)
        vals = [objective(t) for t in ts]
        i = int(np.argmin(vals))
        t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
        f0, f1, f2 = vals[i - 1], vals[i], vals[i + 1]
        t_star = t1 - 0.5 * ((t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)) / \
            ((t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0))
        assert u[0] == pytest.approx(t_star, abs=1e-6)

    def test_two_asset_smoothed_brute_force(self):
        from scipy.optimize import minimize_scalar
        rng = np.random.default_rng(7)
        r = 0.03 * rng.standard_normal((2000, 2))
        b = 0.6 * r[:, 0] + 0.3 * r[:, 1] + 0.004 * rng.standard_normal(2000)
        scen = rt.scenarios_from(r, b)
        u = rt.solve_nonrobust(scen, L1)

        def objective(t):
            return rt.tracking_error(np.array([t, 1.0 - t]), scen, L1).mean()

        res = minimize_scalar(objective, bounds=(-1, 2), method="bounded",
                              options={"xatol": 1e-10})
        assert u[0] == pytest.approx(res.x, abs=1e-6)

    def test_smoothed_stationarity(self, scenarios4k):
        u = rt.solve_nonrobust(scenarios4k, L1)
        x = scenarios4k.B - scenarios4k.R @ u
        grad = -(rt.loss_deriv1(L1, x)[:, None] * scenarios4k.R).mean(axis=0)
        reduced = grad - grad.mean()
        assert np.max(np.abs(reduced)) < 1e-10

    def test_stops_on_the_newton_decrement(self, monkeypatch):
        # after two steps the smooth-plus fit's decrease is at the rounding
        # of f, where a line search only halves on noise (12 steps without
        # the decrement test)
        scen = make_scenarios(n=200_000, seed=3)
        counts = _calls(monkeypatch, "_bordered")
        u = rt.solve_nonrobust(scen, L2)
        # the first bordered solve is the start, each later one a Newton step
        assert counts["_bordered"] - 1 <= 4
        # one kernel call at the start and one per line-search trial
        assert counts["_terms"] == counts["shortfall"]
        grad = -(scen.R.T @ rt.loss_deriv1(L2, scen.B - scen.R @ u)) / scen.n
        assert np.max(np.abs(grad - grad.mean())) < 1e-9

    def test_line_search_backtracks(self, monkeypatch):
        # at eps = 1e-4 the smooth-plus loss is nearly a kink: full Newton
        # steps overshoot, and the line search halves some of them
        spec = rt.LossSpec.smoothed_plus(1e-4)
        scen = make_scenarios(n=200, seed=4)
        counts = _calls(monkeypatch, "_bordered")
        u = rt.solve_nonrobust(scen, spec)
        # the first kernel call and bordered solve are the start's; each
        # later kernel call is a trial and each later bordered solve a step
        assert counts["_terms"] == counts["shortfall"]
        assert counts["_terms"] - 1 > counts["_bordered"] - 1
        f0 = rt.loss_value(spec, scen.shortfall(u)).mean()
        d = scen.d
        for i in range(d):
            for j in range(i + 1, d):
                v = np.zeros(d)
                v[i], v[j] = 1.0, -1.0      # a move on the plane 1'u = 1
                for t in (1e-6, -1e-6):
                    assert rt.loss_value(spec, scen.shortfall(u + t * v)).mean() >= f0

    @pytest.mark.parametrize("window", [False, True], ids=["4k", "104x12"])
    def test_quadratic_is_the_bordered_kkt_solve(self, scenarios4k, window):
        # the Newton loop stops at its start: the bits of one direct solve
        scen = scenarios4k
        if window:              # a weekly backtest window of 12 stocks
            rng = np.random.default_rng(14)
            r = 0.02 * rng.standard_normal((104, 12)) + 0.001
            scen = rt.scenarios_from(r, r.mean(axis=1) + 0.002 * rng.standard_normal(104))
        R, B = scen.R, scen.B
        N, d = R.shape
        A = np.zeros((d + 1, d + 1))
        A[:d, :d] = 2.0 * R.T @ R / N
        A[:d, d] = A[d, :d] = 1.0
        kkt = np.linalg.solve(A, np.concatenate([2.0 * R.T @ B / N, [1.0]]))
        assert rt.solve_nonrobust(scen, QUAD).tobytes() == kkt[:d].tobytes()

    @pytest.mark.parametrize("n", [4000, 2 ** 16 + 3])
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_start_has_the_bits_of_the_scaled_copy(self, spec, n, monkeypatch):
        # the start scales R.T @ B after the product, where it once scaled a
        # d x N copy of R.T: scaling by 2 is exact, so the bits are the same
        # (R.T @ R keeps the copy: numpy's syrk would sum it in another
        # order, and at n = 4000 the bits would differ)
        scen = make_scenarios(n=n, seed=2)
        starts = []
        bordered = solver._bordered

        def first(M, top, bottom, message):
            starts.append((M.copy(), top.copy()))
            return bordered(M, top, bottom, message)
        monkeypatch.setattr(solver, "_bordered", first)
        rt.solve_nonrobust(scen, spec)
        R, B, N = scen.R, scen.B, scen.n
        assert starts[0][0].tobytes() == (2.0 * R.T @ R / N).tobytes()
        assert starts[0][1].tobytes() == (2.0 * R.T @ B / N).tobytes()

    def test_singular_system_raises(self):
        scen = rt.ScenarioSet(R=np.ones((10, 2)), B=np.ones(10))
        with pytest.raises(rt.SingularSystemError):
            rt.solve_nonrobust(scen, QUAD)

    def test_nearly_singular_system_raises(self, scenarios4k):
        # an asset 1e-13 from another: the bordered solve returns, but its
        # residual shows the answer is not a solution
        rng = np.random.default_rng(1)
        R = scenarios4k.R
        scen = rt.ScenarioSet(np.column_stack([R[:, 0] + 1e-13 * rng.standard_normal(len(R)), R]),
                              scenarios4k.B)
        with pytest.raises(rt.SingularSystemError, match="singular tracking KKT system") as info:
            rt.solve_nonrobust(scen, L1)
        assert info.value.__cause__ is None       # not numpy's LinAlgError

    def test_requires_as_many_scenarios_as_assets(self, scenarios4k):
        scen = rt.ScenarioSet(scenarios4k.R[:3], scenarios4k.B[:3])
        with pytest.raises(ValueError, match=r"need at least d=4 scenarios, got 3"):
            rt.solve_nonrobust(scen, L1)

    def test_line_search_that_no_trial_passes_ends_the_fit(self, monkeypatch):
        # an index 2 % a period above every portfolio puts nearly every
        # shortfall far in the smooth-plus loss's linear part, where l'' is
        # almost 0: the Newton step is huge, and every trial down to
        # t = 2^-46 raises the mean loss, so the fit stops where it is
        spec = rt.LossSpec.smoothed_plus(1e-4)
        base = make_scenarios(n=40, seed=1)
        scen = rt.ScenarioSet(base.R, base.B + 0.02)
        means = []

        def terms(spec, x, fn=solver._terms):
            out = fn(spec, x)
            means.append(out[0].mean())
            return out

        monkeypatch.setattr(solver, "_terms", terms)
        u = rt.solve_nonrobust(scen, spec)
        assert np.all(np.isfinite(u)) and u.sum() == pytest.approx(1.0, abs=1e-12)
        # the last 47 trials, t = 1 to 2^-46, each fail to lower the mean
        # loss of the point returned
        f = rt.loss_value(spec, scen.shortfall(u)).mean()
        assert len(means) > 47 and min(means[-47:]) >= f
        assert f <= means[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_step_limit_raises(self, seed, monkeypatch):
        # asset 0 again, 1e-8 N(0,1) apart: every smooth-plus step passes its
        # line search, but the reduced gradient stays above the stop, so
        # after the start and 100 steps the fit raises, not returns
        base = make_scenarios(n=4000, seed=seed)
        noise = 1e-8 * np.random.default_rng(seed).standard_normal(base.n)
        scen = rt.ScenarioSet(np.column_stack([base.R[:, 0] + noise, base.R]), base.B)
        counts = _calls(monkeypatch, "_bordered")
        with pytest.raises(rt.NonConvergenceError, match="stop in 100 Newton steps") as info:
            rt.solve_nonrobust(scen, L2)
        assert counts["_bordered"] == 101
        assert info.value.iterations == 100
        assert 1e-11 < info.value.residual_norm < 1e-8

    @pytest.mark.parametrize("spec", [L1, L2], ids=["l1", "l2"])
    def test_accepted_trial_reuse_is_bit_identical(self, scenarios4k, spec):
        # each step starts from the shortfall and mean loss its line search
        # accepted, which are the bits a recomputation gives
        assert (rt.solve_nonrobust(scenarios4k, spec).tobytes()
                == recomputing_solve_nonrobust(scenarios4k, spec).tobytes())


class TestSolveRobust:
    def test_ball_collapse_matches_nonrobust(self, scenarios4k):
        u_non = rt.solve_nonrobust(scenarios4k, QUAD)
        sol = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, 1e-8), QUAD)
        assert np.max(np.abs(sol.u - u_non)) < 1e-4

    def test_small_lam_matches_kl_mode(self, scenarios4k):
        sol_tiny = rt.solve_robust(scenarios4k, rt.DivergenceBall(1e-4, 0.5), QUAD)
        sol_kl = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.0, 0.5), QUAD)
        assert np.max(np.abs(sol_tiny.u - sol_kl.u)) < 1e-3

    @pytest.mark.parametrize("lam,eta", [
        # radius/exponent pairs inside the feasibility region: larger radii
        # require smaller exponents for the E* bases to stay positive
        (0.0, 0.1), (0.0, 1.0), (0.0, 5.0),
        (0.05, 0.1), (0.05, 1.0), (0.05, 5.0),
        (0.1, 0.1), (0.1, 1.0), (0.1, 5.0),
        (0.5, 0.1), (0.5, 1.0),
        (1.0, 0.1), (1.0, 1.0),
    ])
    def test_solution_invariants(self, scenarios4k, lam, eta):
        ball = rt.DivergenceBall(lam, eta)
        sol = rt.solve_robust(scenarios4k, ball, QUAD)
        assert sol.residual_norm <= 1e-8
        assert sol.alpha > 0
        assert np.min(sol.estar) > 0
        assert sol.estar.mean() == pytest.approx(1.0, abs=1e-6)
        assert rt.scalar_G(sol.estar, lam).mean() == pytest.approx(eta, abs=1e-6)
        assert abs(sol.u.sum() - 1.0) < 1e-8
        assert sol.feasibility_margin(lam) > 0

    @pytest.mark.parametrize("spec", [QUAD, L1], ids=["quad", "l1"])
    def test_duplication_invariance(self, spec):
        scen = make_scenarios(n=1500, seed=31)
        doubled = rt.ScenarioSet(R=np.vstack([scen.R, scen.R]),
                                 B=np.concatenate([scen.B, scen.B]))
        ball = rt.DivergenceBall(0.1, 0.8)
        sol1 = rt.solve_robust(scen, ball, spec)
        sol2 = rt.solve_robust(doubled, ball, spec)
        assert np.max(np.abs(sol1.u - sol2.u)) < 1e-10

    def test_constraint_binds_across_radii(self, scenarios4k):
        for eta in (0.1, 0.5, 1.0, 2.0, 5.0):
            sol = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, eta), QUAD)
            assert rt.scalar_G(sol.estar, 0.1).mean() == pytest.approx(eta, abs=1e-6)

    def test_kl_continuity(self, scenarios4k):
        u_kl = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.0, 0.5), QUAD).u
        gaps = []
        for lam in (1e-2, 1e-3, 1e-4):
            u = rt.solve_robust(scenarios4k, rt.DivergenceBall(lam, 0.5), QUAD).u
            gaps.append(np.max(np.abs(u - u_kl)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_smoothed_loss_solution(self, scenarios4k):
        sol = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, 1.0), L1)
        assert sol.residual_norm <= 1e-8
        assert sol.estar.mean() == pytest.approx(1.0, abs=1e-6)

    def test_zero_weight_scenarios_at_large_radius(self, scenarios4k):
        # for a big radius and exponent the worst case puts no weight on the
        # best scenarios: the power form of E* had no value there
        sol = rt.solve_robust(scenarios4k, rt.DivergenceBall(1.0, 5.0), QUAD)
        tol = rt.SolverConfig().residual_tol
        assert sol.residual_norm <= tol
        assert np.any(sol.estar == 0.0) and np.all(sol.estar >= 0.0)
        assert abs(sol.estar.mean() - 1.0) <= tol
        # G(E) = (E - 1)^2 at lam = 1, and G(0) = 1
        assert abs(np.mean((sol.estar - 1.0) ** 2) - 5.0) <= tol

    @pytest.mark.parametrize("student", [False, True], ids=["gauss", "t10"])
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_smallest_radius(self, spec, student):
        # the table driver's eta floor: the ball barely tilts the weights
        model = rt.NominalModel.student_t(MU5, SIGMA5, 10.0) if student else None
        scen = make_scenarios(n=4000, seed=11, model=model)
        ball = rt.DivergenceBall(0.1, 1e-8)
        sol = rt.solve_robust(scen, ball, spec)
        assert sol.residual_norm <= 1e-8
        assert np.max(np.abs(sol.estar - 1.0)) < 1e-2
        res = rt.system_residual(sol.u, sol.alpha, sol.beta, sol.theta, scen, ball, spec)
        assert np.max(np.abs(res)) <= 1e-8

    def test_degenerate_scenarios_detected(self):
        scen = rt.ScenarioSet(R=np.ones((20, 2)), B=np.ones(20))
        with pytest.raises(rt.DegenerateScenariosError):
            rt.solve_robust(scen, rt.DivergenceBall(0.1, 0.5), QUAD)

    def test_requires_positive_eta(self, scenarios4k):
        with pytest.raises(ValueError, match="eta > 0"):
            rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, 0.0), QUAD)

    def test_singular_newton_system_raises(self, scenarios4k):
        # a repeated asset gives J two equal rows and columns; the
        # certificate's fit makes no decision on collinear assets
        R = scenarios4k.R
        scen = rt.ScenarioSet(np.column_stack([R[:, 0], R]), scenarios4k.B)
        with pytest.raises(rt.SingularSystemError, match="^singular Newton system$"):
            rt.solve_robust(scen, rt.DivergenceBall(0.1, 0.5), L1)

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_radius_beyond_the_tied_largest_losses(self, lam, monkeypatch):
        # 201 of 400 scenarios share the largest loss, so no E in the ball
        # lies beyond ((400/201)^lam - 1)/lam, below the check's bound for
        # one largest loss: the inner root finds no float with g > 0, and
        # its one-sided bracket ends it before its step limit
        base = make_scenarios(n=200, seed=3)
        top = int(np.argmax(base.shortfall(np.full(4, 0.25)) ** 2))
        scen = rt.ScenarioSet(np.vstack([base.R, np.repeat(base.R[top:top + 1], 200, axis=0)]),
                              np.append(base.B, np.repeat(base.B[top], 200)))
        assert np.expm1(lam * np.log(400 / 201)) / lam < 1.0
        sizes = _passes(monkeypatch, ("_tilt",))
        with pytest.raises(rt.NonConvergenceError,
                           match=r"^inner \(alpha, beta\) root did not converge$"):
            rt.solve_robust(scen, rt.DivergenceBall(lam, 1.0), QUAD)
        assert 0 < len(sizes) < solver._INNER_STEPS

    def test_requires_enough_scenarios(self):
        scen = make_scenarios(n=5, seed=1)
        with pytest.raises(ValueError, match="d\\+3"):
            rt.solve_robust(scen, rt.DivergenceBall(0.1, 0.5), QUAD)

    def test_config_overrides(self, scenarios4k):
        cfg = rt.SolverConfig(residual_tol=1e-10)
        sol = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, 0.5), QUAD, cfg)
        assert sol.residual_norm <= 1e-10

    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    @pytest.mark.parametrize("lam", [2.5, 3.0, 5.0, 10.0])
    def test_large_lam_converges(self, scenarios4k, spec, lam):
        # for lam > 1, (mean E*)^lam is not convex in beta: the root's sign
        # bracket keeps Newton inside it, and its floor stays finite
        for eta in (0.1, 1.0, 5.0):
            ball = rt.DivergenceBall(lam, eta)
            sol = rt.solve_robust(scenarios4k, ball, spec)
            assert sol.residual_norm <= 1e-8
            assert sol.estar.mean() == pytest.approx(1.0, abs=1e-9)
            e = sol.estar          # G(0) = 1 where the worst case drops a scenario
            assert np.mean(e ** (lam + 1.0) / lam - (lam + 1.0) / lam * e + 1.0) \
                == pytest.approx(eta, rel=1e-8)

    def test_inner_root_at_the_edge_of_the_support(self):
        # here the solution puts one scenario within 1e-15 of the support's
        # edge, where for lam = 10 the inner root g steps by about 1e-7
        # between neighbouring floats of its scalar; (alpha, beta) are
        # interpolated between the bracket's ends there
        scen = make_scenarios(n=4000, seed=3)
        sol = rt.solve_robust(scen, rt.DivergenceBall(10.0, 5.0), L2)
        assert sol.residual_norm <= 1e-8
        assert sol.iterations == 13


class TestInnerTilt:
    """The inner solve: (alpha, beta) minimizing the dual for fixed losses."""

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
    def test_constraints_hold(self, lam):
        rng = np.random.default_rng(9)
        loss = np.abs(0.02 * rng.standard_normal(4000)) ** 2
        alpha, beta, (s, estar, w) = _dual(loss, rt.DivergenceBall(lam, 0.7))
        for mine, again in zip((s, estar, w), _estar(loss, lam, alpha, beta)):
            assert np.array_equal(mine, again)
        assert estar.mean() == pytest.approx(1.0, abs=1e-9)
        assert rt.scalar_G(estar, lam).mean() == pytest.approx(0.7, abs=1e-9)
        assert estar.min() > 0

    def test_zero_weights_allowed(self):
        # at lam = 1 and a large radius the best scenarios get E* = 0
        rng = np.random.default_rng(9)
        loss = np.abs(0.02 * rng.standard_normal(4000)) ** 2
        _, _, (_, estar, w) = _dual(loss, rt.DivergenceBall(1.0, 5.0))
        assert np.any(estar == 0.0)
        assert np.array_equal(w, (estar > 0.0).astype(float))   # E*^0, and 0 at E* = 0
        assert estar.mean() == pytest.approx(1.0, abs=1e-9)
        assert np.mean((estar - 1.0) ** 2) == pytest.approx(5.0, abs=1e-9)

    def test_warm_start_gives_same_minimizer(self):
        rng = np.random.default_rng(10)
        loss = np.abs(0.02 * rng.standard_normal(4000)) ** 2
        ball = rt.DivergenceBall(0.1, 0.7)
        alpha, beta, _ = _dual(loss, ball)
        for start in ((alpha * 1e-6, beta), (alpha * 1e6, -1.0)):
            a, b, _ = _dual(loss, ball, *start)
            assert a == pytest.approx(alpha, rel=1e-10)
            assert b == pytest.approx(beta, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 2.5])
    @pytest.mark.parametrize("eta", [1e-8, 0.5, 5.0])
    def test_dual_value_is_the_cressie_read_form(self, lam, eta):
        # the worst-case loss as one scalar minimization, independent of the
        # solver's root: min over t of
        # (1 + lam eta)^(1/(lam+1)) ||(L - t)_+||_(1+1/lam) + t (Duchi and
        # Namkoong, Ann. Statist. 49(3), 2021), over t = top - exp(v); for
        # lam = 0, min over alpha = exp(v) of alpha eta + alpha log mean exp(L/alpha)
        loss = _losses(4000, 25)
        top = loss.max()
        ball = rt.DivergenceBall(lam, eta)
        alpha, beta, p = _dual(loss, ball)

        def form(v):
            if lam == 0.0:
                a = np.exp(v)
                return a * eta + top + a * np.log(np.mean(np.exp((loss - top) / a)))
            t, q = top - np.exp(v), 1.0 + 1.0 / lam
            return ((1.0 + lam * eta) ** (1.0 / (lam + 1.0))
                    * np.mean(np.maximum(loss - t, 0.0) ** q) ** (1.0 / q) + t)

        best = minimize_scalar(form, bounds=(-30.0, 10.0), method="bounded",
                               options={"xatol": 1e-12, "maxiter": 2000})
        assert solver._phi(alpha, beta, p, ball) == pytest.approx(best.fun, rel=1e-10)


def _passes(monkeypatch, names=("_tilt", "_estar")):
    """The sizes of the loss vectors of every pass over the losses from now
    on: by default the inner root's and _estar's."""
    sizes = []
    for name in names:
        def counted(L, *args, fn=getattr(solver, name)):
            sizes.append(L.size)
            return fn(L, *args)
        monkeypatch.setattr(solver, name, counted)
    return sizes


def _losses(n, seed):
    rng = np.random.default_rng(seed)
    return np.abs(0.02 * rng.standard_normal(n)) ** 2


class TestSubsampleStart:
    """The starts of the inner solve, which replaced a start from a strided
    subsample of the losses: every pass reads all N losses, and the
    minimizer does not depend on the start."""

    N = 2 ** 17

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("eta", [0.01, 0.5, 5.0])
    def test_same_minimizer_as_small_ball_start(self, lam, eta, monkeypatch):
        loss = _losses(self.N, 21)
        ball = rt.DivergenceBall(lam, eta)
        sizes = _passes(monkeypatch)
        alpha, beta, (_, estar, _) = _dual(loss, ball)
        assert set(sizes) == {self.N}
        if lam == 1.0 and eta == 5.0:
            assert np.any(estar == 0.0)
        # the line search's warm starts: far off in alpha, or beyond the
        # largest loss in beta
        for start in ((alpha * 1e-3, beta), (alpha * 1e3, beta),
                      (alpha, 2.0 * loss.max())):
            a, b, _ = _dual(loss, ball, *start)
            assert a == pytest.approx(alpha, rel=1e-12)
            assert b == pytest.approx(beta, rel=1e-12)

    def test_full_passes_of_a_table_row(self, monkeypatch):
        # the downturn table's shape: 2^17 rows of the five-asset market,
        # one-sided loss, lam = 0.1, eta = 0.5.  Started at the small-ball
        # estimate with a beta root per alpha step, the solve made 51 passes
        # over all N losses, and 30 with a subsample start and tangent
        # steps; as one scalar root per inner solve it makes 18.
        scen = make_scenarios(n=self.N, seed=1)
        sizes = _passes(monkeypatch)
        rt.solve_robust(scen, rt.DivergenceBall(0.1, 0.5), L1)
        assert set(sizes) == {self.N}
        assert len(sizes) <= 20


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestTrialPathMemory:
    """solve_robust keeps each array of N points only until its last read:
    a point's shortfall goes once its loss kernel returns, the start point's
    losses once their (alpha, beta) are solved, the accepted point's l', l''
    and pass once its Newton step is, a trial's losses once its (alpha,
    beta) are, and a rejected trial's l', l'' and pass at once.  J's u-block
    is summed over blocks of rows (_gram), with its weights formed one block
    at a time, so neither the weights nor a d x N product is an array of N.
    The worst-case pass and the inner root's pass work in one buffer per
    product, and _kkt, which writes none of its inputs, in one scratch
    array.  At N = 2^16 a solve then peaks at 6 arrays of N floats for
    every loss at lam 0, 0.1 and 1: 8 (7 at lam = 0) while each pass and
    product of _kkt had its own array and a trial's losses lived to its
    acceptance; 11 while _kkt formed the d x N product and a trial's losses
    lived to the next trial; 12 while the shortfall lived on to the
    assembly; 13 to 14 while the start point's losses and the accepted
    point's arrays lived on.

    solve_nonrobust drops l' and l'' once its gradient and Hessian are
    formed, and a rejected trial's at once, and sums its Hessian by _gram;
    it peaks at 5 arrays, in the loss kernel (6 while its Hessian formed the
    d x N product, 7 for smoothed_pos_sq while each step formed l' and l''
    from the shortfall)."""

    N = 2 ** 16

    @pytest.fixture(scope="class")
    def scenarios(self):
        return make_scenarios(n=self.N, seed=1)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_solve_peak(self, scenarios, spec, lam):
        ball = rt.DivergenceBall(lam, 0.5)
        assert peak_arrays(lambda: rt.solve_robust(scenarios, ball, spec), self.N) <= 6.1

    @pytest.mark.parametrize("spec", [L1, L2], ids=["l1", "l2"])
    def test_nonrobust_peak(self, scenarios, spec):
        assert peak_arrays(lambda: rt.solve_nonrobust(scenarios, spec), self.N) <= 5.2


class TestInPlacePasses:
    """The worst-case pass, the inner root's pass and the assembly have the
    bits of their forms in tests/eager_reference.py, which give every
    product its own array, and no pass, nor the in-place assembly _kkt,
    writes the caller's losses, shortfalls or an earlier pass."""

    LAMS = [0.0, 0.1, 0.5, 1.0, 2.5]

    @pytest.fixture(scope="class")
    def blocks(self):
        # _gram's blocks of rows, with the u-block's weights formed per
        # block: three whole blocks and a partial fourth
        return make_scenarios(n=3 * solver._BLOCK + 5, seed=27)

    @staticmethod
    def _point(scen, spec, lam):
        u = np.full(scen.d, 1.0 / scen.d) + 0.05 * np.array([1.0, -2.0, 0.5, 0.5])
        L, lp, lpp = solver._terms(spec, scen.shortfall(u))
        alpha, beta, p = _dual(L, rt.DivergenceBall(lam, 0.5))
        return u, L, lp, lpp, alpha, beta, p

    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_tilt_has_the_bits_of_the_frozen_pass(self, blocks, spec, lam):
        _, L, _, _, alpha, beta, _ = self._point(blocks, spec, lam)
        top = np.maximum.reduce(L)
        # the root's own x and, for lam > 0, a threshold with y = 0 on the
        # smallest 30 % of the losses
        xs = ([1.0 / alpha] if lam == 0.0 else
              [beta - alpha * (lam + 1.0) / lam, float(np.quantile(L, 0.3))])
        keep = L.copy()
        for x in xs:
            got, ref = solver._tilt(L, top, lam, 0.5, x), frozen_tilt(L, top, lam, 0.5, x)
            assert np.array_equal(_bits(got), _bits(ref))
        assert np.array_equal(_bits(L), _bits(keep))

    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_kkt_has_the_bits_of_the_frozen_assembly(self, blocks, spec, lam):
        ball = rt.DivergenceBall(lam, 0.5)
        u, _, lp, lpp, alpha, _, p = self._point(blocks, spec, lam)
        keep = [a.copy() for a in (lp, lpp, *p)]
        got = solver._kkt(u, alpha, lp, lpp, p, blocks, ball)
        ref = frozen_kkt(u, alpha, lp, lpp, p, blocks, ball)
        for a, b in zip(got, ref):
            assert np.array_equal(_bits(a), _bits(b))
        for a, b in zip((lp, lpp, *p), keep):
            assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0, 2.0, 2.5])
    def test_estar_has_the_bits_of_the_closed_form(self, lam):
        loss = _losses(50_000, 25)
        # for lam > 0 base = 1 + c s is 0 below the losses' 30 % quantile
        beta = float(np.quantile(loss, 0.6))
        alpha = (beta - float(np.quantile(loss, 0.3))) * lam / (lam + 1.0) if lam else 0.01
        keep = loss.copy()
        got, ref = _estar(loss, lam, alpha, beta), frozen_estar(loss, lam, alpha, beta)
        for a, b in zip(got, ref):
            assert np.array_equal(_bits(a), _bits(b))
        assert np.array_equal(_bits(loss), _bits(keep))
        if lam > 0.0:
            assert 0 < np.count_nonzero(got[1] == 0.0) < loss.size

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_inner_solve_leaves_the_losses(self, lam):
        loss = _losses(2 ** 16, 26)
        keep = loss.copy()
        _dual(loss, rt.DivergenceBall(lam, 0.5))
        assert np.array_equal(_bits(loss), _bits(keep))

    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_assembly_leaves_its_inputs(self, scenarios4k, spec):
        ball = rt.DivergenceBall(0.1, 0.5)
        u = np.array([0.4, 0.3, 0.2, 0.1])
        L, lp, lpp = solver._terms(spec, scenarios4k.B - scenarios4k.R @ u)
        alpha, beta, p = _dual(L, ball)
        keep = [a.copy() for a in (lp, lpp, *p)]
        solver._kkt(u, alpha, lp, lpp, p, scenarios4k, ball)
        for a, b in zip((lp, lpp, *p), keep):
            assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_solves_do_not_depend_on_the_callers_layout(self, scenarios4k, spec):
        R, B = np.array(scenarios4k.R), np.array(scenarios4k.B)
        sets = [rt.ScenarioSet(np.ascontiguousarray(R), B),
                rt.ScenarioSet(np.asfortranarray(R), B),
                rt.ScenarioSet(np.repeat(R, 2, axis=1)[:, ::2], B)]
        ball = rt.DivergenceBall(0.1, 1.0)
        robust = [rt.solve_robust(scen, ball, spec) for scen in sets]
        nonrobust = [rt.solve_nonrobust(scen, spec) for scen in sets]
        for sol, u in zip(robust[1:], nonrobust[1:]):
            assert _same_bytes(sol, robust[0])
            assert u.tobytes() == nonrobust[0].tobytes()


class TestSmallNReductions:
    """The solver's vector means skip numpy's Python-level wrapper and keep
    its bits."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 4097, 200_000])
    def test_mean_has_the_bits_of_ndarray_mean(self, n):
        # numpy sums pairwise in blocks of 8 and 128; values over 24 orders
        # of magnitude make any other order of the sum show in the bits
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        got, ref = solver._mean(a), a.mean()
        assert type(got) is type(ref) and _bits(got) == _bits(ref)


class TestGram:
    """_gram sums the weighted Gram matrix over blocks of rows: on one block
    it is (R.T * w) @ R bit for bit, and on several it agrees to rounding."""

    @staticmethod
    def _set(n):
        rng = np.random.default_rng(n)
        R = np.asfortranarray(1.0 + 0.05 * rng.standard_normal((n, 4)))
        return R, rng.exponential(size=n)

    # 7 = d + 3 rows, the fewest a robust solve takes
    @pytest.mark.parametrize("n", [1, 7, solver._BLOCK])
    def test_one_block_has_the_bits_of_the_product(self, n):
        R, w = self._set(n)
        assert np.array_equal(_bits(solver._gram(R, w.__getitem__)), _bits((R.T * w) @ R))

    @pytest.mark.parametrize("n", [solver._BLOCK + 1, 2 * solver._BLOCK, 2 ** 16 + 3])
    def test_blocks_agree_with_the_product(self, n):
        R, w = self._set(n)
        G, ref = solver._gram(R, w.__getitem__), (R.T * w) @ R
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_no_d_by_n_product(self):
        R, w = self._set(2 ** 16)
        assert peak_arrays(lambda: solver._gram(R, w.__getitem__), 2 ** 16) <= 0.6


class TestHessianDiagnostic:
    def test_nonpositive_at_solutions(self, scenarios4k):
        for spec in (QUAD, L1):
            ball = rt.DivergenceBall(0.1, 1.0)
            sol = rt.solve_robust(scenarios4k, ball, spec)
            max_eig = rt.hessian_diagnostic(sol, scenarios4k, ball, spec)
            scale = max(1.0, abs(max_eig))
            assert max_eig <= 1e-8 * scale

    def test_zero_weight_scenarios_carry_no_curvature(self, scenarios4k):
        # at lam = 1, E*^(1-lam) is 1 wherever E* > 0 and 0 where E* = 0
        ball = rt.DivergenceBall(1.0, 5.0)
        sol = rt.solve_robust(scenarios4k, ball, QUAD)
        assert np.any(sol.estar == 0.0)
        max_eig = rt.hessian_diagnostic(sol, scenarios4k, ball, QUAD)
        assert np.isfinite(max_eig)
        assert max_eig <= 1e-8 * max(1.0, abs(max_eig))

    def test_quadratic_form_bounded_by_eigenvalues(self, scenarios4k):
        ball = rt.DivergenceBall(0.1, 0.5)
        sol = rt.solve_robust(scenarios4k, ball, QUAD)
        max_eig = rt.hessian_diagnostic(sol, scenarios4k, ball, QUAD)
        # rebuild the Hessian the same way and cross-check random quadratic forms
        R = scenarios4k.R
        N = scenarios4k.n
        x = scenarios4k.B - R @ sol.u
        g = rt.loss_deriv1(QUAD, x)[:, None] * R
        w = sol.estar ** 0.9
        hess = (-(R * (2.0 * sol.estar)[:, None]).T @ R / N
                - (g * w[:, None]).T @ g / (N * sol.alpha * 1.1))
        eigs = np.linalg.eigvalsh(hess)
        rng = np.random.default_rng(13)
        for _ in range(25):
            y = rng.standard_normal(scenarios4k.d)
            q = y @ hess @ y / (y @ y)
            assert eigs[0] - 1e-12 <= q <= eigs[-1] + 1e-12
        assert eigs[-1] == pytest.approx(max_eig, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_is_the_u_block_of_the_system_jacobian(self, scenarios4k, lam):
        ball = rt.DivergenceBall(lam, 1.0)
        sol = rt.solve_robust(scenarios4k, ball, L1)
        J = rt.system_jacobian(sol.u, sol.alpha, sol.beta, sol.theta, scenarios4k, ball, L1)
        d = scenarios4k.d
        assert (rt.hessian_diagnostic(sol, scenarios4k, ball, L1)
                == np.linalg.eigvalsh(J[:d, :d])[-1])

    def test_univariate_single_scenario_hand_value(self):
        # d=1, one scenario: both Hessian terms are scalars computable by hand
        R = np.array([[1.03]])
        B = np.array([1.01])
        scen = rt.ScenarioSet(R=R, B=B)
        lam, alpha, beta = 0.2, 0.05, 0.01
        x = 1.01 - 1.03          # B - R'u at u = 1
        # E* at (alpha, beta): s = (l - beta)/alpha, E* = (1 + c s)^(1/lam)
        e = (1.0 + lam / (lam + 1.0) * (x ** 2 - beta) / alpha) ** (1.0 / lam)
        sol = rt.RobustSolution(u=np.array([1.0]), alpha=alpha, beta=beta,
                                theta=0.0, estar=np.array([e]), residual_norm=0.0,
                                iterations=0)
        got = rt.hessian_diagnostic(sol, scen, rt.DivergenceBall(lam, 0.5), QUAD)
        grad = 2.0 * x * 1.03    # loss_deriv1(x) * R
        expected = (-2.0 * 1.03 ** 2 * e
                    - grad ** 2 * e ** (1 - lam) / (alpha * (1 + lam)))
        assert got == pytest.approx(expected, rel=1e-12)


def _same_bytes(a, b):
    return (a.u.tobytes() == b.u.tobytes() and a.alpha == b.alpha
            and a.beta == b.beta and a.theta == b.theta
            and a.estar.tobytes() == b.estar.tobytes()
            and a.iterations == b.iterations)


def _assert_close_to_reference(new, ref):
    assert np.max(np.abs(new.u - ref.u)) <= 1e-5
    assert abs(new.alpha - ref.alpha) <= 1e-5 * ref.alpha
    assert np.max(np.abs(new.estar - ref.estar)) <= 1e-3


class TestLazyNewton:
    """Newton on the worst-case loss against the frozen damped-Newton solver
    it replaced (tests/eager_reference.py), and the work it does."""

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_matches_eager_reference(self, scenarios4k, spec, lam):
        for eta in (0.1, 2.0):
            ball = rt.DivergenceBall(lam, eta)
            _assert_close_to_reference(rt.solve_robust(scenarios4k, ball, spec),
                                       eager_solve_robust(scenarios4k, ball, spec))

    def test_matches_eager_reference_on_fallback_directions(self):
        # the reference needs Levenberg-Marquardt steps on window 2 of the
        # replicable panel, the only window it solves
        scen = replicable_window(2)
        _assert_close_to_reference(rt.solve_robust(scen, REPL_BALL, L1),
                                   eager_solve_robust(scen, REPL_BALL, L1))

    def test_work_counts(self, monkeypatch):
        # the start and each line-search trial form l, l' and l'' in one
        # kernel call; an accepted point forms none of them again
        scen = make_scenarios(n=2000, seed=151)
        counts = _calls(monkeypatch, "_kkt", "_phi")
        sol = rt.solve_robust(scen, rt.DivergenceBall(0.0, 2.0), L1)
        # _phi runs once at the start and once per trial
        assert counts["_terms"] == counts["shortfall"] == counts["_phi"]
        assert counts["_kkt"] == sol.iterations + 1
        assert counts["_terms"] >= sol.iterations + 1

    def test_repeat_solve_is_bit_identical(self, scenarios4k):
        ball = rt.DivergenceBall(0.1, 1.0)
        assert _same_bytes(rt.solve_robust(scenarios4k, ball, L1),
                           rt.solve_robust(scenarios4k, ball, L1))

    def test_repeat_solve_is_bit_identical_from_subsample_start(self):
        # named for the strided-subsample start that sets of this size once took
        scen = make_scenarios(n=2 ** 16, seed=11)
        ball = rt.DivergenceBall(0.1, 1.0)
        assert _same_bytes(rt.solve_robust(scen, ball, L1),
                           rt.solve_robust(scen, ball, L1))


def _worst_case_loss(loss, lam, eta):
    """max mean(E loss) over E >= 0 with mean(E) = 1 and mean(G(E)) <= eta,
    as the dual minimum over alpha of a bracketed beta root: an evaluation
    independent of the solver's inner Newton iterations."""
    c = lam / (lam + 1.0)

    def estar(a, b):
        return np.maximum(1.0 + c * (loss - b) / a, 0.0) ** (1.0 / lam)

    def dual(log_a):
        a = np.exp(log_a)
        b = brentq(lambda b: estar(a, b).mean() - 1.0, loss.min() - 1e3 * a,
                   loss.max(), xtol=1e-18, rtol=1e-15)
        return a * eta + b + a * np.mean(estar(a, b) ** (lam + 1.0) - 1.0)

    return minimize_scalar(dual, bounds=(-30.0, 5.0), method="bounded",
                           options={"xatol": 1e-10}).fun


class TestReplicableWindows:
    """The fixed panel whose index the three stocks replicate exactly."""

    @pytest.mark.parametrize("k", [0, 2, 6, 7, 8, 9])
    def test_solvable_windows_reach_the_minimizer(self, k):
        scen = replicable_window(k)
        sol = rt.solve_robust(scen, REPL_BALL, L1)
        assert sol.residual_norm <= 1e-8 and sol.alpha > 0

        def rho(u):
            return _worst_case_loss(rt.loss_value(L1, scen.B - scen.R @ u),
                                    REPL_BALL.lam, REPL_BALL.eta)

        best = rho(sol.u)
        assert float(np.mean(sol.estar * rt.loss_value(L1, scen.B - scen.R @ sol.u))) \
            == pytest.approx(best, rel=1e-8)
        for v in ([1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]):
            for step in (1e-3, -1e-3):
                assert rho(sol.u + step * np.array(v)) > best

    @pytest.mark.parametrize("k", [1, 3, 4, 5])
    def test_alpha_collapse_is_named(self, k, monkeypatch):
        # the optimum is the replicating portfolio, where every loss is l(0)
        # and alpha = 0: no KKT point exists.  The certificate D_min <= eta
        # decides it before any inner root or Newton step; without it, Newton
        # took up to 30 steps, 13-61 ms, to reach the collapse rule
        counts = _calls(monkeypatch, "_kkt", "_phi", "_tilt")
        with pytest.raises(rt.DegenerateScenariosError,
                           match=r"alpha collapse: .* D_min = 0\.0\d+ <= eta = 0\.02"):
            rt.solve_robust(replicable_window(k), REPL_BALL, L1)
        assert counts["_kkt"] == counts["_tilt"] == counts["_phi"] == 0
        assert counts["_terms"] <= 1

    def test_collapse_restarts_the_inner_root_at_the_small_ball_estimate(self, monkeypatch):
        # a trial whose Newton step takes alpha to 0 or below starts its
        # inner root at the small-ball estimate; window 6, which converges,
        # takes that restart in 4 trials.  (Started from the current alpha
        # scaled by the trial's loss spread, window 1 took 523 passes.)
        starts = []

        def dual(L, ball, *start, fn=solver._dual):
            starts.append(start)
            return fn(L, ball, *start)

        monkeypatch.setattr(solver, "_dual", dual)
        sol = rt.solve_robust(replicable_window(6), REPL_BALL, L1)
        assert sol.residual_norm <= 1e-8
        # the start point's root, then at least one restart
        assert starts[0] == () and starts[1:].count(()) >= 1

    def test_collapse_rule_ends_a_near_replicable_newton_run(self, monkeypatch):
        # smoothed_plus at lam = 1, eta = 0.05 on windows 7 and 8: D_min
        # (0.059, 0.055) exceeds eta, so the certificate hands the solve to
        # Newton, whose trials approach u_rep until the loss-spread rule
        # raises, naming the certificate's bound.  With D_min > eta a KKT
        # point should exist (smoothed_pos_sq converges on both windows);
        # this pins the rule's cost, not the outcome
        ball = rt.DivergenceBall(1.0, 0.05)
        for k in (7, 8):
            counts = _calls(monkeypatch, "_kkt")
            with pytest.raises(rt.DegenerateScenariosError,
                               match=r"alpha collapse: the losses approach equality .* "
                                     r"D_min >= 0\.05\d+ > eta = 0\.05:"):
                rt.solve_robust(replicable_window(k), ball, L2)
            assert counts["_kkt"] <= 60


    def test_collapse_above_the_certificate_bound_gives_the_bound(self, monkeypatch):
        # three assets that replicate the index on 40 rows, lam = 0, eta =
        # 0.95 D_min, smoothed_plus: the certificate's dual passes eta, so
        # alpha > 0 at the optimum, yet Newton's trials reach the spread
        # rule.  The message gives that bound, not alpha = 0, and the run is
        # the one a solve without the bound makes
        rng = np.random.default_rng(8)
        r = 0.02 * rng.standard_normal((40, 3)) + 0.001
        w = np.linspace(0.5, 0.1, 3)
        scen = rt.scenarios_from(r, r @ w / w.sum())
        D, _ = solver._dmin(_plane(scen.R), 0.0, np.inf)
        ball = rt.DivergenceBall(0.0, 0.95 * D)

        def unbounded(*args, fn=solver._certify):
            fn(*args)

        runs = []
        for certify in (solver._certify, unbounded):
            monkeypatch.setattr(solver, "_certify", certify)
            counts = _calls(monkeypatch, "_kkt", "_dual")
            with pytest.raises(rt.DegenerateScenariosError) as info:
                rt.solve_robust(scen, ball, L2)
            runs.append((str(info.value), dict(counts)))
        (msg, counts), (plain_msg, plain_counts) = runs
        assert counts == plain_counts
        assert plain_msg.endswith("so the worst case degenerates to alpha = 0")
        assert msg.startswith("alpha collapse: the losses approach equality")
        bound = re.search(r"D_min >= (\S+) > eta = (\S+):", msg)
        assert ball.eta < float(bound[1]) <= D and "degenerates" not in msg


def _plane(R):
    """R_j - R_1: the certificate's constraints are mean(E (R_j - R_1)) = 0."""
    return R[:, 1:] - R[:, :1]


class TestReplicableCertificate:
    """D_min, the least divergence of a reweighting E that gives every tracked
    asset the same tilted mean, decides whether the replicating portfolio is
    optimal (solver's module docstring)."""

    # lam = 0.1, windows 0-9; the ROADMAP's prototype (BFGS on the same dual)
    # read 0.0195, 0.0199, 0.0151 and 0.0171 on windows 1, 3, 4 and 5
    DMIN = [0.02643, 0.01947, 0.03546, 0.01990, 0.01511, 0.01705, 0.02939,
            0.03462, 0.03258, 0.03131]

    @pytest.mark.parametrize("k", range(10))
    def test_dmin_of_the_replicable_windows(self, k, monkeypatch):
        R = replicable_window(k).R
        D, e = solver._dmin(_plane(R), 0.1, np.inf)
        assert D == pytest.approx(self.DMIN[k], abs=1e-5)
        # E is feasible to rounding: mean E = 1, equal tilted means
        assert abs(e.mean() - 1.0) <= 1e-12
        assert np.ptp((R * e[:, None]).mean(axis=0)) <= 1e-12
        # at eta = 0.02 a window with D_min > eta stops at its first dual
        # value above eta, after one step (the start's pass and one trial's),
        # with a lower bound on D_min; the others run to D_min
        sizes = _passes(monkeypatch, ("_estar",))
        bound, _ = solver._dmin(_plane(R), 0.1, REPL_BALL.eta)
        if D > REPL_BALL.eta:
            assert REPL_BALL.eta < bound < D and len(sizes) == 2
        else:
            assert bound == D

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("k", range(10))
    def test_dmin_is_the_primal_minimum(self, k, lam):
        # the primal problem over the 40 weights E, solved by SLSQP
        R = replicable_window(k).R
        N = len(R)

        def G(e):
            if lam == 0.0:
                return e * np.log(e) - e + 1.0
            return (e ** (lam + 1.0) - e) / lam - e + 1.0

        def dG(e):
            return np.log(e) if lam == 0.0 else ((lam + 1.0) * e ** lam - 1.0) / lam - 1.0

        # the tilted-mean rows are scaled by 1e2 to the size of the budget row
        tilted = [{"type": "eq", "fun": lambda e, j=j: (e * (R[:, j] - R[:, 0])).mean() * 1e2,
                   "jac": lambda e, j=j: (R[:, j] - R[:, 0]) / N * 1e2} for j in (1, 2)]
        cons = [{"type": "eq", "fun": lambda e: e.mean() - 1.0,
                 "jac": lambda e: np.full(N, 1.0 / N)}] + tilted
        best = minimize(lambda e: G(e).mean(), np.ones(N), jac=lambda e: dG(e) / N,
                        method="SLSQP", bounds=[(1e-9, None)] * N, constraints=cons,
                        options={"ftol": 1e-16, "maxiter": 500})
        assert best.success
        D, _ = solver._dmin(_plane(R), lam, np.inf)
        assert D == pytest.approx(best.fun, abs=1e-8)

    def test_dmin_takes_a_rise_within_rounding_whole(self, monkeypatch):
        # D is a difference of terms of size 1: a Newton rise of about
        # 4e-18, which no trial can verify, is taken whole, not halved to
        # the step floor and reported as no decision (NaN)
        rng = np.random.default_rng(23)
        r = 0.02 * rng.standard_normal((20000, 3)) + 0.001
        w = np.linspace(0.5, 0.1, 3)
        scen = rt.scenarios_from(r, r @ w / w.sum())
        D, e = solver._dmin(_plane(scen.R), 0.1, np.inf)
        assert D == pytest.approx(9.9378e-5, abs=1e-8)
        assert abs(e.mean() - 1.0) <= 1e-12
        # so the solve raises the certificate's error before Newton
        counts = _calls(monkeypatch, "_kkt")
        for eta in (2e-4, 1e-3):
            with pytest.raises(rt.DegenerateScenariosError, match=r"D_min = 9\.9378"):
                rt.solve_robust(scen, rt.DivergenceBall(0.1, eta), L1)
        assert counts["_kkt"] == 0

    def test_dmin_of_collinear_assets_is_no_decision(self):
        # a singular Newton system ends the iteration with NaN; the solve's
        # least-squares fit returns first on such a set, so only a direct
        # call reaches it
        z = _plane(replicable_window(0).R)[:, :1]
        D, e = solver._dmin(np.column_stack([z, z]), 0.1, 0.02)
        assert np.isnan(D) and np.all(e == 1.0)

    def test_dmin_whose_trials_reach_the_step_floor_is_no_decision(self, monkeypatch):
        # at lam = 10 on 20 rows, E*^(1-lam) = E*/base is not smooth where
        # base reaches 0: no trial of a step rises enough down to t = 1e-10,
        # and the iteration ends with NaN and infeasible weights
        rng = np.random.default_rng(21)
        r = 0.02 * rng.standard_normal((20, 3)) + 0.001
        w = np.linspace(0.5, 0.1, 3)
        scen = rt.scenarios_from(r, r @ w / w.sum())
        events = _passes(monkeypatch, ("_estar",))
        monkeypatch.setattr(solver.np.linalg, "solve",
                            lambda *args, fn=np.linalg.solve: events.append("step") or fn(*args))
        D, e = solver._dmin(_plane(scen.R), 10.0, 1.0)
        assert np.isnan(D) and abs(e.mean() - 1.0) > 1e-6
        # the last step's trials t = 1 to 2^-33 all fail, before the step limit
        assert 0 < events.count("step") < solver._INNER_STEPS
        assert events[::-1].index("step") == 34

    def test_quadratic_loss_at_zero_shortfall_raises_without_the_dual(self, monkeypatch):
        # every loss is 0 at the replicating portfolio: the global minimum
        counts = _calls(monkeypatch, "_dmin", "_tilt", "_kkt")
        for k in (0, 1):
            with pytest.raises(rt.DegenerateScenariosError, match="zero shortfall"):
                rt.solve_robust(replicable_window(k), REPL_BALL, QUAD)
        assert counts["_dmin"] == counts["_tilt"] == counts["_kkt"] == counts["_terms"] == 0

    def test_pre_test_reads_only_a_prefix_of_other_sets(self, scenarios4k, monkeypatch):
        # a set the tracked assets do not replicate fails the test on its
        # first 2(d + 2) = 12 rows: the spreads it compares are of those
        # rows, and the solve makes the kernel calls and shortfalls it makes
        # without the test
        spreads = []

        def ptp(a, fn=np.ptp):
            spreads.append(len(a))
            return fn(a)

        monkeypatch.setattr(solver.np, "ptp", ptp)
        runs = []
        for certify in (solver._certify, lambda *args: None):
            monkeypatch.setattr(solver, "_certify", certify)
            counts = _calls(monkeypatch, "_dmin")
            runs.append((rt.solve_robust(scenarios4k, REPL_BALL, L1), dict(counts)))
        (sol, counts), (plain, plain_counts) = runs
        assert spreads == [12, 12]
        assert counts == plain_counts and counts["_dmin"] == 0
        assert _same_bytes(sol, plain)


class TestLargestDivergence:
    """No distribution on N scenarios lies further from the nominal than a
    point mass on one of them, at mean G = log N for lam = 0 and
    expm1(lam log N)/lam otherwise.  A radius at or beyond that holds the
    point mass on the largest loss, so alpha = 0."""

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_raises_before_the_first_pass(self, scenarios4k, lam, monkeypatch):
        n = scenarios4k.n
        largest = np.log(n) if lam == 0.0 else np.expm1(lam * np.log(n)) / lam
        # mean G of the point mass E = N on one scenario, G(0) = 1 elsewhere
        assert largest == pytest.approx((rt.scalar_G(float(n), lam) + n - 1.0) / n,
                                        rel=1e-12)
        sizes = _passes(monkeypatch)
        for eta in (largest, 1.01 * largest):
            with pytest.raises(rt.DegenerateScenariosError,
                               match=re.escape(f"largest divergence {largest:.6g} of {n}")):
                rt.solve_robust(scenarios4k, rt.DivergenceBall(lam, eta), L1)
        assert sizes == []


class TestNonConvergenceReport:
    def test_reports_best_iterate_and_steps_taken(self, scenarios4k, monkeypatch):
        ball = rt.DivergenceBall(0.1, 2.0)
        errs = []
        for steps in (1, 2):
            monkeypatch.setattr(solver, "_NEWTON_STEPS", steps)
            with pytest.raises(rt.NonConvergenceError) as info:
                rt.solve_robust(scenarios4k, ball, L1)
            errs.append(info.value)
            assert str(info.value) == "robust solve did not reach residual tolerance 1e-08"
            assert info.value.iterations == steps
            assert info.value.residual_norm > 1e-8
        assert errs[1].residual_norm <= errs[0].residual_norm

    def test_stalls_once_no_trial_can_verify_a_decrease(self, scenarios4k):
        # lam = 10, eta = 2: a scenario at the support's edge keeps the
        # normalization residual near 1e-6 while rho reaches its rounding,
        # where Armijo's test would accept steps on noise for all 100 steps
        with pytest.raises(rt.NonConvergenceError, match="stalled") as info:
            rt.solve_robust(scenarios4k, rt.DivergenceBall(10.0, 2.0), QUAD)
        assert info.value.iterations <= 10

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_inner_root_that_runs_out_of_steps(self, scenarios4k, lam, monkeypatch):
        # one step cannot take the inner root from the small-ball estimate
        # to its tolerance; the solve raises the root's own error
        monkeypatch.setattr(solver, "_INNER_STEPS", 1)
        with pytest.raises(rt.NonConvergenceError,
                           match=r"^inner \(alpha, beta\) root did not converge$"):
            rt.solve_robust(scenarios4k, rt.DivergenceBall(lam, 2.0), L1)


def test_import_leaves_scipy_optimize_unloaded():
    # importing the CLI must not pull in scipy.optimize or scipy.linalg,
    # which the package no longer uses; each import costs start-up time
    # (a third of a second and 85 ms)
    src = Path(rt.__file__).resolve().parent.parent
    unused = ["scipy.optimize", "scipy.linalg"]
    code = f"import sys, robusttrack.cli; print([m for m in {unused} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"
