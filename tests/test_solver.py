import numpy as np
import pytest

import robusttrack as rt
import robusttrack.solver as solver
from robusttrack.solver import _inner_tilt

from conftest import make_scenarios, replicable_window
from eager_reference import eager_solve_robust

QUAD = rt.LossSpec.quadratic()
L1 = rt.LossSpec.smoothed_pos_sq(0.01)
L2 = rt.LossSpec.smoothed_plus(0.01)
# the replicable panel's ball and loss, as in the CLI backtest test
REPL_BALL = rt.DivergenceBall(0.1, 0.02)


class TestEstarValue:
    def test_unit_at_neutral_payoff(self):
        # h = -beta makes the exponent argument zero
        assert rt.estar_value(-0.01, alpha=0.02, beta=0.01, lam=0.0) == pytest.approx(1.0)
        assert rt.estar_value(-0.01, alpha=0.02, beta=0.01, lam=0.3) == pytest.approx(1.0)

    def test_extended_precision_reference(self):
        ld = np.longdouble
        lam, alpha, beta, h = ld("0.1"), ld("0.02"), ld("0.01"), ld("-0.0102")
        base = lam / (lam + 1) * ((-beta - h) / alpha) + 1
        ref = base ** (1 / lam)
        got = rt.estar_value(-0.0102, alpha=0.02, beta=0.01, lam=0.1)
        assert got == pytest.approx(float(ref), rel=1e-13)

    def test_infeasible_base(self):
        # strongly positive -beta-h with tiny alpha overflows the KL exponent;
        # for lam>0 a negative base must raise
        with pytest.raises(rt.FeasibilityError):
            rt.estar_value(0.5, alpha=0.001, beta=0.01, lam=0.2)

    def test_requires_positive_alpha(self):
        with pytest.raises(rt.FeasibilityError):
            rt.estar_value(-0.01, alpha=0.0, beta=0.0, lam=0.1)


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

    def test_singular_system_raises(self):
        scen = rt.ScenarioSet(R=np.ones((10, 2)), B=np.ones(10))
        with pytest.raises(rt.SingularSystemError):
            rt.solve_nonrobust(scen, QUAD)


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

    def test_infeasible_exponent_radius_pair_reported(self, scenarios4k):
        # for a big radius only small exponents admit positive E* bases;
        # beyond that boundary the solver reports failure instead of weights
        with pytest.raises(rt.NonConvergenceError):
            rt.solve_robust(scenarios4k, rt.DivergenceBall(1.0, 5.0),
                            rt.LossSpec.quadratic())

    def test_degenerate_scenarios_detected(self):
        scen = rt.ScenarioSet(R=np.ones((20, 2)), B=np.ones(20))
        with pytest.raises(rt.DegenerateScenariosError):
            rt.solve_robust(scen, rt.DivergenceBall(0.1, 0.5), QUAD)

    def test_requires_positive_eta(self, scenarios4k):
        with pytest.raises(ValueError, match="eta > 0"):
            rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, 0.0), QUAD)

    def test_requires_enough_scenarios(self):
        scen = make_scenarios(n=5, seed=1)
        with pytest.raises(ValueError, match="d\\+3"):
            rt.solve_robust(scen, rt.DivergenceBall(0.1, 0.5), QUAD)

    def test_config_overrides(self, scenarios4k):
        cfg = rt.SolverConfig(init_u=np.array([0.4, 0.3, 0.2, 0.1]),
                              residual_tol=1e-10)
        sol = rt.solve_robust(scenarios4k, rt.DivergenceBall(0.1, 0.5), QUAD, cfg)
        assert sol.residual_norm <= 1e-10


class TestInnerTilt:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
    def test_constraints_hold(self, lam):
        rng = np.random.default_rng(9)
        h = -np.abs(0.02 * rng.standard_normal(4000)) ** 2
        alpha, beta = _inner_tilt(h, lam, eta=0.7)
        estar = np.array([rt.estar_value(v, alpha, beta, lam) for v in h])
        assert estar.mean() == pytest.approx(1.0, abs=1e-9)
        assert rt.scalar_G(estar, lam).mean() == pytest.approx(0.7, abs=1e-9)
        assert estar.min() > 0


class TestHessianDiagnostic:
    def test_nonpositive_at_solutions(self, scenarios4k):
        for spec in (QUAD, L1):
            ball = rt.DivergenceBall(0.1, 1.0)
            sol = rt.solve_robust(scenarios4k, ball, spec)
            max_eig = rt.hessian_diagnostic(sol, scenarios4k, ball, spec)
            scale = max(1.0, abs(max_eig))
            assert max_eig <= 1e-8 * scale
            assert sol.hessian_max_eig == max_eig

    def test_quadratic_form_bounded_by_eigenvalues(self, scenarios4k):
        ball = rt.DivergenceBall(0.1, 0.5)
        sol = rt.solve_robust(scenarios4k, ball, QUAD)
        rt.hessian_diagnostic(sol, scenarios4k, ball, QUAD)
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
        assert eigs[-1] == pytest.approx(sol.hessian_max_eig, rel=1e-10, abs=1e-12)

    def test_univariate_single_scenario_hand_value(self):
        # d=1, one scenario: both Hessian terms are scalars computable by hand
        R = np.array([[1.03]])
        B = np.array([1.01])
        scen = rt.ScenarioSet(R=R, B=B)
        lam, alpha = 0.2, 0.05
        x = 1.01 - 1.03          # B - R'u at u = 1
        estar = np.array([1.7])
        sol = rt.RobustSolution(u=np.array([1.0]), alpha=alpha, beta=0.01,
                                theta=0.0, estar=estar, residual_norm=0.0,
                                iterations=0)
        got = rt.hessian_diagnostic(sol, scen, rt.DivergenceBall(lam, 0.5), QUAD)
        grad = 2.0 * x * 1.03    # loss_deriv1(x) * R
        expected = (-2.0 * 1.03 ** 2 * 1.7
                    - grad ** 2 * 1.7 ** (1 - lam) / (alpha * (1 + lam)))
        assert got == pytest.approx(expected, rel=1e-12)


def _same_bytes(a, b):
    return (a.u.tobytes() == b.u.tobytes() and a.alpha == b.alpha
            and a.beta == b.beta and a.theta == b.theta
            and a.estar.tobytes() == b.estar.tobytes()
            and a.iterations == b.iterations)


class TestLazyNewton:
    """The lazy line search must take exactly the eager solver's steps."""

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("spec", [QUAD, L1, L2], ids=["quad", "l1", "l2"])
    def test_matches_eager_reference(self, scenarios4k, spec, lam):
        for eta in (0.1, 2.0):
            ball = rt.DivergenceBall(lam, eta)
            assert _same_bytes(rt.solve_robust(scenarios4k, ball, spec),
                               eager_solve_robust(scenarios4k, ball, spec))

    def test_matches_eager_reference_on_fallback_directions(self):
        # window 2 of the replicable panel needs Levenberg-Marquardt steps;
        # window 1 fails in both solvers
        calls = {"lm": 0}
        directions = solver._directions

        def counting(J, F):
            for i, dz in enumerate(directions(J, F)):
                calls["lm"] += i > 0
                yield dz

        scen = replicable_window(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_directions", counting)
            lazy = rt.solve_robust(scen, REPL_BALL, L1)
        assert calls["lm"] > 0
        assert _same_bytes(lazy, eager_solve_robust(scen, REPL_BALL, L1))
        scen = replicable_window(1)
        with pytest.raises(rt.NonConvergenceError):
            rt.solve_robust(scen, REPL_BALL, L1)
        with pytest.raises(rt.NonConvergenceError):
            eager_solve_robust(scen, REPL_BALL, L1)

    def test_work_counts(self, monkeypatch):
        scen = make_scenarios(n=2000, seed=151)
        ball = rt.DivergenceBall(0.0, 2.0)
        d = scen.d
        counts = {"l": 0, "lp": 0, "lpp": 0}
        for name, key in (("loss_value", "l"), ("loss_deriv1", "lp"),
                          ("loss_deriv2", "lpp")):
            def counted(spec, x, fn=getattr(solver, name), key=key):
                counts[key] += 1
                return fn(spec, x)
            monkeypatch.setattr(solver, name, counted)

        residual = solver._residual
        skipped, feasible = [], []

        def watched(z, *args):
            before = dict(counts)
            out = residual(z, *args)
            if z[d] <= 0:
                skipped.append(counts == before and out is None)
            elif out is not None:
                feasible.append(z)
            return out

        monkeypatch.setattr(solver, "_residual", watched)
        z0 = np.concatenate([np.full(d, 1.0 / d), [0.02, 0.01, -0.05]])
        z, F, steps = solver._newton(z0, scen, ball, L1, rt.SolverConfig())
        assert np.max(np.abs(F)) <= 1e-8
        assert skipped and all(skipped)      # alpha <= 0 trials run no kernel
        assert len(feasible) > steps + 1     # some feasible trials were rejected
        assert counts["lpp"] == steps + 1    # start point plus each accepted step

    def test_fallback_directions_formed_on_demand(self, monkeypatch):
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        J = np.array([[2.0, 1.0], [1.0, 3.0]])
        F = np.array([1.0, -1.0])
        directions = solver._directions(J, F)
        assert np.allclose(next(directions), np.linalg.inv(J) @ -F)
        assert len(solves) == 1
        assert len(list(directions)) == 3 and len(solves) == 4

    def test_repeat_solve_is_bit_identical(self, scenarios4k):
        ball = rt.DivergenceBall(0.1, 1.0)
        assert _same_bytes(rt.solve_robust(scenarios4k, ball, L1),
                           rt.solve_robust(scenarios4k, ball, L1))


class TestNonConvergenceReport:
    def test_reports_best_iterate_and_steps_taken(self):
        # both attempts run all 200 steps on window 1 and stall near 1e-5;
        # the start point's residual is 0.37
        with pytest.raises(rt.NonConvergenceError) as info:
            rt.solve_robust(replicable_window(1), REPL_BALL, L1)
        err = info.value
        assert str(err) == "robust solve did not reach residual tolerance 1e-08"
        assert err.iterations == 400
        assert 1e-8 < err.residual_norm < 1e-4

    def test_counts_only_the_attempts_made(self):
        scen = replicable_window(1)
        one = rt.SolverConfig(max_iterations=5, warm_start_retry=False)
        two = rt.SolverConfig(max_iterations=5)
        with pytest.raises(rt.NonConvergenceError) as first:
            rt.solve_robust(scen, REPL_BALL, L1, one)
        with pytest.raises(rt.NonConvergenceError) as both:
            rt.solve_robust(scen, REPL_BALL, L1, two)
        assert first.value.iterations == 5
        assert both.value.iterations == 10
        assert both.value.residual_norm <= first.value.residual_norm
