"""Eager Newton reference for the solver equivalence tests.

This is the robust solve as it was before the line search became lazy:
every trial point runs the full assembly (l, l', l'', residual and
Jacobian), and all four search directions are formed before the first
trial.  `solve_robust` must reproduce it bit for bit; see
tests/test_solver.py::TestLazyNewton.
"""

import numpy as np

from robusttrack.solver import (NonConvergenceError, RobustSolution, SolverConfig,
                                SolverError, _check_degenerate, _G_from_log,
                                _inner_tilt, _log_estar, _payoff_terms,
                                solve_nonrobust)


def eager_assemble(z, scenarios, ball, spec, want_jacobian=True):
    R = scenarios.R
    N, d = R.shape
    u, alpha, beta, theta = z[:d], z[d], z[d + 1], z[d + 2]
    lam = ball.lam
    h, lp, lpp = _payoff_terms(u, scenarios, spec)
    loge = _log_estar(h, alpha, beta, lam)
    if loge is None:
        return None
    e = np.exp(loge)
    s = (-beta - h) / alpha
    g = lp[:, None] * R

    F = np.empty(d + 3)
    F[:d] = (g * e[:, None]).sum(axis=0) / N - theta
    F[d] = u.sum() - 1.0
    F[d + 1] = _G_from_log(loge, lam).mean() - ball.eta
    F[d + 2] = e.mean() - 1.0
    if not want_jacobian:
        return F, None

    psi = np.exp((1.0 - lam) * loge) / ((lam + 1.0) * alpha)
    spsi = s * psi
    J = np.zeros((d + 3, d + 3))
    J[:d, :d] = -(R * (lpp * e)[:, None]).T @ R / N - (g * psi[:, None]).T @ g / N
    J[:d, d] = -(g * spsi[:, None]).sum(axis=0) / N
    J[:d, d + 1] = -(g * psi[:, None]).sum(axis=0) / N
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]
    J[d + 1, d] = -(s * spsi).mean()
    J[d + 1, d + 1] = -spsi.mean()
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -spsi.mean()
    J[d + 2, d + 1] = -psi.mean()
    return F, J


def eager_newton(z0, scenarios, ball, spec, config):
    out = eager_assemble(z0, scenarios, ball, spec)
    if out is None:
        return None
    z = z0.copy()
    F, J = out
    merit = 0.5 * float(F @ F)
    for it in range(config.max_iterations):
        if np.max(np.abs(F)) <= config.residual_tol:
            return z, F, it
        directions = []
        try:
            dz = np.linalg.solve(J, -F)
            if np.all(np.isfinite(dz)):
                directions.append(dz)
        except np.linalg.LinAlgError:
            pass
        JtJ = J.T @ J
        mu0 = 1e-10 * max(np.trace(JtJ), 1.0)
        for bump in (1.0, 1e4, 1e8):
            try:
                dz = np.linalg.solve(JtJ + mu0 * bump * np.eye(J.shape[0]), -J.T @ F)
                if np.all(np.isfinite(dz)):
                    directions.append(dz)
            except np.linalg.LinAlgError:
                continue
        moved = False
        for dz in directions:
            t = 1.0
            while t > 1e-14:
                trial = eager_assemble(z + t * dz, scenarios, ball, spec)
                if trial is not None:
                    F_new, J_new = trial
                    m_new = 0.5 * float(F_new @ F_new)
                    if m_new < merit:
                        z = z + t * dz
                        F, J, merit = F_new, J_new, m_new
                        moved = True
                        break
                t *= 0.5
            if moved:
                break
        if not moved:
            return None
    if np.max(np.abs(F)) <= config.residual_tol:
        return z, F, config.max_iterations
    return None


def eager_solve_robust(scenarios, ball, spec, config=None):
    config = config or SolverConfig()
    d = scenarios.d
    u0 = (np.full(d, 1.0 / d) if config.init_u is None
          else np.asarray(config.init_u, dtype=float))
    _check_degenerate(scenarios, spec, u0)
    z0 = np.concatenate([u0, [config.init_alpha, config.init_beta, config.init_theta]])
    while eager_assemble(z0, scenarios, ball, spec, want_jacobian=False) is None:
        z0[d] *= 2.0

    result = eager_newton(z0, scenarios, ball, spec, config)
    if result is None and config.warm_start_retry:
        try:
            u_w = solve_nonrobust(scenarios, spec)
            h, lp, _ = _payoff_terms(u_w, scenarios, spec)
            alpha_w, beta_w = _inner_tilt(h, ball.lam, ball.eta)
            e = np.exp(_log_estar(h, alpha_w, beta_w, ball.lam))
            g = lp[:, None] * scenarios.R
            theta_w = float(((g * e[:, None]).sum(axis=0) / scenarios.n).mean())
            z_w = np.concatenate([u_w, [alpha_w, beta_w, theta_w]])
            result = eager_newton(z_w, scenarios, ball, spec, config)
        except SolverError:
            result = None
    if result is None:
        raise NonConvergenceError("eager reference did not converge")

    z, F, iters = result
    u, alpha, beta, theta = z[:d], z[d], z[d + 1], z[d + 2]
    h, _, _ = _payoff_terms(u, scenarios, spec)
    estar = np.exp(_log_estar(h, alpha, beta, ball.lam))
    return RobustSolution(
        u=u, alpha=float(alpha), beta=float(beta), theta=float(theta),
        estar=estar, residual_norm=float(np.max(np.abs(F))), iterations=iters,
    )
