"""Frozen reference of the damped-Newton robust solver that the dual Newton
solver replaced.

Every trial point runs the full assembly (l, l', l'', residual and
Jacobian), all four search directions (Newton, then Levenberg-Marquardt
with rising damping) are formed before the first trial, the line search
lowers the residual merit 0.5|F|^2, and a failed first attempt is retried
from the non-robust weights with (alpha, beta) from nested scalar roots.
E* uses the power form, which rejects a non-positive base as infeasible.
The helpers it needs are copied here, so the reference does not depend on
the solver it is compared with; see tests/test_solver.py::TestLazyNewton.
It reads a row-major copy of R, the layout it was frozen with: in the
column-major layout of ScenarioSet the sums run in another order, and on
window 2 of the replicable panel its Levenberg-Marquardt steps then stall.

recomputing_solve_nonrobust is the non-robust Newton loop as it was before
each step reused its accepted line-search trial: it forms the shortfall and
the mean loss again at the top of every step.

frozen_loss_value, frozen_loss_deriv1, frozen_loss_deriv2 and frozen_estar
are the loss kernels and the worst-case pass as closed-form expressions, one
temporary array per operation, as they were before they worked in place;
the in-place forms must give their results bit for bit.
"""

from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp, ndtr

from robusttrack.loss import LossSpec, loss_deriv1, loss_deriv2, loss_value
from robusttrack.solver import (DegenerateScenariosError, NonConvergenceError,
                                RobustSolution, SolverConfig, SolverError,
                                solve_nonrobust)

# the parent solver's multiplier start (alpha, beta, theta)
INIT_MULTIPLIERS = (0.02, 0.01, -0.05)
# exp() guard: iterates whose log E* exceeds this are infeasible
_LOG_CAP = 300.0


def _log_estar(h, alpha, beta, lam):
    """log E* per scenario, or None if the point is infeasible."""
    if alpha <= 0:
        return None
    s = (-beta - h) / alpha
    if lam == 0.0:
        loge = s
    else:
        c = lam / (lam + 1.0)
        base = 1.0 + c * s
        if np.any(base <= 0.0):
            return None
        loge = np.log1p(c * s) / lam
    if np.max(loge) > _LOG_CAP:
        return None
    return loge


def _G_from_log(loge, lam):
    e = np.exp(loge)
    if lam == 0.0:
        return e * loge - e + 1.0
    return e * np.expm1(lam * loge) / lam - e + 1.0


def _payoff_terms(u, scenarios, spec):
    x = scenarios.B - scenarios.R @ u
    return -loss_value(spec, x), loss_deriv1(spec, x), loss_deriv2(spec, x)


def _inner_tilt(h, lam, eta):
    """(alpha, beta) matching mean(E*) = 1 and mean(G(E*)) = eta for fixed
    payoffs, via nested scalar root finding."""
    h = np.asarray(h, dtype=float)

    def beta_for(alpha):
        if lam == 0.0:
            return alpha * (logsumexp(-h / alpha) - np.log(h.size))
        c = lam / (lam + 1.0)

        def norm_gap(beta):
            loge = _log_estar(h, alpha, beta, lam)
            return np.exp(loge).mean() - 1.0 if loge is not None else np.inf

        hi = float((-h).min() + alpha / c)
        hi -= 1e-12 * max(1.0, abs(hi))
        if norm_gap(hi) > 0:
            return None
        lo = -1.0
        while norm_gap(lo) < 0:
            lo *= 2.0
            if lo < -1e14:
                return None
        return brentq(norm_gap, lo, hi, xtol=1e-15, maxiter=300)

    def div_gap(alpha):
        beta = beta_for(alpha)
        if beta is None:
            return np.inf
        loge = _log_estar(h, alpha, beta, lam)
        if loge is None:
            return np.inf
        return _G_from_log(loge, lam).mean() - eta

    hi = 1.0
    while div_gap(hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise SolverError("inner tilt: no alpha bracket found")
    lo = hi / 2.0
    gap = div_gap(lo)
    for _ in range(200):
        if np.isfinite(gap) and gap >= 0:
            break
        if not np.isfinite(gap):
            lo = 0.5 * (lo + hi)
        else:
            hi, lo = lo, lo / 2.0
        gap = div_gap(lo)
    else:
        raise SolverError("inner tilt: alpha bracketing failed")
    alpha = brentq(div_gap, lo, hi, xtol=1e-15, maxiter=300)
    beta = beta_for(alpha)
    if beta is None:
        raise SolverError("inner tilt: beta solve failed at bracketed alpha")
    return alpha, beta


def _check_degenerate(scenarios, spec, u):
    h, _, _ = _payoff_terms(u, scenarios, spec)
    spread = float(h.max() - h.min())
    if spread <= 1e-14 * max(1.0, float(np.abs(h).max())):
        raise DegenerateScenariosError("all scenarios give the same payoff")


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
    scenarios = SimpleNamespace(R=np.ascontiguousarray(scenarios.R), B=scenarios.B,
                                n=scenarios.n, d=scenarios.d)
    d = scenarios.d
    u0 = np.full(d, 1.0 / d)
    _check_degenerate(scenarios, spec, u0)
    z0 = np.concatenate([u0, INIT_MULTIPLIERS])
    while eager_assemble(z0, scenarios, ball, spec, want_jacobian=False) is None:
        z0[d] *= 2.0

    result = eager_newton(z0, scenarios, ball, spec, config)
    if result is None:
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


def recomputing_solve_nonrobust(scenarios, spec):
    R, B = scenarios.R, scenarios.B
    N, d = R.shape
    u = solve_nonrobust(scenarios, LossSpec.quadratic())
    for _ in range(100):
        x = B - R @ u
        grad = -(R.T @ loss_deriv1(spec, x)) / N
        reduced = grad - grad.mean()
        if np.max(np.abs(reduced)) <= 1e-11 * max(1.0, np.max(np.abs(grad))):
            break
        H = (R * loss_deriv2(spec, x)[:, None]).T @ R / N
        K = np.zeros((d + 1, d + 1))
        K[:d, :d] = H + 1e-14 * np.trace(H) * np.eye(d)
        K[:d, d] = 1.0
        K[d, :d] = 1.0
        step = np.linalg.solve(K, np.concatenate([-grad, [0.0]]))[:d]
        f0 = loss_value(spec, x).mean()
        t = 1.0
        while t > 1e-14:
            f_new = loss_value(spec, B - R @ (u + t * step)).mean()
            if f_new < f0:
                break
            t *= 0.5
        else:
            break
        u = u + t * step
    return u


def _frozen_phi(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def frozen_loss_value(spec, x):
    x = np.asarray(x, dtype=float)
    if spec.kind == "quadratic":
        out = x * x
    elif spec.kind == "smoothed_pos_sq":
        t = x / spec.epsilon
        out = np.maximum((x * x + spec.epsilon**2) * ndtr(t)
                         + x * spec.epsilon * _frozen_phi(t), 0.0)
    else:
        t = np.abs(x) / spec.epsilon
        out = np.maximum(x, 0.0) + spec.epsilon * np.log1p(np.exp(-t))
    return float(out) if out.ndim == 0 else out


def frozen_loss_deriv1(spec, x):
    x = np.asarray(x, dtype=float)
    if spec.kind == "quadratic":
        out = 2.0 * x
    elif spec.kind == "smoothed_pos_sq":
        t = x / spec.epsilon
        out = np.maximum(2.0 * x * ndtr(t) + 2.0 * spec.epsilon * _frozen_phi(t), 0.0)
    else:
        t = x / spec.epsilon
        out = np.where(t >= 0, 1.0 / (1.0 + np.exp(-np.abs(t))),
                       np.exp(-np.abs(t)) / (1.0 + np.exp(-np.abs(t))))
    return float(out) if out.ndim == 0 else out


def frozen_loss_deriv2(spec, x):
    x = np.asarray(x, dtype=float)
    if spec.kind == "quadratic":
        out = np.full_like(x, 2.0)
    elif spec.kind == "smoothed_pos_sq":
        out = 2.0 * ndtr(x / spec.epsilon)
    else:
        w = np.exp(-np.abs(x) / spec.epsilon)
        out = w / (spec.epsilon * np.square(1.0 + w))
    return float(out) if out.ndim == 0 else out


def frozen_estar(L, lam, alpha, beta):
    s = (L - beta) / alpha
    if lam == 0.0:
        e = np.exp(s)
        return s, e, e
    base = np.maximum(1.0 + lam / (lam + 1.0) * s, 0.0)
    e = base ** (1.0 / lam)
    return s, e, e / np.maximum(base, np.finfo(float).smallest_subnormal)
