"""Robust and non-robust index-tracking solvers.

The robust portfolio solves a nonlinear system in (u, alpha, beta, theta):
the portfolio stationarity block, the budget constraint 1'u = 1, the
divergence constraint mean(G(E*)) = eta and the normalization mean(E*) = 1,
where the per-scenario worst-case likelihood ratio has the semi-closed form

    lam > 0:  E* = ( lam/(lam+1) * (-beta - H)/alpha + 1 )^(1/lam)
    lam = 0:  E* = exp( (-beta - H)/alpha )            (KL mode)

for the payoff H = -loss(B - R'u).  Expectations are empirical means over
the scenario set.  The solver is a damped Newton iteration on the full
system with a backtracking line search that rejects any step leaving
alpha <= 0 or making some E* base non-positive.

The line search does only the work its accept test needs.  A trial with
alpha <= 0 is rejected before any per-scenario work; any other trial
evaluates the residual alone (l and l').  l'' and the Jacobian are built
once per accepted iterate, from that trial's arrays, and the three
Levenberg-Marquardt fallback directions are formed only after the Newton
direction has failed.  Every value that feeds F, J or the accept test comes
from the same floating-point operations as in a full assembly at every
trial, so the iterates do not depend on this laziness.

Residual and Jacobian assembly reduce over scenarios with numpy's
deterministic pairwise summation, so repeated solves on the same scenario
set are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from .divergence import DivergenceBall
from .loss import LossSpec, loss_deriv1, loss_deriv2, loss_value
from .model import ScenarioSet

# exp() guard: iterates whose log E* exceeds this are treated as infeasible
# and force the line search to shorten.  Converged solutions with mean E* = 1
# sit far below it.
_LOG_CAP = 300.0


class SolverError(RuntimeError):
    """Base class for solver failures."""


class FeasibilityError(SolverError):
    """A point with alpha <= 0 or a non-positive E* base was evaluated."""


class DegenerateScenariosError(SolverError):
    """All scenarios give the same payoff; (alpha, beta) are underdetermined."""


class SingularSystemError(SolverError):
    """A linear subproblem (e.g. the least-squares KKT system) is singular."""


class NonConvergenceError(SolverError):
    """The Newton iteration did not reach the residual tolerance."""

    def __init__(self, message, residual_norm=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass
class SolverConfig:
    """Newton solver settings; the default multiplier start is
    (alpha, beta, theta) = (0.02, 0.01, -0.05) with uniform weights.

    Both step_control choices run the damped Newton path; the
    Levenberg-Marquardt regularization that kicks in on rejected steps is
    the trust-region-style safeguard.
    """

    init_u: Optional[np.ndarray] = None
    init_alpha: float = 0.02
    init_beta: float = 0.01
    init_theta: float = -0.05
    max_iterations: int = 200
    residual_tol: float = 1e-8
    step_control: str = "damped-newton"
    warm_start_retry: bool = True

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.step_control not in ("damped-newton", "trust-region"):
            raise ValueError(f"unknown step_control {self.step_control!r}")


@dataclass
class RobustSolution:
    """Converged robust portfolio with multipliers and diagnostics."""

    u: np.ndarray
    alpha: float
    beta: float
    theta: float
    estar: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool = True
    hessian_max_eig: Optional[float] = None

    def feasibility_margin(self, lam: float) -> float:
        """Positive iff beta/alpha < 1 + 1/lam (always satisfied for lam=0)."""
        if lam == 0.0:
            return np.inf
        return 1.0 + 1.0 / lam - self.beta / self.alpha


def _log_estar(h: np.ndarray, alpha: float, beta: float, lam: float):
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


def estar_value(h: float, alpha: float, beta: float, lam: float) -> float:
    """Scalar worst-case ratio E* for one payoff value.

    Raises FeasibilityError when alpha <= 0 or the power base is not positive.
    """
    loge = _log_estar(np.atleast_1d(float(h)), alpha, beta, lam)
    if loge is None:
        raise FeasibilityError(
            f"E* undefined at h={h}, alpha={alpha}, beta={beta}, lam={lam}"
        )
    return float(np.exp(loge[0]))


def _G_from_log(loge: np.ndarray, lam: float) -> np.ndarray:
    e = np.exp(loge)
    if lam == 0.0:
        return e * loge - e + 1.0
    return e * np.expm1(lam * loge) / lam - e + 1.0


def _payoff_terms(u, scenarios, spec):
    x = scenarios.B - scenarios.R @ u
    return -loss_value(spec, x), loss_deriv1(spec, x), loss_deriv2(spec, x)


def _residual(z, scenarios, ball, spec):
    """Residual of the full system at z = (u, alpha, beta, theta).

    Returns (F, arrays), where arrays holds the per-scenario terms that
    _jacobian reuses, or None when the point is infeasible (alpha <= 0,
    non-positive E* base, or E* overflow); the line search treats that as a
    rejected step.  Only l and l' are evaluated, and an alpha <= 0 point is
    rejected before any per-scenario work.
    """
    R, B = scenarios.R, scenarios.B
    N, d = R.shape
    u, alpha, beta, theta = z[:d], z[d], z[d + 1], z[d + 2]
    if alpha <= 0:
        return None
    x = B - R @ u
    h = -loss_value(spec, x)
    loge = _log_estar(h, alpha, beta, ball.lam)
    if loge is None:
        return None
    e = np.exp(loge)
    g = loss_deriv1(spec, x)[:, None] * R   # per-scenario payoff gradients dH/du

    F = np.empty(d + 3)
    F[:d] = (g * e[:, None]).sum(axis=0) / N - theta
    F[d] = u.sum() - 1.0
    F[d + 1] = _G_from_log(loge, ball.lam).mean() - ball.eta
    F[d + 2] = e.mean() - 1.0
    return F, (x, h, loge, e, g)


def _jacobian(z, arrays, scenarios, ball, spec):
    """Analytic Jacobian at z from the arrays that _residual returned there;
    l'' is the only loss kernel it runs."""
    R = scenarios.R
    N, d = R.shape
    alpha, beta = z[d], z[d + 1]
    lam = ball.lam
    x, h, loge, e, g = arrays
    lpp = loss_deriv2(spec, x)
    s = (-beta - h) / alpha            # equals G'(E*) at feasible points
    psi = np.exp((1.0 - lam) * loge) / ((lam + 1.0) * alpha)
    spsi = s * psi
    J = np.zeros((d + 3, d + 3))
    J[:d, :d] = -(R * (lpp * e)[:, None]).T @ R / N - (g * psi[:, None]).T @ g / N
    J[:d, d] = -(g * spsi[:, None]).sum(axis=0) / N
    J[:d, d + 1] = -(g * psi[:, None]).sum(axis=0) / N
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]            # symmetry of the mixed partials
    J[d + 1, d] = -(s * spsi).mean()
    J[d + 1, d + 1] = -spsi.mean()
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -spsi.mean()
    J[d + 2, d + 1] = -psi.mean()
    return J


def _assemble(z, scenarios, ball, spec):
    """(F, J) at z, or None when z is infeasible."""
    out = _residual(z, scenarios, ball, spec)
    if out is None:
        return None
    F, arrays = out
    return F, _jacobian(z, arrays, scenarios, ball, spec)


def system_residual(u, alpha, beta, theta, scenarios: ScenarioSet,
                    ball: DivergenceBall, spec: LossSpec) -> np.ndarray:
    """Residual vector [stationarity (d), budget, divergence, normalization]."""
    z = np.concatenate([np.asarray(u, dtype=float),
                        [float(alpha), float(beta), float(theta)]])
    out = _residual(z, scenarios, ball, spec)
    if out is None:
        raise FeasibilityError("infeasible point: alpha <= 0 or non-positive E* base")
    return out[0]


def system_jacobian(u, alpha, beta, theta, scenarios, ball, spec) -> np.ndarray:
    """Analytic Jacobian of system_residual (used by the Newton solver)."""
    z = np.concatenate([np.asarray(u, dtype=float),
                        [float(alpha), float(beta), float(theta)]])
    out = _assemble(z, scenarios, ball, spec)
    if out is None:
        raise FeasibilityError("infeasible point: alpha <= 0 or non-positive E* base")
    return out[1]


def _directions(J, F):
    """Search directions in the order the line search tries them: Newton,
    then Levenberg-Marquardt with rising damping.  Each is formed only when
    every earlier one has been rejected."""
    try:
        dz = np.linalg.solve(J, -F)
    except np.linalg.LinAlgError:
        dz = None
    if dz is not None and np.all(np.isfinite(dz)):
        yield dz
    JtJ = J.T @ J
    mu0 = 1e-10 * max(np.trace(JtJ), 1.0)
    for bump in (1.0, 1e4, 1e8):
        try:
            dz = np.linalg.solve(JtJ + mu0 * bump * np.eye(J.shape[0]), -J.T @ F)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(dz)):
            yield dz


def _line_search(z, dz, merit, scenarios, ball, spec):
    """Backtrack t = 1, 1/2, ... along dz until the merit 0.5|F|^2 drops.

    Trials evaluate the residual only; the Jacobian is built once, at the
    accepted point.  Returns (z, F, J) or None when t falls below 1e-14.
    """
    t = 1.0
    while t > 1e-14:
        z_t = z + t * dz
        trial = _residual(z_t, scenarios, ball, spec)
        if trial is not None:
            F_t, arrays = trial
            if 0.5 * float(F_t @ F_t) < merit:
                return z_t, F_t, _jacobian(z_t, arrays, scenarios, ball, spec)
            # release the rejected trial's arrays before the next trial
            trial = arrays = None
        t *= 0.5
    return None


def _newton(z0, scenarios, ball, spec, config):
    """Damped Newton with Levenberg-Marquardt fallback directions.

    Line-search trials compute the residual only (l and l'); l'' and the
    Jacobian are built once per accepted iterate, and the fallback
    directions only after the Newton direction has failed to lower the
    merit.  Returns (z, F, steps) for the last iterate and the number of
    Newton steps taken, whether or not F reached the tolerance, or None
    when z0 is infeasible.
    """
    out = _assemble(z0, scenarios, ball, spec)
    if out is None:
        return None
    z = z0.copy()
    F, J = out
    merit = 0.5 * float(F @ F)
    for it in range(config.max_iterations):
        if np.max(np.abs(F)) <= config.residual_tol:
            return z, F, it
        for dz in _directions(J, F):
            step = _line_search(z, dz, merit, scenarios, ball, spec)
            if step is not None:
                break
        else:
            return z, F, it            # no direction lowers the merit
        z, F, J = step
        merit = 0.5 * float(F @ F)
    return z, F, config.max_iterations


def _inner_tilt(h: np.ndarray, lam: float, eta: float):
    """Multipliers (alpha, beta) matching mean(E*) = 1 and mean(G(E*)) = eta
    for fixed payoffs, via nested scalar root finding.  Used as a warm start.
    """
    h = np.asarray(h, dtype=float)

    def beta_for(alpha):
        if lam == 0.0:
            # closed form: mean exp((-beta - h)/alpha) = 1
            return alpha * (logsumexp(-h / alpha) - np.log(h.size))
        c = lam / (lam + 1.0)

        def norm_gap(beta):
            loge = _log_estar(h, alpha, beta, lam)
            return np.exp(loge).mean() - 1.0 if loge is not None else np.inf

        hi = float((-h).min() + alpha / c)
        hi -= 1e-12 * max(1.0, abs(hi))
        if norm_gap(hi) > 0:
            return None                # tilt too strong for any admissible beta
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
        raise DegenerateScenariosError(
            "all scenarios give the same payoff; the divergence and "
            "normalization equations are underdetermined in (alpha, beta)"
        )


def solve_robust(scenarios: ScenarioSet, ball: DivergenceBall, spec: LossSpec,
                 config: Optional[SolverConfig] = None) -> RobustSolution:
    """Solve the robust tracking system on a scenario set.

    Requires eta > 0 (a zero radius collapses the ball; use solve_nonrobust)
    and at least d + 3 scenarios.  Raises NonConvergenceError with
    diagnostics when no point reaches the residual tolerance, and
    DegenerateScenariosError when every scenario has identical payoff.
    """
    config = config or SolverConfig()
    d = scenarios.d
    if ball.eta <= 0:
        raise ValueError("solve_robust requires eta > 0")
    if scenarios.n < d + 3:
        raise ValueError(f"need at least d+3={d+3} scenarios, got {scenarios.n}")

    u0 = (np.full(d, 1.0 / d) if config.init_u is None
          else np.asarray(config.init_u, dtype=float))
    _check_degenerate(scenarios, spec, u0)
    z0 = np.concatenate([u0, [config.init_alpha, config.init_beta, config.init_theta]])

    # the default multiplier start can be infeasible for strong tilts; a
    # larger alpha only flattens the initial E*
    tries = 0
    while _residual(z0, scenarios, ball, spec) is None:
        z0[d] *= 2.0
        tries += 1
        if tries > 80:
            raise FeasibilityError("no feasible starting alpha found")

    tol = config.residual_tol
    result = _newton(z0, scenarios, ball, spec, config)   # z0 is feasible
    steps = result[2]

    if np.max(np.abs(result[1])) > tol and config.warm_start_retry:
        try:
            u_w = solve_nonrobust(scenarios, spec)
            h, lp, _ = _payoff_terms(u_w, scenarios, spec)
            alpha_w, beta_w = _inner_tilt(h, ball.lam, ball.eta)
            loge = _log_estar(h, alpha_w, beta_w, ball.lam)
            e = np.exp(loge)
            g = lp[:, None] * scenarios.R
            theta_w = float(((g * e[:, None]).sum(axis=0) / scenarios.n).mean())
            z_w = np.concatenate([u_w, [alpha_w, beta_w, theta_w]])
            retry = _newton(z_w, scenarios, ball, spec, config)
        except SolverError:
            retry = None
        if retry is not None:
            steps += retry[2]
            if (np.max(np.abs(retry[1])) <= tol
                    or float(retry[1] @ retry[1]) < float(result[1] @ result[1])):
                result = retry

    if np.max(np.abs(result[1])) > tol:
        # report the best iterate (lowest merit) of either attempt
        raise NonConvergenceError(
            f"robust solve did not reach residual tolerance {config.residual_tol}",
            residual_norm=float(np.max(np.abs(result[1]))), iterations=steps,
        )

    z, F, iters = result
    u, alpha, beta, theta = z[:d], z[d], z[d + 1], z[d + 2]
    h, _, _ = _payoff_terms(u, scenarios, spec)
    estar = np.exp(_log_estar(h, alpha, beta, ball.lam))
    return RobustSolution(
        u=u, alpha=float(alpha), beta=float(beta), theta=float(theta),
        estar=estar, residual_norm=float(np.max(np.abs(F))), iterations=iters,
    )


def solve_nonrobust(scenarios: ScenarioSet, spec: LossSpec) -> np.ndarray:
    """Minimize the empirical mean loss subject to 1'u = 1.

    The quadratic case is the exact KKT linear solve; smoothed losses run an
    equality-constrained Newton method started from the quadratic solution.
    """
    R, B = scenarios.R, scenarios.B
    N, d = R.shape
    if N < d:
        raise ValueError(f"need at least d={d} scenarios, got {N}")

    def quad_kkt():
        A = np.zeros((d + 1, d + 1))
        A[:d, :d] = 2.0 * R.T @ R / N
        A[:d, d] = 1.0
        A[d, :d] = 1.0
        rhs = np.concatenate([2.0 * R.T @ B / N, [1.0]])
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("singular tracking KKT system") from exc
        if not np.all(np.isfinite(sol)) or np.max(np.abs(A @ sol - rhs)) > 1e-6:
            raise SingularSystemError("singular tracking KKT system")
        return sol[:d]

    u = quad_kkt()
    if spec.kind == "quadratic":
        return u

    # equality-constrained Newton on mean l(B - R'u)
    for _ in range(100):
        x = B - R @ u
        grad = -(loss_deriv1(spec, x)[:, None] * R).sum(axis=0) / N
        reduced = grad - grad.mean()
        if np.max(np.abs(reduced)) <= 1e-11 * max(1.0, np.max(np.abs(grad))):
            break
        H = (R * loss_deriv2(spec, x)[:, None]).T @ R / N
        K = np.zeros((d + 1, d + 1))
        K[:d, :d] = H + 1e-14 * np.trace(H) * np.eye(d)
        K[:d, d] = 1.0
        K[d, :d] = 1.0
        rhs = np.concatenate([-grad, [0.0]])
        try:
            step = np.linalg.solve(K, rhs)[:d]
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("singular Newton KKT system") from exc
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


def hessian_diagnostic(solution: RobustSolution, scenarios: ScenarioSet,
                       ball: DivergenceBall, spec: LossSpec) -> float:
    """Largest eigenvalue of the outer-Lagrangian Hessian in u.

    Hess = mean( -l''(x) R R' E* ) - (1/(alpha (1+lam))) mean( (E*)^(1-lam) g g' );
    both terms are negative semi-definite for alpha > 0, so the result should
    not exceed roundoff times the problem scale.  The value is also stored on
    the solution.
    """
    R = scenarios.R
    N, d = R.shape
    lam = ball.lam
    u, alpha = solution.u, solution.alpha
    x = scenarios.B - R @ u
    lp = loss_deriv1(spec, x)
    lpp = loss_deriv2(spec, x)
    e = solution.estar
    g = lp[:, None] * R
    weight = np.exp((1.0 - lam) * np.log(e))
    hess = (-(R * (lpp * e)[:, None]).T @ R / N
            - (g * weight[:, None]).T @ g / (N * alpha * (1.0 + lam)))
    max_eig = float(np.linalg.eigvalsh(hess)[-1])
    solution.hessian_max_eig = max_eig
    return max_eig
