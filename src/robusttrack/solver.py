"""Robust and non-robust index-tracking solvers.

The robust portfolio minimizes, on the plane 1'u = 1, the worst-case loss

    rho(u) = max mean(E l)  over E >= 0 with mean(E) = 1 and mean(G(E)) <= eta

for the per-scenario losses l = loss(B - R'u).  By phi-divergence duality
(Ben-Tal et al., Management Science 59(2), 2013) rho(u) is the minimum over
alpha > 0 and beta of the convex dual objective

    Phi(u, alpha, beta) = alpha eta + beta + alpha mean(G*(s)),  s = (l - beta)/alpha,

with G* the conjugate of G over E >= 0.  With c = lam/(lam+1) and
base = max(1 + c s, 0) = E*^lam, the worst-case ratio E* = G*'(s) is

    lam > 0:  E* = base^(1/lam),  E*^(1-lam) = E*/base  (0 where base = 0)
    lam = 0:  E* = exp(s) = E*^(1-lam)           (KL mode, c = 0)

so it is zero on scenarios whose loss lies far enough below beta.  In both
modes, E* = 0 included, G(E*) = E* s/(lam+1) - E* + 1 and
G*(s) = E* (1 + c s) - 1, so a pass over the scenarios takes one power and
no logarithm.  The paper's system in (u, alpha, beta, theta) is the KKT
system of this problem, and its Jacobian J is the bordered Hessian of Phi.

solve_robust is Newton's method on rho.  At every point (alpha, beta)
minimize Phi exactly for the current losses: beta by a monotone root (a
closed form for lam = 0), alpha by safeguarded Newton on the convex function
alpha -> Phi(alpha, beta(alpha)).  The bordered solve J dz = -F gives the
equality-constrained Newton step in u, which an Armijo search on rho
accepts.  Trials evaluate l only; l' and l'' run once per accepted point.

Where the losses can be made all equal (an index the tracked assets
replicate) the optimum has alpha = 0 and no KKT point exists.  The solve
raises DegenerateScenariosError as soon as a trial's loss spread falls below
sqrt(eps) times the start point's, where the (alpha, beta) block of J turns
singular to working precision.  Repeated solves at a fixed BLAS thread
count are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from .divergence import DivergenceBall
from .loss import LossSpec, loss_deriv1, loss_deriv2, loss_value
from .model import ScenarioSet

# steps allowed to each scalar root of the inner (alpha, beta) solve
_INNER_STEPS = 100
# a trial whose loss spread falls below this share of the start point's
# spread is taken as the alpha -> 0 collapse
_COLLAPSE = np.sqrt(np.finfo(float).eps)


class SolverError(RuntimeError):
    """Base class for solver failures."""


class FeasibilityError(SolverError):
    """A point with alpha <= 0 was evaluated."""


class DegenerateScenariosError(SolverError):
    """The losses are, or can be made, all equal: alpha collapses to 0."""


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
    """Newton solver settings: the starting portfolio (uniform weights by
    default; (alpha, beta) need no start, they are solved exactly for its
    losses), the Newton step limit and the tolerance on the largest KKT
    residual."""

    init_u: Optional[np.ndarray] = None
    max_iterations: int = 200
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")


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

    def feasibility_margin(self, lam: float) -> float:
        """Positive iff beta/alpha < 1 + 1/lam, i.e. a zero-loss scenario
        keeps E* > 0 (always satisfied for lam=0)."""
        if lam == 0.0:
            return np.inf
        return 1.0 + 1.0 / lam - self.beta / self.alpha


def _estar(L, lam, alpha, beta):
    """The pass (s, E*, E*^(1-lam)) over losses L, s = (L - beta)/alpha."""
    s = (L - beta) / alpha
    if lam == 0.0:
        e = np.exp(s)
        return s, e, e
    base = np.maximum(1.0 + lam / (lam + 1.0) * s, 0.0)
    e = base ** (1.0 / lam)
    # where base is 0, E* is 0 too, and the quotient by the tiny floor is 0
    return s, e, e / np.maximum(base, np.finfo(float).smallest_subnormal)


def _beta(L, lam, alpha, beta):
    """beta with mean(E*) = 1 for losses L at alpha, and its _estar pass.

    For lam > 0 this is Newton on (mean E*)^lam - 1, an L^(1/lam) norm of
    affine functions of beta minus one: convex and decreasing, so after the
    first step the iterates rise monotonically to the root.
    """
    top = L.max()
    if lam == 0.0:
        beta = top + alpha * (logsumexp((L - top) / alpha) - np.log(L.size))
        return beta, _estar(L, lam, alpha, beta)
    c = lam / (lam + 1.0)
    # every root lies right of floor, where the largest E* is exp(300)
    floor = top - alpha * np.expm1(300.0 * lam) / c
    beta = min(max(beta, floor), top)       # some E* >= 1 at the start
    for _ in range(_INNER_STEPS):
        _, e, w = p = _estar(L, lam, alpha, beta)
        m = e.mean()
        step = (np.expm1(lam * np.log(m)) / lam * (lam + 1.0) * alpha
                * m ** (1.0 - lam) / w.mean())
        # a step within one spacing of beta can only step to a neighbour
        if abs(step) <= max(1e-13 * alpha, np.spacing(abs(beta))):
            return beta, p
        beta = max(beta + step, floor)
    raise NonConvergenceError("beta root did not converge")


def _dual(L, ball, alpha=None, beta=None):
    """(alpha, beta, _estar pass) minimizing Phi for fixed losses L, by
    safeguarded Newton in alpha started at alpha (and beta).

    The default start is the small-ball estimate: for small eta,
    mean G(E*) ~ var(l)/(2 alpha^2 (lam+1)), and beta ~ mean(l).
    """
    lam, eta = ball.lam, ball.eta
    if alpha is None:
        alpha = float(L.std()) / np.sqrt(2.0 * eta * (lam + 1.0))
        beta = float(L.mean())
    lo, hi = 0.0, np.inf
    for _ in range(_INNER_STEPS):
        beta, p = _beta(L, lam, alpha, beta)
        s, e, w = p
        slope = eta - (e * s / (lam + 1.0) - e + 1.0).mean()
        if slope == 0.0:
            return alpha, beta, p
        if slope > 0.0:
            hi = alpha
        else:
            lo = alpha
        m0, m1, m2 = w.mean(), (w * s).mean(), (w * s * s).mean()
        curv = (m2 - m1 * m1 / m0) / ((lam + 1.0) * alpha)
        new = alpha - slope / curv if curv > 0.0 else np.nan
        if abs(new - alpha) <= 1e-12 * alpha or hi - lo <= 1e-12 * alpha:
            return alpha, beta, p
        if not lo < new < hi:
            new = 4.0 * alpha if hi == np.inf else alpha / 4.0 if lo == 0.0 \
                else 0.5 * (lo + hi)
        alpha = new
    raise NonConvergenceError("alpha search did not converge")


def _phi(alpha, beta, p, ball):
    """Phi(alpha, beta) = alpha eta + beta + alpha mean(G*(s)), with
    G*(s) = E* (1 + c s) - 1."""
    s, e, _ = p
    c = ball.lam / (ball.lam + 1.0)
    return alpha * ball.eta + beta + alpha * (e * (1.0 + c * s) - 1.0).mean()


def _kkt(u, alpha, x, p, scenarios, ball, spec):
    """Residual F, at theta = 0, and Jacobian J of the system at (u, alpha,
    beta), for the shortfall x = B - R'u and the _estar pass p at
    (alpha, beta).  J does not depend on theta."""
    R = scenarios.R
    N, d = R.shape
    lam = ball.lam
    s, e, w = p
    lp = loss_deriv1(spec, x)
    lpp = loss_deriv2(spec, x)
    psi = w / ((lam + 1.0) * alpha)
    spsi = s * psi

    F = np.empty(d + 3)
    F[:d] = R.T @ (lp * e) / N
    F[d] = u.sum() - 1.0
    F[d + 1] = (e * s / (lam + 1.0) - e + 1.0).mean() - ball.eta
    F[d + 2] = e.mean() - 1.0

    J = np.zeros((d + 3, d + 3))
    J[:d, :d] = -(R * (lpp * e + lp * lp * psi)[:, None]).T @ R / N
    J[:d, d:d + 2] = -(R.T @ np.column_stack([lp * spsi, lp * psi])) / N
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]            # symmetry of the mixed partials
    J[d + 1, d] = -(s * spsi).mean()
    J[d + 1, d + 1] = -spsi.mean()
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -spsi.mean()
    J[d + 2, d + 1] = -psi.mean()
    return F, J


def _system(u, alpha, beta, theta, scenarios, ball, spec):
    if alpha <= 0:
        raise FeasibilityError("infeasible point: alpha <= 0")
    u, alpha, beta = np.asarray(u, dtype=float), float(alpha), float(beta)
    x = scenarios.B - scenarios.R @ u
    p = _estar(loss_value(spec, x), ball.lam, alpha, beta)
    F, J = _kkt(u, alpha, x, p, scenarios, ball, spec)
    F[:scenarios.d] -= float(theta)
    return F, J


def system_residual(u, alpha, beta, theta, scenarios: ScenarioSet,
                    ball: DivergenceBall, spec: LossSpec) -> np.ndarray:
    """Residual vector [stationarity (d), budget, divergence, normalization]."""
    return _system(u, alpha, beta, theta, scenarios, ball, spec)[0]


def system_jacobian(u, alpha, beta, theta, scenarios, ball, spec) -> np.ndarray:
    """Analytic Jacobian of system_residual (used by the Newton solver)."""
    return _system(u, alpha, beta, theta, scenarios, ball, spec)[1]


def solve_robust(scenarios: ScenarioSet, ball: DivergenceBall, spec: LossSpec,
                 config: Optional[SolverConfig] = None) -> RobustSolution:
    """Minimize the worst-case loss over the ball on a scenario set.

    Requires eta > 0 (a zero radius collapses the ball; use solve_nonrobust)
    and at least d + 3 scenarios.  Raises DegenerateScenariosError when the
    losses are, or approach being, all equal (alpha collapses to 0), and
    NonConvergenceError with the smallest residual reached and the Newton
    steps taken when the residual tolerance is not met.
    """
    config = config or SolverConfig()
    R, B = scenarios.R, scenarios.B
    d = scenarios.d
    if ball.eta <= 0:
        raise ValueError("solve_robust requires eta > 0")
    if scenarios.n < d + 3:
        raise ValueError(f"need at least d+3={d+3} scenarios, got {scenarios.n}")

    u = (np.full(d, 1.0 / d) if config.init_u is None
         else np.asarray(config.init_u, dtype=float))
    x = B - R @ u
    L = loss_value(spec, x)
    spread0 = spread = float(L.max() - L.min())
    if spread0 <= 1e-14 * max(1.0, float(np.abs(L).max())):
        raise DegenerateScenariosError(
            "all scenarios give the same payoff; the divergence and "
            "normalization equations are underdetermined in (alpha, beta)")
    alpha, beta, p = _dual(L, ball)
    phi = _phi(alpha, beta, p, ball)

    best = np.inf
    for it in range(config.max_iterations + 1):
        F, J = _kkt(u, alpha, x, p, scenarios, ball, spec)
        theta = float(F[:d].mean())
        F[:d] -= theta
        res = float(np.max(np.abs(F)))
        if res <= config.residual_tol:
            return RobustSolution(u=u, alpha=float(alpha), beta=float(beta),
                                  theta=theta, estar=p[1], residual_norm=res,
                                  iterations=it)
        best = min(best, res)
        if it == config.max_iterations:
            break
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("singular Newton system") from exc
        du, da, db = dz[:d], dz[d], dz[d + 1]
        slope = -float(F[:d] @ du)     # directional derivative of rho
        t = 1.0
        while True:
            u_t = u + t * du
            x_t = B - R @ u_t
            L_t = loss_value(spec, x_t)
            spread_t = float(L_t.max() - L_t.min())
            if spread_t < _COLLAPSE * spread0:
                raise DegenerateScenariosError(
                    "alpha collapse: the losses approach equality (the index is "
                    "replicable), so the worst case degenerates to alpha = 0")
            # warm start from the Newton step's multipliers; where that
            # alpha is not positive, scale the current one with the spread
            a_t = alpha + t * da
            start = ((a_t, beta + t * db) if a_t > 0
                     else (alpha * spread_t / spread, beta))
            a_t, b_t, p_t = _dual(L_t, ball, *start)
            phi_t = _phi(a_t, b_t, p_t, ball)
            if phi_t <= phi + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:
                raise NonConvergenceError(
                    f"robust solve stalled above residual tolerance "
                    f"{config.residual_tol}", residual_norm=best, iterations=it)
        u, x, alpha, beta, p, phi = u_t, x_t, a_t, b_t, p_t, phi_t
        spread = spread_t
    raise NonConvergenceError(
        f"robust solve did not reach residual tolerance {config.residual_tol}",
        residual_norm=best, iterations=config.max_iterations,
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

    # equality-constrained Newton on mean l(B - R'u), from each accepted trial
    x = B - R @ u
    f0 = loss_value(spec, x).mean()
    for _ in range(100):
        grad = -(R.T @ loss_deriv1(spec, x)) / N
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
        t = 1.0
        while t > 1e-14:
            x_t = B - R @ (u + t * step)
            f_new = loss_value(spec, x_t).mean()
            if f_new < f0:
                break
            t *= 0.5
        else:
            break
        u, x, f0 = u + t * step, x_t, f_new
    return u


def hessian_diagnostic(solution: RobustSolution, scenarios: ScenarioSet,
                       ball: DivergenceBall, spec: LossSpec) -> float:
    """Largest eigenvalue of the outer-Lagrangian Hessian in u.

    Hess = mean( -l''(x) R R' E* ) - (1/(alpha (1+lam))) mean( (E*)^(1-lam) g g' ),
    with (E*)^(1-lam) taken as 0 where E* = 0: the u-block of the system
    Jacobian at the solution's E*.  Both terms are negative semi-definite
    for alpha > 0, so the result should not exceed roundoff times the
    problem scale.
    """
    x = scenarios.B - scenarios.R @ solution.u
    e = solution.estar
    s = (loss_value(spec, x) - solution.beta) / solution.alpha
    w = np.power(e, 1.0 - ball.lam, out=np.zeros_like(e), where=e > 0.0)
    J = _kkt(solution.u, solution.alpha, x, (s, e, w), scenarios, ball, spec)[1]
    d = scenarios.d
    return float(np.linalg.eigvalsh(J[:d, :d])[-1])
