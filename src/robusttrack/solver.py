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
alpha -> Phi(alpha, beta(alpha)), each beta root started on the tangent
line of beta(alpha).  The cold start at the first point solves a strided
subsample of the losses first (N >= 65,536), then starts the full solve
at its (alpha, beta).  The bordered solve J dz = -F gives the
equality-constrained Newton step in u, which an Armijo search on rho
accepts.  Trials evaluate l only; l' and l'' run once per accepted point.

Where the losses can be made all equal (an index the tracked assets
replicate) the optimum has alpha = 0 and no KKT point exists.  The solve
raises DegenerateScenariosError as soon as a trial's loss spread falls below
sqrt(eps) times the start point's, where the (alpha, beta) block of J turns
singular to working precision.  Repeated solves at a fixed BLAS thread
count are bitwise identical.

Each pass over the N scenarios streams its arrays once.  The pass _estar
and the loss kernels write in place into arrays of their own, R is stored
column-major (see ScenarioSet), and the (alpha, beta) block reads one set
of moments of the pass, mean E* and mk = mean(E*^(1-lam) s^k) for k = 0, 1, 2:
the inner solve's slope and curvature, since mean(E* s) = m1 + c m2, and
the scalar entries of J.  The divergence residual mean G(E*) is summed term
by term, which rounds finer than that moment form.

solve_nonrobust is equality-constrained Newton on mean(l) from the quadratic
loss's KKT point, where a quadratic loss stops; that point and each step are
one bordered solve [[M, 1], [1', 0]] [x; nu] = [top; bottom] (Boyd and
Vandenberghe, Convex Optimization, 10.2).
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
# the inner solve over N >= _STRIDE * _COARSE_MIN losses starts at the
# solution for every _STRIDE-th loss
_STRIDE = 64
_COARSE_MIN = 1024
_TINY = np.finfo(float).smallest_subnormal


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
    """Newton solver settings: the step limit and the tolerance on the
    largest KKT residual.  Every solve starts at u = 1/d, where (alpha, beta)
    are solved exactly for its losses."""

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
    """The pass (s, E*, E*^(1-lam)) over losses L, s = (L - beta)/alpha, in
    three arrays of the size of L."""
    s = np.subtract(L, beta)
    s /= alpha
    if lam == 0.0:
        e = np.exp(s)
        return s, e, e
    base = np.multiply(lam / (lam + 1.0), s)
    base += 1.0
    np.maximum(base, 0.0, out=base)
    e = base ** (1.0 / lam)
    # where base is 0, E* is 0 too, and the quotient by the tiny floor is 0
    np.maximum(base, _TINY, out=base)
    return s, e, np.divide(e, base, out=base)


def _mean_G(p, lam):
    """mean G(E*) = mean(E* s/(lam+1) - E* + 1) of the _estar pass p, summed
    term by term.  The moment form (m1 + c m2)/(lam+1) - mean E* + 1 takes
    the difference of two means of size 1 and rounds several times coarser,
    too coarse for a finite-difference check of J's divergence row."""
    s, e, _ = p
    g = e * s
    g /= lam + 1.0
    g -= e
    g += 1.0
    return g.mean()


def _moments(p):
    """(mean E*, m0, m1, m2) of the _estar pass p, mk = mean(E*^(1-lam) s^k).
    As E* = E*^(1-lam) (1 + c s), mean(E* s) = m1 + c m2."""
    s, e, w = p
    ws = w * s
    m1 = ws.mean()
    ws *= s
    return e.mean(), w.mean(), m1, ws.mean()


def _beta(L, lam, alpha, beta):
    """beta with mean(E*) = 1 for losses L at alpha, and its _estar pass.

    For lam > 0 this is Newton on (mean E*)^lam - 1, which decreases in
    beta.  For lam <= 1 it is an L^(1/lam) norm of affine functions of beta
    minus one, hence convex, so after the first step the iterates rise
    monotonically to the root.  For lam > 1 it is not convex, and a step
    that leaves the sign bracket [lo, hi] of the root bisects it instead.
    """
    top = L.max()
    if lam == 0.0:
        beta = top + alpha * (logsumexp((L - top) / alpha) - np.log(L.size))
        return beta, _estar(L, lam, alpha, beta)
    c = lam / (lam + 1.0)
    # mean E* <= 1 at hi, where the largest E* is 1, and mean E* >= 1 at lo,
    # where it is exp(min(300, 700/lam)) (>= N while lam <= 700/log N)
    lo, hi = top - alpha * np.expm1(min(300.0 * lam, 700.0)) / c, top
    beta = min(max(beta, lo), hi)
    for _ in range(_INNER_STEPS):
        _, e, w = p = _estar(L, lam, alpha, beta)
        m = e.mean()
        step = (np.expm1(lam * np.log(m)) / lam * (lam + 1.0) * alpha
                * m ** (1.0 - lam) / w.mean())
        # a step within one spacing of beta can only step to a neighbour
        if abs(step) <= max(1e-13 * alpha, np.spacing(abs(beta))):
            return beta, p
        if m >= 1.0:
            lo = beta
        else:
            hi = beta
        beta = beta + step if lo < beta + step < hi else 0.5 * (lo + hi)
    raise NonConvergenceError("beta root did not converge")


def _dual(L, ball, alpha=None, beta=None):
    """(alpha, beta, _estar pass) minimizing Phi for fixed losses L, by
    safeguarded Newton in alpha started at alpha (and beta).  After each
    alpha step beta moves along the tangent of the curve mean E* = 1,
    dbeta/dalpha = -m1/m0 with m0 = mean E*^(1-lam) and
    m1 = mean E*^(1-lam) s, so the next beta root starts close to it.

    The default start, from N >= _STRIDE * _COARSE_MIN losses, is this
    minimizer for every _STRIDE-th loss, found the same way.  Below that
    size, where the subsample's losses are all equal, or where a solve from
    its start fails, it is the small-ball estimate: for small eta,
    mean G(E*) ~ var(l)/(2 alpha^2 (lam+1)), and beta ~ mean(l).
    """
    if alpha is None and L.size >= _STRIDE * _COARSE_MIN:
        sub = L[::_STRIDE]
        if sub.max() > sub.min():
            try:
                return _dual(L, ball, *_dual(sub, ball)[:2])
            except NonConvergenceError:
                pass
    lam, eta = ball.lam, ball.eta
    c = lam / (lam + 1.0)
    if alpha is None:
        alpha = float(L.std()) / np.sqrt(2.0 * eta * (lam + 1.0))
        beta = float(L.mean())
    lo, hi = 0.0, np.inf
    for _ in range(_INNER_STEPS):
        beta, p = _beta(L, lam, alpha, beta)
        me, m0, m1, m2 = _moments(p)
        # d Phi / d alpha = eta - mean G(E*)
        slope = eta - ((m1 + c * m2) / (lam + 1.0) - me + 1.0)
        if slope == 0.0:
            return alpha, beta, p
        if slope > 0.0:
            hi = alpha
        else:
            lo = alpha
        curv = (m2 - m1 * m1 / m0) / ((lam + 1.0) * alpha)
        new = alpha - slope / curv if curv > 0.0 else np.nan
        if abs(new - alpha) <= 1e-12 * alpha or hi - lo <= 1e-12 * alpha:
            return alpha, beta, p
        if not lo < new < hi:
            new = 4.0 * alpha if hi == np.inf else alpha / 4.0 if lo == 0.0 \
                else 0.5 * (lo + hi)
        beta -= m1 / m0 * (new - alpha)
        alpha = new
    raise NonConvergenceError("alpha search did not converge")


def _phi(alpha, beta, p, ball):
    """Phi(alpha, beta) = alpha eta + beta + alpha mean(G*(s)), with
    G*(s) = E* (1 + c s) - 1."""
    s, e, _ = p
    g = np.multiply(ball.lam / (ball.lam + 1.0), s)
    g += 1.0
    g *= e
    g -= 1.0
    return alpha * ball.eta + beta + alpha * g.mean()


def _kkt(u, alpha, x, p, scenarios, ball, spec):
    """Residual F, at theta = 0, and Jacobian J of the system at (u, alpha,
    beta), for the shortfall x = B - R'u and the _estar pass p at
    (alpha, beta).  J does not depend on theta."""
    RT = scenarios.R.T                 # d contiguous rows of N returns
    d, N = RT.shape
    lam = ball.lam
    s, e, w = p
    me, m0, m1, m2 = _moments(p)
    k = (lam + 1.0) * alpha            # psi = E*^(1-lam) / k
    lp = loss_deriv1(spec, x)
    lpp = loss_deriv2(spec, x)
    lpe = lp * e
    g = lp * w                         # l' psi k

    F = np.empty(d + 3)
    F[:d] = RT @ lpe / N
    F[d] = u.sum() - 1.0
    F[d + 1] = _mean_G(p, lam) - ball.eta
    F[d + 2] = me - 1.0

    J = np.zeros((d + 3, d + 3))
    # the weights l'' E* + l'^2 psi of the u-block, written over l'' and l' E*
    lpp *= e
    np.multiply(g, lp, out=lpe)
    lpe /= k
    lpp += lpe
    J[:d, :d] = -((RT * lpp) @ scenarios.R) / N
    J[:d, d + 1] = -(RT @ g) / (N * k)
    g *= s
    J[:d, d] = -(RT @ g) / (N * k)
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]            # symmetry of the mixed partials
    J[d + 1, d] = -m2 / k
    J[d + 1, d + 1] = -m1 / k
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -m1 / k
    J[d + 2, d + 1] = -m0 / k
    return F, J


def _shortfall(scenarios, u):
    """x = B - R'u, formed in one array."""
    x = scenarios.R @ u
    return np.subtract(scenarios.B, x, out=x)


def _system(u, alpha, beta, theta, scenarios, ball, spec):
    if alpha <= 0:
        raise FeasibilityError("infeasible point: alpha <= 0")
    u, alpha, beta = np.asarray(u, dtype=float), float(alpha), float(beta)
    x = _shortfall(scenarios, u)
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
    d = scenarios.d
    if ball.eta <= 0:
        raise ValueError("solve_robust requires eta > 0")
    if scenarios.n < d + 3:
        raise ValueError(f"need at least d+3={d+3} scenarios, got {scenarios.n}")

    u = np.full(d, 1.0 / d)
    x = _shortfall(scenarios, u)
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
            x_t = _shortfall(scenarios, u_t)
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


def _bordered(M, top, bottom, message):
    """x of the bordered system [[M, 1], [1', 0]] [x; nu] = [top; bottom]."""
    d = M.shape[0]
    A = np.zeros((d + 1, d + 1))
    A[:d, :d] = M
    A[:d, d] = 1.0
    A[d, :d] = 1.0
    rhs = np.append(top, bottom)
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(message) from exc
    if not np.all(np.isfinite(sol)) or np.max(np.abs(A @ sol - rhs)) > 1e-6:
        raise SingularSystemError(message)
    return sol[:d]


def solve_nonrobust(scenarios: ScenarioSet, spec: LossSpec) -> np.ndarray:
    """Minimize the empirical mean loss subject to 1'u = 1 by Newton's
    method from the quadratic loss's KKT point, where a quadratic loss stops
    at the first test; the start and each step are one bordered solve."""
    R, B = scenarios.R, scenarios.B
    N, d = R.shape
    if N < d:
        raise ValueError(f"need at least d={d} scenarios, got {N}")

    u = _bordered(2.0 * R.T @ R / N, 2.0 * R.T @ B / N, 1.0,
                  "singular tracking KKT system")
    x = _shortfall(scenarios, u)
    f0 = loss_value(spec, x).mean()
    for _ in range(100):
        grad = -(R.T @ loss_deriv1(spec, x)) / N
        reduced = grad - grad.mean()
        if np.max(np.abs(reduced)) <= 1e-11 * max(1.0, np.max(np.abs(grad))):
            break
        H = (R.T * loss_deriv2(spec, x)) @ R / N
        step = _bordered(H + 1e-14 * np.trace(H) * np.eye(d), -grad, 0.0,
                         "singular Newton KKT system")
        t = 1.0
        while t > 1e-14:
            x_t = _shortfall(scenarios, u + t * step)
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
    x = _shortfall(scenarios, solution.u)
    e = solution.estar
    s = (loss_value(spec, x) - solution.beta) / solution.alpha
    w = np.power(e, 1.0 - ball.lam, out=np.zeros_like(e), where=e > 0.0)
    J = _kkt(solution.u, solution.alpha, x, (s, e, w), scenarios, ball, spec)[1]
    d = scenarios.d
    return float(np.linalg.eigvalsh(J[:d, :d])[-1])
