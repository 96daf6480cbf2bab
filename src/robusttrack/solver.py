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

solve_robust is Newton's method on rho.  At every point minimize Phi
exactly over (alpha, beta) for the current losses.  G is lam + 1 times the
Cressie-Read divergence of that order, so the minimizer is a closed form in
one scalar (Duchi and Namkoong, Annals of Statistics 49(3), 2021), the root
of an increasing function (see _tilt and _dual).  The bordered solve
J dz = -F gives the equality-constrained Newton step in u, which an Armijo
search on rho accepts; a step whose decrease no trial can resolve from
rho's rounding is a stall.  Each point, trial or start, forms l, l' and l''
in one call of loss._terms, which forms each loss's special functions once,
and an accepted trial's l' and l'' go to the assembly as they are.

Where the losses can be made all equal (an index the tracked assets
replicate) the optimum has alpha = 0 and no KKT point exists.  The solve
raises DegenerateScenariosError as soon as a trial's loss spread falls below
sqrt(eps) times the start point's, where the (alpha, beta) block of J turns
singular to working precision.  Repeated solves at a fixed BLAS thread
count are bitwise identical.

Each N-point array lives only until its last read, except an accepted
trial's losses (see solve_robust), so a solve peaks in _kkt, which works
in place, and the line-search passes are closed forms.
R is stored column-major (see ScenarioSet), and the scalar entries of J
read one set of moments of the pass, mean E* and mk = mean(E*^(1-lam) s^k)
for k = 0, 1, 2.

solve_nonrobust is equality-constrained Newton on mean(l) from the quadratic
loss's KKT point, where a quadratic loss stops; that point and each step are
one bordered solve [[M, 1], [1', 0]] [x; nu] = [top; bottom] (Boyd and
Vandenberghe, Convex Optimization, 10.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import DivergenceBall
from .loss import LossSpec, _terms, loss_deriv1, loss_deriv2, loss_value
from .model import ScenarioSet

# bench/tracing.py and tests/test_api.py look up these three names on this
# module.  No solve calls them (each forms l, l' and l'' through _terms), so
# they are kept here only for those lookups.
loss_value, loss_deriv1, loss_deriv2

# steps allowed to the scalar root of the inner (alpha, beta) solve
_INNER_STEPS = 100
# a trial whose loss spread falls below this share of the start point's
# spread is taken as the alpha -> 0 collapse
_COLLAPSE = np.sqrt(np.finfo(float).eps)
_TINY = np.finfo(float).smallest_subnormal


class SolverError(RuntimeError):
    """Base class for solver failures."""


class DegenerateScenariosError(SolverError):
    """alpha collapses to 0: the losses are, or can be made, all equal, or
    eta admits the point mass on the largest loss (see solve_robust)."""


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
    """The pass (s, E*, E*^(1-lam)) over losses L, s = (L - beta)/alpha."""
    s = (L - beta) / alpha
    if lam == 0.0:
        e = np.exp(s)
        return s, e, e
    base = np.maximum(1.0 + lam / (lam + 1.0) * s, 0.0)
    e = base ** (1.0 / lam)
    # where base is 0, E* is 0 too, and the quotient by the tiny floor is 0
    return s, e, e / np.maximum(base, _TINY)


def _mean_G(p, lam):
    """mean G(E*) = mean(E* s/(lam+1) - E* + 1) of the _estar pass p, summed
    term by term.  The moment form (m1 + c m2)/(lam+1) - mean E* + 1 takes
    the difference of two means of size 1 and rounds several times coarser,
    too coarse for a finite-difference check of J's divergence row."""
    s, e, _ = p
    return (e * s / (lam + 1.0) - e + 1.0).mean()


def _tilt(L, top, lam, eta, x):
    """One pass of the inner root at its scalar x over losses L with largest
    loss top: (g, g', alpha, beta), with (alpha, beta) the closed forms at x.

    lam > 0:  x is the threshold t = beta - alpha/c below which E* = 0.  With
              y = (L - t)_+ / (top - t) in [0, 1], p = 1/lam and A, B, C the
              means of y^p, y^(p+1) and y^(p-1) (0 where y = 0),
              g = log B - (lam+1) log A - log1p(lam eta),
              g' = (p+1)/(top - t) (C/A - A/B) >= 0 (Cauchy-Schwarz),
              alpha = c (top - t) A^lam and beta = t + alpha/c.
    lam = 0:  x = 1/alpha.  With e = exp(x (L - top)),
              g = x mean(e (L - top))/mean(e) - log mean(e) - eta,
              g' = x Var_E(L) and beta = top + alpha log mean(e).
    """
    if lam == 0.0:
        z = L - top
        e = np.exp(z * x)
        m = e.mean()
        m1 = (e * z).mean() / m
        alpha = 1.0 / x
        return (x * m1 - np.log(m) - eta, x * ((e * z * z).mean() / m - m1 * m1),
                alpha, top + alpha * np.log(m))
    scale = top - x
    y = np.maximum(L - x, 0.0) / scale
    yp = y ** (1.0 / lam)
    A = yp.mean()
    B = (yp * y).mean()
    C = (yp / np.maximum(y, _TINY)).mean()   # y^(p-1) = y^p / y is then 0 at y = 0
    alpha = lam / (lam + 1.0) * scale * A ** lam
    return (np.log(B) - (lam + 1.0) * np.log(A) - np.log1p(lam * eta),
            (1.0 + 1.0 / lam) / scale * (C / A - A / B),
            alpha, x + alpha * (lam + 1.0) / lam)


def _dual(L, ball, alpha=None, beta=None):
    """(alpha, beta, _estar pass) minimizing Phi for fixed losses L: Newton
    on g of _tilt (g = 0 is mean G(E*) = eta) from alpha and beta, by default
    the small-ball estimate (beta ~ mean(l), mean G(E*) ~ var(l)/(2 alpha^2
    (lam+1))).  A step out of the sign bracket doubles the distance to an
    open bound, or bisects.  It stops once g is at its rounding, or once the
    step is below 1e-12 of the scale (top - t, or x) while g is small: where
    a scenario sits at the support's edge, g' is unbounded for lam > 1 and g
    can step by more than the system's tolerance between floats of t, so a
    bracket that holds no float interpolates (alpha, beta) at its ends."""
    lam, eta = ball.lam, ball.eta
    top = L.max()
    if alpha is None:
        alpha = float(L.std()) / np.sqrt(2.0 * eta * (lam + 1.0))
        beta = float(L.mean())
    if lam == 0.0:
        x, lo, hi = 1.0 / alpha, 0.0, np.inf
    else:
        x, lo, hi = min(beta, top) - alpha * (lam + 1.0) / lam, -np.inf, top
    below = above = None               # (g, alpha, beta) at the bracket's ends
    for _ in range(_INNER_STEPS):
        g, slope, alpha, beta = _tilt(L, top, lam, eta, x)
        if g > 0.0:
            hi, above = x, (g, alpha, beta)
        else:
            lo, below = x, (g, alpha, beta)
        new = x - g / slope if slope > 0.0 else np.nan
        if abs(g) <= 1e-15 or abs(g) <= 1e-10 and \
                abs(new - x) <= 1e-12 * (x if lam == 0.0 else top - x):
            return alpha, beta, _estar(L, lam, alpha, beta)
        if not lo < new < hi:
            new = (2.0 * x if hi == np.inf else 2.0 * x - top if lo == -np.inf
                   else 0.5 * (lo + hi))
        if new in (lo, hi):
            if below is None or above is None:
                break
            (g0, a0, b0), (g1, a1, b1) = below, above
            w = g1 / (g1 - g0)
            alpha, beta = w * a0 + (1.0 - w) * a1, w * b0 + (1.0 - w) * b1
            return alpha, beta, _estar(L, lam, alpha, beta)
        x = new
    raise NonConvergenceError("inner (alpha, beta) root did not converge")


def _phi(alpha, beta, p, ball):
    """Phi(alpha, beta) = alpha eta + beta + alpha mean(G*(s)), with
    G*(s) = E* (1 + c s) - 1."""
    s, e, _ = p
    return (alpha * ball.eta + beta
            + alpha * ((ball.lam / (ball.lam + 1.0) * s + 1.0) * e - 1.0).mean())


def _kkt(u, alpha, lp, lpp, p, scenarios, ball):
    """Residual F, at theta = 0, and Jacobian J of the system at (u, alpha,
    beta), for the loss derivatives lp = l' and lpp = l'' at the shortfall
    B - R'u and the _estar pass p at (alpha, beta).  J does not depend on
    theta.  No input is written."""
    RT = scenarios.R.T                 # d contiguous rows of N returns
    d, N = RT.shape
    lam = ball.lam
    s, e, w = p
    ws = w * s                         # m1, m2: means of E*^(1-lam) s, s^2
    m1 = ws.mean()
    ws *= s
    m2 = ws.mean()
    del ws
    k = (lam + 1.0) * alpha            # psi = E*^(1-lam) / k
    lpe = lp * e
    g = lp * w                         # l' psi k

    F = np.empty(d + 3)
    F[:d] = RT @ lpe / N
    F[d] = u.sum() - 1.0
    F[d + 1] = _mean_G(p, lam) - ball.eta
    F[d + 2] = e.mean() - 1.0

    J = np.zeros((d + 3, d + 3))
    np.multiply(g, lp, out=lpe)        # l'^2 psi, over l' E*
    lpe /= k
    J[:d, d + 1] = -(RT @ g) / (N * k)
    g *= s
    J[:d, d] = -(RT @ g) / (N * k)
    # the weights l'' E* + l'^2 psi of the u-block, over l' psi k s
    np.multiply(lpp, e, out=g)
    g += lpe
    del lpe
    J[:d, :d] = -((RT * g) @ scenarios.R) / N
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]            # symmetry of the mixed partials
    J[d + 1, d] = -m2 / k
    J[d + 1, d + 1] = -m1 / k
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -m1 / k
    J[d + 2, d + 1] = -w.mean() / k
    return F, J


def _system(u, alpha, beta, theta, scenarios, ball, spec):
    if alpha <= 0:
        raise ValueError("infeasible point: alpha <= 0")
    u, alpha, beta = np.asarray(u, dtype=float), float(alpha), float(beta)
    L, lp, lpp = _terms(spec, scenarios.shortfall(u))
    F, J = _kkt(u, alpha, lp, lpp, _estar(L, ball.lam, alpha, beta), scenarios, ball)
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
    losses are, or approach being, all equal, or when eta reaches the largest
    divergence of N scenarios (alpha collapses to 0), and
    NonConvergenceError with the smallest residual reached and the Newton
    steps taken when the residual tolerance is not met.
    """
    config = config or SolverConfig()
    d = scenarios.d
    if ball.eta <= 0:
        raise ValueError("solve_robust requires eta > 0")
    if scenarios.n < d + 3:
        raise ValueError(f"need at least d+3={d+3} scenarios, got {scenarios.n}")
    log_n = np.log(scenarios.n)        # a point mass's divergence is the largest
    largest = log_n if ball.lam == 0.0 else np.expm1(ball.lam * log_n) / ball.lam
    if ball.eta >= largest:
        raise DegenerateScenariosError(
            f"eta = {ball.eta:g} reaches the largest divergence {largest:.6g} of {scenarios.n} "
            "scenarios: the worst case is the point mass on the largest loss, alpha = 0")

    u = np.full(d, 1.0 / d)
    L, lp, lpp = _terms(spec, scenarios.shortfall(u))
    spread0 = float(L.max() - L.min())
    if spread0 <= 1e-14 * max(1.0, float(np.abs(L).max())):
        raise DegenerateScenariosError(
            "all scenarios give the same payoff; the divergence and "
            "normalization equations are underdetermined in (alpha, beta)")
    alpha, beta, p = _dual(L, ball)
    del L
    phi = _phi(alpha, beta, p, ball)

    best = np.inf
    for it in range(config.max_iterations + 1):
        F, J = _kkt(u, alpha, lp, lpp, p, scenarios, ball)
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
        del lp, lpp, p                 # no trial reads the accepted point's arrays
        du, da, db = dz[:d], dz[d], dz[d + 1]
        slope = -float(F[:d] @ du)     # directional derivative of rho
        t = 1.0
        while True:
            # a decrease below a few spacings of rho, which no trial can
            # verify (Armijo's test would accept rounding), is a stall too
            if t < 1e-10 or -slope <= 8.0 * np.spacing(phi):
                raise NonConvergenceError(
                    f"robust solve stalled above residual tolerance "
                    f"{config.residual_tol}", residual_norm=best, iterations=it)
            u_t = u + t * du
            L_t, lp_t, lpp_t = _terms(spec, scenarios.shortfall(u_t))
            spread_t = float(L_t.max() - L_t.min())
            if spread_t < _COLLAPSE * spread0:
                raise DegenerateScenariosError(
                    "alpha collapse: the losses approach equality (the index is "
                    "replicable), so the worst case degenerates to alpha = 0")
            # warm start from the Newton step's multipliers; where that
            # alpha is not positive, from the small-ball estimate
            a_t = alpha + t * da
            start = (a_t, beta + t * db) if a_t > 0 else ()
            a_t, b_t, p_t = _dual(L_t, ball, *start)
            phi_t = _phi(a_t, b_t, p_t, ball)
            if phi_t <= phi + 1e-4 * t * slope:
                break
            t *= 0.5
        u, alpha, beta, p, lp, lpp, phi = u_t, a_t, b_t, p_t, lp_t, lpp_t, phi_t
        # L_t goes when the next trial rebinds it.  Released here, or with
        # phi formed before Phi in loss._terms, glibc's heap grew by one
        # N-array in a 2e5-row table (+1.5 MB peak RSS) at 2 to 8 of 12 to 19
        # seeds; as written, at none of 49.
        del p_t, lp_t, lpp_t
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
    L, lp, lpp = _terms(spec, scenarios.shortfall(u))
    f0 = L.mean()
    del L
    for _ in range(100):
        grad = -(R.T @ lp) / N
        reduced = grad - grad.mean()
        if np.max(np.abs(reduced)) <= 1e-11 * max(1.0, np.max(np.abs(grad))):
            break
        H = (R.T * lpp) @ R / N
        del lp, lpp
        step = _bordered(H + 1e-14 * np.trace(H) * np.eye(d), -grad, 0.0,
                         "singular Newton KKT system")
        # no line search can verify a decrement within a few spacings of f
        if -(grad @ step) <= 8.0 * np.spacing(f0):
            break
        t = 1.0
        while t > 1e-14:
            L, lp, lpp = _terms(spec, scenarios.shortfall(u + t * step))
            f_new = L.mean()
            del L
            if f_new < f0:
                break
            del lp, lpp
            t *= 0.5
        else:
            break
        u, f0 = u + t * step, f_new
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
    L, lp, lpp = _terms(spec, scenarios.shortfall(solution.u))
    e = solution.estar
    s = (L - solution.beta) / solution.alpha
    w = np.power(e, 1.0 - ball.lam, out=np.zeros_like(e), where=e > 0.0)
    J = _kkt(solution.u, solution.alpha, lp, lpp, (s, e, w), scenarios, ball)[1]
    d = scenarios.d
    return float(np.linalg.eigvalsh(J[:d, :d])[-1])
