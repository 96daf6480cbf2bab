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
J dz = -F gives the equality-constrained Newton step in u, and rho is the
value its line search lowers.  Each point, trial or start, forms l, l' and
l'' in one call of loss._terms, which forms each loss's special functions
once, and an accepted trial's l' and l'' go to the assembly as they are.

Where the tracked assets replicate the index, the shortfall is a constant
c at the replicating portfolio u_rep, and u_rep may be the optimum, with
alpha = 0 and no KKT point.  Before the first inner root the solve fits B by
R'u plus a constant on 1'u = 1 in least squares, on a prefix of 2(d + 2)
rows and then, as a set that replicates does so on every prefix, on all N
only where the prefix replicates: where the fit's shortfall spreads below
sqrt(eps) times 1/d's.  By Danskin's and Sion's theorems u_rep is then
optimal iff l'(c) = 0 (the quadratic loss at c = 0), or some E in the ball
gives every tracked asset the same tilted mean mean(E R_j), that is iff the
least divergence D_min of such an E is at most eta (see _dmin); both need
the shortfalls, not only the losses, equal.  Then the solve raises
DegenerateScenariosError at once; otherwise Newton runs as without the
test.  Where the losses approach equality during the Newton iteration, it
raises the same error as soon as a trial's loss spread falls below sqrt(eps)
times the start point's, where the (alpha, beta) block of J turns singular
to working precision; where the test found a lower bound on D_min above
eta, the message gives it, as alpha > 0 at the optimum there.  Repeated
solves at a fixed BLAS thread count are bitwise identical.

Each N-point array lives only until its last read, the passes over the losses
work in place, and every Gram matrix of a solve, solve_nonrobust's start
included, is summed over blocks of rows (_gram), so no d x N product is
formed; _kkt forms its Gram weights one block at a time.  A robust solve then
peaks at 6 arrays of N floats, reached in _kkt (one scratch array beside its
five inputs), in a trial's inner root and in its worst-case pass.  R is stored
column-major (see ScenarioSet), and the scalar entries of J read one set of
moments of the pass, mean E* and mk = mean(E*^(1-lam) s^k) for k = 0, 1, 2.

solve_nonrobust is equality-constrained Newton on mean(l) from the quadratic
loss's KKT point, where a quadratic loss stops; that point and each step are
one bordered solve [[M, 1], [1', 0]] [x; nu] = [top; bottom] (Boyd and
Vandenberghe, Convex Optimization, 9.5 and 10.2).  It, solve_robust and
_dmin step through one loop, _newton: from t = 1 it halves the step until
the trial passes Armijo's test with 1e-4, and raises NonConvergenceError,
with the smallest residual reached, as a stall below t = 1e-10 and after
_NEWTON_STEPS steps.  No trial can verify a decrease within 8 spacings of
the value (Armijo's test would pass on rounding); there solve_robust
stalls, solve_nonrobust stops and _dmin takes the whole step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import DivergenceBall
from .loss import QUADRATIC, LossSpec, _terms, loss_deriv1, loss_deriv2, loss_value
from .model import _BLOCK, ScenarioSet

# bench/tracing.py and tests/test_api.py look up these three names on this
# module.  No solve calls them (each forms l, l' and l'' through _terms), so
# they are kept here only for those lookups.
loss_value, loss_deriv1, loss_deriv2

_INNER_STEPS = 100      # steps allowed to the scalar root of the inner solve
_NEWTON_STEPS = 100     # steps allowed to each iteration of _newton
# a trial whose loss spread falls below this share of the start point's
# spread is taken as the alpha -> 0 collapse, and so is a least-squares
# replicating portfolio whose shortfall spreads below this share of 1/d's
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
    """A Newton iteration stalled or did not reach its tolerance."""

    def __init__(self, message, residual_norm=None, iterations=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass
class SolverConfig:
    """Newton solver settings: the tolerance on the largest KKT residual.
    Every solve starts at u = 1/d, where (alpha, beta) are solved exactly for
    its losses, and takes at most _NEWTON_STEPS steps."""

    residual_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be finite and positive")


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
    base = lam / (lam + 1.0) * s
    base += 1.0
    np.maximum(base, 0.0, out=base)
    e = base ** (1.0 / lam)
    # where base is 0, E* is 0 too, and so is the quotient, in base's buffer
    np.maximum(base, _TINY, out=base)
    return s, e, np.divide(e, base, out=base)


def _mean(a):
    """ndarray.mean of a vector, bit for bit (the same pairwise sum over the
    same count), without numpy's Python-level wrapper, which costs more than
    the sum at a backtest window's N."""
    return np.add.reduce(a) / a.size


def _gram(R, weights):
    """The weighted Gram matrix (R.T * w) @ R = sum of w_n R_n R_n' over the
    rows of R, summed over blocks of _BLOCK rows, so that its d x N product
    is never formed, nor w: weights(rows) gives it on the slice rows (for
    an array w, w.__getitem__).  At N <= _BLOCK it is that expression, bit
    for bit."""
    G = (R[:_BLOCK].T * weights(slice(0, _BLOCK))) @ R[:_BLOCK]
    for i in range(_BLOCK, R.shape[0], _BLOCK):
        rows = slice(i, i + _BLOCK)
        block = R[rows]
        G += (block.T * weights(rows)) @ block
    return G


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
        m = _mean(e)
        m1 = _mean(e * z) / m
        alpha = 1.0 / x
        return (x * m1 - np.log(m) - eta, x * (_mean(e * z * z) / m - m1 * m1),
                alpha, top + alpha * np.log(m))
    scale = top - x
    y = L - x
    np.maximum(y, 0.0, out=y)
    y /= scale
    yp = y ** (1.0 / lam)
    A = _mean(yp)
    B = _mean(yp * y)
    # y^(p-1) = y^p / y is then 0 at y = 0; the quotient takes yp's buffer
    np.maximum(y, _TINY, out=y)
    C = _mean(np.divide(yp, y, out=yp))
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
    top = np.maximum.reduce(L)
    if alpha is None:
        alpha = float(L.std()) / np.sqrt(2.0 * eta * (lam + 1.0))
        beta = float(_mean(L))
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
        # Python floats overflow to inf silently, into the fallback below
        new = x - float(g) / float(slope) if slope > 0.0 else np.nan
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
            + alpha * _mean((ball.lam / (ball.lam + 1.0) * s + 1.0) * e - 1.0))


def _newton(point, start, flat, what, stop, size=None):
    """(answer, steps taken) of the module's damped Newton iteration from the
    point x of value f that the list start holds as (x, f), taken out so that
    only _newton holds a point's arrays.  point(x) gives (res, tol,
    answer, newton); newton() gives the slope and trial, and trial(t) the
    point t along the direction and its value.  flat, "stall", "stop" or
    "whole", answers a decrease within 8 spacings of size (default f)."""
    x, f = start.pop()
    best = np.inf
    for it in range(_NEWTON_STEPS + 1):
        res, tol, answer, newton = point(x)
        del x                          # no trial reads the point's arrays
        if res <= tol:
            return answer, it
        best = min(best, res)
        if it == _NEWTON_STEPS:
            break
        slope, trial = newton()
        unverifiable = -slope <= 8.0 * np.spacing(f if size is None else size)
        if unverifiable and flat == "stop":
            return answer, it
        del answer, newton
        t = 1.0
        while True:
            if t < 1e-10 or unverifiable and flat == "stall":
                raise NonConvergenceError(f"{what} stalled above {stop}",
                                          residual_norm=best, iterations=it)
            x, f_t = trial(t)
            if unverifiable or f_t <= f + 1e-4 * t * slope:
                break
            del x                      # a rejected trial is not read again
            t *= 0.5
        f = f_t
    raise NonConvergenceError(f"{what} did not reach {stop}", residual_norm=best,
                              iterations=_NEWTON_STEPS)


def _dmin(Z, lam, eta):
    """(D, E): the least divergence D_min = min mean G(E) over E >= 0 with
    mean E = 1 and mean(E Z) = 0, and its E, by _newton on the concave dual
    max over theta of theta_0 - mean G*(A theta),  A = [1, Z], from
    theta = 0.  E = G*'(A theta) and G*'' = E^(1-lam)/(lam+1) are the _estar
    pass at alpha = 1, beta = 0, and the gradient is (1, 0, ..., 0) -
    mean(E A).  Each dual value bounds D_min from below, so the iteration
    ends at the first value above eta, which is then D; D, a difference of
    terms of size 1, rounds at eps.  D is NaN where it ends with neither."""
    N = Z.shape[0]
    A = np.column_stack([np.ones(N), Z])
    c = lam / (lam + 1.0)
    tol = 1e-13 * np.maximum.reduce(np.abs(A), axis=None)
    e = None                           # E at the point the iteration is at

    def point(x):
        nonlocal e
        theta, D, (_, e, w) = x
        grad = -(A.T @ e) / N
        grad[0] += 1.0

        def newton():
            step = np.linalg.solve(_gram(A, w.__getitem__) / (N * (lam + 1.0)), grad)

            def trial(t):
                theta_t = theta + t * step
                p = _estar(A @ theta_t, lam, 1.0, 0.0)
                D_t = theta_t[0] - _mean((c * p[0] + 1.0) * p[1] - 1.0)
                # the value is -D; one above eta passes whatever its rise
                return (theta_t, D_t, p), -np.inf if D_t > eta else -D_t
            return -(grad @ step), trial
        return np.maximum.reduce(np.abs(grad)), np.inf if D > eta else tol, (D, e), newton

    with np.errstate(over="ignore"):   # a trial far out is rejected as +inf
        try:
            start = [((np.zeros(A.shape[1]), 0.0, _estar(np.zeros(N), lam, 1.0, 0.0)), 0.0)]
            return _newton(point, start, "whole", "D_min's dual", "its tolerance", size=1.0)[0]
        except (np.linalg.LinAlgError, NonConvergenceError):
            return np.nan, e


def _certify(scenarios, x0, spec, ball):
    """Raise DegenerateScenariosError where the tracked assets replicate the
    index and the replicating portfolio is optimal (see the module
    docstring); x0 is the shortfall at 1/d.  In the coordinates v of the
    plane 1'u = 1, u = (1 - 1'v, v), the shortfall is y - Z v with
    y = B - R_1 and Z_j = R_j - R_1.  The fit solves the normal equations of
    the centred Zc, Zc'Z v = Zc'y (Zc'Z = Zc'Zc), because the first call of
    np.linalg.lstsq grows a process's peak RSS by about 1 MB and that of
    Zc.T @ Zc, which numpy hands to BLAS syrk, by 0.15 MB.  Where the index
    is replicated but D_min's dual gives a value above eta, return that
    value, a lower bound on D_min; otherwise None."""
    d, n = scenarios.d, scenarios.n
    for m in sorted({min(2 * (d + 2), n), n}):
        R = scenarios.R[:m]
        Z = R[:, 1:] - R[:, :1]
        y = scenarios.B[:m] - R[:, 0]
        Zc = Z - Z.mean(axis=0)
        try:
            x = y - Z @ np.linalg.solve(Zc.T @ Z, Zc.T @ y)
        except np.linalg.LinAlgError:  # collinear assets: no decision
            return
        if not np.ptp(x) < _COLLAPSE * np.ptp(x0[:m]):
            return
    if spec.kind == QUADRATIC and np.maximum.reduce(np.abs(x)) < _COLLAPSE * np.ptp(x0):
        raise DegenerateScenariosError(
            "alpha collapse: the index is replicable with zero shortfall, so every loss "
            "is 0 at the replicating portfolio, the global minimum, and alpha = 0")
    D = _dmin(Z, ball.lam, ball.eta)[0]
    if D <= ball.eta:
        raise DegenerateScenariosError(
            f"alpha collapse: the index is replicable and D_min = {D:.6g} <= eta = "
            f"{ball.eta:g}, so the replicating portfolio is optimal with alpha = 0")
    return D if D > ball.eta else None


def _kkt(u, alpha, lp, lpp, p, scenarios, ball):
    """Residual F, at theta = 0, and Jacobian J of the system at (u, alpha,
    beta), for the loss derivatives lp = l' and lpp = l'' at the shortfall
    B - R'u and the _estar pass p at (alpha, beta).  J does not depend on
    theta.  No input is written."""
    RT = scenarios.R.T                 # d contiguous rows of N returns
    d, N = RT.shape
    lam = ball.lam
    s, e, w = p
    k = (lam + 1.0) * alpha            # psi = E*^(1-lam) / k

    F = np.empty(d + 3)
    F[d] = u.sum() - 1.0
    # mean G(E*) term by term, before the scratch array: the moment form
    # rounds too coarsely for a finite-difference check of J's divergence row
    F[d + 1] = _mean(e * s / (lam + 1.0) - e + 1.0) - ball.eta
    F[d + 2] = _mean(e) - 1.0
    # one scratch array for every N-point product that J and F read
    a = w * s                          # m1, m2: means of E*^(1-lam) s, s^2
    m1 = _mean(a)
    a *= s
    m2 = _mean(a)
    F[:d] = RT @ np.multiply(lp, e, out=a) / N

    J = np.zeros((d + 3, d + 3))
    np.multiply(lp, w, out=a)          # l' psi k
    J[:d, d + 1] = -(RT @ a) / (N * k)
    a *= s
    J[:d, d] = -(RT @ a) / (N * k)
    del a                              # _gram's blocks beside it would lift the peak

    def weights(rows):                 # the u-block's l'' E* + l'^2 psi
        lp_rows = lp[rows]
        q = lp_rows * w[rows]
        q *= lp_rows
        q /= k
        return np.add(lpp[rows] * e[rows], q, out=q)

    J[:d, :d] = -_gram(scenarios.R, weights) / N
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]            # symmetry of the mixed partials
    J[d + 1, d] = -m2 / k
    J[d + 1, d + 1] = -m1 / k
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -m1 / k
    J[d + 2, d + 1] = -_mean(w) / k
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
    losses are, or approach being, all equal, when the tracked assets
    replicate the index and the replicating portfolio is optimal, or when eta
    reaches the largest divergence of N scenarios (alpha collapses to 0), and
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
    x = scenarios.shortfall(u)
    bound = _certify(scenarios, x, spec, ball)
    L, lp, lpp = _terms(spec, x)
    del x
    spread0 = float(np.maximum.reduce(L) - np.minimum.reduce(L))
    if spread0 <= 1e-14 * max(1.0, float(np.maximum.reduce(np.abs(L)))):
        raise DegenerateScenariosError(
            "all scenarios give the same payoff; the divergence and "
            "normalization equations are underdetermined in (alpha, beta)")
    alpha, beta, p = _dual(L, ball)
    del L

    def point(x):
        u, alpha, beta, lp, lpp, p = x
        F, J = _kkt(u, alpha, lp, lpp, p, scenarios, ball)
        theta = float(_mean(F[:d]))
        F[:d] -= theta
        res = float(np.maximum.reduce(np.abs(F)))

        def newton():
            try:
                dz = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError("singular Newton system") from exc
            du, da, db = dz[:d], dz[d], dz[d + 1]

            def trial(t):
                u_t = u + t * du
                L, lp_t, lpp_t = _terms(spec, scenarios.shortfall(u_t))
                if float(np.maximum.reduce(L) - np.minimum.reduce(L)) < _COLLAPSE * spread0:
                    raise DegenerateScenariosError(
                        "alpha collapse: the losses approach equality (the index is replicable), "
                        + ("so the worst case degenerates to alpha = 0" if bound is None else
                           "where the (alpha, beta) block of J turns singular, although D_min >= "
                           f"{bound:.6g} > eta = {ball.eta:g}: the replicating portfolio is not "
                           "optimal, and alpha > 0 at the optimum"))
                # warm start from the Newton step's multipliers; where that
                # alpha is not positive, from the small-ball estimate
                a_t = alpha + t * da
                a_t, b_t, p_t = _dual(L, ball, *((a_t, beta + t * db) if a_t > 0 else ()))
                del L
                return (u_t, a_t, b_t, lp_t, lpp_t, p_t), _phi(a_t, b_t, p_t, ball)
            return -float(F[:d] @ du), trial   # the directional derivative of rho
        return res, config.residual_tol, (u, float(alpha), float(beta), theta, p[1], res), newton

    start = [((u, alpha, beta, lp, lpp, p), _phi(alpha, beta, p, ball))]
    del lp, lpp, p                     # _newton holds the start point alone
    answer, it = _newton(point, start, "stall", "robust solve",
                         f"residual tolerance {config.residual_tol}")
    return RobustSolution(*answer, iterations=it)


def _bordered(M, top, bottom, message):
    """x of the bordered system [[M, 1], [1', 0]] [x; nu] = [top; bottom]."""
    d = M.shape[0]
    A = np.zeros((d + 1, d + 1))
    A[:d, :d] = M
    A[:d, d] = 1.0
    A[d, :d] = 1.0
    rhs = np.empty(d + 1)
    rhs[:d] = top
    rhs[d] = bottom
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(message) from exc
    if not np.isfinite(sol).all() or np.maximum.reduce(np.abs(A @ sol - rhs)) > 1e-6:
        raise SingularSystemError(message)
    return sol[:d]


def solve_nonrobust(scenarios: ScenarioSet, spec: LossSpec) -> np.ndarray:
    """Minimize the empirical mean loss subject to 1'u = 1 (see the module
    docstring).  Raises NonConvergenceError, with the smallest reduced
    gradient and the steps taken, where its line search stalls or
    _NEWTON_STEPS steps do not reach the stop."""
    R, B = scenarios.R, scenarios.B
    N, d = R.shape
    if N < d:
        raise ValueError(f"need at least d={d} scenarios, got {N}")

    u = _bordered(_gram(R, lambda rows: 2.0) / N, 2.0 * (R.T @ B) / N, 1.0,
                  "singular tracking KKT system")

    def at(u):                         # the point u, with l' and l'', and its mean loss
        L, lp, lpp = _terms(spec, scenarios.shortfall(u))
        return (u, lp, lpp), _mean(L)

    def point(x):
        u, lp, lpp = x
        grad = -(R.T @ lp) / N

        def newton():
            H = _gram(R, lpp.__getitem__) / N
            step = _bordered(H + 1e-14 * np.trace(H) * np.eye(d), -grad, 0.0,
                             "singular Newton KKT system")
            return grad @ step, lambda t: at(u + t * step)
        return (float(np.maximum.reduce(np.abs(grad - _mean(grad)))),
                1e-11 * max(1.0, np.maximum.reduce(np.abs(grad))), u, newton)

    return _newton(point, [at(u)], "stop", "non-robust fit", "its reduced-gradient stop")[0]


def hessian_diagnostic(solution: RobustSolution, scenarios: ScenarioSet,
                       ball: DivergenceBall, spec: LossSpec) -> float:
    """Largest eigenvalue of the outer-Lagrangian Hessian in u.

    Hess = mean( -l''(x) R R' E* ) - (1/(alpha (1+lam))) mean( (E*)^(1-lam) g g' ),
    with (E*)^(1-lam) taken as 0 where E* = 0: the u-block of system_jacobian
    at the solution's (u, alpha, beta).  Both terms are negative
    semi-definite for alpha > 0, so the result should not exceed roundoff
    times the problem scale.
    """
    J = system_jacobian(solution.u, solution.alpha, solution.beta, 0.0, scenarios, ball, spec)
    d = scenarios.d
    return float(np.linalg.eigvalsh(J[:d, :d])[-1])
