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
the in-place forms must give their results bit for bit.  frozen_tilt and
frozen_kkt are the inner root's pass and the assembly as they were while
every product was its own array of N floats and the u-block's Gram weights
one array; the solver's forms must give their results bit for bit too.

frozen_sample_model, frozen_draw_scenarios and frozen_eta_from_ratio_mc
are the sampler, the scenario builder and the Monte-Carlo radius as they
were while every draw formed its whole chunk of normals and an n x d array
of draws; the row-block forms must give their draws, sets and radii bit
for bit.
"""

from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq
from scipy.special import exprel, logsumexp, ndtr

from robusttrack.divergence import MCEstimate
from robusttrack.loss import LossSpec, loss_deriv1, loss_deriv2, loss_value
from robusttrack.model import ScenarioSet, log_density
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
    for it in range(200):              # the frozen solver's step limit
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
        return z, F, 200
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


_TINY = np.finfo(float).smallest_subnormal
_BLOCK = 8192


def _frozen_mean(a):
    return np.add.reduce(a) / a.size


def _frozen_gram(R, w):
    G = (R[:_BLOCK].T * w[:_BLOCK]) @ R[:_BLOCK]
    for i in range(_BLOCK, R.shape[0], _BLOCK):
        block = R[i:i + _BLOCK]
        G += (block.T * w[i:i + _BLOCK]) @ block
    return G


def frozen_tilt(L, top, lam, eta, x):
    if lam == 0.0:
        z = L - top
        e = np.exp(z * x)
        m = _frozen_mean(e)
        m1 = _frozen_mean(e * z) / m
        alpha = 1.0 / x
        return (x * m1 - np.log(m) - eta,
                x * (_frozen_mean(e * z * z) / m - m1 * m1),
                alpha, top + alpha * np.log(m))
    scale = top - x
    y = np.maximum(L - x, 0.0) / scale
    yp = y ** (1.0 / lam)
    A = _frozen_mean(yp)
    B = _frozen_mean(yp * y)
    C = _frozen_mean(yp / np.maximum(y, _TINY))
    alpha = lam / (lam + 1.0) * scale * A ** lam
    return (np.log(B) - (lam + 1.0) * np.log(A) - np.log1p(lam * eta),
            (1.0 + 1.0 / lam) / scale * (C / A - A / B),
            alpha, x + alpha * (lam + 1.0) / lam)


def frozen_kkt(u, alpha, lp, lpp, p, scenarios, ball):
    RT = scenarios.R.T
    d, N = RT.shape
    lam = ball.lam
    s, e, w = p
    ws = w * s
    m1 = _frozen_mean(ws)
    ws *= s
    m2 = _frozen_mean(ws)
    del ws
    k = (lam + 1.0) * alpha
    lpe = lp * e
    g = lp * w

    F = np.empty(d + 3)
    F[:d] = RT @ lpe / N
    F[d] = u.sum() - 1.0
    F[d + 1] = _frozen_mean(e * s / (lam + 1.0) - e + 1.0) - ball.eta
    F[d + 2] = _frozen_mean(e) - 1.0

    J = np.zeros((d + 3, d + 3))
    np.multiply(g, lp, out=lpe)
    lpe /= k
    J[:d, d + 1] = -(RT @ g) / (N * k)
    g *= s
    J[:d, d] = -(RT @ g) / (N * k)
    np.multiply(lpp, e, out=g)
    g += lpe
    del lpe
    J[:d, :d] = -_frozen_gram(scenarios.R, g) / N
    J[:d, d + 2] = -1.0
    J[d, :d] = 1.0
    J[d + 1, :d] = J[:d, d]
    J[d + 1, d] = -m2 / k
    J[d + 1, d + 1] = -m1 / k
    J[d + 2, :d] = J[:d, d + 1]
    J[d + 2, d] = -m1 / k
    J[d + 2, d + 1] = -_frozen_mean(w) / k
    return F, J


# rows per sampling chunk, each drawn from its own stream
_CHUNK = 1 << 18


def frozen_sample_model(model, n, seed):
    """The sampler with each chunk's normals one m x d array, multiplied into
    the output and scaled and shifted there."""
    out = np.empty((n, model.dim))
    chol = np.linalg.cholesky(model.scale)
    for ci, start in enumerate(range(0, n, _CHUNK)):
        m = min(_CHUNK, n - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
        z = np.matmul(rng.standard_normal((m, model.dim)), chol.T,
                      out=out[start:start + m])
        if model.kind == "student_t":
            z *= np.sqrt(model.dof / rng.chisquare(model.dof, m))[:, None]
        z += model.mean
    return out


def frozen_draw_scenarios(model, composition, tracked, n, seed):
    """The scenario builder reading its columns from the n x d draws."""
    draws = frozen_sample_model(model, n, seed)
    B = draws @ composition.weights
    B += 1.0
    R = np.empty((n, len(tracked)), order="F")
    for j, col in enumerate(tracked):
        np.add(1.0, draws[:, col], out=R[:, j])
    return ScenarioSet(R=R, B=B)


def frozen_eta_from_ratio_mc(nominal, actual, lam, n, seed):
    """The Monte-Carlo radius over the n x d draws, without its overflow check."""
    draws = frozen_sample_model(nominal, n, seed)
    logratio = log_density(actual, draws) - log_density(nominal, draws)
    e = np.exp(logratio)
    g = e * logratio * exprel(lam * logratio) - e + 1.0
    return MCEstimate(estimate=float(g.mean()),
                      std_error=float(g.std(ddof=1) / np.sqrt(n)))
