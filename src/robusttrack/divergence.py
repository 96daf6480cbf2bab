"""The polynomial Bregman (beta-) divergence family and its Gaussian closed forms.

The divergence between a nominal density f and a perturbation g is the
expectation, under f, of the scalar convex function G applied to the
likelihood ratio E = g/f, written once for every lam >= 0:

    G(E) = E log(E) exprel(lam log E) - E + 1,   exprel(x) = (e^x - 1)/x,

which for lam > 0 is (1/lam) E^(lam+1) - ((lam+1)/lam) E + 1, and at lam = 0,
where exprel(0) = 1 exactly, the Kullback-Leibler integrand E log E - E + 1.
exprel keeps every digit as lam log E approaches 0, subnormal lam included,
so no caller takes a numerical limit.

The generator's density weighting (each point re-scaled by f(x)^{-lam}) is
folded into G; no separate weight-function evaluation exists anywhere in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import exprel

from .model import NominalModel, _sample_blocks, log_density


def _check_lam(lam: float) -> None:
    """Reject a ball exponent that is not finite and >= 0 (NaN included)."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and >= 0")


@dataclass(frozen=True)
class DivergenceBall:
    """Ambiguity ball configuration: exponent lam >= 0 and radius eta >= 0.

    lam = 0 selects the KL mode; eta = 0 collapses the ball to the nominal
    distribution alone (no robustification).  The robust solver is tested
    for lam from 0 to 10.
    """

    lam: float
    eta: float

    def __post_init__(self):
        _check_lam(self.lam)
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and >= 0")


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with its standard error."""

    estimate: float
    std_error: float


def _G(e, loge, lam: float):
    # the integrand from the ratio and its log, which callers already hold
    return e * loge * exprel(lam * loge) - e + 1.0


def scalar_G(e, lam: float):
    """Pointwise divergence integrand G(e); G(1) = 0 and G >= 0.

    lam = 0 gives the KL integrand e log e - e + 1.
    """
    _check_lam(lam)
    e = np.asarray(e, dtype=float)
    if not np.all(e > 0):                   # a NaN e fails here too
        raise ValueError("scalar_G requires e > 0")
    out = _G(e, np.log(e), lam)
    return float(out) if out.ndim == 0 else out


def _mc_estimate(g: np.ndarray) -> MCEstimate:
    n = g.size
    return MCEstimate(estimate=float(g.mean()),
                      std_error=float(g.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)


def divergence_mc(draws: np.ndarray, ratio: Callable[[np.ndarray], np.ndarray],
                  lam: float) -> MCEstimate:
    """Monte-Carlo divergence estimate mean(G(ratio(x))) over draws from f.

    ``ratio`` evaluates the likelihood ratio g/f per draw; all values must be
    positive and finite.
    """
    _check_lam(lam)
    values = np.asarray(ratio(np.asarray(draws, dtype=float)), dtype=float)
    if values.ndim != 1 or values.shape[0] != np.shape(draws)[0]:
        raise ValueError("ratio must return one value per draw")
    if np.any(~np.isfinite(values)) or np.any(values <= 0):
        raise ValueError("ratio values must be positive and finite")
    return _mc_estimate(_G(values, np.log(values), lam))


def _maha2(Sigma, v: np.ndarray) -> float:
    # v' Sigma^{-1} v = |L^{-1} v|^2 with Sigma = L L'
    y = np.linalg.solve(np.linalg.cholesky(np.asarray(Sigma, dtype=float)), v)
    return float(y @ y)


def _log1pmx(x: np.ndarray) -> np.ndarray:
    """log(1 + x) - x without cancellation: for |x| < 1/2 the series
    -x^2/(2+x) + 2(u^3/3 + u^5/5 + ...) in u = x/(2+x), |u| <= 1/3."""
    u = x / (2.0 + x)
    u2 = u * u
    series = -x * x / (2.0 + x) + 2.0 * u * u2 * sum(u2 ** j / (2 * j + 3) for j in range(24))
    return np.where(np.abs(x) < 0.5, series, np.log1p(x) - x)


def divergence_gaussian(mu1, Sigma1, mu2, Sigma2, lam: float) -> float:
    """Closed-form divergence between two multivariate normals.

    Valid when ((lam+1) Sigma2^{-1} - lam Sigma1^{-1}) is positive definite,
    that is 1 + (lam+1) b > 0 for the eigenvalues b of L^{-1} (Sigma1 -
    Sigma2) L^{-T}, Sigma2 = L L'; outside it a ValueError is raised.  The
    result is expm1(x) / lam, x = 1/2 sum[(lam+1) g(b) - g((lam+1) b)] +
    lam(lam+1)/2 d' ((lam+1) Sigma1 - lam Sigma2)^{-1} d with d = mu2 - mu1
    and g(t) = log(1 + t) - t: no term cancels as the normals meet, and the
    result is within a few float spacings, relative, of a 50-digit reference
    on near-equal and far-apart pairs alike.
    """
    if lam <= 0:
        raise ValueError("divergence_gaussian requires lam > 0; at lam = 0 use "
                         "divergence_gaussian_equal_cov or eta_from_ratio_mc")
    _check_lam(lam)
    L = np.linalg.cholesky(np.asarray(Sigma2, dtype=float))
    diff = np.asarray(Sigma1, dtype=float) - np.asarray(Sigma2, dtype=float)
    b, V = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, diff).T))
    scaled = (lam + 1.0) * b
    if np.any(1.0 + scaled <= 0.0):
        raise ValueError("outside validity region: (lam+1)*Sigma2^-1 - lam*Sigma1^-1 "
                         "is not positive definite")
    # (lam+1) Sigma1 - lam Sigma2 = L V diag(1 + (lam+1) b) V' L'
    y = V.T @ np.linalg.solve(L, np.asarray(mu2, dtype=float) - np.asarray(mu1, dtype=float))
    x = (0.5 * np.sum((lam + 1.0) * _log1pmx(b) - _log1pmx(scaled))
         + 0.5 * lam * (lam + 1.0) * np.sum(y * y / (1.0 + scaled)))
    return float(np.expm1(x) / lam)


def divergence_gaussian_equal_cov(mu1, mu2, Sigma, lam: float) -> float:
    """Equal-covariance special case: h exprel(lam h) with
    h = (lam+1)/2 * maha2 and maha2 = (mu2-mu1)' Sigma^{-1} (mu2-mu1), which
    is (1/lam) (exp(lam h) - 1) for lam > 0 and the KL value maha2 / 2 (half
    the squared Mahalanobis distance) at lam = 0.
    """
    _check_lam(lam)
    maha2 = _maha2(Sigma, np.asarray(mu2, dtype=float) - np.asarray(mu1, dtype=float))
    h = (lam + 1.0) / 2.0 * maha2
    return h * exprel(lam * h)


def k_from_eta(eta: float, lam: float, mu1, Sigma1, sign: str = "-") -> float:
    """Mean-scaling factor k with divergence(N(mu1,S), N(k mu1,S)) = eta.

    k = 1 +/- sqrt( log(eta*lam + 1) / (lam(lam+1)/2 * mu1' Sigma1^{-1} mu1) ).
    """
    if not 0 <= eta < np.inf:               # a NaN eta fails here too
        raise ValueError("eta must be >= 0 and finite")
    if lam <= 0:
        raise ValueError("k_from_eta requires lam > 0")
    _check_lam(lam)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    quad = _maha2(Sigma1, np.asarray(mu1, dtype=float))
    if quad <= 0:
        raise ValueError("mu1' Sigma1^{-1} mu1 must be positive")
    root = np.sqrt(np.log1p(eta * lam) / (lam * (lam + 1.0) / 2.0 * quad))
    return 1.0 + root if sign == "+" else 1.0 - root


def eta_from_ratio_mc(nominal: NominalModel, actual: NominalModel, lam: float,
                      n: int, seed: int) -> MCEstimate:
    """Monte-Carlo divergence radius between two parametric models.

    Draws from the nominal model and averages G(g/f) using the analytic
    log-density ratio; the ratio is exponentiated only after the overflow
    check, so heavy-tailed ratios fail with a ValueError naming the remedy
    (a smaller lam), not an inf.  The check bounds (lam+1) log(g/f) by 350,
    so that the square of G, which the standard error sums, stays finite too.
    Identical models give a zero log ratio and so exactly zero.  The draws
    are those of sample_model(nominal, n, seed), read one block at a time
    into the n log ratios, so no n x d array of draws is formed.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_lam(lam)
    logratio = np.empty(n)
    for rows, x in _sample_blocks(nominal, n, seed):
        np.subtract(log_density(actual, x), log_density(nominal, x), out=logratio[rows])
    if np.max((lam + 1.0) * logratio) > 350.0:
        raise ValueError(
            "density ratio overflows the divergence integrand; "
            "a smaller lam keeps the estimate finite"
        )
    return _mc_estimate(_G(np.exp(logratio), logratio, lam))
