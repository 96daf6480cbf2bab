"""The polynomial Bregman (beta-) divergence family and its Gaussian closed forms.

The divergence between a nominal density f and a perturbation g is the
expectation, under f, of the scalar convex function G applied to the
likelihood ratio E = g/f:

    lam > 0:  G(E) = (1/lam) E^(lam+1) - ((lam+1)/lam) E + 1
    lam = 0:  G(E) = E log E - E + 1        (Kullback-Leibler limit)

lam = 0 is admitted as a first-class KL mode everywhere rather than asking
callers to take numerical limits.

The generator's density weighting (each point re-scaled by f(x)^{-lam}) is
folded into G; no separate weight-function evaluation exists anywhere in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

from .model import NominalModel, sample_model


@dataclass(frozen=True)
class DivergenceBall:
    """Ambiguity ball configuration: exponent lam >= 0 and radius eta >= 0.

    lam = 0 selects the KL mode; eta = 0 collapses the ball to the nominal
    distribution alone (no robustification).
    """

    lam: float
    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and >= 0")


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo estimate with its standard error."""

    estimate: float
    std_error: float


def _G(e, loge, lam: float):
    # the integrand from the ratio and its log, which callers already hold
    if lam == 0.0:
        return e * loge - e + 1.0
    return e * np.expm1(lam * loge) / lam - e + 1.0


def scalar_G(e, lam: float):
    """Pointwise divergence integrand G(e); G(1) = 0 and G >= 0.

    lam = 0 gives the KL integrand e log e - e + 1.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
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


def _inverse(L: np.ndarray) -> np.ndarray:
    # (L L')^{-1} from the lower Cholesky factor L
    return np.linalg.solve(L.T, np.linalg.solve(L, np.eye(L.shape[0])))


def divergence_gaussian(mu1, Sigma1, mu2, Sigma2, lam: float) -> float:
    """Closed-form divergence between two multivariate normals.

    Valid when ((lam+1) Sigma2^{-1} - lam Sigma1^{-1}) is positive definite;
    outside that region a ValueError is raised.  All matrix inversions go
    through Cholesky factorizations.
    """
    if lam <= 0:
        raise ValueError("divergence_gaussian requires lam > 0 (use the KL mode helpers for lam=0)")
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    L1 = np.linalg.cholesky(np.asarray(Sigma1, dtype=float))
    L2 = np.linalg.cholesky(np.asarray(Sigma2, dtype=float))
    inv1 = _inverse(L1)
    inv2 = _inverse(L2)
    M = (lam + 1.0) * inv2 - lam * inv1          # = Sigma_tilde^{-1}
    try:
        cM = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "outside validity region: (lam+1)*Sigma2^-1 - lam*Sigma1^-1 "
            "is not positive definite"
        ) from exc
    logdet1 = 2.0 * np.log(np.diag(L1)).sum()
    logdet2 = 2.0 * np.log(np.diag(L2)).sum()
    logdet_tilde = -2.0 * np.log(np.diag(cM)).sum()

    a1 = inv1 @ mu1
    a2 = inv2 @ mu2
    rhs = (lam + 1.0) * a2 - lam * a1
    # mu_tilde' Sigma_tilde^{-1} mu_tilde = rhs' M^{-1} rhs
    y = np.linalg.solve(cM, rhs)

    log_pref = 0.5 * ((lam + 1.0) * (logdet1 - logdet2) + logdet_tilde - logdet1)
    log_exp = 0.5 * (-(lam + 1.0) * (mu2 @ a2) + lam * (mu1 @ a1) + y @ y)
    return (np.exp(log_pref + log_exp) - 1.0) / lam


def divergence_gaussian_equal_cov(mu1, mu2, Sigma, lam: float) -> float:
    """Equal-covariance special case.

    lam > 0: (1/lam) * (exp(lam(lam+1)/2 * maha2) - 1) with
    maha2 = (mu2-mu1)' Sigma^{-1} (mu2-mu1); the lam = 0 KL mode returns the
    limit maha2 / 2 (half the squared Mahalanobis distance).
    """
    maha2 = _maha2(Sigma, np.asarray(mu2, dtype=float) - np.asarray(mu1, dtype=float))
    if lam == 0.0:
        return 0.5 * maha2
    return np.expm1(lam * (lam + 1.0) / 2.0 * maha2) / lam


def k_from_eta(eta: float, lam: float, mu1, Sigma1, sign: str = "-") -> float:
    """Mean-scaling factor k with divergence(N(mu1,S), N(k mu1,S)) = eta.

    k = 1 +/- sqrt( log(eta*lam + 1) / (lam(lam+1)/2 * mu1' Sigma1^{-1} mu1) ).
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if lam <= 0:
        raise ValueError("k_from_eta requires lam > 0")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    quad = _maha2(Sigma1, np.asarray(mu1, dtype=float))
    if quad <= 0:
        raise ValueError("mu1' Sigma1^{-1} mu1 must be positive")
    root = np.sqrt(np.log1p(eta * lam) / (lam * (lam + 1.0) / 2.0 * quad))
    return 1.0 + root if sign == "+" else 1.0 - root


def log_density(model: NominalModel, x: np.ndarray) -> np.ndarray:
    """Pointwise log density of a gaussian or student_t model."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dev = x - model.mean
    chol = model._chol
    half = np.linalg.solve(chol, dev.T).T
    quad = np.einsum("ij,ij->i", half, half)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    d = model.dim
    if model.kind == "gaussian":
        return -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
    nu = model.dof
    const = (gammaln((d + nu) / 2.0) - gammaln(nu / 2.0)
             - 0.5 * d * np.log(np.pi * nu) - 0.5 * logdet)
    return const - 0.5 * (d + nu) * np.log1p(quad / nu)


def eta_from_ratio_mc(nominal: NominalModel, actual: NominalModel, lam: float,
                      n: int, seed: int) -> MCEstimate:
    """Monte-Carlo divergence radius between two parametric models.

    Draws from the nominal model and averages G(g/f) using the analytic
    log-density ratio; the ratio is exponentiated only after the overflow
    check, so heavy-tailed ratios fail with a named reason, not an inf.
    Identical models give a zero log ratio and so exactly zero.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    draws = sample_model(nominal, n, seed)
    logratio = log_density(actual, draws) - log_density(nominal, draws)
    scale = lam + 1.0 if lam > 0 else 1.0
    if np.max(scale * logratio) > 700.0:
        raise OverflowError(
            "density ratio overflows the divergence integrand; "
            "a smaller lam keeps the estimate finite"
        )
    return _mc_estimate(_G(np.exp(logratio), logratio, lam))
