"""Tracking losses and the negative-loss payoff of the paper's formulation.

Three loss kinds on the shortfall x = B - R'u:

    quadratic:        l(x) = x^2
    smoothed_pos_sq:  l(x) = (x^2 + eps^2) Phi(x/eps) + x eps phi(x/eps),
                      a Gaussian smoothing of x^2 1{x>0}
    smoothed_plus:    l(x) = x + eps log(1 + exp(-x/eps)),
                      the smooth-plus surrogate for max(x, 0)

The payoff is H(u) = -l(B - R'u), -(R'u - B)^2 for the quadratic kind.
No solver calls payoff_H; it gives H and its gradient for checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

QUADRATIC = "quadratic"
SMOOTHED_POS_SQ = "smoothed_pos_sq"
SMOOTHED_PLUS = "smoothed_plus"
_KINDS = (QUADRATIC, SMOOTHED_POS_SQ, SMOOTHED_PLUS)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class LossSpec:
    """Loss selector; eps is the smoothing width for the smoothed kinds."""

    kind: str = QUADRATIC
    epsilon: float = 0.01

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind != QUADRATIC and not (self.epsilon > 0):
            raise ValueError("smoothed losses require epsilon > 0")

    @classmethod
    def quadratic(cls) -> "LossSpec":
        return cls(kind=QUADRATIC)

    @classmethod
    def smoothed_pos_sq(cls, epsilon: float = 0.01) -> "LossSpec":
        return cls(kind=SMOOTHED_POS_SQ, epsilon=epsilon)

    @classmethod
    def smoothed_plus(cls, epsilon: float = 0.01) -> "LossSpec":
        return cls(kind=SMOOTHED_PLUS, epsilon=epsilon)


def _phi(t):
    """The standard normal density at t."""
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _terms(spec: LossSpec, x, derivs=True):
    """(l,) at the float array x, or with derivs (l, l', l'').  Each special
    function is formed once: Phi(x/eps) and phi(x/eps) for smoothed_pos_sq,
    w = exp(-|x|/eps) for smoothed_plus.  The terms are fresh arrays, worked
    in place where that saves one, and x is only read; a 0-d x gives numpy
    scalars."""
    eps = spec.epsilon
    if spec.kind == QUADRATIC:
        l = x * x
        return (l, 2.0 * x, np.full_like(x, 2.0)) if derivs else (l,)
    if spec.kind == SMOOTHED_POS_SQ:
        # Phi is formed before phi: the solve's peak RSS depends on the
        # order (see solve_robust)
        t = x / eps
        cdf = ndtr(t)
        pdf = _phi(t)
        del t
        # far in the left tail the terms cancel and can round below 0
        l = np.maximum((x * x + eps**2) * cdf + x * eps * pdf, 0.0)
        if not derivs:
            return (l,)
        pdf *= 2.0 * eps
        lp = 2.0 * x * cdf + pdf
        del pdf
        lp = np.maximum(lp, 0.0)
        cdf *= 2.0
        return l, lp, cdf
    # the stable form of x + eps*log(1+exp(-x/eps)); exact for both tails
    w = np.exp(-np.abs(x) / eps)
    l = np.maximum(x, 0.0) + eps * np.log1p(w)
    if not derivs:
        return (l,)
    den = 1.0 + w
    lp = np.where(x >= 0, 1.0, w) / den   # the logistic function without overflow
    # the symmetric stable form of exp(x/eps) / (eps (1+exp(x/eps))^2)
    den *= den
    den *= eps
    w /= den
    return l, lp, w


def _term(spec: LossSpec, x, i):
    """Term i of (l, l', l'') at x: a float for a scalar x."""
    out = _terms(spec, np.asarray(x, dtype=float), derivs=i > 0)[i]
    return float(out) if out.ndim == 0 else out


def loss_value(spec: LossSpec, x):
    return _term(spec, x, 0)


def loss_deriv1(spec: LossSpec, x):
    return _term(spec, x, 1)


def loss_deriv2(spec: LossSpec, x):
    return _term(spec, x, 2)


def raw_loss_value(spec: LossSpec, x):
    """Unsmoothed counterpart used for performance comparisons.

    quadratic -> x^2, smoothed_pos_sq -> max(x,0)^2, smoothed_plus -> max(x,0).
    The one-sided raw losses are exactly zero whenever the portfolio return
    is at or above the index return, which makes "both losses zero" ties
    well defined.
    """
    x = np.asarray(x, dtype=float)
    if spec.kind == QUADRATIC:
        out = x * x
    elif spec.kind == SMOOTHED_POS_SQ:
        out = np.square(np.maximum(x, 0.0))
    else:
        out = np.maximum(x, 0.0)
    return float(out) if out.ndim == 0 else out


def payoff_H(spec: LossSpec, u, R_row, B_row):
    """Payoff value and gradient for one scenario.

    value = -l(B - R'u); gradient dH/du = l'(B - R'u) * R.
    """
    u = np.asarray(u, dtype=float)
    R_row = np.asarray(R_row, dtype=float)
    if u.shape != R_row.shape:
        raise ValueError("u and R_row dimensions do not agree")
    x = float(B_row) - float(R_row @ u)
    return -loss_value(spec, x), loss_deriv1(spec, x) * R_row
