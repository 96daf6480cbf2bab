"""Return models, scenario generation and price-data ingestion.

Scenario sets hold gross asset returns R = 1 + r and gross index returns
B = 1 + b over N sampled (or historical) periods; they are the empirical
stand-in for the nominal distribution everywhere else in the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Rows are sampled in fixed-size chunks, each from its own stream seeded
# from (seed, chunk index); these per-chunk streams fix the draws for each
# (seed, n).
_CHUNK = 1 << 18


class DataError(ValueError):
    """Raised for malformed or unusable input data."""


@dataclass(frozen=True)
class IndexComposition:
    """Fixed index weights over the underlying assets.

    Weights must be non-negative and sum to one (within 1e-12).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(w < 0):
            raise ValueError("index weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"index weights must sum to 1, got {w.sum()!r}")

    @property
    def n_assets(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class NominalModel:
    """Parametric model for the joint one-period simple returns.

    kind is ``gaussian`` or ``student_t``.  ``scale`` is the covariance for
    the Gaussian case and the scale matrix (not the covariance) for the
    Student-t case; the Student-t covariance is dof/(dof-2) * scale and
    requires dof > 2.
    """

    kind: str
    mean: np.ndarray
    scale: np.ndarray
    dof: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        mean = np.asarray(self.mean, dtype=float)
        scale = np.asarray(self.scale, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if scale.shape != (mean.size, mean.size):
            raise ValueError("scale must be square and match the mean dimension")
        if not np.allclose(scale, scale.T, atol=1e-12):
            raise ValueError("scale matrix must be symmetric")
        # PD check once, factor reused by the sampler.
        try:
            chol = np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise ValueError("scale matrix is not positive definite") from exc
        if self.kind == "student_t":
            if self.dof is None or self.dof <= 0:
                raise ValueError("student_t model requires dof > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def gaussian(cls, mean, cov) -> "NominalModel":
        return cls(kind="gaussian", mean=mean, scale=cov)

    @classmethod
    def student_t(cls, mean, scale, dof) -> "NominalModel":
        return cls(kind="student_t", mean=mean, scale=scale, dof=float(dof))

    @property
    def dim(self) -> int:
        return self.mean.size

    def with_mean_scaled(self, k: float) -> "NominalModel":
        """Same dispersion, mean multiplied by the scalar k."""
        return NominalModel(self.kind, k * self.mean, self.scale, self.dof)


@dataclass(frozen=True)
class ScenarioSet:
    """Gross asset returns R (N x d) and gross index returns B (N,).

    R is stored column-major, one contiguous column per asset, so the
    solvers' products R @ u, R.T @ v and R.T (w R) stream whole columns.
    The set's arrays are read-only views, so a scenario set can be shared
    across threads; the caller's own arrays stay writeable.
    """

    R: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        R = np.asfortranarray(self.R, dtype=float)
        B = np.ascontiguousarray(self.B, dtype=float)
        if R.ndim != 2 or B.ndim != 1 or R.shape[0] != B.shape[0]:
            raise ValueError("R must be (N, d) and B must be (N,) with matching N")
        if R.shape[0] < 1:
            raise ValueError("scenario set must contain at least one row")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(B))):
            raise DataError("scenario returns contain NaN or infinite entries")
        R, B = R.view(), B.view()      # the caller's arrays stay writeable
        R.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @property
    def d(self) -> int:
        return self.R.shape[1]

    def shortfall(self, u) -> np.ndarray:
        """Per-scenario shortfall x = B - R'u of the portfolio u, in one array."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d,):
            raise ValueError("weight dimension does not match the scenario set")
        x = self.R @ u
        return np.subtract(self.B, x, out=x)


def sample_model(model: NominalModel, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. simple-return rows from the model.

    Student-t rows are the Gaussian rows scaled by sqrt(dof / chi-square).
    Deterministic for a fixed (model, n, seed) triple; rows are produced in
    fixed chunks whose streams depend only on (seed, chunk index).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((n, model.dim))
    for ci, start in enumerate(range(0, n, _CHUNK)):
        m = min(_CHUNK, n - start)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
        z = np.matmul(rng.standard_normal((m, model.dim)), model._chol.T,
                      out=out[start:start + m])
        if model.kind == "student_t":
            z *= np.sqrt(model.dof / rng.chisquare(model.dof, m))[:, None]
        z += model.mean
    return out


def synthesize_index(asset_returns: np.ndarray, comp: IndexComposition) -> np.ndarray:
    """Per-row index simple return b_i = w' r_i."""
    r = np.asarray(asset_returns, dtype=float)
    if r.ndim != 2 or r.shape[1] != comp.n_assets:
        raise ValueError(
            f"asset return columns ({r.shape[1] if r.ndim == 2 else '?'}) "
            f"do not match composition size ({comp.n_assets})"
        )
    return r @ comp.weights


def scenarios_from(asset_returns: np.ndarray, index_returns: np.ndarray) -> ScenarioSet:
    """Build a ScenarioSet of gross returns from simple returns."""
    return ScenarioSet(R=np.add(1.0, np.asarray(asset_returns, dtype=float), order="F"),
                       B=1.0 + np.asarray(index_returns, dtype=float))


@dataclass(frozen=True)
class LoadedPrices:
    """Simple returns derived from a price CSV plus column metadata."""

    returns: np.ndarray             # (T-1, n_cols) simple returns
    columns: Optional[list] = None  # header names if the file had a header row


def load_prices_csv(path) -> LoadedPrices:
    """Load a CSV of strictly positive prices and convert to simple returns.

    One column per instrument, one row per period, optional single header
    row.  Rows must be rectangular; missing or non-numeric cells are
    rejected rather than imputed.
    """
    rows = []
    header = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, rec in enumerate(csv.reader(fh), start=1):
            if not rec or all(cell.strip() == "" for cell in rec):
                continue
            try:
                rows.append([float(cell) for cell in rec])
            except ValueError:
                def _numeric(cell):
                    try:
                        float(cell)
                        return True
                    except ValueError:
                        return False
                # only a fully non-numeric first row counts as a header
                if header is None and not rows and not any(map(_numeric, rec)):
                    header = [cell.strip() for cell in rec]
                    continue
                raise DataError(f"{path}: non-numeric cell on line {line_no}")
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 price rows, got {len(rows)}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: ragged rows (expected {width} columns)")
    if header is not None and len(header) != width:
        raise DataError(f"{path}: header width does not match data width")
    prices = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(prices)):
        raise DataError(f"{path}: prices contain NaN or infinite entries")
    if np.any(prices <= 0):
        raise DataError(f"{path}: prices must be strictly positive")
    returns = prices[1:] / prices[:-1] - 1.0
    return LoadedPrices(returns=returns, columns=header)
