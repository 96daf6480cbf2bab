"""Return models with each kind's sampler and log density (the only readers
of a model's Cholesky factor), scenario generation and price-data ingestion.

Every sampled row comes from one row-block sampler, _sample_blocks, which
yields a draw's rows _BLOCK at a time (the last block takes a lone last
row): sample_model fills its output from it, and evaluate.draw_scenarios
and divergence.eta_from_ratio_mc read each block as it comes, so neither
holds an n x d array of draws (a Student-t draw holds its current chunk's
normals, at most _CHUNK rows).

Scenario sets hold gross asset returns R = 1 + r and gross index returns
B = 1 + b over N sampled (or historical) periods; they are the empirical
stand-in for the nominal distribution everywhere else in the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

# Rows are sampled in fixed-size chunks, each from its own stream seeded
# from (seed, chunk index); these per-chunk streams fix the draws for each
# (seed, n).
_CHUNK = 1 << 18
# Rows per block of the sampler and of solver._gram's sum.  A d x _BLOCK
# product stays in cache: at N = 2e5 and d = 4 (2 vCPUs, 1 BLAS thread)
# _gram's blocks of 8,192 rows took 0.82 ms, 4,096 or 16,384 rows 0.96 ms
# and the whole d x N product 2.30 ms.
_BLOCK = 8192


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
        if not abs(w.sum() - 1.0) <= 1e-12:     # a NaN weight fails here too
            raise ValueError(f"index weights must sum to 1, got {float(w.sum())!r}")


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
        if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
            raise ValueError("mean and scale must be finite")
        if not np.allclose(scale, scale.T, atol=1e-12):
            raise ValueError("scale matrix must be symmetric")
        # PD check once, factor reused by the sampler and the density.
        try:
            chol = np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise ValueError("scale matrix is not positive definite") from exc
        if self.kind == "student_t" and not 0 < (self.dof or 0) < np.inf:
            raise ValueError("student_t model requires a finite dof > 0")
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
    The set's arrays are read-only views, so no solve or metric can write
    the caller's scenarios; the caller's own arrays stay writeable.
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
        if not (np.isfinite(R).all() and np.isfinite(B).all()):
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


def _sample_blocks(model: NominalModel, n: int, seed: int, out=None):
    """Yield (rows, x): the rows ``rows`` (a slice) of the n draws of
    sample_model(model, n, seed), written into out[rows] where out is given
    and otherwise into one buffer that the next block overwrites.

    Blocks start at every multiple of _BLOCK, which divides _CHUNK, and the
    last block takes a lone last row: numpy multiplies a single row by
    another BLAS routine than the whole draw's, so only a one-row draw has a
    one-row block.  A block is multiplied in parts split where a chunk
    starts (only at a lone last row), so each row's operations are those of
    a whole-chunk draw and the rows have its bits.  A Gaussian part draws
    its normals into its own rows and multiplies them in place; a Student-t
    chunk draws all its normals (into out, where given), then its
    chi-squares, so it holds its m x d normals while its blocks are formed.
    """
    d, chol_t, heavy = model.dim, model._chol.T, model.kind == "student_t"
    block = np.empty((min(n, _BLOCK + 1), d)) if out is None else None
    normals = np.empty((min(n, _CHUNK), d)) if heavy and out is None else None
    for start in range(0, n - (n > 1), _BLOCK):
        stop = start + _BLOCK if start + _BLOCK < n - 1 else n
        x = block[:stop - start] if out is None else out[start:stop]
        cuts = sorted({start, max(start, (stop - 1) // _CHUNK * _CHUNK), stop})
        for lo, hi in zip(cuts, cuts[1:]):
            ci, i = divmod(lo, _CHUNK)          # lo's chunk and its row there
            if i == 0:
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
                if heavy:
                    m = min(_CHUNK, n - lo)
                    z = rng.standard_normal(out=normals[:m] if out is None else out[lo:lo + m])
                    w = rng.chisquare(model.dof, m)
                    np.sqrt(np.divide(model.dof, w, out=w), out=w)
            y = x[lo - start:hi - start]
            np.matmul(z[i:i + hi - lo] if heavy else rng.standard_normal(out=y), chol_t, out=y)
            if heavy:
                y *= w[i:i + hi - lo, None]
        x += model.mean
        yield slice(start, stop), x


def sample_model(model: NominalModel, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. simple-return rows from the model.

    Student-t rows are the Gaussian rows scaled by sqrt(dof / chi-square).
    Deterministic for a fixed (model, n, seed) triple; rows are produced in
    fixed chunks whose streams depend only on (seed, chunk index), and
    written into the output a block at a time (_sample_blocks), so a
    Gaussian draw holds one block (numpy's copy for the in-place product)
    beside its output, and a Student-t draw its chunk's scales too.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((n, model.dim))
    for _ in _sample_blocks(model, n, seed, out):
        pass
    return out


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


def synthesize_index(asset_returns: np.ndarray, comp: IndexComposition) -> np.ndarray:
    """Per-row index simple return b_i = w' r_i."""
    r = np.asarray(asset_returns, dtype=float)
    if r.ndim != 2 or r.shape[1] != comp.weights.size:
        raise ValueError(
            f"asset return columns ({r.shape[1] if r.ndim == 2 else '?'}) "
            f"do not match composition size ({comp.weights.size})"
        )
    return r @ comp.weights


def scenarios_from(asset_returns: np.ndarray, index_returns: np.ndarray) -> ScenarioSet:
    """Build a ScenarioSet of gross returns from simple returns."""
    return ScenarioSet(R=np.add(1.0, np.asarray(asset_returns, dtype=float), order="F"),
                       B=1.0 + np.asarray(index_returns, dtype=float))


@dataclass(frozen=True)
class LoadedPrices:
    """Simple returns derived from a price CSV."""

    returns: np.ndarray             # (T-1, n_cols) simple returns


def _number(cell):
    """The float a CSV cell holds, or None."""
    try:
        return float(cell)
    except ValueError:
        return None


def load_prices_csv(path) -> LoadedPrices:
    """Load a CSV of strictly positive prices and convert to simple returns.

    One column per instrument, one row per period, optional single header
    row, after an optional UTF-8 byte-order mark.  Rows must be rectangular;
    missing or non-numeric cells are rejected rather than imputed.
    """
    rows = []
    header_width = None
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for line_no, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            try:                       # a row of numbers, converted whole
                rows.append(list(map(float, rec)))
                continue
            except ValueError:         # a blank row, a header or a bad cell
                pass
            if all(cell.strip() == "" for cell in rec):
                continue
            # only a fully non-numeric first row counts as a header
            if header_width is None and not rows and all(_number(c) is None for c in rec):
                header_width = len(rec)
            else:
                raise DataError(f"{path}: non-numeric cell on line {line_no}")
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 price rows, got {len(rows)}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: ragged rows (expected {width} columns)")
    if header_width not in (None, width):
        raise DataError(f"{path}: header width does not match data width")
    prices = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(prices)):
        raise DataError(f"{path}: prices contain NaN or infinite entries")
    if np.any(prices <= 0):
        raise DataError(f"{path}: prices must be strictly positive")
    returns = prices[1:] / prices[:-1] - 1.0
    return LoadedPrices(returns=returns)
