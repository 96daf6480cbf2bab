import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import robusttrack as rt

settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Five-asset benchmark market shared across the simulation tests: per-period
# mean returns, diagonal covariance and fixed index weights.
MU5 = np.array([0.0025, 0.0035, 0.0010, 0.0005, 0.0045])
SIGMA5 = np.diag([0.0020, 0.0025, 0.0012, 0.0001, 0.0033])
WEIGHTS5 = np.array([0.15, 0.20, 0.20, 0.15, 0.30])
# The same market with every covariance entry non-zero.
FULL5 = SIGMA5 + 0.0004 * np.outer(np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 5))
# Draw sizes at the edges of the sampler's 8,192-row blocks and of its
# 2^18-row chunks (2^18 + 1 ends in a chunk of one row).
DRAW_SIZES = [1, 3, 8191, 8192, 8193, (1 << 18) + 1, (1 << 18) + 3, 300_001]


def market_model(kind, cov=SIGMA5):
    """The five-asset market as a Gaussian or a t(10) model."""
    if kind == "gaussian":
        return rt.NominalModel.gaussian(MU5, cov)
    return rt.NominalModel.student_t(MU5, cov, dof=10.0)


@pytest.fixture(scope="session")
def market5():
    return MU5, SIGMA5, WEIGHTS5


@pytest.fixture(scope="session")
def composition5():
    return rt.IndexComposition(WEIGHTS5)


@pytest.fixture(scope="session")
def gaussian5():
    return rt.NominalModel.gaussian(MU5, SIGMA5)


def make_scenarios(n=4000, seed=0, model=None, weights=WEIGHTS5, tracked=(0, 1, 2, 3)):
    """Fit-style scenario set: track a subset of the benchmark assets."""
    model = model or rt.NominalModel.gaussian(MU5, SIGMA5)
    draws = rt.sample_model(model, n, seed)
    comp = rt.IndexComposition(weights)
    return rt.scenarios_from(draws[:, list(tracked)], rt.synthesize_index(draws, comp))


def peak_arrays(call, n):
    """The peak memory that call() allocates, under tracemalloc, in arrays
    of n floats."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


@pytest.fixture(scope="session")
def scenarios4k():
    return make_scenarios(n=4000, seed=11)


def replicable_panel():
    """(stock returns, index returns) of the fixed 60 x 4 price panel whose
    index (column 0) is an exact combination of the three stocks, as the CLI
    backtest builds them."""
    rng = np.random.default_rng(8)
    r = 0.02 * rng.standard_normal((60, 3)) + 0.001
    w = np.linspace(0.5, 0.1, 3)
    prices = 100.0 * np.cumprod(1.0 + np.column_stack([r @ w / w.sum(), r]), axis=0)
    ret = prices[1:] / prices[:-1] - 1.0
    return ret[:, 1:], ret[:, 0]


def replicable_window(k, window=40):
    """Window k of the replicable panel."""
    r, b = replicable_panel()
    return rt.scenarios_from(r[k:k + window], b[k:k + window])
