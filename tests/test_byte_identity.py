"""The CLI's outputs hold still, bit for bit, at 1 and 2 BLAS threads.

Four small runs of `track` cross the places where the order of a sum could
move: a Gaussian table whose sets cross the sampler's and _gram's 8,192-row
blocks, a Student-t row whose Monte-Carlo radius crosses the sampler's
2^18-row chunk, a weekly-style backtest over 8 windows and the replicable
backtest, whose first window fails.  Each thread count runs all four in one
process, because numpy fixes the count at import.  The SHA-256 of each
run's stdout and of each output file but manifest.json (which holds paths)
must equal those in byte_identity.json, which also records the numpy, scipy
and BLAS builds they were taken with; a build that differs fails, naming it.

A change that moves bits on purpose regenerates the file:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_byte_identity.py --write

and says in CHANGES.md which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MU5 = [0.0025, 0.0035, 0.0010, 0.0005, 0.0045]
SIGMA5 = np.diag([0.0020, 0.0025, 0.0012, 0.0001, 0.0033]).tolist()
MARKET = {"composition": [0.15, 0.20, 0.20, 0.15, 0.30], "tracked_assets": [0, 1, 2, 3]}
CONFIGS = {
    "gaussian_table": {
        "command": "simulate", **MARKET,
        "model": {"kind": "gaussian", "mean": MU5, "cov": SIGMA5},
        "ball": {"lambda": 0.1, "sign": "-", "eta_grid": [0.5]},
        "loss": {"kind": "l1", "epsilon": 0.01},
        "experiment": {"n": 3 * 8192 + 5, "seed": 151},
    },
    "student_t_row": {
        "command": "simulate", **MARKET,
        "model": {"kind": "student_t", "mean": MU5, "scale": SIGMA5, "dof": 10},
        "ball": {"lambda": 0.1, "k_grid": [-3.0]},
        "loss": {"kind": "l2", "epsilon": 0.01},
        "experiment": {"n": 4000, "seed": 151, "n_ratio": (1 << 18) + 3},
    },
    "weekly_backtest": {
        "command": "backtest",
        "data": {"csv": "weekly.csv", "index": "column", "index_col": 0,
                 "tracked": [4, 11, 12, 13, 15, 18, 21, 22, 23, 25, 26, 27]},
        "ball": {"lambda": 0.2, "eta": 0.005},
        "loss": {"kind": "quadratic"},
        "backtest": {"window": 104, "out_of_sample": 8},
    },
    "replicable_backtest": {
        "command": "backtest",
        "data": {"csv": "replicable.csv", "index": "column", "index_col": 0},
        "ball": {"lambda": 0.1, "eta": 0.02},
        "loss": {"kind": "l1", "epsilon": 0.01},
        "backtest": {"window": 40, "out_of_sample": 10},
    },
}
DIGESTS = Path(__file__).with_name("byte_identity.json")


def _prices():
    """(weekly.csv, replicable.csv) price panels, index in column 0.  The
    weekly index weighs 31 one-factor stocks, 12 of them tracked; the
    replicable index is a combination of its three stocks."""
    rng = np.random.default_rng(31)
    r = (rng.uniform(-0.001, 0.003, 31) + rng.uniform(0.6, 1.4, 31)
         * (0.0015 + 0.022 * rng.standard_normal((113, 1)))
         + rng.uniform(0.015, 0.04, 31) * rng.standard_normal((113, 31)))
    weekly = np.column_stack([r @ rng.dirichlet(np.full(31, 2.0)), r])
    rng = np.random.default_rng(8)
    r = 0.02 * rng.standard_normal((60, 3)) + 0.001
    w = np.linspace(0.5, 0.1, 3)
    replicable = np.column_stack([r @ w / w.sum(), r])
    return [100.0 * np.cumprod(1.0 + full, axis=0) for full in (weekly, replicable)]


def builds():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def digests(work: Path) -> dict:
    """Run the four configs in work, in this process; the SHA-256 of each
    one's stdout and output files, keyed by name."""
    from robusttrack import cli

    for name, prices in zip(("weekly.csv", "replicable.csv"), _prices()):
        (work / name).write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in prices) + "\n")
    out = {}
    for name, cfg in CONFIGS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps({**cfg, "io": {"out_dir": name}}))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main([cfg["command"], "--config", str(path)])
        out[f"{name}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for file in sorted((work / name).iterdir()):
            if file.name != "manifest.json":
                out[f"{name}/{file.name}"] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


def _run(threads, tmp_path):
    """A subprocess that runs the configs at this many OpenBLAS threads."""
    work = tmp_path / f"threads{threads}"
    work.mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve())], cwd=work,
                            env=env, stdout=subprocess.PIPE, text=True)


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    runs = {threads: _run(threads, tmp_path) for threads in (1, 2)}
    for threads, run in runs.items():
        stdout, _ = run.communicate(timeout=60)
        assert run.returncode == 0, f"{threads} thread(s): exit {run.returncode}"
        got = json.loads(stdout)
        for key, version in recorded["builds"].items():
            assert got["builds"][key] == version, (
                f"digests taken with {key} {version}, this is {got['builds'][key]}: "
                "regenerate byte_identity.json at the parent commit on this build")
        moved = sorted(set(got["digests"]) ^ set(recorded["digests"]) | {
            key for key, digest in recorded["digests"].items()
            if got["digests"].get(key, digest) != digest})
        assert not moved, f"{threads} thread(s): {moved} moved"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            record = {"builds": builds(), "digests": digests(Path(work))}
        DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps({"builds": builds(), "digests": digests(Path.cwd())}))
