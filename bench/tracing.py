"""Span tracing of robusttrack from outside the package.

Each traced function is replaced, for the length of a traced round, in the
namespace of the module that calls it (for example `robusttrack.solver.
loss_value`), so only calls made from that module are seen.  A span holds
its name, the calling module, its parent span, start and end times, the
number of points for loss kernels, the exception name on failure and the
Newton iteration count of a robust solve.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

# (calling module, attribute, span name)
TRACE_POINTS = (
    ("cli", "load_prices_csv", "model.load_prices_csv"),
    ("cli", "run_table", "evaluate.run_table"),
    ("cli", "backtest_sliding", "evaluate.backtest_sliding"),
    ("cli", "write_table_csv", "evaluate.write_table_csv"),
    ("cli", "write_table_json", "evaluate.write_table_json"),
    ("cli", "write_backtest_json", "evaluate.write_backtest_json"),
    ("cli", "write_plot_csv", "evaluate.write_plot_csv"),
    ("evaluate", "sample_model", "model.sample_model"),
    ("evaluate", "scenarios_from", "model.scenarios_from"),
    ("evaluate", "k_from_eta", "divergence.k_from_eta"),
    ("evaluate", "divergence_gaussian_equal_cov", "divergence.divergence_gaussian_equal_cov"),
    ("evaluate", "eta_from_ratio_mc", "divergence.eta_from_ratio_mc"),
    ("evaluate", "solve_robust", "solver.solve_robust"),
    ("evaluate", "solve_nonrobust", "solver.solve_nonrobust"),
    ("evaluate", "compare", "evaluate.compare"),
    ("evaluate", "loss_value", "loss.loss_value"),
    ("solver", "loss_value", "loss.loss_value"),
    ("solver", "loss_deriv1", "loss.loss_deriv1"),
    ("solver", "loss_deriv2", "loss.loss_deriv2"),
)
KERNELS = ("loss.loss_value", "loss.loss_deriv1", "loss.loss_deriv2")
RADIUS = ("divergence.k_from_eta", "divergence.divergence_gaussian_equal_cov",
          "divergence.eta_from_ratio_mc")
WRITERS = ("evaluate.write_table_csv", "evaluate.write_table_json",
           "evaluate.write_backtest_json", "evaluate.write_plot_csv")
DRIVERS = ("evaluate.run_table", "evaluate.backtest_sliding")
# calls whose arguments and results the correctness checks read
KEEP = ("solver.solve_robust", "solver.solve_nonrobust", "evaluate.compare")

# span fields
NAME, SITE, PARENT, START, END, POINTS, ERROR, ITERS = range(8)


class Tracer:
    """Records spans while installed; `kept` maps span index to
    (args, kwargs, result) for the KEEP calls of a round that asked for them."""

    def __init__(self):
        self.spans = []
        self.kept = {}
        self._stack = []
        self._saved = []

    def install(self, keep_args=False):
        """Wrap every trace point; with keep_args, also keep the KEEP calls."""
        for site, attr, name in TRACE_POINTS:
            module = importlib.import_module(f"robusttrack.{site}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, site, keep_args and name in KEEP))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def call(self, name, fn, *args):
        """Run fn(*args) as a span opened by the benchmark itself."""
        return self._wrap(fn, name, "bench", False)(*args)

    def _wrap(self, fn, name, site, keep):
        spans, stack, kept, clock = self.spans, self._stack, self.kept, time.perf_counter
        kernel = name in KERNELS

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, site, stack[-1] if stack else -1, 0.0, 0.0, 0, None, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                stack.pop()
                rec[ERROR] = type(exc).__name__
                raise
            rec[END] = clock()
            stack.pop()
            if kernel:
                rec[POINTS] = int(np.size(args[1]))
            elif name == "solver.solve_robust":
                rec[ITERS] = result.iterations
            if keep:
                kept[idx] = (args, kwargs, result)
            return result

        return traced


def _self_time(spans, lo, hi):
    """Duration of each span in spans[lo:hi] less that of its direct children."""
    own = {i: spans[i][END] - spans[i][START] for i in range(lo, hi)}
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent in own:
            own[parent] -= spans[i][END] - spans[i][START]
    return own


def layer_metrics(spans, lo, hi):
    """Per-layer figures of one traced round, spans[lo:hi]."""
    rnd = range(lo, hi)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(names):
        return sum(dur(i) for i in rnd if spans[i][NAME] in names)

    own = _self_time(spans, lo, hi)
    robust = [i for i in rnd if spans[i][NAME] == "solver.solve_robust"]
    robust_set = set(robust)
    kernel_all = [i for i in rnd if spans[i][NAME] in KERNELS]
    kernel_in_robust = [i for i in kernel_all if spans[i][PARENT] in robust_set]
    kernel_s = sum(dur(i) for i in kernel_all)
    points = sum(spans[i][POINTS] for i in kernel_all)
    robust_times = [dur(i) for i in robust]
    iters = sum(spans[i][ITERS] or 0 for i in robust)
    payoff_evals = sum(1 for i in kernel_in_robust if spans[i][NAME] == "loss.loss_value")
    main = [i for i in rnd if spans[i][NAME] == "cli.main"]
    return {
        "model.sample_s": total(("model.sample_model",)),
        "model.scenarios_s": total(("model.scenarios_from",)),
        "model.csv_load_s": total(("model.load_prices_csv",)),
        "divergence.radius_s": total(RADIUS),
        "loss.kernel_s": kernel_s,
        "loss.kernel_calls": len(kernel_all),
        "loss.kernel_points": points,
        "loss.ns_per_point": 1e9 * kernel_s / points if points else 0.0,
        "solver.robust_s": sum(robust_times),
        "solver.robust_calls": len(robust),
        "solver.robust_failed": sum(1 for i in robust if spans[i][ERROR]),
        "solver.robust_s_p50": _quantile(robust_times, 0.5),
        "solver.robust_s_p90": _quantile(robust_times, 0.9),
        "solver.robust_self_s": sum(robust_times) - sum(dur(i) for i in kernel_in_robust),
        "solver.newton_iters": iters,
        "solver.payoff_evals": payoff_evals,
        "solver.evals_per_iter": payoff_evals / iters if iters else 0.0,
        "solver.nonrobust_s": total(("solver.solve_nonrobust",)),
        "evaluate.compare_s": total(("evaluate.compare",)),
        "evaluate.write_s": total(WRITERS),
        "evaluate.self_s": sum(own[i] for i in rnd if spans[i][NAME] in DRIVERS),
        "cli.self_s": sum(own[i] for i in main),
    }


def _quantile(values, q):
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q))


def median_metrics(rounds):
    """Metric-by-metric median over the per-round dictionaries; the lower
    middle value when the count is even, so every figure is one measured."""
    return {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
