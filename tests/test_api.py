"""The public surface of the package.

Every exported name resolves; the names the acceptance gate and the
benchmark's tracer look up are present; names deleted as unused stay gone,
the option counts of the config types do not grow back, and no module holds
an unused import or an unread private name.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import robusttrack as rt
from robusttrack import cli

# The names the acceptance gate imports (ROADMAP, "Open items") and the
# config types.
GATE = ["payoff_H", "divergence_mc", "system_residual", "system_jacobian",
        "hessian_diagnostic", "scalar_G", "solve_robust", "solve_nonrobust",
        "run_table", "backtest_sliding",
        "SolverConfig", "BacktestConfig", "RowConfig", "DivergenceBall", "LossSpec"]
SRC = Path(rt.__file__).resolve().parent
DELETED = ["generator_F", "PerturbationSpec", "sample_gaussian", "sample_student_t",
           "estar_value", "excess_index"]


def test_all_names_resolve():
    for name in rt.__all__:
        assert hasattr(rt, name), name


def test_gate_names_exported():
    assert set(GATE) <= set(rt.__all__)


def test_trace_points_resolve():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from tracing import TRACE_POINTS
    finally:
        sys.path.pop(0)
    for module, attr, _ in TRACE_POINTS:
        assert hasattr(importlib.import_module(f"robusttrack.{module}"), attr), (module, attr)


def test_deleted_names_absent():
    for name in DELETED:
        assert not hasattr(rt, name), name
    assert not hasattr(rt.NominalModel, "empirical")
    assert not hasattr(rt.NominalModel, "covariance")
    assert not hasattr(rt.DivergenceBall, "is_kl")
    assert not hasattr(rt.LossSpec, "is_one_sided")
    assert [f.name for f in dataclasses.fields(rt.LoadedPrices)] == ["returns"]
    # values no caller read
    assert not hasattr(rt, "FeasibilityError")
    assert not hasattr(rt.IndexComposition, "n_assets")
    assert "plot_periods" not in [f.name for f in dataclasses.fields(rt.BacktestResult)]
    assert not hasattr(rt.evaluate, "table_rows_as_dicts")
    # the shortfall is ScenarioSet.shortfall, and the CLI draws through
    # evaluate.draw_scenarios
    for module in (rt.solver, rt.evaluate):
        assert not hasattr(module, "_shortfall"), module.__name__
    assert not hasattr(cli, "sample_model")
    # the table-row rule is RowConfig.resolve, and the pass moments are
    # formed in _kkt, their one reader
    for name in ("k_from_eta", "divergence_gaussian_equal_cov"):
        assert not hasattr(cli, name), name
    assert not hasattr(rt.solver, "_moments")


def test_option_counts():
    assert [f.name for f in dataclasses.fields(rt.SolverConfig)] == ["residual_tol"]
    assert [f.name for f in dataclasses.fields(rt.BacktestConfig)] == [
        "ball", "loss", "window", "out_of_sample", "solver"]
    for fn in (rt.compare, rt.run_table):
        assert "tie_tol" not in inspect.signature(fn).parameters, fn.__name__
    params = inspect.signature(rt.compare).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []
    for cfg in ({}, {"experiment": {"tie_tol": 0.5, "n_eval": 10}}):
        assert sorted(cli._experiment(cfg)) == ["n", "n_ratio", "seed"]
    # the config file defines the experiment; flags choose only the replicate
    # and the output directory
    actions = [a for a in cli.build_parser()._actions if a.dest != "help"]
    assert [a.option_strings[0] if a.option_strings else a.dest for a in actions] == [
        "command", "--config", "--seed", "--out"]
    assert actions[0].choices == ["divergence", "solve", "simulate", "backtest"]


def test_records_hold_only_what_is_read():
    assert [f.name for f in dataclasses.fields(rt.ScenarioSet)] == ["R", "B"]
    assert list(inspect.signature(rt.scenarios_from).parameters) == [
        "asset_returns", "index_returns"]
    assert "n_eval" not in inspect.signature(rt.run_table).parameters
    assert "hessian_max_eig" not in [f.name for f in dataclasses.fields(rt.RobustSolution)]
    assert "converged" not in [f.name for f in dataclasses.fields(rt.TableRow)]
    row = rt.TableRow(lam=0.1, eta=0.5, k=-1.0)
    assert not row.converged
    row.report = rt.compare([1.0], [1.0], rt.scenarios_from([[0.0]], [0.0]),
                            rt.LossSpec.quadratic())
    assert row.converged


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _loaded(tree):
    """The names a module reads: bare names and attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def test_every_import_is_used():
    # __init__.py imports only to re-export
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = set(_loaded(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in used, f"{name}: unused import {bound}"


def test_every_private_name_is_read():
    trees = _trees()
    read = {n for tree in trees.values() for n in _loaded(tree)}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__"):
                    assert private in read, f"{name}: {private} is never read"
