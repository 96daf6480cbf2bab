"""Benchmark of the `track` CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Runs from the root of a robusttrack checkout and imports the package from
its `src/`.  The workload's inputs are written from the seed, then the CLI
entry point `robusttrack.cli.main` is called in this process round after
round until S seconds have passed.  Every round repeats the same solves.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh processes that import robusttrack and write the inputs), the wall
time of the median CLI call, and this process's peak resident memory.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (see tracing.py), plus the tracing overhead.

Either way the outputs are checked against the benchmark's own computations
(checks.py) and against the first round byte for byte.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
An operation is one robust solve: a table row or a backtest window.
Results, spans and CLI outputs go to bench/out/.
"""

import os
import sys

# Pin BLAS threads before numpy loads; the CLI promises byte-identical
# reruns only at a fixed thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

import workloads  # noqa: E402


def import_program():
    """robusttrack.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import robusttrack.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import robusttrack from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: robusttrack imported from {cli.__file__}, not {SRC}")
    return cli


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs, for the smoke test")
    ap.add_argument("--setup-only", metavar="DIR",
                    help="import robusttrack, write the inputs to DIR and exit")
    return ap.parse_args(argv)


def time_setups(args, work):
    """Wall times of fresh processes that import robusttrack and write the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.quick:
        cmd.append("--quick")
    times = []
    for i in range(2 if args.quick else SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd + ["--setup-only", str(work / f"setup{i}")],
                              cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"bench: set-up process failed:\n{done.stderr}")
    return times


def output_digest(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def machine_facts():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class Runner:
    """Calls the CLI round after round and keeps what the checks need."""

    def __init__(self, cli, config, out_dir):
        self.cli = cli
        self.argv = [json.loads(config.read_text())["command"], "--config", str(config)]
        self.out_dir = out_dir
        self.digest = None
        self.mismatches = 0
        self.exit_codes = set()
        self.stdout = None

    def round(self, tracer=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            if tracer is None:
                rc = self.cli.main(self.argv)
            else:
                rc = tracer.call("cli.main", self.cli.main, self.argv)
            elapsed = time.perf_counter() - t0
        self.exit_codes.add(rc)
        digest = output_digest(self.out_dir)
        if self.digest is None:
            self.digest, self.stdout = digest, buf.getvalue()
        elif digest != self.digest:
            self.mismatches += 1
        return elapsed


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, args.quick, Path(args.setup_only))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    setups = time_setups(args, work) if args.trace == 0 else []
    config = workloads.make_inputs(args.workload, args.seed, args.quick, work / "run")
    cfg = json.loads(config.read_text(encoding="utf-8"))
    out_dir = work / "run" / "out"
    runner = Runner(cli, config, out_dir)
    tables = args.workload in workloads.TABLES

    import tracing
    tracer = tracing.Tracer()

    def traced_round(keep_args):
        lo = len(tracer.spans)
        tracer.install(keep_args)
        try:
            elapsed = runner.round(tracer)
        finally:
            tracer.uninstall()
        return elapsed, tracing.layer_metrics(tracer.spans, lo, len(tracer.spans))

    untraced, traced, layer_rounds = [], [], []
    start = time.perf_counter()
    while True:
        if args.trace == 0:
            untraced.append(runner.round())
        else:
            # alternate the order so that drift favours neither side
            for use_tracer in (False, True) if len(traced) % 2 == 0 else (True, False):
                if use_tracer:
                    elapsed, layers = traced_round(keep_args=tables and not traced)
                    traced.append(elapsed)
                    layer_rounds.append(layers)
                else:
                    untraced.append(runner.round())
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(untraced) + len(traced)
    if tables and args.trace == 0:
        # the table outputs lack the weights; the checks read them from one
        # more round, traced, after the memory figure is taken
        traced_round(keep_args=True)
        rounds += 1

    import checks as chk
    checks = chk.Checks()
    checks.expect(runner.mismatches == 0,
                  f"{runner.mismatches} rounds wrote outputs that differ from the first")
    if tables:
        calls = [(tracer.spans[i][tracing.NAME],) + kept for i, kept in sorted(tracer.kept.items())]
        chk.check_table(checks, cfg, out_dir, calls, args.seed)
        rows = json.loads((out_dir / "table.json").read_text(encoding="utf-8"))
        ops_per_round = len(rows)
        failed_per_round = sum(1 for row in rows if not row["converged"])
        tracer.kept.clear()
    else:
        ops_per_round = cfg["backtest"]["out_of_sample"]
        failed_per_round = chk.check_backtest(checks, cfg, out_dir)
    # `track simulate` exits 3 when a table row fails; `track backtest`
    # carries the previous weights forward and exits 0
    expected_exit = 3 if tables and failed_per_round else 0
    checks.expect(runner.exit_codes == {expected_exit},
                  f"CLI exit codes {sorted(runner.exit_codes)}, expected {expected_exit}")
    for layers in layer_rounds:
        checks.expect(layers["solver.robust_calls"] == ops_per_round
                      and layers["solver.robust_failed"] == failed_per_round,
                      f"traced round saw {layers['solver.robust_calls']} robust solves, "
                      f"{layers['solver.robust_failed']} failed")

    if args.trace == 0:
        values = {"setup_s": statistics.median(setups), "run_s": statistics.median(untraced),
                  "peak_rss_mb": peak_rss_mb}
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        values = tracing.median_metrics(layer_rounds)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        names = [m["name"] for m in spec["per_layer"]]
        write_spans(work / "spans.jsonl", tracer.spans)
    if sorted(values) != sorted(names):
        sys.exit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")

    result = {
        "correct": not checks.failures,
        "attempted": ops_per_round * rounds,
        "failed": failed_per_round * rounds,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    facts = machine_facts()
    (work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "quick": args.quick,
         "rounds": rounds, "setup_s": setups,
         "round_s": {"untraced": untraced, "traced": traced},
         "checks": checks.count, "check_failures": checks.failures,
         "machine": facts, **result}, indent=2) + "\n", encoding="utf-8")

    print(runner.stdout, end="")
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"rounds: {rounds}, operations per round: {ops_per_round}, "
          f"failed per round: {failed_per_round}")
    print(f"checks: {checks.count - len(checks.failures)} of {checks.count} passed")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    for n in names:
        print(f"{n} = {values[n]:.6g} {units[n]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
