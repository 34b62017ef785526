#!/usr/bin/env python3
"""curv4 benchmark: end-to-end and per-layer metrics on four workloads.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
same tree; nothing is installed.  One closed-loop caller: every worker
process and every CLI invocation runs alone, with BLAS/OpenMP pinned to one
thread.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run;
lines before it are ``{"info": ...}`` records (environment stamp, the
metrics under the names the workload definitions use, tail percentiles and
sample counts).  Exit code 0 with a result line, otherwise no result line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from clidocs import CLI_COMMANDS, METRIC, OPERATOR, CheckFailed, check_cli  # noqa: E402

WORKLOADS = ("cli-docs", "frame-search", "kaehler-certify", "metric-field")
THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_REPS = 3  # set-up is measured this many times per run; the median counts
# cli-docs runs whole sweeps of the documented commands, one per CLI_SWEEP_S
# of --seconds and at least three, so the command mix, and with it the rank
# the tail percentile picks, is the same on every commit.  With three sweeps
# that rank (the 35th of 45) falls among the metric commands; with two it
# would be the slowest operator command.
CLI_SWEEP_S = 7.0
CLI_MIN_SWEEPS = 3
# In-process workloads under trace run a fixed number of operations, so the
# per-op counters repeat exactly for a seed.
TRACE_OPS = {"frame-search": 1, "kaehler-certify": 100, "metric-field": 1000}
RUN_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))
PER_LAYER = (
    ("init.import_s", "s"),
    ("init.sympy_imported", "count"),
    ("cli.main_warm_ms", "ms"),
    ("bivectors.induced_map_calls_per_op", "count"),
    ("bivectors.induced_map_us", "us"),
    ("obstructions.residual_evals_per_op", "count"),
    ("obstructions.restarts_per_op", "count"),
    ("obstructions.so4_exp_calls_per_op", "count"),
    ("obstructions.so4_exp_us", "us"),
    ("obstructions.wasted_eval_frac", "ratio"),
    ("obstructions.ricciflat_nullspace_ms", "ms"),
    ("obstructions.c_system_solve_ms", "ms"),
    ("obstructions.c_system_solve_calls_per_op", "count"),
    ("obstructions.selfdual_classify_ms", "ms"),
    ("obstructions.scalar_sign_check_ms", "ms"),
    ("operators.decompose_us", "us"),
    ("operators.decompose_calls_per_op", "count"),
    ("operators.conjugate_calls_per_op", "count"),
    ("operators.ricci_calls_per_op", "count"),
    ("kahler.kaehler_residuals_us", "us"),
    ("kahler.kaehler_residuals_calls_per_op", "count"),
    ("kahler.coeffs_in_frame_calls_per_op", "count"),
    ("metrics.parse_ms", "ms"),
    ("metrics.primary_build_ms", "ms"),
    ("metrics.oracle_build_ms", "ms"),
    ("metrics.curvature_at_us", "us"),
    ("metrics.christoffel_oracle_us", "us"),
    ("metrics.nabla_J_us", "us"),
    ("metrics.unitary_product_us", "us"),
) + tuple(
    (f"{layer}.self_ms_per_op", "ms")
    for layer in ("bench", "cli", "bivectors", "operators", "kahler", "metrics", "obstructions")
) + (("trace.overhead_frac", "ratio"),)


class BenchError(Exception):
    """The benchmark itself could not run; no result line is printed."""


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it; with ten or fewer samples none has, and the maximum
    is reported as the 100th percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def gate_tail(samples):
    """The tail ``op_tail_ms`` gates: ``tail``, capped at the 90th percentile.
    Beyond p90 the value on a shared host is set by other tenants: the p99.3
    of identical kaehler-certify runs read 19.5 ms in one run and 52.8 ms in
    the next."""
    n = len(samples)
    if n < 100:  # p90 would have fewer than ten samples beyond it
        return tail(samples)
    k = int(0.9 * n)
    return sorted(samples)[k - 1], 100.0 * k / n, n


def describe(samples, scale, unit, rule=tail):
    value, pct, n = rule(samples)
    return {
        "p50": {"value": statistics.median(samples) * scale, "unit": unit},
        "tail": {"value": value * scale, "unit": unit, "percentile": round(pct, 2), "n": n},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Launches children one at a time inside the run's time budget."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, argv):
        """(launch time, wall seconds, completed process)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        launch = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{argv[:4]} did not finish within the run budget") from err
        return launch, time.perf_counter() - launch, proc

    def worker(self, *args):
        launch, _, proc = self.run([sys.executable, str(BENCH / "worker.py"), *args])
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return launch, json.loads(proc.stdout.splitlines()[-1])

    def cli(self, command):
        return self.run([sys.executable, "-m", "curv4.cli", *shlex.split(command)])


# ---------------------------------------------------------------------------
# cli-docs


def _cli_order(rng):
    order = list(range(len(CLI_COMMANDS)))
    rng.shuffle(order)
    return order


def _check_cli_output(index, code, stdout, stderr, reference, errors):
    """Gate one invocation: documented exit code and verdict fields, and
    output byte-identical to the first invocation of the same command."""
    try:
        check_cli(index, code, stdout, stderr)
        first = reference.setdefault(index, (code, stdout))
        if first != (code, stdout):
            raise CheckFailed(f"`{CLI_COMMANDS[index][1]}` output differs between invocations")
    except CheckFailed as err:
        errors.append(str(err))
        return False
    return True


def cli_setup(runner):
    return statistics.median(
        runner.run([sys.executable, "-c", "import curv4"])[1] for _ in range(SETUP_REPS)
    )


def cli_docs(runner, seed, seconds):
    setup = cli_setup(runner)
    rng = random.Random(seed)
    sweeps = max(CLI_MIN_SWEEPS, int(seconds // CLI_SWEEP_S))
    walls = {OPERATOR: [], METRIC: []}
    reference, errors = {}, []
    failed = attempted = 0
    for _ in range(sweeps):
        for index in _cli_order(rng):
            _, wall, proc = runner.cli(CLI_COMMANDS[index][1])
            attempted += 1
            walls[CLI_COMMANDS[index][0]].append(wall)
            if not _check_cli_output(index, proc.returncode, proc.stdout, proc.stderr,
                                     reference, errors):
                failed += 1
    every = walls[OPERATOR] + walls[METRIC]
    op, met = describe(walls[OPERATOR], 1, "s"), describe(walls[METRIC], 1, "s")
    both = describe(every, 1e3, "ms", gate_tail)
    named = {
        "cli_op_p50_s": op["p50"], "cli_op_tail_s": op["tail"],
        "cli_metric_p50_s": met["p50"], "cli_metric_tail_s": met["tail"],
    }
    return {
        "setup_s": setup, "attempted": attempted, "failed": failed, "errors": errors[:5],
        "p50_ms": both["p50"]["value"], "tail": both["tail"], "named": named,
    }


def cli_docs_traced(runner, seed):
    """Each documented command twice through the worker's ``cli`` role, once
    plain and once traced, both timed from launch to the end of ``main``."""
    order = _cli_order(random.Random(seed))
    reference, errors = {}, []
    failed = attempted = 0
    walls = {False: [], True: []}
    summaries = []
    for traced in (False, True):
        for k, index in enumerate(order):
            trace_out = str(OUT / f"trace-cli-docs-seed{seed}-{k:02d}.tsv") if traced else ""
            launch, res = runner.worker(
                "--role", "cli", "--command", CLI_COMMANDS[index][1], "--trace-out", trace_out
            )
            walls[traced].append(res["done"] - launch)
            attempted += 1
            failed += not _check_cli_output(index, res["code"], res["stdout"], res["stderr"],
                                            reference, errors)
            if traced:
                summaries.append(res)
    layers = layer_metrics(summaries)
    layers["cli.main_warm_ms"] = statistics.median(
        statistics.median(s["warm_s"]) for s in summaries) * 1e3
    layers["trace.overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    return {"attempted": attempted, "failed": failed, "errors": errors[:5], "layers": layers,
            "spans": sum(s["trace"]["spans"] for s in summaries)}


# ---------------------------------------------------------------------------
# in-process workloads


def in_process(runner, workload, seed, seconds):
    common = ("--workload", workload, "--seed", str(seed), "--seconds", str(seconds))
    setups = []
    for _ in range(SETUP_REPS - 1):
        launch, res = runner.worker("--role", "setup", *common)
        setups.append(res["ready"] - launch)
    launch, res = runner.worker("--role", "main", *common)
    setups.append(res["ready"] - launch)
    samples = res["samples"]
    if workload == "frame-search":
        named = {"frame_ops_per_s": metric(len(samples) / (res["end"] - res["ready"]), "1/s")}
    elif workload == "kaehler-certify":
        stats = describe(samples, 1e3, "ms")
        named = {"certify_p50_ms": stats["p50"], "certify_tail_ms": stats["tail"]}
    else:
        stats = describe(samples, 1e6, "us")
        named = {"metric_point_p50_us": stats["p50"], "metric_point_tail_us": stats["tail"]}
    ms = describe(samples, 1e3, "ms", gate_tail)
    return {
        "setup_s": statistics.median(setups), "attempted": res["attempted"],
        "failed": res["failed"], "errors": res["errors"], "p50_ms": ms["p50"]["value"],
        "tail": ms["tail"], "named": named,
    }


def in_process_traced(runner, workload, seed):
    common = ("--workload", workload, "--seed", str(seed), "--ops", str(TRACE_OPS[workload]))
    _, plain = runner.worker("--role", "main", *common)
    _, traced = runner.worker(
        "--role", "main", *common,
        "--trace-out", str(OUT / f"trace-{workload}-seed{seed}.tsv"),
    )
    layers = layer_metrics([traced])
    layers["trace.overhead_frac"] = (
        statistics.median(traced["samples"]) / statistics.median(plain["samples"]) - 1.0
    )
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": (plain["errors"] + traced["errors"])[:5],
        "layers": layers,
        "spans": traced["trace"]["spans"],
    }


# ---------------------------------------------------------------------------
# per-layer metrics from worker trace summaries


def layer_metrics(results):
    """Per-layer values from one or more traced processes: counts per op over
    all of them, per-call times as the median of each process's median."""
    traces = [r["trace"] for r in results]
    ops = sum(t["ops"] for t in traces)

    def per_op(key):
        return sum(t["calls"].get(key, 0) for t in traces) / ops

    def call_time(name, scale, key="median_ns"):
        values = [t[key][name] for t in traces if name in t[key]]
        return statistics.median(values) * scale if values else 0.0

    def build_ms(name):
        values = [v for t in traces for v in t["build_ns"].get(name, ())]
        return statistics.median(values) / 1e6 if values else 0.0

    values = {
        "init.import_s": statistics.median(r["import_s"] for r in results),
        "init.sympy_imported": max(r["sympy_imported"] for r in results),
        "cli.main_warm_ms": 0.0,
        "bivectors.induced_map_calls_per_op": per_op("bivectors.induced_map"),
        "bivectors.induced_map_us": call_time("bivectors.induced_map", 1e-3),
        "obstructions.residual_evals_per_op": per_op("obstructions>bivectors.induced_map"),
        "obstructions.restarts_per_op": per_op("obstructions>bivectors.random_rotation"),
        "obstructions.so4_exp_calls_per_op": per_op("obstructions.so4_exp"),
        "obstructions.so4_exp_us": call_time("obstructions.so4_exp", 1e-3),
        "obstructions.wasted_eval_frac": (
            sum(t["search_evals"][0] for t in traces) / max(1, sum(t["search_evals"][1] for t in traces))
        ),
        "obstructions.ricciflat_nullspace_ms": call_time("obstructions.ricciflat_nullspace", 1e-6),
        "obstructions.c_system_solve_ms": call_time("obstructions.c_system_solve", 1e-6),
        "obstructions.c_system_solve_calls_per_op": per_op("obstructions.c_system_solve"),
        "obstructions.selfdual_classify_ms": call_time("obstructions.selfdual_classify", 1e-6),
        "obstructions.scalar_sign_check_ms": call_time("obstructions.scalar_sign_check", 1e-6),
        "operators.decompose_us": call_time("operators.decompose", 1e-3),
        "operators.decompose_calls_per_op": per_op("operators.decompose"),
        "operators.conjugate_calls_per_op": per_op("operators.conjugate"),
        "operators.ricci_calls_per_op": per_op("operators.ricci"),
        "kahler.kaehler_residuals_us": call_time("kahler.kaehler_residuals", 1e-3),
        "kahler.kaehler_residuals_calls_per_op": per_op("kahler.kaehler_residuals"),
        "kahler.coeffs_in_frame_calls_per_op": per_op("kahler.coeffs_in_frame"),
        "metrics.parse_ms": call_time("metrics.metric_from_dict", 1e-6, "all_median_ns"),
        "metrics.primary_build_ms": build_ms("metrics.curvature_at"),
        "metrics.oracle_build_ms": build_ms("metrics.christoffel_oracle"),
        "metrics.curvature_at_us": call_time("metrics.curvature_at", 1e-3),
        "metrics.christoffel_oracle_us": call_time("metrics.christoffel_oracle", 1e-3),
        "metrics.nabla_J_us": call_time("metrics.nabla_J_residuals", 1e-3),
        "metrics.unitary_product_us": call_time("metrics.unitary_product_check", 1e-3),
    }
    for name, _ in PER_LAYER:
        if name.endswith(".self_ms_per_op"):
            layer = name.split(".", 1)[0]
            values[name] = sum(t["self_ns"].get(layer, 0) for t in traces) / ops / 1e6
    return values


# ---------------------------------------------------------------------------
# environment stamp


def environment():
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "sympy": version("sympy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "threads": THREAD_PINS,
    }


# ---------------------------------------------------------------------------


def run_one(workload, seed, seconds, trace):
    runner = Runner()
    if trace:
        res = (cli_docs_traced(runner, seed) if workload == "cli-docs"
               else in_process_traced(runner, workload, seed))
        metrics = {name: metric(float(res["layers"][name]), unit) for name, unit in PER_LAYER}
        info = {"spans": res["spans"], "trace_dir": str(OUT.relative_to(ROOT))}
    else:
        res = (cli_docs(runner, seed, seconds) if workload == "cli-docs"
               else in_process(runner, workload, seed, seconds))
        values = {
            "setup_s": res["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "op_p50_ms": res["p50_ms"],
            "op_tail_ms": res["tail"]["value"],
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        named = dict(res["named"], setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"],
                     fail_frac=metric(res["failed"] / res["attempted"], "ratio"))
        info = {"named": named, "op_tail_percentile": res["tail"]["percentile"],
                "op_samples": res["tail"]["n"]}
    info.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                environment=environment(), errors=res["errors"])
    print(json.dumps({"info": info}))
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def run_all(seed, seconds, trace):
    """Each workload in its own run of this script; prints every line they
    print, then one combined line with workload-prefixed metric names."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} failed")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"info": {"workload": workload, "result": result}}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curv4" / "__init__.py").is_file() or not (ROOT / "sample_inputs").is_dir():
        print(f"error: no curv4 source tree (src/curv4, sample_inputs) under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
