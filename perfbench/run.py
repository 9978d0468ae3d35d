#!/usr/bin/env python3
"""Benchmark of lmomdiv: one workload per invocation.

    python3 perfbench/run.py --workload mc-classical --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``
and nothing needs installing.  Workloads: ``mc-classical``, ``mc-klm`` and
``cli-fit`` (see workloads.py).  With ``--trace 0`` the run is untraced and
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of a traced run, the tracing overhead against an untraced pass over the
same operations, and whether the traced counts repeat exactly on a second
traced pass.  Times of operations run in this process are scaled to machine
speed (calibrate.py).  Lines starting with ``#`` describe the run; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  perfbench/RATIONALE.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("mc-classical", "mc-klm", "cli-fit")
#: set-up samples per run: this process plus fresh child processes
SETUP_SAMPLES = 5
#: Monte Carlo calls the correctness gate re-checks in depth per run
DEEP_CHECKS = {"mc-classical": 8, "mc-klm": 4}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: always one BLAS thread: with two, a CLI command whose BLAS calls wait for
#: a vCPU a neighbour holds took up to 8 times as long
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def info(text: str) -> None:
    print(f"# {text}", flush=True)


def tail(values) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile).  With fewer than 22 samples no such statistic
    lies above the median, and the upper median is returned instead.
    """
    v = sorted(values)
    k = max(len(v) - 11, len(v) // 2)
    return v[k], 100.0 * (k + 1) / len(v)


def check_tree() -> None:
    if not (SRC / "lmomdiv" / "__init__.py").is_file():
        raise BenchError(f"no lmomdiv package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def guard_module(path: str) -> None:
    """The package under test must be the checkout's, never an installed copy."""
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"lmomdiv imported from {path}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def child_env() -> dict:
    """This process's environment with the checkout's ``src/`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def setup_probes(workload: str, workdir: Path, env: dict) -> list[dict]:
    """Set-up samples from fresh child processes, taken after the timed work.

    Spacing them from this process's own set-up keeps one slow stretch of
    the shared machine from setting the median.
    """
    samples = []
    for _ in range(1, SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        samples.append(json.loads(out.stdout.splitlines()[-1]))
        guard_module(samples[-1]["lmomdiv_file"])
    return samples


def run_ops(workload: str, seed: int, cycles: int, workdir: Path, env: dict,
            traced: bool = False):
    import workloads

    if workload == "cli-fit":
        commands = workloads.cli_commands(workloads.cli_inputs(workdir))
        return workloads.run_cli(commands * cycles, env, workdir, traced)
    return workloads.run_mc(workloads.mc_configs(workload, seed, cycles))


def check(workload: str, seed: int, ops) -> list[str]:
    import numpy as np

    import gate

    if workload == "cli-fit":
        for i, op in enumerate(ops):
            reason = gate.cli_failure(op)
            if reason:
                op.failed = True
                info(f"command {i} ({' '.join(op.output[0])}) failed: {reason}")
        return gate.check_cli(ops)
    return gate.check_mc(ops, np.random.default_rng(seed), DEEP_CHECKS[workload])


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def untraced_run(workload, seed, seconds, workdir, env) -> dict:
    import workloads

    ops = run_ops(workload, seed, workloads.n_cycles(workload, seconds), workdir,
                  env)
    if workload == "cli-fit":
        rss_kb = max(op.rss_kb for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [op.scaled_s for op in ops]
    tail_s, tail_pct = tail(walls)
    raw = [op.wall_s for op in ops]
    info(f"{len(ops)} calls, call_s.tail is p{tail_pct:.1f} of {len(walls)} "
         f"samples; unscaled: {len(ops) / sum(raw):.4g} ops/s, "
         f"p50 {statistics.median(raw):.4g} s, mean scale "
         f"{statistics.fmean(op.scale for op in ops):.3f}")
    return {
        "ops": ops,
        "metrics": {
            "ops_per_s": metric(len(ops) / sum(walls), "1/s"),
            "call_s.p50": metric(statistics.median(walls), "s"),
            "call_s.tail": metric(tail_s, "s"),
            "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        },
    }


def traced_pass(workload, seed, cycles, workdir, env):
    """(tracer, scaled seconds, absent hook sites)."""
    spans = tracer.Tracer()
    if workload == "cli-fit":
        ops = run_ops(workload, seed, cycles, workdir, env, traced=True)
        dumps = [op.output[1].trace for op in ops if op.output[1].trace]
        for dump in dumps:
            spans.merge(dump)
        absent = sorted({site for d in dumps for site in d["absent"]})
        return spans, sum(op.scaled_s for op in ops), absent
    undo, absent = tracer.install(spans)
    try:
        ops = run_ops(workload, seed, cycles, workdir, env)
    finally:
        tracer.uninstall(undo)
    return spans, sum(op.scaled_s for op in ops), absent


def layer_metrics(spans, overhead, mismatches, absent) -> dict:
    counts = spans.counts
    m = {}

    def share(num, den):
        return num / den if den else 0.0

    for name in ("sim.l1_density_distance", "estimator.fit_divergence",
                 "dualsolve.solve_dual", "estimator.asymptotic_covariance"):
        m[f"{name}.calls"] = metric(spans.calls(name), "count")
        m[f"{name}.total_s"] = metric(spans.total_s(name), "s")
    m["sim.l1_density_distance.self_s"] = metric(
        spans.self_s("sim.l1_density_distance"), "s")
    fd = "estimator.fit_divergence"
    m[f"{fd}.self_s"] = metric(spans.self_s(fd), "s")
    for key in ("outer_iterations", "boundary_hits", "inner_failures"):
        m[f"{fd}.{key}"] = metric(counts.get(f"{fd}.{key}", 0), "count")
    m["models.SplqModel.target_map.calls"] = metric(
        spans.calls("models.SplqModel.target_map"), "count")
    for name in ("estimator.fit_mle_gpd", "estimator.fit_moment_method_gpd",
                 "estimator.fit_lmoment_method_gpd", "dualsolve.make_dual_problem",
                 "models.SplqModel.constraint_values", "cli.read_column",
                 "estimator.confidence_stat", "divergence.DivergenceSpec.psi"):
        m[f"{name}.total_s"] = metric(spans.total_s(name), "s")
    sd = "dualsolve.solve_dual"
    m[f"{sd}.iterations"] = metric(counts.get(f"{sd}.iterations", 0), "count")
    for status in ("converged", "maxIter", "infeasibleDirection"):
        m[f"{sd}.status.{status}"] = metric(counts.get(f"{sd}.status.{status}", 0),
                                            "count")
    m[f"{sd}.converged_share"] = metric(
        share(counts.get(f"{sd}.status.converged", 0), spans.calls(sd)), "ratio")
    ob = "dualsolve.DualProblem.objective"
    rejects = counts.get(f"{ob}.raised.ConjugateDomainError", 0)
    m[f"{ob}.calls"] = metric(spans.calls(ob), "count")
    m[f"{ob}.domain_rejects"] = metric(rejects, "count")
    m[f"{ob}.accept_share"] = metric(
        share(spans.calls(ob) - rejects, spans.calls(ob)), "ratio")
    m["divergence.DivergenceSpec.psi.calls"] = metric(
        spans.calls("divergence.DivergenceSpec.psi"), "count")
    for layer in tracer.LAYERS:
        m[f"layer.{layer}.self_s"] = metric(spans.layer_self_s(layer), "s")
    m["trace.overhead_share"] = metric(overhead, "ratio")
    m["trace.count_mismatches"] = metric(mismatches, "count")
    m["trace.absent_hooks"] = metric(len(absent), "count")
    return m


def traced_run(workload, seed, seconds, workdir, env) -> dict:
    """Untraced reference pass, then two traced passes over the same operations."""
    import workloads

    cycles = max(1, workloads.n_cycles(workload, seconds) // 3)
    ops = run_ops(workload, seed, cycles, workdir, env)
    reference_s = sum(op.scaled_s for op in ops)
    first, first_s, absent = traced_pass(workload, seed, cycles, workdir, env)
    second = traced_pass(workload, seed, cycles, workdir, env)[0]
    a, b = first.exact_counts(), second.exact_counts()
    mismatched = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in mismatched:
        info(f"count mismatch between traced passes: {key} "
             f"{a.get(key)} vs {b.get(key)}")
    for site in absent:
        info(f"hook absent: {site}")
    selfs = sorted(first.spans.items(), key=lambda kv: -kv[1][2])[:5]
    info("largest self time: " + ", ".join(f"{n} {agg[2]:.3f} s" for n, agg in selfs))
    overhead = (first_s - reference_s) / reference_s
    return {
        "ops": ops,
        "metrics": layer_metrics(first, overhead, len(mismatched), absent),
        "problems": [f"traced counts differ: {k}" for k in mismatched],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in SINGLE_THREAD:
        os.environ[var] = "1"   # before numpy loads, here and in children
    try:
        check_tree()
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            return run(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass                  # another run still uses it
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args, workdir: Path) -> int:
    import probe

    env = child_env()
    setup = [probe.setup_sample(args.workload)]
    guard_module(setup[0]["lmomdiv_file"])
    if args.workload == "cli-fit":
        import workloads

        workloads.write_cli_inputs(args.seed, workdir)   # not part of set-up
    info("environment " + json.dumps(environment(), sort_keys=True))
    workload_run = traced_run if args.trace else untraced_run
    result = workload_run(args.workload, args.seed, args.seconds, workdir, env)
    setup += setup_probes(args.workload, workdir, env)
    info("set-up samples (s): " + ", ".join(f"{s['setup_s']:.3f}" for s in setup))
    if args.trace:
        result["metrics"]["cli.import_s"] = metric(
            statistics.median(s["import_s"] for s in setup), "s")
    else:
        result["metrics"]["setup_s"] = metric(
            statistics.median(s["setup_s"] for s in setup), "s")
    ops = result["ops"]
    problems = result.get("problems", []) + check(args.workload, args.seed, ops)
    for problem in problems:
        info(f"gate: {problem}")
    info(f"gate {'passed' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM unwind through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
