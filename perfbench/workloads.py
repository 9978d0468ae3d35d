"""The three workloads: their inputs, warm-up and how one operation is run.

``mc-classical`` and ``mc-klm`` call ``lmomdiv.sim.run_scenario`` in the
benchmark process, one replicate per call (``n_jobs = 1``), cycling through
scenarios 1 to 4.  ``cli-fit`` runs each command as its own
``python -m lmomdiv.cli`` process on GPD(3, 0.4) CSV files.

A run does a fixed number of cycles, sized from ``--seconds`` by the cycle
time measured at the commit that defined the benchmark (2 cores).  A fixed
amount of work, rather than a deadline, keeps what a run measures the same
from run to run: the cost of one KLM replicate ranges over 0.2-11 s, so a
deadline would change the set of replicates a run finishes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
from lmomdiv import sim
from lmomdiv.models import ParametricFamily

HERE = Path(__file__).resolve().parent
MC_N = 100
SCENARIOS = (1, 2, 3, 4)
CLASSICAL = ("chi2", "lmom", "moment", "mle")
ESTIMATORS = {"mc-classical": CLASSICAL, "mc-klm": ("klm",)}
CLI_SIZES = {"chi2": 100_000, "klm": 10_000, "kl": 10_000, "test": 1_000}
CLI_LAW = ("gpd", 3.0, 0.4)
#: seconds per cycle (every scenario or command once) at the defining commit
CYCLE_S = {"mc-classical": 0.4, "mc-klm": 4.3, "cli-fit": 11.0}
#: longest stretch of operations between two machine-speed probes
PROBE_EVERY_S = 0.5
#: a child that runs longer than this is killed and its command counts as failed
CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One timed operation: a ``run_scenario`` call or one CLI process."""

    wall_s: float
    failed: bool
    output: object           # (config, SimSummary) or (argv, CliResult)
    rss_kb: int = 0
    scale: float = 1.0       # calibrate.NOMINAL_S / reference time (in-process ops)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    trace: dict | None = None


def timed(items, run_one) -> list[Op]:
    """``run_one`` on each item, probing machine speed every PROBE_EVERY_S.

    The operations between two probes are scaled by the mean of those two.
    Only operations that run in this process are timed this way: a probe
    taken here right after a child process exits does not track the child
    (scaled CLI figures spread about twice as much between runs as unscaled
    ones).
    """
    ops, group = [], []
    before = calibrate.probe()
    since = time.perf_counter()
    for i, item in enumerate(items):
        group.append(run_one(item))
        if time.perf_counter() - since >= PROBE_EVERY_S or i == len(items) - 1:
            after = calibrate.probe()
            for op in group:
                op.scale = 2.0 * calibrate.NOMINAL_S / (before + after)
            ops += group
            group, before, since = [], after, time.perf_counter()
    return ops


def n_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def mc_configs(workload: str, seed: int, cycles: int) -> list:
    """One ``ScenarioConfig`` per call, scenarios 1 to 4 in turn.

    ``mc-classical`` draws a fresh sample stream per cycle from ``seed``.
    ``mc-klm`` replays the package's own stream (master seeds 0, 1, ...) and
    the seed only varies which fits the correctness gate re-checks: a KLM
    replicate costs 0.2-11 s, so ~28 seed-drawn replicates would make the
    run's total cost vary by about a third between seeds.
    """
    estimators = ESTIMATORS[workload]
    configs = []
    for c in range(cycles):
        stream = seed * 1_000_003 + c if workload == "mc-classical" else c
        for scenario in SCENARIOS:
            configs.append(sim.ScenarioConfig.preset(
                scenario, n=MC_N, replicates=1, seed=stream,
                estimators=estimators))
    return configs


def run_mc(configs) -> list[Op]:
    def one(config):
        t0 = time.perf_counter()
        summary = sim.run_scenario(config, n_jobs=1)
        wall = time.perf_counter() - t0
        return Op(wall, any(rec["error"] for rec in summary.records),
                  (config, summary))

    return timed(configs, one)


# ---------------------------------------------------------------------------
# CLI workload


def cli_inputs(workdir: Path) -> dict[str, Path]:
    return {kind: workdir / f"{kind}-{n}.csv" for kind, n in CLI_SIZES.items()}


def write_cli_inputs(seed: int, workdir: Path) -> None:
    """One CSV per command, drawn from GPD(3, 0.4).

    The KLM file always comes from stream 0: at n = 10^4 a seed-drawn file
    makes ``fit --div klm`` take 2-5 s, or over two minutes for about one
    seed in seven (inner solves ending in maxIter), longer than a run may
    last.  The other files are drawn from the workload seed.
    """
    family = ParametricFamily(*CLI_LAW)
    for i, (kind, path) in enumerate(cli_inputs(workdir).items()):
        stream = 0 if kind == "klm" else seed
        values = family.sample(CLI_SIZES[kind], np.random.default_rng([stream, i]))
        path.write_text("x\n" + "\n".join(map(repr, values.tolist())) + "\n")


def cli_commands(files: dict[str, Path]) -> list[list[str]]:
    """The command list of one cycle, as ``lmomdiv`` arguments."""
    return [
        ["fit", str(files["chi2"]), "--asymptotics", "--json"],
        ["fit", str(files["klm"]), "--div", "klm", "--json"],
        ["fit", str(files["kl"]), "--div", "kl", "--json"],
        ["test", str(files["test"]), "--json"],
    ]


def run_child(argv: list[str], env: dict, workdir: Path):
    """Run one child process to completion: (wall_s, CliResult, max RSS in KB).

    ``os.wait4`` gives the child's own resource usage, so each command's peak
    RSS is its own.  A watchdog kills a child that outlives CHILD_TIMEOUT_S.
    """
    out_path, err_path = workdir / "cmd.out", workdir / "cmd.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM becomes SystemExit): stop the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = CliResult(proc.returncode, out_path.read_text(), err_path.read_text())
    out_path.unlink()
    err_path.unlink()
    return wall, result, usage.ru_maxrss


def run_cli(commands, env: dict, workdir: Path, traced: bool = False) -> list[Op]:
    """Each command in a fresh process; traced commands go through cli_child."""
    dump = workdir / "trace.json"

    def one(args):
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(dump), *args]
        else:
            argv = [sys.executable, "-m", "lmomdiv.cli", *args]
        wall, result, rss = run_child(argv, env, workdir)
        if traced and dump.is_file():
            result.trace = json.loads(dump.read_text())
            dump.unlink()
        return Op(wall, result.code != 0, (args, result), rss)

    return [one(args) for args in commands]


# ---------------------------------------------------------------------------
# set-up


def warm_up(workload: str) -> None:
    """Work the program does before the first timed operation.

    The Monte Carlo workloads fit one small fixed replicate, so lazy set-up in
    the fit path is paid here.  ``cli-fit`` has none: each command pays its
    own, and writing its input files is the benchmark's work, not set-up.
    """
    if workload == "cli-fit":
        return
    config = sim.ScenarioConfig.preset(1, n=30, replicates=1, seed=0,
                                       estimators=ESTIMATORS[workload])
    sim.run_scenario(config, n_jobs=1)
