"""Span tracer installed around lmomdiv's layer boundaries from outside the package.

Nothing under ``src/`` knows about tracing.  ``install`` replaces each hooked
name with a wrapper that opens a span, calls the original and closes the span.
A name is wrapped where callers look it up: ``lmomdiv.sim`` imports
``fit_divergence`` into its own namespace, so the hook sits on
``lmomdiv.sim.fit_divergence`` as well as on ``lmomdiv.estimator``.  Methods
are wrapped on their class.  A hooked name that does not exist is recorded as
absent, because later versions of the package may restructure modules.

Spans are aggregated per name as they close (calls, total, self time), so a
KLM Monte Carlo run with ~10^6 conjugate evaluations needs no span list.
"""

from __future__ import annotations

import functools
import importlib
import time

#: span name -> lookup sites, each "module:attribute" or "module:Class.method".
#: The span name is "<defining module>.<qualified name>"; the module prefix is
#: the layer the span belongs to.
HOOKS = {
    "cli.main": ["lmomdiv.cli:main"],
    "cli.read_column": ["lmomdiv.cli:read_column"],
    "sim.run_scenario": ["lmomdiv.sim:run_scenario", "lmomdiv.cli:run_scenario"],
    "sim.draw_sample": ["lmomdiv.sim:draw_sample"],
    "sim.l1_density_distance": ["lmomdiv.sim:l1_density_distance"],
    "estimator.fit_divergence": [
        "lmomdiv.estimator:fit_divergence", "lmomdiv.sim:fit_divergence",
        "lmomdiv.cli:fit_divergence",
    ],
    "estimator.fit_mle_gpd": [
        "lmomdiv.estimator:fit_mle_gpd", "lmomdiv.sim:fit_mle_gpd",
        "lmomdiv.cli:fit_mle_gpd",
    ],
    "estimator.fit_moment_method_gpd": [
        "lmomdiv.estimator:fit_moment_method_gpd",
        "lmomdiv.sim:fit_moment_method_gpd", "lmomdiv.cli:fit_moment_method_gpd",
    ],
    "estimator.fit_lmoment_method_gpd": [
        "lmomdiv.estimator:fit_lmoment_method_gpd",
        "lmomdiv.sim:fit_lmoment_method_gpd", "lmomdiv.cli:fit_lmoment_method_gpd",
    ],
    "estimator.asymptotic_covariance": [
        "lmomdiv.estimator:asymptotic_covariance",
        "lmomdiv.cli:asymptotic_covariance",
    ],
    "estimator.confidence_stat": [
        "lmomdiv.estimator:confidence_stat", "lmomdiv.cli:confidence_stat",
    ],
    "dualsolve.make_dual_problem": [
        "lmomdiv.dualsolve:make_dual_problem", "lmomdiv.estimator:make_dual_problem",
    ],
    "dualsolve.omega_empirical": [
        "lmomdiv.dualsolve:omega_empirical", "lmomdiv.estimator:omega_empirical",
    ],
    "dualsolve.solve_dual": [
        "lmomdiv.dualsolve:solve_dual", "lmomdiv.estimator:solve_dual",
    ],
    "dualsolve.DualProblem.objective": ["lmomdiv.dualsolve:DualProblem.objective"],
    "dualsolve.DualProblem.gradient": ["lmomdiv.dualsolve:DualProblem.gradient"],
    "dualsolve.DualProblem.hessian": ["lmomdiv.dualsolve:DualProblem.hessian"],
    "divergence.DivergenceSpec.psi": ["lmomdiv.divergence:DivergenceSpec.psi"],
    "divergence.DivergenceSpec.psi_prime": [
        "lmomdiv.divergence:DivergenceSpec.psi_prime",
    ],
    "divergence.DivergenceSpec.psi_second": [
        "lmomdiv.divergence:DivergenceSpec.psi_second",
    ],
    "models.SplqModel.target_map": ["lmomdiv.models:SplqModel.target_map"],
    "models.SplqModel.constraint_values": [
        "lmomdiv.models:SplqModel.constraint_values",
    ],
    "poly.PolyBasis.constraint_vector": ["lmomdiv.poly:PolyBasis.constraint_vector"],
    "lmoments.sample_lmoments_v": [
        "lmomdiv.lmoments:sample_lmoments_v", "lmomdiv.estimator:sample_lmoments_v",
        "lmomdiv.cli:sample_lmoments_v",
    ],
}

LAYERS = ("poly", "lmoments", "divergence", "models", "dualsolve", "estimator",
          "sim", "cli")


class Tracer:
    """Per-name span aggregates plus counters attached at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []          # [name, start, covered_by_children]
        self._open: dict[str, int] = {}       # nesting depth per name

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        self._open[name] -= 1
        if not self._open[name]:
            # a span nested in one of the same name is already inside its total
            agg[1] += duration
        agg[2] += duration - covered
        if self._stack:
            # children of one span run one after another, so their durations
            # add up to the part of the parent's interval they cover
            self._stack[-1][2] += duration

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(agg[2] for name, agg in self.spans.items()
                   if name.split(".", 1)[0] == layer)

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly on the same inputs."""
        out = {f"{name}.calls": agg[0] for name, agg in self.spans.items()}
        out.update(self.counts)
        return out

    def merge(self, other: dict) -> None:
        """Add a dumped tracer (see ``dump``) from another process."""
        for name, agg in other["spans"].items():
            mine = self.spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += agg[i]
        for key, val in other["counts"].items():
            self.count(key, val)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _record_result(tracer: Tracer, name: str, result) -> None:
    """Counts read from what a boundary returns; attributes missing are skipped."""
    if name == "dualsolve.solve_dual":
        tracer.count(f"{name}.iterations", int(getattr(result, "iterations", 0)))
        tracer.count(f"{name}.status.{getattr(result, 'status', 'unknown')}")
    elif name == "estimator.fit_divergence":
        diag = getattr(result, "diagnostics", {}) or {}
        tracer.count(f"{name}.outer_iterations", int(diag.get("outer_iterations", 0)))
        tracer.count(f"{name}.inner_failures", int(diag.get("inner_failures", 0)))
        tracer.count(f"{name}.boundary_hits", int(bool(diag.get("boundary", False))))


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.count(f"{name}.raised.{type(exc).__name__}")
            raise
        finally:
            tracer.exit()
        _record_result(tracer, name, result)
        return result

    return traced


def _resolve(site: str):
    """(owner object, attribute) for a site, or None when it does not exist."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every hook site; returns (undo list, absent sites)."""
    undo, absent = [], []
    for name, sites in HOOKS.items():
        for site in sites:
            found = _resolve(site)
            if found is None:
                absent.append(site)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, name, original))
            undo.append((owner, attr, original))
    return undo, absent


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
