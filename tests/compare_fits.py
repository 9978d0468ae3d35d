"""Dump the fits of two source trees and compare them record by record.

    python tests/compare_fits.py dump OLD/src old.jsonl [SET ...]
    python tests/compare_fits.py dump src new.jsonl [SET ...]
    python tests/compare_fits.py diff old.jsonl new.jsonl

``dump`` imports ``lmomdiv`` from the given ``src`` directory alone, in a
process of its own, and writes one JSON line per record of each named set
(all sets by default).  A record holds its set, its key, its fields with every
float as ``float.hex``, the error type and message it raised, if any, and the
warnings it issued.  ``diff`` prints, per set, how many records are identical,
the largest relative move of each field that moved (fields compare by path),
the fields that one dump alone holds, and the records that raise, or exist, on
one side only; it exits 1 when any record differs.  pytest does not collect
this file.

The sets, all on ``gpd-l234`` and ``weibull-l234`` unless named:

- ``mc-klm``: the 28 KLM fits of scenarios 1-4 x seeds 0-6, replicate 0, n = 100;
- ``kl-klm``: KL and KLM fits of scenarios 1-4, replicates 0-9 of seed 0 (160);
- ``fits-240``: chi-square, KL and KLM fits of scenarios 1-4 x seeds 0-9, replicate 0;
- ``heavy``: KL and KLM fits of ``weibull-l234`` to ``3 * default_rng(seed).weibull(nu, n)``,
  nu in {0.05, 0.08, 0.1}, n in {200, 1000}, seeds 0-3 (48);
- ``chi2``: chi-square fits of both models and ``orderstat3`` on the ``fits-240``
  samples, with xi, and the plug-in Omega and Sigma at the estimate where the model
  has a law (120);
- ``files``: chi-square, KL and KLM fits of ``gpd-l234`` to the GPD(3, 0.4) files of
  n = 10^3 (``default_rng([0, 0])``), 10^4 (``[5, 1]``) and 10^5 (``[5, 0]``);
- ``lmoments``: the V and U sample L-moments to order 6 of the ``fits-240`` samples
  and the three files;
- ``run-scenario``: 20 ``run_scenario`` runs, scenarios 1-4 x seeds 0-4, n = 100,
  5 replicates, the default estimators, with every replicate's record;
- ``fits-2322``: chi-square fits of both models and ``orderstat3`` on scenarios 1-4 x
  seeds 0-149 (replicate 0, n = 100), on ``3 * default_rng(seed).weibull(nu, n)`` for
  nu in {0.05, 0.08, 0.1, 0.5}, n in {200, 1000}, seeds 0-3, and on ten GPD(3, 0.4)
  samples (n = 10^3 from ``default_rng([0, i])``, 10^5 from ``[5, i]``, i = 0-4); KL
  and KLM fits of both models on scenarios 1-4 x seeds 0-9 and on the ``kl-klm``
  samples; the ``mc-klm`` and ``heavy`` fits (2,322 in all).
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import warnings

SCENARIOS = (1, 2, 3, 4)
MODELS = ("gpd-l234", "weibull-l234")


def _enc(v):
    """``v`` in JSON with every float as ``float.hex``; arrays as nested lists."""
    if hasattr(v, "tolist"):                    # numpy arrays and scalars
        v = v.tolist()
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, dict):
        return {str(k): _enc(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    return v


def _record(set_name: str, key: str, compute) -> dict:
    """The record of ``compute()``, a dict of fields, with its error and its warnings."""
    fields, error = {}, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fields = compute()
        except Exception as exc:        # every error is part of the record
            error = [type(exc).__name__, str(exc)]
    return {"set": set_name, "key": key, "fields": _enc(fields), "error": error,
            "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught})}


def _report_fields(report) -> dict:
    return {"theta": report.theta, "criterion": report.criterion, "xi": report.xi,
            "diagnostics": report.diagnostics}


def _sets():
    """Set name -> function yielding (key, compute) pairs; imports the tree's ``lmomdiv``."""
    import numpy as np

    from lmomdiv.divergence import divergence_by_name
    from lmomdiv.estimator import asymptotic_covariance, fit_divergence
    from lmomdiv.lmoments import SortedSample, sample_lmoments_u, sample_lmoments_v
    from lmomdiv.models import ParametricFamily, model_by_name
    from lmomdiv.sim import ScenarioConfig, draw_sample, run_scenario

    def scenario_sample(sc, seed, rep):
        return draw_sample(ScenarioConfig.preset(sc, n=100, seed=seed), rep)

    def fit(sample, model, div):
        return lambda: _report_fields(fit_divergence(sample, model_by_name(model),
                                                     divergence_by_name(div)))

    def files():
        gpd = ParametricFamily("gpd", 3.0, 0.4)
        for n, seed in ((1000, [0, 0]), (10_000, [5, 1]), (100_000, [5, 0])):
            yield f"n{n}", SortedSample(gpd.sample(n, np.random.default_rng(seed)))

    def scenario_fits(divs, seeds, reps):
        for model in MODELS:
            for div in divs:
                for sc in SCENARIOS:
                    for seed in seeds:
                        for rep in reps:
                            yield (f"{model}/{div}/sc{sc}/seed{seed}/rep{rep}",
                                   fit(scenario_sample(sc, seed, rep), model, div))

    def mc_klm():
        for seed in range(7):
            for sc in SCENARIOS:
                yield f"sc{sc}/seed{seed}", fit(scenario_sample(sc, seed, 0), "gpd-l234", "klm")

    def heavy():
        for nu in (0.05, 0.08, 0.1):
            for n in (200, 1000):
                for seed in range(4):
                    sample = SortedSample(3 * np.random.default_rng(seed).weibull(nu, n))
                    for div in ("kl", "klm"):
                        yield f"nu{nu}/n{n}/seed{seed}/{div}", fit(sample, "weibull-l234", div)

    def chi2_with_blocks(sample, name):
        def compute():
            model = model_by_name(name)
            out = _report_fields(fit_divergence(sample, model, divergence_by_name("chi2")))
            if model.family is not None:
                theta = out["theta"]
                cov = asymptotic_covariance(theta, model,
                                            ParametricFamily(model.family, *map(float, theta)))
                out.update(omega=cov.omega, sigma=cov.sigma)
            return out
        return compute

    def chi2():
        for name in (*MODELS, "orderstat3"):
            for sc in SCENARIOS:
                for seed in range(10):
                    yield (f"{name}/sc{sc}/seed{seed}",
                           chi2_with_blocks(scenario_sample(sc, seed, 0), name))

    def file_fits():
        for key, sample in files():
            for div in ("chi2", "kl", "klm"):
                yield f"{key}/{div}", fit(sample, "gpd-l234", div)

    def lmoments():
        samples = [(f"sc{sc}/seed{seed}", scenario_sample(sc, seed, 0))
                   for sc in SCENARIOS for seed in range(10)]
        for key, sample in [*samples, *files()]:
            yield key, lambda s=sample: {"v": sample_lmoments_v(s, 6).values,
                                         "u": sample_lmoments_u(s, 6).values}

    def scenario_runs():
        for sc in SCENARIOS:
            for seed in range(5):
                config = ScenarioConfig.preset(sc, n=100, replicates=5, seed=seed)
                yield f"sc{sc}/seed{seed}", lambda c=config: {"records": run_scenario(c).records}

    def fits_2322():
        weibulls = [(f"weibull{nu}/n{n}/seed{seed}",
                     SortedSample(3 * np.random.default_rng(seed).weibull(nu, n)))
                    for nu in (0.05, 0.08, 0.1, 0.5) for n in (200, 1000) for seed in range(4)]
        gpd = ParametricFamily("gpd", 3.0, 0.4)
        gpds = [(f"gpd/n{n}/{i}", SortedSample(gpd.sample(n, np.random.default_rng([s, i]))))
                for n, s in ((1000, 0), (100_000, 5)) for i in range(5)]
        for name in (*MODELS, "orderstat3"):
            for sc in SCENARIOS:
                for seed in range(150):
                    yield (f"chi2/{name}/sc{sc}/seed{seed}",
                           fit(scenario_sample(sc, seed, 0), name, "chi2"))
            for key, sample in [*weibulls, *gpds]:
                yield f"chi2/{name}/{key}", fit(sample, name, "chi2")
        for key, compute in scenario_fits(("kl", "klm"), range(10), (0,)):
            yield f"first40/{key}", compute
        for key, compute in scenario_fits(("kl", "klm"), (0,), range(10)):
            yield f"kl-klm/{key}", compute
        for key, compute in [*mc_klm(), *heavy()]:
            yield key, compute

    return {
        "mc-klm": mc_klm,
        "kl-klm": lambda: scenario_fits(("kl", "klm"), (0,), range(10)),
        "fits-240": lambda: scenario_fits(("chi2", "kl", "klm"), range(10), (0,)),
        "heavy": heavy,
        "chi2": chi2,
        "files": file_fits,
        "lmoments": lmoments,
        "run-scenario": scenario_runs,
        "fits-2322": fits_2322,
    }


def _write(out_path: str, names: list[str]) -> None:
    import lmomdiv

    sets = _sets()
    unknown = [n for n in names if n not in sets]
    if unknown:
        sys.exit(f"unknown sets {unknown}; the sets are {list(sets)}")
    with open(out_path, "w") as out:
        out.write(json.dumps({"lmomdiv": os.path.dirname(lmomdiv.__file__)}) + "\n")
        for name in names or sets:
            for key, compute in sets[name]():
                out.write(json.dumps(_record(name, key, compute)) + "\n")


def dump(src: str, out_path: str, names: list[str]) -> None:
    """Run ``_write`` in a child process that imports ``lmomdiv`` from ``src`` alone."""
    src = os.path.abspath(src)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, os.path.abspath(__file__), "_write", out_path, *names],
                   env=env, check=True)
    with open(out_path) as fh:
        where = json.loads(fh.readline())["lmomdiv"]
    if os.path.dirname(where) != src:
        sys.exit(f"the dump imported lmomdiv from {where}, not from {src}")


_HEX = re.compile(r"-?0x[0-9a-f.]+p[+-]\d+|-?inf|nan")


def _leaves(v, path=""):
    """(field path with indices dropped, leaf) for every leaf of a decoded field tree."""
    if isinstance(v, dict):
        for k, x in v.items():
            yield from _leaves(x, f"{path}.{k}" if path else k)
    elif isinstance(v, list):
        for x in v:
            yield from _leaves(x, path)
    else:
        yield path, v


def _by_field(fields) -> dict:
    """Field path -> the leaves under it, in order (``_leaves``)."""
    out = {}
    for path, leaf in _leaves(fields):
        out.setdefault(path, []).append(leaf)
    return out


def _number(v):
    """The number a leaf holds (an int, or a float as ``float.hex``), else None."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and _HEX.fullmatch(v):
        return float.fromhex(v)
    return None


def _relative_move(x, y) -> float:
    """|x - y| / max(|x|, |y|), inf where one is not finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _read(path: str) -> dict:
    with open(path) as fh:
        fh.readline()           # the tree the dump imported
        records = [json.loads(line) for line in fh]
    return {(r["set"], r["key"]): r for r in records}


def diff(old_path: str, new_path: str) -> int:
    old, new = _read(old_path), _read(new_path)
    sets = list(dict.fromkeys(s for s, _ in [*old, *new]))
    differs = 0
    for name in sets:
        keys = list(dict.fromkeys(k for s, k in [*old, *new] if s == name))
        same, moves, notes, one_sided = 0, {}, [], {}
        for key in keys:
            a, b = old.get((name, key)), new.get((name, key))
            if a is None or b is None:
                notes.append(f"{key}: only in the {'new' if a is None else 'old'} dump")
            elif a == b:
                same += 1
            elif (a["error"] is None) != (b["error"] is None):
                notes.append(f"{key}: raises on one side only: old {a['error']}, new {b['error']}")
            else:
                for part in ("error", "warnings"):
                    if a[part] != b[part]:
                        notes.append(f"{key}: {part} old {a[part]}, new {b[part]}")
                la, lb = _by_field(a["fields"]), _by_field(b["fields"])
                for field in dict.fromkeys([*la, *lb]):
                    xs, ys = la.get(field), lb.get(field)
                    if xs is None or ys is None:
                        one_sided[field] = "new" if xs is None else "old"
                    elif len(xs) != len(ys):
                        notes.append(f"{key}: {field} differs in shape")
                    else:
                        for x, y in zip(xs, ys):
                            nx, ny = _number(x), _number(y)
                            if x != y and (nx is None or ny is None):
                                notes.append(f"{key}: {field} old {x!r}, new {y!r}")
                            elif x != y:
                                moves[field] = max(moves.get(field, 0.0), _relative_move(nx, ny))
        differs += len(keys) - same
        print(f"{name}: {same} of {len(keys)} records identical")
        if moves:
            print("  largest relative move: " + ", ".join(f"{f} {m:.3g}" for f, m in moves.items()))
        for field, side in one_sided.items():
            print(f"  {field}: only in the {side} dump")
        for note in notes[:10]:
            print(f"  {note}")
        if len(notes) > 10:
            print(f"  ... and {len(notes) - 10} more")
    print(f"all {len(set(old) | set(new))} records identical" if not differs
          else f"{differs} records differ")
    return 1 if differs else 0


if __name__ == "__main__":
    usage = __doc__.split("\n\n")[1]
    command, args = (sys.argv[1], sys.argv[2:]) if len(sys.argv) > 1 else ("", [])
    if command == "dump" and len(args) >= 2:
        dump(args[0], args[1], args[2:])
    elif command == "_write" and args:
        _write(args[0], args[1:])
    elif command == "diff" and len(args) == 2:
        sys.exit(diff(*args))
    else:
        sys.exit(f"usage:\n{usage}")
