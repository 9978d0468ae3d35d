"""One set-up sample: import the package, then the workload's warm-up.

Imports only the standard library at module level, so that the timed import
of ``lmomdiv`` also pays for numpy and scipy, as a user's first command does.
Run in the benchmark process and, for more samples, in fresh child processes:

    python3 perfbench/probe.py <workload>

prints one JSON object with ``import_s``, ``setup_s`` and ``lmomdiv_file``.
"""

from __future__ import annotations

import json
import sys
import time


def setup_sample(workload: str) -> dict:
    """Import and warm-up times; the benchmark's own modules load untimed."""
    t0 = time.perf_counter()
    import lmomdiv.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    import workloads

    t1 = time.perf_counter()
    workloads.warm_up(workload)
    warm_up_s = time.perf_counter() - t1
    return {"import_s": import_s, "setup_s": import_s + warm_up_s,
            "lmomdiv_file": lmomdiv.__file__}


if __name__ == "__main__":
    print(json.dumps(setup_sample(sys.argv[1])))
