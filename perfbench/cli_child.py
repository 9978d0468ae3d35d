"""One traced CLI command in its own process.

    python3 perfbench/cli_child.py <trace-dump.json> <lmomdiv arguments...>

Imports ``lmomdiv.cli``, installs the span hooks, then calls
``lmomdiv.cli.main`` with the given arguments, so the command prints exactly
what ``python -m lmomdiv.cli`` prints.  The span aggregates go to the dump file.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    import lmomdiv.cli
    import tracer

    spans = tracer.Tracer()
    _, absent = tracer.install(spans)
    try:
        code = lmomdiv.cli.main(argv)
    finally:
        with open(dump_path, "w") as fh:
            json.dump({"absent": absent, **spans.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
