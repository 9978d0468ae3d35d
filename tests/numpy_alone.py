"""Run ``lmomdiv`` with the given arguments; fail if it fails or loads a scipy module.

    PYTHONPATH=src python tests/numpy_alone.py fit data.csv --div klm --json

prints the command's exit code and the scipy modules it loaded, and exits 1
when the code is not 0 or any scipy module was loaded, 0 otherwise.
"""

import sys

from lmomdiv.cli import main

if __name__ == "__main__":
    code = main(sys.argv[1:])
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print("exit", code, "scipy modules", loaded)
    sys.exit(1 if code or loaded else 0)
