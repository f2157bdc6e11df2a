"""Entry point: ``python -m benchmarks.suite`` from the repository root."""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import pathlib  # noqa: E402
import sys  # noqa: E402

_ROOT = pathlib.Path(__file__).resolve().parents[2]
# The program lives in src/; the benchmark measures it from outside.
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.suite.cli import main  # noqa: E402

sys.exit(main(t0=_T0))
