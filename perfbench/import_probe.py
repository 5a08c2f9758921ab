"""Times ``import nsbf`` in units of the calibration kernel.

    python3 perfbench/import_probe.py SRC REPEATS

run.py runs this as a child process, so that the measured process imports
nsbf only once.  numpy is imported before any clock starts: the probe times
nsbf's own modules.  Each repeat drops nsbf's modules from ``sys.modules``
and imports the package again, which runs every module body again, and is
divided by the median of the kernel passes just before and just after it;
one import takes a few tens of milliseconds, about ten kernel passes, so
only its neighbours calibrate it.  The last line of standard output is one
JSON object with the raw seconds and the calibrated units of every repeat.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import numpy  # noqa: F401  (imported before the clock starts)

import calib

WARMUP_KERNELS = 10
#: kernel passes on each side of an import
KERNELS_AROUND = 2


def main(argv=None) -> int:
    src, repeats = (argv or sys.argv[1:])[:2]
    sys.path.insert(0, src)
    for _ in range(WARMUP_KERNELS):
        calib.kernel()
    raw, units = [], []
    for _ in range(int(repeats)):
        for name in [m for m in sys.modules if m == "nsbf" or m.startswith("nsbf.")]:
            del sys.modules[name]
        before = [calib.timed_kernel() for _ in range(KERNELS_AROUND)]
        t0 = time.perf_counter()
        importlib.import_module("nsbf")
        raw.append(time.perf_counter() - t0)
        after = [calib.timed_kernel() for _ in range(KERNELS_AROUND)]
        units.append(raw[-1] / statistics.median(before + after))
    print(json.dumps({"raw_s": raw, "units": units}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
