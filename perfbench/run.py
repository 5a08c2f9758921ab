"""Closed-loop benchmark of nsbf: one process, one request in flight.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout (the package is imported from ``src/``).
Each run makes one round of requests from the seed (see plan.py), gets the
references for them from a separate process (refs.py), times ``import
nsbf`` in another (import_probe.py) and the building of the workload's
prebuilt models, and then repeats whole rounds until T seconds have passed,
running the calibration kernel (calib.py) after every request.  Every output is
checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
spans recorded around nsbf's public functions (spans.py), of which the
spans themselves go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the client is a single closed loop
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import logging
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import calib  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: imports of nsbf timed by import_probe.py; the median is reported
IMPORT_REPEATS = 25
#: times each prebuilt object is built; the median of each is reported
BUILD_REPEATS = 5
#: calibration passes before timing starts
WARMUP_KERNELS = 20
#: calibration time after each measurement, as a share of the measured time
KERNEL_SHARE = 0.05
MAX_KERNEL_PASSES = 8

NSBF_MODULES = ("expr", "grid", "formal_powers", "coefficients", "solution",
                "bessel", "spectral", "oracle")

END_TO_END = (
    ("setup_s", "s"),
    ("request_cal_p50", "cal"),
    ("items_per_kcal", "1/kcal"),
    ("digits_p50", "digits"),
    ("digits_min", "digits"),
    ("peak_rss_mb", "MB"),
)

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def seeded_references(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "refs.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


class Calibration:
    """The calibration kernel interleaved with measured work.

    After each measurement the kernel runs until its passes add up to
    KERNEL_SHARE of the measured time (at least one pass, at most
    MAX_KERNEL_PASSES).  The measurement is divided by the median of the
    passes just before and just after it, so host drift, which moves whole
    runs by tens of percent, cancels out of the ratio.
    """

    def __init__(self, timed_kernel):
        self.timed_kernel = timed_kernel
        self.kernel_s = []
        self._last = [timed_kernel()]

    def local_kernel(self, elapsed: float) -> float:
        """Run the passes after a measurement of ``elapsed`` seconds; return
        the kernel time around it."""
        after = []
        while not after or (sum(after) < KERNEL_SHARE * elapsed
                            and len(after) < MAX_KERNEL_PASSES):
            after.append(self.timed_kernel())
        self.kernel_s.extend(after)
        local = statistics.median(self._last + after)
        self._last = after
        return local


def import_cost() -> tuple[float, float]:
    """`import nsbf` timed in a child process (import_probe.py): median raw
    seconds and median calibrated units over IMPORT_REPEATS imports."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "import_probe.py"), SRC, str(IMPORT_REPEATS)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import nsbf failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return statistics.median(out["raw_s"]), statistics.median(out["units"])


class Loop:
    """Whole rounds of requests, each followed by calibration passes."""

    def __init__(self, workload, requests, cal: Calibration):
        self.workload = workload
        self.requests = requests
        self.cal = cal
        self.request_s = []
        self.request_cal = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.items = 0
        self.digits = None
        self.properties_ok = True
        self.rounds = 0

    def run_rounds(self, seconds: float, on_request=None):
        t_end = time.perf_counter() + seconds
        first = True
        while first or time.perf_counter() < t_end:
            first = False
            self._one_round(on_request)

    def _one_round(self, on_request):
        wl = self.workload
        round_digits = []
        for req in self.requests:
            if on_request is not None:
                on_request(req["id"])
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                output = wl.run(req)
            except Exception as exc:  # a refused request counts as failed
                elapsed = time.perf_counter() - t0
                output, error = None, f"{type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                error = "check failed"
            if on_request is not None:
                on_request(-1)  # the check is not part of the request
            self.request_s.append(elapsed)
            self.request_cal.append(elapsed / self.cal.local_kernel(elapsed))
            ok, items, digs = (False, 0, None) if output is None else wl.check(req, output)
            output = None  # one request's output alive at a time, for peak memory
            if ok:
                self.items += items
                round_digits.append(digs)
            else:
                self.failed += 1
                if not wl.is_known_fault(req):
                    self.unexpected.append((req["id"], error))
        self.properties_ok &= wl.end_round()
        if self.rounds == 0:
            self.digits = np.concatenate(round_digits) if round_digits else np.zeros(0)
        self.rounds += 1

    def request_cal_p50(self) -> float:
        return statistics.median(self.request_cal)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="closed-loop nsbf benchmark")
    p.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nsbf", "__init__.py")):
        return fail(f"no nsbf package under {SRC}; run from a checkout of the repository")
    requests = plan.make_round(args.workload, args.seed)
    try:
        refs = seeded_references(args.workload, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    try:
        import_s, import_units = import_cost()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    for _ in range(WARMUP_KERNELS):
        calib.kernel()
    cal = Calibration(calib.timed_kernel)

    sys.path.insert(0, SRC)
    logger = logging.getLogger("nsbf")
    logger.addHandler(logging.NullHandler())  # spacing warnings are expected
    logger.propagate = False
    nsbf_modules = {name: importlib.import_module(f"nsbf.{name}") for name in NSBF_MODULES}

    with open(os.path.join(HERE, "tables", "eigenvalues.json")) as fh:
        table = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](nsbf_modules, requests, refs, table)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(nsbf_modules)
    # each prebuilt object is timed on its own, so the kernel passes around a
    # build are close in time to all of it
    build_s = {name: [] for name in wl.PREBUILT}
    build_units = {name: [] for name in wl.PREBUILT}
    for _ in range(BUILD_REPEATS):
        for name in wl.PREBUILT:
            wl.prebuilt.pop(name, None)  # a rebuild does not hold the previous one
            t0 = time.perf_counter()
            wl.prebuilt[name] = wl.build(name)
            build_s[name].append(time.perf_counter() - t0)
            build_units[name].append(build_s[name][-1] / cal.local_kernel(build_s[name][-1]))
    if tracer is not None:
        tracer.uninstall()
    # set-up in reference seconds: calibrated units times the kernel's time
    # on the reference machine, so that host drift does not move it
    build_units = sum(statistics.median(units) for units in build_units.values())
    setup_s = (import_units + build_units) * calib.REFERENCE_S
    wl.prepare()

    loop = Loop(wl, requests, cal)
    if not args.trace:
        loop.run_rounds(args.seconds)
        traced = None
    else:
        # untraced rounds first, then traced rounds; their ratio is the overhead
        loop.run_rounds(args.seconds / 2.0)
        traced = Loop(wl, requests, cal)
        tracer.install(nsbf_modules)

        def on_request(req_id):
            tracer.request_id = req_id

        traced.run_rounds(args.seconds / 2.0, on_request)
        tracer.uninstall()

    loops = [loop] if traced is None else [loop, traced]
    unexpected = [item for lp in loops for item in lp.unexpected]
    properties_ok = all(lp.properties_ok for lp in loops)
    correct = not unexpected and properties_ok
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)

    cal_ms = statistics.median(cal.kernel_s) * 1e3
    raw_ms = statistics.median(loop.request_s) * 1e3
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {loop.rounds} rounds, "
          f"{len(loop.request_s)} requests of which {loop.failed} failed")
    print(f"# request p50 raw_ms={raw_ms:.4f}  calibration p50 cal_ms={cal_ms:.4f}  "
          f"import_s={import_s:.4f}  build_s={sum(statistics.median(s) for s in build_s.values()):.4f}")
    for req_id, error in unexpected[:10]:
        print(f"# unexpected failure: request {req_id}: {error}")
    if not properties_ok:
        print("# a round property failed (error * |omega|^2 grew with |omega|)")

    if not args.trace:
        total_cal = sum(loop.request_cal)
        digs = loop.digits
        values = {
            "setup_s": setup_s,
            "request_cal_p50": loop.request_cal_p50(),
            "items_per_kcal": 1000.0 * loop.items / total_cal,
            "digits_p50": float(np.median(digs)) if digs.size else 0.0,
            "digits_min": float(np.min(digs)) if digs.size else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        overhead = 100.0 * (traced.request_cal_p50() / loop.request_cal_p50() - 1.0)
        arrays = tracer.arrays()
        metrics = spans.layer_metrics(arrays, tracer.counts, len(traced.request_s), overhead)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))

    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
