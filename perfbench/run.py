"""pnsrisk benchmark driver: one workload, one closed-loop client.

    python3 perfbench/run.py --workload repro_casn --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  The workload's operation runs back to back, the
next one starting when the previous returns, until the next would end
after ``--seconds``.  Every operation is gated on correctness.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  After one untimed warm-up operation
its operations alternate untraced and traced, so the tracing overhead
is measured too.  A machine record
goes to stdout first; the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Nothing here changes a machine setting.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of a
# thread per core, distance correlation at n = 500 on a 2-core VM took
# either about 12 or about 25 ms from one process to the next, and
# evaluate was slower than on one thread; the one-client workloads gain
# nothing from a second BLAS thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import spans  # noqa: E402  (imports numpy)
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dcor_sn", "1"),
    ("dcor_gap", "1"),
)


def import_package():
    """The pnsrisk modules of this checkout, or exit 2 without a result."""
    if not (SRC / "pnsrisk" / "__init__.py").is_file():
        sys.exit(f"error: no pnsrisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pnsrisk
    if Path(pnsrisk.__file__).resolve().parent != (SRC / "pnsrisk").resolve():
        sys.exit(f"error: pnsrisk imported from {pnsrisk.__file__}, not {SRC}")
    return spans.package_modules()


def _blas():
    """(name, version, threads) of the BLAS numpy runs on."""
    import numpy as np
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return info.get("name"), info.get("version"), threads


def machine_record(load_at_start):
    import numpy as np
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas_name, blas_version, blas_threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads,
        "loadavg_at_start": load_at_start,
        "machine_settings_changed": False,
    }


def measure_setup(args):
    """Median time from starting a fresh interpreter until it has
    imported the package and built the workload inputs.  The child
    prints a CLOCK_MONOTONIC stamp (one clock for every process on
    Linux) once its inputs are built, so its teardown is left out."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock_gettime(CLOCK_MONOTONIC)
        proc = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


class Loop:
    """Counts operations and failures; keeps the quality figures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.quality = None

    def step(self, call=None):
        """Run one operation (through ``call`` when tracing); returns
        False when the loop must stop because the operation raised."""
        self.attempted += 1
        try:
            outcome = call(self.workload.run) if call else self.workload.run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return False
        if self.quality is None:
            self.quality = outcome.quality
        elif outcome.quality != self.quality:
            outcome.failures.append(f"quality not repeatable: {outcome.quality} "
                                    f"after {self.quality}")
        if outcome.failures:
            self.failed += 1
            print("gate failed: " + "; ".join(outcome.failures), file=sys.stderr)
        return True


def run_plain(loop, seconds):
    walls = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ok = loop.step()
        walls.append(perf_counter() - t0)
        print(f"operation {len(walls)}: {walls[-1]:.4f} s", file=sys.stderr)
        if not ok or perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def run_traced(loop, seconds, mods):
    untraced, tracers = [], []
    start = perf_counter()
    # a discarded warm-up operation, so that no pair starts cold
    if not loop.step():
        return {}
    while True:
        t0 = perf_counter()
        ok = loop.step()
        untraced.append(perf_counter() - t0)
        if not ok:
            break
        tracer = spans.Tracer(mods)
        with tracer:
            ok = loop.step(tracer.run)
        tracers.append(tracer)
        pair = statistics.median(untraced) + statistics.median(t.wall for t in tracers)
        if not ok or perf_counter() - start + pair > seconds:
            break
    return spans.layer_metrics(tracers, untraced) if loop.failed == 0 else {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; figures are not comparable")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit")
    return parser.parse_args(argv)


def main(argv=None):
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if args.seed < 0:
        sys.exit("error: --seed must be nonnegative")
    mods = import_package()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](mods, args.seed, workdir, tiny=args.tiny)
            print(repr(clock_gettime(CLOCK_MONOTONIC)))
            return 0
        setup_s = None if args.trace else measure_setup(args)
        loop = Loop(workloads.WORKLOADS[args.workload](mods, args.seed, workdir,
                                                       tiny=args.tiny))
        if args.trace:
            values = run_traced(loop, args.seconds, mods)
            units = dict(spans.LAYER_METRICS)
        else:
            walls = run_plain(loop, args.seconds)
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **(loop.quality or {}),
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run is using it, or it holds something else
    print(json.dumps({"machine": machine_record(load_at_start)}))
    correct = loop.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
