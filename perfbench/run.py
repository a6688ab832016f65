"""Run one benchmark workload over the wlasdi pipeline and print its result.

    python3 perfbench/run.py --workload offline-train --seed 0 --seconds 8 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Messages of failed checks go to standard error. The package is imported
from ``src/`` of the checkout that holds this file; without it the run
exits with code 2 and prints no result.
"""
import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS thread: the latent systems are tiny and the FOM's sparse LU is
# single-threaded, so more threads only add run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (interpreter start-up
    included); falls back to the time since this module began executing."""
    fallback = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return elapsed if fallback <= elapsed < fallback + 60.0 else fallback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wlasdi" / "__init__.py").is_file():
        print(f"perfbench: no wlasdi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir,
        clock=seconds_since_process_start,
    )
    for message in result.pop("messages"):
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
