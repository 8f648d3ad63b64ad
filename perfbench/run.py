"""locadmm benchmark.

    python3 perfbench/run.py --workload solve-108 --seed 1 --seconds 18 --trace 0

Run from the repository root. ``--trace 0`` measures the workload untraced
and reports its end-to-end metrics; ``--trace 1`` runs the traced replay on
the same instance and reports the per-layer metrics. Detail lines (the
environment, sample counts and tails, span self times, the ROADMAP's
reference figures) start with ``#``; the last line of standard output is the
JSON result. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Figures from ROADMAP's "State at this re-anchor", by (workload, traced),
# printed next to the benchmark's own measurement of the same quantity.
ROADMAP_FIGURES = {
    ("solve-108", False): {"iter_ms.lite": 11.6, "iter_ms.full": 14.4},
    ("solve-108", True): {"full_iter_ms_threads_nproc": 16.4},
    ("cli-108", False): {"iter_ms.lite": 36.0},
    ("scale-1k", False): {"iter_ms.lite": 132.0, "iter_ms.full": 132.0},
}


def environment(workload: str, seed: int, threads: int) -> dict:
    import numpy

    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
    l2, l3 = libc.sysconf(191), libc.sysconf(194)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "l2_bytes": l2,
        "l3_bytes": l3,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        out_dir: str = os.path.join(HERE, "out")) -> dict:
    """Run one workload and return the result object (the last output line).
    ``toy`` swaps in the small instances the smoke test uses; temporary files
    and the span dump go under ``out_dir``."""
    import workloads as wl
    from traced import run_traced

    w = (wl.TOY if toy else wl.WORKLOADS)[workload]
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally, details = wl.Tally(), {}
    threads = (os.cpu_count() or 1) if w.kind == "cli" else 1
    print("# env " + json.dumps(environment(workload, seed, threads)))
    try:
        if trace:
            spans = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
            metrics = run_traced(w, seed, seconds, tally, details, workdir, spans)
        else:
            metrics = wl.run_untraced(w, seed, seconds, tally, details, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in details.items():
        print(f"# {key} " + json.dumps(value))
    figures = {}
    for key, value in ROADMAP_FIGURES.get((workload, trace), {}).items():
        if trace:
            figures[key] = {"roadmap": value, "raw": details[key]}
        else:
            algo = key.rsplit(".", 1)[1]
            figures[key] = {"roadmap": value, "calibrated": metrics[key]["value"],
                            "raw": details["raw_iter_ms"][algo]}
    print("# roadmap_vs_measured " + json.dumps(figures))
    for op, reasons in sorted(tally.failures.items()):
        print(f"# failed op {op}: " + "; ".join(reasons), file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "locadmm", "__init__.py")):
        print(f"error: no locadmm package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
