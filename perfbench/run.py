"""Benchmark of evdenoise: three seeded workloads against its public API.

Run from the root of an evdenoise checkout:

    python3 perfbench/run.py --workload offline-346-5lux --seed 1 --seconds 20 --trace 0

Workloads: ``offline-346-5lux``, ``online-64-750lux``, ``label-train-64-5lux``
(see ``workloads.py`` for what each exercises and why).  ``--trace 0`` times
the workload and reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer self times, counts and the
tracing overhead.  Both check the outputs on the workload seed and on a
held-out seed (seed + 1000003).  Every line but the last describes the run
(machine, input counters, per-metric sample counts and tail percentiles,
check failures); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

WORKLOAD_NAMES = ("offline-346-5lux", "online-64-750lux", "label-train-64-5lux")
DEFAULT_SEED = 1


def machine_info() -> dict:
    """The machine a result was measured on."""
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "loadavg_at_start": [round(v, 2) for v in os.getloadavg()],
    }


def per_layer_units(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "share"
    return "count"


def per_layer(result: dict) -> dict:
    """Per-layer metrics of a traced run, the input's mean neighbors per graph
    and the tracing overhead (median traced minus median untraced wall time
    of a round)."""
    values = dict(result["layers"])
    trace = result["trace"]
    values["trace.untraced_round_s"] = trace["untraced_round_s"]
    values["trace.overhead_s"] = trace["traced_round_s"] - trace["untraced_round_s"]
    values["graph.neighbors_mean"] = result["input"]["neighbors_mean"]
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the timed region")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    package = root / "src" / "evdenoise" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of an "
              "evdenoise checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import evdenoise
    if Path(evdenoise.__file__).resolve() != package.resolve():
        print(f"error: imported evdenoise from {evdenoise.__file__}, "
              f"not {package}", file=sys.stderr)
        return 2
    import workloads

    machine = machine_info()
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), workdir)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass

    checks = result["checks"]
    details = {"workload": args.workload, "seed": args.seed,
               "held_out_seed": result["held_out_seed"], "trace": args.trace,
               "seconds": args.seconds, "machine": machine,
               "input": result["input"], "checks": checks}
    if args.trace:
        values = per_layer(result)
        units = {name: per_layer_units(name) for name in values}
        details["trace"] = result["trace"]
    else:
        values, summaries = workloads.end_to_end(result)
        units = workloads.END_TO_END_UNITS
        details["samples"] = summaries
    print("perfbench " + json.dumps(details, sort_keys=True))

    finite = all(math.isfinite(v) for v in values.values())
    correct = checks["failed"] == 0 and checks["attempted"] > 0 and finite
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"] + (0 if finite else 1),
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # single-threaded BLAS, fixed before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
