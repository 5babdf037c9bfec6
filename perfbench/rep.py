"""One repetition of one workload, in the fresh interpreter it was spawned in.

Started by ``run.py`` with the monotonic time of the spawn; prints one JSON
object as its last line of standard output:

    setup_s      spawn to the first timed call (imports, inputs, warm-up)
    wall_s       wall time of the timed phase
    cpu_s        user + system CPU of this process and its waited-for
                 children (the pool workers) over the timed phase
    peak_rss_mb  the larger of this process's and its children's maximum RSS
    attempted, wrong, tracebacks
    phase_s      wall time of each named phase of the timed phase
    layers       per-layer metrics, traced repetitions only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def repetition(workload, args) -> dict:
    import tracing

    workload.setup()
    tracer = tracing.install() if args.trace else None
    setup_s = time.monotonic() - args.spawned_at

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    outputs = workload.run()
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    attempted, wrong, tracebacks = workload.check(outputs)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "attempted": attempted,
        "wrong": wrong,
        "tracebacks": tracebacks,
        "phase_s": workload.phase_s,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, wall_s, workload.jobs)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import slfusion

    if Path(slfusion.__file__).resolve().parent != SRC / "slfusion":
        print(f"imported slfusion from {slfusion.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        result = repetition(workload, args)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
