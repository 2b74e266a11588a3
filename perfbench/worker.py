"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; prints one JSON line.  Set-up ends, and the printed
``ready`` time is taken, once ``finito`` and ``finito.cli`` are imported and
the inputs are generated.  The workload is then run once, timed, and its
outputs checked outside the timed region.  With ``--trace 1`` the layers
are wrapped after set-up, and their metrics are read before the checks run.

    python3 perfbench/worker.py --workload spaces --seed 1 --trace 0 \
        --size full --workdir .perfbench_work/1
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import finito  # noqa: E402  (set-up time includes these imports)
import finito.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    generate, run, check = workloads.WORKLOADS[args.workload]
    inputs = generate(args.seed, workloads.SIZES[args.size][args.workload], args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    t0 = time.perf_counter()
    outputs, item_ms = run(inputs)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer else None

    results = check(inputs, outputs)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "item_ms": item_ms,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(results),
        "failures": [label for label, ok in results if not ok],
        "layers": layers,
        "absent": tracer.absent() if tracer else [],
        "hook_errors": sorted(tracer.hook_errors) if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
