"""finito benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload spaces --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each repetition runs in a fresh interpreter (``worker.py``), so
module-level caches start cold as they do for a command-line user.  One
client sends one request at a time (a closed loop), no threads.
Repetitions start until ``--seconds`` have passed, and every figure is the
median over them.

The last line of standard output is the result: ``correct``, ``attempted``
and ``failed`` count the checked outputs of every repetition, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  The line before it records the seed, the machine
and the source being measured.  ``--size tiny`` runs a reduced input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = ("full", "tiny")
SETUP_SAMPLES = 15
BUDGET_S = 175


class ChildFailed(Exception):
    pass


def _p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.workdir = ROOT / ".perfbench_work" / str(os.getpid())
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("FINITO_MAX_POINTS", None)
        self.children = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one repetition; returns its record with ``setup_s`` added."""
        self.children += 1
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--trace", str(int(trace)), "--size", self.args.size,
            "--workdir", str(self.workdir / str(self.children)),
        ] + (["--setup-only"] if setup_only else [])
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, BUDGET_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"repetition {self.children} ran out of time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(
                f"repetition {self.children} exited with {proc.returncode}:\n{proc.stderr}"
            )
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - spawned
        return record

    def untraced(self) -> tuple[dict, list[dict]]:
        reps = [self.child()]
        while self.elapsed() < self.args.seconds:
            reps.append(self.child())
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.child(setup_only=True)["setup_s"])
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "item_p50_ms": statistics.median(statistics.median(r["item_ms"]) for r in reps),
            "item_p95_ms": statistics.median(_p95(r["item_ms"]) for r in reps),
        }
        return metrics, reps

    def traced(self) -> tuple[dict, list[dict]]:
        """Alternates untraced and traced repetitions; the difference of their
        median wall times is the tracing overhead."""
        plain, traced = [self.child()], [self.child(trace=True)]
        while self.elapsed() < self.args.seconds:
            if len(plain) > len(traced):
                traced.append(self.child(trace=True))
            else:
                plain.append(self.child())
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        return metrics, plain + traced


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args()
    if not (ROOT / "src" / "finito" / "__init__.py").is_file():
        print(f"error: no finito package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the
    # running repetition before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    runner = Runner(args)
    try:
        metrics, reps = runner.traced() if args.trace else runner.untraced()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            runner.workdir.parent.rmdir()
        except OSError:
            pass

    failures = [label for r in reps for label in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "src_sha256": _source_digest(),
        "repetitions": len(reps), "wall_s": [r["wall_s"] for r in reps],
        "absent": sorted({n for r in reps for n in r["absent"]}),
        "hook_errors": sorted({n for r in reps for n in r["hook_errors"]}),
        "failures": failures[:20],
    }}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
