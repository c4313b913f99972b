"""The FBS benchmark: one command, three workloads, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload endpoint-single --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, each
time scaled to a nominal host by a reference loop probed around every
timed unit (``measure.HostSpeed``).
``--trace 1`` runs an untraced half and a traced half and prints the
per-layer metrics instead, with the tracing overhead.  Each workload
must measure its own per-layer set (``layers.CATALOG``); the result
line still names every per-layer metric, with 0 and ``n=0`` for those
outside the set, which the printed table marks ``n/a``.  The program is
built from ``src/`` of the checkout; without it the benchmark exits 2
and prints no result.  Every run stamps its environment, prints each
metric with unit and sample count, checks the outputs, and ends with one
JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("endpoint-single", "endpoint-batch", "gateway-churn")


def _source_revision() -> str:
    """The git revision, or a digest of ``src/`` outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            out = None
        if out is not None and out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def environment(seed: int) -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python={platform.python_version()} numpy={numpy_version} "
        f"nproc={nproc} rev={_source_revision()} seed={seed}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    trace = bool(args.trace)
    if args.workload.startswith("endpoint"):
        import endpoint as module
    else:
        import churn as module
    res = module.run(args.workload, args.seed, args.seconds, trace)

    from layers import CATALOG, applicable, cost_model_lines
    from measure import END_TO_END

    expected = applicable(args.workload) if trace else END_TO_END
    missing = sorted(set(expected) - set(res.metrics))
    res.check(not missing, f"metrics not measured: {missing}")
    not_applicable = set()
    if trace:
        for name, unit, _better, _moves, _on in CATALOG:
            if name not in res.metrics:
                not_applicable.add(name)
                res.put(name, 0.0, unit, 0)

    print(f"workload={args.workload} trace={args.trace} seconds={args.seconds:g}")
    print(f"env: {environment(args.seed)}")
    for note in res.notes:
        print(f"note: {note}")
    targets = {name: moves for name, _unit, _better, moves, _on in CATALOG}
    for name in sorted(res.metrics):
        value, unit, samples = res.metrics[name]
        if name in not_applicable:
            print(f"  {name:<46} {'n/a':>14} {unit:<8} not measured by {args.workload}")
            continue
        moves = f"  -> {targets[name]}" if name in targets else ""
        print(f"  {name:<46} {value:>14.6g} {unit:<8} n={samples}{moves}")
    if trace:
        measured = {k: v for k, v in res.metrics.items() if k not in not_applicable}
        for line in cost_model_lines(measured):
            print(line)
    print(f"ledger: attempted={res.attempted} delivered={res.delivered} failed={res.failures}")
    for problem in res.problems:
        print(f"GATE FAILED: {problem}")
    correct = not res.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.attempted,
                "failed": res.failed,
                # A tail made of undelivered datagrams is infinite; JSON
                # has no infinity, so it prints as null (the run is
                # already incorrect then).
                "metrics": {
                    name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit, _samples) in sorted(res.metrics.items())
                },
            },
            sort_keys=True,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
