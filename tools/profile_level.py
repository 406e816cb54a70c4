"""Print the median in-process latency of each kind of ``level_sums`` op.

The ops are one seeded round of the benchmark's ``level_sums`` workload,
read from ``bench/workloads.py`` (not changed here) on warm tables: the
workload's set-up runs first, then the round once untimed, so every table
row the round reads is built.  The q-weighted ops are left out: they are
the term loop over all p^N points, about 98 % of a round's time.  Each
other op is timed ``--repeat`` times by ``time.perf_counter`` and keeps
its fastest time; the tool prints, per kind, the number of ops and the
median of those times in microseconds.  The kinds are the bosonic and
fermionic level integrals, all of them and split by the polynomial's
degree into the bands 0-9, 10-19 and 20-30, the convergence reports
(``conv``), and the plain and alternating power sums (``power``, ``alt``).

Usage::

    python tools/profile_level.py [--seed S] [--repeat R] [--cpu C] [source-directory]

The directory holding the ``volkenborn`` package defaults to ``src``
beside this script's parent, so the same script times another checkout's
source.  ``--cpu`` pins this process to one CPU (default: not pinned);
a CPU this process may not run on, or ``--repeat`` below 1, is a usage
error (exit 2).
"""
from __future__ import annotations

import argparse
import os
import random
import statistics
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BANDS = ((0, 9), (10, 19), (20, 30))


def kind_of(op: tuple) -> str:
    if op[0] != "level":
        return op[0]
    degree = len(op[2]) - 1
    low, high = next(band for band in BANDS if band[0] <= degree <= band[1])
    return f"level {op[1]} deg {low}-{high}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("source", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1: got {args.repeat}")
    if args.cpu is not None:
        allowed = os.sched_getaffinity(0)
        if args.cpu not in allowed:
            parser.error(f"--cpu must be one of {sorted(allowed)}: got {args.cpu}")
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(Path(args.source).resolve()), str(ROOT / "bench")]
    import workloads

    workload = workloads.LevelSums({})
    workload.setup()
    ops = [op for op in workload.round(random.Random(args.seed)) if op[0] != "q"]
    for op in ops:
        workload.run(op)
    best: dict[str, list[float]] = {}
    for op in ops:
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            workload.run(op)
            times.append(time.perf_counter() - start)
        best.setdefault(kind_of(op), []).append(min(times))
        if op[0] == "level":
            best.setdefault(f"level {op[1]} all", []).append(min(times))
    print(f"seed {args.seed}, fastest of {args.repeat} per op, median per kind")
    for kind in sorted(best):
        print(f"  {kind:<20} {len(best[kind]):4d} ops  {statistics.median(best[kind]) * 1e6:9.1f} us")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the tool quietly
    sys.exit(main(sys.argv[1:]))
