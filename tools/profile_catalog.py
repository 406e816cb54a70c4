"""Print five figures for one cold pass of the identity catalog.

The catalog is built once; before each pass the sequence tables are
cleared, and ``verify_all()`` runs with default caps, or with every grid
capped at N under ``--n-max N`` (as ``volkenborn verify --n-max N``).  The
figures are:

- the number of ``Fraction.__new__`` calls in one pass under ``cProfile``;
- the ``tracemalloc`` peak of a separate pass, in MiB, beside the bound a
  Tier-1 test holds it to;
- the total milliseconds of a third pass, by ``time.perf_counter``, and its
  ten slowest records, each record verified in catalog order (so a record
  that first needs a table row pays for growing it);
- for those ten records, the milliseconds spent in their left and in their
  right side, from a fourth pass with each side timed at every call (the
  timer calls are left out of the third pass's figures).

Usage::

    python tools/profile_catalog.py [--n-max N] [source-directory]

The directory holding the ``volkenborn`` package defaults to ``src``
beside this script's parent.  A cap that ``verify`` refuses is a usage
error (exit 2), with ``verify``'s message.
"""
from __future__ import annotations

import argparse
import cProfile
import pstats
import signal
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

TRACEMALLOC_BOUND_MIB = 0.2  # tests/test_exact_sums.py, the cold-pass live-memory test


def _timed(side, spent: dict, key: str):
    """side, adding the seconds of each call to spent[key]."""

    def call(*params):
        start = time.perf_counter()
        try:
            return side(*params)
        finally:
            spent[key] += time.perf_counter() - start

    return call


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=None, help="grid cap (default: each record's own)")
    parser.add_argument("source", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.source.resolve()))
    from volkenborn import identities, sequences

    cap = args.n_max

    records = identities.catalog()
    try:
        identities.verify(records[0], cap)  # verify refuses a bad cap before any work
    except ValueError as err:
        parser.error(str(err))

    profiler = cProfile.Profile()
    sequences.clear_caches()
    profiler.runcall(identities.verify_all, cap)
    news = sum(
        calls
        for (path, _, name), (_, calls, *_) in pstats.Stats(profiler).stats.items()
        if name == "__new__" and Path(path).name == "fractions.py"
    )

    sequences.clear_caches()
    tracemalloc.start()
    try:
        identities.verify_all(cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    sequences.clear_caches()
    times = []
    for record in records:
        start = time.perf_counter()
        identities.verify(record, cap)
        times.append(((time.perf_counter() - start) * 1e3, record.id))

    # the same pass again, each side of each record timed on its own; a literal
    # side that a corrected record does not restate is timed as that side
    sequences.clear_caches()
    sides = {}
    for record in records:
        spent = sides[record.id] = {"lhs": 0.0, "rhs": 0.0}
        timed = replace(record, **{k: _timed(getattr(record, k), spent, k) for k in spent})
        identities.verify(timed, cap)

    print(f"Fraction.__new__ calls  {news}")
    bound = f"Tier-1 bound {TRACEMALLOC_BOUND_MIB}" if cap is None else f"cap {cap}; the bound is for the default caps"
    print(f"tracemalloc peak MiB    {peak / 2**20:.3f} ({bound})")
    print(f"cold pass ms            {sum(ms for ms, _ in times):.1f}")
    print("slowest records, cold ms: total, then left and right side (timed pass)")
    for ms, rid in sorted(times, reverse=True)[:10]:
        spent = sides[rid]
        print(f"  {rid:<6} {ms:7.2f}  lhs {spent['lhs'] * 1e3:7.2f}  rhs {spent['rhs'] * 1e3:7.2f}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the tool quietly
    sys.exit(main(sys.argv[1:]))
