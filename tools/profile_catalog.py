"""Print four figures for one cold pass of the identity catalog.

The catalog is built once; before each pass the sequence tables are
cleared, and ``verify_all()`` runs with default caps.  The figures are:

- the number of ``Fraction.__new__`` calls in one pass under ``cProfile``;
- the ``tracemalloc`` peak of a separate pass, in MiB;
- the total milliseconds of a third pass, by ``time.perf_counter``, and its
  ten slowest records, each record verified in catalog order (so a record
  that first needs a table row pays for growing it).

Usage::

    python tools/profile_catalog.py [source-directory]

The directory holding the ``volkenborn`` package defaults to ``src``
beside this script's parent.
"""
from __future__ import annotations

import cProfile
import pstats
import sys
import time
import tracemalloc
from pathlib import Path


def main(argv: list[str]) -> int:
    source = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(source.resolve()))
    from volkenborn import identities, sequences

    records = identities.catalog()

    profiler = cProfile.Profile()
    sequences.clear_caches()
    profiler.runcall(identities.verify_all)
    news = sum(
        calls
        for (path, _, name), (_, calls, *_) in pstats.Stats(profiler).stats.items()
        if name == "__new__" and Path(path).name == "fractions.py"
    )

    sequences.clear_caches()
    tracemalloc.start()
    try:
        identities.verify_all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    sequences.clear_caches()
    times = []
    for record in records:
        start = time.perf_counter()
        identities.verify(record)
        times.append(((time.perf_counter() - start) * 1e3, record.id))

    print(f"Fraction.__new__ calls  {news}")
    print(f"tracemalloc peak MiB    {peak / 2**20:.3f}")
    print(f"cold pass ms            {sum(ms for ms, _ in times):.1f}")
    print("slowest records, cold ms")
    for ms, rid in sorted(times, reverse=True)[:10]:
        print(f"  {rid:<6} {ms:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
