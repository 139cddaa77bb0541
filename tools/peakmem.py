"""Memory profile of one ``richlab run``: resident peak, traced peak and
the allocation sites live at the traced peak.

    PYTHONPATH=src python tools/peakmem.py perfbench/workloads/transfer.json --seed 0

The process imports richlab and builds the config schema from the config
dataclasses, as every ``richlab run`` does, and prints its VmHWM (the peak resident set size
that the benchmark reports as ``peak_rss_mb``).  It then runs
``cli.cmd_run`` on the config, untraced, and prints VmHWM at the end.

VmHWM also moves with the heap layout, which the byte size of the loaded
source can shift by a few tenths of a MB while the run's work stays the
same.  The tracemalloc peak of a second, identical run does not: it
counts the bytes held by Python objects and numpy buffers.  It still
moves by a few KB between invocations of one tree: at seed 0, ``transfer``
read 2,691-2,696 KB in five runs on one copy of a tree and 2,697-2,700 KB
in three on another, and ``ood-vrex`` 1,122-1,125 KB, so a move under
about 5 KB within one copy, or 10 KB between copies, is not a
measurement.  A third and a fourth run, each after a cycle collection,
find the last call boundary at which the traced size is largest and
list the source lines whose allocations are live there.

Every run writes its outputs to a temporary directory, and its standard
output is discarded.  Runs after the first find their modules imported,
so the traced peak counts the run's own data.  Linux only (VmHWM comes
from ``/proc/self/status``).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import sys
import tempfile
import tracemalloc

TOP_SITES = 10  # allocation sites listed at the traced peak


def vmhwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run(cli, config: str, seed: int | None, hook=None) -> int:
    """One ``cli.cmd_run`` into a temporary directory, under the profile ``hook``."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            return cli.cmd_run(config, seed=seed, out=out)
        finally:
            sys.setprofile(None)


class PeakFinder:
    """Profile hook: counts call boundaries and remembers the last one at
    which the traced size is largest; with ``at`` set, it takes a
    snapshot at that boundary instead."""

    def __init__(self, at: int | None = None):
        self.at, self.events, self.best, self.best_event = at, 0, -1, -1
        self.snapshot = None

    def __call__(self, frame, event, arg):
        self.events += 1
        if self.at is None:
            current = tracemalloc.get_traced_memory()[0]
            if current >= self.best:
                self.best, self.best_event = current, self.events
        elif self.events == self.at:
            self.best = tracemalloc.get_traced_memory()[0]
            self.snapshot = tracemalloc.take_snapshot()


def traced(cli, config, seed, hook=None) -> int:
    """Traced peak in bytes of one run under ``hook``."""
    tracemalloc.start()
    try:
        rc = run(cli, config, seed, hook)
        if rc:
            sys.exit(f"cmd_run exited {rc}")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="a richlab run config, e.g. perfbench/workloads/transfer.json")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    args = parser.parse_args(argv)

    from richlab import cli

    cli.load_schema()
    print(f"vmhwm_setup_mb       {vmhwm_mb():.2f}")
    rc = run(cli, args.config, args.seed)
    if rc:
        return rc
    print(f"vmhwm_end_mb         {vmhwm_mb():.2f}")
    print(f"tracemalloc_peak_kb  {traced(cli, args.config, args.seed) / 1000:.1f}")

    # A cycle collection that falls inside one of the two runs, and not at
    # the same call in the other, runs the ``__del__`` of leftover garbage
    # there and shifts every later call count; so both start collected.
    # The traced run above does not: collecting before it moves the
    # ``transfer`` peak at seed 0 from about 2,693 to about 2,726 KB.
    gc.collect()
    finder = PeakFinder()
    traced(cli, args.config, args.seed, finder)
    gc.collect()
    taker = PeakFinder(at=finder.best_event)
    traced(cli, args.config, args.seed, taker)
    if taker.events != finder.events:
        return (f"the runs took different paths: {finder.events:,} call events, "
                f"then {taker.events:,}")
    print(f"top sites live at call boundary {finder.best_event:,} "
          f"(traced {taker.best / 1000:.1f} KB there):")
    for stat in taker.snapshot.statistics("lineno")[:TOP_SITES]:
        frame = stat.traceback[0]
        print(f"  {stat.size / 1000:9.1f} KB  {stat.count:6d} blocks  "
              f"{frame.filename}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
