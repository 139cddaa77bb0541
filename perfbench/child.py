"""One fresh richlab process for the benchmark.

``setup`` mode imports richlab and loads the config schema, which every
``richlab run`` pays for.  ``run`` mode then executes ``cli.cmd_run`` on a
workload config, optionally under the span tracer.  Either mode writes a
JSON result with ``t_ready`` (``time.monotonic()`` once set-up is done,
comparable with the parent's clock on Linux), ``run_s``, the exit code of
``cmd_run`` and the peak resident set size.  The process exits with the
exit code of ``cmd_run``.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set size of this process image, in KiB.

    ``VmHWM`` is read first: on Linux ``ru_maxrss`` also counts the
    parent's pages at fork time, so it would report the peak of the
    benchmark process that started this one when that is larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace-out", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    from richlab import cli

    cli.load_schema()
    result = {"t_ready": time.monotonic()}
    rc = 0
    if args.mode == "run":
        tracer = None
        if args.trace_out:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        rc = cli.cmd_run(args.config, seed=args.seed, out=args.out)
        result["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.write(args.trace_out)
        result["rc"] = rc
    result["maxrss_kb"] = peak_rss_kb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
