"""Experiment-service child process for the ``service-mix`` workload.

Serves :class:`repro.service.ExperimentService` over the stdlib HTTP
transport (:func:`repro.service.http.serve`, the ``repro serve`` path)
on an ephemeral localhost port, printing the bound address as its first
line of output.  SIGINT stops it; it then writes its peak RSS and, with
``--spans``, the spans its tracing wrappers recorded.

    python3 perfbench/server.py --store DIR --stats FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans", help="trace the service layers and "
                        "write their spans here on exit")
    parser.add_argument("--run-id", default="service-mix")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

    import spans
    from repro.service import ExperimentService
    from repro.service.http import serve

    tracer = spans.Tracer(args.run_id) if args.spans else None
    if tracer is not None:
        tracer.install()
    wrappers = spans.active_wrappers()
    try:
        serve(ExperimentService(args.store), "127.0.0.1", 0, verbose=False)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)
        with open(args.stats, "w") as handle:
            json.dump({
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "wrappers": wrappers,
            }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
