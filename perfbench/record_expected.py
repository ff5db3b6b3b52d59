"""Record the outputs benchmark runs are checked against (``expected.json``).

    python3 perfbench/record_expected.py [--seeds 0 1 2 ...]

Entries of seeds not named are kept.  For each simulation workload and
named seed this records the digest and headline counters of one
untraced cell; for the default and held-out seeds it also records the
per-layer counts of one traced cell.  For the service workload it
records the digest of every cell it requests, computed directly
through the library.  Re-record only for a change that is
meant to alter simulated outputs, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import HERE, SRC, load_expected, record_digest

sys.path.insert(0, str(SRC))

import run  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEEDS = [*range(11), run.DEFAULT_SEED, run.HELD_OUT_SEED]
LAYER_SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=DEFAULT_SEEDS,
                        help="simulation seeds to (re-)record; entries of "
                        "other seeds are kept (none: service cells only)")
    args = parser.parse_args()
    from repro.experiments.requests import resolve_request
    from repro.experiments.runner import (
        CellSpec,
        clear_result_cache,
        resolve_cell,
        run_resolved,
    )

    expected = load_expected()
    expected["held_out_seed"] = run.HELD_OUT_SEED
    expected["service_cells"] = {}
    for config in service_mix.WARMUP + service_mix.POOL:
        clear_result_cache()
        record = run_resolved(resolve_request(config)).to_record()
        expected["service_cells"][service_mix.cell_key(config)] = (
            record_digest(json.loads(json.dumps(record)))
        )
    for seed in args.seeds:
        graph = run.build_graph(seed)
        for workload, system in run.SIM_WORKLOADS.items():
            cell = resolve_cell(CellSpec(system, run.ALGORITHM, "SW",
                                         scale="mid"))
            _, _, result = run.run_cell(cell, graph)
            errors = run.check_cell(workload, seed, result, graph,
                                    cell.max_iterations, {})
            if errors:
                raise SystemExit(f"{workload} seed {seed}: {errors}")
            record = result.to_record()
            expected.setdefault("sim", {}).setdefault(workload, {})[
                str(seed)] = {
                "digest": record_digest(record),
                **{k: record[k] for k in ("total_ns", "cache_hits",
                                          "cache_accesses", "mshr_ops")},
            }
            if seed in LAYER_SEEDS:
                tracer = spans.Tracer(f"record-{workload}-{seed}")
                with tracer.installed():
                    seconds, _, traced = run.run_cell(cell, graph)
                if traced.to_record() != record:
                    raise SystemExit(f"{workload} seed {seed}: traced "
                                     f"result differs")
                layers = spans.cell_layer_metrics(tracer, seconds)
                expected.setdefault("layer_counts", {}).setdefault(
                    workload, {})[
                    str(seed)] = {n: layers[n] for n in run.COUNT_METRICS}
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(HERE / "expected.json", "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
