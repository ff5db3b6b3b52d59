"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Runs the simulation workloads on a toy-sized graph and the service mix
at its smallest size, and checks that the benchmark emits every metric
``BENCHMARK.json`` names, counts a wrong output as a failed operation,
and installs no wrappers in untraced runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import unittest

from common import ROOT, SRC, load_expected, per_layer_spec

sys.path.insert(0, str(SRC))

import run  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: a toy-sized SW graph keeps a full cell under a second
TOY_VERTICES = 21_000_000 >> 12


def benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def emitted(outcome, metrics) -> dict:
    """The JSON result line run.emit prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(outcome, metrics)
    return json.loads(out.getvalue().splitlines()[-1])


class BenchmarkFileTest(unittest.TestCase):
    def test_names_and_units(self):
        bench = benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["unit"], UNIT_RE)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))

    def test_per_layer_metrics_are_all_derived(self):
        tracer = spans.Tracer("names")
        derived = set(spans.cell_layer_metrics(tracer, 1.0))
        derived |= set(spans.service_layer_metrics(
            tracer, {"post_s": 0.0, "miss_latency_s": 0.0, "misses": 0}
        ))
        derived |= {f"service.cache.{k}" for k in (
            "hits_memo", "hits_store", "misses", "single_flight_joined",
            "rejected")}
        derived.add("trace.overhead_s")
        self.assertEqual({m["name"] for m in per_layer_spec()}, derived)
        self.assertLessEqual(set(run.COUNT_METRICS), derived)

    def test_default_seed_is_the_registry_graph(self):
        from repro.graph.datasets import load_dataset

        ours = run.build_graph(run.DEFAULT_SEED)
        registry = load_dataset("SW", 6)
        for field in ("indptr", "indices", "weights"):
            self.assertTrue((getattr(ours, field)
                             == getattr(registry, field)).all(), field)


class SimWorkloadTest(unittest.TestCase):
    workload = "piccolo-pr-mid"
    #: the cache engine this workload's system uses
    engine = "core.piccolo_cache"

    def run_toy(self, traced, expected=None):
        return run.run_sim(self.workload, 1, 0.0, traced, expected or {},
                           vertices=TOY_VERTICES)

    def test_untraced_emits_end_to_end_without_wrappers(self):
        result = self.run_toy(traced=False)
        self.assertEqual(result["wrappers_seen"], [])
        self.assertEqual(result["outcome"].failures, [])
        line = emitted(result["outcome"], run.sim_metrics(result, False))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in benchmark()["end_to_end"]})
        for metric in line["metrics"].values():
            self.assertGreater(metric["value"], 0)
            self.assertIn("unit", metric)

    def test_traced_emits_per_layer_and_uninstalls(self):
        result = self.run_toy(traced=True)
        self.assertTrue(result["wrappers_seen"])
        self.assertEqual(spans.active_wrappers(), [])
        self.assertEqual(result["outcome"].failures, [])
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.sim_metrics(result, True)
        line = emitted(result["outcome"], metrics)
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in per_layer_spec()})
        items = line["metrics"][self.engine + ".access_many.items"]["value"]
        self.assertGreater(items, 0)

    def test_wrong_expected_digest_is_a_counted_failure(self):
        plain = self.run_toy(traced=False)
        record = plain["results"][0][1].to_record()
        wrong = {"sim": {self.workload: {"1": {
            "digest": "0" * 32,
            **{k: record[k] for k in ("total_ns", "cache_hits",
                                      "cache_accesses", "mshr_ops")},
        }}}}
        result = self.run_toy(traced=False, expected=wrong)
        outcome = result["outcome"]
        self.assertEqual(outcome.failed, outcome.attempted)
        self.assertIn("digest", outcome.failures[0])
        line = emitted(outcome, run.sim_metrics(result, False))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], line["attempted"])


class ConvWorkloadTest(SimWorkloadTest):
    workload = "conv-pr-mid"
    engine = "cache.conventional"


class ServiceWorkloadTest(unittest.TestCase):
    def test_mix_checks_records_and_emits_end_to_end(self):
        victim = service_mix.cell_key(service_mix.POOL[0])
        expected = load_expected()
        expected["service_cells"] = dict(expected.get("service_cells", {}),
                                         **{victim: "0" * 32})
        with contextlib.redirect_stdout(io.StringIO()):
            outcome, metrics = service_mix.run(1, 0.0, False, expected)
        self.assertGreaterEqual(outcome.failed, 1)
        self.assertTrue(all(victim in f for f in outcome.failures),
                        outcome.failures)
        self.assertEqual(set(metrics),
                         {m["name"] for m in benchmark()["end_to_end"]})


if __name__ == "__main__":
    unittest.main(verbosity=2)
