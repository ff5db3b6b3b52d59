"""Outside-in span tracing for the benchmark.

A :class:`Tracer` replaces public functions and methods of the simulator's
layers with thin wrappers that record a span per call (name, start, end,
parent, run id) and a few counts read at the same boundary.  Nothing in
``src/`` is edited: the wrappers are installed on the class or module
attribute for the duration of a traced run and removed afterwards, so an
untraced run executes the program's own code objects.

Spans are kept in memory; :meth:`Tracer.dump` writes them out when the
run ends.  A layer's self time is its span minus the direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: marker attribute set on every installed wrapper
_MARK = "__perfbench_traced__"


def _observe_cache(prefix):
    def observe(args, kwargs):
        def done(result, counts):
            counts[prefix + ".items"] += int(result.accesses)
            counts[prefix + ".hits"] += int(result.hits)
        return done
    return observe


def _observe_mshr(args, kwargs):
    mshr, addrs = args[0], args[1]
    forwarded_before = mshr.stats.forwarded_reads

    def done(batch, counts):
        counts["core.collection_mshr.add_batch.events"] += int(len(addrs))
        counts["core.collection_mshr.add_batch.ops"] += len(batch)
        if len(batch):
            words = int(batch.columns()[4].sum())  # the items column
            counts["core.collection_mshr.words"] += words
        counts["core.collection_mshr.forwarded"] += (
            mshr.stats.forwarded_reads - forwarded_before
        )
    return done


def _observe_memo(args, kwargs):
    def done(record, counts):
        counts["core.memory_path.replay_gets"] += 1
        counts["core.memory_path.replay_hits"] += record is not None
    return done


def targets():
    """(owner, attribute, layer name, observer, spanned) for every traced
    boundary.  Imports are local so importing this module loads nothing
    of the program."""
    from repro.accel.systems import _VCMSystem
    from repro.algorithms.vcm import VertexCentricEngine
    from repro.cache.conventional import ConventionalCache
    from repro.core.collection_mshr import CollectionExtendedMSHR
    from repro.core.memory_path import (
        BatchReplayMemo,
        ConventionalMemoryPath,
        FineGrainedMemoryPath,
    )
    from repro.core.piccolo_cache import PiccoloCache
    from repro.dram.system import DRAMModel, PhaseAccumulator
    from repro.experiments import parallel
    from repro.graph import generators
    from repro.graph.partition import TiledCSR
    from repro.service import core as service_core

    return [
        (_VCMSystem, "run", "accel.run", None, True),
        (VertexCentricEngine, "step", "algorithms.vcm.step", None, True),
        (TiledCSR, "__init__", "graph.partition.tiled_csr", None, True),
        (FineGrainedMemoryPath, "run", "core.memory_path.run", None, True),
        (ConventionalMemoryPath, "run", "core.memory_path.run", None, True),
        (BatchReplayMemo, "get", "core.memory_path.replay", _observe_memo,
         False),
        (PiccoloCache, "access_many", "core.piccolo_cache.access_many",
         _observe_cache("core.piccolo_cache.access_many"), True),
        (ConventionalCache, "access_many", "cache.conventional.access_many",
         _observe_cache("cache.conventional.access_many"), True),
        (CollectionExtendedMSHR, "add_batch", "core.collection_mshr.add_batch",
         _observe_mshr, True),
        (DRAMModel, "phase", "dram.system.phase", None, True),
        (PhaseAccumulator, "add", "dram.system.phase", None, True),
        (PhaseAccumulator, "close", "dram.system.phase", None, True),
        (generators, "rmat", "graph.generators.rmat", None, True),
        (service_core.ExperimentService, "submit", "service.core.submit",
         None, True),
        (service_core, "resolve_request",
         "experiments.requests.resolve_request", None, True),
        (parallel, "run_cells", "experiments.parallel.run_cells", None, True),
        (parallel.SweepCheckpointStore, "save",
         "experiments.parallel.checkpoint_save", None, True),
        (parallel.SweepCheckpointStore, "load",
         "experiments.parallel.checkpoint_load", None, True),
    ]


def active_wrappers() -> list[str]:
    """Layer names whose boundary currently carries a tracing wrapper."""
    return [
        name for owner, attr, name, _, _ in targets()
        if getattr(owner.__dict__.get(attr), _MARK, False)
    ]


class Tracer:
    """In-memory span recorder; one instance per traced workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: finished spans: [name, start, end, parent id, span id, nested]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        nested = any(n == name for n, _ in stack)
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([
                name, start, end,
                parent[1] if parent else None, span_id, nested,
            ])

    def _wrap(self, original, name, observe, spanned):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            done = observe(args, kwargs) if observe is not None else None
            if spanned:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            else:
                result = original(*args, **kwargs)
            if done is not None:
                done(result, tracer.counts)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, observe, spanned in targets():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe, spanned))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived numbers ----------------------------------------------------
    def layer_seconds(self) -> dict[str, dict]:
        """Per layer name: total seconds (outermost spans only), calls,
        self seconds, and the list of outermost durations."""
        child_time: Counter = Counter()
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for name, start, end, _, span_id, nested in self.spans:
            if nested:
                continue
            entry = layers.setdefault(
                name, {"s": 0.0, "calls": 0, "self_s": 0.0, "durations": []}
            )
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[span_id]
            entry["durations"].append(end - start)
        return layers

    def child_seconds(self, parent_name: str) -> float:
        """Time covered by direct child spans of every ``parent_name``
        span."""
        parents = {s[4] for s in self.spans if s[0] == parent_name}
        return sum(s[2] - s[1] for s in self.spans if s[3] in parents)

    def absorb(self, path) -> None:
        """Add the spans and counts another process dumped to ``path``
        (span ids are shifted so they stay unique)."""
        with open(path) as handle:
            data = json.load(handle)
        offset = top = next(self._ids)
        for name, start, end, parent, span_id, nested in data["spans"]:
            self.spans.append([
                name, start, end,
                None if parent is None else parent + offset,
                span_id + offset, nested,
            ])
            top = max(top, span_id + offset)
        self._ids = itertools.count(top + 1)
        self.counts.update(data["counts"])

    def dump(self, path) -> None:
        """Write the spans and counts (called once, when the run ends)."""
        with open(path, "w") as handle:
            json.dump({
                "run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "id", "nested"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _field(layers: dict, name: str, key: str = "s"):
    """One :meth:`Tracer.layer_seconds` field; 0 for an uncalled layer."""
    return layers.get(name, {}).get(key, 0)


def cell_layer_metrics(tracer: Tracer, cell_s: float) -> dict[str, float]:
    """Per-layer numbers of the simulation seams from one traced pass."""
    layers = tracer.layer_seconds()
    counts = tracer.counts
    out: dict[str, float] = {}
    for cache in ("core.piccolo_cache", "cache.conventional"):
        op = cache + ".access_many"
        items = counts[op + ".items"]
        out[op + ".s"] = _field(layers, op)
        out[op + ".calls"] = _field(layers, op, "calls")
        out[op + ".items"] = items
        out[op + ".ns_per_item"] = _ratio(_field(layers, op) * 1e9, items)
        out[cache + ".hit_ratio"] = _ratio(counts[op + ".hits"], items)
    mshr = "core.collection_mshr.add_batch"
    events = counts[mshr + ".events"]
    ops = counts[mshr + ".ops"]
    out[mshr + ".s"] = _field(layers, mshr)
    out[mshr + ".calls"] = _field(layers, mshr, "calls")
    out[mshr + ".events"] = events
    out[mshr + ".ops"] = ops
    out[mshr + ".ns_per_event"] = _ratio(_field(layers, mshr) * 1e9, events)
    out["core.collection_mshr.items_per_op"] = _ratio(
        counts["core.collection_mshr.words"], ops
    )
    out["core.collection_mshr.forwarded"] = counts[
        "core.collection_mshr.forwarded"
    ]
    for name in ("core.memory_path.run", "dram.system.phase",
                 "algorithms.vcm.step"):
        out[name + ".s"] = _field(layers, name)
        out[name + ".calls"] = _field(layers, name, "calls")
    out["core.memory_path.run.self_s"] = _field(
        layers, "core.memory_path.run", "self_s"
    )
    out["core.memory_path.replay_hits"] = counts[
        "core.memory_path.replay_hits"
    ]
    out["core.memory_path.replay_hit_ratio"] = _ratio(
        counts["core.memory_path.replay_hits"],
        counts["core.memory_path.replay_gets"],
    )
    out["graph.partition.tiled_csr.s"] = _field(
        layers, "graph.partition.tiled_csr"
    )
    out["accel.run.self_s"] = _field(layers, "accel.run", "self_s")
    out["accel.run.coverage"] = _ratio(
        tracer.child_seconds("accel.run"), cell_s
    )
    rmat = _field(layers, "graph.generators.rmat", "durations")
    out["graph.generators.rmat.s"] = statistics.median(rmat) if rmat else 0.0
    return out


def service_layer_metrics(tracer: Tracer, client: dict) -> dict[str, float]:
    """Per-layer numbers of the service seams.

    ``tracer`` holds the spans of the server processes; ``client`` holds
    the load generator's totals: ``post_s`` (summed POST round trips),
    ``miss_latency_s`` (summed POST -> done of job-creating requests) and
    ``misses``.
    """
    layers = tracer.layer_seconds()
    out: dict[str, float] = {}
    for name in ("service.core.submit", "experiments.parallel.checkpoint_save",
                 "experiments.parallel.checkpoint_load"):
        out[name + ".s"] = _field(layers, name)
        out[name + ".calls"] = _field(layers, name, "calls")
    for name in ("experiments.requests.resolve_request",
                 "experiments.parallel.run_cells"):
        out[name + ".s"] = _field(layers, name)
    out["service.http.self_s"] = (
        client["post_s"] - out["service.core.submit.s"]
    )
    out["service.queue_wait_s"] = _ratio(
        client["miss_latency_s"] - out["experiments.parallel.run_cells.s"],
        client["misses"],
    )
    return out
