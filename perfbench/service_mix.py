"""The ``service-mix`` workload: the experiment service under a request mix.

One load-generator process (this one) drives the service, running in a
child process (:mod:`server`) over a fresh store, through 2 keep-alive
connections in a closed loop: each connection sends its next request
only after the previous reply.  The request sequence is drawn from the
seed over a fixed pool of distinct toy cells.  After one untimed
warm-up cell the pool is walked in a seeded order, one cell per turn:

1. *miss* -- the turn's cell is requested for the first time; for a
   seeded half of the cells both connections ask at once, so one
   request creates the job and the other joins it (single flight).
   A miss is timed from POST to the poll that sees ``done``.
2. *memo hits* -- a seeded batch of repeat requests for cells completed
   so far, each served from the in-process result memo.  Every record
   must equal the miss's record bit for bit.

Interleaving spreads both kinds of sample over the whole run.  Then
the server is restarted over the same store and every cell is
requested once more: *store hits*, loaded from the checkpoint store.

The server is started five times per run (fresh store, restart, and
three bare starts); ``setup_s`` is the median time from process start
to the first successful ``/healthz``.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from common import HERE, OUT_DIR, Outcome, per_layer_spec, record_digest

#: distinct toy cells: a tile-size sweep of PR on the toy SW graph for
#: the two collection-MSHR systems.  Each simulates in ~0.3-0.4 s, so
#: the miss latencies share one distribution and their median is stable.
POOL = [
    {"system": system, "algorithm": "PR", "dataset": "SW",
     "tile_scale": tile_scale}
    for system in ("Piccolo", "NMP")
    for tile_scale in range(1, 13)
]
#: memo-hit requests per second of ``--seconds``
HITS_PER_SECOND = 1500
#: at least this many memo hits, so >= 10 samples lie beyond p99
MIN_HITS = 1000
#: a cheap cell asked once, untimed, before the misses: it generates the
#: toy dataset and finishes lazy imports so no timed miss pays for them
WARMUP = [{"system": "Graphicionado", "algorithm": "PR", "dataset": "SW"}]
#: server processes started per run; setup_s is their median start time
SERVER_STARTS = 5
#: status poll interval while a miss runs; each poll takes the server's
#: interpreter lock from the simulation, so polling faster slows misses
POLL_S = 0.01
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0


def cell_key(config: dict) -> str:
    return "/".join(str(value) for value in config.values())


class Server:
    """One service child process over ``store``."""

    def __init__(self, store, stats_path, spans_path=None, run_id="") -> None:
        self.stats_path = stats_path
        self.spans_path = spans_path
        command = [sys.executable, str(HERE / "server.py"),
                   "--store", str(store), "--stats", str(stats_path)]
        if spans_path is not None:
            command += ["--spans", str(spans_path), "--run-id", run_id]
        start = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        try:
            line = self.process.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            deadline = start + SERVER_START_TIMEOUT_S
            while True:
                probe = Client(self)
                status, _, _ = probe.request("GET", "/healthz")
                probe.close()
                if status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError("service never became healthy")
                time.sleep(0.01)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def stop(self) -> dict:
        """SIGINT the child, wait for it, and return its exit stats."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        with open(self.stats_path) as handle:
            return json.load(handle)


class Client:
    """One keep-alive connection; ``request`` returns (status, payload,
    seconds), with status None on a timeout or transport error."""

    def __init__(self, server: Server) -> None:
        self.server = server
        #: experiment requests (POSTs) sent, and their summed round trip
        self.posts = 0
        self.post_s = 0.0
        self._connect()

    def _connect(self) -> None:
        self.conn = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=REQUEST_TIMEOUT_S
        )

    def request(self, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = json.loads(response.read())
            status = response.status
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            self._connect()
            status, payload = None, None
        seconds = time.perf_counter() - start
        if method == "POST":
            self.posts += 1
            self.post_s += seconds
        return status, payload, seconds

    def close(self) -> None:
        self.conn.close()


def _miss(client: Client, config: dict) -> dict:
    """POST a new cell, poll until done: latency, record, whether this
    request created the job, and errors."""
    start = time.perf_counter()
    status, payload, _ = client.request("POST", "/experiments", config)
    errors, created, record = [], False, None
    if status == 200 and payload.get("status") == "done":
        record = payload["result"]
    elif status == 202:
        created = not payload["joined"]
        path = payload["location"]
        while record is None and not errors:
            time.sleep(POLL_S)
            status, payload, _ = client.request("GET", path)
            if status != 200:
                errors.append(f"poll status {status}")
            elif payload["status"] == "done":
                record = payload["result"]
            elif payload["status"] == "failed":
                errors.append(f"job failed: {payload.get('error')}")
            elif time.perf_counter() - start > REQUEST_TIMEOUT_S:
                errors.append("timed out")
    else:
        errors.append(f"POST status {status}: {payload}")
    return {"latency": time.perf_counter() - start, "record": record,
            "created": created, "errors": errors}


def _hit(client: Client, config: dict, source: str, record: dict) -> tuple:
    status, payload, seconds = client.request("POST", "/experiments", config)
    errors = []
    if status != 200:
        errors.append(f"status {status}")
    elif payload.get("source") != source:
        errors.append(f"served from {payload.get('source')!r}, not {source}")
    elif payload["result"] != record:
        errors.append("record differs from the miss's record")
    return seconds, errors


def _cache_counts(client: Client, outcome: Outcome, label: str) -> dict:
    status, payload, _ = client.request("GET", "/cache/stats")
    if status != 200:
        outcome.check(label, [f"/cache/stats status {status}"])
        return {}
    cache = payload["cache"]
    return {
        "hits_memo": cache["hits"]["memo"],
        "hits_store": cache["hits"]["store"],
        "misses": cache["misses"],
        "single_flight_joined": cache["single_flight_joined"],
        "rejected": cache["rejected"],
    }


def run_mix(seed, seconds, expected, work_dir, tracer=None) -> dict:
    """One pass of the mix; with ``tracer`` the servers run traced and
    their spans are absorbed into it."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(POOL))
    paired = rng.random(len(POOL)) < 0.5
    per_turn = -(-max(MIN_HITS, int(HITS_PER_SECOND * seconds)) // len(POOL))
    n_hits = per_turn * len(POOL)
    # after turn t's miss, memo hits on the cells completed in turns 0..t
    hit_cells = [order[rng.integers(0, turn + 1, size=per_turn)].tolist()
                 for turn in range(len(POOL))]
    store_order = rng.permutation(len(POOL))
    want_cells = expected.get("service_cells", {})

    outcome = Outcome()
    work_dir.mkdir(parents=True)
    store = work_dir / "store"
    servers = []

    def start(index):
        spans_path = (work_dir / f"spans-{index}.json"
                      if tracer is not None else None)
        server = Server(store, work_dir / f"stats-{index}.json", spans_path,
                        tracer.run_id if tracer is not None else "")
        servers.append(server)
        results["setup"].append(server.setup_s)
        return server

    results = {"setup": [], "miss": [], "hit": [], "store_hit": [],
               "rss": [], "wrappers": [], "counts": {}}

    def stop(server):
        servers.remove(server)
        stats = server.stop()
        if tracer is not None:
            tracer.absorb(server.spans_path)
        results["rss"].append(stats["peak_rss_mb"])
        results["wrappers"] += stats["wrappers"]

    def hit_phase(pool, clients, cells, source, latencies):
        def loop(client, part):
            return [_hit(client, POOL[i], source, records[i]) for i in part]

        futures = [pool.submit(loop, c, cells[i::2])
                   for i, c in enumerate(clients)]
        for future in futures:
            for latency, errors in future.result():
                if outcome.check(f"{source} hit", errors):
                    latencies.append(latency)

    records: dict[int, dict] = {}
    counts = []
    phase_s = post_s = 0.0
    requests = 0
    try:
        # -- lifetime 1: misses, then memo hits ---------------------------
        server = start(0)
        clients = [Client(server), Client(server)]
        for config in WARMUP:
            miss = _miss(clients[0], config)
            errors = miss["errors"]
            want = want_cells.get(cell_key(config))
            if miss["record"] is not None and want not in (
                    None, record_digest(miss["record"])):
                errors.append("record digest differs from expected")
            outcome.check(f"warm-up {cell_key(config)}", errors)
        for c in clients:
            c.posts, c.post_s = 0, 0.0
        phase_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            for turn, index in enumerate(order.tolist()):
                askers = clients if paired[index] else [clients[turn % 2]]
                futures = [pool.submit(_miss, c, POOL[index]) for c in askers]
                for future in futures:
                    miss = future.result()
                    errors = miss["errors"]
                    record = miss["record"]
                    if record is not None:
                        reference = records.setdefault(index, record)
                        want = want_cells.get(cell_key(POOL[index]))
                        if record != reference:
                            errors.append("paired requests got different "
                                          "records")
                        elif want not in (None, record_digest(record)):
                            errors.append("record digest differs from "
                                          "expected")
                    ok = outcome.check(f"miss {cell_key(POOL[index])}",
                                       errors)
                    # one job-creating request per cell, whatever the
                    # pairing, so the sample set is the same every seed
                    if ok and miss["created"]:
                        results["miss"].append(miss["latency"])
                if index not in records:
                    raise RuntimeError(f"{cell_key(POOL[index])} never "
                                       f"completed")
                hit_phase(pool, clients, hit_cells[turn], "memo",
                          results["hit"])
        phase_s += time.perf_counter() - phase_start

        # -- lifetime 2: restart over the same store, store hits ----------
        counts.append(_cache_counts(clients[0], outcome, "stats 1"))
        requests += sum(c.posts for c in clients)
        post_s += sum(c.post_s for c in clients)
        for c in clients:
            c.close()
        stop(server)
        server = start(1)
        clients = [Client(server), Client(server)]
        phase_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            hit_phase(pool, clients, store_order.tolist(), "store",
                      results["store_hit"])
        phase_s += time.perf_counter() - phase_start
        counts.append(_cache_counts(clients[0], outcome, "stats 2"))
        requests += sum(c.posts for c in clients)
        post_s += sum(c.post_s for c in clients)
        for c in clients:
            c.close()
        stop(server)

        # -- bare starts: more setup samples -------------------------------
        for index in range(2, SERVER_STARTS):
            stop(start(index))
    finally:
        for server in list(servers):
            server.process.kill()
            server.process.wait()
            server.process.stdout.close()

    n_paired = int(paired.sum())
    want_counts = [
        {"hits_memo": n_hits, "hits_store": 0,
         "misses": len(WARMUP) + len(POOL),
         "single_flight_joined": n_paired, "rejected": 0},
        {"hits_memo": 0, "hits_store": len(POOL), "misses": 0,
         "single_flight_joined": 0, "rejected": 0},
    ]
    for i, (got, want) in enumerate(zip(counts, want_counts)):
        outcome.check(f"cache counts {i + 1}",
                      [] if got == want else [f"{got} != {want}"])
    results["counts"] = {k: sum(c.get(k, 0) for c in counts)
                         for k in want_counts[0]}
    results.update(outcome=outcome, phase_s=phase_s, requests=requests,
                   post_s=post_s, records=records)
    return results


def _p(values, q):
    """The q-quantile (0 < q < 1) by statistics.quantiles' method."""
    return statistics.quantiles(values, n=100)[int(round(q * 100)) - 1]


def run(seed, seconds, traced, expected):
    """Run the workload; returns (Outcome, metrics) as run.emit wants."""
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    base = OUT_DIR / f"service-{os.getpid()}"
    try:
        plain = run_mix(seed, seconds, expected, base / "plain")
        if not plain["miss"] or not plain["hit"] or not plain["store_hit"]:
            return plain["outcome"], {}
        if not traced:
            outcome = plain["outcome"]
            if plain["wrappers"]:
                outcome.check("wrappers",
                              [f"untraced server had {plain['wrappers']}"])
            return outcome, _end_to_end(plain)
        tracer = spans.Tracer(f"service-mix-{seed}-{os.getpid()}")
        traced_run = run_mix(seed, seconds, expected, base / "traced",
                             tracer)
        tracer.dump(OUT_DIR / f"trace-{tracer.run_id}.json")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    outcome = traced_run["outcome"]
    errors = []
    if not traced_run["wrappers"]:
        errors.append("traced server installed no wrappers")
    if plain["counts"] != traced_run["counts"]:
        errors.append(f"cache counts differ: {plain['counts']} vs "
                      f"{traced_run['counts']}")
    if plain["records"] != traced_run["records"]:
        errors.append("traced records differ from untraced")
    outcome.check("traced vs untraced", errors)
    if not traced_run["miss"]:
        return outcome, {}
    layers = spans.cell_layer_metrics(
        tracer, tracer.layer_seconds().get("accel.run", {}).get("s", 0.0)
    )
    layers.update(spans.service_layer_metrics(tracer, {
        "post_s": traced_run["post_s"],
        "miss_latency_s": sum(traced_run["miss"]),
        "misses": len(traced_run["miss"]),
    }))
    for name, value in traced_run["counts"].items():
        layers[f"service.cache.{name}"] = value
    layers["trace.overhead_s"] = (
        statistics.median(traced_run["miss"])
        - statistics.median(plain["miss"])
    )
    return outcome, {
        m["name"]: (layers.get(m["name"], 0), m["unit"], "traced pass")
        for m in per_layer_spec()
    }


def _end_to_end(res: dict) -> dict:
    hits, misses, stores = res["hit"], res["miss"], res["store_hit"]
    req_per_s = res["requests"] / res["phase_s"]
    print(f"  {'hit_p50_ms':<44} {statistics.median(hits) * 1e3:>16.6g} "
          f"ms     n={len(hits)} memo hits")
    print(f"  {'hit_p99_ms':<44} {_p(hits, 0.99) * 1e3:>16.6g} "
          f"ms     n={len(hits)} memo hits")
    print(f"  {'miss_p50_ms':<44} {statistics.median(misses) * 1e3:>16.6g} "
          f"ms     n={len(misses)} job-creating POST -> done")
    print(f"  {'store_hit_p50_ms':<44} "
          f"{statistics.median(stores) * 1e3:>16.6g} ms     "
          f"n={len(stores)} after restart")
    print(f"  {'req_per_s':<44} {req_per_s:>16.6g} 1/s    "
          f"n={res['requests']} requests")
    return {
        "setup_s": (statistics.median(res["setup"]), "s",
                    f"n={len(res['setup'])} median start -> first /healthz"),
        "cell_s": (statistics.median(misses), "s",
                   f"n={len(misses)} median miss, POST -> done"),
        "ops_per_s": (req_per_s, "1/s",
                      f"n={res['requests']} requests over the mix"),
        "peak_rss_mb": (max(res["rss"]), "MB",
                        f"n={len(res['rss'])} server high-water, max"),
    }
