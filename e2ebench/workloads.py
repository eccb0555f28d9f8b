"""The three workloads, untraced and traced.

Each workload function returns a `Measurement`: the raw observations of
one run (per-operation latencies, counts, set-up samples, host-speed
reference samples) plus, for a traced run, the per-layer metrics.
`run.py` turns it into the printed metrics.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus
from .hostref import HostRef
from .proc import Connection, Echo, Server, closed_loop, peak_rss_mb
from .spans import Tracer

#: p99 needs at least 10 samples beyond it.
MIN_OPS = 1000
clock = time.perf_counter


@dataclass
class ServingSpec:
    argv: list
    #: `corpus.serving_mix` parameters.
    mix: dict
    workers: int = 1
    max_fingerprints: int = 64
    cache: bool = False


SERVING = {
    "serve-hot": ServingSpec(
        argv=["serve"],
        # Never-seen queries are chain joins (~7 ms to decide, against ~1 ms
        # for a hit), so the p99 falls inside their population rather
        # than on its edge with the stalls of hits.
        mix=dict(schemas=4, constants_per_shape=2, ping_share=0.05, fresh_share=0.02,
                 zipf_s=1.0, fresh_from=(("id-chain", 1),)),
    ),
    "fleet-churn": ServingSpec(
        argv=["fleet", "--workers", "2", "--max-fingerprints", "3"],
        mix=dict(schemas=48, constants_per_shape=1, ping_share=0.02, fresh_share=0.05, zipf_s=0.5),
        workers=2,
        max_fingerprints=3,
        cache=True,
    ),
}
#: Independent set-ups per run; `setup_s` is their median.
SETUP_REPEATS = {"decide-cold": 7, "serve-hot": 5, "fleet-churn": 5}


@dataclass
class Measurement:
    workload: str
    latencies_ms: list = field(default_factory=list)
    #: Index into `slices` of the slice each latency was measured in.
    latency_slice: list = field(default_factory=list)
    #: ``(seconds, operations completed, host speeds)`` per slice.
    slices: list = field(default_factory=list)
    attempted: int = 0
    ok: int = 0
    #: One line per wrong decision (frame, expected, got).
    wrong: list = field(default_factory=list)
    measured_s: float = 0.0
    #: ``(seconds, host speeds around it)`` per independent set-up.
    setups: list = field(default_factory=list)
    hostref: HostRef = field(default_factory=HostRef)
    peak_rss_mb: float = 0.0
    per_layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def add_slice(self, seconds: float, latencies_ms: list, speeds: dict) -> None:
        self.latency_slice.extend([len(self.slices)] * len(latencies_ms))
        self.slices.append((seconds, len(latencies_ms), speeds))
        self.measured_s += seconds
        self.latencies_ms.extend(latencies_ms)

    def check(self, description: str, expected: str, got: str) -> None:
        """Count one reply: ok, not ok (unknown or error), or wrong."""
        if got == expected:
            self.ok += 1
        elif got in ("yes", "no") and expected in ("yes", "no"):
            self.wrong.append(f"{description}: expected {expected}, got {got}")


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def _timed_setup(measurement: Measurement, body) -> None:
    """One set-up sample, with the host speed sampled around it."""
    before = measurement.hostref.tick()
    started = clock()
    body()
    elapsed = clock() - started
    after = measurement.hostref.tick()
    measurement.setups.append((elapsed, HostRef.speeds(before, after)))


def _probe(root: Path, workload: str, seed: int, env: dict) -> None:
    """Set up in a fresh interpreter: imports, inputs, reference checks."""
    subprocess.run(
        [sys.executable, str(root / "e2ebench" / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=root, env=env, check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )


# ----------------------------------------------------------------------
# decide-cold
# ----------------------------------------------------------------------
def prepare_corpus(seed: int) -> list:
    from repro.io import schema_from_dict
    from repro.logic import parse_cq

    prepared = []
    for case in corpus.table1_corpus(seed):
        queries = [
            (text, parse_cq(text), "yes" if expected else "no")
            for text, expected in case.queries
        ]
        prepared.append((case, schema_from_dict(case.schema), queries))
    return prepared


def cold_pass(prepared: list, measurement: Measurement, latencies: list) -> int:
    """Compile every schema fresh into a new `Session`, decide each of
    its queries once and ask the last one again.  Appends
    ``(milliseconds, cached)`` per decide; returns the decide count."""
    from repro.service import compiled as compiled_module
    from repro.service.session import Session

    ops = 0
    for case, schema, queries in prepared:
        session = Session(compiled_module.compile_schema(schema))
        for text, query, expected in queries + queries[-1:]:
            started = clock()
            response = session.decide(query)
            latencies.append(((clock() - started) * 1000.0, response.cached))
            measurement.attempted += 1
            measurement.check(f"{case.family} {text}", expected, response.decision)
            ops += 1
    return ops


def setup_probe_decide_cold(seed: int) -> None:
    prepared = prepare_corpus(seed)
    probe = Measurement("decide-cold")
    cold_pass(prepared, probe, [])
    if probe.wrong or probe.ok != probe.attempted:
        raise SystemExit(f"reference check failed: {probe.wrong}")


def decide_cold(root: Path, seed: int, seconds: float, trace: bool, env: dict) -> Measurement:
    m = Measurement("decide-cold")
    if not trace:
        for __ in range(SETUP_REPEATS["decide-cold"]):
            _timed_setup(m, lambda: _probe(root, "decide-cold", seed, env))
    prepared = prepare_corpus(seed)
    cold_pass(prepared, Measurement("warm-up"), [])  # first-use imports
    tracer = Tracer()
    plain: list = []  # (ms, cached) of untraced passes
    traced_ops = plain_ops = 0
    traced_s = plain_s = 0.0
    counts = dict(states=0, built=0, reused=0, plans=0, plan_hits=0, hits=0)
    passes = 0
    before = m.hostref.tick()
    while m.measured_s < seconds or len(m.latencies_ms) < MIN_OPS or (trace and passes < 2):
        traced_pass = trace and passes % 2 == 1
        latencies: list = []
        if traced_pass:
            tracer.install()
        started = clock()
        try:
            ops = cold_pass(prepared, m, latencies)
        finally:
            elapsed = clock() - started
            if traced_pass:
                tracer.uninstall()
        passes += 1
        after = m.hostref.tick()
        m.add_slice(elapsed, [ms for ms, __ in latencies], HostRef.speeds(before, after))
        before = after
        if traced_pass:
            traced_ops += ops
            traced_s += elapsed
            _add_core_counts(counts, tracer.take_compiled())
            counts["hits"] += sum(1 for __, cached in latencies if cached)
        else:
            plain_ops += ops
            plain_s += elapsed
            plain.extend(latencies)
    m.peak_rss_mb = peak_rss_mb([os.getpid()])
    if trace:
        layers = _zero_layers()
        layers.update(_core_layers(tracer, counts, traced_ops))
        hits = sorted(ms for ms, cached in plain if cached)
        misses = sorted(ms for ms, cached in plain if not cached)
        layers["server.hit_p50_ms"] = percentile(hits, 0.5)
        layers["server.miss_p50_ms"] = percentile(misses, 0.5)
        layers["trace.overhead_frac"] = 1.0 - (traced_ops / traced_s) / (plain_ops / plain_s)
        m.per_layer = layers
        m.notes["traced_ops"] = traced_ops
    return m


# ----------------------------------------------------------------------
# Per-layer metrics shared by the in-process runs
# ----------------------------------------------------------------------
PER_LAYER = (
    ("io.parse_us", "us"), ("io.encode_us", "us"),
    ("server.ping_p50_ms", "ms"), ("server.hit_p50_ms", "ms"),
    ("server.miss_p50_ms", "ms"), ("server.queue_ms", "ms"),
    ("server.process_us", "us"), ("server.unattributed_ms", "ms"),
    ("server.compiles", "count"), ("server.evictions", "count"),
    ("fleet.hop_ms", "ms"), ("fleet.worker_skew", "ratio"),
    ("service.compile_ms", "ms"), ("service.compiles", "count"),
    ("service.session_hit_ratio", "ratio"),
    ("answerability.self_ms", "ms"),
    ("containment.rewrite_ms", "ms"), ("containment.states", "count"),
    ("containment.canonical_states", "count"),
    ("containment.expansion_reuse_ratio", "ratio"),
    ("chase.chase_ms", "ms"), ("chase.calls", "count"),
    ("matching.match_ms", "ms"), ("matching.checks", "count"),
    ("matching.plans_compiled", "count"), ("matching.plan_reuse_ratio", "ratio"),
    ("cache.load_ms", "ms"), ("cache.persist_ms", "ms"),
    ("cache.writes", "count"), ("cache.durable_hits", "count"),
    ("cache.durable_hit_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
)


def _zero_layers() -> dict:
    """Every per-layer metric, 0 until measured: a layer the workload
    does not reach does no work on it."""
    return {name: 0.0 for name, __ in PER_LAYER}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _add_core_counts(counts: dict, compiled_schemas: list) -> None:
    for compiled in compiled_schemas:
        engine = compiled.engine_stats()
        matcher = compiled.matcher_stats()
        counts["states"] += engine.get("states", 0)
        counts["built"] += engine.get("expansions_built", 0)
        counts["reused"] += engine.get("expansions_reused", 0)
        counts["plans"] += matcher.get("plans_compiled", 0)
        counts["plan_hits"] += matcher.get("plan_hits", 0)


def _core_layers(tracer: Tracer, counts: dict, ops: int) -> dict:
    """Decision-core metrics per operation from spans and counters."""
    per_op_ms = 1000.0 / ops
    calls = tracer.calls
    return {
        "service.compile_ms": tracer.inclusive_s["compile_schema"] * per_op_ms,
        "service.compiles": calls["compile_schema"] / ops,
        "service.session_hit_ratio": counts["hits"] / ops,
        "answerability.self_ms": tracer.self_s["answerability"] * per_op_ms,
        "containment.rewrite_ms": tracer.self_s["containment"] * per_op_ms,
        "containment.states": counts["states"] / ops,
        "containment.canonical_states": calls["canonical_state"] / ops,
        "containment.expansion_reuse_ratio": _ratio(
            counts["reused"], counts["built"] + counts["reused"]
        ),
        "chase.chase_ms": tracer.self_s["chase"] * per_op_ms,
        "chase.calls": calls["chase"] / ops,
        "matching.match_ms": tracer.self_s["matching"] * per_op_ms,
        "matching.checks": (calls["Matcher.find"] + calls["Matcher.has"]) / ops,
        "matching.plans_compiled": counts["plans"] / ops,
        "matching.plan_reuse_ratio": _ratio(
            counts["plan_hits"], counts["plans"] + counts["plan_hits"]
        ),
        "cache.load_ms": tracer.inclusive_s["ArtifactStore.load"] * per_op_ms,
        "cache.persist_ms": tracer.inclusive_s["KVStore.put"] * per_op_ms,
    }


# ----------------------------------------------------------------------
# serve-hot and fleet-churn
# ----------------------------------------------------------------------
class Oracle:
    """Fresh in-process `Session` decisions, one session per frame."""

    def __init__(self) -> None:
        self._decisions: dict = {}

    def __call__(self, frame) -> str:
        key = frame.key
        decision = self._decisions.get(key)
        if decision is None:
            from repro.io import schema_from_dict
            from repro.service.session import Session

            session = Session(schema_from_dict(frame.schema))
            decision = session.decide(frame.query).decision
            self._decisions[key] = decision
        return decision


def serving_mix(workload: str, seed: int):
    return corpus.serving_mix(seed, **SERVING[workload].mix)


def setup_probe_serving(workload: str, seed: int) -> None:
    mix = serving_mix(workload, seed)
    oracle = Oracle()
    for frame in mix.hot:
        if oracle(frame) == "unknown":
            raise SystemExit(f"reference check: {frame.query} is UNKNOWN")


def _launch(root: Path, workload: str, mix, env: dict, tmp: Path, rep: int,
            trace: bool, oracle: Oracle, m: Measurement) -> Server:
    """Start the server, wait for its `ReadyFrame`, send every hot frame
    once (checked against the oracle) and a ping."""
    spec = SERVING[workload]
    argv = [*spec.argv, "--host", "127.0.0.1", "--port", "0"]
    if spec.cache:
        argv += ["--cache-dir", str(tmp / f"cache-{rep}")]
    if trace:
        argv += ["--log-format", "json"]
    server = Server(root, argv, env, tmp / f"server-{rep}.log")
    try:
        server.wait_ready()
        connection = Connection(server.host, server.port)
        try:
            for frame in mix.hot:
                reply = connection.request({"query": frame.query, "schema": frame.schema})
                expected = oracle(frame)
                if reply.get("decision") != expected:
                    m.wrong.append(f"warm-up {frame.query}: expected {expected}, got {reply}")
            connection.request({"op": "ping"})
        finally:
            connection.close()
    except BaseException:
        server.stop()
        raise
    return server


def _pool_stats(frame: dict) -> list:
    """Per-process pool stats from a serve or fleet ``op: stats`` frame."""
    if "pool" in frame:
        return [frame["pool"]]
    return [w["stats"]["pool"] for w in frame.get("workers", []) if "stats" in w]


def _counter_totals(frame: dict) -> dict:
    totals: dict = {"per_worker_requests": []}
    for pool in _pool_stats(frame):
        for name, value in pool["counters"].items():
            totals[name] = totals.get(name, 0) + value
        totals["per_worker_requests"].append(pool["counters"]["requests"])
        for tier, counters in pool.get("store", {}).get("tiers", {}).items():
            for name, value in counters.items():
                key = f"{tier}.{name}"
                totals[key] = totals.get(key, 0) + value
    return totals


def serving(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            env: dict, tmp: Path) -> Measurement:
    mix = serving_mix(workload, seed)
    oracle = Oracle()
    for frame in mix.hot:
        oracle(frame)
    server = None
    repeats = 1 if trace else SETUP_REPEATS[workload]
    echo = Echo(root, env)
    hostref = None
    try:
        hostref = HostRef(echo=echo.address)
        m = Measurement(workload, hostref=hostref)
        for rep in range(repeats):
            if server is not None:
                server.stop()

            def setup(rep=rep) -> None:
                nonlocal server
                if not trace:
                    _probe(root, workload, seed, env)
                server = _launch(root, workload, mix, env, tmp, rep, trace, oracle, m)

            _timed_setup(m, setup)
        window = seconds / 2 if trace else seconds
        before = after = None
        if trace:
            connection = Connection(server.host, server.port)
            before = _counter_totals(connection.request({"op": "stats"}))
        load = closed_loop(
            server.host, server.port, mix.stream(),
            connections=min(2, os.cpu_count() or 1),
            seconds=window, min_ops=MIN_OPS, hostref=m.hostref,
        )
        if trace:
            after = _counter_totals(connection.request({"op": "stats"}))
            connection.close()
        m.peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        if hostref is not None:
            hostref.close()
        echo.stop()
    m.attempted = load.attempted
    classes = _verify(load, oracle, m)
    if load.timed_out:
        m.notes["timed_out"] = True
    if trace:
        layers = _zero_layers()
        layers.update(_server_layers(classes, before, after, tmp / "server-0.log"))
        layers.update(_replay(workload, mix, seconds / 2, tmp))
        m.per_layer = layers
    return m


def _verify(load, oracle: Oracle, m: Measurement) -> dict:
    """Check every reply against the oracle; returns latency lists by
    reply class (``ping``, ``hit``, ``miss``) keyed with request ids."""
    classes: dict = {"ping": [], "hit": [], "miss": []}
    by_slice: list = [[] for __ in load.slices]
    for index, frame, sent, received, line, slice_no in load.replies:
        by_slice[slice_no].append((received - sent) * 1000.0)
    for (seconds, speeds), latencies in zip(load.slices, by_slice):
        m.add_slice(seconds, latencies, speeds)
    for index, frame, sent, received, line, __ in load.replies:
        ms = (received - sent) * 1000.0
        try:
            reply = json.loads(line)
        except ValueError:
            continue  # a truncated reply counts as not ok
        if reply.get("id") != index:
            m.wrong.append(f"reply {index}: id mismatch {reply.get('id')}")
            continue
        if frame.kind == "ping":
            if reply.get("op") == "pong":
                m.ok += 1
                classes["ping"].append((index, ms))
            continue
        got = reply.get("decision", "error")
        m.check(frame.query, oracle(frame), got)
        classes["hit" if reply.get("cached") else "miss"].append((index, ms))
    return classes


def _log_records(path: Path) -> list:
    records = []
    with open(path, "rb") as handle:
        for line in handle:
            if not line.startswith(b"{"):
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "elapsed_ms" in record and record.get("id") is not None:
                records.append(record)
    return records


def _p50(values: list) -> float:
    return percentile(sorted(values), 0.5) if values else 0.0


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _server_layers(classes: dict, before: dict, after: dict, log_path: Path) -> dict:
    """Server-side layer numbers of the traced client window: client
    latencies by reply class, ``stages_ms`` and ``elapsed_ms`` from the
    JSON request log, counter diffs from ``op: stats``."""
    decides = classes["hit"] + classes["miss"]
    ops = len(decides) + len(classes["ping"])
    client_ms = dict(decides)
    worker_ms, dispatcher_ms, queue_ms = {}, {}, []
    for record in _log_records(log_path):
        if record.get("op") != "decide":
            continue
        if record.get("peer") == "dispatcher":
            dispatcher_ms[record["id"]] = record["elapsed_ms"]
        else:
            worker_ms[record["id"]] = record["elapsed_ms"]
            queue_ms.append((record.get("stages_ms") or {}).get("queue", 0.0))
    outer = dispatcher_ms if dispatcher_ms else worker_ms
    unattributed = [client_ms[i] - outer[i] for i in client_ms if i in outer]
    hops = [dispatcher_ms[i] - worker_ms[i] for i in dispatcher_ms if i in worker_ms]

    def diff(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    per_worker = [b - a for a, b in zip(before["per_worker_requests"], after["per_worker_requests"])]
    decision_hits = diff("decision.hits")
    decision_misses = diff("decision.misses")
    writes = sum(diff(k) for k in after if k.endswith(".writes"))
    return {
        "server.ping_p50_ms": _p50([ms for __, ms in classes["ping"]]),
        "server.hit_p50_ms": _p50([ms for __, ms in classes["hit"]]),
        "server.miss_p50_ms": _p50([ms for __, ms in classes["miss"]]),
        "server.queue_ms": _mean(queue_ms),
        "server.unattributed_ms": _mean(unattributed),
        "server.compiles": diff("schemas_compiled") / ops,
        "server.evictions": diff("evictions") / ops,
        "fleet.hop_ms": _mean(hops),
        "fleet.worker_skew": (
            max(per_worker) / _mean(per_worker) if len(per_worker) > 1 and sum(per_worker) else 0.0
        ),
        "cache.writes": writes / ops,
        "cache.durable_hits": decision_hits / ops,
        "cache.durable_hit_ratio": _ratio(decision_hits, decision_hits + decision_misses),
    }


def _replay(workload: str, mix, seconds: float, tmp: Path) -> dict:
    """Replay the seeded frame stream in process through the wire codecs
    and `SessionPool.process`: once untraced for ``seconds / 2``, then
    the same frames again with spans, each from fresh pools warmed like
    the server.  Pings never reach the pool and are left out."""
    plain = _replay_once(workload, mix, tmp / "replay-plain", seconds / 2, None, None)
    tracer = Tracer()
    traced = _replay_once(workload, mix, tmp / "replay-traced", None, plain.frames, tracer)
    counts = dict(states=0, built=0, reused=0, plans=0, plan_hits=0, hits=traced.cached)
    _add_core_counts(counts, traced.compiled)
    for name, value in traced.warm_counts.items():
        counts[name] -= value
    ops = len(plain.frames)
    layers = _core_layers(tracer, counts, ops)
    layers["io.parse_us"] = tracer.inclusive_s["wire.parse"] * 1e6 / ops
    layers["io.encode_us"] = tracer.inclusive_s["wire.encode"] * 1e6 / ops
    layers["server.process_us"] = tracer.inclusive_s["SessionPool.process"] * 1e6 / ops
    layers["trace.overhead_frac"] = 1.0 - plain.seconds / traced.seconds
    return layers


@dataclass
class _Replay:
    seconds: float
    frames: list
    cached: int
    #: Compiled schemas of a traced replay, warm-up ones included, and
    #: their counters as they stood after warm-up.
    compiled: list
    warm_counts: dict


def _replay_once(workload, mix, cache_dir: Path, seconds, frames, tracer) -> _Replay:
    from repro.io import DecideRequest
    from repro.server.hashring import HashRing
    from repro.server.pool import SessionPool

    spec = SERVING[workload]
    store = None
    if spec.cache:
        from repro.cache import open_directory

        store = open_directory(cache_dir)
    if tracer is not None:
        tracer.install()
    warm_counts = dict(states=0, built=0, reused=0, plans=0, plan_hits=0)
    try:
        pools = {
            f"w{i}": SessionPool(max_fingerprints=spec.max_fingerprints, store=store)
            for i in range(spec.workers)
        }
        ring = HashRing()
        for node in pools:
            ring.add(node)

        def pool_for(frame):
            return pools[ring.node_for(json.dumps(frame.schema, sort_keys=True))]

        for frame in mix.hot:
            pool_for(frame).process(DecideRequest(query=frame.query, schema=frame.schema))
        warm = []
        if tracer is not None:
            warm = tracer.take_compiled()
            _add_core_counts(warm_counts, warm)
            tracer.reset()
        if frames is None:
            stream = (f for f in mix.stream() if f.kind == "decide")
            deadline = clock() + seconds
        else:
            stream, deadline = iter(frames), None
        cached = 0
        elapsed = 0.0
        replayed = []
        for index, frame in enumerate(stream):
            if deadline is not None and clock() >= deadline and index >= MIN_OPS:
                break
            replayed.append(frame)
            line = b'{"id": %d, ' % index + frame.wire
            pool = pool_for(frame)
            started = clock()
            if tracer is None:
                request = DecideRequest.from_dict(json.loads(line))
                response = pool.process(request)
                json.dumps(response.to_dict(), sort_keys=True)
            else:
                with tracer.span("wire.parse", "io"):
                    request = DecideRequest.from_dict(json.loads(line))
                response = pool.process(request)
                with tracer.span("wire.encode", "io"):
                    json.dumps(response.to_dict(), sort_keys=True)
            elapsed += clock() - started
            cached += response.cached
    finally:
        if tracer is not None:
            tracer.uninstall()
        if store is not None:
            store.close()
    compiled = warm + (tracer.take_compiled() if tracer is not None else [])
    return _Replay(elapsed, replayed, cached, compiled, warm_counts)


#: End-to-end metrics reported host-corrected, and by which reference
#: (see README, "Host noise"); the others are reported raw.
HOST_CORRECTED = {
    "decide-cold": dict.fromkeys(("ops_per_s", "latency_p50_ms", "latency_p99_ms"), "loop"),
    "serve-hot": dict.fromkeys(("ops_per_s", "latency_p50_ms", "latency_p99_ms"), "hop"),
    "fleet-churn": dict.fromkeys(("ops_per_s", "latency_p50_ms", "latency_p99_ms"), "hop"),
}
