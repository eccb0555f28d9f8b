"""Inline session-cache hits: the event-loop fast path of `DecideServer`.

A decide frame whose exact query text a session has cached is answered
by `SessionPool.lookup` on the event loop; everything else goes through
the executor and `SessionPool.process`.  The fast path must be
invisible in what clients and operators see: the same reply bytes
(apart from ``elapsed_ms``), the same pool counters, the same quotas.
"""

import json
import random

from repro.io import DecideRequest, schema_to_dict
from repro.server import DecideServer, SessionLimits, SessionPool
from repro.service import Session
from repro.workloads import id_chain_workload, university_schema

from test_server import INLINE_CHAIN, exchange, run

ID_CHAIN = schema_to_dict(id_chain_workload(3).schema)


class ExecutorOnly:
    """A duck-typed pool without ``lookup``: every frame takes the
    executor path."""

    def __init__(self, pool: SessionPool) -> None:
        self._pool = pool

    def process(self, request, *, budget=None):
        return self._pool.process(request, budget=budget)

    def budget_for(self, request):
        return self._pool.budget_for(request)

    def stats(self):
        return self._pool.stats()


def mixed_stream(seed: int, count: int) -> list:
    """Hot frames (Zipf-ish repeats, alternate spellings, ``finite``),
    never-seen constants, plans, pings; ids int, str or absent."""
    rng = random.Random(seed)
    hot = [
        {"query": "Udirectory(i, a, p)"},
        {"query": "Udirectory(x, y, z)"},  # same LRU key, new spelling
        {"query": "Prof(i, n, 10000)"},
        {"query": "Q(n) :- Prof(i, n, s)"},
        {"query": "Udirectory(i, a, p)", "finite": True},
        {"query": "Dir(x)", "schema": INLINE_CHAIN},
        {"query": "L0(x, p)", "schema": INLINE_CHAIN},
        {"query": "R0(x)", "schema": ID_CHAIN},
        {"query": "R2(x)", "schema": ID_CHAIN, "finite": True},
        {"op": "plan", "query": "Udirectory(i, a, p)"},
    ]
    weights = [1.0 / (rank + 1) for rank in range(len(hot))]
    frames = []
    for index in range(count):
        draw = rng.random()
        if draw < 0.05:
            frame = {"op": "ping"}
        elif draw < 0.12:
            frame = {"query": f"R1('fresh{index}')", "schema": ID_CHAIN}
        else:
            frame = dict(rng.choices(hot, weights)[0])
        kind = index % 3
        if kind == 0:
            frame["id"] = index
        elif kind == 1:
            frame["id"] = f"r{index}"
        frames.append(frame)
    return frames


def without_elapsed(reply: dict) -> str:
    reply = dict(reply)
    reply.pop("elapsed_ms", None)
    return json.dumps(reply, sort_keys=True)


def serve_stream(pool, frames, **kwargs):
    async def scenario():
        server = await DecideServer(pool, port=0, **kwargs).start()
        try:
            replies = await exchange(server, frames)
        finally:
            await server.close()
        return replies, server.server_stats()

    return run(scenario())


def fresh_pool() -> SessionPool:
    return SessionPool(university_schema(ud_bound=100), pool_size=2)


class TestInlineEqualsExecutor:
    def test_replies_and_pool_counters_match_the_executor_path(self):
        frames = mixed_stream(seed=14, count=300)
        inline_pool, executor_pool = fresh_pool(), fresh_pool()
        inline, inline_stats = serve_stream(inline_pool, frames)
        executor, executor_stats = serve_stream(
            ExecutorOnly(executor_pool), frames
        )
        assert [without_elapsed(r) for r in inline] == [
            without_elapsed(r) for r in executor
        ]
        assert inline_pool.stats() == executor_pool.stats()
        # The fast path was taken (hot repeats dominate the stream) and
        # the duck-typed pool, lacking ``lookup``, never took it.
        assert inline_stats["inline_hits"] > 100
        assert executor_stats["inline_hits"] == 0
        for name in ("frames", "responses", "errors"):
            assert inline_stats[name] == executor_stats[name]
        cached = sum(1 for r in inline if r.get("cached"))
        assert inline_stats["inline_hits"] <= cached

    def test_lookup_miss_leaves_the_pool_untouched(self):
        pool = fresh_pool()
        request = DecideRequest(query="Dir(x)", schema=INLINE_CHAIN)
        assert pool.lookup(request) is None  # unknown spelling
        assert pool.stats()["counters"]["requests"] == 0
        assert pool.stats()["counters"]["schemas_compiled"] == 1  # default
        for __ in range(2):  # fill the slice: both sessions miss once
            assert not pool.process(request).cached
        before = pool.stats()
        # A new spelling of a cached query is a canonical hit for
        # `process`, but `lookup` never parses: it reports a miss.
        other = DecideRequest(query="Dir(y)", schema=INLINE_CHAIN)
        assert pool.lookup(other) is None
        assert pool.stats() == before
        hit = pool.lookup(DecideRequest(query="Dir(x)", schema=INLINE_CHAIN, id=3))
        assert hit is not None and hit.cached and hit.id == 3
        after = pool.stats()["counters"]
        assert after["requests"] == before["counters"]["requests"] + 1
        assert after["text_key_hits"] == before["counters"]["text_key_hits"] + 1


class TestQuotasStillApply:
    def test_rate_limited_client_gets_overloaded_on_cached_frames(self):
        frame = {"query": "Udirectory(i, a, p)"}
        replies, stats = serve_stream(
            SessionPool(university_schema(ud_bound=100), pool_size=1),
            [frame] * 4,
            client_rate=1.0,
            client_burst=2,
            clock=lambda: 0.0,  # frozen: the bucket never refills
        )
        assert not replies[0]["cached"]  # miss, via the executor
        assert replies[1]["cached"]  # hit, inline
        for reply in replies[2:]:
            assert reply["error"]["type"] == "Overloaded"
            assert reply["error"]["retryable"] is True
        assert stats["inline_hits"] == 1
        assert stats["overloaded"] == 2


class TestSpellingIndexBounded:
    def test_many_spellings_of_one_query_stay_within_the_cache_size(self):
        session = Session(university_schema(ud_bound=100), cache_size=8)
        for index in range(200):
            text = f"Udirectory(i{index}, a{index}, p{index})"
            response = session.decide(text)
            assert response.cached == (index > 0)
            assert session.lookup(text) is not None
            assert len(session._spellings) <= 8
        assert session.cache_info()["size"] == 1

    def test_pool_lookup_follows_session_evictions(self):
        pool = SessionPool(
            university_schema(ud_bound=100),
            pool_size=1,
            limits=SessionLimits(cache_size=1),
        )
        first = DecideRequest(query="Udirectory(i, a, p)")
        pool.process(first)
        assert pool.lookup(first) is not None
        pool.process(DecideRequest(query="Prof(i, n, 10000)"))  # evicts
        assert pool.lookup(first) is None
        session = pool.session()
        assert len(session._spellings) == 1
