"""Sessions: the user-facing service facade.

A `Session` binds a `CompiledSchema` to per-session resource limits and
an LRU decision cache, and exposes the four service verbs:

* ``decide(query)`` — monotone answerability, as a `DecideResponse`;
* ``decide_many(queries)`` — the batch form, one response per query;
* ``plan(query)`` — static-plan extraction, as a `PlanResponse`;
* ``explain(query)`` — the decision plus compilation/cache diagnostics.

Queries may be `ConjunctiveQuery` objects or text in the
`repro.logic.parser` syntax.  The cache key is the pair (schema
fingerprint, canonical query form): queries that differ only in
variable names or in the query name share an entry.  Responses are
wire-ready (`to_dict`) and mark cache hits with ``cached=True``.

Query *text* already seen is answered without parsing: a bounded
spelling index maps ``(text, finite)`` to the LRU key and the parsed
query's repr, so a repeated spelling costs two dict lookups.
`Session.lookup` is that probe on its own — it never parses, decides
or touches the durable store, which makes it safe to call from an
event loop — and `Session.decide` runs it as its first step.

Resource limits (``max_rounds``, ``max_facts``) bound the semidecidable
chase routes, replacing the per-call keyword defaults of the free
functions; routes with their own termination guarantee (the FD chase,
the linearized-rewriting ID route) are unaffected by ``max_rounds``.
``max_disjuncts`` bounds the ID route's backward rewriting; exceeding
it yields UNKNOWN with a structured ``error`` on the response instead
of a traceback.  ``subsumption`` (on by default) lets the ID route
prune rewriting disjuncts hom-implied by smaller kept ones — the
pruned UCQ is logically equivalent, so decisions are unchanged;
``subsumption=False`` restores the raw rewriting output.
"""

from __future__ import annotations

import copy
import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Iterable, Optional, Union

from ..answerability.deciders import (
    DEFAULT_CHASE_FACTS,
    DEFAULT_CHASE_ROUNDS,
    AnswerabilityResult,
    decide_monotone_answerability,
)
from ..containment.rewriting import DEFAULT_MAX_DISJUNCTS
from ..answerability.finite import decide_finite_monotone_answerability
from ..answerability.plangen import PlanExtractionError, generate_static_plan
from ..io import DecideResponse, PlanResponse, json_safe
from ..logic.parser import parse_cq
from ..logic.queries import ConjunctiveQuery
from ..logic.terms import Constant, Variable
from ..obs.timing import stage
from ..runtime import Budget
from ..schema.schema import Schema
from .compiled import CompiledSchema, as_compiled

QueryLike = Union[str, ConjunctiveQuery]


def canonical_query_key(query: ConjunctiveQuery) -> str:
    """A canonical text form of a CQ, stable under variable renaming.

    Variables are numbered by first occurrence (free variables keep
    their answer positions); constants carry their value.  Two queries
    with the same key are identical up to variable names and the query
    name, so a cached decision transfers.
    """
    renaming: dict[Variable, str] = {}

    def term_key(term: Any) -> str:
        if isinstance(term, Variable):
            if term not in renaming:
                renaming[term] = f"?{len(renaming)}"
            return renaming[term]
        if isinstance(term, Constant):
            return f"c:{term.value!r}"
        return f"t:{term!r}"

    atoms = ";".join(
        f"{atom.relation}({','.join(term_key(t) for t in atom.terms)})"
        for atom in query.atoms
    )
    free = ",".join(term_key(v) for v in query.free_variables)
    return f"{atoms}|{free}"


class Session:
    """A reusable decision session over one compiled schema.

    ::

        session = Session(schema, max_rounds=50)
        response = session.decide("Udirectory(i, a, p)")
        assert response.is_yes
        wire = response.to_dict()          # JSON-ready

    Thread-safe: the compiled artifacts freeze after first use and the
    decision cache takes a lock; concurrent `decide` calls are fine.
    """

    def __init__(
        self,
        schema: Union[Schema, CompiledSchema],
        *,
        max_rounds: Optional[int] = DEFAULT_CHASE_ROUNDS,
        max_facts: int = DEFAULT_CHASE_FACTS,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        subsumption: bool = True,
        chase_parallelism: int = 0,
        cache_size: int = 1024,
        store=None,
    ) -> None:
        self.compiled = as_compiled(schema)
        self.max_rounds = max_rounds
        self.max_facts = max_facts
        self.max_disjuncts = max_disjuncts
        self.subsumption = subsumption
        #: Worker threads for the chase's per-round trigger collection
        #: (0/1 = sequential; see `repro.chase.engine.chase`).  Results
        #: are deterministic and identical for every setting.
        self.chase_parallelism = chase_parallelism
        self.cache_size = cache_size
        #: LRU key -> cached response.  Entries are never mutated after
        #: insertion; hits are built from them, not handed out.
        self._cache: OrderedDict[tuple, Any] = OrderedDict()
        #: (query text, finite) -> (LRU key, repr of the parsed query):
        #: the parse-free spelling index.  LRU-capped at ``cache_size``
        #: entries; a spelling whose key the decision LRU has evicted is
        #: dropped when next probed.
        self._spellings: OrderedDict[tuple, tuple[tuple, str]] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: Optional durable `repro.cache.ArtifactStore` behind the LRU:
        #: decisions and plans are loaded through it on memory misses
        #: and written through on fresh computes; the compiled schema's
        #: rewrite engines persist their result memo into the same
        #: store.  A decision's durable key includes every limit that
        #: can change the answer, so two sessions only ever share
        #: entries they would have computed identically.
        self.store = store
        self.durable_hits = 0
        if store is not None:
            self.compiled.bind_store(store)

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self.compiled.schema

    @property
    def fingerprint(self) -> str:
        return self.compiled.fingerprint

    def _coerce(self, query: QueryLike) -> ConjunctiveQuery:
        if isinstance(query, str):
            return parse_cq(query)
        return query

    def _cache_get(self, key: tuple) -> Optional[Any]:
        with self._lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                self.hits += 1
                return self._cache[key]
            self.misses += 1
            return None

    def _cache_put(self, key: tuple, value: Any) -> None:
        if self.cache_size <= 0:
            return
        with self._lock:
            self._cache[key] = value
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _remember_spelling(
        self, text: str, finite: bool, key: tuple, query_repr: str
    ) -> None:
        if self.cache_size <= 0:
            return
        with self._lock:
            spellings = self._spellings
            spellings[(text, finite)] = (key, query_repr)
            spellings.move_to_end((text, finite))
            while len(spellings) > self.cache_size:
                spellings.popitem(last=False)

    @staticmethod
    def _hit(
        entry: DecideResponse,
        query_repr: str,
        started: float,
        id: Any = None,
    ) -> DecideResponse:
        """A hit response built from a cache entry.  ``detail`` and
        ``error`` are the entry's own objects: callers that hand the
        response out for mutation copy them first."""
        return DecideResponse(
            query=query_repr,
            decision=entry.decision,
            reason=entry.reason,
            route=entry.route,
            constraint_class=entry.constraint_class,
            fingerprint=entry.fingerprint,
            cached=True,
            # This lookup's cost, not the original decision's.
            elapsed_ms=round((time.perf_counter() - started) * 1000.0, 3),
            id=id,
            detail=entry.detail,
            error=entry.error,
        )

    def lookup(
        self, text: str, *, finite: bool = False, id: Any = None
    ) -> Optional[DecideResponse]:
        """The cached decision for a query spelling seen before, or None.

        Never parses, decides or reads the durable store, and counts a
        hit only when it returns one (a None counts nothing), so a
        caller may fall back to `decide` without skewing the counters.
        ``id`` is stamped on the response.  The response shares
        ``detail`` with the cache entry: serialize it, do not mutate it
        (`decide` returns caller-owned copies).
        """
        started = time.perf_counter()
        spelling = (text, finite)
        with self._lock:
            spelled = self._spellings.get(spelling)
            if spelled is None:
                return None
            key, query_repr = spelled
            entry = self._cache.get(key)
            if entry is None:  # the decision LRU evicted its key
                del self._spellings[spelling]
                return None
            self._spellings.move_to_end(spelling)
            self._cache.move_to_end(key)
            self.hits += 1
        return self._hit(entry, query_repr, started, id)

    # ------------------------------------------------------------------
    # Durable tier (load-through / write-through around the LRU)
    # ------------------------------------------------------------------
    def _durable_key(self, op: str, canon: str, finite: bool = False) -> str:
        """Address of one decision in the durable store.

        Besides the operation and the canonical query form, the key
        folds in every session limit that can change the answer
        (``max_rounds``/``max_facts``/``max_disjuncts``/``subsumption``)
        — sessions under different limits never share durable entries.
        ``chase_parallelism`` is deliberately excluded: results are
        guaranteed identical for every setting.
        """
        text = "|".join(
            (
                op,
                canon,
                str(bool(finite)),
                str(self.max_rounds),
                str(self.max_facts),
                str(self.max_disjuncts),
                str(self.subsumption),
            )
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _durable_load(self, key_text: str, decode) -> Optional[Any]:
        with stage("persist"):
            payload = self.store.load(
                "decision",
                f"decision:{self.compiled.fingerprint}",
                key_text,
            )
        if not isinstance(payload, dict):
            return None
        try:
            response = decode(payload)
        except (KeyError, TypeError, ValueError):
            return None
        if response.fingerprint != self.compiled.fingerprint:
            return None
        self.durable_hits += 1
        return response

    def _durable_put(self, key_text: str, response: Any) -> None:
        with stage("persist"):
            self.store.store(
                "decision",
                f"decision:{self.compiled.fingerprint}",
                key_text,
                response.to_dict(),
            )

    # ------------------------------------------------------------------
    # Service verbs
    # ------------------------------------------------------------------
    def decide(
        self,
        query: QueryLike,
        *,
        finite: bool = False,
        budget: Optional[Budget] = None,
    ) -> DecideResponse:
        """Decide monotone answerability; cached by canonical form.

        ``budget`` is threaded through the decision procedures
        (chase rounds, rewriting expansions, matcher backtracking all
        poll it); an exhausted budget raises
        `repro.runtime.DeadlineExceeded` out of this method *without*
        caching anything — a deadline abort is a property of the
        request, not of the query, so it must never masquerade as a
        decision on later lookups.  Cache hits are served even when the
        budget is already exhausted (they cost microseconds).
        """
        started = time.perf_counter()
        text = query if isinstance(query, str) else None
        if text is not None:
            known = self.lookup(text, finite=finite)
            if known is not None:
                return self._owned(known)
        parsed = self._coerce(query)
        key = ("decide", canonical_query_key(parsed), finite)
        hit = self._cache_get(key)
        durable_key: Optional[str] = None
        if self.store is not None:
            durable_key = self._durable_key("decide", key[1], finite)
            if hit is None:
                hit = self._durable_load(
                    durable_key, DecideResponse.from_dict
                )
                if hit is not None:
                    self._cache_put(key, hit)
        if hit is not None:
            query_repr = repr(parsed)
            if text is not None:
                self._remember_spelling(text, finite, key, query_repr)
            return self._owned(self._hit(hit, query_repr, started))
        if budget is not None:
            budget.check()
        result = self._decide_result(parsed, finite=finite, budget=budget)
        # Promote a structured error (e.g. RewritingBudgetExceeded) to
        # the top-level wire field; it leaves `detail` so the payload
        # carries it exactly once.
        detail = dict(result.decision.detail)
        structured_error = detail.get("error")
        if isinstance(structured_error, dict):
            del detail["error"]
        else:
            structured_error = None
        response = DecideResponse(
            query=repr(parsed),
            decision=result.truth.value,
            reason=result.decision.reason,
            route=result.route,
            constraint_class=result.constraint_class.value,
            fingerprint=self.compiled.fingerprint,
            cached=False,
            elapsed_ms=round(
                (time.perf_counter() - started) * 1000.0, 3
            ),
            detail=json_safe(detail),
            error=json_safe(structured_error)
            if structured_error is not None
            else None,
        )
        if response.error is None:
            cacheable = replace(
                response,
                detail=copy.deepcopy(response.detail),
                error=None,
            )
            self._cache_put(key, cacheable)
            if text is not None:
                self._remember_spelling(text, finite, key, response.query)
            if durable_key is not None:
                self._durable_put(durable_key, cacheable)
        # Responses carrying a structured error (rewriting/chase budget
        # hits) are *not* cached: they reflect resource limits, not the
        # query, and must be recomputed — and rechecked against the
        # limits — on every request.
        return response

    @staticmethod
    def _owned(response: DecideResponse) -> DecideResponse:
        """``response`` with its own ``detail``/``error`` copies: callers
        may annotate what `decide` returns without poisoning the cache
        entry it was built from."""
        response.detail = copy.deepcopy(response.detail)
        response.error = copy.deepcopy(response.error)
        return response

    def _decide_result(
        self,
        query: ConjunctiveQuery,
        *,
        finite: bool,
        budget: Optional[Budget] = None,
    ) -> AnswerabilityResult:
        if finite:
            return decide_finite_monotone_answerability(
                self.compiled,
                query,
                max_rounds=self.max_rounds,
                max_facts=self.max_facts,
                max_disjuncts=self.max_disjuncts,
                subsumption=self.subsumption,
                budget=budget,
                parallelism=self.chase_parallelism,
            )
        return decide_monotone_answerability(
            self.compiled,
            query,
            max_rounds=self.max_rounds,
            max_facts=self.max_facts,
            max_disjuncts=self.max_disjuncts,
            subsumption=self.subsumption,
            budget=budget,
            parallelism=self.chase_parallelism,
        )

    def decide_many(
        self,
        queries: Iterable[QueryLike],
        *,
        finite: bool = False,
        budget: Optional[Budget] = None,
    ) -> list[DecideResponse]:
        """Decide a batch of queries against the shared compiled schema."""
        return [
            self.decide(query, finite=finite, budget=budget)
            for query in queries
        ]

    def plan(
        self, query: QueryLike, *, budget: Optional[Budget] = None
    ) -> PlanResponse:
        """Extract a static plan (Boolean queries); cached like decide."""
        parsed = self._coerce(query)
        key = ("plan", canonical_query_key(parsed))
        hit = self._cache_get(key)
        durable_key: Optional[str] = None
        if self.store is not None:
            durable_key = self._durable_key("plan", key[1])
            if hit is None:
                hit = self._durable_load(durable_key, PlanResponse.from_dict)
                if hit is not None:
                    self._cache_put(key, hit)
        if hit is not None:
            return replace(hit, cached=True, query=repr(parsed))
        if budget is not None:
            budget.check()
        try:
            plan = generate_static_plan(
                self.compiled,
                parsed,
                max_rounds=self.max_rounds,
                max_facts=self.max_facts,
                max_disjuncts=self.max_disjuncts,
                subsumption=self.subsumption,
                budget=budget,
            )
        except PlanExtractionError as error:
            return PlanResponse(
                query=repr(parsed),
                answerable=False,
                reason=str(error),
                fingerprint=self.compiled.fingerprint,
            )
        if plan is None:
            response = PlanResponse(
                query=repr(parsed),
                answerable=False,
                reason=(
                    "the query is not (provably) monotone answerable "
                    "through a chase certificate"
                ),
                fingerprint=self.compiled.fingerprint,
            )
        else:
            response = PlanResponse(
                query=repr(parsed),
                answerable=True,
                plan=str(plan),
                fingerprint=self.compiled.fingerprint,
            )
        # Store a copy so caller attribute assignment cannot poison the
        # cache entry (all field values are immutable).
        cacheable = replace(response)
        self._cache_put(key, cacheable)
        if durable_key is not None:
            self._durable_put(durable_key, cacheable)
        return response

    def explain(
        self,
        query: QueryLike,
        *,
        finite: bool = False,
        budget: Optional[Budget] = None,
    ) -> dict:
        """The decision plus session/compilation diagnostics, JSON-safe."""
        response = self.decide(query, finite=finite, budget=budget)
        report = response.to_dict()
        report["limits"] = {
            "max_rounds": self.max_rounds,
            "max_facts": self.max_facts,
            "max_disjuncts": self.max_disjuncts,
            "subsumption": self.subsumption,
            "chase_parallelism": self.chase_parallelism,
        }
        report["cache"] = self.cache_info()
        report["compile_stats"] = dict(self.compiled.stats)
        report["rewrite_engine"] = self.compiled.engine_stats()
        report["matching"] = self.compiled.matcher_stats()
        return report

    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        with self._lock:
            info = {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._cache),
                "capacity": self.cache_size,
            }
            if self.store is not None:
                info["durable_hits"] = self.durable_hits
            return info

    def stats(self) -> dict:
        """Session-wide diagnostics: decision cache, per-schema compile
        counters, and the cross-query cache traffic of the rewrite
        engine and the compiled matcher (plan-cache and check-cache
        hit counters).  With a durable store bound, its per-tier
        hit/miss/write/invalid counters appear under ``store``."""
        report = {
            "fingerprint": self.compiled.fingerprint,
            "cache": self.cache_info(),
            "compile_stats": dict(self.compiled.stats),
            "rewrite_engine": self.compiled.engine_stats(),
            "matching": self.compiled.matcher_stats(),
        }
        if self.store is not None:
            report["store"] = self.store.stats()
        return report

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._spellings.clear()

    def __repr__(self) -> str:
        return (
            f"Session({self.compiled!r}, max_rounds={self.max_rounds}, "
            f"max_facts={self.max_facts})"
        )
