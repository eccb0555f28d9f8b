"""Compiled matching core: planned, memoized homomorphism evaluation.

Every decision procedure in the library — chase trigger enumeration,
restricted-chase activeness checks, EGD violation search, CQ/UCQ
evaluation, containment, and the rewriting engine's isomorphism dedup —
bottoms out in homomorphism search.  This package owns that search:

* `plan` compiles a `MatchPlan` per (atom set, rigidity, seed shape):
  an adaptive join order plus per-atom instruction tuples;
* `matcher.Matcher` executes plans with cross-call memoization — a
  bounded plan LRU, and a result/failure cache invalidated by the
  per-relation generation counters of `repro.data.Instance`;
* `probe.probe_once` answers one-shot existence checks (each body
  probed once, as the ID route's disjunct probes are) by a greedy
  int-space search that compiles and caches no plan;
* `naive` keeps the original backtracking search as the executable
  reference (`NaiveMatcher`) the planned matcher is cross-checked and
  benchmarked against.

`repro.logic.homomorphism` remains the stable public facade: its free
functions delegate to `default_matcher()`.  Consumers that decide many
queries against one schema should use the matcher owned by their
`repro.service.CompiledSchema` instead, so plans and check caches are
shared across calls.
"""

from .matcher import (
    DEFAULT_CHECK_CACHE_LIMIT,
    DEFAULT_PLAN_CACHE_SIZE,
    Matcher,
    default_matcher,
    freeze_atoms,
)
from .naive import NaiveMatcher, naive_homomorphisms
from .plan import CompiledAtom, MatchPlan, plan_key
from .probe import probe_once

__all__ = [
    "DEFAULT_CHECK_CACHE_LIMIT",
    "DEFAULT_PLAN_CACHE_SIZE",
    "CompiledAtom",
    "MatchPlan",
    "Matcher",
    "NaiveMatcher",
    "default_matcher",
    "freeze_atoms",
    "naive_homomorphisms",
    "plan_key",
    "probe_once",
]
