"""Complete containment for linear TGDs via backward UCQ rewriting.

Inclusion dependencies — and, crucially, the linear TGDs produced by the
paper's *linearization* technique (Prop 5.5 / App E.3) — form a
*finite-unification set*: the certain-answer rewriting of a CQ under them
is a finite UCQ (Calì–Gottlob–Lembo-style PerfectRef).  This yields a
**terminating and complete** decision procedure for containment:

    Q ⊆Σ Q'   iff   CanonDB(Q) satisfies some disjunct of rewrite(Q', Σ)

which complements the chase route (complete only on terminating classes).
The deciders for IDs and bounded-width IDs use this module after
linearizing, exactly as Theorem 5.4 prescribes.

The work is organized around `RewriteEngine`, an *incremental* rewriter
over one fixed rule set:

* at construction the rules are validated, renamed apart once, and
  indexed by head relation/arity (the only rules that can resolve
  against an atom);
* every backward-resolution step is compiled per **atom pattern** (the
  atom's relation plus its variable-repetition/constant shape and which
  of its variables are shared with the rest of the query) and memoized —
  the unification work is done once per (pattern, rule) ever;
* query states are kept in **canonical form** (variables renamed by a
  deterministic scheme), and the full expansion of each canonical state
  is memoized, so rewriting query N+1 reuses every frontier state
  already explored for queries 1..N;
* states live in **int space** (`StateCodec`): tuples of int-encoded
  atoms, with the per-atom sort keys memoized, so canonicalization,
  step application and factorization hash small ints only; `Atom`
  objects are built for emitted disjuncts alone;
* emitted UCQs are deduplicated by canonical isomorphism class and
  sorted deterministically, so the output (and any cache key derived
  from it) is stable across runs and across engine instances.

The free `rewrite()` keeps its historical signature as a thin
compile-on-the-fly wrapper.  Only single-head linear TGDs are supported
(every rule emitted by our linearization has this shape); the engine
raises otherwise.
"""

from __future__ import annotations

import threading
from itertools import compress
from typing import Iterable, Optional, Sequence

from ..constraints.tgd import TGD
from ..logic.atoms import Atom
from ..logic.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.terms import Constant, Null, Term, Variable
from ..matching.matcher import default_matcher, freeze_atoms
from ..matching.probe import probe_once
from ..obs.timing import stage
from ..runtime import Budget
from .decision import Decision

#: Safety valve on the number of generated disjuncts.
DEFAULT_MAX_DISJUNCTS = 50_000

#: A canonical Boolean CQ body: atoms over `_q*` variables in sorted order.
State = tuple[Atom, ...]


class RewritingError(ValueError):
    """Raised on unsupported inputs (non-linear rules, non-Boolean CQs)."""


class RewritingBudgetExceeded(RewritingError):
    """The rewriting grew past ``max_disjuncts`` (Q remains undecided).

    A typed subclass so service layers can surface the budget as a
    structured error (``as_detail``) instead of a bare traceback, while
    existing ``except RewritingError`` handlers keep working.
    ``reached`` is the frontier size at which the overflow was detected
    — always ``max_disjuncts + 1``, whether the overflow is found live
    or on a memoized result, so replays of one request report the same
    error regardless of engine cache warmth.
    """

    def __init__(self, max_disjuncts: int, reached: int) -> None:
        super().__init__(
            f"rewriting exceeded {max_disjuncts} disjuncts "
            f"(reached {reached}); raise max_disjuncts to continue"
        )
        self.max_disjuncts = max_disjuncts
        self.reached = reached

    def as_detail(self) -> dict:
        """The structured wire form (`DecideResponse.error`, CLI JSON)."""
        return {
            "type": "RewritingBudgetExceeded",
            "max_disjuncts": self.max_disjuncts,
            "reached": self.reached,
        }


# ----------------------------------------------------------------------
# Unification on term equivalence classes
# ----------------------------------------------------------------------
class _Unifier:
    """Union-find over terms with constant-clash detection."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.setdefault(term, term)
        if parent is term:
            return term
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, left: Term, right: Term) -> bool:
        """Merge classes; return False on a constant/null clash."""
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return True
        left_rigid = not isinstance(left_root, Variable)
        right_rigid = not isinstance(right_root, Variable)
        if left_rigid and right_rigid:
            return False
        if left_rigid:
            self._parent[right_root] = left_root
        else:
            self._parent[left_root] = right_root
        return True

    def classes(self) -> dict[Term, list[Term]]:
        groups: dict[Term, list[Term]] = {}
        for term in list(self._parent):
            groups.setdefault(self.find(term), []).append(term)
        return groups


# ----------------------------------------------------------------------
# Canonical states, in int space
# ----------------------------------------------------------------------
#: An int-encoded atom: the relation id, then one id per term —
#: variables are ids >= 0, rigid terms (constants, nulls) ids < 0.
IntAtom = tuple[int, ...]
#: A Boolean CQ body of int-encoded atoms.
IntState = tuple[IntAtom, ...]

#: Entries a per-atom key memo holds before a wholesale clear (the
#: memos are pure caches: a cleared key is recomputed on its next use).
KEY_MEMO_LIMIT = 1 << 16

#: Cached state expansions a `RewriteEngine` holds before it drops its
#: whole int-space generation (codec, steps, expansions, results) after
#: a rewrite.  Far above the largest single rewrite of the Table-1
#: corpora and `bench_rewriting_reuse` (256 expansions: bounded
#: lookup-chain n=8, unbounded n=4, the n=8 join chain), so one query
#: never outgrows a generation; it bounds a long-lived engine that sees
#: a stream of never-seen constants to a few tens of MB.
MEMO_LIMIT = 8192

#: Interned canonical/fresh variables (the hot loop allocates none).
#: The pools are process-global — engines on different schemas share
#: them — so growth takes a lock; reads are safe because the pools only
#: ever append.
_CANONICAL_VARS: list[Variable] = []
_POOL_LOCK = threading.Lock()


def _interned(pool: list[Variable], prefix: str, index: int) -> Variable:
    if index < len(pool):
        return pool[index]
    with _POOL_LOCK:
        while len(pool) <= index:
            pool.append(Variable(f"{prefix}{len(pool)}"))
    return pool[index]


class StateCodec:
    """Int encoding of rewriting states, with memoized per-atom keys.

    Relations are interned to ids from 0 up and rigid terms to ids from
    -1 down (``~id`` indexes the term table); variables are plain ids
    >= 0, so a state is a tuple of small int tuples and hashing it never
    reaches a `Term`.  The three keys the rewriting compares atoms by —
    the variable-blind shape, the canonical sort key and the emission
    key — are the object-space keys verbatim, computed once per
    distinct int atom and memoized, so `canonical` reproduces the
    object-space normal form exactly and `decode` turns it into the
    historical ``_q*`` atoms.

    Not thread-safe: an engine uses its codec under its own lock.
    """

    def __init__(self) -> None:
        self._relation_ids: dict[str, int] = {}
        self._relations: list[str] = []
        self._rigid_ids: dict[Term, int] = {}
        self._rigid_terms: list[Term] = []
        self._rigid_reprs: list[str] = []
        self._shape_keys: dict[IntAtom, tuple] = {}
        self._order_keys: dict[IntAtom, tuple] = {}
        self._emission_keys: dict[IntAtom, tuple] = {}
        self._atoms: dict[IntAtom, Atom] = {}

    # -- interning -----------------------------------------------------
    def relation_id(self, relation: str) -> int:
        index = self._relation_ids.get(relation)
        if index is None:
            index = len(self._relations)
            self._relation_ids[relation] = index
            self._relations.append(relation)
        return index

    def rigid_id(self, term: Term) -> int:
        code = self._rigid_ids.get(term)
        if code is None:
            code = ~len(self._rigid_terms)
            self._rigid_ids[term] = code
            self._rigid_terms.append(term)
            self._rigid_reprs.append(repr(term))
        return code

    def relation_name(self, relation: int) -> str:
        return self._relations[relation]

    def rigid_term(self, code: int) -> Term:
        return self._rigid_terms[~code]

    def encode(self, atoms: Iterable[Atom]) -> tuple[IntAtom, ...]:
        """Int atoms of an object-space body (variables numbered by
        first occurrence; not yet canonical)."""
        variables: dict[Variable, int] = {}
        encoded = []
        for a in atoms:
            row = [self.relation_id(a.relation)]
            for t in a.terms:
                if isinstance(t, Variable):
                    row.append(variables.setdefault(t, len(variables)))
                else:
                    row.append(self.rigid_id(t))
            encoded.append(tuple(row))
        return tuple(encoded)

    def decode(self, state: IntState) -> State:
        """The object-space atoms: variable ``i`` becomes ``_q{i}``."""
        memo = self._atoms
        if len(memo) >= KEY_MEMO_LIMIT:
            memo.clear()
        decoded = []
        for a in state:
            built = memo.get(a)
            if built is None:
                rigid = self._rigid_terms
                built = Atom(
                    self._relations[a[0]],
                    tuple(
                        _interned(_CANONICAL_VARS, "_q", code)
                        if code >= 0
                        else rigid[~code]
                        for code in a[1:]
                    ),
                )
                memo[a] = built
            decoded.append(built)
        return tuple(decoded)

    # -- per-atom keys -------------------------------------------------
    def shape_key(self, a: IntAtom) -> tuple:
        """A variable-blind pattern of one atom (repetitions + rigid
        terms): ``(relation, (("v", local) | ("c", repr), ...))``."""
        key = self._shape_keys.get(a)
        if key is None:
            pattern = []
            first_seen: dict[int, int] = {}
            for code in a[1:]:
                if code >= 0:
                    pattern.append(
                        ("v", first_seen.setdefault(code, len(first_seen)))
                    )
                else:
                    pattern.append(("c", self._rigid_reprs[~code]))
            key = (self._relations[a[0]], tuple(pattern))
            self._shape_keys[a] = key
        return key

    def _order_key(self, a: IntAtom) -> tuple:
        """Sort key of a renamed atom: variables by index, before rigid
        terms by repr."""
        key = self._order_keys.get(a)
        if key is None:
            reprs = self._rigid_reprs
            key = (
                self._relations[a[0]],
                tuple(
                    (0, code) if code >= 0 else (1, reprs[~code])
                    for code in a[1:]
                ),
            )
            self._order_keys[a] = key
        return key

    def emission_key(self, state: IntState) -> tuple:
        """``(size, per-atom (relation, term reprs))`` of a canonical
        state — the deterministic emission order."""
        keys = self._emission_keys
        if len(keys) >= KEY_MEMO_LIMIT:
            keys.clear()
        parts = []
        for a in state:
            key = keys.get(a)
            if key is None:
                reprs = self._rigid_reprs
                key = (
                    self._relations[a[0]],
                    tuple(
                        f"_q{code}" if code >= 0 else reprs[~code]
                        for code in a[1:]
                    ),
                )
                keys[a] = key
            parts.append(key)
        return (len(state), tuple(parts))

    # -- the canonical form --------------------------------------------
    def canonical(self, atoms: Iterable[IntAtom]) -> IntState:
        """A renaming-invariant normal form of a Boolean CQ body.

        Atoms are ordered by a variable-blind shape, variables renamed
        to ``0, 1, ...`` by first occurrence, duplicates dropped, and
        the result sorted deterministically.  Alpha-equivalent bodies
        presented in the same atom order map to the same state
        (shape-sort ties may distinguish some isomorphic bodies — see
        the isomorphism dedup at emission — which costs duplicates,
        never correctness).
        """
        shape_keys = self._shape_keys
        if len(shape_keys) >= KEY_MEMO_LIMIT:
            shape_keys.clear()
        order_keys = self._order_keys
        if len(order_keys) >= KEY_MEMO_LIMIT:
            order_keys.clear()
        unique = dict.fromkeys(atoms)
        shape_key = self.shape_key
        for a in unique:
            if a not in shape_keys:
                shape_key(a)
        renaming: dict[int, int] = {}
        rebuilt = []
        for a in sorted(unique, key=shape_keys.__getitem__):
            row = [a[0]]
            for code in a[1:]:
                if code >= 0:
                    index = renaming.get(code)
                    if index is None:
                        index = renaming[code] = len(renaming)
                    code = index
                row.append(code)
            renamed = tuple(row)
            if renamed not in order_keys:
                self._order_key(renamed)
            rebuilt.append(renamed)
        # Distinct atoms stay distinct under the (bijective) renaming,
        # so the sorted list needs no second dedup.
        rebuilt.sort(key=order_keys.__getitem__)
        return tuple(rebuilt)


def canonical_state(atoms: Iterable[Atom]) -> State:
    """A renaming-invariant normal form of a Boolean CQ body.

    The object-space entry point: encodes the atoms, runs
    `StateCodec.canonical` and decodes the result (variables become
    ``_q0, _q1, ...``).  `RewriteEngine` keeps its states encoded and
    calls the codec directly.
    """
    codec = StateCodec()
    return codec.decode(codec.canonical(codec.encode(atoms)))


def _isomorphic(left: State, right: State) -> bool:
    """Exact isomorphism of two CQ bodies (bijective variable renaming).

    Decided by the compiled matching core: an injective planned search
    of `left` against `right` frozen, bindings restricted to variable
    images (`repro.matching.Matcher.is_isomorphic`).  Kept as a free
    function for callers outside an engine; `RewriteEngine` dedups on
    its own matcher.
    """
    return default_matcher().is_isomorphic(left, right)


def _find(parent: dict[int, int], code: int) -> int:
    while True:
        step = parent.get(code)
        if step is None:
            return code
        code = step


def _factorizations(atoms: IntState) -> Iterable[tuple[IntAtom, ...]]:
    """Unify pairs of same-relation atoms (the 'reduce' step).

    Union-find over term ids: a rigid id wins a class, two distinct
    rigid ids clash.  Which variable represents a merged class does not
    matter — the canonical form is invariant under variable renaming.
    """
    count = len(atoms)
    for i in range(count):
        left = atoms[i]
        for j in range(i + 1, count):
            right = atoms[j]
            if left[0] != right[0] or len(left) != len(right):
                continue
            parent: dict[int, int] = {}
            ok = True
            for position in range(1, len(left)):
                left_root = _find(parent, left[position])
                right_root = _find(parent, right[position])
                if left_root == right_root:
                    continue
                if left_root < 0:
                    if right_root < 0:
                        ok = False
                        break
                    parent[right_root] = left_root
                else:
                    parent[left_root] = right_root
            if not ok:
                continue
            merged = tuple(
                dict.fromkeys(
                    (a[0],) + tuple(_find(parent, code) for code in a[1:])
                    for a in atoms
                )
            )
            if len(merged) < count:
                yield merged


# ----------------------------------------------------------------------
# The incremental engine
# ----------------------------------------------------------------------
#: A compiled backward-resolution step: the body relation of the rule,
#: the produced atom as tokens over the source atom's local variables
#: (("v", local_id) | ("c", constant) | ("f", fresh_id)), and the
#: equalities the head unification forces on the rest of the query.
_Step = tuple[str, tuple, tuple]
#: The same step lowered to int space: the relation id, the produced
#: atom as codes (a local id, ``locals + fresh_id`` for a fresh
#: variable, or a rigid id < 0), the merges as ``(local_id, code)``
#: pairs, and the number of fresh variables.
_IntStep = tuple[int, tuple[int, ...], tuple[tuple[int, int], ...], int]


class RewriteEngine:
    """Incremental backward UCQ rewriting over one fixed linear-TGD set.

    Construction validates and indexes the rules; `rewrite` memoizes
    per-atom-pattern resolution steps, canonical-state expansions, and
    whole results, so a batch of distinct queries over the same rules
    shares every step already derived.  Thread-safe (one coarse lock —
    the memo tables are shared mutable state).

    ::

        engine = RewriteEngine(system.rules)
        ucq = engine.rewrite(query)          # complete UCQ rewriting
        engine.stats()["expansions_reused"]  # cross-query cache traffic
    """

    def __init__(
        self,
        rules: Sequence[TGD],
        *,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        subsumption: bool = False,
        matcher=None,
    ) -> None:
        #: The compiled matcher running the isomorphism dedup (and the
        #: optional subsumption pruning).  `CompiledSchema` passes its
        #: per-fingerprint matcher so rewriting shares its plan cache.
        self._matcher = matcher if matcher is not None else default_matcher()
        # Construction-time only: memoized results are keyed by the
        # canonical start state alone, so flipping the flag on a live
        # engine would serve output computed under the other setting.
        self._subsumption = subsumption
        for rule in rules:
            if len(rule.body) != 1 or len(rule.head) != 1:
                raise RewritingError(
                    f"rewriting needs single-head linear TGDs, got {rule}"
                )
        # Rename every rule apart once, into a reserved namespace that
        # cannot collide with canonical state variables (`_q*`), pattern
        # variables (`_p*`), or application-fresh variables (`_f*`).
        self.rules: tuple[TGD, ...] = tuple(
            self._reserved(rule, index) for index, rule in enumerate(rules)
        )
        self.max_disjuncts = max_disjuncts
        #: (head relation, arity) -> indices of rules that resolve there.
        self._rules_by_head: dict[tuple[str, int], tuple[int, ...]] = {}
        for index, rule in enumerate(self.rules):
            head = rule.head[0]
            key = (head.relation, head.arity)
            self._rules_by_head[key] = self._rules_by_head.get(key, ()) + (
                index,
            )
        self._new_generation()
        #: optional durable tier behind the whole-result memo
        #: (`bind_store`): misses fall through to it before the BFS,
        #: complete results are written through after the memo.
        self._store = None
        self._store_namespace = ""
        self._lock = threading.RLock()
        self._counters = {
            "rewrites": 0,
            "result_hits": 0,
            "states": 0,
            "expansions_built": 0,
            "expansions_reused": 0,
            "atom_patterns_compiled": 0,
            "atom_pattern_hits": 0,
            "disjuncts_emitted": 0,
            "disjuncts_deduped": 0,
            "subsumption_checks": 0,
            "disjuncts_subsumed": 0,
            "persisted_loads": 0,
            "persisted_writes": 0,
            "generations_dropped": 0,
        }

    def _new_generation(self) -> None:
        """Start an empty int-space generation.  Every memo below keys
        on the codec's ids, so they are only ever dropped together."""
        #: Frontier states live in int space (`StateCodec`); only
        #: emitted disjuncts are decoded back to atoms.
        self._codec = StateCodec()
        #: atom pattern -> compiled steps (the per-atom rewrite memo).
        self._steps: dict[tuple, tuple[_IntStep, ...]] = {}
        #: canonical state -> canonical successor states.
        self._expansions: dict[IntState, tuple[IntState, ...]] = {}
        #: initial canonical state -> (frontier size, emitted disjuncts).
        self._results: dict[IntState, tuple[int, tuple[State, ...]]] = {}

    @property
    def subsumption(self) -> bool:
        """Whether emitted disjuncts hom-implied by smaller kept ones
        are dropped.  Fixed at construction (memoized results do not
        record which setting produced them)."""
        return self._subsumption

    def bind_store(self, store, namespace: str) -> None:
        """Attach a durable artifact store behind the result memo.

        ``namespace`` must separate engines that would disagree — the
        binder (`CompiledSchema`) derives it from the schema fingerprint
        and the subsumption flag, the two construction inputs a result
        depends on.  Persistence is strictly advisory: loads that fail
        to decode are misses, writes that fail are dropped.
        """
        with self._lock:
            self._store = store
            self._store_namespace = namespace

    def _load_persisted(
        self, start: State
    ) -> Optional[tuple[int, tuple[State, ...]]]:
        from ..cache import codec

        payload = self._store.load(
            "rewrite", self._store_namespace, codec.state_key(start)
        )
        if not isinstance(payload, dict):
            return None
        frontier_size = payload.get("frontier")
        wire = payload.get("disjuncts")
        if not isinstance(frontier_size, int) or not isinstance(wire, list):
            return None
        try:
            # The stored states are the exact canonical disjuncts a
            # previous `_emit` produced, digest-protected by the
            # envelope; decoding reconstructs them verbatim (order
            # included) so replayed decisions are byte-identical.
            disjuncts = tuple(codec.decode_state(entry) for entry in wire)
        except ValueError:
            return None
        return (frontier_size, disjuncts)

    def _persist_result(
        self, start: State, frontier_size: int, disjuncts: tuple[State, ...]
    ) -> None:
        from ..cache import codec

        try:
            wire = [codec.encode_state(state) for state in disjuncts]
        except codec.UnencodableValue:
            return
        if self._store.store(
            "rewrite",
            self._store_namespace,
            codec.state_key(start),
            {"frontier": frontier_size, "disjuncts": wire},
        ):
            self._counters["persisted_writes"] += 1

    @staticmethod
    def _reserved(rule: TGD, index: int) -> TGD:
        renaming = {
            v: Variable(f"_r{index}_{v.name}")
            for v in set(rule.body_variables()) | set(rule.head_variables())
        }
        return TGD(
            tuple(a.substitute(renaming) for a in rule.body),
            tuple(a.substitute(renaming) for a in rule.head),
            rule.name,
        )

    # ------------------------------------------------------------------
    # Per-atom-pattern step compilation
    # ------------------------------------------------------------------
    def _atom_steps(
        self, relation: int, pattern: tuple[int, ...], shared: frozenset[int]
    ) -> tuple[_IntStep, ...]:
        """Compiled steps for one atom occurrence.

        ``pattern`` is the atom's terms with each variable replaced by
        its local id (first occurrence within the atom, >= 0) and rigid
        ids kept (< 0); ``shared`` holds the local ids of the atom's
        variables that also occur elsewhere in the query.  Together they
        fully determine applicability and effect of every rule, so the
        result is memoized across states *and* across queries.
        """
        key = (relation, pattern, shared)
        steps = self._steps.get(key)
        if steps is not None:
            self._counters["atom_pattern_hits"] += 1
            return steps
        self._counters["atom_patterns_compiled"] += 1
        codec = self._codec
        locals_count = len({code for code in pattern if code >= 0})
        variables = {lid: Variable(f"_p{lid}") for lid in range(locals_count)}
        terms = tuple(
            variables[code] if code >= 0 else codec.rigid_term(code)
            for code in pattern
        )
        name = codec.relation_name(relation)
        patom = Atom(name, terms)
        compiled = []
        for rule_index in self._rules_by_head.get((name, len(terms)), ()):
            step = self._compile_step(patom, variables, shared, rule_index)
            if step is not None:
                compiled.append(self._lower(step, locals_count))
        steps = tuple(compiled)
        self._steps[key] = steps
        return steps

    def _lower(self, step: _Step, locals_count: int) -> _IntStep:
        """A compiled step in int codes (see `_IntStep`)."""
        relation, produced, merges = step
        codec = self._codec
        fresh = 0

        def code_of(token: tuple) -> int:
            nonlocal fresh
            kind, value = token
            if kind == "v":
                return value
            if kind == "f":
                fresh = max(fresh, value + 1)
                return locals_count + value
            return codec.rigid_id(value)

        return (
            codec.relation_id(relation),
            tuple(code_of(token) for token in produced),
            tuple((lid, code_of(token)) for lid, token in merges),
            fresh,
        )

    def _compile_step(
        self,
        patom: Atom,
        variables: dict[int, Variable],
        shared: frozenset[int],
        rule_index: int,
    ) -> Optional[_Step]:
        """One backward-resolution step of a rule against an atom pattern.

        Returns None if the rule is not applicable (head does not unify,
        or an existential variable of the head would be exported into
        the rest of the query).
        """
        rule = self.rules[rule_index]
        head = rule.head[0]
        unifier = _Unifier()
        for query_term, head_term in zip(patom.terms, head.terms):
            if not unifier.union(query_term, head_term):
                return None

        existentials = set(rule.existential_variables())
        body_vars = set(rule.body_variables())
        local_id = {var: lid for lid, var in variables.items()}
        classes = unifier.classes()
        for members in classes.values():
            if not any(m in existentials for m in members):
                continue
            # This class witnesses an existential position of the head.
            # Every query term in it must be a variable occurring nowhere
            # else, and only at existential positions of the head.
            for member in members:
                if member in existentials:
                    continue
                if isinstance(member, (Constant, Null)):
                    return None
                if member in body_vars:
                    # Exported rule variable unified with an existential.
                    return None
                if local_id[member] in shared:
                    return None
                for i, term in enumerate(patom.terms):
                    if term == member and not (
                        isinstance(head.terms[i], Variable)
                        and head.terms[i] in existentials
                    ):
                        return None

        rule_vars = body_vars | set(rule.head_variables())

        def representative(term: Term) -> Term:
            root = unifier.find(term)
            members = classes.get(root, [root])
            for candidate in members:
                if isinstance(candidate, (Constant, Null)):
                    return candidate
            for candidate in members:
                if isinstance(candidate, Variable) and candidate not in rule_vars:
                    return candidate
            return root

        substitution = {
            term: representative(term) for term in list(unifier._parent)
        }
        new_atom = rule.body[0].substitute(substitution)

        fresh_ids: dict[Variable, int] = {}

        def token_of(term: Term) -> tuple:
            if isinstance(term, Variable):
                if term in local_id:
                    return ("v", local_id[term])
                # A rule variable surviving into the rewritten query: it
                # must be instantiated fresh at every application.
                if term not in fresh_ids:
                    fresh_ids[term] = len(fresh_ids)
                return ("f", fresh_ids[term])
            return ("c", term)

        produced = tuple(token_of(t) for t in new_atom.terms)
        merges = tuple(
            (lid, token_of(representative(var)))
            for var, lid in local_id.items()
            if representative(var) != var
        )
        return (new_atom.relation, produced, merges)

    # ------------------------------------------------------------------
    # State expansion
    # ------------------------------------------------------------------
    def _apply(
        self,
        state: IntState,
        index: int,
        step: _IntStep,
        var_of_local: list[int],
        fresh_base: int,
    ) -> IntState:
        relation, produced, merges, fresh = step
        image = var_of_local
        if fresh:
            image = var_of_local + list(range(fresh_base, fresh_base + fresh))
        rest = state[:index] + state[index + 1:]
        if merges:
            substitution = {
                var_of_local[lid]: image[code] if code >= 0 else code
                for lid, code in merges
            }
            get = substitution.get
            rest = tuple(
                (a[0],) + tuple(get(code, code) for code in a[1:])
                for a in rest
            )
        new_atom = (relation,) + tuple(
            image[code] if code >= 0 else code for code in produced
        )
        return self._codec.canonical(rest + (new_atom,))

    def _expand(self, state: IntState) -> tuple[IntState, ...]:
        cached = self._expansions.get(state)
        if cached is not None:
            self._counters["expansions_reused"] += 1
            return cached
        canonical = self._codec.canonical
        successors = [canonical(merged) for merged in _factorizations(state)]
        occurrences: dict[int, int] = {}
        for a in state:
            for code in a[1:]:
                if code >= 0:
                    occurrences[code] = occurrences.get(code, 0) + 1
        # Fresh variables of a step get ids no state variable uses.
        fresh_base = max(occurrences) + 1 if occurrences else 0
        for index, a in enumerate(state):
            local_of: dict[int, int] = {}
            counts: list[int] = []
            pattern = []
            for code in a[1:]:
                if code >= 0:
                    lid = local_of.get(code)
                    if lid is None:
                        lid = local_of[code] = len(counts)
                        counts.append(1)
                    else:
                        counts[lid] += 1
                    code = lid
                pattern.append(code)
            shared = frozenset(
                lid
                for code, lid in local_of.items()
                if occurrences[code] > counts[lid]
            )
            steps = self._atom_steps(a[0], tuple(pattern), shared)
            if steps:
                var_of_local = list(local_of)
                for step in steps:
                    successors.append(
                        self._apply(
                            state, index, step, var_of_local, fresh_base
                        )
                    )
        result = tuple(dict.fromkeys(successors))
        self._expansions[state] = result
        self._counters["expansions_built"] += 1
        return result

    # ------------------------------------------------------------------
    # Deterministic, isomorphism-deduplicated emission
    # ------------------------------------------------------------------
    def _emit(
        self, states: Iterable[IntState], budget: Optional[Budget] = None
    ) -> tuple[State, ...]:
        codec = self._codec
        ordered = sorted(states, key=codec.emission_key)
        buckets: dict[tuple, list[IntState]] = {}
        kept: list[IntState] = []
        matcher = self._matcher
        decode = codec.decode
        shape_key = codec.shape_key
        for state in ordered:
            if budget is not None:
                budget.tick()
            invariant = tuple(sorted(shape_key(a) for a in state))
            bucket = buckets.setdefault(invariant, [])
            # States alone in their shape bucket are never decoded here.
            if bucket:
                atoms = decode(state)
                if any(
                    matcher.is_isomorphic(atoms, decode(other))
                    for other in bucket
                ):
                    self._counters["disjuncts_deduped"] += 1
                    continue
            bucket.append(state)
            kept.append(state)
        if self._subsumption:
            kept = self._prune_subsumed(kept, budget)
        self._counters["disjuncts_emitted"] += len(kept)
        return tuple(codec.decode(state) for state in kept)

    def _prune_subsumed(
        self, ordered: list[IntState], budget: Optional[Budget] = None
    ) -> list[IntState]:
        """Drop disjuncts hom-implied by a smaller kept disjunct.

        A homomorphism p → CanonDB(q) means q ⊨ p, so any instance
        satisfying q already satisfies p and q adds nothing to the
        union: completeness of the rewriting is preserved.  States
        arrive smallest-first, so kept disjuncts only ever subsume
        later (larger-or-equal) ones — deterministic output.

        The pass is quadratic in the disjunct count, so three things
        keep it cheap on wide rewritings: a homomorphism preserves
        relations and constants, so a kept disjunct whose relation set
        (or rigid-term set) is not contained in the candidate's cannot
        map into it — checked on int frozensets before any search; a
        candidate is decoded and frozen only once some kept disjunct
        passes those filters (most never do); and each kept disjunct's
        match plan is fetched once and reused across every candidate it
        is probed against.
        """
        matcher = self._matcher
        decode = self._codec.decode
        kept: list[IntState] = []
        kept_relations: list[frozenset] = []
        kept_constants: list[frozenset] = []
        #: per kept state: None until first searched, then its decoded
        #: atoms and match plan.
        kept_plans: list = []
        for state in ordered:
            if budget is not None:
                budget.tick()
            state_relations = frozenset(a[0] for a in state)
            state_constants = frozenset(
                code for a in state for code in a[1:] if code < 0
            )
            frozen = None
            subsumed = False
            # Kept states are never larger (emission order is by size),
            # so only the relation and constant filters apply.
            candidates = compress(
                range(len(kept)),
                map(state_relations.issuperset, kept_relations),
            )
            for index in candidates:
                if not kept_constants[index] <= state_constants:
                    continue
                self._counters["subsumption_checks"] += 1
                if frozen is None:
                    frozen, __ = freeze_atoms(decode(state))
                entry = kept_plans[index]
                if entry is None:
                    atoms = decode(kept[index])
                    entry = kept_plans[index] = (
                        atoms,
                        matcher.plan_for(atoms, frozen),
                    )
                atoms, plan = entry
                if matcher.maps_into(atoms, frozen, plan=plan):
                    subsumed = True
                    break
            if subsumed:
                self._counters["disjuncts_subsumed"] += 1
                continue
            kept.append(state)
            kept_relations.append(state_relations)
            kept_constants.append(state_constants)
            kept_plans.append(None)
        return kept

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def rewrite(
        self,
        query: ConjunctiveQuery,
        *,
        max_disjuncts: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> UnionOfConjunctiveQueries:
        """Perfect UCQ rewriting of a Boolean CQ under the engine's rules.

        Every disjunct q of the result satisfies q ⊨Σ query, and the
        union is complete: for any instance I, ``chase(I, Σ) ⊨ query``
        iff I satisfies some disjunct.  Disjuncts are deduplicated by
        isomorphism class and emitted in a deterministic order.  Raises
        `RewritingBudgetExceeded` past the disjunct budget.

        ``budget`` is checked once per expansion step (each state popped
        off the BFS queue) and ticked through the emission/pruning
        passes; `repro.runtime.DeadlineExceeded` propagates *before*
        the result memo is written, so an aborted rewrite leaves only
        complete artifacts behind (``_expansions`` entries are whole
        per-state expansions — valid regardless of which rewrite built
        them).

        Once a rewrite, finished or aborted, leaves more than
        `MEMO_LIMIT` cached expansions, the engine drops its memo
        generation; later queries rebuild what they need, with
        identical output.
        """
        if query.free_variables:
            raise RewritingError("rewriting is implemented for Boolean CQs")
        limit = self.max_disjuncts if max_disjuncts is None else max_disjuncts
        with stage("rewrite"), self._lock:
            try:
                disjuncts = self._rewrite_locked(query, limit, budget)
            finally:
                if len(self._expansions) > MEMO_LIMIT:
                    self._new_generation()
                    self._counters["generations_dropped"] += 1
        return UnionOfConjunctiveQueries(
            tuple(
                ConjunctiveQuery(atoms, (), f"{query.name}_rw{i}")
                for i, atoms in enumerate(disjuncts)
            ),
            name=f"{query.name}_rewriting",
        )

    def _rewrite_locked(
        self,
        query: ConjunctiveQuery,
        limit: int,
        budget: Optional[Budget],
    ) -> tuple[State, ...]:
        """The emitted disjuncts of ``query`` (memo, durable tier or
        BFS); the caller holds the engine lock."""
        self._counters["rewrites"] += 1
        codec = self._codec
        start = codec.canonical(codec.encode(query.atoms))
        cached = self._results.get(start)
        if cached is None and self._store is not None:
            cached = self._load_persisted(codec.decode(start))
            if cached is not None:
                self._results[start] = cached
                self._counters["persisted_loads"] += 1
        if cached is not None:
            frontier_size, disjuncts = cached
            self._counters["result_hits"] += 1
            if frontier_size > limit:
                raise RewritingBudgetExceeded(limit, limit + 1)
        else:
            seen = {start}
            frontier = [start]
            queue = [start]
            while queue:
                if budget is not None:
                    budget.check()
                for successor in self._expand(queue.pop()):
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
                        queue.append(successor)
                        if len(frontier) > limit:
                            raise RewritingBudgetExceeded(
                                limit, len(frontier)
                            )
            self._counters["states"] += len(frontier)
            disjuncts = self._emit(frontier, budget)
            self._results[start] = (len(frontier), disjuncts)
            if self._store is not None:
                self._persist_result(
                    codec.decode(start), len(frontier), disjuncts
                )
        return disjuncts

    def stats(self) -> dict:
        """Cache-traffic counters (cross-query reuse shows up here)."""
        with self._lock:
            return {
                "rules": len(self.rules),
                "cached_results": len(self._results),
                "cached_states": len(self._expansions),
                "cached_atom_patterns": len(self._steps),
                **self._counters,
            }

    def __repr__(self) -> str:
        return (
            f"RewriteEngine({len(self.rules)} rules, "
            f"{len(self._expansions)} states cached)"
        )


# ----------------------------------------------------------------------
# Free-function wrappers (compile on the fly)
# ----------------------------------------------------------------------
def rewrite(
    query: ConjunctiveQuery,
    rules: Sequence[TGD],
    *,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    subsumption: bool = False,
) -> UnionOfConjunctiveQueries:
    """Perfect UCQ rewriting of a Boolean CQ under single-head linear TGDs.

    A thin wrapper constructing a throwaway `RewriteEngine`; callers
    rewriting many queries over one rule set should hold an engine (or a
    `repro.service.CompiledSchema`, which owns one per fingerprint) to
    share the memoized steps.  ``subsumption=True`` additionally drops
    disjuncts hom-implied by smaller ones (logically equivalent, smaller
    output).
    """
    engine = RewriteEngine(
        rules, max_disjuncts=max_disjuncts, subsumption=subsumption
    )
    return engine.rewrite(query)


def linear_contains(
    query: ConjunctiveQuery,
    target: ConjunctiveQuery,
    rules: Sequence[TGD],
    *,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    engine: Optional[RewriteEngine] = None,
) -> Decision:
    """Decide ``query ⊆Σ target`` for single-head linear TGDs Σ.

    Complete and terminating (up to the disjunct safety valve).  Pass an
    ``engine`` over the same rules to share rewriting work across calls.
    """
    try:
        if engine is None:
            engine = RewriteEngine(rules, max_disjuncts=max_disjuncts)
        rewriting = engine.rewrite(target, max_disjuncts=max_disjuncts)
    except RewritingBudgetExceeded as error:
        return Decision.unknown(str(error), error=error.as_detail())
    except RewritingError as error:
        return Decision.unknown(str(error))
    canonical, __ = query.canonical_instance()
    for disjunct in rewriting.disjuncts:
        if probe_once(disjunct.atoms, canonical):
            return Decision.yes(
                f"rewriting disjunct {disjunct.name} matches the canonical "
                "database",
                certificate=disjunct,
                disjuncts=len(rewriting.disjuncts),
            )
    return Decision.no(
        "no disjunct of the complete UCQ rewriting matches",
        disjuncts=len(rewriting.disjuncts),
    )
