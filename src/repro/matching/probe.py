"""Plan-free existence probes: a greedy int-space search for one-shot checks.

`Matcher.has` compiles a `MatchPlan` per atom-set shape and caches it,
which pays off when a shape recurs.  Some callers probe many distinct
bodies exactly once each — the ID route tests every disjunct of a
rewriting against one canonical database, and the disjuncts are
pairwise non-isomorphic, so a compiled plan is almost never reused.
`probe_once` answers those checks without a plan:

* each atom is encoded against the instance's interner once (rigid
  terms to their ids, variables to slot numbers); an atom whose
  relation is empty or whose rigid term never occurs fails the probe
  before any search;
* the search is greedy: at every depth it takes the pending atom with
  the smallest candidate bucket under the current bindings (the most
  selective ``(position, value)`` column of the instance's int view),
  so the join order adapts to the data as bindings accrue;
* nothing is cached — not on the matcher, not on the instance.

The result is the same boolean as ``Matcher.has(atoms, instance)``
(variables bind to any term, constants and nulls in the atoms are
rigid); `tests/answerability/test_disjunct_probes.py` cross-checks it
against `NaiveMatcher`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..data.instance import Instance
from ..logic.atoms import Atom
from ..logic.terms import Term, Variable
from ..runtime import Budget

#: One encoded atom: (arity, rigid (position, id) pairs, variable
#: (position, slot) pairs, narrowest rigid candidate bucket, columns).
_Spec = tuple


def probe_once(
    atoms: Sequence[Atom],
    instance: Instance,
    *,
    budget: Optional[Budget] = None,
) -> bool:
    """Does some homomorphism map `atoms` into `instance`?

    ``budget`` is ticked once per candidate row tried, like the planned
    executors.
    """
    term_id = instance.term_id
    slot_of: dict[Term, int] = {}
    pending: list[_Spec] = []
    for a in dict.fromkeys(atoms):
        rows, cols = instance.int_view(a.relation)
        if not rows:
            return False
        rigid = []
        variables = []
        for position, term in enumerate(a.terms):
            if isinstance(term, Variable):
                slot = slot_of.get(term)
                if slot is None:
                    slot = slot_of[term] = len(slot_of)
                variables.append((position, slot))
            else:
                value = term_id(term)
                if value < 0:
                    return False
                rigid.append((position, value))
        bucket = rows
        for position, value in rigid:
            column = cols.get((position, value))
            if not column:
                return False
            if len(column) < len(bucket):
                bucket = column
        pending.append(
            (len(a.terms), tuple(rigid), tuple(variables), bucket, cols)
        )
    return _search(pending, [-1] * len(slot_of), budget)


def _search(
    pending: list[_Spec], slots: list[int], budget: Optional[Budget]
) -> bool:
    if not pending:
        return True
    # Greedy choice: the pending atom with the fewest candidates now.
    best = 0
    best_rows = None
    best_size = -1
    for index, (__, __, variables, rows, cols) in enumerate(pending):
        size = len(rows)
        for position, slot in variables:
            value = slots[slot]
            if value >= 0:
                column = cols.get((position, value))
                if not column:
                    return False
                if len(column) < size:
                    rows = column
                    size = len(column)
        if best_rows is None or size < best_size:
            best, best_rows, best_size = index, rows, size
            if size <= 1:
                break
    arity, rigid, variables, __, __ = pending[best]
    rest = pending[:best] + pending[best + 1:]
    for row in best_rows:
        if budget is not None:
            budget.tick()
        if len(row) != arity:
            continue
        ok = True
        for position, value in rigid:
            if row[position] != value:
                ok = False
                break
        if not ok:
            continue
        newly: list[int] = []
        for position, slot in variables:
            value = row[position]
            current = slots[slot]
            if current < 0:
                slots[slot] = value
                newly.append(slot)
            elif current != value:
                ok = False
                break
        if ok and _search(rest, slots, budget):
            return True
        for slot in newly:
            slots[slot] = -1
    return False
