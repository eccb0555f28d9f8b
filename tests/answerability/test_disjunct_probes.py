"""The ID route's disjunct probes: plan-free, and the same answers.

`decide_with_ids` tests every disjunct of the linearized rewriting
against the saturated canonical database.  The disjuncts are pairwise
non-isomorphic, so each is probed once through `Matcher.probe` (a
greedy int search) instead of `Matcher.has`, which would compile and
cache a plan per disjunct.  These tests pin both halves of that
change: the probe loop compiles no plan, and on every rewriting family
of the ``decide-cold`` corpus the decision and its certificate disjunct
are those of a probe loop over the naive reference search.
"""

import pytest

from repro.answerability.axioms import prime_query
from repro.answerability.deciders import decide_with_ids
from repro.matching import Matcher, NaiveMatcher
from repro.service import compile_schema
from repro.workloads import generators as gen


def corpus():
    """(family, workload) for every rewriting family of decide-cold."""
    cases = []
    for n in (2, 4, 6, 8):
        workload = gen.lookup_chain_workload(n, dump_bound=2)
        cases.append((f"lookup-chain-bounded-{n}", workload))
    for n in (2, 3, 4):
        workload = gen.lookup_chain_workload(n)
        cases.append((f"lookup-chain-unbounded-{n}", workload))
    for i in (0, 4, 8):
        workload = gen.id_chain_workload(8, query_index=i)
        cases.append((f"id-chain-8-q{i}", workload))
    for width in (2, 3):
        cases.append((f"id-width-{width}", gen.id_width_workload(width)))
    return cases


def test_probe_loop_compiles_no_plans(monkeypatch):
    workload = gen.lookup_chain_workload(8, dump_bound=2)
    compiled = compile_schema(workload.schema)
    matcher = compiled.matcher()
    calls = []
    original = Matcher.probe

    def spy(self, atoms, instance, **kwargs):
        before = self.stats()["plans_compiled"]
        result = original(self, atoms, instance, **kwargs)
        calls.append((self, before, self.stats()["plans_compiled"]))
        return result

    monkeypatch.setattr(Matcher, "probe", spy)
    decision = decide_with_ids(compiled, workload.query)
    assert decision.is_no
    # A NO probes every disjunct of the rewriting.
    assert len(calls) == decision.detail["disjuncts"] > 0
    assert all(owner is matcher for owner, __, __ in calls)
    first, last = calls[0][1], calls[-1][2]
    assert first == last, f"{last - first} plans compiled by the probes"
    assert matcher.stats()["probes"] == len(calls)


@pytest.mark.parametrize("subsumption", [True, False], ids=["sub", "raw"])
@pytest.mark.parametrize(
    "family,workload", corpus(), ids=[name for name, __ in corpus()]
)
def test_decision_and_certificate_match_naive_probes(
    family, workload, subsumption
):
    compiled = compile_schema(workload.schema)
    decision = decide_with_ids(
        compiled, workload.query, subsumption=subsumption
    )
    # The reference: the same rewriting and canonical database, probed
    # disjunct by disjunct with the naive backtracking search.
    start = compiled.linearization().initial_instance(workload.query)
    rewriting = compiled.rewrite_engine(subsumption=subsumption).rewrite(
        prime_query(workload.query)
    )
    naive = NaiveMatcher()
    certificate = next(
        (d for d in rewriting.disjuncts if naive.has(d.atoms, start)), None
    )
    assert decision.is_yes == (certificate is not None)
    assert decision.is_yes == workload.expected_answerable
    if certificate is None:
        assert decision.is_no
    else:
        assert decision.certificate.name == certificate.name
        assert decision.certificate.atoms == certificate.atoms
