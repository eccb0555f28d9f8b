"""Plan-free probes: `probe_once` ≡ the naive reference search.

`probe_once` answers one-shot existence checks with a greedy int-space
search that compiles no plan.  It must give exactly the boolean of
`NaiveMatcher.has` on every atom set and instance: joins, repeated variables, constants, rigid nulls,
terms and relations the instance has never seen, and instances with
discarded facts.  A seeded sample runs in tier 1, the wide sweep is
marked ``slow``.
"""

import random

import pytest

from repro.data import Instance
from repro.logic import Atom, Constant, Null, Variable
from repro.matching import Matcher, NaiveMatcher, probe_once
from repro.runtime import Budget, DeadlineExceeded

RELATIONS = {"R": 2, "S": 2, "T": 1, "U": 3}


def _random_instance(rng: random.Random) -> Instance:
    terms = [Constant(f"c{i}") for i in range(rng.randint(2, 4))]
    terms += [Null(f"n{i}") for i in range(rng.randint(0, 2))]
    instance = Instance()
    for __ in range(rng.randint(0, 24)):
        relation = rng.choice(list(RELATIONS))
        instance.add(
            Atom(
                relation,
                tuple(rng.choice(terms) for __ in range(RELATIONS[relation])),
            )
        )
    # Discards leave emptied index buckets behind.
    for fact in list(instance):
        if rng.random() < 0.15:
            instance.discard(fact)
    return instance


def _random_atoms(rng: random.Random) -> tuple[Atom, ...]:
    variables = [Variable(f"x{i}") for i in range(4)]
    rigid = [Constant(f"c{i}") for i in range(6)] + [Null("n0"), Null("m")]
    atoms = []
    for __ in range(rng.randint(0, 4)):
        relation = (
            "Absent" if rng.random() < 0.05 else rng.choice(list(RELATIONS))
        )
        arity = RELATIONS.get(relation, 2)
        atoms.append(
            Atom(
                relation,
                tuple(
                    rng.choice(variables)
                    if rng.random() < 0.8
                    else rng.choice(rigid)
                    for __ in range(arity)
                ),
            )
        )
    return tuple(atoms)


def _check(rng: random.Random) -> None:
    instance = _random_instance(rng)
    atoms = _random_atoms(rng)
    expected = NaiveMatcher().has(atoms, instance)
    assert probe_once(atoms, instance) is expected, (atoms, instance)


def test_probe_matches_naive_seeded_sample():
    rng = random.Random(20260413)
    for __ in range(400):
        _check(rng)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20))
def test_probe_matches_naive_sweep(seed):
    rng = random.Random(seed)
    for __ in range(1000):
        _check(rng)


class TestEdges:
    def setup_method(self):
        c1, c2 = Constant(1), Constant(2)
        self.instance = Instance(
            [Atom("R", (c1, c2)), Atom("R", (c2, c2)), Atom("T", (c1,))]
        )

    def test_empty_body_holds(self):
        assert probe_once((), self.instance)

    def test_repeated_variable(self):
        x = Variable("x")
        assert probe_once((Atom("R", (x, x)),), self.instance)
        assert not probe_once(
            (Atom("R", (x, x)), Atom("T", (x,))), self.instance
        )

    def test_unknown_constant_and_relation_fail(self):
        x = Variable("x")
        assert not probe_once((Atom("R", (x, Constant(9))),), self.instance)
        assert not probe_once((Atom("Absent", (x,)),), self.instance)

    def test_join_across_atoms(self):
        x, y = Variable("x"), Variable("y")
        assert probe_once(
            (Atom("T", (x,)), Atom("R", (x, y)), Atom("R", (y, y))),
            self.instance,
        )

    def test_mixed_arity_rows_are_skipped(self):
        self.instance.add(Atom("T", (Constant(1), Constant(2))))
        x, y = Variable("x"), Variable("y")
        assert probe_once((Atom("T", (x, y)),), self.instance)
        assert not probe_once(
            (Atom("T", (x, y)), Atom("T", (y,))), self.instance
        )

    def test_budget_is_ticked(self):
        budget = Budget()
        budget.cancel("test")
        with pytest.raises(DeadlineExceeded):
            probe_once(
                (Atom("R", (Variable("x"), Variable("y"))),),
                self.instance,
                budget=budget,
            )

    def test_matcher_probe_counts_and_compiles_nothing(self):
        matcher = Matcher()
        x = Variable("x")
        assert matcher.probe((Atom("T", (x,)),), self.instance)
        assert not matcher.probe(
            (Atom("R", (x, x)), Atom("T", (x,))), self.instance
        )
        stats = matcher.stats()
        assert stats["probes"] == 2
        assert stats["plans_compiled"] == 0
        assert stats["plans_cached"] == 0
        assert stats["checks"] == 0
        assert not self.instance.match_cache
