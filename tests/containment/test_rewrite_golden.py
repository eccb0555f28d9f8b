"""Golden rewriting output: the byte-identity check of the rewrite engine.

Every rewriting family of the ``decide-cold`` corpus is rewritten the
way the ID route does it (a fresh `compile_schema`, the compiled
schema's `RewriteEngine`, the primed query), with subsumption pruning
both off and on.  For each query the table pins:

* the frontier size (the engine's ``stats()["states"]`` delta);
* ``codec.state_key`` of the canonical start state (the persisted
  ``rewrite`` key);
* the emitted disjunct texts in order: their count, the SHA-256 of the
  newline-joined texts (``;``-joined atom reprs per disjunct), and the
  first and last text verbatim.

The values were recorded from the object-space engine that predates
the int-space states.  Any change to the canonical form, the frontier,
the emission order or the pruning shows up here as a mismatch.
"""

import hashlib

import pytest

from repro.answerability.axioms import prime_query
from repro.cache import codec
from repro.containment import rewriting
from repro.containment.rewriting import canonical_state
from repro.service import compile_schema
from repro.workloads import generators as gen


def families():
    """Family name -> workloads sharing one schema (one query each)."""
    table = {}
    for n in (2, 4, 6, 8):
        table[f"lookup-chain-bounded-{n}"] = [
            gen.lookup_chain_workload(n, dump_bound=2)
        ]
    for n in (2, 3, 4):
        table[f"lookup-chain-unbounded-{n}"] = [gen.lookup_chain_workload(n)]
    table["id-chain-8"] = [
        gen.id_chain_workload(8, query_index=i) for i in (0, 4, 8)
    ]
    for width in (2, 3):
        table[f"id-width-{width}"] = [gen.id_width_workload(width)]
    return table


#: "<family>/<raw|sub>" -> one entry per query, in query order:
#: (states, start state_key, disjunct count, sha256 of the texts,
#:  first text, last text).
GOLDEN = {
    'id-chain-8/raw': (
        (
            3,
            'f037ba991d6817d3c6bf5e278091789e75da33c02e1d8450e546716b5dfbb2e2',
            3,
            '887c0e709561c3d91ed2b7f1eb767dbbd812e20004aedaecbbebc90f1abb68f1',
            'R0__acc_(_q0)',
            'R0__prime(_q0)',
        ),
        (
            15,
            'fce6a2d6a99b59d512b263d30e8c4a1861b93bb47f0e7d9beb7c42c4aebd0219',
            15,
            '2be24d7c28bf4f9d32fc4f9668f38e58a66625cb632d67e6dd071a3314e705ac',
            'R0__acc_(_q0)',
            'R4__prime(_q0)',
        ),
        (
            27,
            'ce74e1941c4543070773584d63d38aabb6f3c669285729db1ba2e2608b7f34fe',
            27,
            'be53f93030412c01cb07753de0291fe90a9cb05c3bb5bea19710569e062a8537',
            'R0__acc_(_q0)',
            'R8__prime(_q0)',
        ),
    ),
    'id-chain-8/sub': (
        (
            3,
            'f037ba991d6817d3c6bf5e278091789e75da33c02e1d8450e546716b5dfbb2e2',
            3,
            '887c0e709561c3d91ed2b7f1eb767dbbd812e20004aedaecbbebc90f1abb68f1',
            'R0__acc_(_q0)',
            'R0__prime(_q0)',
        ),
        (
            15,
            'fce6a2d6a99b59d512b263d30e8c4a1861b93bb47f0e7d9beb7c42c4aebd0219',
            15,
            '2be24d7c28bf4f9d32fc4f9668f38e58a66625cb632d67e6dd071a3314e705ac',
            'R0__acc_(_q0)',
            'R4__prime(_q0)',
        ),
        (
            27,
            'ce74e1941c4543070773584d63d38aabb6f3c669285729db1ba2e2608b7f34fe',
            27,
            'be53f93030412c01cb07753de0291fe90a9cb05c3bb5bea19710569e062a8537',
            'R0__acc_(_q0)',
            'R8__prime(_q0)',
        ),
    ),
    'id-width-2/raw': (
        (
            8,
            '9763e0aa1b2912727eb515f3bcc748f20c4b877813173192705281948ad4d31b',
            8,
            'ba57b8c8a02f75892c8c644dc3b55b1ebf82bd83ca13208cb894ea884483e8e3',
            'A__acc_(_q0, _q1)',
            'A__prime(_q0, _q1);B__prime(_q0, _q1, _q2)',
        ),
    ),
    'id-width-2/sub': (
        (
            8,
            '9763e0aa1b2912727eb515f3bcc748f20c4b877813173192705281948ad4d31b',
            5,
            '8ecd84fe86b062ce33c3688a7f2524b81e1081d4b0e3e23c8b8f87f9930b6739',
            'A__acc_(_q0, _q1)',
            'A__prime(_q0, _q1)',
        ),
    ),
    'id-width-3/raw': (
        (
            12,
            '566ff002c70d696034dabf86744576fa6f645682a18b3c5fb98f849a1b52d990',
            12,
            '22e4c7938615e0be93eeb9854ece4ba12e266bc1a882ab26efdd3c82a022b064',
            'A__acc_(_q0, _q1, _q2)',
            'A__prime(_q0, _q1, _q2);B__prime(_q0, _q1, _q2, _q3)',
        ),
    ),
    'id-width-3/sub': (
        (
            12,
            '566ff002c70d696034dabf86744576fa6f645682a18b3c5fb98f849a1b52d990',
            9,
            '4c3f80ad7e1b2564c333f3ca0fa843d3db02885ddfc48b6bf42e17dc9e1341d2',
            'A__acc_(_q0, _q1, _q2)',
            'A__prime(_q0, _q1, _q2)',
        ),
    ),
    'lookup-chain-bounded-2/raw': (
        (
            4,
            'a08512414ef541dfc32c7def00d02bd11df32b5ef469d4ace976251b805d7a76',
            4,
            '2bec9f0e9d2915de00810da8bd6eae6ce4da0a1b0ef1da1d1e0d52043860b020',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2)',
        ),
    ),
    'lookup-chain-bounded-2/sub': (
        (
            4,
            'a08512414ef541dfc32c7def00d02bd11df32b5ef469d4ace976251b805d7a76',
            4,
            '2bec9f0e9d2915de00810da8bd6eae6ce4da0a1b0ef1da1d1e0d52043860b020',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2)',
        ),
    ),
    'lookup-chain-bounded-4/raw': (
        (
            16,
            '5b3d5fd3c7f66d18575044f59d8819f592ee25467f6cf974b879c3aab30b76a3',
            16,
            '31ea21ef32c18b27611101c88e838b24de5faaecd8b081d9b99b83183cdeb140',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2);L2__acc_0(_q0, _q3);L3__acc_0(_q0, _q4)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4)',
        ),
    ),
    'lookup-chain-bounded-4/sub': (
        (
            16,
            '5b3d5fd3c7f66d18575044f59d8819f592ee25467f6cf974b879c3aab30b76a3',
            16,
            '31ea21ef32c18b27611101c88e838b24de5faaecd8b081d9b99b83183cdeb140',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2);L2__acc_0(_q0, _q3);L3__acc_0(_q0, _q4)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4)',
        ),
    ),
    'lookup-chain-bounded-6/raw': (
        (
            64,
            '566f74dbf9e482aa64a71c1415c680e48f9c5d623cc1806c5e9bb957b64d6e9e',
            64,
            '48c84e69f03c98c2405679f2968417107ab635b0f13631bf029f968ddb86e5aa',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2);L2__acc_0(_q0, _q3);L3__acc_0(_q0, _q4);L4__acc_0(_q0, _q5);L5__acc_0(_q0, _q6)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4);L4__prime(_q0, _q5);L5__prime(_q0, _q6)',
        ),
    ),
    'lookup-chain-bounded-6/sub': (
        (
            64,
            '566f74dbf9e482aa64a71c1415c680e48f9c5d623cc1806c5e9bb957b64d6e9e',
            64,
            '48c84e69f03c98c2405679f2968417107ab635b0f13631bf029f968ddb86e5aa',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2);L2__acc_0(_q0, _q3);L3__acc_0(_q0, _q4);L4__acc_0(_q0, _q5);L5__acc_0(_q0, _q6)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4);L4__prime(_q0, _q5);L5__prime(_q0, _q6)',
        ),
    ),
    'lookup-chain-bounded-8/raw': (
        (
            256,
            '964a66b1775e22ce2e763846dd927ca0f9a02c400922011ee42271833ed45853',
            256,
            '1042569943bc68cace2fb1a86a090dc75a2a563bb4c366a7b98aaa08ac482ea3',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2);L2__acc_0(_q0, _q3);L3__acc_0(_q0, _q4);L4__acc_0(_q0, _q5);L5__acc_0(_q0, _q6);L6__acc_0(_q0, _q7);L7__acc_0(_q0, _q8)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4);L4__prime(_q0, _q5);L5__prime(_q0, _q6);L6__prime(_q0, _q7);L7__prime(_q0, _q8)',
        ),
    ),
    'lookup-chain-bounded-8/sub': (
        (
            256,
            '964a66b1775e22ce2e763846dd927ca0f9a02c400922011ee42271833ed45853',
            256,
            '1042569943bc68cace2fb1a86a090dc75a2a563bb4c366a7b98aaa08ac482ea3',
            'L0__acc_0(_q0, _q1);L1__acc_0(_q0, _q2);L2__acc_0(_q0, _q3);L3__acc_0(_q0, _q4);L4__acc_0(_q0, _q5);L5__acc_0(_q0, _q6);L6__acc_0(_q0, _q7);L7__acc_0(_q0, _q8)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4);L4__prime(_q0, _q5);L5__prime(_q0, _q6);L6__prime(_q0, _q7);L7__prime(_q0, _q8)',
        ),
    ),
    'lookup-chain-unbounded-2/raw': (
        (
            16,
            'a08512414ef541dfc32c7def00d02bd11df32b5ef469d4ace976251b805d7a76',
            16,
            'b1fbe9dc355f41ffcbc76ddfc0bacd7d38dd7004c142a0fc0e0dc7f2ed80fa68',
            'L0__acc_(_q0, _q1);L1__acc_(_q0, _q2)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2)',
        ),
    ),
    'lookup-chain-unbounded-2/sub': (
        (
            16,
            'a08512414ef541dfc32c7def00d02bd11df32b5ef469d4ace976251b805d7a76',
            16,
            'b1fbe9dc355f41ffcbc76ddfc0bacd7d38dd7004c142a0fc0e0dc7f2ed80fa68',
            'L0__acc_(_q0, _q1);L1__acc_(_q0, _q2)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2)',
        ),
    ),
    'lookup-chain-unbounded-3/raw': (
        (
            64,
            '3a87c7385fe3536c6c3f81e9598b2075dd1acc8f950c2fc475bf1358ffe71b9d',
            64,
            'a0f634e1df664cdf2fa43d2fd12fdaacce0b037794ff091b564c6db87fc43d11',
            'L0__acc_(_q0, _q1);L1__acc_(_q0, _q2);L2__acc_(_q0, _q3)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3)',
        ),
    ),
    'lookup-chain-unbounded-3/sub': (
        (
            64,
            '3a87c7385fe3536c6c3f81e9598b2075dd1acc8f950c2fc475bf1358ffe71b9d',
            64,
            'a0f634e1df664cdf2fa43d2fd12fdaacce0b037794ff091b564c6db87fc43d11',
            'L0__acc_(_q0, _q1);L1__acc_(_q0, _q2);L2__acc_(_q0, _q3)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3)',
        ),
    ),
    'lookup-chain-unbounded-4/raw': (
        (
            256,
            '5b3d5fd3c7f66d18575044f59d8819f592ee25467f6cf974b879c3aab30b76a3',
            256,
            '5000456bfa7d6bf827aa0a6951c57fd09b4f6c7baa9f2e3bb9287a01840d630d',
            'L0__acc_(_q0, _q1);L1__acc_(_q0, _q2);L2__acc_(_q0, _q3);L3__acc_(_q0, _q4)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4)',
        ),
    ),
    'lookup-chain-unbounded-4/sub': (
        (
            256,
            '5b3d5fd3c7f66d18575044f59d8819f592ee25467f6cf974b879c3aab30b76a3',
            256,
            '5000456bfa7d6bf827aa0a6951c57fd09b4f6c7baa9f2e3bb9287a01840d630d',
            'L0__acc_(_q0, _q1);L1__acc_(_q0, _q2);L2__acc_(_q0, _q3);L3__acc_(_q0, _q4)',
            'L0__prime(_q0, _q1);L1__prime(_q0, _q2);L2__prime(_q0, _q3);L3__prime(_q0, _q4)',
        ),
    ),
}


def disjunct_text(disjunct) -> str:
    return ";".join(repr(a) for a in disjunct.atoms)


def check_family(family: str, subsumption: bool) -> None:
    workloads = families()[family]
    engine = compile_schema(workloads[0].schema).rewrite_engine(
        subsumption=subsumption
    )
    expected = GOLDEN[f"{family}/{'sub' if subsumption else 'raw'}"]
    assert len(expected) == len(workloads)
    for workload, pinned in zip(workloads, expected):
        target = prime_query(workload.query)
        before = engine.stats()["states"]
        ucq = engine.rewrite(target)
        texts = [disjunct_text(d) for d in ucq.disjuncts]
        observed = (
            engine.stats()["states"] - before,
            codec.state_key(canonical_state(target.atoms)),
            len(texts),
            hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest(),
            texts[0],
            texts[-1],
        )
        assert observed == pinned, f"{family}: {workload.query}"


@pytest.mark.parametrize("subsumption", [False, True], ids=["raw", "sub"])
@pytest.mark.parametrize("family", sorted(families()))
def test_rewriting_matches_golden(family, subsumption):
    check_family(family, subsumption)


@pytest.mark.parametrize(
    "family,subsumption",
    [
        ("lookup-chain-bounded-4", False),
        ("id-width-3", True),
        ("id-chain-8", True),
    ],
)
def test_key_memo_clears_keep_the_output(monkeypatch, family, subsumption):
    # The codec's per-atom key memos are cleared wholesale at the limit;
    # with a tiny limit they clear on nearly every call.
    monkeypatch.setattr(rewriting, "KEY_MEMO_LIMIT", 3)
    check_family(family, subsumption)


@pytest.mark.parametrize("subsumption", [False, True], ids=["raw", "sub"])
@pytest.mark.parametrize("family", sorted(families()))
def test_memo_generation_drops_keep_the_output(
    monkeypatch, family, subsumption
):
    # With a one-expansion limit the engine drops its whole int-space
    # generation (codec, steps, expansions, results) after every
    # rewrite, so each later query of a family starts from scratch.
    monkeypatch.setattr(rewriting, "MEMO_LIMIT", 1)
    check_family(family, subsumption)
