"""Seeded inputs for the three workloads.

The seed renames relations and methods, picks query constants, orders
the corpus and drives the request streams.  It never changes a family's
size, so the cost mix of a run is the same for every seed while the
program still sees inputs it has not seen before.

Schemas and queries come from `repro.workloads.generators`, whose
``expected_answerable`` is the ground truth of `decide-cold`.  They are
handed to the program in their wire form: a JSON schema dict and a
query text with quoted constants.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from repro.io import schema_to_dict
from repro.logic.terms import Constant, Variable
from repro.workloads import generators as gen


@dataclass
class Case:
    """One schema of a corpus and the queries asked of it."""

    family: str
    schema: dict
    #: ``(query text, expected answerability or None when unknown)``.
    queries: list = field(default_factory=list)

    @property
    def key(self) -> str:
        return json.dumps(self.schema, sort_keys=True)


def _term_text(term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return repr(value)
        return "'" + str(value) + "'"
    raise TypeError(f"unexpected query term {term!r}")


class Renamer:
    """Seeded renaming of relation and method names."""

    def __init__(self, rng: random.Random) -> None:
        letters = string.ascii_lowercase
        self.suffix = "_" + "".join(rng.choice(letters) for __ in range(4))

    def schema(self, schema) -> tuple[dict, dict]:
        description = schema_to_dict(schema)
        names = {name: name + self.suffix for name in description["relations"]}
        pattern = re.compile(
            r"\b(" + "|".join(map(re.escape, sorted(names, key=len, reverse=True))) + r")\b"
        )
        renamed = {
            "relations": {names[k]: v for k, v in description["relations"].items()},
            "methods": [
                {
                    **method,
                    "name": method["name"] + self.suffix,
                    "relation": names[method["relation"]],
                }
                for method in description.get("methods", [])
            ],
            "constraints": [
                pattern.sub(lambda m: names[m.group(1)], text)
                for text in description.get("constraints", [])
            ],
        }
        return renamed, names

    @staticmethod
    def query(query, names: dict, constants: Optional[dict] = None) -> str:
        constants = constants or {}
        atoms = []
        for a in query.atoms:
            terms = []
            for t in a.terms:
                if isinstance(t, Constant) and t.value in constants:
                    t = Constant(constants[t.value])
                terms.append(_term_text(t))
            atoms.append(f"{names[a.relation]}({', '.join(terms)})")
        return ", ".join(atoms)


def _token(rng: random.Random, prefix: str) -> str:
    return prefix + "".join(rng.choice(string.ascii_lowercase) for __ in range(5))


def _case(renamer: Renamer, family: str, variants, constants=None) -> Case:
    """One schema asked every variant's query.  All variants must share
    their schema (the generators vary only the query)."""
    schema, names = renamer.schema(variants[0].schema)
    case = Case(family, schema)
    for workload in variants:
        if renamer.schema(workload.schema)[0] != schema:
            raise ValueError(f"{family}: variants disagree on the schema")
        case.queries.append(
            (
                Renamer.query(workload.query, names, constants),
                workload.expected_answerable,
            )
        )
    return case


def table1_corpus(seed: int) -> list[Case]:
    """The `decide-cold` corpus: one family per Table-1 fragment.

    Sizes are fixed; see the README for the per-decide cost of each.
    """
    rng = random.Random(seed)
    renamer = Renamer(rng)
    cases: list[Case] = []
    for m in (2, 4):
        fd_constants = {"k": _token(rng, "k"), **{f"d{i}": _token(rng, "d") for i in range(m)}}
        fd_constants["extra"] = _token(rng, "e")
        cases.append(
            _case(
                renamer,
                "fd-determinacy",
                [
                    gen.fd_determinacy_workload(m),
                    gen.fd_determinacy_workload(m, ask_undetermined=True),
                ],
                fd_constants,
            )
        )
    uid_constants = {7: rng.randrange(10, 10_000), "d0": _token(rng, "d")}
    for departments, with_fd in ((4, True), (4, False), (8, True)):
        cases.append(
            _case(
                renamer,
                "uid-fd",
                [gen.uid_fd_workload(departments, with_fd=with_fd)],
                uid_constants,
            )
        )
    cases.append(
        _case(
            renamer,
            "id-chain",
            [gen.id_chain_workload(8, query_index=i) for i in (0, 4, 8)],
        )
    )
    for width, bounded in ((2, True), (3, True), (2, False)):
        cases.append(
            _case(renamer, "id-width", [gen.id_width_workload(width, bounded=bounded)])
        )
    for n in (2, 4, 6, 8):
        cases.append(
            _case(
                renamer,
                "lookup-chain-bounded",
                [gen.lookup_chain_workload(n, dump_bound=2)],
            )
        )
    for n in (2, 3, 4):
        cases.append(
            _case(renamer, "lookup-chain-unbounded", [gen.lookup_chain_workload(n)])
        )
    for sources in (2, 4, 8):
        cases.append(
            _case(renamer, "tgd-transfer", [gen.tgd_transfer_workload(sources)])
        )
    rng.shuffle(cases)
    return cases


# ----------------------------------------------------------------------
# Serving workloads: cheap schemas whose queries take a fresh constant
# ----------------------------------------------------------------------
@dataclass
class Template:
    """A schema plus query shapes with one ``{c}`` constant slot."""

    family: str
    schema: dict
    shapes: list

    def query(self, shape: int, constant: str) -> str:
        return self.shapes[shape].replace("{c}", constant)


FAMILIES = ("fd-determinacy", "uid-fd", "tgd-transfer", "id-chain")


def _templates(rng: random.Random, count: int) -> list[Template]:
    """``count`` small schemas cycling through four cheap families;
    each schema's relation names carry their own seeded suffix, so no
    two share a fingerprint."""
    builders = [
        lambda i: gen.fd_determinacy_workload(1 + i % 3),
        lambda i: gen.uid_fd_workload(2 + i % 3),
        lambda i: gen.tgd_transfer_workload(1 + i % 3),
        lambda i: gen.id_chain_workload(2 + i % 3),
    ]
    templates = []
    for i in range(count):
        workload = builders[i % len(builders)](i // len(builders))
        renamer = Renamer(rng)
        schema, names = renamer.schema(workload.schema)
        family = i % len(builders)
        if family == 0:
            arity = schema["relations"][names["R"]]
            body = ", ".join(["'{c}'"] + ["'d'"] * (arity - 2))
            shapes = [
                f"{names['R']}({body}, free_extra)",
                f"{names['R']}({body}, 'x')",
            ]
        elif family == 1:
            shapes = [
                f"{names['Person']}('{{c}}', 'd0')",
                f"{names['Person']}('{{c}}', dept), {names['Dept0']}(dept)",
            ]
        elif family == 2:
            shapes = [
                f"{names['T']}('{{c}}')",
                f"{names['T']}(y), {names['S0']}('{{c}}')",
            ]
        else:
            top = max(int(n[1:]) for n in names if n.startswith("R"))
            shapes = [
                f"{names['R0']}('{{c}}')",
                f"{names[f'R{top}']}('{{c}}'), {names['R0']}(x)",
            ]
        templates.append(Template(FAMILIES[family], schema, shapes))
    return templates


@dataclass
class Frame:
    kind: str  # "decide" or "ping"
    schema: Optional[dict]
    query: str
    #: Hot frames repeat; fresh frames carry a never-seen constant.
    fresh: bool = False

    @property
    def key(self) -> tuple:
        return (json.dumps(self.schema, sort_keys=True), self.query)

    @cached_property
    def wire(self) -> bytes:
        """The encoded frame minus its opening brace and request id,
        which the client prepends."""
        if self.kind == "ping":
            return b'"op": "ping"}\n'
        text = json.dumps({"query": self.query, "schema": self.schema})
        return text[1:].encode("utf-8") + b"\n"


@dataclass
class ServingMix:
    """A seeded request mix over a schema set."""

    hot: list  # distinct hot decide frames, Zipf rank order
    #: ``(template, shape)`` pairs the never-seen queries cycle through.
    fresh_classes: list
    ping_share: float
    fresh_share: float
    zipf_s: float
    seed: int

    def stream(self, salt: str = "") -> Iterator[Frame]:
        """The endless seeded frame stream (the same for one seed)."""
        rng = random.Random(f"{self.seed}/stream/{salt}")
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(len(self.hot))]
        ping = Frame("ping", None, "")
        fresh = 0
        hot_cum = []
        total = 0.0
        for w in weights:
            total += w
            hot_cum.append(total)
        while True:
            draw = rng.random()
            if draw < self.ping_share:
                yield ping
            elif draw < self.ping_share + self.fresh_share:
                # Never-seen queries cycle through their classes in
                # turn, so each run gets the same mix of their costs.
                template, shape = self.fresh_classes[fresh % len(self.fresh_classes)]
                fresh += 1
                constant = f"n{self.seed}_{salt}{fresh}"
                yield Frame("decide", template.schema, template.query(shape, constant), True)
            else:
                yield self.hot[_bisect(hot_cum, rng.random() * total)]


def _bisect(cumulative: list, value: float) -> int:
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def serving_mix(
    seed: int,
    *,
    schemas: int,
    constants_per_shape: int,
    ping_share: float,
    fresh_share: float,
    zipf_s: float,
    fresh_from: Optional[tuple] = None,
) -> ServingMix:
    """Hot frames in Zipf rank order.  Rank ``r`` belongs to schema
    ``r % schemas`` for every seed (the seed only picks which of that
    schema's frames takes the rank), so each schema carries the same
    share of the traffic whatever the seed.  Never-seen queries use
    every shape of every schema, or only the ``(family, shape)`` pairs
    in ``fresh_from``."""
    rng = random.Random(f"{seed}/mix")
    templates = _templates(rng, schemas)
    per_schema = []
    for template in templates:
        frames = [
            Frame("decide", template.schema, template.query(shape, _token(rng, "h")))
            for shape in range(len(template.shapes))
            for __ in range(constants_per_shape)
        ]
        rng.shuffle(frames)
        per_schema.append(frames)
    hot = [frame for rank in zip(*per_schema) for frame in rank]
    fresh_classes = [
        (template, shape)
        for shape in range(2)
        for template in templates
        if fresh_from is None or (template.family, shape) in fresh_from
    ]
    return ServingMix(hot, fresh_classes, ping_share, fresh_share, zipf_s, seed)
