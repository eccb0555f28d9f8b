"""The benchmark's own checks (not part of the program's test suite).

    python3 -m pytest e2ebench/tests -q

Later count-based claims rest on `test_decide_cold_counts_repeat`: two
traced `decide-cold` runs on one seed give exactly equal per-layer
counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import corpus, workloads  # noqa: E402

COUNTS = (
    "containment.states",
    "containment.canonical_states",
    "matching.checks",
    "matching.plans_compiled",
    "chase.calls",
    "service.compiles",
    "service.session_hit_ratio",
    "containment.expansion_reuse_ratio",
    "matching.plan_reuse_ratio",
)


def _run(*args: str) -> tuple[int, list]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def _traced_counts(seed: int) -> dict:
    code, lines = _run("--workload", "decide-cold", "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert code == 0, lines[-3:]
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def test_decide_cold_counts_repeat():
    first, second = _traced_counts(5), _traced_counts(5)
    assert first == second
    assert first["containment.states"] > 0 and first["chase.calls"] > 0


def test_seed_renames_inputs_but_keeps_the_mix():
    one, two = corpus.table1_corpus(1), corpus.table1_corpus(2)
    assert {c.key for c in one}.isdisjoint(c.key for c in two)
    shape = lambda cases: sorted((c.family, len(c.schema["relations"]), len(c.queries)) for c in cases)
    assert shape(one) == shape(two)
    assert corpus.table1_corpus(1) == one


def test_corpus_covers_every_fragment_with_ground_truth():
    cases = corpus.table1_corpus(3)
    assert {c.family for c in cases} == {
        "fd-determinacy", "uid-fd", "id-chain", "id-width",
        "lookup-chain-bounded", "lookup-chain-unbounded", "tgd-transfer",
    }
    assert all(expected is not None for c in cases for __, expected in c.queries)
    assert any(not expected for c in cases for __, expected in c.queries)


def test_reference_pass_is_correct():
    measurement = workloads.Measurement("decide-cold")
    workloads.cold_pass(workloads.prepare_corpus(4), measurement, [])
    assert measurement.wrong == []
    assert measurement.ok == measurement.attempted > 0


def test_check_separates_wrong_from_not_ok():
    measurement = workloads.Measurement("x")
    measurement.check("q1", "yes", "yes")
    measurement.check("q2", "yes", "unknown")
    measurement.check("q3", "yes", "error")
    measurement.check("q4", "no", "yes")
    assert measurement.ok == 1
    assert measurement.wrong == ["q4: expected no, got yes"]


def test_serving_stream_repeats_per_seed():
    mix = workloads.serving_mix("serve-hot", 9)
    first = [f.key for f, __ in zip(mix.stream(), range(500))]
    again = [f.key for f, __ in zip(workloads.serving_mix("serve-hot", 9).stream(), range(500))]
    assert first == again
    fresh = [f for f, __ in zip(mix.stream(), range(5000)) if f.fresh]
    assert fresh and len({f.key for f in fresh}) == len(fresh)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for path in (ROOT / "e2ebench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "decide-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
