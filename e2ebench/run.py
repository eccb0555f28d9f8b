"""The repository benchmark: one command, three workloads.

    python3 e2ebench/run.py --workload decide-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It drives the program in
``src/`` (no install), prints every metric with its unit and sample
count, a JSON record line, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  A
wrong decision makes it exit 1.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / "src" / "repro"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MiB"),
)


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("decide-cold", "serve-hot", "fleet-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _hash_seed(seed: int) -> str:
    """Hash randomisation follows the seed, so one seed repeats exactly
    (the determinism check in ``tests/`` relies on it)."""
    return str(seed % 4294967296)


def _stamp(args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "host_cpus": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def _windows(slices: list, min_ops: int) -> list:
    """``(start, stop)`` operation ranges of consecutive slices, each
    window holding at least ``min_ops`` operations (a short tail joins
    the last window)."""
    windows, start, stop = [], 0, 0
    for __, ops, __ in slices:
        stop += ops
        if stop - start >= min_ops:
            windows.append((start, stop))
            start = stop
    if stop > start:
        if windows:
            windows[-1] = (windows[-1][0], stop)
        else:
            windows.append((start, stop))
    return windows


def _window_p99(latencies: list, windows: list) -> float:
    """Median over windows of each window's p99.  A window holds at
    least 1000 operations, so at least 10 lie beyond its p99; the median
    keeps a burst of host stalls in one window from setting the figure."""
    from e2ebench.workloads import percentile

    return statistics.median(
        percentile(sorted(latencies[start:stop]), 0.99) for start, stop in windows
    )


def _end_to_end(m, corrected: dict) -> tuple[dict, dict]:
    """Gated values plus the full record: raw figures, figures corrected
    by each host reference, and sample counts.

    ``ops_per_s`` is the median over slices of each slice's rate and
    ``latency_p99_ms`` the median over windows of each window's p99.  A
    corrected figure scales each slice, and each latency in it, by the
    host speed measured around that slice (``corrected`` names the
    reference per gated metric)."""
    from e2ebench.workloads import MIN_OPS, percentile

    windows = _windows(m.slices, MIN_OPS)
    figures = {}
    for reference in ("raw", "loop", "hop"):
        if reference != "raw" and reference not in m.slices[0][2]:
            continue

        def speed(speeds: dict) -> float:
            return 1.0 if reference == "raw" else speeds[reference]

        per_slice = [speed(speeds) for __, __, speeds in m.slices]
        latencies = [ms * per_slice[i] for ms, i in zip(m.latencies_ms, m.latency_slice)]
        figures[reference] = {
            "setup_s": statistics.median(s * speed(speeds) for s, speeds in m.setups),
            "ops_per_s": statistics.median(
                ops / (s * per_slice[i]) for i, (s, ops, __) in enumerate(m.slices)
            ),
            "latency_p50_ms": percentile(sorted(latencies), 0.5),
            "latency_p99_ms": _window_p99(latencies, windows),
        }
    raw = figures["raw"]
    raw["ok_frac"] = m.ok / m.attempted
    raw["peak_rss_mb"] = m.peak_rss_mb
    completed = len(m.latencies_ms)
    samples = {
        "setup_s": len(m.setups),
        "ops_per_s": completed,
        "latency_p50_ms": completed,
        "latency_p99_ms": completed,
        "ok_frac": m.attempted,
        "peak_rss_mb": 1,
    }
    gated = {
        name: figures[corrected.get(name, "raw")][name] for name, __ in END_TO_END
    }
    record = {
        "figures": figures,
        "gated_reference": {name: corrected.get(name, "raw") for name, __ in END_TO_END},
        "samples": samples,
        "slices": len(m.slices),
        "p99_windows": len(windows),
        "p99_samples_beyond_per_window": [
            stop - start - math.ceil(0.99 * (stop - start)) for start, stop in windows
        ],
        "setup_samples": m.setups,
        "host_loop_ms": m.hostref.median_ms(),
        "host_loop_samples": len(m.hostref.samples),
        "host_hop_ms": statistics.median(m.hostref.hop_samples) if m.hostref.hop_samples else None,
        "host_hop_samples": len(m.hostref.hop_samples),
        "measured_s": m.measured_s,
    }
    return gated, record


def main(argv: list) -> int:
    args = _parse(argv)
    if not (PROGRAM / "__init__.py").is_file():
        print(f"no program to measure: {PROGRAM} is missing", file=sys.stderr)
        return 2
    hash_seed = _hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import workloads

    if args.setup_probe:
        if args.workload == "decide-cold":
            workloads.setup_probe_decide_cold(args.seed)
        else:
            workloads.setup_probe_serving(args.workload, args.seed)
        return 0

    # Byte-compile first, so no run pays for it inside its set-up.
    compileall.compile_dir(str(PROGRAM), quiet=1)
    compileall.compile_dir(str(ROOT / "e2ebench"), quiet=1)
    from e2ebench.proc import program_env

    env = program_env(ROOT, hash_seed)
    tmp = ROOT / ".e2ebench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "decide-cold":
            m = workloads.decide_cold(ROOT, args.seed, args.seconds, bool(args.trace), env)
        else:
            m = workloads.serving(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), env, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"stamp": _stamp(args), "attempted": m.attempted, "ok": m.ok,
              "wrong": m.wrong, **m.notes}
    if args.trace:
        units = dict(workloads.PER_LAYER)
        metrics = {name: {"value": m.per_layer[name], "unit": units[name]} for name in units}
        record["per_layer"] = m.per_layer
    else:
        gated, detail = _end_to_end(m, workloads.HOST_CORRECTED[args.workload])
        units = dict(END_TO_END)
        metrics = {name: {"value": gated[name], "unit": units[name]} for name in units}
        record.update(detail)
        for name, unit in END_TO_END:
            print(f"{args.workload:12s} {name:16s} {gated[name]:14.6g} {unit:5s} "
                  f"n={detail['samples'][name]}")
    if args.trace:
        for name, unit in workloads.PER_LAYER:
            print(f"{args.workload:12s} {name:36s} {m.per_layer[name]:14.6g} {unit}")
    for line in m.wrong:
        print(f"WRONG DECISION: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not m.wrong,
        "attempted": m.attempted,
        "failed": m.attempted - m.ok,
        "metrics": metrics,
    }))
    return 1 if m.wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
