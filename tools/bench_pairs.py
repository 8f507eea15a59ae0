"""Time two checkouts of vtv-restore against each other in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds T] [--seed 11] [--out FILE]

``PARENT`` and ``CHANGE`` are checkouts: directories that hold
``perfbench/run.py`` and ``src/vtvrestore``.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on each
checkout, each in a fresh interpreter whose working directory is that
checkout and whose environment sets no ``PYTHONPATH``, so each side imports
its own ``src``.  ``T`` defaults to the ``run_seconds`` of the change's
``BENCHMARK.json``, the length the benchmark runs each workload for: medians
of shorter runs drift more between runs of the same code.  The side that
runs first alternates: the parent in even pairs, the change in odd ones.

The summary is one JSON object, written to ``--out`` or stdout.  It
records the workload, the seed, the seconds each run took and the pairs, and:

* ``runs``: per side, each run's end-to-end metrics and its ``correct``,
  ``attempted`` and ``failed`` counts; a run that exits non-zero, prints no
  result or outlasts :data:`RUN_TIMEOUT_S` reads ``correct: false`` with
  no metrics and an ``error``;
* ``metrics``: per end-to-end metric of the change's ``BENCHMARK.json``,
  the per-pair values of both sides, their medians, the parent's quartiles
  and IQR, the change's wins (pairs in which it is strictly better), the
  relative change of the median, whether that change is worse than the
  metric's bound, ``unresolved`` (the parent's IQR over its median is wider
  than the bound, so a change within the bound cannot be told from none,
  unless every change run is better than every parent run), and ``claim``:
  at least 9 wins in 10 pairs and a median gain larger than the parent's
  IQR.

Quartiles are the "exclusive" ones of :func:`statistics.quantiles`, the
wider of its two methods on few samples.  It prints one line per pair on
stderr and exits 0 when every run was correct, 1 when one was not and 2
when a checkout is not one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The share of pairs the change must win for a claim.
CLAIM_WINS = 0.9
#: A run that takes longer than this is a failure of its side.
RUN_TIMEOUT_S = 900
SIDES = ("parent", "change")


def quartiles(values) -> tuple:
    """The first and third quartile of ``values``."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (math.nan, math.nan)
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, q3


def claim_holds(wins: int, pairs: int, gain: float, parent_iqr: float) -> bool:
    """Whether ``wins`` of ``pairs`` and a median ``gain`` (in the better
    direction, so positive when the change is better) support a claim."""
    return pairs > 0 and wins >= math.ceil(CLAIM_WINS * pairs) and gain > parent_iqr


def compare_metric(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's summary over paired runs: ``parent[i]`` and
    ``change[i]`` are the values of pair ``i``; a pair in which either side
    has no value is left out."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    sign = 1.0 if better == "lower" else -1.0
    ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
    summary = {"better": better, "bound": bound, "parent": parent, "change": change,
               "pairs": len(pairs)}
    if not pairs:
        return {**summary, "claim": False, "worse_than_bound": False, "unresolved": False}
    p_med, c_med = statistics.median(ps), statistics.median(cs)
    q1, q3 = quartiles(ps)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    relative = (c_med - p_med) / p_med if p_med else math.nan
    spread = (q3 - q1) / abs(p_med) if p_med else math.nan
    dominates = max(sign * c for c in cs) < min(sign * p for p in ps)
    return {
        **summary,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": [q1, q3],
        "parent_iqr": q3 - q1,
        "wins": wins,
        "relative_change": relative,
        "worse_than_bound": sign * relative > bound,
        "unresolved": spread > bound and not dominates,
        "claim": claim_holds(wins, len(pairs), sign * (p_med - c_med), q3 - q1),
    }


def summarize(runs: dict, spec: list, meta: dict) -> dict:
    """The JSON summary of ``runs`` (``{side: [run, ...]}``, pair ``i`` the
    ``i``-th run of each side) over ``spec``, the ``end_to_end`` list of a
    ``BENCHMARK.json``."""
    metrics = {}
    for entry in spec:
        name = entry["name"]
        metrics[name] = {"unit": entry["unit"], **compare_metric(
            *[[run["metrics"].get(name) for run in runs[side]] for side in SIDES],
            entry["better"], entry["bound"],
        )}
    return {**meta, "runs": runs, "metrics": metrics}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run on ``checkout``'s program."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "metrics": {}, "error": f"no result in {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
        return {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return {"correct": False, "metrics": {},
                "error": f"{exc}: {proc.stderr.strip()[-300:]}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default the change's BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, help="write the summary here, not to stdout")
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for checkout in checkouts.values():
        if not all((checkout / p).is_file() for p in ("perfbench/run.py", "BENCHMARK.json",
                                                      "src/vtvrestore/__init__.py")):
            print(f"bench_pairs: {checkout} is not a checkout", file=sys.stderr)
            return 2
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    spec = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_side(checkouts[side], args.workload, args.seed, seconds))
        values = {side: runs[side][-1]["metrics"].get("iter_ms", math.nan) for side in SIDES}
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): iter_ms parent "
              f"{values['parent']:.3f} change {values['change']:.3f}", file=sys.stderr)

    meta = {"tool": "tools/bench_pairs.py", "workload": args.workload, "seed": args.seed,
            "seconds": seconds, "pairs": args.pairs,
            "first": [(SIDES if i % 2 == 0 else SIDES[::-1])[0] for i in range(args.pairs)]}
    text = json.dumps(summarize(runs, spec, meta), indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if all(run["correct"] for side in SIDES for run in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
