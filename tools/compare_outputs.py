"""Compare what two checkouts of vtv-restore write for the same CLI calls.

    python3 tools/compare_outputs.py PARENT CHANGE [--seed 11] [--rtol 0] [--keep DIR]

``PARENT`` and ``CHANGE`` are checkouts: directories that hold
``src/vtvrestore``.  The calls are the three benchmark workloads' (see
``perfbench/workloads.py``), an isotropic ``denoise --trace`` and a
``full13`` ``deblur --trace --dump-features``, and two on grids that are no
power of two: a 300x300 isotropic ``denoise --trace``, whose row blocks
are 27 rows with a short last one, and a 384x384 ``full13``
``deblur --trace``, large enough to run on two sweep workers; all at one
fixed seed.  Their
inputs are this checkout's phantom images, written once and read by both
sides.  Each call runs the CLI in a fresh interpreter with one BLAS thread,
first on ``PARENT``, then on ``CHANGE``, and the two runs are compared:

* every PGM byte for byte, and any other file but those below likewise;
* every trace CSV value by value: exactly, or within the relative
  tolerance ``--rtol``;
* every ``*_run.json`` without its timings and paths;
* the stdout rows without their ``seconds`` column, the stderr byte for
  byte, so that a stray warning or a second error line is a difference,
  and the exit codes.

Then it runs ``vtv-restore selftest`` once on each checkout, the same way,
and compares its stdout and stderr byte for byte and its exit code.

It prints one line per difference and a summary per call, and exits 0 when
nothing differs, 1 when something does and 2 when a checkout is not one.
The runs are written under a temporary directory, removed at the end, or
under ``--keep DIR``, kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import ONE_THREAD, WORKLOADS, Workload, make_inputs  # noqa: E402

#: The calls compared: the benchmark's workloads and four that cover what
#: they do not: the isotropic shrink and the full13 deblur, at 256x256 and
#: again on grids whose row blocks are no power of two in bytes, one with
#: a short last block (300x300) and one on two sweep workers (384x384, at
#: least ``cli.SWEEP_GRAIN`` pixels).
CALLS = [
    *WORKLOADS.values(),
    Workload("denoise-iso-trace", "denoise", "reduced17", 256, 1,
             ("--shrinkage", "iso", "--trace"), 1, 0.0),
    Workload("deblur-full13-trace", "deblur", "full13", 256, 1,
             ("--trace", "--dump-features"), 1, 0.0),
    Workload("denoise-300-iso-trace", "denoise", "reduced17", 300, 1,
             ("--shrinkage", "iso", "--trace"), 1, 0.0),
    Workload("deblur-384-full13-trace", "deblur", "full13", 384, 1, ("--trace",), 1, 0.0),
]

CLI_ENTRY = "import sys; from vtvrestore.cli import main; sys.exit(main())"
#: A call that runs longer than this is a failure of its side.
CALL_TIMEOUT_S = 600

#: Keys of a ``*_run.json`` that differ between two runs of the same code:
#: the timings and the paths.
RUN_RECORD_NOISE = {"input", "ref", "outputs", "metrics.seconds", "metrics.cpu_seconds"}
#: A key one run record has and the other lacks reads as this there.
_MISSING = object()


def _flat(record: dict, prefix: str = "") -> dict:
    """A nested JSON object as ``{"outer.inner": value}``."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _same_number(x: float, y: float, rtol: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y)) or abs(x - y) <= rtol * abs(y)


def _diff_table(a: str, b: str, rtol: float) -> str | None:
    """Where the CSV texts ``a`` and ``b`` differ, or None: the header
    exactly, every other cell as a number."""
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return f"{len(rows_a)} lines against {len(rows_b)}, or another header"
    for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b) or not all(
            _same_number(float(x), float(y), rtol) for x, y in zip(cells_a, cells_b)
        ):
            return f"line {line}: {row_a!r} against {row_b!r}"
    return None


def _diff_file(a: Path, b: Path, rtol: float) -> str | None:
    """How two artifacts of the same name differ, or None."""
    if a.name.endswith("_run.json"):
        records = [_flat(json.loads(p.read_text(encoding="utf-8"))) for p in (a, b)]
        keys = sorted(k for k in records[0].keys() | records[1].keys()
                      if k.split(".")[0] not in RUN_RECORD_NOISE and k not in RUN_RECORD_NOISE)
        differ = [k for k in keys if records[0].get(k, _MISSING) != records[1].get(k, _MISSING)]
        return f"run records differ in {differ}" if differ else None
    if a.suffix == ".csv":
        return _diff_table(a.read_text(encoding="ascii"), b.read_text(encoding="ascii"), rtol)
    return None if a.read_bytes() == b.read_bytes() else "bytes differ"


def diff_outputs(a: Path, b: Path, rtol: float = 0.0) -> list:
    """The differences between two CLI output directories, one line each."""
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    problems = [f"{name}: only in {a if name in names_a else b}"
                for name in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        problem = _diff_file(a / name, b / name, rtol)
        if problem:
            problems.append(f"{name}: {problem}")
    return problems


def _rows(stdout: str) -> list:
    """The stdout lines, each metrics row without its ``seconds`` column."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        header = line.split(",")
        if "seconds" in header:
            drop = header.index("seconds")
            return lines[:i] + [
                ",".join(c for j, c in enumerate(row.split(",")) if j != drop)
                for row in lines[i:]
            ]
    return lines


def _diff_exits(a: dict, b: dict, rows) -> list:
    """How two runs' exit codes, ``rows(stdout)`` and stderr differ."""
    problems = []
    if a["code"] != b["code"]:
        problems.append(f"exit code {a['code']} against {b['code']}")
    if rows(a["stdout"]) != rows(b["stdout"]):
        problems.append(f"stdout rows differ: {rows(a['stdout'])} against {rows(b['stdout'])}")
    if a["stderr"] != b["stderr"]:
        problems.append(f"stderr differs: {a['stderr']!r} against {b['stderr']!r}")
    return problems


def diff_runs(a: dict, b: dict, rtol: float = 0.0) -> list:
    """The differences between two runs of one call: ``{"code", "stdout",
    "stderr", "out"}`` each, ``out`` the output directory."""
    return _diff_exits(a, b, _rows) + diff_outputs(a["out"], b["out"], rtol)


def diff_selftests(a: dict, b: dict) -> list:
    """The differences between two ``selftest`` runs, ``{"code", "stdout",
    "stderr"}`` each: the stdout and stderr byte for byte."""
    return _diff_exits(a, b, lambda stdout: stdout.splitlines(keepends=True))


def _run_cli(checkout: Path, args: list, cwd: Path) -> dict:
    """``vtv-restore ARGS`` on ``checkout``'s program, in a fresh interpreter
    with one BLAS thread."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def run_call(checkout: Path, call: Workload, inputs: list, out: Path, seed: int) -> dict:
    """Run ``call`` on ``checkout``'s program, writing under ``out``."""
    out.mkdir(parents=True)
    return {**_run_cli(checkout, call.cli_args(inputs, out, seed, call.jobs), out), "out": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance of trace CSV values (default exact)")
    parser.add_argument("--keep", type=Path, help="write the runs here and keep them")
    args = parser.parse_args(argv)
    checkouts = [args.parent.resolve(), args.change.resolve()]
    for checkout in checkouts:
        if not (checkout / "src" / "vtvrestore" / "__init__.py").is_file():
            print(f"compare_outputs: {checkout} holds no src/vtvrestore", file=sys.stderr)
            return 2
    work = args.keep or Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    differences = 0
    try:
        for call in CALLS:
            inputs = make_inputs(call, work / "inputs" / call.name)
            runs = [run_call(checkout, call, inputs, work / side / call.name, args.seed)
                    for side, checkout in zip(("parent", "change"), checkouts)]
            problems = diff_runs(*runs, rtol=args.rtol)
            for problem in problems:
                print(f"{call.name}: {problem}")
            files = len(list(runs[0]["out"].iterdir()))
            print(f"{call.name}: {len(problems)} differences in {files} files, "
                  f"exit code {runs[0]['code']}")
            differences += len(problems)
        selftests = [_run_cli(checkout, ["selftest"], work) for checkout in checkouts]
        problems = diff_selftests(*selftests)
        for problem in problems:
            print(f"selftest: {problem}")
        print(f"selftest: {len(problems)} differences, exit code {selftests[0]['code']}")
        differences += len(problems)
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
