"""vtv-restore benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload denoise-1024 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it needs ``src/vtvrestore`` and
``tests/conftest.py`` (for ``make_phantom``) next to ``perfbench/`` and
writes only under ``perfbench/_work``.

``--trace 0`` measures the end-to-end metrics: it launches the real CLI as
a fresh subprocess per invocation, one after another (a closed loop with one
client; ``batch-deblur-trace`` uses the CLI's 2-worker pool), until
``--seconds`` are used and at least two invocations were made, and checks
every invocation's outputs.  ``--trace 1`` gives the per-layer metrics from
an in-process traced run (see ``traced.py``) plus cold first steps measured
in fresh interpreters.

The last line of stdout is the JSON result; the lines before it are a
readable report.  A full record (environment, input digests, every sample)
goes to ``perfbench/_work/<workload>/result-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import (
    ROOT,
    WORK,
    WORKLOADS,
    ONE_THREAD,
    check_checkout,
    check_outputs,
    child_env,
    environment,
    import_program,
    make_inputs,
    parse_rows,
    sha256,
)

SETUP_SAMPLES = 9
COLD_SAMPLES = 3
#: A run starts no new invocation past this many seconds, so it ends well
#: inside three minutes even when the program is much slower than expected.
HARD_LIMIT_S = 100.0
#: No single child may take longer than this.
CHILD_TIMEOUT_S = 150.0
#: Two invocations at least, so that restored images can be compared.
MIN_INVOCATIONS = 2

CLI_ENTRY = "import sys; from vtvrestore.cli import main; sys.exit(main())"

E2E_UNITS = {
    "wall_s": "s", "solve_s": "s", "iter_ms": "ms", "iters": "count",
    "mpx_per_s": "Mpx/s", "setup_s": "s", "peak_rss_mb": "MB", "psnr_db": "dB",
}
LAYER_UNITS = {
    "solver.step_ms": "ms", "solver.u_update_ms": "ms", "solver.advance_ms": "ms",
    "frames.analyze_ms": "ms", "diffops.grad_ms": "ms", "diffops.grad_adjoint_ms": "ms",
    "diffops.shrink_ms": "ms", "image.conv_adjoint_ms": "ms", "image.solve_diagonal_ms": "ms",
    "solver.step_alloc_peak_mb": "MB", "solver.cold_step_ms": "ms", "solver.energy_ms": "ms",
    "frames.analyze_calls_per_iter": "calls/iter", "image.conv_calls_per_iter": "calls/iter",
    "solver.init_ms": "ms", "degrade.apply_ms": "ms", "fileio.read_ms": "ms",
    "fileio.write_ms": "ms", "fileio.bytes_written": "B/image",
    "cli.process_one_self_ms": "ms", "trace.overhead_pct": "%",
}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd, log_prefix):
    """Run ``cmd`` in its own session and reap it with ``os.wait4``.

    Returns ``(exit code, wall seconds, peak RSS in MB, stdout, stderr)``.
    The RSS is the child's own rusage (the largest process of its tree), not
    ``RUSAGE_CHILDREN``, which keeps the maximum over every child ever reaped.
    """
    out_path, err_path = f"{log_prefix}.out", f"{log_prefix}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers the CLI left behind, if any
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr


def probe_setups(wl, first_input, seed, work, count, cold_step):
    """``count`` fresh-interpreter set-ups.

    Returns ``(setup seconds, cold-step ms, problems)``; the cold-step list
    is filled only with ``cold_step``.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_child.py"), "--task", wl.task,
           "--variant", wl.variant, "--input", str(first_input), "--seed", str(seed)]
    if cold_step:
        cmd.append("--cold-step")
    setups, colds, problems = [], [], []
    for _ in range(count):
        spawned = time.monotonic()
        code, _wall, _rss, stdout, stderr = spawn(cmd, work / "setup")
        if code != 0:
            problems.append(f"setup probe exit {code}: {stderr.strip()[-300:]}")
            continue
        report = json.loads(stdout.strip().splitlines()[-1])
        setups.append(report["ready"] - spawned)
        if cold_step:
            colds.append(report["cold_step_ms"])
    return setups, colds, problems


def invoke(wl, inputs, seed, work, index):
    """One CLI invocation with its checks; returns a sample dict."""
    out_dir = work / f"out{index}"
    cmd = [sys.executable, "-c", CLI_ENTRY, *wl.cli_args(inputs, out_dir, seed, wl.jobs)]
    code, wall, rss, stdout, stderr = spawn(cmd, work / f"cli{index}")
    rows = parse_rows(stdout)
    problems, digests = check_outputs(wl, code, rows, inputs, out_dir)
    if code != 0 and stderr.strip():
        problems.append(stderr.strip().splitlines()[-1])
    shutil.rmtree(out_dir, ignore_errors=True)
    sample = {"wall_s": wall, "peak_rss_mb": rss, "problems": problems, "digests": digests}
    if rows:
        solve = sum(r["seconds"] for r in rows)
        iters = sum(r["iters"] for r in rows)
        sample.update(solve_s=solve, iters=iters, iter_ms=solve / iters * 1e3,
                      mpx_per_s=wl.megapixels / wall,
                      psnr_db=statistics.fmean(r["psnr_restored"] for r in rows))
    return sample


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def run_end_to_end(wl, inputs, seed, seconds, work, report):
    setups, _colds, problems = probe_setups(wl, inputs[0], seed, work, SETUP_SAMPLES,
                                            cold_step=False)

    samples = []
    start = time.perf_counter()
    while True:
        sample = invoke(wl, inputs, seed, work, len(samples))
        if samples and sample["digests"] != samples[0]["digests"]:
            sample["problems"].append("restored PGMs differ from the first invocation's")
        samples.append(sample)
        projected = time.perf_counter() - start + sample["wall_s"]
        if projected > HARD_LIMIT_S or (len(samples) >= MIN_INVOCATIONS and projected > seconds):
            break

    failed = sum(1 for s in samples if s["problems"]) + len(problems)
    attempted = len(samples) + SETUP_SAMPLES
    metrics = {}
    for name in E2E_UNITS:
        values = setups if name == "setup_s" else [s[name] for s in samples if name in s]
        if values:
            metrics[name] = statistics.median(values)
    walls = [s["wall_s"] for s in samples]
    wall_tail = tail(walls)
    report.append(f"invocations: {len(samples)} in a closed loop; setup probes: {SETUP_SAMPLES}")
    for name, unit in E2E_UNITS.items():
        value = metrics.get(name, float("nan"))
        extra = ""
        if name == "wall_s":
            extra = (f"  p{wall_tail[0]:.0f} {wall_tail[1]:.4f} s" if wall_tail
                     else "  tail n/a") + f" (n={len(walls)})"
        report.append(f"  {name:<14} {value:>12.6g} {unit}  median{extra}")
    report.append(f"  {'fail_frac':<14} {failed / attempted:>12.6g} 1  ({failed} of {attempted} failed)")
    for s in samples:
        for problem in s["problems"]:
            report.append(f"  FAILED invocation: {problem}")
    for problem in problems:
        report.append(f"  FAILED: {problem}")
    record = {"setup_s": setups, "invocations": samples, "problems": problems}
    return metrics, attempted, failed, record


def run_traced(wl, inputs, seed, seconds, work, report):
    import traced

    _setups, colds, problems = probe_setups(wl, inputs[0], seed, work, COLD_SAMPLES,
                                            cold_step=True)

    passes, metrics, tracer = traced.run(wl, inputs, work, seed, seconds)
    reference = passes[0].digests
    for p in passes[1:]:
        if p.digests != reference:
            p.problems.append(f"{p.kind} pass: restored PGMs differ from the counting pass's")
    metrics["solver.cold_step_ms"] = statistics.median(colds) if colds else 0.0
    tracer.write(work / f"spans-seed{seed}.json")

    failed = sum(1 for p in passes if p.problems) + len(problems)
    attempted = len(passes) + COLD_SAMPLES
    kinds = [p.kind for p in passes]
    report.append(f"passes: {kinds}, --jobs 1 in process; cold-step probes: {COLD_SAMPLES}")
    missing = traced.missing_points()
    if missing:
        report.append(f"  not traced (name not found): {missing}")
    for name, unit in LAYER_UNITS.items():
        report.append(f"  {name:<30} {metrics[name]:>12.6g} {unit}")
    for kind in ("untraced", "traced"):
        solves = [p.solve_s for p in passes if p.kind == kind]
        report.append(f"  solve_s {kind}: {', '.join(f'{v:.3f}' for v in solves)}")
    report.append("  span                       calls   median total ms   median self ms")
    for name, d in sorted(tracer.durations().items()):
        report.append(f"  {name:<26} {len(d):>5} {statistics.median(x[0] for x in d) * 1e3:>17.4f}"
                      f" {statistics.median(x[1] for x in d) * 1e3:>16.4f}")
    for p in passes:
        for problem in p.problems:
            report.append(f"  FAILED {p.kind} pass: {problem}")
    for problem in problems:
        report.append(f"  FAILED: {problem}")
    record = {"cold_step_ms": colds, "problems": problems,
              "passes": [p.__dict__ for p in passes]}
    metrics = {name: metrics[name] for name in LAYER_UNITS}
    return metrics, attempted, failed, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    # Before numpy is imported here, so the traced in-process run matches the children.
    os.environ.update(ONE_THREAD)
    import_program()

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(wl, work / "inputs")
    env = environment()
    digests = {p.name: sha256(p) for p in inputs}
    report = [
        f"vtv-restore benchmark: workload={wl.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"environment: {json.dumps(env)}",
        "inputs: " + ", ".join(f"{name} sha256:{d[:16]}" for name, d in digests.items()),
    ]
    runner = run_traced if args.trace else run_end_to_end
    metrics, attempted, failed, record = runner(wl, inputs, args.seed, args.seconds, work, report)
    units = LAYER_UNITS if args.trace else E2E_UNITS

    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(work / f"result-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "environment": env,
                   "input_sha256": digests, "result": result, "record": record}, fh, indent=1)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
