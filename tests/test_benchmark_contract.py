"""What the benchmark (``perfbench/``) relies on in the program.

The traced run (``perfbench/traced.py``) wraps names in the package: its
counting pass patches some of them without checking that they exist, and its
span pass skips a missing one silently, so a renamed or dropped import would
break ``perfbench/run.py --trace 1`` or empty a per-layer metric without any
other test noticing.  The set-up probe (``perfbench/setup_child.py``) reads
``cli.TASK_DEFAULTS`` and builds a solver through the public API, and every
workload is a CLI invocation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vtvrestore
from vtvrestore import cli, frames, image, solver, write_pgm

from conftest import make_phantom

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    return traced


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_names_patched_without_a_guard_exist():
    assert callable(solver.analyze)
    assert callable(solver.energy)
    assert callable(solver.SplitBregman.step)
    for module in (frames, image, solver):
        assert callable(module.conv_circular), module.__name__


def test_every_span_point_but_the_retired_shrink_exists(traced):
    # the anisotropic shrink is an in-place clip inside advance, so the
    # solver no longer imports shrink; the isotropic one runs in the sweep's
    # body, which may run on a worker thread, where no traced name is called
    assert traced.missing_points() == ["vtvrestore.solver.shrink", "vtvrestore.solver.shrink_iso"]


def counting(monkeypatch, name):
    """Replace ``solver.<name>`` by a wrapper that counts its calls."""
    calls = []
    fn = getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def test_traced_solver_names_are_called_where_the_spans_expect(monkeypatch):
    # image.solve_diagonal_ms times the one FFT solve of a step, and
    # solver.energy_ms is probed from outside: a solve must not call energy
    solves = counting(monkeypatch, "solve_diagonal")
    energies = counting(monkeypatch, "energy")
    f = np.random.default_rng(1).uniform(0, 255, (24, 20))
    op, bank = solver.DegradationOp.identity(), frames.bspline_bank()
    cfg = solver.SolverConfig.head_rest(bank.m, 2.0, 1.5, 12.0, 4.5, tol=1e-30, max_iter=3)
    sb = solver.SplitBregman(f, op, bank, cfg)
    assert solves == []
    sb.step()
    assert len(solves) == 1
    result = solver.solve(f, op, bank, cfg)
    assert len(solves) == 1 + result.iterations == 4
    assert energies == []


def test_task_defaults_hold_what_the_setup_probe_reads():
    for task in ("denoise", "deblur"):
        for variant in ("reduced17", "full13"):
            defaults = cli.TASK_DEFAULTS[(task, variant)]
            assert {"lambda1", "lambda_rest", "gamma1", "gamma_rest", "tol"} <= set(defaults)


def test_every_workload_invocation_parses(workloads):
    for wl in workloads.WORKLOADS.values():
        inputs = [f"in{i}.pgm" for i in range(wl.images)]
        args = cli.build_parser().parse_args(wl.cli_args(inputs, "out", 11, jobs=wl.jobs))
        assert (args.task, args.variant, args.input) == (wl.task, wl.variant, inputs)


@pytest.mark.parametrize("task", ["denoise", "deblur"])
def test_setup_probe_runs_on_a_small_image(task, tmp_path):
    # the probe imports the package in a fresh interpreter, so a dropped or
    # renamed public name it uses fails here, not only in the benchmark
    image_path = tmp_path / "probe.pgm"
    write_pgm(image_path, make_phantom(32))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_child.py"), "--task", task,
         "--variant", "reduced17", "--input", str(image_path), "--seed", "0",
         "--cold-step"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"ready", "cold_step_ms"} <= set(report)
    assert report["cold_step_ms"] > 0


def test_setup_probe_builds_the_solver_the_cli_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import setup_child

    image_path = tmp_path / "probe.pgm"
    write_pgm(image_path, make_phantom(16))
    probed = []
    build = vtvrestore.SplitBregman
    monkeypatch.setattr(
        vtvrestore, "SplitBregman", lambda *args: probed.append(args[3]) or build(*args)
    )
    monkeypatch.setattr(sys, "argv", [
        "setup_child.py", "--task", "denoise", "--variant", "reduced17",
        "--input", str(image_path), "--seed", "0",
    ])
    setup_child.main()
    solved = []
    monkeypatch.setattr(cli, "solve", lambda *args: solved.append(args[3]) or solver.solve(*args))
    code = cli.main(["denoise", "--input", str(image_path), "--out", str(tmp_path / "out"),
                     "--seed", "0", "--variant", "reduced17", "--max-iter", "2"])
    capsys.readouterr()
    assert code in (0, 2) and len(probed) == len(solved) == 1
    assert probed[0].precision == solved[0].precision
