"""What the benchmark (``perfbench/``) relies on in the program.

The traced run (``perfbench/traced.py``) wraps names in the package: its
counting pass patches some of them without checking that they exist, and its
span pass skips a missing one silently, so a renamed or dropped import would
break ``perfbench/run.py --trace 1`` or empty a per-layer metric without any
other test noticing.  The set-up probe reads ``cli.TASK_DEFAULTS``, and every
workload is a CLI invocation.
"""

from pathlib import Path

import pytest

from vtvrestore import cli, frames, image, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    # solver no longer imports shrink
    assert set(traced.missing_points()) <= {"vtvrestore.solver.shrink"}


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
