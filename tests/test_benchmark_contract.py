"""The names the traced benchmark run (``perfbench/traced.py``) wraps.

Its counting pass patches some of them without checking that they exist, and
its span pass skips a missing one silently, so a renamed or dropped import
would break ``perfbench/run.py --trace 1`` or empty a per-layer metric
without any other test noticing.
"""

from pathlib import Path

import pytest

from vtvrestore import frames, image, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced

    return traced


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
