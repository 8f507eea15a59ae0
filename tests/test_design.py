"""The design rules of the roadmap that a test can check.

Every public name has a caller in the program (the package's modules or
the benchmark), no tracked file is one that ``.gitignore`` names, such
as a build artefact, and the modules a run does not need stay unloaded.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vtvrestore

ROOT = Path(__file__).resolve().parent.parent


def _loaded_names(path):
    """The names ``path`` reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_program():
    package = ROOT / "src" / "vtvrestore"
    callers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    callers += list((ROOT / "perfbench").glob("*.py"))
    loaded = set().union(*map(_loaded_names, callers))
    assert sorted(set(vtvrestore.__all__) - loaded) == []


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and the repository's .git",
)
def test_no_tracked_file_is_one_gitignore_names():
    ignored = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert ignored == ""


#: Modules the package imports only where it needs them: each costs peak RSS
#: and start-up time in every CLI process.
_LAZY = ("multiprocessing", "concurrent.futures", "logging", "numpy.random")

_SOLVE = """
import numpy as np
from vtvrestore import DegradationOp, SolverConfig, bspline_bank, solve
f = np.add.outer(np.arange(64.0), np.arange(512.0)) % 7  # four 16-row blocks
cfg = SolverConfig.head_rest(9, 2.0, 1.5, 12.0, 4.5, max_iter=2, workers={workers})
assert solve(f, DegradationOp.identity(), bspline_bank(), cfg).threads == {workers}
"""


#: A CLI denoise of a ``{size}``-pixel square image over a one-thread BLAS on
#: two CPUs, as the CLI reads them, that solves on ``{threads}`` threads.
_CLI_DENOISE = """
import contextlib, io, json, os, tempfile
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.sched_getaffinity = lambda pid: {{0, 1}}
import numpy as np
from vtvrestore import write_pgm
from vtvrestore.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    image = os.path.join(out, "im.pgm")
    write_pgm(image, np.add.outer(np.arange({size}), np.arange({size})) % 256)
    assert main(["denoise", "--input", image, "--out", out, "--max-iter", "2"]) == 2
    with open(os.path.join(out, "im_run.json")) as fh:
        assert json.load(fh)["metrics"]["threads"] == {threads}
"""


@pytest.mark.parametrize(
    ("code", "loaded"),
    [
        ("import vtvrestore.cli", set()),
        # a one-worker sweep starts no thread pool
        (_SOLVE.format(workers=1), set()),
        (_SOLVE.format(workers=2), {"concurrent.futures", "logging"}),
        # an image below the CLI's grain solves on one worker
        (_CLI_DENOISE.format(size=256, threads=1), {"numpy.random"}),
        (_CLI_DENOISE.format(size=512, threads=2),
         {"numpy.random", "concurrent.futures", "logging"}),
    ],
    ids=["import-cli", "one-worker-solve", "two-worker-solve", "cli-denoise-256",
         "cli-denoise-512"],
)
def test_a_fresh_interpreter_loads_only_the_modules_it_runs(code, loaded):
    report = "import sys; print(*(m for m in %r if m in sys.modules))" % (_LAZY,)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    assert set(out.split()) == loaded
