"""The design rules of the roadmap that a test can check.

Every public name has a caller in the program (the package's modules or
the benchmark), and no tracked file is one that ``.gitignore`` names, such
as a build artefact.
"""

import ast
import shutil
import subprocess
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
