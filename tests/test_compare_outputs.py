"""The diff of ``tools/compare_outputs.py``, on two output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STDOUT = "image,psnr_noisy,psnr_restored,iters,seconds\nx,20.1000,30.2000,12,{}\n"


def _write_run(out: Path, seconds: float, iterations: int = 12, trace_tail: str = "5") -> dict:
    out.mkdir()
    (out / "x_restored.pgm").write_bytes(b"P5\n2 1\n255\n\x01\x02")
    (out / "x_trace.csv").write_text(
        f"iter,rel_err,energy\n1,0.5,1234.{trace_tail}\n", encoding="ascii"
    )
    record = {
        "input": str(out / "in.pgm"), "ref": str(out / "in.pgm"), "variant": "reduced17",
        "outputs": {"restored": str(out / "x_restored.pgm")},
        "metrics": {"iterations": iterations, "seconds": seconds, "cpu_seconds": 2 * seconds},
    }
    (out / "x_run.json").write_text(json.dumps(record), encoding="utf-8")
    return {"code": 0, "stdout": STDOUT.format(f"{seconds:.3f}"), "stderr": "", "out": out}


def test_runs_that_differ_only_in_timings_and_paths_do_not_differ(compare, tmp_path):
    a = _write_run(tmp_path / "a", 1.0)
    b = _write_run(tmp_path / "b", 2.5)
    assert compare.diff_runs(a, b) == []


def test_every_kind_of_difference_is_reported(compare, tmp_path):
    a = _write_run(tmp_path / "a", 1.0)
    b = _write_run(tmp_path / "b", 1.0, iterations=13, trace_tail="5000001")
    (b["out"] / "x_restored.pgm").write_bytes(b"P5\n2 1\n255\n\x01\x03")
    (b["out"] / "x_feature_01.pgm").write_bytes(b"")
    b["code"], b["stdout"] = 2, b["stdout"].replace("30.2000", "30.2001")
    problems = compare.diff_runs(a, b)
    assert problems[:2] == [
        "exit code 0 against 2",
        problems[1],  # the two stdout rows, in full
    ] and problems[1].startswith("stdout rows differ")
    assert problems[2:] == [
        f"x_feature_01.pgm: only in {b['out']}",
        "x_restored.pgm: bytes differ",
        "x_run.json: run records differ in ['metrics.iterations']",
        "x_trace.csv: line 2: '1,0.5,1234.5' against '1,0.5,1234.5000001'",
    ]
    # a trace value within the relative tolerance is no difference
    loose = compare.diff_outputs(a["out"], b["out"], rtol=1e-9)
    assert not any(p.startswith("x_trace.csv") for p in loose)


def test_a_differing_selftest_line_is_reported(compare):
    passed = "PASS uep-identity (max deviation 6.661e-16)\n"
    rof = "PASS rof-reduction (worst per-iterate deviation 5.684e-14)\n"
    a = {"code": 0, "stdout": passed + rof, "stderr": ""}
    assert compare.diff_selftests(a, dict(a)) == []
    failed = rof.replace("PASS", "FAIL").replace("5.684e-14", "2.318e-05")
    problems = compare.diff_selftests(a, {"code": 3, "stdout": passed + failed, "stderr": ""})
    assert problems == [
        "exit code 0 against 3",
        f"stdout rows differ: {[passed, rof]} against {[passed, failed]}",
    ]
    # byte for byte: one changed digit is a difference
    digit = {"code": 0, "stdout": passed + rof.replace("5.684", "5.685"), "stderr": ""}
    assert compare.diff_selftests(a, digit) != []


def test_a_differing_stderr_is_reported(compare, tmp_path):
    error = "vtv-restore: error: in.pgm: iterate contains NaN or Inf\n"
    a = dict(_write_run(tmp_path / "a", 1.0), code=1, stderr=error)
    b = dict(_write_run(tmp_path / "b", 1.0), code=1, stderr=error)
    assert compare.diff_runs(a, b) == []
    # a stray warning before the error line, and a second error line
    warning = "image.py:280: RuntimeWarning: overflow encountered in multiply\n"
    for stderr in (warning + error, error + error):
        assert compare.diff_runs(a, dict(b, stderr=stderr)) == [
            f"stderr differs: {error!r} against {stderr!r}"
        ]
    assert compare.diff_selftests(
        {"code": 0, "stdout": "", "stderr": ""}, {"code": 0, "stdout": "", "stderr": warning}
    ) == [f"stderr differs: '' against {warning!r}"]
