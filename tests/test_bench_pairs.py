"""The summary and claim test of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [5.5, 5.2, 5.8, 5.4, 5.6, 5.3, 5.7, 5.5, 5.9, 5.1]


def test_quartiles_are_the_exclusive_ones(pairs):
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) == (2.75, 8.25)
    assert pairs.quartiles([3.0]) == (3.0, 3.0)


@pytest.mark.parametrize(
    ("wins", "pairs_run", "gain", "iqr", "holds"),
    [
        (9, 10, 1.1, 0.4, True),
        (10, 10, 0.5, 0.4, True),
        (8, 10, 1.1, 0.4, False),  # too few wins
        (9, 10, 0.4, 0.4, False),  # a gain no larger than the parent's IQR
        (9, 10, -1.0, 0.4, False),  # worse
        (18, 20, 1.0, 0.4, True),
        (17, 20, 1.0, 0.4, False),
        (0, 0, 1.0, 0.0, False),
    ],
)
def test_a_claim_needs_nine_wins_in_ten_and_a_gain_past_the_parents_iqr(
    pairs, wins, pairs_run, gain, iqr, holds
):
    assert pairs.claim_holds(wins, pairs_run, gain, iqr) is holds


def test_a_lower_metric_that_falls_in_every_pair_is_claimed(pairs):
    change = [v - 1.1 for v in PARENT]
    summary = pairs.compare_metric(PARENT, change, "lower", 0.25)
    q1, q3 = pairs.quartiles(PARENT)
    assert summary["wins"] == 10 and summary["pairs"] == 10
    assert summary["parent_median"] == pytest.approx(5.5)
    assert summary["change_median"] == pytest.approx(4.4)
    assert summary["parent_quartiles"] == [q1, q3]
    assert summary["parent_iqr"] == pytest.approx(q3 - q1) and q3 - q1 < 1.1
    assert summary["relative_change"] == pytest.approx(-0.2)
    assert summary["claim"] is True and summary["worse_than_bound"] is False


def test_a_gain_inside_the_parents_spread_is_no_claim(pairs):
    # ten wins, but by less than the spread of the parent's runs
    summary = pairs.compare_metric(PARENT, [v - 0.05 for v in PARENT], "lower", 0.25)
    assert summary["wins"] == 10 and summary["claim"] is False


def test_a_higher_metric_is_compared_the_other_way(pairs):
    change = [v * 0.7 for v in PARENT]
    summary = pairs.compare_metric(PARENT, change, "higher", 0.25)
    assert summary["wins"] == 0 and summary["claim"] is False
    assert summary["relative_change"] == pytest.approx(-0.3)
    assert summary["worse_than_bound"] is True
    assert pairs.compare_metric(change, PARENT, "higher", 0.25)["claim"] is True


def test_ties_are_not_wins_and_a_missing_value_drops_its_pair(pairs):
    parent = [14, 14, 14, None]
    summary = pairs.compare_metric(parent, [14, 14, 13, 12], "lower", 0.1)
    assert summary["pairs"] == 3 and summary["wins"] == 1
    assert summary["parent"] == parent
    empty = pairs.compare_metric([None], [1.0], "lower", 0.1)
    assert empty["pairs"] == 0 and empty["claim"] is False


def test_a_spread_wider_than_the_bound_is_unresolved(pairs):
    # the parent's IQR over its median is 0.5: wider than a 0.25 bound
    parent = [2.0, 3.0, 4.0, 5.0, 6.0, 4.0, 3.0, 5.0, 4.0, 4.0]
    q1, q3 = pairs.quartiles(parent)
    assert (q3 - q1) / 4.0 > 0.25
    same = pairs.compare_metric(parent, list(parent), "lower", 0.25)
    assert same["unresolved"] is True and same["worse_than_bound"] is False
    # a change that beats every parent run is resolved however wide the spread
    faster = pairs.compare_metric(parent, [1.0 + v / 10 for v in parent], "lower", 0.25)
    assert faster["unresolved"] is False and faster["claim"] is True
    higher = pairs.compare_metric(parent, [7.0] * 10, "higher", 0.25)
    assert higher["unresolved"] is False
    # a narrow parent resolves a change within the bound
    assert pairs.compare_metric(PARENT, PARENT[::-1], "lower", 0.25)["unresolved"] is False
    assert pairs.compare_metric([None], [1.0], "lower", 0.1)["unresolved"] is False


def _run(iter_ms, psnr):
    return {"correct": True, "attempted": 11, "failed": 0,
            "metrics": {"iter_ms": iter_ms, "psnr_db": psnr}}


def test_the_summary_is_one_json_record(pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {
        "parent": [_run(v, 20.53) for v in PARENT],
        "change": [_run(v - 1.1, 20.53) for v in PARENT],
    }
    summary = json.loads(json.dumps(pairs.summarize(runs, spec, {"workload": "w", "pairs": 10})))
    assert summary["workload"] == "w" and summary["runs"] == runs
    assert set(summary["metrics"]) == {entry["name"] for entry in spec}
    assert summary["metrics"]["iter_ms"]["claim"] is True
    assert summary["metrics"]["iter_ms"]["unit"] == "ms"
    psnr = summary["metrics"]["psnr_db"]
    assert psnr["wins"] == 0 and psnr["relative_change"] == 0 and not psnr["worse_than_bound"]
    assert summary["metrics"]["wall_s"]["pairs"] == 0
    assert set(summary) == {"workload", "pairs", "runs", "metrics"}


def _fake_run(outcome):
    def run(cmd, **kwargs):
        if isinstance(outcome, BaseException):
            raise outcome
        return subprocess.CompletedProcess(cmd, outcome[0], stdout=outcome[1], stderr="boom")
    return run


@pytest.mark.parametrize(
    "outcome",
    [
        subprocess.TimeoutExpired(["run.py"], 900),
        (1, ""),  # a non-zero exit
        (0, ""),  # no result line
        (0, "not json\n"),
        (0, '{"correct": true}\n'),  # a result without its counts
    ],
    ids=["timeout", "exit-1", "no-output", "not-json", "no-counts"],
)
def test_a_run_that_gives_no_result_fails_its_side(pairs, monkeypatch, outcome):
    monkeypatch.setattr(pairs.subprocess, "run", _fake_run(outcome))
    run = pairs.run_side(ROOT, "full13-256", 11, 1.0)
    assert run["correct"] is False and run["metrics"] == {} and run["error"]


def test_a_stuck_run_still_writes_the_summary(pairs, monkeypatch, tmp_path):
    # the first run of each pair times out, the second gives a result
    calls = []
    result = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                         "metrics": {"iter_ms": {"value": 4.0}}})

    def run(cmd, **kwargs):
        calls.append(kwargs["cwd"])
        if len(calls) % 2:
            raise subprocess.TimeoutExpired(cmd, 900)
        return subprocess.CompletedProcess(cmd, 0, stdout=result + "\n", stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    out = tmp_path / "pairs.json"
    code = pairs.main([str(ROOT), str(ROOT), "--workload", "full13-256", "--pairs", "2",
                       "--out", str(out)])
    summary = json.loads(out.read_text())
    assert code == 1 and len(calls) == 4
    assert [r["correct"] for r in summary["runs"]["parent"]] == [False, True]
    assert [r["correct"] for r in summary["runs"]["change"]] == [True, False]
    assert summary["metrics"]["iter_ms"]["pairs"] == 0


@pytest.mark.parametrize("flag, seconds", [([], 12), (["--seconds", "2.5"], 2.5)])
def test_runs_last_the_changes_run_seconds_unless_the_flag_says(
    pairs, monkeypatch, tmp_path, flag, seconds
):
    change = tmp_path / "change"
    for name in ("perfbench/run.py", "src/vtvrestore/__init__.py"):
        (change / name).parent.mkdir(parents=True, exist_ok=True)
        (change / name).write_text("")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    (change / "BENCHMARK.json").write_text(json.dumps({**benchmark, "run_seconds": 12}))
    lengths = []
    result = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                         "metrics": {"iter_ms": {"value": 4.0}}})

    def run(cmd, **kwargs):
        lengths.append(float(cmd[cmd.index("--seconds") + 1]))
        return subprocess.CompletedProcess(cmd, 0, stdout=result + "\n", stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    out = tmp_path / "pairs.json"
    code = pairs.main([str(ROOT), str(change), "--workload", "full13-256", "--pairs", "2",
                       "--out", str(out), *flag])
    assert code == 0 and lengths == [seconds] * 4
    assert json.loads(out.read_text())["seconds"] == seconds


def test_a_directory_that_is_not_a_checkout_is_refused(pairs, tmp_path, capsys):
    assert pairs.main([str(tmp_path), str(ROOT), "--workload", "full13-256"]) == 2
    assert "is not a checkout" in capsys.readouterr().err
