"""scripts/bench_pairs.py on a two-commit repository whose perfbench/run.py is
a stub that prints a fixed JSON line, different in each commit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

BENCHMARK = {
    "run_seconds": 30,
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "analysis_s.p50", "unit": "s", "better": "lower"},
                   {"name": "analyses_per_s", "unit": "1/s", "better": "higher"}],
}
# the stub logs its side, seed and trace flag, then prints a JSON line whose
# p50 is BASE + seed / 1000 and whose rate is RATE + seed
STUB = """import argparse, json, os
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
with open(os.environ["BENCH_PAIRS_LOG"], "a") as log:
    log.write(f"{SIDE} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
seed = int(args.seed)
print("human-readable line")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "analysis_s.p50": {"value": BASE + seed / 1000, "unit": "s"},
    "analyses_per_s": {"value": RATE + seed, "unit": "1/s"}}}))
"""


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                           *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout


def _commit(repo, side, base, rate, golden, stub=STUB):
    (repo / "perfbench").mkdir(exist_ok=True)
    (repo / "perfbench" / "run.py").write_text(
        f"SIDE, BASE, RATE = {side!r}, {base!r}, {rate!r}\n" + stub)
    (repo / "data" / "golden").mkdir(parents=True, exist_ok=True)
    (repo / "data" / "golden" / "t1.csv").write_text(golden)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", side)


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _commit(repo, "parent", 0.010, 100.0, "a\n")
    _commit(repo, "change", 0.009, 99.0, "b\n")
    return repo


def _bench_pairs(repo, tmp_path, *args):
    log = tmp_path / "log.txt"
    out = tmp_path / "out.json"
    env = dict(os.environ, BENCH_PAIRS_LOG=str(log))
    done = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), *args], cwd=repo,
                          env=env, capture_output=True, text=True)
    worktrees = _git(repo, "worktree", "list").splitlines()
    return done, json.loads(out.read_text()), log.read_text().splitlines(), worktrees


def test_pairs_alternate_sides_and_summarize_each_metric(repo, tmp_path):
    done, report, log, worktrees = _bench_pairs(repo, tmp_path, "--pairs", "2")
    assert done.returncode == 0, done.stderr
    assert len(worktrees) == 1
    assert report["commits"] == {"parent": _git(repo, "rev-parse", "HEAD~1").strip(),
                                 "change": _git(repo, "rev-parse", "HEAD").strip()}
    # pair k runs seed k, the first side flips every pair, and one traced
    # run of each side follows, all at BENCHMARK.json's run_seconds
    assert log == ["parent w 1 30 0", "change w 1 30 0", "change w 2 30 0", "parent w 2 30 0",
                   "parent w 1 30 1", "change w 1 30 1"]
    workload = report["workloads"]["w"]
    assert [pair["first"] for pair in workload["pairs"]] == ["parent", "change"]
    assert workload["pairs"][1]["change"] == {
        "attempted": 5, "failed": 0, "correct": True,
        "metrics": {"analysis_s.p50": 0.011, "analyses_per_s": 101.0}}
    p50, rate = workload["summary"]["analysis_s.p50"], workload["summary"]["analyses_per_s"]
    assert p50["parent"]["median"] == pytest.approx(0.0115)
    assert p50["change"]["median"] == pytest.approx(0.0105)
    assert (p50["pairs"], p50["change_wins"]) == (2, 2)
    assert rate["parent"]["median"] == 101.5 and rate["change"]["median"] == 100.5
    assert (rate["pairs"], rate["change_wins"]) == (2, 0)
    assert workload["traced"]["change"]["metrics"]["analyses_per_s"] == 100.0
    assert report["perfbench_differs"] is True
    assert report["goldens"]["parent"] == {
        "t1.csv": "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"}
    assert report["goldens_identical"] is False


def test_a_commit_against_itself_shares_its_perfbench_tree(repo, tmp_path):
    done, report, log, worktrees = _bench_pairs(repo, tmp_path, "--parent", "HEAD",
                                                "--pairs", "1")
    assert done.returncode == 0, done.stderr
    # both sides run the change's stub
    assert log == ["change w 1 30 0"] * 2 + ["change w 1 30 1"] * 2
    assert report["perfbench_differs"] is False and report["goldens_identical"] is True
    assert report["workloads"]["w"]["summary"]["analysis_s.p50"]["change_wins"] == 0
    assert len(worktrees) == 1


def test_a_run_without_a_json_line_is_recorded_and_fails_the_script(repo, tmp_path):
    _commit(repo, "broken", 0.0, 0.0, "b\n", stub=STUB.rsplit("print(json", 1)[0])
    done, report, log, worktrees = _bench_pairs(repo, tmp_path, "--pairs", "1")
    assert done.returncode == 1
    pair, = report["workloads"]["w"]["pairs"]
    assert pair["change"] == {"returncode": 0, "error": "no JSON line"}
    assert pair["parent"]["metrics"]["analyses_per_s"] == 100.0
    assert report["workloads"]["w"]["summary"]["analyses_per_s"]["pairs"] == 0
    assert len(worktrees) == 1
