"""Run the benchmark as parent/change pairs and write one BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --out BENCH_<pr>.json [--parent HEAD~1]
        [--change HEAD] [--pairs 10]

Run it inside the git repository. Both commits are checked out with
`git worktree add --detach` in a temporary directory, and both worktrees
are removed when the script ends, also when a run fails. For every workload
of the change's BENCHMARK.json, pair k runs each side's own
`perfbench/run.py --seed k --trace 0` for that file's `run_seconds`, one
side after the other; the side that goes first flips every pair, starting
with the parent. Then each side runs once with `--trace 1` and seed 1 for
the per-layer metrics.

The output holds both commits, the Python version and the host; every
pair's end-to-end metrics with `attempted`, `failed` and `correct`; per
metric the median and quartiles of each side and the pairs the change won;
the traced runs; the sha256 of every file under data/golden/ on each side;
and `perfbench_differs`, true when the two sides' perfbench/ trees differ,
so that their numbers are not a pair. A run that exits non-zero or ends
without a JSON line is recorded with its exit code and the end of its
standard error, and the script then exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# a run past this many times its seconds, plus start-up, counts as failed
TIMEOUT_FACTOR = 4
TIMEOUT_GRACE_S = 300


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _tree(rev: str) -> str | None:
    """The object name of rev's perfbench/ tree, None where it has none."""
    done = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}:perfbench"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _goldens(checkout: Path) -> dict:
    """{path under data/golden/: sha256} of every file there."""
    root = checkout / "data" / "golden"
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its JSON line, or its exit code and an error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_FACTOR * seconds + TIMEOUT_GRACE_S)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "error": "timed out"}
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        run = {"attempted": result["attempted"], "failed": result["failed"],
               "correct": result["correct"],
               "metrics": {name: entry["value"] for name, entry in result["metrics"].items()}}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        run = None
    if done.returncode != 0 or run is None:
        return {"returncode": done.returncode, "error": done.stderr[-2000:] or "no JSON line"}
    return run


def _spread(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else None, "q1": q1, "q3": q3}


def _summary(pairs: list, end_to_end: list) -> dict:
    """Per metric: each side's median and quartiles over the pairs where both
    sides measured it, and the pairs whose change side was better."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(pair["parent"]["metrics"][name], pair["change"]["metrics"][name])
                for pair in pairs
                if all(name in pair[side].get("metrics", {}) for side in SIDES)]
        out[name] = {"unit": metric.get("unit"), "better": metric["better"],
                     "pairs": len(both),
                     "parent": _spread([p for p, _ in both]),
                     "change": _spread([c for _, c in both]),
                     "change_wins": sum(c < p if lower else c > p for p, c in both)}
    return out


def _measure(checkouts: dict, pairs_per_workload: int, bench: dict) -> tuple:
    """({"seconds", "workloads": {workload: its pairs, summary and traced
    runs}}, whether every run ended with a JSON line)."""
    seconds = bench["run_seconds"]
    ok = True
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for seed in range(1, pairs_per_workload + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(checkouts[side], workload, seed, seconds, 0)
                ok &= "error" not in pair[side]
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side].get('metrics') or pair[side]}", file=sys.stderr)
            pairs.append(pair)
        traced = {side: _run(checkouts[side], workload, 1, seconds, 1) for side in SIDES}
        ok &= all("error" not in run for run in traced.values())
        workloads[workload] = {"pairs": pairs, "summary": _summary(pairs, bench["end_to_end"]),
                               "traced": traced}
    return {"seconds": seconds, "workloads": workloads}, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revs = {"parent": args.parent, "change": args.change}
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in revs.items()}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    added = []
    try:
        checkouts = {}
        for side in SIDES:
            checkouts[side] = tmp / side
            _git("worktree", "add", "--detach", str(checkouts[side]), commits[side])
            added.append(checkouts[side])
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        measured, ok = _measure(checkouts, args.pairs, bench)
        goldens = {side: _goldens(checkouts[side]) for side in SIDES}
    finally:
        for checkout in added:
            subprocess.run(["git", "worktree", "remove", "--force", str(checkout)],
                           capture_output=True)
        subprocess.run(["git", "worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    trees = {side: _tree(commits[side]) for side in SIDES}
    report = {
        "commits": commits,
        "revs": revs,
        "python": sys.version.split()[0],
        "host": {"node": platform.node(), "platform": platform.platform(),
                 "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count()},
        "pairs": args.pairs,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        **measured,
        "goldens": goldens,
        "goldens_identical": goldens["parent"] == goldens["change"],
        "perfbench_trees": trees,
        "perfbench_differs": trees["parent"] != trees["change"],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if not ok:
        print("bench_pairs: a run failed; see its entry in " + str(args.out), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
