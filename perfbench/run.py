"""seasonstats benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/` and the bundled data read from `data/`. Workloads:

- bundled-cli: `python -m seasonstats` as a subprocess on the bundled
  counts, cycling JSCS/Entropy x csv/md/json; checked against the goldens;
- long-series: `cli.main(argv)` in one worker process on a seeded 20-year
  counts series, `--q 0,1,2` with z footers, cycling csv/md/json;
- events-multi-journal: `cli.main(argv)` in one worker process on a seeded
  50-journal events file, one seeded journal per analysis.

Each is a closed loop with one client. With `--trace 0` the run is
untraced and gives the end-to-end metrics. With `--trace 1` the time is
split between an untraced and a traced loop; the traced one gives the
per-layer metrics, and the two p50s give the tracing overhead. Set-up
(interpreter start and `import seasonstats.cli`) is measured by fresh
spawns before either loop. Human-readable lines go first; the last line
of standard output is the JSON result. Spans are written to
`.perfbench/spans-<workload>-<seed>.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import gen
import speed
import tracing
from worker import Loop, analysis_problem, plan_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/seasonstats/cli.py", "data/journal_counts.csv",
            "data/golden/jscs/t1_submitted.csv", "data/golden/entropy/t1_submitted.csv")
EMITS = ("csv", "md", "json")
PRECISION = 5
SETUP_SPAWNS = 7
BARE_EVERY = 2
ANALYSIS_TIMEOUT_S = 60
WORKER_GRACE_S = 90
# z footers for the long series: sigma and null of a monthly share
LONG_OPTIONS = ["--q", "0,1,2", "--z-sigma", "0.03", "--z-null", "0.0833333"]


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, a worker crash)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _stamp(code: str, env, cwd) -> float:
    """Seconds from spawning a fresh interpreter until `code` has run."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", f"{code}; print(repr(time.perf_counter()))"],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=ANALYSIS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"interpreter start failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - t0


def bare_start(env, cwd) -> float:
    return _stamp("import time", env, cwd)


def measure_setup(env, cwd) -> dict:
    """Set-up time and the interpreter floor, each the median over fresh interpreters.

    `setup` (spawn until `import seasonstats.cli` returns) is scaled by the
    bare starts timed next to it; `interp` (a bare start) is scaled by the
    reference loop timed around it. See speed.py.
    """
    _stamp("import seasonstats.cli, time", env, cwd)  # fills the .pyc cache
    bare, interp, setup = [], [], []
    before = speed.calibrate()
    for _ in range(SETUP_SPAWNS):
        bare.append(bare_start(env, cwd))
        after = speed.calibrate()
        interp.append(bare[-1] * speed.scale(before, after))
        before = after
        setup.append(_stamp("import seasonstats.cli, time", env, cwd))
    scales = speed.spawn_scales(bare)
    return {"interp": statistics.median(interp),
            "setup": statistics.median(t * k for t, k in zip(setup, scales))}


# --- workloads -------------------------------------------------------------

# A workload holds its inputs' argv, the (journal, emit) plan that analyses
# cycle through, where it runs, and the check for one analysis's documents.

class BundledCli:
    in_process = False

    def __init__(self, seed, run_dir):
        self.run_dir = run_dir
        self.base_argv = ["--input", str(ROOT / "data" / "journal_counts.csv"),
                          "--format", "counts"]
        self.plan = [(j, e) for j in ("JSCS", "Entropy") for e in EMITS]
        random.Random(f"bundled:{seed}").shuffle(self.plan)

    def check(self, journal, emit, docs):
        return check.check_golden(docs, emit, ROOT / "data" / "golden" / journal.lower())


class Synthetic:
    in_process = True

    def __init__(self, run_dir, text, tallies, base_argv, plan):
        self.run_dir = run_dir
        self.tallies = tallies
        self.plan = plan
        self._expected = {}
        path = run_dir / "input.csv"
        path.write_text(text, encoding="utf-8")
        self.base_argv = ["--input", str(path), *base_argv]

    def check(self, journal, emit, docs):
        if journal not in self._expected:
            self._expected[journal] = check.expected_tables(self.tallies, journal)
        return check.check_expected(docs, emit, self._expected[journal], PRECISION)


def long_series(seed, run_dir):
    text, tallies = gen.long_series_counts(seed)
    plan = [(gen.LONG_JOURNAL, e) for e in EMITS]
    return Synthetic(run_dir, text, tallies, ["--format", "counts", *LONG_OPTIONS], plan)


def events_multi_journal(seed, run_dir):
    text, tallies = gen.multi_journal_events(seed)
    journals = gen.journal_sequence(seed, tallies.journals(), 999)
    plan = [(j, EMITS[i % len(EMITS)]) for i, j in enumerate(journals)]
    return Synthetic(run_dir, text, tallies, ["--format", "events"], plan)


WORKLOADS = {
    "bundled-cli": BundledCli,
    "long-series": long_series,
    "events-multi-journal": events_multi_journal,
}


# --- loops -----------------------------------------------------------------

def run_subprocess_loop(workload, seconds, traced, env) -> dict:
    """One `python -m seasonstats` process per analysis, one after another.

    A bare interpreter start is timed before every BARE_EVERY-th analysis,
    as the speed reference of the analyses around it (see speed.py).
    """
    out_dir = workload.run_dir / "out"
    spans_path = workload.run_dir / "child-spans.json"
    loop, spans, maxrss, bare = Loop(), [], 0, []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if loop.attempted % BARE_EVERY == 0:
            bare.append(bare_start(env, workload.run_dir))
        journal, emit = workload.plan[loop.attempted % len(workload.plan)]
        argv = plan_argv(workload.base_argv, journal, emit, out_dir)
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "--traced-child", str(spans_path),
                   "--", *argv]
        else:
            cmd = [sys.executable, "-m", "seasonstats", *argv]
        with open(workload.run_dir / "stdout", "w+") as out, \
                open(workload.run_dir / "stderr", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workload.run_dir)
            watchdog = threading.Timer(ANALYSIS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            latency = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        maxrss = max(maxrss, usage.ru_maxrss)
        problem = analysis_problem(proc.returncode, stdout, stderr)
        analysis = loop.attempted
        docs = loop.record(journal, emit, out_dir, latency, problem)
        if traced and spans_path.exists():
            spans.extend(_rebase(json.loads(spans_path.read_text()), len(spans), analysis, docs))
            spans_path.unlink()
    result = loop.as_dict()
    result["maxrss_kb"] = maxrss
    scales = speed.spawn_scales(bare)
    result["spawn_scales"] = [scales[i // BARE_EVERY] for i in range(loop.attempted)]
    if traced:
        result["spans"] = spans
    return result


def _rebase(child_spans, offset, analysis, docs):
    """Give one child's spans run-wide ids, its analysis id and the bytes it wrote."""
    for span in child_spans:
        span[tracing.ID] += offset
        if span[tracing.PARENT] is not None:
            span[tracing.PARENT] += offset
        span[tracing.ANALYSIS] = analysis
        if span[tracing.NAME] == "cli":
            span[tracing.COUNTS] = {"bytes": sum(len(t.encode("utf-8"))
                                                 for t in (docs or {}).values())}
    return child_spans


def run_worker_loop(workload, seconds, traced, env) -> dict:
    """All analyses in one worker process that calls `cli.main(argv)`."""
    spec_path = workload.run_dir / "spec.json"
    result_path = workload.run_dir / "result.json"
    spec = {"seconds": seconds, "trace": traced, "plan": workload.plan,
            "base_argv": workload.base_argv, "out_dir": str(workload.run_dir / "out")}
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           str(result_path)], env=env, cwd=workload.run_dir,
                          capture_output=True, text=True, timeout=seconds + WORKER_GRACE_S)
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def run_loop(workload, seconds, traced, env) -> dict:
    (workload.run_dir / "out").mkdir(exist_ok=True)
    loop = run_worker_loop if workload.in_process else run_subprocess_loop
    return loop(workload, seconds, traced, env)


def check_outputs(workload, result) -> int:
    """Failed analyses in one loop: run-time failures plus rejected documents."""
    failed = len(result["failures"])
    for problem in result["failures"][:3]:
        print(f"failure: {problem}", file=sys.stderr)
    for entry in result["outputs"]:
        blob = json.loads(Path(entry["path"]).read_text(encoding="utf-8"))
        problems = workload.check(blob["journal"], blob["emit"], blob["docs"])
        if problems:
            failed += entry["count"]
            print(f"check failed for {blob['journal']} {blob['emit']}: {problems[:3]}",
                  file=sys.stderr)
    return failed


# --- metrics ---------------------------------------------------------------

def ok_times(loop, scaled=True) -> list:
    """Times of the analyses that succeeded, in reference seconds unless `scaled` is off.

    Spawned analyses use their bare-start scale, in-process ones their loop scale.
    """
    return [wall * (k if scaled else 1.0)
            for (wall, _, ok), k in zip(loop["analyses"], speed_scales(loop)) if ok]


def speed_scales(loop) -> list:
    return loop.get("spawn_scales") or [a[1] for a in loop["analyses"]]


def latency_metrics(latencies) -> dict:
    ordered = sorted(latencies)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8] if len(ordered) > 1 \
        else ordered[0]
    return {"analysis_s.p50": (statistics.median(ordered), "s"),
            "analysis_s.p90": (p90, "s")}


def tail_note(n: int) -> str:
    """The highest percentile with ten samples beyond it, for short runs."""
    if n >= 100:
        return f"n={n}"
    pct = max(0, (n - 10) * 100 // n) if n else 0
    return f"n={n}; fewer than 100 samples, highest percentile with 10 beyond is p{pct}"


def layer_metrics(spans, scales) -> dict:
    """Per-analysis self times and counts of each layer from the traced run.

    `scales` holds each traced analysis's speed scale, by analysis id; self
    times are converted to reference seconds with it.
    """
    selfs = [t * scales[span[tracing.ANALYSIS]]
             for span, t in zip(spans, tracing.self_times(spans))]
    names = {span[tracing.ID]: span[tracing.NAME] for span in spans}
    time_by, calls_by, counts = {}, {}, {}
    describe_under = {"report.build_bundle": 0, "report.render": 0}
    for span, self_s in zip(spans, selfs):
        name = span[tracing.NAME]
        time_by[name] = time_by.get(name, 0.0) + self_s
        calls_by[name] = calls_by.get(name, 0) + 1
        for key, value in (span[tracing.COUNTS] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        if name == "stats.describe":
            parent = names.get(span[tracing.PARENT], "")
            if parent.startswith("report.render"):
                describe_under["report.render"] += 1
            elif parent == "report.build_bundle":
                describe_under["report.build_bundle"] += 1

    n = max(len(scales), 1)
    per = lambda name: time_by.get(name, 0.0) / n  # noqa: E731
    calls = lambda name: calls_by.get(name, 0) / n  # noqa: E731
    parse_s = time_by.get("ingest.parse_events", 0.0) + time_by.get("ingest.parse_counts", 0.0)
    rows = counts.get(("ingest.parse_events", "rows"), 0) \
        + counts.get(("ingest.parse_counts", "rows"), 0)
    kept = counts.get(("ingest.aggregate", "kept"), 0) \
        + counts.get(("ingest.matrices_from_counts", "kept"), 0)
    indices = [name for name in time_by if name.startswith("indices.")]
    m = {
        "cli.self_s": (per("cli"), "s"),
        "cli.write.bytes": (counts.get(("cli", "bytes"), 0) / n, "bytes"),
        "ingest.parse_events.s": (per("ingest.parse_events"), "s"),
        "ingest.parse_counts.s": (per("ingest.parse_counts"), "s"),
        "ingest.aggregate.s": (per("ingest.aggregate"), "s"),
        "ingest.matrices_from_counts.s": (per("ingest.matrices_from_counts"), "s"),
        "ingest.parse.s": (parse_s / n, "s"),
        "ingest.select.s": (per("ingest.aggregate") + per("ingest.matrices_from_counts"), "s"),
        "ingest.rows": (rows / n, "count"),
        "ingest.rows_per_s": (rows / parse_s if parse_s else 0.0, "1/s"),
        "ingest.rows_kept_ratio": (kept / rows if rows else 0.0, "ratio"),
        "probability.shares.s": (per("probability.shares"), "s"),
        "probability.conditional.s": (per("probability.conditional"), "s"),
        "indices.s": (sum(time_by[name] for name in indices) / n, "s"),
        "indices.calls": (sum(calls_by[name] for name in indices) / n, "count"),
        "stats.describe.s": (per("stats.describe"), "s"),
        "stats.describe.calls": (calls("stats.describe"), "count"),
        "stats.describe.build_bundle.calls": (describe_under["report.build_bundle"] / n, "count"),
        "stats.describe.render.calls": (describe_under["report.render"] / n, "count"),
        "stats.t_one_sample.s": (per("stats.t_one_sample"), "s"),
        "stats.t_one_sample.calls": (calls("stats.t_one_sample"), "count"),
        "stats.chi_square_uniform.s": (per("stats.chi_square_uniform"), "s"),
        "stats.z_one_sample.s": (per("stats.z_one_sample"), "s"),
        "special.regularized_beta.s": (per("special.regularized_beta"), "s"),
        "special.regularized_beta.calls": (calls("special.regularized_beta"), "count"),
        "special.chi_square_sf.s": (per("special.chi_square_sf"), "s"),
        "special.chi_square_sf.calls": (calls("special.chi_square_sf"), "count"),
        "special.normal_cdf.s": (per("special.normal_cdf"), "s"),
        "spectral.top_peaks.s": (per("spectral.top_peaks"), "s"),
        "spectral.dft_terms": (counts.get(("spectral.top_peaks", "dft_terms"), 0) / n, "count"),
        "report.build_bundle.self_s": (per("report.build_bundle"), "s"),
        "report.render.bytes": (sum(counts.get((f"report.render.{e}", "bytes"), 0)
                                    for e in EMITS) / n, "bytes"),
    }
    for emit in EMITS:
        name = f"report.render.{emit}"
        # per analysis that rendered this format
        m[f"{name}.s"] = (time_by.get(name, 0.0) / max(calls_by.get(name, 0), 1), "s")
    return m


def all_metrics(setup, plain, traced, failed, attempted) -> dict:
    """Every metric of a run by name, as (value, unit); per-layer ones only if traced."""
    times = ok_times(plain)
    metrics = {
        "setup_s": (setup["setup"], "s"),
        **latency_metrics(times),
        # a closed loop with one client: completed analyses over their busy time
        "analyses_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (plain["maxrss_kb"] / 1024, "MB"),
        "fail_ratio": (failed / max(attempted, 1), "ratio"),
        "interp.s": (setup["interp"], "s"),
        # set-up is in bare-start units, so the import part is what exceeds one start
        "import.s": (setup["setup"] - speed.INTERP_REFERENCE_S, "s"),
    }
    if traced is not None:
        metrics.update(layer_metrics(traced["spans"], [a[1] for a in traced["analyses"]]))
        overhead = statistics.median(ok_times(traced)) - statistics.median(times)
        metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seasonstats benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED + ("BENCHMARK.json",) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a seasonstats checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    selected = bench["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench"
    run_dir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        setup = measure_setup(env, run_dir)
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        if args.trace:
            plain = run_loop(workload, args.seconds / 2, False, env)
            traced = run_loop(workload, args.seconds / 2, True, env)
            loops = [plain, traced]
        else:
            plain = traced = run_loop(workload, args.seconds, False, env)
            loops = [plain]
        attempted = sum(len(loop["analyses"]) for loop in loops)
        failed = sum(check_outputs(workload, loop) for loop in loops)
        if not ok_times(plain) or not ok_times(traced):
            raise BenchError("no analysis completed")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = all_metrics(setup, plain, traced if args.trace else None, failed, attempted)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"environment: python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))}, "
          f"interp.s {setup['interp']:.6f} s (bare interpreter start; site .pth imports "
          f"belong to the machine, judge import-time changes by import.s)")
    if args.trace:
        spans_file = work / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(traced["spans"]))
        print(f"traced analyses {len(traced['analyses'])}, untraced {len(plain['analyses'])}; "
              f"spans written to {spans_file.relative_to(ROOT)}")
    wall = ok_times(plain, scaled=False)
    print(f"analyses {attempted}, failed {failed}; {tail_note(len(wall))}")
    print(f"wall clock, not normalized: analysis p50 {statistics.median(wall):.6f} s, "
          f"speed scale p50 {statistics.median(speed_scales(plain)):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")

    unknown = [m["name"] for m in selected if m["name"] not in metrics]
    if unknown:
        print(f"perfbench: BENCHMARK.json names unmeasured metrics {unknown}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in selected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
