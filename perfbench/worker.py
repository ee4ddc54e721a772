"""One workload process: a closed loop of analyses with one client.

`python3 worker.py SPEC RESULT` runs `seasonstats.cli.main(argv)` in this
process, one analysis after another, until the spec's time is up, and
writes the latencies, failures, distinct outputs and (when traced) spans to
RESULT as JSON.

`python3 worker.py --traced-child SPANS -- ARGV...` runs a single traced
analysis the way `python -m seasonstats ARGV...` would, then writes its
spans to SPANS. The bundled-data workload uses it for its traced run.

Both need `src` on PYTHONPATH.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
from check import DOCUMENT_NAMES
from tracing import COUNTS, Tracer


class Loop:
    """Latencies, failures and distinct document sets of one timed loop.

    For every attempted analysis it keeps [wall seconds, loop scale, ok];
    the loop scale comes from the reference work timed around the analysis
    (see speed.py). Spawned analyses are scaled by bare starts instead.
    Each distinct set of documents is written once to the directory above
    the output directory, and counted by how many analyses produced it.
    """

    def __init__(self):
        self.analyses = []
        self.failures = []
        self.outputs = {}
        self._calibration = speed.calibrate()

    @property
    def attempted(self) -> int:
        return len(self.analyses)

    def record(self, journal, emit, out_dir: Path, latency, problem):
        """Record one finished analysis; identical outputs are stored once."""
        calibration = speed.calibrate()
        scale = speed.scale(self._calibration, calibration)
        self._calibration = calibration
        self.analyses.append([latency, scale, not problem])
        if problem:
            self.failures.append(problem)
            return None
        docs = {}
        for name in DOCUMENT_NAMES:
            path = out_dir / f"{name}.{emit}"
            if path.exists():
                docs[name] = path.read_text(encoding="utf-8")
                path.unlink()
        blob = json.dumps({"journal": journal, "emit": emit, "docs": docs})
        digest = hashlib.sha256(blob.encode()).hexdigest()
        if digest not in self.outputs:
            # kept on disk, not in memory, so they do not add to the peak RSS
            path = out_dir.parent / f"output-{digest}.json"
            path.write_text(blob)
            self.outputs[digest] = {"path": str(path), "count": 0}
        self.outputs[digest]["count"] += 1
        return docs

    def as_dict(self):
        return {"analyses": self.analyses, "failures": self.failures,
                "outputs": list(self.outputs.values())}


def analysis_problem(code, stdout: str, stderr: str):
    """Why one analysis failed, from its exit code and output; None if it did not."""
    if code != 0 or "Traceback" in stderr:
        return f"exit {code}: {stderr[-400:]}"
    if not stdout.startswith("wrote 6 documents"):
        return f"unexpected stdout {stdout!r}"
    return None


def plan_argv(base_argv, journal, emit, out_dir):
    return [*base_argv, "--journal", journal, "--emit", emit, "--out", str(out_dir)]


def run_in_process(spec) -> dict:
    import seasonstats.cli

    out_dir = Path(spec["out_dir"])
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    loop = Loop()
    plan = spec["plan"]
    deadline = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < deadline:
        journal, emit = plan[loop.attempted % len(plan)]
        argv = plan_argv(spec["base_argv"], journal, emit, out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            root = tracer.span("cli") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with root as span:
                    code = seasonstats.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback fails the analysis; the loop goes on
                traceback.print_exc()
                code = "traceback"
            latency = time.perf_counter() - t0
        problem = analysis_problem(code, stdout.getvalue(), stderr.getvalue())
        gc.collect()
        docs = loop.record(journal, emit, out_dir, latency, problem)
        if tracer:
            span[COUNTS] = {"bytes": sum(len(t.encode("utf-8")) for t in (docs or {}).values())}
            tracer.analysis += 1
    result = loop.as_dict()
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def traced_child(spans_path, argv) -> int:
    tracer = Tracer()
    import seasonstats.cli

    tracer.install()
    with tracer.span("cli"):
        code = seasonstats.cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


def main() -> int:
    if sys.argv[1] == "--traced-child":
        return traced_child(sys.argv[2], sys.argv[4:])
    spec = json.loads(Path(sys.argv[1]).read_text())
    Path(sys.argv[2]).write_text(json.dumps(run_in_process(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
