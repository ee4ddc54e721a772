"""Spans around the calls into each seasonstats layer, recorded from outside.

`Tracer.install()` replaces the public functions at the names the pipeline
calls them through (for example `seasonstats.report.describe`) with wrappers
that record a span; `uninstall()` puts the originals back. Nothing under
`src/` is changed.

A span is the list [id, parent id, name, start, end, analysis id, counts],
kept in memory and written out when the run ends. A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

_perf = time.perf_counter

ID, PARENT, NAME, START, END, ANALYSIS, COUNTS = range(7)


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _kept_events(args, kwargs, result):
    return {"kept": sum(result[0].totals)}


def _kept_counts(args, kwargs, result):
    return {"kept": 12 * len(result[0].years)}


def _dft_terms(args, kwargs, result):
    t = len(args[0])
    return {"dft_terms": t * (t // 2)}


def _render_bytes(args, kwargs, result):
    return {"bytes": sum(len(doc.text.encode("utf-8")) for doc in result)}


def _render_name(args, kwargs):
    return f"report.render.{args[1] if len(args) > 1 else kwargs['format']}"


# (module, attribute, span name, counter): the attribute is the name the
# pipeline looks the function up by at call time
WRAPPED = (
    ("seasonstats.cli", "parse_events", "ingest.parse_events", _rows),
    ("seasonstats.cli", "parse_counts", "ingest.parse_counts", _rows),
    ("seasonstats.cli", "aggregate", "ingest.aggregate", _kept_events),
    ("seasonstats.cli", "matrices_from_counts", "ingest.matrices_from_counts", _kept_counts),
    ("seasonstats.cli", "build_bundle", "report.build_bundle", None),
    ("seasonstats.cli", "render", _render_name, _render_bytes),
    ("seasonstats.report", "shares", "probability.shares", None),
    ("seasonstats.report", "conditional", "probability.conditional", None),
    ("seasonstats.report", "entropy", "indices.entropy", None),
    ("seasonstats.report", "diversity", "indices.diversity", None),
    ("seasonstats.report", "exponential_entropy", "indices.exponential_entropy", None),
    ("seasonstats.report", "theil", "indices.theil", None),
    ("seasonstats.report", "hhi", "indices.hhi", None),
    ("seasonstats.report", "gini", "indices.gini", None),
    ("seasonstats.report", "monthly_entropy_terms", "indices.monthly_entropy_terms", None),
    ("seasonstats.report", "describe", "stats.describe", None),
    ("seasonstats.report", "t_one_sample", "stats.t_one_sample", None),
    ("seasonstats.report", "chi_square_uniform", "stats.chi_square_uniform", None),
    ("seasonstats.report", "z_one_sample", "stats.z_one_sample", None),
    ("seasonstats.report", "top_peaks", "spectral.top_peaks", _dft_terms),
    ("seasonstats.stats", "regularized_beta", "special.regularized_beta", None),
    ("seasonstats.stats", "chi_square_sf", "special.chi_square_sf", None),
    ("seasonstats.stats", "normal_cdf", "special.normal_cdf", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.analysis = 0
        self._stack = []
        self._originals = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, 0.0, 0.0, self.analysis, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span):
        span[END] = _perf()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record one span around a block; yields the span so counts can be added."""
        span = self._open(name)
        span[START] = _perf()
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else name(args, kwargs))
            span[START] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result
        return traced

    def install(self):
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals within it."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for span in spans:
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
