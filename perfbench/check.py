"""Output checks for the six documents an analysis writes.

Every document is flattened to {(row key, column label): cell}, whatever
its format, so CSV, Markdown and JSON are checked by the same rules:

- bundled data: CSV must be byte-equal to the goldens; every cell of the
  Markdown and JSON documents must equal the matching golden CSV cell;
- synthetic data: the t1/t2 month shares, the t3 ratios with their `NA`
  positions and the t6 peaks are recomputed from the generator's tallies,
  t6 with an independent plain DFT, and must match within one unit in the
  last rendered place.

Each check returns a list of problems; an empty list means the documents pass.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DOCUMENT_NAMES = ("t1_submitted", "t2_accepted", "t3_conditional",
                  "t4_monthly_entropy", "t5_indices", "t6_fourier")
MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
# leading label columns of each CSV/Markdown grid
LABEL_COLUMNS = {"t5_indices": 2, "t6_fourier": 2}
PEAK_FIELDS = ("frequency", "period_months", "amplitude")
PEAK_COUNT = 2


def _grid_cells(name, header, rows) -> dict:
    n = LABEL_COLUMNS.get(name, 1)
    cells = {}
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{name}: row {row[:n]} has {len(row)} cells, header {len(header)}")
        for label, cell in zip(header[n:], row[n:]):
            cells[(tuple(row[:n]), label)] = cell
    return cells


def _csv_cells(name, text):
    header, *rows = list(csv.reader(text.splitlines()))
    return _grid_cells(name, header, rows)


def _md_row(line):
    return [cell.strip() for cell in line.strip()[1:-1].split("|")]


def _md_cells(name, text):
    header, _rule, *rows = text.splitlines()
    return _grid_cells(name, _md_row(header), [_md_row(line) for line in rows])


def _json_cells(name, text):
    body = json.loads(text)
    cells = {}
    if name == "t5_indices":
        for block, entry in body["blocks"].items():
            for label, column in entry["columns"].items():
                for index, value in column.items():
                    cells[((block, index), label)] = value
    elif name == "t6_fourier":
        for series, peaks in body["series"].items():
            for peak in peaks:
                for field in PEAK_FIELDS:
                    cells[((series, str(peak["rank"])), field)] = peak[field]
    else:
        for label, column in body["columns"].items():
            for part in ("months", "footer"):
                for row, value in column[part].items():
                    cells[((row,), label)] = value
    return cells


FLATTEN = {"csv": _csv_cells, "md": _md_cells, "json": _json_cells}


def number(cell):
    """A cell as a float, or None for an undefined (`NA`/null) cell."""
    if cell is None or cell == "NA":
        return None
    return float(cell)


def _same_number(got, want) -> bool:
    try:
        return number(got) == number(want)
    except (TypeError, ValueError):
        return False


def flatten(docs: dict, emit: str) -> tuple:
    """Flatten every document; returns (cells by document, problems)."""
    out, problems = {}, []
    for name in DOCUMENT_NAMES:
        if name not in docs:
            problems.append(f"{name}: missing")
            continue
        try:
            out[name] = FLATTEN[emit](name, docs[name])
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"{name}: unreadable {emit}: {exc!r}")
    return out, problems


def check_golden(docs: dict, emit: str, golden_dir: Path) -> list:
    """Bundled data: compare against the golden CSV documents."""
    cells, problems = flatten(docs, emit)
    for name, got in cells.items():
        golden_text = (golden_dir / f"{name}.csv").read_text(encoding="utf-8")
        if emit == "csv":
            if docs[name] != golden_text:
                problems.append(f"{name}: CSV differs from golden")
            continue
        want = _csv_cells(name, golden_text)
        if got.keys() != want.keys():
            problems.append(f"{name}: cells {sorted(got.keys() ^ want.keys())[:4]} differ")
        for key in got.keys() & want.keys():
            equal = (got[key] == want[key] if emit == "md"
                     else _same_number(got[key], want[key]))
            if not equal:
                problems.append(f"{name} {key}: {got[key]!r} != golden {want[key]!r}")
    return problems


def _spectrum(series) -> list:
    """|X_k| for k = 0 .. T//2 by the plain DFT sum, independent of the program."""
    t_len = len(series)
    out = []
    for k in range(t_len // 2 + 1):
        w = 2.0 * math.pi * k / t_len
        re = math.fsum(x * math.cos(w * t) for t, x in enumerate(series))
        im = math.fsum(x * math.sin(w * t) for t, x in enumerate(series))
        out.append(math.hypot(re, im))
    return out


def expected_tables(tallies, journal: str) -> dict:
    """Expected t1/t2 shares, t3 ratios and t6 spectra from the generator's tallies."""
    years = tallies.years(journal)
    total_label = f"[{years[0]}-{years[-1]}]"
    sub = {(y, m): tallies[(journal, y, m)][0] for y in years for m in range(1, 13)}
    acc = {(y, m): tallies[(journal, y, m)][1] for y in years for m in range(1, 13)}
    cells = {}
    for name, counts in (("t1_submitted", sub), ("t2_accepted", acc)):
        grand = sum(counts.values())
        for m in range(1, 13):
            row = (MONTHS[m - 1],)
            for y in years:
                year_total = sum(counts[(y, mm)] for mm in range(1, 13))
                cells[(name, row, str(y))] = counts[(y, m)] / year_total
            cells[(name, row, total_label)] = sum(counts[(y, m)] for y in years) / grand
    for m in range(1, 13):
        row = (MONTHS[m - 1],)
        for y in years:
            s, a = sub[(y, m)], acc[(y, m)]
            cells[("t3_conditional", row, str(y))] = None if s == 0 else a / s
        s = sum(sub[(y, m)] for y in years)
        a = sum(acc[(y, m)] for y in years)
        cells[("t3_conditional", row, total_label)] = None if s == 0 else a / s
    spectra = {series: _spectrum([counts[(y, m)] for y in years for m in range(1, 13)])
               for series, counts in (("submitted", sub), ("accepted", acc))}
    return {"cells": cells, "spectra": spectra, "months": 12 * len(years)}


def _close(cell, want, tol) -> bool:
    try:
        got = number(cell)
    except (TypeError, ValueError):
        return False
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def check_expected(docs: dict, emit: str, expected: dict, precision: int) -> list:
    """Synthetic data: compare against values recomputed from the tallies."""
    cells, problems = flatten(docs, emit)
    if problems:
        return problems
    tol = 10.0 ** -precision * (1 + 1e-9)
    for (name, row, label), want in expected["cells"].items():
        got = cells[name].get((row, label))
        if (row, label) not in cells[name] or not _close(got, want, tol):
            problems.append(f"{name} {row} {label}: {got!r} != {want!r}")
    t_len = expected["months"]
    for series, spectrum in expected["spectra"].items():
        ranked = sorted(spectrum[1:], reverse=True)
        seen = set()
        for rank in range(1, PEAK_COUNT + 1):
            try:
                freq, period, amp = (number(cells["t6_fourier"][((series, str(rank)), f)])
                                     for f in PEAK_FIELDS)
                k = round(freq * t_len)
                ok = (1 <= k <= t_len // 2 and k not in seen
                      and _close(freq, k / t_len, tol) and _close(period, t_len / k, tol)
                      and _close(amp, spectrum[k], tol)
                      and abs(spectrum[k] - ranked[rank - 1]) <= 1e-9 * ranked[0])
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"t6_fourier {series} rank {rank}: wrong peak")
            else:
                seen.add(k)
    return problems
