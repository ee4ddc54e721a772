"""Seeded synthetic inputs for the benchmark, with the generator's own tallies.

Two inputs are made, each covering complete years only:

- a counts CSV for one journal over LONG_YEARS years, where about 2% of the
  months have no submissions, so the conditional table has `NA` cells;
- an events CSV with EVENT_ROWS rows spread over EVENT_JOURNALS journals with
  Zipf-like sizes over EVENT_YEARS years.

Each generator returns a `Tallies` mapping (journal, year, month) to
[submitted, accepted]. The output check recomputes expected tables from it,
never from the program's own parse.
"""
from __future__ import annotations

import calendar
import math
import random
from datetime import date

LONG_JOURNAL = "LongSeries"
LONG_FIRST_YEAR = 2001
LONG_YEARS = 20
LONG_ZERO_SHARE = 0.02

EVENT_ROWS = 40_000
EVENT_JOURNALS = 50
EVENT_FIRST_YEAR = 2011
EVENT_YEARS = 10
ZIPF_EXPONENT = 1.0


class Tallies(dict):
    """(journal, year, month) -> [submitted, accepted]."""

    def journals(self) -> list:
        return sorted({key[0] for key in self})

    def years(self, journal: str) -> tuple:
        return tuple(sorted({y for j, y, _ in self if j == journal}))


def _seasonal_profile(rng: random.Random) -> list:
    """Twelve positive month weights with an annual and a quarterly component."""
    phase, phase3 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    amp, amp3 = rng.uniform(0.1, 0.35), rng.uniform(0.0, 0.15)
    return [1.0 + amp * math.sin(2 * math.pi * m / 12 + phase)
            + amp3 * math.sin(2 * math.pi * m / 4 + phase3) for m in range(12)]


def _binomial(rng: random.Random, n: int, p: float) -> int:
    return sum(1 for _ in range(n) if rng.random() < p)


def long_series_counts(seed: int) -> tuple:
    """Counts CSV text for one journal over LONG_YEARS complete years."""
    rng = random.Random(f"long-series:{seed}")
    profile = _seasonal_profile(rng)
    years = range(LONG_FIRST_YEAR, LONG_FIRST_YEAR + LONG_YEARS)
    months = [(y, m) for y in years for m in range(1, 13)]
    # at most one empty month per year, so no year total is zero
    n_zero = round(LONG_ZERO_SHARE * len(months))
    zero_years = rng.sample(list(years), n_zero)
    zero = {(y, rng.randint(1, 12)) for y in zero_years}
    tallies = Tallies()
    lines = ["journal,year,month,submitted,accepted"]
    for i, (y, m) in enumerate(months):
        if (y, m) in zero:
            sub = acc = 0
        else:
            rate = 40.0 * (1.0 + 0.03 * i / 12) * profile[m - 1]
            sub = max(2, round(rng.gauss(rate, math.sqrt(rate))))
            acc = max(1, _binomial(rng, sub, rng.uniform(0.3, 0.6)))
        tallies[(LONG_JOURNAL, y, m)] = [sub, acc]
        lines.append(f"{LONG_JOURNAL},{y},{m},{sub},{acc}")
    return "\n".join(lines) + "\n", tallies


def multi_journal_events(seed: int) -> tuple:
    """Events CSV text, EVENT_ROWS rows over EVENT_JOURNALS journals."""
    rng = random.Random(f"events:{seed}")
    names = [f"J{i:02d}" for i in range(1, EVENT_JOURNALS + 1)]
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, EVENT_JOURNALS + 1)]
    rng.shuffle(weights)
    years = range(EVENT_FIRST_YEAR, EVENT_FIRST_YEAR + EVENT_YEARS)
    tallies = Tallies()
    events = []

    def add(journal, y, m, accepted):
        day = rng.randint(1, calendar.monthrange(y, m)[1])
        events.append((date(y, m, day).isoformat(), journal,
                       "accepted" if accepted else "rejected"))
        cell = tallies.setdefault((journal, y, m), [0, 0])
        cell[0] += 1
        cell[1] += accepted

    # every journal gets every month cell and, in each year, accepted events
    # in two months, so each year is complete and no footer column is empty
    for journal in names:
        for y in years:
            for m in range(1, 13):
                tallies[(journal, y, m)] = [0, 0]
            for m in rng.sample(range(1, 13), 2):
                add(journal, y, m, True)
    fixed = len(events)
    scale = (EVENT_ROWS - fixed) / sum(weights)
    for journal, weight in zip(names, weights):
        profile = _seasonal_profile(rng)
        accept_p = rng.uniform(0.2, 0.6)
        cells = [(y, m) for y in years for m in range(1, 13)]
        cell_weights = [profile[m - 1] for _, m in cells]
        for y, m in rng.choices(cells, cell_weights, k=round(weight * scale)):
            add(journal, y, m, rng.random() < accept_p)
    # the t and describe footers refuse a constant column (exit 1), which a
    # small journal can draw by chance: one more event breaks the tie
    for journal in names:
        for y in years:
            while (patch := _constant_column(tallies, journal, y)) is not None:
                add(journal, y, *patch)
    events.sort()
    lines = ["journal,submitted_at,decision"]
    lines.extend(f"{journal},{day},{decision}" for day, journal, decision in events)
    return "\n".join(lines) + "\n", tallies


def _constant_column(tallies, journal, year):
    """An event (month, accepted) that makes a constant footer column vary, or None."""
    cells = [tallies[(journal, year, m)] for m in range(1, 13)]
    busy = next(m for m, (sub, _) in enumerate(cells, start=1) if sub)
    if len({sub for sub, _ in cells}) == 1:
        return busy, False
    if len({acc for _, acc in cells}) == 1:
        return busy, True
    if len({acc / sub for sub, acc in cells if sub}) == 1:
        return busy, False
    return None


def journal_sequence(seed: int, journals: list, n: int) -> list:
    """The seeded order in which the events workload selects journals."""
    rng = random.Random(f"journals:{seed}")
    return [rng.choice(journals) for _ in range(n)]

