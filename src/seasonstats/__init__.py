"""Seasonal structure of monthly event series.

Quantifies how far monthly submission and acceptance counts deviate from
a uniform year: probability tables, entropy and diversity indices,
inequality measures, significance tests, and DFT periodicity detection.
"""
from .indices import (diversity, entropy, exponential_entropy, gini, hhi, lorenz,
                      monthly_entropy_terms, theil)
from .ingest import (CountMatrix, DataError, aggregate, matrices_from_counts, parse_counts,
                     parse_events)
from .probability import MonthTable, conditional, normalize, shares
from .report import (AnalysisBundle, AnalysisOptions, NamedDocument,
                     build_bundle, render)
from .spectral import SpectralPeak, dft_magnitudes, top_peaks
from .stats import (DescriptiveStats, TestResult, chi_square_uniform,
                    describe, t_cdf, t_one_sample, z_one_sample)

__version__ = "0.1.0"

__all__ = [
    "AnalysisBundle", "AnalysisOptions", "CountMatrix", "DataError", "DescriptiveStats",
    "MonthTable", "NamedDocument", "SpectralPeak", "TestResult",
    "aggregate", "build_bundle", "chi_square_uniform", "conditional", "describe",
    "dft_magnitudes", "diversity", "entropy", "exponential_entropy", "gini", "hhi",
    "lorenz", "matrices_from_counts", "monthly_entropy_terms", "normalize",
    "parse_counts", "parse_events", "render", "shares", "t_cdf", "t_one_sample",
    "theil", "top_peaks", "z_one_sample",
]
