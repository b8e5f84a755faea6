"""Benchmark harness: measurement service, experiments, reporting.

Modelled on the Benchmarking Service the paper used (§4, [10]): repeated
measurement with warm-up discards, parameter binding from generator
metadata, per-experiment orchestration and paper-style reports.  The
artifact differ behind ``repro bench-diff`` lives in :mod:`.compare`,
over the ``repro-bench`` artifacts :mod:`.artifact` reads and writes.
"""

from .service import BenchmarkService, Measurement
from .report import format_delta_table, format_figure, format_ratio_table, geometric_mean

__all__ = [
    "BenchmarkService",
    "Measurement",
    "format_delta_table",
    "format_figure",
    "format_ratio_table",
    "geometric_mean",
]
