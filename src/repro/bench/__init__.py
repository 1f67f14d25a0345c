"""Experiment harness reproducing the paper's evaluation section.

* :mod:`~repro.bench.runner` — decomposition-instance runner with
  multi-seed averaging (the paper averages 50 PaToH/MeTiS runs per
  instance);
* :mod:`~repro.bench.tables` — formatters printing Table 1 and Table 2 in
  the paper's layout;
* :mod:`~repro.bench.summary` — the §4 headline numbers (overall average
  improvements, message bounds, normalized runtimes);
* :mod:`~repro.bench.harness` — the host probe, JSON record writer and
  live-daemon helper shared by the ``BENCH_*`` records;
* ``python -m repro.bench`` — command-line front end.
"""

from repro.bench.runner import (
    InstanceResult,
    ModelAverages,
    run_instance,
    run_matrix_instances,
    run_table2,
    MODELS,
)
from repro.bench.tables import format_table1, format_table2
from repro.bench.summary import summarize_table2, Summary
from repro.bench.paper_data import PAPER_OVERALL, PAPER_TABLE2, PaperRow, paper_row
from repro.bench.experiments import render_experiments_md
from repro.bench.export import results_to_csv, results_to_latex

__all__ = [
    "PAPER_OVERALL",
    "PAPER_TABLE2",
    "PaperRow",
    "paper_row",
    "render_experiments_md",
    "results_to_csv",
    "results_to_latex",
    "InstanceResult",
    "ModelAverages",
    "run_instance",
    "run_matrix_instances",
    "run_table2",
    "MODELS",
    "format_table1",
    "format_table2",
    "summarize_table2",
    "Summary",
]
