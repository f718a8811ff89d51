"""Experiment cells, per-figure scale parameters, paper reference data,
tables.  Figures run through :func:`repro.exp.run_experiment`."""

from .experiments import (
    barneshut_cell,
    barneshut_scaling_cell,
    barrier_cell,
    bitonic_cell,
    bounded_memory_cell,
    embedding_cell,
    fig2_cell,
    fig9_rows_from_cells,
    fig10_rows_from_cells,
    invalidation_cell,
    matmul_cell,
    remapping_cell,
    scale_params,
    tree_degree_cell,
)
from .tables import PAPER, format_table, ratio

__all__ = [
    "scale_params",
    "fig2_cell",
    "matmul_cell",
    "bitonic_cell",
    "barneshut_cell",
    "barneshut_scaling_cell",
    "fig9_rows_from_cells",
    "fig10_rows_from_cells",
    "tree_degree_cell",
    "embedding_cell",
    "invalidation_cell",
    "remapping_cell",
    "barrier_cell",
    "bounded_memory_cell",
    "PAPER",
    "format_table",
    "ratio",
]
