"""Partition quality metrics for graphs (edge cut, balance)."""

from __future__ import annotations

import numpy as np

from repro._util import INDEX_DTYPE
from repro.graph.graph import Graph

__all__ = ["edge_cut", "graph_part_weights", "graph_imbalance", "validate_graph_partition"]


def edge_cut(g: Graph, part: np.ndarray) -> int:
    """Total weight of edges whose endpoints lie in different parts."""
    cut = part[g.source()] != part[g.adj]
    # each undirected edge is stored twice
    return int(g.adjwgt[cut].sum() // 2)


def graph_part_weights(g: Graph, part: np.ndarray, k: int) -> np.ndarray:
    """Sum of vertex weights per part."""
    return np.bincount(part, weights=g.vwgt, minlength=k).astype(INDEX_DTYPE)


def graph_imbalance(g: Graph, part: np.ndarray, k: int) -> float:
    """``(W_max - W_avg) / W_avg`` over the part weights."""
    w = graph_part_weights(g, part, k)
    avg = g.total_vertex_weight() / k
    if avg == 0:
        return 0.0
    return float((w.max() - avg) / avg)


def validate_graph_partition(g: Graph, part: np.ndarray, k: int) -> None:
    """Raise unless *part* is a valid K-way partition of the vertices."""
    part = np.asarray(part)
    if part.shape != (g.num_vertices,):
        raise ValueError("partition vector has wrong length")
    if g.num_vertices and (part.min() < 0 or part.max() >= k):
        raise ValueError("part id out of range")
