"""Hypergraph substrate.

A hypergraph ``H = (V, N)`` is a set of vertices and a set of *nets*
(hyperedges), each net being a subset of the vertices (its *pins*).  This
package provides:

* :class:`~repro.hypergraph.hypergraph.Hypergraph` — immutable dual-CSR
  storage with vertex weights, net costs and optional fixed-vertex
  assignments;
* :mod:`~repro.hypergraph.builders` — construction helpers and validation;
* :mod:`~repro.hypergraph.partition` — K-way partition representation and the
  quality metrics of the paper (Eqs. 1–3): balance, cut-net cutsize and
  connectivity-minus-one cutsize;
* :mod:`~repro.hypergraph.io` — PaToH / hMeTiS file formats.
"""

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.builders import (
    hypergraph_from_netlists,
    hypergraph_from_csr,
    validate_hypergraph,
)
from repro.hypergraph.partfile import read_partition, write_partition
from repro.hypergraph.partition import (
    Partition,
    compute_part_weights,
    net_connectivities,
    cutsize_connectivity,
    cutsize_cutnet,
    imbalance,
    is_balanced,
    external_nets,
    validate_partition,
)

__all__ = [
    "Hypergraph",
    "hypergraph_from_netlists",
    "hypergraph_from_csr",
    "validate_hypergraph",
    "Partition",
    "compute_part_weights",
    "net_connectivities",
    "cutsize_connectivity",
    "cutsize_cutnet",
    "imbalance",
    "is_balanced",
    "external_nets",
    "validate_partition",
    "read_partition",
    "write_partition",
]
