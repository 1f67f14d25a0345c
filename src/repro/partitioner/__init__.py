"""Multilevel hypergraph partitioner — the PaToH analogue.

The paper runs PaToH [5] on its hypergraph models.  This package implements
the same multilevel pipeline from scratch:

1. **Coarsening** (:mod:`~repro.partitioner.coarsen`): randomized
   agglomerative clustering — heavy-connectivity matching (HCM) or
   heavy-connectivity clustering (HCC) — followed by coarse-hypergraph
   construction with single-pin-net removal and identical-net merging.
2. **Initial partitioning** (:mod:`~repro.partitioner.initial`): multi-start
   greedy hypergraph growing (GHG) and random balanced bisections on the
   coarsest hypergraph.
3. **Uncoarsening with refinement** (:mod:`~repro.partitioner.refine`):
   boundary Fiduccia–Mattheyses passes with gain buckets
   (:mod:`~repro.partitioner.gainbucket`) and hill-climbing rollback.
4. **K-way via recursive bisection** (:mod:`~repro.partitioner.recursive`)
   with *cut-net splitting*, which makes the sum of bisection cuts equal the
   connectivity-minus-one cutsize of the final K-way partition — the
   property that lets recursive bisection minimize Eq. 3 of the paper.
5. Optional **direct K-way refinement** (:mod:`~repro.partitioner.kway`) as
   a final improvement pass.

Fixed vertices (pre-assigned parts) are honoured throughout, supporting the
paper's reduction-problem extension.
"""

from repro.partitioner.config import (
    ExecutionPolicy,
    ModelConfig,
    PartitionerConfig,
    resolve_backend,
)
from repro.partitioner.driver import PartitionResult, partition_hypergraph
from repro.partitioner.engine import StartStat, partition_multistart
from repro.partitioner.kernels import kernel_info
from repro.partitioner.pool import TreeScheduler, WorkerBudget

__all__ = [
    "ExecutionPolicy",
    "ModelConfig",
    "PartitionerConfig",
    "PartitionResult",
    "StartStat",
    "TreeScheduler",
    "WorkerBudget",
    "kernel_info",
    "partition_hypergraph",
    "partition_multistart",
    "resolve_backend",
]
