"""K-way partitions of a hypergraph and the paper's quality metrics.

Implements the three central definitions of §2 of the paper:

* **balance** (Eq. 1): every part weight ``W_k <= W_avg * (1 + eps)``;
* **cut-net cutsize** (Eq. 2): sum of the costs of nets connecting more than
  one part;
* **connectivity-minus-one cutsize** (Eq. 3): each cut net ``n_j``
  contributes ``c_j * (lambda_j - 1)`` — the metric that *exactly* equals
  communication volume under the fine-grain model.

All metrics are vectorized: connectivity per net is computed with one
lexsort over the (net, part) incidence pairs rather than a Python loop over
nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import INDEX_DTYPE, ensure_int_array
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "Partition",
    "compute_part_weights",
    "net_connectivities",
    "net_connectivity_sets",
    "cutsize_connectivity",
    "cutsize_cutnet",
    "imbalance",
    "is_balanced",
    "external_nets",
    "validate_partition",
]


def compute_part_weights(h: Hypergraph, part: np.ndarray, k: int) -> np.ndarray:
    """Weight of each part: ``W_k = sum of w_i for v_i in P_k``."""
    return np.bincount(part, weights=h.vertex_weights, minlength=k).astype(INDEX_DTYPE)


def net_connectivities(h: Hypergraph, part: np.ndarray) -> np.ndarray:
    """Connectivity ``lambda_j`` (number of distinct parts) of every net.

    Empty nets get connectivity 0 by convention (they can never be cut).
    """
    if h.num_pins == 0:
        return np.zeros(h.num_nets, dtype=INDEX_DTYPE)
    net_of_pin = np.repeat(np.arange(h.num_nets, dtype=INDEX_DTYPE), np.diff(h.xpins))
    pin_parts = part[h.pins]
    order = np.lexsort((pin_parts, net_of_pin))
    sn = net_of_pin[order]
    sp = pin_parts[order]
    # a (net, part) pair is "new" where either the net or the part changes
    new_pair = np.empty(len(sn), dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (sn[1:] != sn[:-1]) | (sp[1:] != sp[:-1])
    return np.bincount(sn[new_pair], minlength=h.num_nets).astype(INDEX_DTYPE)


def net_connectivity_sets(h: Hypergraph, part: np.ndarray) -> list[np.ndarray]:
    """Connectivity set ``Lambda_j`` (sorted array of part ids) per net.

    Used by the SpMV simulator's decode step and by tests.  Fully
    vectorized: one lexsort over the (net, part) incidence pairs dedups
    every net's part set at once, and the result is sliced back per net —
    no per-net ``np.unique`` calls (the former Python loop over all nets
    dominated decode time on large instances).
    """
    part = np.asarray(part)
    if h.num_pins == 0:
        return [np.empty(0, dtype=part.dtype) for _ in range(h.num_nets)]
    net_of_pin = h.net_of_pin()
    pin_parts = part[h.pins]
    order = np.lexsort((pin_parts, net_of_pin))
    sn = net_of_pin[order]
    sp = pin_parts[order]
    new_pair = np.empty(len(sn), dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (sn[1:] != sn[:-1]) | (sp[1:] != sp[:-1])
    # distinct parts per net, grouped by net in one contiguous array;
    # slice it apart with plain-int bounds (5x cheaper than np.split)
    nets = sn[new_pair]
    parts = sp[new_pair]
    counts = np.bincount(nets, minlength=h.num_nets)
    bounds = np.empty(h.num_nets + 1, dtype=INDEX_DTYPE)
    bounds[0] = 0
    np.cumsum(counts, out=bounds[1:])
    b = bounds.tolist()
    return [parts[b[j] : b[j + 1]] for j in range(h.num_nets)]


def cutsize_connectivity(h: Hypergraph, part: np.ndarray) -> int:
    """Connectivity-minus-one cutsize (Eq. 3): ``sum c_j * (lambda_j - 1)``."""
    lam = net_connectivities(h, part)
    nonempty = lam > 0
    return int(np.sum(h.net_costs[nonempty] * (lam[nonempty] - 1)))


def cutsize_cutnet(h: Hypergraph, part: np.ndarray) -> int:
    """Cut-net cutsize (Eq. 2): ``sum of c_j over nets with lambda_j > 1``."""
    lam = net_connectivities(h, part)
    return int(np.sum(h.net_costs[lam > 1]))


def external_nets(h: Hypergraph, part: np.ndarray) -> np.ndarray:
    """Ids of the cut (external) nets of the partition."""
    return np.flatnonzero(net_connectivities(h, part) > 1)


def imbalance(h: Hypergraph, part: np.ndarray, k: int) -> float:
    """Percent-free imbalance ratio ``(W_max - W_avg) / W_avg``.

    The paper reports ``100 x (W_max - W_avg) / W_avg``; this function
    returns the unscaled ratio.
    """
    w = compute_part_weights(h, part, k)
    avg = h.total_vertex_weight() / k
    if avg == 0:
        return 0.0
    return float((w.max() - avg) / avg)


def is_balanced(h: Hypergraph, part: np.ndarray, k: int, epsilon: float) -> bool:
    """Check the balance criterion of Eq. 1 with tolerance *epsilon*."""
    return imbalance(h, part, k) <= epsilon + 1e-12


def validate_partition(h: Hypergraph, part: np.ndarray, k: int) -> None:
    """Raise if *part* is not a valid K-way partition of *h*'s vertices.

    A valid partition assigns every vertex a part id in ``[0, k)``; it must
    also respect any fixed-vertex pre-assignments carried by the hypergraph.
    (The paper's definition additionally requires non-empty parts; we relax
    that for degenerate instances but expose emptiness via part weights.)
    """
    part = np.asarray(part)
    if part.shape != (h.num_vertices,):
        raise ValueError("partition vector has wrong length")
    if h.num_vertices and (part.min() < 0 or part.max() >= k):
        raise ValueError("part id out of range")
    if h.fixed is not None:
        locked = h.fixed >= 0
        if np.any(part[locked] != h.fixed[locked]):
            raise ValueError("partition violates fixed-vertex assignments")


@dataclass
class Partition:
    """A K-way partition of a hypergraph plus lazily computed metrics.

    Attributes
    ----------
    part:
        Array of length ``num_vertices``: part id of each vertex.
    k:
        Number of parts.
    """

    part: np.ndarray
    k: int
    _h: Hypergraph | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.part = ensure_int_array(self.part, "part")

    def bind(self, h: Hypergraph) -> "Partition":
        """Attach the hypergraph this partition refers to (for metrics)."""
        validate_partition(h, self.part, self.k)
        self._h = h
        return self

    # -- metric shortcuts ------------------------------------------------
    def _hg(self) -> Hypergraph:
        if self._h is None:
            raise RuntimeError("Partition not bound to a hypergraph; call .bind(h)")
        return self._h

    @property
    def part_weights(self) -> np.ndarray:
        """Weights of the K parts."""
        return compute_part_weights(self._hg(), self.part, self.k)

    @property
    def cutsize(self) -> int:
        """Connectivity-minus-one cutsize (Eq. 3), the paper's objective."""
        return cutsize_connectivity(self._hg(), self.part)

    @property
    def cutsize_cutnet(self) -> int:
        """Cut-net cutsize (Eq. 2)."""
        return cutsize_cutnet(self._hg(), self.part)

    @property
    def imbalance(self) -> float:
        """``(W_max - W_avg) / W_avg``."""
        return imbalance(self._hg(), self.part, self.k)

    def is_balanced(self, epsilon: float) -> bool:
        """Whether the partition satisfies Eq. 1 for tolerance *epsilon*."""
        return is_balanced(self._hg(), self.part, self.k, epsilon)
