"""Dual-CSR hypergraph storage.

The representation mirrors PaToH's: the net→pin incidence is stored as a CSR
pair ``(xpins, pins)`` and the transposed vertex→net incidence as
``(xnets, vnets)``.  Both views are kept because the partitioning algorithms
walk the structure in both directions in their inner loops (coarsening walks
vertex→net→pin; refinement walks vertex→net and net→pin).

Vertices carry integer weights (computational load; the fine-grain model uses
unit weights and zero-weight dummy diagonal vertices).  Nets carry integer
costs (communication word counts; unit in this paper).  An optional
``fixed`` array pre-assigns vertices to parts — the mechanism §3 of the paper
uses to support reduction problems with pre-assigned inputs/outputs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro._util import INDEX_DTYPE, ensure_int_array, prefix_from_counts

__all__ = ["Hypergraph"]


def _transpose_csr(xadj: np.ndarray, adj: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Transpose a CSR incidence (rows → cols) into (cols → rows).

    Fully vectorized: one sort of the keys ``col * nrows + row`` orders the
    entries by column, then row, and the row is the key's remainder.
    """
    nrows = len(xadj) - 1
    counts = np.bincount(adj, minlength=ncols)
    xout = prefix_from_counts(counts)
    rows = np.repeat(np.arange(nrows, dtype=INDEX_DTYPE), np.diff(xadj))
    key = adj * nrows + rows
    key.sort()
    return xout, key % max(nrows, 1)


class Hypergraph:
    """Immutable hypergraph with weights, costs and optional fixed vertices.

    Parameters
    ----------
    xpins, pins:
        CSR arrays for net → pin lists.  ``pins[xpins[j]:xpins[j+1]]`` are the
        vertices of net *j*.  Pin lists must contain no duplicates.
    vertex_weights:
        Integer weight per vertex; defaults to all ones.
    net_costs:
        Integer cost per net; defaults to all ones.
    fixed:
        Optional per-vertex pre-assignment (part id, or -1 for free).
    validate:
        When true (default) the structure is checked for well-formedness.
    """

    __slots__ = (
        "num_vertices",
        "num_nets",
        "xpins",
        "pins",
        "xnets",
        "vnets",
        "vertex_weights",
        "net_costs",
        "fixed",
        "_views",
    )

    def __init__(
        self,
        num_vertices: int,
        xpins: Sequence[int] | np.ndarray,
        pins: Sequence[int] | np.ndarray,
        vertex_weights: Sequence[int] | np.ndarray | None = None,
        net_costs: Sequence[int] | np.ndarray | None = None,
        fixed: Sequence[int] | np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.xpins = ensure_int_array(xpins, "xpins")
        self.pins = ensure_int_array(pins, "pins")
        self.num_nets = len(self.xpins) - 1

        if vertex_weights is None:
            self.vertex_weights = np.ones(self.num_vertices, dtype=INDEX_DTYPE)
        else:
            self.vertex_weights = ensure_int_array(vertex_weights, "vertex_weights")
        if net_costs is None:
            self.net_costs = np.ones(self.num_nets, dtype=INDEX_DTYPE)
        else:
            self.net_costs = ensure_int_array(net_costs, "net_costs")
        if fixed is None:
            self.fixed = None
        else:
            self.fixed = ensure_int_array(fixed, "fixed")

        if validate:
            self._check()

        self.xnets, self.vnets = _transpose_csr(self.xpins, self.pins, self.num_vertices)
        self._views: dict[str, object] = {}

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check(self) -> None:
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if len(self.xpins) < 1 or self.xpins[0] != 0:
            raise ValueError("xpins must start at 0")
        if np.any(np.diff(self.xpins) < 0):
            raise ValueError("xpins must be non-decreasing")
        if self.xpins[-1] != len(self.pins):
            raise ValueError("xpins[-1] must equal len(pins)")
        if len(self.pins) and (self.pins.min() < 0 or self.pins.max() >= self.num_vertices):
            raise ValueError("pin vertex id out of range")
        if len(self.vertex_weights) != self.num_vertices:
            raise ValueError("vertex_weights length mismatch")
        if np.any(self.vertex_weights < 0):
            raise ValueError("vertex weights must be non-negative")
        if len(self.net_costs) != self.num_nets:
            raise ValueError("net_costs length mismatch")
        if np.any(self.net_costs < 0):
            raise ValueError("net costs must be non-negative")
        if self.fixed is not None and len(self.fixed) != self.num_vertices:
            raise ValueError("fixed length mismatch")
        # duplicate pins within one net break the pin-count bookkeeping of
        # every algorithm downstream, so reject them here once and for all
        if len(self.pins):
            net_of_pin = np.repeat(
                np.arange(self.num_nets, dtype=INDEX_DTYPE), np.diff(self.xpins)
            )
            order = np.lexsort((self.pins, net_of_pin))
            sp, sn = self.pins[order], net_of_pin[order]
            dup = np.flatnonzero((sp[1:] == sp[:-1]) & (sn[1:] == sn[:-1]))
            if len(dup):
                raise ValueError(f"net {int(sn[dup[0]])} has duplicate pins")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_pins(self) -> int:
        """Total number of pins (sum of net sizes)."""
        return len(self.pins)

    def pins_of(self, net: int) -> np.ndarray:
        """Vertices of *net* (a view, do not mutate)."""
        return self.pins[self.xpins[net] : self.xpins[net + 1]]

    def nets_of(self, vertex: int) -> np.ndarray:
        """Nets incident to *vertex* (a view, do not mutate)."""
        return self.vnets[self.xnets[vertex] : self.xnets[vertex + 1]]

    def net_size(self, net: int) -> int:
        """Number of pins of *net*."""
        return int(self.xpins[net + 1] - self.xpins[net])

    def net_sizes(self) -> np.ndarray:
        """Array of all net sizes."""
        return np.diff(self.xpins)

    def vertex_degree(self, vertex: int) -> int:
        """Number of nets incident to *vertex*."""
        return int(self.xnets[vertex + 1] - self.xnets[vertex])

    def vertex_degrees(self) -> np.ndarray:
        """Array of all vertex degrees."""
        return np.diff(self.xnets)

    def total_vertex_weight(self) -> int:
        """Sum of all vertex weights."""
        return int(self.vertex_weights.sum())

    def iter_nets(self) -> Iterator[np.ndarray]:
        """Yield the pin list of every net in order."""
        for j in range(self.num_nets):
            yield self.pins_of(j)

    # ------------------------------------------------------------------
    # cached derived views
    #
    # The hypergraph is immutable after construction, so derived
    # structures the inner loops need — plain-list copies of the CSR
    # arrays, the pin→net map, the gain bound — are computed once and
    # shared by every consumer (coarsening, FM refinement, greedy
    # growing, V-cycles all revisit the same level objects).  Callers
    # must treat the returned objects as read-only.
    # ------------------------------------------------------------------
    def _view(self, key: str, make):
        views = self._views
        out = views.get(key)
        if out is None:
            out = views[key] = make()
        return out

    def xpins_list(self) -> list[int]:
        """``xpins`` as a plain list (cached; read-only)."""
        return self._view("xpins", self.xpins.tolist)

    def pins_list(self) -> list[int]:
        """``pins`` as a plain list (cached; read-only)."""
        return self._view("pins", self.pins.tolist)

    def xnets_list(self) -> list[int]:
        """``xnets`` as a plain list (cached; read-only)."""
        return self._view("xnets", self.xnets.tolist)

    def vnets_list(self) -> list[int]:
        """``vnets`` as a plain list (cached; read-only)."""
        return self._view("vnets", self.vnets.tolist)

    def weights_list(self) -> list[int]:
        """``vertex_weights`` as a plain list (cached; read-only)."""
        return self._view("w", self.vertex_weights.tolist)

    def costs_list(self) -> list[int]:
        """``net_costs`` as a plain list (cached; read-only)."""
        return self._view("cost", self.net_costs.tolist)

    def net_of_pin(self) -> np.ndarray:
        """Net id of every pin position (cached; read-only)."""
        return self._view(
            "net_of_pin",
            lambda: np.repeat(
                np.arange(self.num_nets, dtype=INDEX_DTYPE), np.diff(self.xpins)
            ),
        )

    def max_incident_cost(self) -> int:
        """Max over vertices of the total incident net cost (cached).

        This is the classic FM gain-magnitude bound used to size the
        gain buckets.
        """

        def compute() -> int:
            if self.num_pins == 0:
                return 1
            # float sums of integer costs are exact below 2**53
            tot = np.bincount(
                self.pins,
                weights=self.net_costs[self.net_of_pin()],
                minlength=self.num_vertices,
            )
            return max(int(tot.max()), 1)

        return self._view("gain_bound", compute)

    # ------------------------------------------------------------------
    # pickling (tree-parallel subtree tasks ship their sub-hypergraphs to
    # worker processes by pickle; the derived-view cache is dropped rather
    # than shipped)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__ if s != "_views"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._views = {}

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hypergraph(V={self.num_vertices}, N={self.num_nets}, "
            f"P={self.num_pins}, W={self.total_vertex_weight()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        same_fixed = (self.fixed is None) == (other.fixed is None) and (
            self.fixed is None or np.array_equal(self.fixed, other.fixed)
        )
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.xpins, other.xpins)
            and np.array_equal(self.pins, other.pins)
            and np.array_equal(self.vertex_weights, other.vertex_weights)
            and np.array_equal(self.net_costs, other.net_costs)
            and same_fixed
        )

    def __hash__(self) -> int:  # consistent with custom __eq__
        return hash((self.num_vertices, self.num_nets, self.num_pins))
