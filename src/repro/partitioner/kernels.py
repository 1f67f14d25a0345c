"""The routes each V-cycle phase can take (``repro.kernels()``).

Every V-cycle phase has one production implementation.  Matching, FM
and GHG keep a second route each, because a recorded number shows it
wins, and pick between them from the input alone — never from timing or
a setting.  Matching picks per level: the *single-term* route on levels
where every connectivity score is one net's term (every fine-grain
finest level), the *product* route elsewhere: one blocked sparse product
scores the whole level
(:func:`~repro.partitioner.coarsen.match_vertices`).

FM refinement and GHG initial bisection share one move body
(:meth:`~repro.partitioner.refine.FMCore.apply_move`), which picks a
route per move from the moving vertex and the pin counts: the *inline*
route relinks a touched pin once per critical-net rule that hits it; the
*dedup* route, taken by a vertex of at least ``refine._DEDUP_DEGREE``
nets whose critical nets hold at least ``refine._DEDUP_EVENTS`` pin
events, gathers those events with numpy and relinks each touched pin
once (:meth:`~repro.partitioner.refine.FMCore._dedup_move`; counted in
``fm.dedup_moves``).  Fine-grain finest levels, where every vertex has
degree <= 2, always take the inline route.

K-way refinement and the coarse build run one implementation each; the
coarse build's is the *sort* contraction
(:func:`~repro.partitioner.coarsen.build_coarse`).  K-way
refinement's sweep (:func:`~repro.partitioner.kway.kway_refine`) scores
a vertex only when some net of nonzero cost holds it alone in its part.
That skip is exact: net costs are non-negative, so a vertex no net
holds alone has no positive-gain move.

The per-pin matcher, the two-bucket FM and GHG of ``tests/fm_reference.py``
and the scalar per-vertex K-way sweep stay as the reference bodies the
tests diff the production code against, so every route produces the same
bits.
"""

from __future__ import annotations

__all__ = ["PHASES", "kernel_info"]

#: per phase, the routes it can take (in the route-name vocabulary of the
#: ``coarsen.match`` span attribute; ``reference`` names a phase's one
#: implementation, ``sort`` the coarse build's; FM and GHG growth pick
#: ``inline`` or ``dedup`` per move)
PHASES = {
    "fm": ["inline", "dedup"],
    "matching": ["single-term", "product"],
    "coarse_build": ["sort"],
    "initial": ["inline", "dedup"],
    "kway": ["reference"],
}


def kernel_info() -> dict:
    """Static report of the V-cycle routes (``repro.kernels()``)::

        {"phases": {"fm": ["inline", "dedup"],
                    "matching": ["single-term", "product"], ...}}

    The report is plain JSON data.
    """
    return {"phases": {phase: list(routes) for phase, routes in PHASES.items()}}
