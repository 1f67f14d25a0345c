"""Process-parallel SpMV: actually execute the decomposition.

The simulator counts messages; this module *sends* them.  One OS process
per virtual processor runs the canonical three-phase algorithm against its
compiled :class:`~repro.spmv.plan.ProcessorPlan`, exchanging numpy payloads
through per-rank queues (the moral equivalent of the mpi4py point-to-point
pattern in an environment without MPI):

1. expand — each rank posts its planned x fragments and then receives
   exactly the fragments its plan announces;
2. local multiply over its own nonzeros;
3. fold — partial row sums travel to the row owners, which accumulate and
   return their y slice to the coordinator.

Every rank touches only data its plan grants it, so a planning bug surfaces
as a missing-key failure rather than a silently wrong answer; the test
suite checks the result is exactly ``A @ x``.

This is a demonstration substrate, not a performance play: Python processes
plus queues will not outrun serial scipy at these sizes.  The point is that
the decomposition *runs*, end to end, with real message passing.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod

import numpy as np
import scipy.sparse as sp

from repro._util import reap
from repro.core.decomposition import Decomposition
from repro.spmv.plan import CommPlan, build_comm_plan
from repro.telemetry import get_recorder

__all__ = ["parallel_spmv"]


def _worker(
    rank: int,
    plan_data: dict,
    local: dict,
    inboxes,
    result_queue,
) -> None:
    """One virtual processor (see module docstring).

    Both phases share one inbox, and a fast neighbour's fold message can
    arrive while this rank is still collecting expand messages — so every
    message carries a phase tag, and out-of-phase arrivals are stashed.
    """
    my_inbox = inboxes[rank]
    stash: list[tuple[str, int, list, np.ndarray]] = []

    def recv(phase: str):
        for idx, msg in enumerate(stash):
            if msg[0] == phase:
                return stash.pop(idx)[1:]
        while True:
            msg = my_inbox.get()
            if msg[0] == phase:
                return msg[1:]
            stash.append(msg)

    # phase 1: expand — send owned x entries per plan, then receive
    for dst, cols in plan_data["expand_send"]:
        payload = np.array([local["x_frag"][j] for j in cols])
        inboxes[dst].put(("expand", rank, cols, payload))
    for _ in range(len(plan_data["expand_recv"])):
        src, cols, payload = recv("expand")
        for j, v in zip(cols, payload):
            local["x_frag"][int(j)] = float(v)

    # phase 2: local multiply into per-row partials
    partials: dict[int, float] = {}
    xf = local["x_frag"]
    for i, j, v in zip(local["rows"], local["cols"], local["vals"]):
        partials[int(i)] = partials.get(int(i), 0.0) + float(v) * xf[int(j)]

    # phase 3: fold — ship partials to row owners, then accumulate
    for dst, rows in plan_data["fold_send"]:
        payload = np.array([partials.pop(int(i), 0.0) for i in rows])
        inboxes[dst].put(("fold", rank, rows, payload))
    y_local = {int(i): partials.get(int(i), 0.0) for i in plan_data["y_owned"]}
    for _ in range(len(plan_data["fold_recv"])):
        src, rows, payload = recv("fold")
        for i, v in zip(rows, payload):
            y_local[int(i)] = y_local.get(int(i), 0.0) + float(v)

    result_queue.put((rank, y_local))


def parallel_spmv(
    dec: Decomposition,
    x: np.ndarray,
    plan: CommPlan | None = None,
    timeout: float = 120.0,
) -> np.ndarray:
    """Run ``y = A x`` on ``dec.k`` real processes; returns the global y.

    The decomposition's matrix and ownership maps are shipped to the
    workers once per call — amortize by reusing the plan across calls when
    iterating.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dec.n,):
        raise ValueError("x has wrong shape")
    rec = get_recorder()
    parallel_span = rec.span("spmv.parallel", k=dec.k)
    with parallel_span as psp:
        if plan is None:
            with rec.span("spmv.parallel.plan"):
                plan = build_comm_plan(dec)
        if rec.enabled:
            # planned traffic (both phases), for cross-checks against the
            # simulator's counters: plans and stats must agree exactly
            for p in plan.processors:
                psp.add("spmv.expand.msgs", len(p.expand_send))
                psp.add(
                    "spmv.expand.words",
                    sum(len(c) for c in p.expand_send.values()),
                )
                psp.add("spmv.fold.msgs", len(p.fold_send))
                psp.add(
                    "spmv.fold.words",
                    sum(len(r) for r in p.fold_send.values()),
                )
        y = _run_workers(dec, x, plan, timeout, rec)
    return y


def _run_workers(
    dec: Decomposition,
    x: np.ndarray,
    plan: CommPlan,
    timeout: float,
    rec,
) -> np.ndarray:
    k = dec.k
    ctx = mp.get_context("fork") if hasattr(mp, "get_context") else mp
    inboxes = [ctx.Queue() for _ in range(k)]
    result_queue = ctx.Queue()

    procs = []
    for p in plan.processors:
        plan_data = {
            "expand_send": [(d, c.tolist()) for d, c in sorted(p.expand_send.items())],
            "expand_recv": sorted(p.expand_recv),
            "fold_send": [(d, r.tolist()) for d, r in sorted(p.fold_send.items())],
            "fold_recv": sorted(p.fold_recv),
            "y_owned": p.y_owned.tolist(),
        }
        sel = p.local_nnz
        local = {
            "rows": dec.nnz_row[sel].tolist(),
            "cols": dec.nnz_col[sel].tolist(),
            "vals": dec.nnz_val[sel].tolist(),
            "x_frag": {int(j): float(x[j]) for j in np.flatnonzero(dec.x_owner == p.rank)},
        }
        proc = ctx.Process(
            target=_worker,
            args=(p.rank, plan_data, local, inboxes, result_queue),
        )
        proc.start()
        procs.append(proc)

    y = np.zeros(dec.m, dtype=np.float64)
    reported: set[int] = set()
    try:
        with rec.span("spmv.parallel.exec", workers=len(procs)):
            for _ in range(k):
                try:
                    rank, y_local = result_queue.get(timeout=timeout)
                except queue_mod.Empty:
                    # name the culprits instead of surfacing a bare Empty:
                    # a hung collective is a *which rank* question
                    missing = sorted(set(range(k)) - reported)
                    dead = sorted(
                        p.rank for p, proc in zip(plan.processors, procs)
                        if not proc.is_alive() and p.rank in missing
                    )
                    raise TimeoutError(
                        f"parallel SpMV stalled: no result within {timeout}s; "
                        f"missing ranks {missing}"
                        + (f" (ranks {dead} died)" if dead else " (all alive)")
                    ) from None
                reported.add(rank)
                for i, v in y_local.items():
                    y[i] = v
    finally:
        # kill any rank that outlives a grace join (e.g. one wedged in a
        # queue feeder); leaked children would hold the inbox pipes open
        for proc in procs:
            if reap(proc, grace=5):
                rec.add("spmv.worker_killed")
        for q in inboxes:
            q.close()
            q.cancel_join_thread()
        result_queue.close()
        result_queue.cancel_join_thread()
    return y
